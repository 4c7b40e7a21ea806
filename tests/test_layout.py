"""Every top-level function and class in the package is used by the package.

A definition in src/evacsim/ must be referenced outside its own body,
somewhere in src/ or perfbench/, or be exported in evacsim.__all__.  So
must every public method or property of a class there (dunders are
called by Python itself, and _-prefixed names are private).
Reference code that only tests call belongs in tests/oracles.py.  The
package holds no assert statements: python -O strips them, so its
invariants raise real errors.  No module imports another's _-prefixed
(private) name; a rule two modules need is public in one of them.
"""

import ast
import re
from pathlib import Path

import evacsim

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "evacsim"


def _unused(nodes_by_path):
    """path:line name for each node whose name appears nowhere in src/ or
    perfbench/ outside the node's own lines (decorators included)."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    sources = {p: p.read_text().splitlines() for p in paths}
    unused = []
    for path, node in nodes_by_path:
        word = re.compile(rf"\b{re.escape(node.name)}\b")
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        own = range(first - 1, node.end_lineno)
        if not any(
            word.search(line)
            for p, lines in sources.items()
            for k, line in enumerate(lines)
            if not (p == path and k in own)
        ):
            unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node


def test_every_definition_in_src_is_used_outside_tests():
    assert _unused((p, n) for p, n in _definitions() if n.name not in evacsim.__all__) == []


def test_every_public_member_of_a_src_class_is_used_outside_tests():
    members = [
        (path, node)
        for path, cls in _definitions()
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert members
    assert _unused(members) == []


def test_no_assert_statements_in_src():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_private_imports_across_src_modules():
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []
