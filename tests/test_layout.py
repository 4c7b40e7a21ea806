"""Every top-level definition and name in the package is used by the package.

A definition in src/evacsim/ must be referenced outside its own body,
somewhere in src/ or perfbench/, or be exported in evacsim.__all__.  So
must every public method or property of a class there (dunders are
called by Python itself, and _-prefixed names are private), and every
name a module-level assignment binds (__all__ aside).  Reference code and
constants that only tests use belong in tests/oracles.py.  The
package holds no assert statements: python -O strips them, so its
invariants raise real errors.  No module imports another's _-prefixed
(private) name; a rule two modules need is public in one of them.  Every
name a module other than __init__.py imports is used in it: a leftover
import keeps a dead binding that tools reading the module take for a live
one.  The CLI reads no k_S, k_W or r: which runs share a set-up is
engine.run_batch's rule alone.  The package calls no numpy Generator
method but random(): the byte contract rests on rng.random() being the
only draw a run's stream ever serves.  A Grid turns the walls it is
given into its bool mask once, in Grid.__post_init__: no other package
code compares a walls array with a number or casts it with astype.
"""

import ast
import re
from pathlib import Path

import evacsim

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "evacsim"


def _unused(names_by_path):
    """path:line name for each (path, name, first, last) whose name appears
    nowhere in src/ or perfbench/ outside lines first to last of path."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    sources = {p: p.read_text().splitlines() for p in paths}
    unused = []
    for path, name, first, last in names_by_path:
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(
            word.search(line)
            for p, lines in sources.items()
            for k, line in enumerate(lines, 1)
            if not (p == path and first <= k <= last)
        ):
            unused.append(f"{path.name}:{first} {name}")
    return unused


def _named(path, node):
    """_unused's entry for a def or class, its decorators included."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return path, node.name, first, node.end_lineno


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node


def test_every_definition_in_src_is_used_outside_tests():
    assert _unused(_named(p, n) for p, n in _definitions() if n.name not in evacsim.__all__) == []


def test_every_module_level_name_in_src_is_used_outside_tests():
    bound = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            bound += [
                (path, name.id, node.lineno, node.end_lineno)
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                and name.id != "__all__"
            ]
    assert bound
    assert _unused(bound) == []


def test_every_public_member_of_a_src_class_is_used_outside_tests():
    members = [
        (path, node)
        for path, cls in _definitions()
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert members
    assert _unused(_named(p, n) for p, n in members) == []


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


def test_no_unused_imports_in_src():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_cli_reads_no_set_up_parameter():
    found = [
        f"cli.py:{node.lineno} {node.attr}"
        for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("k_s", "k_w", "r")
    ]
    assert found == []


# numpy Generator methods that draw from, or move, a stream other than by random()
_OTHER_DRAWS = frozenset({
    "integers", "choice", "uniform", "normal", "standard_normal", "shuffle", "permutation",
    "permuted", "exponential", "bytes", "advance", "jumped", "spawn",
})


def test_no_generator_method_but_random_in_src():
    called = [
        (f"{path.name}:{node.lineno}", node.func.attr)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    ]
    assert any(attr == "random" for _, attr in called)
    assert [f"{where} {attr}" for where, attr in called if attr in _OTHER_DRAWS] == []


# reads of a walls array that do not touch its cells
_NOT_CELLS = frozenset({"shape", "ndim", "size", "dtype"})


def _reads_walls(node) -> bool:
    """Whether node's value is built from the cells of a walls array."""
    if isinstance(node, ast.Attribute) and node.attr in _NOT_CELLS:
        return False
    if isinstance(node, ast.Name):
        return node.id == "walls"
    if isinstance(node, ast.Attribute) and node.attr == "walls":
        return True
    return any(_reads_walls(child) for child in ast.iter_child_nodes(node))


def test_walls_mask_is_derived_only_in_grid():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        post_init = [
            (node.lineno, node.end_lineno)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "Grid"
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
        ]
        for node in ast.walk(tree):
            if any(first <= getattr(node, "lineno", 0) <= last for first, last in post_init):
                continue
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                number = any(isinstance(o, ast.Constant) and type(o.value) in (int, float)
                             for o in operands)
                if number and any(map(_reads_walls, operands)):
                    found.append(f"{path.name}:{node.lineno} compared with a number")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "astype" and _reads_walls(node.func.value)):
                found.append(f"{path.name}:{node.lineno} astype")
    assert found == []
