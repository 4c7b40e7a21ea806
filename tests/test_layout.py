"""Every top-level function and class in the package is used by the package.

A definition in src/evacsim/ must be referenced outside its own body,
somewhere in src/ or perfbench/, or be exported in evacsim.__all__.
Reference code that only tests call belongs in tests/oracles.py.
"""

import ast
import re
from pathlib import Path

import evacsim

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "evacsim"


def test_every_definition_in_src_is_used_outside_tests():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    sources = {p: p.read_text().splitlines() for p in paths}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse("\n".join(sources[path]))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in evacsim.__all__:
                continue
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
    assert unused == []

