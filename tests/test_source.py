"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fanoturan"


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a name spelled as a string counts as used: the claim table looks
            # its verifiers up by name
            used.add(node.value)
    return sorted(imported - used)


def test_no_unused_imports():
    unused = {
        p.name: names
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py" and (names := _unused_imports(p))
    }
    assert unused == {}
