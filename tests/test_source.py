"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fanoturan"

# Library entry points that no module of the package calls, kept on purpose.
ENTRY_POINTS = {
    "contains_fano": "the README example",
    "contains_fano_cover": "perfbench times the cover-based Fano test through it",
    "random_hypergraph": "the tests' seeded input generator",
    "relabel": "the tests' isomorphism oracle",
    "read_checkpoint": "the README's way to replay a checkpoint file",
}


def _names_used(node):
    """The name a node spells, as an identifier or a string constant.

    A name spelled as a string counts as used: the claim table looks its
    verifiers up by name.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _unused_imports(tree):
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return sorted(imported - {_names_used(node) for node in ast.walk(tree)})


def test_no_unused_imports():
    unused = {name: names for name, tree in _modules() if (names := _unused_imports(tree))}
    assert unused == {}


def test_every_top_level_definition_is_used():
    # a definition counts as used when any other top-level statement of the
    # package names it; __init__.py only re-exports
    defined = {}
    used = set()
    for module, tree in _modules():
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                defined[own] = module
            used.update(n for node in ast.walk(stmt) if (n := _names_used(node)) not in (None, own))
    unused = sorted(f"{module}:{name}" for name, module in defined.items() if name not in used)
    assert unused == sorted(f"{defined[name]}:{name}" for name in ENTRY_POINTS)
