"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import fanoturan
from fanoturan import canonical
from fanoturan.hypergraph import Hypergraph

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fanoturan"

# Library entry points that no module of the package calls, kept on purpose.
ENTRY_POINTS = {
    "contains_fano": "the README example",
    "contains_fano_cover": "perfbench times the cover-based Fano test through it",
    "random_hypergraph": "the tests' seeded input generator",
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


def test_no_module_starts_processes():
    # a process pool was slower than one process at every worker count; one
    # that comes back should come with a measurement
    banned = {"concurrent", "multiprocessing"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            found += [f"{path.name}:{root}" for root in roots if root in banned]
    assert found == []


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


def test_benchmark_names_resolve():
    # the benchmark reaches into the package by name: a traced function or an
    # `ft.` attribute that went away would only show in a traced run
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    traced = next(
        node.value for node in tracing.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets)
    )
    pairs = [(row.elts[0].value, row.elts[1].value) for row in traced.elts]
    assert pairs
    for layer, name in pairs:
        assert callable(getattr(importlib.import_module(f"fanoturan.{layer}"), name)), (layer, name)
    worker = ast.parse((ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8"))
    names = {
        node.attr for node in ast.walk(worker)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ft"
    }
    assert names
    assert sorted(n for n in names if not hasattr(fanoturan, n)) == []
    assert callable(canonical._canonicalize.cache_info)
    assert callable(Hypergraph.has_edge)
