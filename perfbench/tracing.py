"""Layer tracing from outside the package.

A Tracer replaces each traced public function at every place a caller looks
it up (the defining module, the package namespace and every module that
imported it by name), so ``fanoturan.search.is_canonical`` is traced as well
as ``fanoturan.canonical.is_canonical``.  ``Hypergraph.has_edge`` is counted
at the class, without spans, because ex-8 calls it millions of times.

A span is recorded only where a call crosses into another layer: a call from
``canonical`` into ``canonical`` stays inside the caller's span, so a
function's self time is the cost of entering its layer from outside.  Spans
are kept in memory as (id, parent, name, start, end) and written out once,
when the pass ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict

import fanoturan
from fanoturan import canonical, hypergraph

LAYERS = ("hypergraph", "canonical", "fano", "search", "multigraph", "certificate", "cli")

# (layer, function, span label).  The label turns the call's arguments into a
# span name suffix, so each claim and each branch-and-bound instance gets its
# own row.
TRACED = (
    ("canonical", "is_canonical", None),
    ("canonical", "canonical_form", None),
    ("canonical", "automorphism_count", None),
    ("fano", "contains_fano_embedding", None),
    ("fano", "contains_fano_crossing", None),
    ("fano", "contains_fano_pasch", None),
    ("fano", "contains_fano_cover", None),
    ("fano", "triple_cover_masks", None),
    ("search", "run_claim", lambda args: args[0]),
    ("multigraph", "max_edges_no_crossing", lambda args: f"{args[0]}_{args[1]}"),
    ("multigraph", "verify_lemma_4vertex", None),
)

# run_claim spans are named after the claim, not the function.
_SPAN_BASE = {"run_claim": "claim"}


def _lookup_sites():
    yield fanoturan
    for layer in LAYERS:
        mod = sys.modules.get(f"fanoturan.{layer}")
        if mod is not None:
            yield mod


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self._stack: list[tuple[int, str]] = [(0, "bench")]  # (span id, layer)
        self._has_edge_calls = [0]
        self._patched: list[tuple[object, str, object]] = []
        self._cache0 = None
        self.visited: dict[str, int] = {}

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        rec = [len(self.spans) + 1, self._stack[-1][0], name, time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append((rec[0], layer))
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        """A benchmark-side span (an operation or the CLI run) in the same tree."""
        rec = self._open(name, layer)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, layer: str, fname: str, fn, label):
        base = f"{layer}.{_SPAN_BASE.get(fname, fname)}"
        stack = self._stack

        def traced(*args, **kwargs):
            if stack[-1][1] == layer:
                return fn(*args, **kwargs)
            rec = self._open(base if label is None else f"{base}.{label(args)}", layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if fname == "run_claim":
                self.visited[rec[2]] = out.visited
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for layer, fname, label in TRACED:
            orig = getattr(sys.modules[f"fanoturan.{layer}"], fname)
            wrapper = self._wrap(layer, fname, orig, label)
            for mod in _lookup_sites():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

        orig_has_edge = hypergraph.Hypergraph.has_edge
        cell = self._has_edge_calls

        def has_edge(self, a, b, c):
            cell[0] += 1
            return orig_has_edge(self, a, b, c)

        self._patched.append((hypergraph.Hypergraph, "has_edge", orig_has_edge))
        hypergraph.Hypergraph.has_edge = has_edge
        self._cache0 = canonical._canonicalize.cache_info()

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Deterministic counts: calls per span name, cache and has_edge use, visited."""
        out: dict[str, int] = defaultdict(int)
        for rec in self.spans:
            out[f"{rec[2]}.calls"] += 1
        info = canonical._canonicalize.cache_info()
        out["canonical.cache_hits"] = info.hits - self._cache0.hits
        out["canonical.cache_misses"] = info.misses - self._cache0.misses
        out["hypergraph.has_edge.calls"] = self._has_edge_calls[0]
        for name, v in self.visited.items():
            out[f"{name}.visited"] = v
        return dict(sorted(out.items()))

    def timings(self) -> dict[str, float]:
        """Total and self seconds per span name, self time derived from child spans."""
        child = defaultdict(float)
        for sid, parent, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, t0, t1 in self.spans:
            out[f"{name}.s"] += t1 - t0
            out[f"{name}.self_s"] += t1 - t0 - child[sid]
        return dict(sorted(out.items()))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"], "spans": self.spans}, fh)
