"""Canonical forms under vertex relabeling, for hypergraphs on <= 12 vertices.

The canonical form of a hypergraph is its least relabeling, as a
Hypergraph: the one of its n! relabelings whose sorted sequence of colex
edge ranks is lexicographically least.  Two hypergraphs are isomorphic iff
their canonical forms are equal.  The least sequence has the
prefix property (dropping its largest rank leaves the least sequence of the
remaining edge set's class), which the orderly complement generation in the
search module relies on.

The minimum is found by assigning new labels 0, 1, ... one original vertex
at a time.  Edges fully inside the first k labels rank below C(k, 3) and
every later edge ranks at least C(k, 3), so the sorted rank sequence grows
by append-only chunks; partial sequences are compared against the best
complete sequence found so far and losing branches are cut.  Candidates at
each level are ordered by their incremental chunk, which lands on a
near-minimal leaf immediately and makes the pruning effective.  Once all
edges are placed the unassigned vertices are isolated, so each of their
len(remaining)! orders completes to the same sequence; adding that count in
one step keeps |Aut| exact without visiting those tied leaves.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import comb, factorial

from .errors import CapabilityError, ParameterError
from .hypergraph import Hypergraph

CANONICAL_CAP = 12

_SENTINEL = comb(CANONICAL_CAP + 1, 3) + 1


def relabel(h: Hypergraph, perm) -> Hypergraph:
    """Apply the relabeling v -> perm[v] to every edge."""
    perm = tuple(perm)
    if sorted(perm) != list(range(h.n)):
        raise ParameterError(f"perm must be a permutation of range({h.n})")
    return Hypergraph.from_edges(h.n, [(perm[a], perm[b], perm[c]) for a, b, c in h.edges()])


@lru_cache(maxsize=65536)
def _canonicalize(n: int, bits: int) -> tuple[Hypergraph, int]:
    """(least relabeling, number of relabelings attaining it = |Aut|)."""
    h = Hypergraph(n, bits)
    e = h.edge_count
    if e == comb(n, 3):
        # Complete: every relabeling gives the same edge set.
        return h, factorial(n)

    # thirds[a][b]: bitmask of the vertices c with {a, b, c} an edge.
    thirds = [[0] * n for _ in range(n)]
    for t in h.edges():
        for a, b, c in permutations(t):
            thirds[a][b] |= 1 << c
    best: list[int] | None = None
    aut = 0
    assigned: list[int] = []
    prefix: list[int] = []

    def chunk_for(u: int) -> list[int]:
        # Ranks of new edges created by giving u the next label k = len(assigned);
        # emitted in increasing rank order.
        k = len(assigned)
        base_k = k * (k - 1) * (k - 2) // 6
        out = []
        for j in range(1, k):
            row = thirds[assigned[j]]
            base = base_k + j * (j - 1) // 2
            for i in range(j):
                if row[assigned[i]] >> u & 1:
                    out.append(base + i)
        return out

    def descend(remaining: list[int]) -> None:
        nonlocal best, aut
        m = len(prefix)
        tied = False
        if best is not None:
            # best can change anywhere below, so compare fresh at every node.
            tied = True
            for i in range(m):
                if prefix[i] != best[i]:
                    if prefix[i] > best[i]:
                        return
                    tied = False
                    break
            if tied and m < e:
                # best places its next edge inside the first k labels; this
                # branch cannot, so every completion here compares greater.
                k = len(assigned)
                if best[m] < k * (k - 1) * (k - 2) // 6:
                    return
        if m == e:
            # The remaining vertices are isolated: all their orders tie here.
            if tied:
                aut += factorial(len(remaining))
            else:
                best = prefix.copy()
                aut = factorial(len(remaining))
            return
        options = []
        for u in remaining:
            ch = chunk_for(u)
            options.append((tuple(ch) + (_SENTINEL,), ch, u))
        options.sort()
        for _, ch, u in options:
            assigned.append(u)
            prefix.extend(ch)
            descend([v for v in remaining if v != u])
            del prefix[len(prefix) - len(ch):]
            assigned.pop()

    descend(list(range(n)))
    assert best is not None and len(best) == e
    return Hypergraph.from_ranks(n, best), aut


def canonical_form(h: Hypergraph) -> Hypergraph:
    """The least relabeling of h; capability-capped at 12 vertices."""
    if h.n > CANONICAL_CAP:
        raise CapabilityError(
            f"canonical form is capped at {CANONICAL_CAP} vertices, got {h.n}"
        )
    form, _ = _canonicalize(h.n, h.bits)
    return form


def automorphism_count(h: Hypergraph) -> int:
    """Number of relabelings fixing the edge set (the automorphism group order)."""
    if h.n > CANONICAL_CAP:
        raise CapabilityError(
            f"automorphism counting is capped at {CANONICAL_CAP} vertices, got {h.n}"
        )
    _, aut = _canonicalize(h.n, h.bits)
    return aut


def is_canonical(h: Hypergraph) -> bool:
    """True iff h is already the least relabeling of its class."""
    return canonical_form(h) == h
