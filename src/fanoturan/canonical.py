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
len(remaining)! orders completes to the same sequence and is counted in
one step.

Every other leaf that ties the best one yields an automorphism: send the
vertex the best leaf labels i to the vertex this leaf labels i.  It fixes
the vertices both leaves label alike before their paths part, and maps the
finished subtree on the best leaf's side of that node onto the current one,
so the search returns to that node at once.  At each node, a candidate in
the same orbit as a finished sibling, under the automorphisms found so far
that fix the assigned labels, has an isomorphic subtree and is skipped.
Either way the skipped subtree is credited with the tied leaves counted in
its finished image, and only while best has not changed since, which keeps
|Aut| exact (McKay and Piperno, "Practical Graph Isomorphism II", 2014).
is_canonical runs the same search with h's own sequence as the starting
bound and stops at the first labeling that beats it.
"""

from __future__ import annotations

from functools import lru_cache
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


def _orbits(gens: list[list[int]], n: int) -> list[int]:
    """For each vertex, a representative of its orbit under the group gens generate."""
    rep = list(range(n))

    def find(v: int) -> int:
        while rep[v] != v:
            rep[v] = v = rep[rep[v]]
        return v

    for g in gens:
        for v in range(n):
            a, b = find(v), find(g[v])
            if a != b:
                rep[a] = b
    return [find(v) for v in range(n)]


def _search(h: Hypergraph, seeded: bool = False) -> tuple[list[int], int] | None:
    """(least rank sequence, |Aut|) of h; see the module docstring.

    With seeded=True the search starts from h's own sequence as the bound and
    returns None at the first labeling that beats it, so it answers "is h
    canonical" without building the form; the count it returns then is
    meaningless.
    """
    n, e = h.n, h.edge_count
    if e == comb(n, 3):
        # Complete: every relabeling gives the same edge set.
        return list(range(e)), factorial(n)

    thirds = h.thirds()
    best = list(h.ranks()) if seeded else None
    best_lab = list(range(n))  # the labeling (label -> vertex) that first reached best
    aut = 0  # tied leaves counted since best last changed
    version = 0  # bumped whenever best changes
    gens: list[list[int]] = []  # automorphisms found so far
    assigned: list[int] = []
    prefix: list[int] = []
    no_jump, cut = n, n + 1

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

    def descend(remaining: list[int], fixing: list[list[int]]) -> int:
        # fixing: the automorphisms found so far that fix the first k labels.
        # Returns cut (pruned on entry), no_jump, or the depth of the
        # ancestor that must take over (-1 ends a seeded search: some
        # labeling beats h).
        nonlocal best, best_lab, aut, version
        k = len(assigned)
        m = len(prefix)
        tied = False
        if best is not None:
            # best can change anywhere below, so compare fresh at every node.
            tied = True
            for i in range(m):
                if prefix[i] != best[i]:
                    if prefix[i] > best[i]:
                        return cut
                    if seeded:
                        return -1
                    tied = False
                    break
            if tied and m < e:
                # best places its next edge inside the first k labels; this
                # branch cannot, so every completion here compares greater.
                if best[m] < k * (k - 1) * (k - 2) // 6:
                    return cut
        if m == e:
            # The remaining vertices are isolated: all their orders tie here.
            lab = assigned + remaining
            if not tied:
                best, best_lab = prefix.copy(), lab
                aut = factorial(len(remaining))
                version += 1
                return no_jump
            d = next((i for i in range(k) if lab[i] != best_lab[i]), k)
            if d == k:  # the seed labeling itself
                return no_jump
            # lab and best_lab give the same edge set, so best_lab[i] -> lab[i]
            # is an automorphism.  It fixes the first d labels and maps the
            # finished subtree at best_lab[:d + 1] onto this one.
            g = [0] * n
            for a, b in zip(best_lab, lab):
                g[a] = b
            gens.append(g)
            return d
        options = []
        for u in remaining:
            ch = chunk_for(u)
            options.append((tuple(ch) + (_SENTINEL,), ch, u))
        options.sort()
        seen = len(gens)
        orbit: list[int] = []
        orbit_gens = 0
        done: dict[int, tuple[int, int]] = {}  # finished child -> (version, its tied leaves)
        for _, ch, u in options:
            if fixing:
                # A finished child in u's orbit has a subtree matching u's.
                if orbit_gens != len(fixing):
                    orbit, orbit_gens = _orbits(fixing, n), len(fixing)
                w = next((w for w in done if orbit[w] == orbit[u]), None)
                if w is not None:
                    ver, count = done[w]
                    if ver == version:
                        aut += count
                    continue
            ver0, aut0 = version, aut
            assigned.append(u)
            prefix.extend(ch)
            j = descend([v for v in remaining if v != u],
                        fixing and [g for g in fixing if g[u] == u])
            del prefix[len(prefix) - len(ch):]
            assigned.pop()
            if j == cut:
                continue
            if len(gens) > seen:  # those found below u fix the first k labels too
                fixing = fixing + gens[seen:]
                seen = len(gens)
            if j < k:
                return j
            if j == k:
                # u's subtree is the image of the finished one at best_lab[k]
                # (a seeded search explores h's own labeling first, or stops).
                aut += done[best_lab[k]][1]
                continue
            done[u] = (version, aut - aut0 if version == ver0 else aut)
        return no_jump

    if descend(list(range(n)), []) < 0:
        return None
    assert best is not None and len(best) == e
    return best, aut


@lru_cache(maxsize=65536)
def _canonicalize(n: int, bits: int) -> tuple[Hypergraph, int]:
    """(least relabeling, number of relabelings attaining it = |Aut|)."""
    best, aut = _search(Hypergraph(n, bits))
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
    """True iff h is already the least relabeling of its class.

    Stops at the first labeling that beats h, and leaves the form cache alone.
    """
    if h.n > CANONICAL_CAP:
        raise CapabilityError(
            f"canonical form is capped at {CANONICAL_CAP} vertices, got {h.n}"
        )
    return _search(h, seeded=True) is not None
