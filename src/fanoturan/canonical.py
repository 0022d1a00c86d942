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
by one chunk per label: the edges {i, j, k}, i < j < k, that label k closes.
A chunk is kept as one int with pair (i, j) at bit _TOP - C(j, 2) - i, so of
two chunks at the same level the larger int is the lexicographically smaller
rank sequence (a chunk that extends another is the smaller one: its extra
edge ranks below every edge of a later level).  Each node holds the chunk
every unassigned vertex would get from the next label, and extends it for a
child by one row of pairs (i, k), read from a third-vertex mask.  A node on
the best labeling's path compares each candidate's chunk with the best one
at that level before descending: candidates run in decreasing chunk order,
so the first one that loses ends the loop, and one that wins starts a
strictly smaller labeling.  Once all edges are placed the unassigned
vertices are isolated, so each of their len(remaining)! orders completes to
the same sequence and is counted in one step.

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
A candidate that loses cannot share an orbit with a sibling finished since
best last changed (the automorphism would give both the same chunk), so
ending the loop early drops no credit.  is_canonical runs the same search
with h's own labeling as the best one and stops at the first labeling that
beats it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .errors import CapabilityError, ParameterError
from .hypergraph import Hypergraph

CANONICAL_CAP = 12

# The largest offset C(j, 2) + i of a pair i < j < k in a chunk, k < CANONICAL_CAP.
_TOP = comb(CANONICAL_CAP - 1, 2) - 1


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
    """(least labeling, |Aut|) of h; see the module docstring.

    The labeling lists, for each new label, the vertex that gets it.  With
    seeded=True the search starts from h's own labeling as the best one and
    returns None at the first labeling that beats it, so it answers "is h
    canonical" without finishing the search; the result then is meaningless.
    """
    n, e = h.n, h.edge_count
    if e == comb(n, 3):
        # Complete: every relabeling gives the same edge set.
        return list(range(n)), factorial(n)

    thirds = h.thirds()
    best = [0] * n  # per level, the chunk of the best labeling found so far
    if seeded:
        for a, b, c in h.edges():
            best[c] |= 1 << (_TOP - b * (b - 1) // 2 - a)
    best_lab = list(range(n))  # the labeling (label -> vertex) that first reached best
    aut = 0  # tied leaves counted since best last changed
    version = 0  # bumped whenever best changes
    gens: list[list[int]] = []  # automorphisms found so far
    assigned: list[int] = []
    path: list[int] = []  # the chunks of the assigned labels
    label_bit = [0] * n  # assigned vertex v -> 1 << (_TOP - label of v)
    no_jump = n

    def descend(chunks: dict[int, int], placed: int, tied: bool, fixing: list[list[int]]) -> int:
        # chunks: unassigned vertex -> its chunk as label k, in vertex order.
        # placed: the number of edges inside the first k labels.
        # tied: the first k chunks equal best's (else they beat them).
        # fixing: the automorphisms found so far that fix the first k labels.
        # Returns no_jump, or the depth of the ancestor that must take over
        # (-1 ends a seeded search: some labeling beats h).
        nonlocal best, best_lab, aut, version
        k = len(assigned)
        if placed == e:
            # The remaining vertices are isolated: all their orders tie here.
            lab = assigned + list(chunks)
            if not tied:
                best, best_lab = path + [0] * (n - k), lab
                aut = factorial(n - k)
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
        known = 0
        for v in assigned:
            known |= 1 << v
        shift = k * (k - 1) // 2
        seen = len(gens)
        orbit: list[int] = []
        orbit_gens = 0
        done: dict[int, tuple[int, int]] = {}  # finished child -> (version, its tied leaves)
        for u in sorted(chunks, key=chunks.__getitem__, reverse=True):
            c = chunks[u]
            child_tied = tied
            if tied and c != best[k]:
                if c < best[k]:
                    break  # and so does every later candidate
                if seeded:
                    return -1
                child_tied = False
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
            # Giving u label k adds the pairs (i, k) with {label i, u, v} an
            # edge to v's chunk.
            row = thirds[u]
            child = {}
            for v, cv in chunks.items():
                if v != u:
                    ts = row[v] & known
                    while ts:
                        low = ts & -ts
                        ts ^= low
                        cv |= label_bit[low.bit_length() - 1] >> shift
                    child[v] = cv
            assigned.append(u)
            path.append(c)
            label_bit[u] = 1 << (_TOP - k)
            j = descend(child, placed + c.bit_count(), child_tied,
                        fixing and [g for g in fixing if g[u] == u])
            path.pop()
            assigned.pop()
            tied = True  # best now runs through this node, if it did not already
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

    if descend(dict.fromkeys(range(n), 0), 0, seeded, []) < 0:
        return None
    return best_lab, aut


@lru_cache(maxsize=65536)
def _canonicalize(n: int, bits: int) -> tuple[Hypergraph, int]:
    """(least relabeling, number of relabelings attaining it = |Aut|)."""
    h = Hypergraph(n, bits)
    lab, aut = _search(h)
    perm = [0] * n
    for i, v in enumerate(lab):
        perm[v] = i
    return relabel(h, perm), aut


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
