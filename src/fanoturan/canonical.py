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
edge ranks below every edge of a later level).

A node at level k holds the unassigned vertices as an ordered partition
into cells: (chunk, vertex mask) pairs, one per distinct chunk the next
label would close, in decreasing chunk order.  Giving u label k adds pair (i, k) to the
chunk of every vertex in the mask thirds[u][label i], so the child's cells
are this node's cells split by those k masks, with no vertex -> label map.
Pair (i, k) sits at offset C(k, 2) + i, above every older offset C(j, 2) + i'
(j < k), so its bit lies below every bit of an older chunk: splitting keeps
the cells of different chunks in order, and taking the part inside each
mask before the part outside, for i = 0, 1, ..., lists the parts of one
cell in decreasing order.  A node on the best labeling's path compares the
first cell's chunk with the best one at that level: if it loses, so does
every candidate, and if it wins it starts a strictly smaller labeling.  Only
the first cell's vertices are candidates, in ascending order: once the first
child has returned, best runs through this node with that chunk, which every
later cell's chunk is below.  Once all edges are placed the unassigned
vertices are isolated, so each of their len(remaining)! orders completes to
the same sequence and is counted in one step.

Before it builds a child that ties best so far, the node looks ahead.  By
the bit order above, the child's largest chunk is the first other cell's
chunk extended by the lexicographically largest row of pairs (i, k) its
vertices can get, and narrowing the cell greedily by the masks for
i = 0, 1, ..., k - 1 finds it.  If that is already below best's chunk at
level k + 1, the child would lose at its first candidate: it is skipped,
and finished with no tied leaves, exactly as its search would end.  (A
child that has placed every edge is never skipped: its chunks are 0, and
so is best's at that level.)  If the child ties and its first cell is one
vertex, that vertex is its only candidate, and the node runs the child's
lookahead for it as well.  The child's second cell is what is left of the
first other cell, narrowed in the same way, or if nothing is left, the
next cell, narrowed; it is narrowed again by the masks of label k + 1 and
compared with best's chunk at level k + 2.

Every other leaf that ties the best one yields an automorphism: send the
vertex the best leaf labels i to the vertex this leaf labels i.  It fixes
the vertices both leaves label alike before their paths part, and maps the
finished subtree on the best leaf's side of that node onto the current one,
so the search returns to that node at once.  At each node, a candidate in
the same orbit as a finished sibling, under the automorphisms found so far
that fix the assigned labels, has an isomorphic subtree and is skipped.
The node keeps those orbits in a union-find and merges each automorphism
into it once, when the automorphism joins the node's list.
Either way the skipped subtree is credited with the tied leaves counted in
its finished image, and only while best has not changed since, which keeps
|Aut| exact (McKay and Piperno, "Practical Graph Isomorphism II", 2014).
A vertex outside the first cell cannot share an orbit with one inside it
(the automorphism would give both the same chunk), so leaving it out drops
no credit, and a child skipped by the lookahead adds no automorphism and no
credit.  is_canonical runs the same search with h's own labeling as the
best one and stops at the first labeling that beats it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .errors import CapabilityError, ParameterError
from .hypergraph import Hypergraph, triple_rank

CANONICAL_CAP = 12

# The largest offset C(j, 2) + i of a pair i < j < k in a chunk, k < CANONICAL_CAP.
_TOP = comb(CANONICAL_CAP - 1, 2) - 1


def relabel(h: Hypergraph, perm) -> Hypergraph:
    """Apply the relabeling v -> perm[v] to every edge."""
    perm = tuple(perm)
    if any(type(v) is not int for v in perm) or sorted(perm) != list(range(h.n)):
        raise ParameterError(f"perm must be a permutation of range({h.n})")
    # perm sends each edge to a triple of distinct vertices below n, so the
    # image's ranks go straight into its bitmask
    bits = 0
    for a, b, c in h.edges():
        bits |= 1 << triple_rank(*sorted((perm[a], perm[b], perm[c])))
    return Hypergraph(h.n, bits)


def _find(rep: list[int], v: int) -> int:
    """The root of v in the union-find rep, halving the path on the way."""
    while rep[v] != v:
        rep[v] = v = rep[rep[v]]
    return v


def _merge(rep: list[int], g: list[int]) -> None:
    """Join the orbits of the union-find rep that the permutation g links."""
    for v, w in enumerate(g):
        if v != w:
            a, b = _find(rep, v), _find(rep, w)
            if a != b:
                rep[a] = b


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
    no_jump = n

    def descend(cells: list[tuple[int, int]], placed: int, tied: bool, fixing: list[list[int]]) -> int:
        # cells: (chunk as label k, mask of the unassigned vertices with that
        # chunk), in decreasing chunk order.
        # placed: the number of edges inside the first k labels.
        # tied: the first k chunks equal best's (else they beat them).
        # fixing: the automorphisms found so far that fix the first k labels.
        # Returns no_jump, or the depth of the ancestor that must take over
        # (-1 ends a seeded search: some labeling beats h).
        nonlocal best, best_lab, aut, version
        k = len(assigned)
        if placed == e:
            # The remaining vertices are isolated: all their orders tie here.
            rest = cells[0][1] if cells else 0
            lab = assigned + [v for v in range(n) if rest >> v & 1]
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
        # Only the first cell's vertices are candidates: every later one has a
        # smaller chunk than best[k] once the first child has returned.
        c, cell = cells[0]
        if tied and c != best[k]:
            if c < best[k]:
                return no_jump  # and so does every candidate
            if seeded:
                return -1
            tied = False
        # The bit of pair (0, k); a child of the last label has no cells, and
        # at k = 11 the shift would be negative.
        last = k + 1 == n
        top = 0 if last else 1 << (_TOP - k * (k - 1) // 2)
        total = placed + c.bit_count()
        seen = len(gens)
        rep: list[int] = []  # the orbits of the first `merged` generators in fixing
        merged = 0
        done: dict[int, tuple[int, int]] = {}  # finished child -> (version, its tied leaves)
        todo = cell
        while todo:
            low = todo & -todo
            todo ^= low
            u = low.bit_length() - 1
            if fixing and done:
                # A finished child in u's orbit has a subtree matching u's.
                if merged != len(fixing):
                    if not merged:
                        rep = list(range(n))
                    for g in fixing[merged:]:
                        _merge(rep, g)
                    merged = len(fixing)
                r = _find(rep, u)
                w = next((w for w in done if _find(rep, w) == r), None)
                if w is not None:
                    ver, count = done[w]
                    if ver == version:
                        aut += count
                    continue
            # Giving u label k adds pair (i, k) to the chunk of each vertex in
            # thirds[u][label i].
            row = thirds[u]
            if tied and not last:
                # The child's first cell: the first other cell, narrowed by
                # those masks.  If its chunk is below best[k + 1] the child
                # loses at its first candidate.
                first = 1 if cell == low else 0
                fc, fm = cells[first]
                lc, lm = fc, fm & ~low
                for i, v in enumerate(assigned):
                    hit = lm & row[v]
                    if hit:
                        lm = hit
                        lc |= top >> i
                if lc < best[k + 1]:
                    done[u] = (version, 0)
                    continue
                if lc == best[k + 1] and not lm & (lm - 1) and k + 2 < n and total != e:
                    # That cell is one vertex, the child's only candidate, so
                    # run its lookahead too: the child's second cell (the rest
                    # of the first other cell, else the next cell), narrowed
                    # by the masks of label k and then by those of label k + 1.
                    sc, sm = fc, fm & ~(low | lm)
                    if not sm:
                        sc, sm = cells[first + 1]
                    for i, v in enumerate(assigned):
                        hit = sm & row[v]
                        if hit:
                            sm = hit
                            sc |= top >> i
                    row2 = thirds[lm.bit_length() - 1]
                    top2 = 1 << (_TOP - (k + 1) * k // 2)
                    for i, v in enumerate(assigned + [u]):
                        hit = sm & row2[v]
                        if hit:
                            sm = hit
                            sc |= top2 >> i
                    if sc < best[k + 2]:
                        done[u] = (version, 0)
                        continue
            child = []
            for cv, m in cells:
                m &= ~low
                if not m:
                    continue
                parts = None  # while None, the cell is still whole: (cv, m)
                for i, v in enumerate(assigned):
                    t = row[v]
                    if t & m:
                        b = top >> i
                        if parts is None:
                            hit = m & t
                            if hit == m:
                                cv |= b
                            else:
                                parts = [(cv | b, hit), (cv, m ^ hit)]
                            continue
                        nxt = []
                        for pc, pm in parts:
                            hit = pm & t
                            if hit:
                                nxt.append((pc | b, hit))
                                if hit != pm:
                                    nxt.append((pc, pm ^ hit))
                            else:
                                nxt.append((pc, pm))
                        parts = nxt
                if parts is None:
                    child.append((cv, m))
                else:
                    child += parts
            ver0, aut0 = version, aut
            assigned.append(u)
            path.append(c)
            j = descend(child, total, tied, fixing and [g for g in fixing if g[u] == u])
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

    if descend([(0, (1 << n) - 1)], 0, seeded, []) < 0:
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


def _check_cap(h: Hypergraph, what: str) -> None:
    if h.n > CANONICAL_CAP:
        raise CapabilityError(f"{what} is capped at {CANONICAL_CAP} vertices, got {h.n}")


def canonical_form(h: Hypergraph) -> Hypergraph:
    """The least relabeling of h; capability-capped at 12 vertices."""
    _check_cap(h, "canonical form")
    form, _ = _canonicalize(h.n, h.bits)
    return form


def automorphism_count(h: Hypergraph) -> int:
    """Number of relabelings fixing the edge set (the automorphism group order)."""
    _check_cap(h, "automorphism counting")
    _, aut = _canonicalize(h.n, h.bits)
    return aut


def is_canonical(h: Hypergraph) -> bool:
    """True iff h is already the least relabeling of its class.

    Stops at the first labeling that beats h, and leaves the form cache alone.
    """
    _check_cap(h, "canonical form")
    return _search(h, seeded=True) is not None
