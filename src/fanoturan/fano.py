"""Fano plane containment by three independent detection methods.

The methods share nothing beyond edge membership, read from the per-pair
third-vertex masks of ``Hypergraph.thirds``, so they cross-validate each
other:

* ``embedding``       - injective point map built line by line with forward
                        checking, trying each edge as the first line in one
                        ordering only (the plane's symmetry covers the rest).
* ``crossing_pairs``  - an edge {x, y, z} plus four outside vertices whose
                        three perfect matchings are covered bijectively by
                        the links of x, y, z.
* ``pasch_matching``  - a vertex v, three disjoint edges of its link, and
                        one full parity class of transversal triples (a
                        Pasch configuration) present as edges.

Each detector returns the seven edges of the copy it found, as sorted
triples, or None; find_fano_edges picks the detector for a method.  So
soundness is checkable edge by edge.

For enumeration hot loops there is also a containment test based on
precomputed plane images, kept per vertex count in one cached CoverTable: a
hypergraph is Fano-free iff its complement intersects every image of the
plane.  It is capped at 12 vertices (image tables) and is re-verified against
the embedding method on survivors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from itertools import combinations, permutations
from math import comb
from operator import or_

from .errors import CapabilityError, ParameterError
from .hypergraph import FANO_LINES, Hypergraph, _members, complement, triple_rank

IMAGE_CAP = 12


@lru_cache(maxsize=None)
def _images_base7() -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The lines of the 30 distinct plane copies on 7 labeled vertices.

    The plane's automorphisms act transitively on its points, so every copy
    is the image of a relabeling that fixes point 0: the 720 such relabelings
    reach all 5040 / 168 = 30 copies.
    """
    seen = set()
    for rest in permutations(range(1, 7)):
        s = (0, *rest)
        seen.add(tuple(sorted(tuple(sorted((s[a], s[b], s[c]))) for a, b, c in FANO_LINES)))
    return tuple(sorted(seen))


def triple_cover_masks(n: int) -> tuple[int, ...]:
    """For each triple rank, the bitmask of plane images containing it (uncached).

    Image i is the i-th pair of a 7-subset (in lex order) and a copy of
    _images_base7 placed on it.  Copies on different 7-subsets differ, so
    the 30 C(n, 7) images are distinct.
    """
    if n > IMAGE_CAP:
        raise CapabilityError(f"plane image tables are capped at {IMAGE_CAP} vertices, got {n}")
    masks = [0] * comb(n, 3)
    bit = 1
    base = _images_base7()
    for sub in combinations(range(n), 7):
        for lines in base:
            for a, b, c in lines:
                masks[triple_rank(sub[a], sub[b], sub[c])] |= bit
            bit <<= 1
    return tuple(masks)


@dataclass(frozen=True)
class CoverTable:
    """The plane images on n labeled vertices, indexed by triple rank.

    A hypergraph is Fano-free iff its non-edges hit every image, so this one
    table decides Fano-freeness for every cover-based scan.  Below 7
    vertices there are no images and every rank set hits all of them.
    """

    masks: tuple[int, ...]  # per triple rank, the images containing it
    full: int  # the mask of all images
    most: int  # the largest number of images through one triple

    def cover(self, ranks) -> int:
        """Mask of the images containing at least one of the triples."""
        cov = 0
        for r in ranks:
            cov |= self.masks[r]
        return cov


@lru_cache(maxsize=None)
def cover_table(n: int) -> CoverTable:
    """The cover table on n labeled vertices, built once per n."""
    masks = triple_cover_masks(n)
    return CoverTable(masks, reduce(or_, masks, 0), max((m.bit_count() for m in masks), default=0))


def contains_fano_cover(h: Hypergraph) -> bool:
    """Image-table containment test: some plane copy is a subset of the edges."""
    table = cover_table(h.n)
    return table.cover(complement(h).ranks()) != table.full


# ---------------------------------------------------------------------------
# Cliques.
# ---------------------------------------------------------------------------

def find_clique(h: Hypergraph, k: int) -> tuple[int, ...] | None:
    """First k-subset (lex order) all of whose triples are edges, or None."""
    if k not in (4, 5, 6):
        raise ParameterError(f"supported clique orders are 4, 5, 6; got {k}")
    if h.n < k:
        return None
    for sub in combinations(range(h.n), k):
        if all(h.bits >> triple_rank(a, b, c) & 1 for a, b, c in combinations(sub, 3)):
            return sub
    return None


# ---------------------------------------------------------------------------
# Method 1: direct embedding.
# ---------------------------------------------------------------------------

def _link_pairs(n: int, edges) -> list[list[tuple[int, int]]]:
    """links[v]: the pairs {x, y}, as x < y, with {v, x, y} among the sorted edges."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, c in edges:
        out[a].append((b, c))
        out[b].append((a, c))
        out[c].append((a, b))
    return out


def find_fano_embedding(h: Hypergraph) -> tuple[tuple[int, int, int], ...] | None:
    """The seven edges of an embedded plane copy, in FANO_LINES order, or None.

    Plane point k goes to vertex ik.  Lines are placed in the fixed order
    012, 234, 045, 036; the remaining lines 135, 256, 146 become pure
    membership checks, applied as early as their points are available
    (forward checking) by intersecting per-pair third-vertex masks.

    Each edge {a, b, c} (a < b < c) is tried as line 012 in one ordering
    only, (i0, i1, i2) = (a, b, c), and each link pair {x, y} of i2 (x < y)
    as (i3, i4) = (x, y) only.  The plane's symmetry makes the other eleven
    orderings redundant: Aut(Fano) = PGL(3, 2) has order 168 and is
    2-transitive on points, so it is transitive on the 42 ordered lines and
    the stabilizer of line 012 acts on it as the full symmetric group.  The
    168 / 42 = 4 automorphisms fixing line 012 pointwise are the elations
    with that axis; they act regularly on the points 3, 4, 5, 6 off it, so
    one of them swaps 3 and 4 and fixes line 234.  Composing an embedding
    with these moves lands on the one ordering tried, and that ordering is
    the one the full twelve-way scan tries first, so the first copy found,
    the witness, is the same.  On Fano-free inputs the search does 1/12 of
    the full scan's work.
    """
    if h.n < 7 or h.edge_count < 7:
        return None
    edges = h.edges()
    links = _link_pairs(h.n, edges)
    thirds = h.thirds()
    for i0, i1, i2 in edges:
        for i3, i4 in links[i2]:
            if i3 in (i0, i1) or i4 in (i0, i1):
                continue
            used = 1 << i0 | 1 << i1 | 1 << i2 | 1 << i3 | 1 << i4
            fives = thirds[i0][i4] & thirds[i1][i3] & ~used
            while fives:  # ascending i5, as in colex order
                low = fives & -fives
                fives ^= low
                i5 = low.bit_length() - 1
                sixes = thirds[i0][i3] & thirds[i2][i5] & thirds[i1][i4] & ~(used | low)
                if sixes:
                    i6 = (sixes & -sixes).bit_length() - 1
                    img = (i0, i1, i2, i3, i4, i5, i6)
                    lines = [(img[u], img[v], img[w]) for u, v, w in FANO_LINES]
                    return tuple(tuple(sorted(t)) for t in lines)
    return None


def contains_fano_embedding(h: Hypergraph) -> bool:
    return find_fano_embedding(h) is not None


# ---------------------------------------------------------------------------
# Method 2: crossing pairs.
# ---------------------------------------------------------------------------

def find_fano_crossing(h: Hypergraph) -> tuple[tuple[int, int, int], ...] | None:
    """The seven edges of the first (edge, quad, bijection) in scan order, or None.

    Edges run in colex order, and for each edge {x, y, z} its least quad
    outside it, in lex order, whose three perfect matchings the links of x,
    y, z cover bijectively.  The quad is found from its least vertex p up:
    the partners a, b, c of p in the matchings of x, y, z are distinct
    vertices above p in the link masks thirds[x][p], thirds[y][p] and
    thirds[z][p], and the other pairs {b, c}, {a, c}, {a, b} must lie in the
    links of x, y, z.  The first p with such partners gives the least quad.
    The first of the six bijections in a fixed order that fits it is
    reported: the edge comes first, then for each of its vertices in turn
    the two triples joining it to the quad matching its link covers.
    """
    if h.n < 7:
        return None
    thirds = h.thirds()
    for edge in h.edges():
        x, y, z = edge
        tx, ty, tz = thirds[x], thirds[y], thirds[z]
        inside = 1 << x | 1 << y | 1 << z
        for p in range(h.n):
            if inside >> p & 1:
                continue
            above = -(2 << p) & ~inside
            a_set, b_set, c_set = tx[p] & above, ty[p] & above, tz[p] & above
            if not (a_set and b_set and c_set):
                continue
            quads = []
            for a in _members(a_set):
                for b in _members(b_set & tz[a]):
                    quads.extend(sorted((a, b, c)) for c in _members(c_set & tx[b] & ty[a]))
            if not quads:
                continue
            q, r, s = min(quads)
            matchings = (((p, q), (r, s)), ((p, r), (q, s)), ((p, s), (q, r)))
            cov = [[all(thirds[v][u] >> w & 1 for u, w in m) for m in matchings] for v in edge]
            for pi in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
                if cov[0][pi[0]] and cov[1][pi[1]] and cov[2][pi[2]]:
                    lines = [(v, u, w) for v, mi in zip(edge, pi) for u, w in matchings[mi]]
                    return (edge, *(tuple(sorted(t)) for t in lines))
    return None


def contains_fano_crossing(h: Hypergraph) -> bool:
    return find_fano_crossing(h) is not None


# ---------------------------------------------------------------------------
# Method 3: Pasch configurations over a link matching.
# ---------------------------------------------------------------------------

def find_fano_pasch(h: Hypergraph) -> tuple[tuple[int, int, int], ...] | None:
    """The seven edges of the first (vertex, link matching, parity class), or None.

    With the matching written (a1 a2, b1 b2, c1 c2), the even class is the
    four transversals picking an even number of second elements and the odd
    class its complement; either class plus the three link edges through v
    closes a plane copy.  The link edges come first, then the class.  For
    each disjoint (a1 a2, b1 b2) the masks x = thirds[a1][b1] & thirds[a2][b2]
    and y = thirds[a1][b2] & thirds[a2][b1], outside the four, hold the c1
    and c2 that can close it: the even class needs c1 in x and c2 in y, the
    odd one c1 in y and c2 in x, so the pair is dropped unless both are
    nonempty.
    """
    if h.n < 7:
        return None
    links = _link_pairs(h.n, h.edges())
    thirds = h.thirds()
    for v in range(h.n):
        pairs = links[v]
        ln = len(pairs)
        if ln < 3:
            continue
        for i in range(ln):
            a1, a2 = pairs[i]
            ta1, ta2 = thirds[a1], thirds[a2]
            for j in range(i + 1, ln):
                b1, b2 = pairs[j]
                if b1 in (a1, a2) or b2 in (a1, a2):
                    continue
                # The third vertices that close a1 b1 and a2 b2, and a1 b2 and
                # a2 b1, outside the four.
                outside = ~(1 << a1 | 1 << a2 | 1 << b1 | 1 << b2)
                x = ta1[b1] & ta2[b2] & outside
                y = ta1[b2] & ta2[b1] & outside
                if not (x and y):
                    continue
                for k in range(j + 1, ln):
                    c1, c2 = pairs[k]
                    if x >> c1 & 1 and y >> c2 & 1:
                        quads = ((a1, b1, c1), (a1, b2, c2), (a2, b1, c2), (a2, b2, c1))
                    elif y >> c1 & 1 and x >> c2 & 1:
                        quads = ((a2, b2, c2), (a2, b1, c1), (a1, b2, c1), (a1, b1, c2))
                    else:
                        continue
                    lines = ((v, a1, a2), (v, b1, b2), (v, c1, c2), *quads)
                    return tuple(tuple(sorted(t)) for t in lines)
    return None


def contains_fano_pasch(h: Hypergraph) -> bool:
    return find_fano_pasch(h) is not None


# ---------------------------------------------------------------------------
# Dispatch.
# ---------------------------------------------------------------------------

class DetectionMethod(Enum):
    EMBEDDING = "embedding"
    CROSSING_PAIRS = "crossing_pairs"
    PASCH_MATCHING = "pasch_matching"


_FINDERS = {
    DetectionMethod.EMBEDDING: find_fano_embedding,
    DetectionMethod.CROSSING_PAIRS: find_fano_crossing,
    DetectionMethod.PASCH_MATCHING: find_fano_pasch,
}


def find_fano_edges(
    h: Hypergraph, method: DetectionMethod = DetectionMethod.EMBEDDING
) -> tuple[tuple[int, int, int], ...] | None:
    """The seven edges of a plane copy found by the chosen detector, or None."""
    if not isinstance(method, DetectionMethod):
        raise ParameterError(f"unknown detection method {method!r}")
    return _FINDERS[method](h)


def contains_fano(h: Hypergraph, method: DetectionMethod = DetectionMethod.EMBEDDING) -> bool:
    return find_fano_edges(h, method) is not None
