"""Fano plane containment by three independent detection methods.

The methods share nothing beyond edge membership, so they cross-validate
each other.  They read it through the views ``Hypergraph.edges``,
``Hypergraph.thirds`` (per-pair third-vertex masks) and ``Hypergraph.links``
(per-vertex link pairs).  Each view is built once per edge set and kept in a
small cache, so running every method on one input builds each view once:

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
soundness is checkable edge by edge.  A detector's scan finds the copy's
seven points, and contains_fano_* runs the scan alone, without naming the
lines.

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
from .hypergraph import FANO_LINES, Hypergraph, triple_rank

IMAGE_CAP = 12


@lru_cache(maxsize=None)
def _images_base7() -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """The lines of the 30 distinct plane copies on 7 labeled vertices.

    The plane's automorphisms act transitively on ordered pairs of points,
    so every copy is the image of a relabeling that fixes points 0 and 1:
    the 120 such relabelings reach all 5040 / 168 = 30 copies.
    """
    seen = set()
    for rest in permutations(range(2, 7)):
        s = (0, 1, *rest)
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
    """Image-table containment test: some plane copy is a subset of the edges.

    Walks the non-edges and stops once they hit every image.
    """
    table = cover_table(h.n)
    masks, full = table.masks, table.full
    cov = 0
    missing = ~h.bits & ((1 << len(masks)) - 1)
    while missing and cov != full:
        low = missing & -missing
        missing ^= low
        cov |= masks[low.bit_length() - 1]
    return cov != full


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
# Witnesses.  Each detector's scan returns the seven points of the copy it
# found, and its find_ function names the lines through a table of point
# indices; contains_ only asks whether the scan found a copy.
# ---------------------------------------------------------------------------

def _lines(points: tuple[int, ...], table) -> tuple[tuple[int, int, int], ...]:
    """The lines of table, index triples into points, as sorted vertex triples."""
    return tuple(tuple(sorted((points[a], points[b], points[c]))) for a, b, c in table)


# ---------------------------------------------------------------------------
# Method 1: direct embedding.
# ---------------------------------------------------------------------------

def find_fano_embedding(h: Hypergraph) -> tuple[tuple[int, int, int], ...] | None:
    """The seven edges of an embedded plane copy, in FANO_LINES order, or None.

    Plane point k goes to vertex ik.  Lines are placed in the fixed order
    012, 234, 045, 036; the remaining lines 135, 256, 146 become pure
    membership checks, applied as early as their points are available
    (forward checking) by intersecting per-pair third-vertex masks.  Since
    thirds[u][w] never holds u or w, those intersections leave out every
    point placed so far, apart from i2 among the candidates for i5.

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
    img = _embedding_points(h)
    return None if img is None else _lines(img, FANO_LINES)


def _embedding_points(h: Hypergraph) -> tuple[int, ...] | None:
    """find_fano_embedding's scan: the points (i0, ..., i6) it places, or None."""
    if h.n < 7 or h.edge_count < 7:
        return None
    links = h.links()
    thirds = h.thirds()
    for i0, i1, i2 in h.edges():
        t0, t1, t2 = thirds[i0], thirds[i1], thirds[i2]
        not2 = ~(1 << i2)
        for i3, i4 in links[i2]:
            if i3 == i0 or i3 == i1 or i4 == i0 or i4 == i1:
                continue
            fives = t0[i4] & t1[i3] & not2
            if not fives:
                continue
            t36 = t0[i3] & t1[i4]
            while fives:  # ascending i5, as in colex order
                low = fives & -fives
                fives ^= low
                i5 = low.bit_length() - 1
                sixes = t36 & t2[i5]
                if sixes:
                    return (i0, i1, i2, i3, i4, i5, (sixes & -sixes).bit_length() - 1)
    return None


def contains_fano_embedding(h: Hypergraph) -> bool:
    return _embedding_points(h) is not None


# ---------------------------------------------------------------------------
# Method 2: crossing pairs.
# ---------------------------------------------------------------------------

# With points (x, y, z, p, q, r, s), one table per bijection from the edge's
# vertices to the quad's matchings pq|rs, pr|qs, ps|qr, in a fixed order.
_MATCHINGS = (((3, 4), (5, 6)), ((3, 5), (4, 6)), ((3, 6), (4, 5)))
_CROSSING_TABLES = tuple(
    ((0, 1, 2), *((v, *pair) for v, mi in enumerate(pi) for pair in _MATCHINGS[mi]))
    for pi in permutations(range(3))
)


def find_fano_crossing(h: Hypergraph) -> tuple[tuple[int, int, int], ...] | None:
    """The seven edges of the first (edge, quad, bijection) in scan order, or None.

    Edges run in colex order, and for each edge {x, y, z} its least quad
    outside it, in lex order, whose three perfect matchings the links of x,
    y, z cover bijectively.  The quad is found from its least vertex p up:
    the partners a, b, c of p in the matchings of x, y, z are distinct
    vertices above p in the link masks thirds[x][p], thirds[y][p] and
    thirds[z][p], and the other pairs {b, c}, {a, c}, {a, b} must lie in the
    links of x, y, z.  The first p with such partners gives the least quad.
    (A p on the edge has no partners: thirds[u][u] is empty.)  Quads are
    kept as vertex masks, and of two 3-sets the lex-smaller one holds the
    least vertex of their symmetric difference, so for given a and b only
    the least c counts.  The first of the six bijections in a fixed order
    that fits the quad is reported: the edge comes first, then for each of
    its vertices in turn the two triples joining it to the quad matching its
    link covers.
    """
    points = _crossing_points(h)
    if points is None:
        return None
    thirds = h.thirds()
    # The scan found a bijection, so some table fits.
    table = next(
        t for t in _CROSSING_TABLES
        if all(thirds[points[v]][points[u]] >> points[w] & 1 for v, u, w in t[1:])
    )
    return _lines(points, table)


def _crossing_points(h: Hypergraph) -> tuple[int, ...] | None:
    """find_fano_crossing's scan: the edge and its least quad, (x, y, z, p, q, r, s), or None."""
    if h.n < 7:
        return None
    thirds = h.thirds()
    for x, y, z in h.edges():
        tx, ty, tz = thirds[x], thirds[y], thirds[z]
        outside = ~(1 << x | 1 << y | 1 << z)
        for p in range(h.n):
            above = -(2 << p) & outside
            a_set = tx[p] & above
            b_set = ty[p] & above
            c_set = tz[p] & above
            if not (a_set and b_set and c_set):
                continue
            best = 0  # the lex-least quad found, less p, as a vertex mask
            while a_set:
                la = a_set & -a_set
                a_set ^= la
                a = la.bit_length() - 1
                b_of_a = b_set & tz[a]
                c_of_a = c_set & ty[a]
                while b_of_a:
                    lb = b_of_a & -b_of_a
                    b_of_a ^= lb
                    cs = c_of_a & tx[lb.bit_length() - 1]
                    if cs:
                        quad = la | lb | cs & -cs
                        d = quad ^ best
                        if d & -d & quad:
                            best = quad
            if best:
                lq = best & -best
                rest = best ^ lq
                return (x, y, z, p, lq.bit_length() - 1, (rest & -rest).bit_length() - 1,
                        rest.bit_length() - 1)
    return None


def contains_fano_crossing(h: Hypergraph) -> bool:
    return _crossing_points(h) is not None


# ---------------------------------------------------------------------------
# Method 3: Pasch configurations over a link matching.
# ---------------------------------------------------------------------------

# With points (v, a1, a2, b1, b2, c1, c2): the three link edges through v,
# then the even class a1 b1 c1, a1 b2 c2, a2 b1 c2, a2 b2 c1.  The odd class
# is the even one with each pair's two ends swapped.
_PASCH_LINES = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))


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
    nonempty, and unless some link pair of v joins x and y: some c1 in x
    has thirds[v][c1] meeting y.
    """
    points = _pasch_points(h)
    return None if points is None else _lines(points, _PASCH_LINES)


def _pasch_points(h: Hypergraph) -> tuple[int, ...] | None:
    """find_fano_pasch's scan: (v, a1, a2, b1, b2, c1, c2), pairs swapped for the odd class, or None."""
    if h.n < 7:
        return None
    links = h.links()
    thirds = h.thirds()
    for v in range(h.n):
        pairs = links[v]
        ln = len(pairs)
        if ln < 3:
            continue
        tv = thirds[v]
        spans = [1 << p1 | 1 << p2 for p1, p2 in pairs]
        for i in range(ln - 2):
            a1, a2 = pairs[i]
            ta1, ta2 = thirds[a1], thirds[a2]
            span_a = spans[i]
            for j in range(i + 1, ln - 1):
                if span_a & spans[j]:
                    continue
                b1, b2 = pairs[j]
                # The third vertices that close a1 b1 and a2 b2, and a1 b2 and
                # a2 b1, outside the four.
                outside = ~(span_a | spans[j])
                x = ta1[b1] & ta2[b2] & outside
                if not x:
                    continue
                y = ta1[b2] & ta2[b1] & outside
                if not y:
                    continue
                joins = x
                while joins:
                    low = joins & -joins
                    if tv[low.bit_length() - 1] & y:
                        break
                    joins ^= low
                else:
                    continue
                for k in range(j + 1, ln):
                    c1, c2 = pairs[k]
                    if x >> c1 & 1 and y >> c2 & 1:
                        return (v, a1, a2, b1, b2, c1, c2)
                    if y >> c1 & 1 and x >> c2 & 1:
                        return (v, a2, a1, b2, b1, c2, c1)
    return None


def contains_fano_pasch(h: Hypergraph) -> bool:
    return _pasch_points(h) is not None


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
