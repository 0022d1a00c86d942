"""Core types for 3-uniform hypergraphs on at most 64 vertices.

Encoding convention
-------------------
Vertices are ``0 .. n-1``.  A triple ``{a, b, c}`` with ``a < b < c`` is
identified by its colexicographic rank

    rank(a, b, c) = C(c, 3) + C(b, 2) + a

and an edge set is a dense bitmask (a Python int) with bit ``rank`` set for
each edge.  Colex ranks are independent of the ambient vertex count, so
growing ``n`` never renumbers existing triples.  Hypergraph.from_ranks,
Hypergraph.ranks and complement() convert rank sets, masks and complements
for the other modules.  Vertex pairs (the layers of a multigraph) use the
analogous pair rank ``C(b, 2) + a``.

All values are immutable; operations return new objects.  The derived views
of an edge set (its edges, per-pair third-vertex masks and per-vertex link
pairs) are built by module functions cached on ``(n, bits)``, so the tests
run back to back on one input build each view once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import CapabilityError, FormatError, ParameterError

MAX_VERTICES = 64


@lru_cache(maxsize=None)
def _triples(n: int) -> tuple[tuple[int, int, int], ...]:
    """The triples on n vertices in colex order, so entry r has rank r."""
    return tuple((a, b, c) for c in range(2, n) for b in range(1, c) for a in range(b))


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """pairs[y][x] is the pair (x, y), x < y < n, one shared tuple per pair."""
    return tuple(tuple((x, y) for x in range(y)) for y in range(n))


def triple_rank(a: int, b: int, c: int) -> int:
    """Colex rank of the triple {a, b, c}; requires a < b < c."""
    return c * (c - 1) * (c - 2) // 6 + b * (b - 1) // 2 + a


def pair_rank(a: int, b: int) -> int:
    """Colex rank of the pair {a, b}; requires a < b."""
    return b * (b - 1) // 2 + a


def _members(mask: int):
    """The set bits of mask, in ascending order."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _check_n(n: int) -> None:
    if type(n) is not int or n < 1:
        raise ParameterError(f"vertex count must be a positive integer, got {n!r}")
    if n > MAX_VERTICES:
        raise CapabilityError(f"vertex count {n} exceeds the supported maximum {MAX_VERTICES}")


# One input's Fano tests, or its canonical search and the form built from its
# edges, run back to back, so two entries per view suffice.  Views are not
# kept on the object, since a caller holding many inputs would keep all their
# views alive.
_VIEWS = 2


@lru_cache(maxsize=_VIEWS)
def _edges(n: int, bits: int) -> tuple[tuple[int, int, int], ...]:
    """The edges of the edge mask bits as sorted triples, in colex order."""
    triples = _triples(n)
    out = []
    while bits:
        low = bits & -bits
        out.append(triples[low.bit_length() - 1])
        bits ^= low
    return tuple(out)


@lru_cache(maxsize=_VIEWS)
def _thirds(n: int, bits: int) -> tuple[tuple[int, ...], ...]:
    """Row u, entry w: the mask of the vertices c with {u, w, c} an edge."""
    out = [[0] * n for _ in range(n)]
    for a, b, c in _edges(n, bits):
        oa, ob, oc = out[a], out[b], out[c]
        ma, mb, mc = 1 << a, 1 << b, 1 << c
        oa[b] |= mc
        ob[a] |= mc
        oa[c] |= mb
        oc[a] |= mb
        ob[c] |= ma
        oc[b] |= ma
    return tuple(map(tuple, out))


@lru_cache(maxsize=_VIEWS)
def _links(n: int, bits: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row v: the pairs (x, y), x < y, with {v, x, y} an edge, in colex edge order."""
    pairs = _pairs(n)
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, c in _edges(n, bits):
        below_c = pairs[c]
        out[a].append(below_c[b])
        out[b].append(below_c[a])
        out[c].append(pairs[b][a])
    return tuple(map(tuple, out))


@dataclass(frozen=True, slots=True)
class Hypergraph:
    """A 3-uniform hypergraph: vertex count plus a colex-rank edge bitmask.

    edges(), thirds() and links() are views of the edge set.  Each is built
    once per (n, bits) and kept in a shared cache that holds two edge sets,
    and each is a tuple of tuples, so no caller can change what the next
    caller reads.
    """

    n: int
    bits: int

    def __post_init__(self) -> None:
        _check_n(self.n)
        if self.bits < 0 or self.bits >> comb(self.n, 3):
            raise ParameterError("edge bitmask references triples outside the vertex set")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Hypergraph":
        bits = 0
        edges = iter(edges)  # a non-iterable is the caller's TypeError, not a bad edge
        try:
            for e in edges:
                a, b, c = e
                if not a < b < c:
                    a, b, c = sorted((a, b, c))
                if not (0 <= a < b < c < n):
                    raise ParameterError(f"edge {tuple(e)} is not a triple of distinct vertices below {n}")
                bits |= 1 << triple_rank(a, b, c)
        except ParameterError:
            raise
        except (TypeError, ValueError):
            raise ParameterError(f"edge {e!r} is not three integers") from None
        return cls(n, bits)

    @classmethod
    def from_ranks(cls, n: int, ranks) -> "Hypergraph":
        """The hypergraph whose edges are the triples with the given colex ranks."""
        bits = 0
        for r in ranks:
            bits |= 1 << r
        return cls(n, bits)

    @property
    def edge_count(self) -> int:
        return self.bits.bit_count()

    def ranks(self) -> tuple[int, ...]:
        """The colex ranks of all edges, ascending."""
        out = []
        m = self.bits
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return tuple(out)

    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """All edges as sorted triples, in colex order."""
        return _edges(self.n, self.bits)

    def thirds(self) -> tuple[tuple[int, ...], ...]:
        """thirds[u][w]: the bitmask of the vertices c with {u, w, c} an edge."""
        return _thirds(self.n, self.bits)

    def links(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """links[v]: the pairs (x, y), x < y, with {v, x, y} an edge, in colex edge order."""
        return _links(self.n, self.bits)

    def has_edge(self, a: int, b: int, c: int) -> bool:
        a, b, c = sorted((a, b, c))
        if not 0 <= a < b < c < self.n:
            raise ParameterError(f"({a}, {b}, {c}) is not a triple of distinct vertices below {self.n}")
        return bool(self.bits >> triple_rank(a, b, c) & 1)


def b_formula(n: int) -> int:
    """Edge count of the balanced bipartite hypergraph on n >= 2 vertices.

    Computed as ((n - 2) / 2) * floor(n^2 / 4), which is always an integer;
    the binomial form C(n,3) - C(floor(n/2),3) - C(ceil(n/2),3) is asserted
    equal in the test suite.
    """
    if not isinstance(n, int) or n < 2:
        raise ParameterError(f"b(n) requires an integer n >= 2, got {n!r}")
    return (n - 2) * (n * n // 4) // 2


def _bipartite(n: int, in_x: list[bool]) -> Hypergraph:
    """All triples meeting both classes of the given 2-coloring."""
    triples = enumerate(_triples(n))
    return Hypergraph.from_ranks(
        n, (r for r, (a, b, c) in triples if 0 < in_x[a] + in_x[b] + in_x[c] < 3)
    )


FANO_LINES: tuple[tuple[int, int, int], ...] = (
    (0, 1, 2), (2, 3, 4), (0, 4, 5), (0, 3, 6), (2, 5, 6), (1, 4, 6), (1, 3, 5),
)

PASCH_QUADS: tuple[tuple[int, int, int], ...] = ((0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4))


FAMILIES = ("complete", "balanced_bipartite", "j7", "fano", "pasch")


def construct(kind: str, n: int) -> Hypergraph:
    """Build a named family member.

    Kinds: ``complete`` (all triples), ``balanced_bipartite`` (classes of
    size floor(n/2) and ceil(n/2), every triple meeting both), ``j7`` (all
    triples on 7 vertices except the five through the pair {0, 1}), ``fano``
    (the 7-point projective plane), ``pasch`` (the 4-line Pasch configuration
    on 6 vertices).
    """
    _check_n(n)
    if kind == "complete":
        return complement(Hypergraph(n, 0))
    if kind == "balanced_bipartite":
        if n < 2:
            raise ParameterError("balanced_bipartite requires n >= 2")
        in_x = [v < n // 2 for v in range(n)]
        return _bipartite(n, in_x)
    if kind == "j7":
        if n != 7:
            raise ParameterError("j7 is only defined on 7 vertices")
        return complement(Hypergraph.from_edges(7, [(0, 1, c) for c in range(2, 7)]))
    if kind == "fano":
        if n != 7:
            raise ParameterError("fano is only defined on 7 vertices")
        return Hypergraph.from_edges(7, FANO_LINES)
    if kind == "pasch":
        if n != 6:
            raise ParameterError("pasch is only defined on 6 vertices")
        return Hypergraph.from_edges(6, PASCH_QUADS)
    raise ParameterError(f"unknown family {kind!r}; expected one of {', '.join(FAMILIES)}")


def complement(h: Hypergraph) -> Hypergraph:
    return Hypergraph(h.n, h.bits ^ ((1 << comb(h.n, 3)) - 1))


def recognize_balanced_bipartite(h: Hypergraph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Partition (X, Y) with |X| <= |Y| exhibiting h as balanced bipartite, or None.

    The non-edges of a bipartite hypergraph are exactly the triples inside
    one class, so one candidate split decides it.  With no non-edge, X is
    the first floor(n/2) vertices.  Otherwise let a be the least vertex of
    the first non-edge: its class is a and every vertex sharing a non-edge
    with it, and the other class is the rest.  X is the smaller class, or on
    a size tie the one holding vertex 0.  The candidate is exact because h
    must equal the bipartite hypergraph it spans, and with b(n) > 0 edges
    that split is balanced (an empty class spans no edge).
    """
    n = h.n
    if n < 2 or h.edge_count != b_formula(n):
        return None
    missing = complement(h).edges()
    if missing:
        a = missing[0][0]
        near = {v for e in missing if a in e for v in e}
        far = [v for v in range(n) if v not in near]
        x_side = min(sorted(near), far, key=lambda side: (len(side), 0 not in side))
    else:
        x_side = list(range(n // 2))
    in_x = [v in x_side for v in range(n)]
    if _bipartite(n, in_x) != h:
        return None
    return tuple(x_side), tuple(v for v in range(n) if not in_x[v])


def random_hypergraph(n: int, density: float, rng: random.Random) -> Hypergraph:
    """Each triple is an edge independently with the given probability."""
    _check_n(n)
    if not 0.0 <= density <= 1.0:
        raise ParameterError(f"density must lie in [0, 1], got {density!r}")
    return Hypergraph.from_ranks(n, (r for r in range(comb(n, 3)) if rng.random() < density))


# ---------------------------------------------------------------------------
# File formats.  Text: first line "n m", then m lines "a b c" (each triple
# ascending, lines in colex order).  JSON mirror: {"n": ..., "edges": [...]}
# with identical ordering.  Both round-trip bit-exactly.
# ---------------------------------------------------------------------------

def format_text(h: Hypergraph) -> str:
    lines = [f"{h.n} {h.edge_count}"]
    lines.extend(f"{a} {b} {c}" for a, b, c in h.edges())
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> Hypergraph:
    rows = [ln for ln in text.splitlines() if ln.strip()]
    if not rows:
        raise FormatError("empty hypergraph file")
    head = rows[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"header must be two integers, got {rows[0]!r}") from exc
    if len(rows) - 1 != m:
        raise FormatError(f"header promises {m} edges but file has {len(rows) - 1}")
    return _read_edges(n, rows[1:], _text_triple)


def _text_triple(ln: str) -> list[int]:
    parts = ln.split()
    if len(parts) != 3:
        raise FormatError(f"edge line must have three vertices, got {ln!r}")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise FormatError(f"edge line must be integers, got {ln!r}") from exc


def to_json_dict(h: Hypergraph) -> dict:
    return {"n": h.n, "edges": [list(e) for e in h.edges()]}


def from_json_dict(obj) -> Hypergraph:
    if not isinstance(obj, dict) or set(obj) != {"n", "edges"}:
        raise FormatError('hypergraph JSON must be an object with keys "n" and "edges"')
    n, edges = obj["n"], obj["edges"]
    if type(n) is not int or not isinstance(edges, list):  # a bool is not a vertex count
        raise FormatError('"n" must be an integer and "edges" a list')
    return _read_edges(n, edges, _json_triple)


def _json_triple(e) -> list[int]:
    if not (isinstance(e, list) and len(e) == 3 and all(type(v) is int for v in e)):
        raise FormatError(f"edge {e!r} must be a list of three integers")
    return e


def _read_edges(n: int, rows, triple_of) -> Hypergraph:
    """The hypergraph on n vertices whose edges triple_of reads from rows.

    Each row must give an ascending triple below n, and the rows must be in
    strictly increasing colex order; a row is quoted as-is in the error.
    """
    _check_n(n)
    bits = 0
    prev = -1
    for row in rows:
        a, b, c = triple_of(row)
        if not 0 <= a < b < c < n:
            raise FormatError(f"edge {row!r} is not an ascending triple below {n}")
        r = triple_rank(a, b, c)
        if r <= prev:
            raise FormatError("edges must be distinct and sorted colexicographically")
        prev = r
        bits |= 1 << r
    return Hypergraph(n, bits)
