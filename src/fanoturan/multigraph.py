"""Multigraphs with p edge layers and three-crossing-pair analysis.

A PMultigraph stores, for every vertex pair in colex order, the bitmask of
layers containing that pair (bit l-1 for layer l).  The central pattern is a
4-vertex set {w, x, y, z} whose three perfect matchings are realized in three
distinct layers: wx, yz in layer i; wy, xz in layer j; wz, xy in layer k with
i, j, k pairwise distinct.  Multigraphs avoiding the pattern have a bounded
edge total; this module computes the exact bound for small parameters by a
deficit-bounded branch and bound, provides the matching lower-bound
constructions, and exhaustively verifies the structural facts about
crossing-free 4-vertex 5-multigraphs used downstream.

The branch and bound closes its instances with vertex-order floors, the
averaging argument of Katona, Nemetz and Simonovits (1964).  Crossing-freeness
is hereditary, since the pattern lives on 4 vertices, and each pair lies in
k-2 of the k vertex-deleted sub-multigraphs of a k-vertex one.  So a
crossing-free multigraph with L_k edges on k vertices has a vertex whose
deletion leaves at least L_{k-1} = ceil((k-2) L_k / k) edges.  Deleting such
vertices from the back gives every crossing-free multigraph with at least T
edges on n vertices a vertex order whose first k vertices span at least L_k
edges, where L_n = T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb

from .certificate import Certificate, ClaimRun
from .errors import CapabilityError, FormatError, ParameterError
from .hypergraph import MAX_VERTICES, _members, b_formula, pair_rank

MAX_LAYERS = 16


def _check_size(p: int, n: int) -> None:
    if not 1 <= p <= MAX_LAYERS:
        raise ParameterError(f"layer count must be in [1, {MAX_LAYERS}], got {p}")
    if not 1 <= n <= MAX_VERTICES:
        raise ParameterError(f"vertex count must be in [1, {MAX_VERTICES}], got {n}")


@dataclass(frozen=True, slots=True)
class PMultigraph:
    """n vertices, p layers, per-pair layer membership masks in colex order."""

    p: int
    n: int
    memb: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_size(self.p, self.n)
        if len(self.memb) != comb(self.n, 2):
            raise ParameterError(
                f"expected {comb(self.n, 2)} pair masks for n={self.n}, got {len(self.memb)}"
            )
        full = (1 << self.p) - 1
        for m in self.memb:
            if m & ~full:
                raise ParameterError(f"pair mask {m:#x} has bits outside the {self.p} layers")

    @classmethod
    def complete(cls, p: int, n: int) -> "PMultigraph":
        _check_size(p, n)  # before building the comb(n, 2) masks
        return cls(p, n, ((1 << p) - 1,) * comb(n, 2))

    def multiplicity(self, u: int, v: int) -> int:
        a, b = sorted((u, v))
        if not 0 <= a < b < self.n:
            raise ParameterError(f"({u}, {v}) is not a pair of distinct vertices below {self.n}")
        return self.memb[pair_rank(a, b)].bit_count()

    def edge_total(self) -> int:
        return sum(m.bit_count() for m in self.memb)

    def to_json_dict(self) -> dict:
        pairs = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                m = self.memb[pair_rank(u, v)]
                if m:
                    pairs.append(
                        {"u": u, "v": v, "layers": [l + 1 for l in range(self.p) if m >> l & 1]}
                    )
        return {"p": self.p, "n": self.n, "pairs": pairs}

    @classmethod
    def from_json_dict(cls, d: dict) -> "PMultigraph":
        if not isinstance(d, dict) or set(d) != {"p", "n", "pairs"}:
            raise FormatError('multigraph object must have exactly the keys "p", "n", "pairs"')
        p, n, pairs = d["p"], d["n"], d["pairs"]
        if not (type(p) is int and type(n) is int and isinstance(pairs, list)):  # bools are not counts
            raise FormatError("multigraph fields have wrong types")
        if not (1 <= p <= MAX_LAYERS and 1 <= n <= MAX_VERTICES):
            raise FormatError(
                f"need 1 <= p <= {MAX_LAYERS} and 1 <= n <= {MAX_VERTICES}, got p={p}, n={n}"
            )
        memb = [0] * comb(n, 2)
        prev = None
        for item in pairs:
            if not isinstance(item, dict) or set(item) != {"u", "v", "layers"}:
                raise FormatError('pair objects must have exactly the keys "u", "v", "layers"')
            u, v, layers = item["u"], item["v"], item["layers"]
            if not (type(u) is int and type(v) is int and 0 <= u < v < n):
                raise FormatError(f"bad pair ({u}, {v}) for n={n}")
            if prev is not None and (u, v) <= prev:
                raise FormatError("pairs must be strictly increasing in lex order")
            prev = (u, v)
            if not isinstance(layers, list) or not layers:
                raise FormatError(f"layers of pair ({u}, {v}) must be a nonempty ascending list")
            m = 0
            for l in layers:
                if not (type(l) is int and 1 <= l <= p):
                    raise FormatError(f"layer {l} out of range [1, {p}]")
                m |= 1 << (l - 1)
            if layers != sorted(set(layers)):
                raise FormatError(f"layers of pair ({u}, {v}) must be a nonempty ascending list")
            memb[pair_rank(u, v)] = m
        return cls(p, n, tuple(memb))


# ---------------------------------------------------------------------------
# Crossing pairs.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossingWitness:
    """Quad w<x<y<z and distinct layers (i, j, k) realizing its matchings.

    Layer i contains wx and yz, layer j contains wy and xz, layer k contains
    wz and xy; layers are 1-indexed.
    """

    quad: tuple[int, int, int, int]
    layers: tuple[int, int, int]

    def holds_in(self, g: PMultigraph) -> bool:
        w, x, y, z = self.quad
        i, j, k = self.layers
        if len({i, j, k}) != 3:
            return False
        bi, bj, bk = 1 << (i - 1), 1 << (j - 1), 1 << (k - 1)
        m = g.memb
        return bool(
            m[pair_rank(w, x)] & bi and m[pair_rank(y, z)] & bi
            and m[pair_rank(w, y)] & bj and m[pair_rank(x, z)] & bj
            and m[pair_rank(w, z)] & bk and m[pair_rank(x, y)] & bk
        )


def _sdr3(ia: int, ib: int, ic: int) -> bool:
    """Distinct representatives for three bitmask sets (Hall's condition)."""
    if not (ia and ib and ic):
        return False
    if (ia | ib).bit_count() < 2 or (ia | ic).bit_count() < 2 or (ib | ic).bit_count() < 2:
        return False
    return (ia | ib | ic).bit_count() >= 3


@lru_cache(maxsize=None)
def _sdr_table() -> tuple:
    """sdr[a][b][c] == _sdr3(a, b, c) for masks over at most five layers.

    _sdr3 does not depend on the layer count, so one table serves p = 4 and
    p = 5.  A row sdr[a][b] depends on a only when a has fewer than two
    layers, on b likewise, and on a | b only when it has fewer than three;
    so the 1024 rows share 119 distinct tuples, and only those are computed,
    with _sdr3's tests on a popcount table.
    """
    size = 1 << 5
    ones = [m.bit_count() for m in range(size)]
    rows: dict[tuple, tuple] = {}

    def row(a: int, b: int) -> tuple:
        key = (
            a if ones[a] < 2 else -1,
            b if ones[b] < 2 else -1,
            a | b if ones[a | b] < 3 else -1,
        )
        r = rows.get(key)
        if r is None:
            if a and b and ones[a | b] > 1:
                r = tuple(
                    c != 0 and ones[a | c] > 1 and ones[b | c] > 1 and ones[a | b | c] > 2
                    for c in range(size)
                )
            else:
                r = (False,) * size
            rows[key] = r
        return r

    return tuple(tuple(row(a, b) for b in range(size)) for a in range(size))


def _pick_distinct(ia: int, ib: int, ic: int) -> tuple[int, int, int]:
    """One concrete distinct triple (1-indexed layers) from mask sets."""
    for i in _members(ia):
        for j in _members(ib & ~(1 << i)):
            for k in _members(ic & ~(1 << i | 1 << j)):
                return (i + 1, j + 1, k + 1)
    raise AssertionError("no distinct representatives despite Hall check")


def has_three_crossing_pairs(g: PMultigraph) -> CrossingWitness | None:
    """First crossing quad in lex scan order, or None."""
    if g.p < 3 or g.n < 4:
        return None
    m = g.memb
    for quad in combinations(range(g.n), 4):
        w, x, y, z = quad
        ia = m[pair_rank(w, x)] & m[pair_rank(y, z)]
        ib = m[pair_rank(w, y)] & m[pair_rank(x, z)]
        ic = m[pair_rank(w, z)] & m[pair_rank(x, y)]
        if _sdr3(ia, ib, ic):
            return CrossingWitness(quad, _pick_distinct(ia, ib, ic))
    return None


# ---------------------------------------------------------------------------
# Formulas and constructions.
# ---------------------------------------------------------------------------

def f4_formula(n: int) -> int:
    """2 C(n,2) + 2 floor(n^2/4): the 4-layer crossing-free maximum."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    return 2 * comb(n, 2) + 2 * (n * n // 4)


def extremal_4multigraph(n: int) -> PMultigraph:
    """Layers 1,2 cover one side plus crossing pairs, layers 3,4 the other.

    Split X = first floor(n/2) vertices, Y the rest; a pair inside X lies in
    layers {1,2}, inside Y in {3,4}, and a crossing pair in all four layers.
    Total is exactly f4_formula(n).
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    if n > MAX_VERTICES:
        raise ParameterError(f"need n <= {MAX_VERTICES}, got {n}")
    half = n // 2
    memb = [0] * comb(n, 2)
    for u in range(n):
        for v in range(u + 1, n):
            if v < half:
                memb[pair_rank(u, v)] = 0b0011
            elif u >= half:
                memb[pair_rank(u, v)] = 0b1100
            else:
                memb[pair_rank(u, v)] = 0b1111
    return PMultigraph(4, n, tuple(memb))


def _three_part_of(n: int) -> list[int]:
    q, r = divmod(n, 3)
    sizes = [q + 1] * r + [q] * (3 - r)
    part = []
    for i, s in enumerate(sizes):
        part.extend([i] * s)
    return part


def f5_lower_constructions(n: int) -> tuple[tuple[PMultigraph, int], tuple[PMultigraph, int]]:
    """The two 5-layer crossing-free constructions with their exact totals.

    First: all five layers equal to the complete 3-partite graph with
    near-equal parts, total 5 floor(n^2/3).  Second: the extremal 4-layer
    multigraph plus a fifth layer holding the crossing pairs, total
    f4_formula(n) + floor(n^2/4).
    """
    base = extremal_4multigraph(n)  # checks the range of n
    part = _three_part_of(n)
    memb1 = [0] * comb(n, 2)
    for u in range(n):
        for v in range(u + 1, n):
            if part[u] != part[v]:
                memb1[pair_rank(u, v)] = 0b11111
    g1 = PMultigraph(5, n, tuple(memb1))

    half = n // 2
    memb2 = list(base.memb)
    for u in range(half):
        for v in range(half, n):
            memb2[pair_rank(u, v)] |= 0b10000
    g2 = PMultigraph(5, n, tuple(memb2))
    return (g1, 5 * (n * n // 3)), (g2, f4_formula(n) + n * n // 4)


# ---------------------------------------------------------------------------
# Exact maximum by deficit-bounded branch and bound.
#
# Pairs are assigned in colex rank order; a 4-subset is tested exactly once,
# at the moment its colex-largest pair is assigned.  The budget on the
# remaining deficit comes from the seeded construction total, so only states
# that could still beat the seed are expanded.
#
# Layer-permutation symmetry is broken in full, by layer classes.  A class is
# a set of layers that agree on every pair assigned so far; at the start all
# p layers form one class.  A pair's mask is allowed only if, inside every
# class, it takes that class's lowest-indexed layers, and the child's classes
# are each class split into the layers it took and the ones it did not.
# Classes stay intervals of layer indices, so a state is the set of layers
# that begin a class.  Every layer-permutation orbit of multigraphs has
# exactly one member this rule accepts.  Walk the pairs in colex order and
# permute the layers inside each class so that the chosen ones come first:
# earlier pairs do not change, since a class agrees on them, so some member
# is accepted.  A layer permutation between two accepted members maps every
# final class to itself, and the layers of a final class are identical, so
# the two members are equal.
#
# Vertex-order floors tighten that budget rank by rank.  Colex order assigns
# all C(k,2) pairs inside the first k vertices before any other pair, and a
# multigraph that beats the seed, with T = seed + 1 edges or more, has a
# vertex order whose first k vertices span at least L_k edges (L_n = T,
# L_{k-1} = ceil((k-2) L_k / k); see the module docstring).  So while the pair
# of rank t is assigned, the deficit used may not exceed p C(k,2) - L_k for
# any k with t < C(k,2).  Layer permutations keep the edge total of every
# vertex subset, so the accepted member of an orbit meets the same floors.
# ---------------------------------------------------------------------------

_CORE_RANKS = ((0, 5), (1, 4), (3, 2))  # matching slots among ranks 0..5


def _combo_table(p: int) -> list[tuple[int, int, int, int]]:
    """Ordered (deficit, mask1, mask2, mask1 & mask2) combos sorted by deficit."""
    full = (1 << p) - 1
    combos = []
    for m1 in range(full + 1):
        for m2 in range(full + 1):
            d = 2 * p - m1.bit_count() - m2.bit_count()
            combos.append((d, m1, m2, m1 & m2))
    combos.sort()
    return combos


def _class_step(p: int, starts: int, mask: int) -> int | None:
    """The layer-class state after assigning mask, or None if mask is not allowed.

    starts has bit i set, for 0 < i < p, when layer index i begins a class;
    the state 0 is the single class of all p layers.  mask is allowed when no
    layer it takes follows, inside its class, a layer it leaves out.
    """
    if mask & ~(mask << 1) & ~starts & ~1:
        return None
    return starts | ((mask << 1) & ~mask & ((1 << p) - 1))


@lru_cache(maxsize=None)
def _class_options(p: int) -> list[list[tuple[int, list]]]:
    """Per-deficit (mask, child options) lists for the start state of _class_step.

    Entry d of a state's options lists its allowed masks with p - d layers,
    in ascending order, each with the options of its child state.  The states
    are the 2^(p-1) sets of class starts, 16 for p = 5.  Built once per p;
    callers only read it (a state can be its own child, so the lists cannot
    become tuples).
    """
    states = range(0, 1 << p, 2)
    options = {starts: [[] for _ in range(p + 1)] for starts in states}
    for starts in states:
        for mask in range(1 << p):
            child = _class_step(p, starts, mask)
            if child is not None:
                options[starts][p - mask.bit_count()].append((mask, options[child]))
    return options[0]


def _quad_descriptors(n: int) -> list[list[tuple[int, int, int, int, int]]]:
    """For each pair rank t, the 4-subsets whose colex-largest pair is t.

    Descriptor (r_ab, r_ax, r_by, r_bx, r_ay) for quad a<b<x<y with largest
    pair (x, y): matching masks are then S[r_ab]&S[t], S[r_ax]&S[r_by],
    S[r_ay]&S[r_bx].
    """
    out: list[list[tuple[int, int, int, int, int]]] = [[] for _ in range(comb(n, 2))]
    for a, b, x, y in combinations(range(n), 4):
        t = pair_rank(x, y)
        out[t].append(
            (pair_rank(a, b), pair_rank(a, x), pair_rank(b, y), pair_rank(b, x), pair_rank(a, y))
        )
    return out


def _deficit_ceilings(p: int, n: int, target: int) -> list[int]:
    """Per pair rank, the most deficit a multigraph with target edges can have used.

    Entry t is the minimum of p C(k,2) - L_k over the k <= n with t < C(k,2),
    where L_n = target and L_{k-1} = ceil((k-2) L_k / k).  The k = n term is
    p C(n,2) - target, the plain bound on the whole deficit.
    """
    floors = {n: target}
    for k in range(n, 2, -1):
        floors[k - 1] = -(-(k - 2) * floors[k] // k)
    return [
        min(p * comb(k, 2) - floor for k, floor in floors.items() if t < comb(k, 2))
        for t in range(comb(n, 2))
    ]


def _seed_construction(p: int, n: int) -> tuple[PMultigraph, int]:
    """The best crossing-free construction known for (p, n), with its total."""
    if p == 4:
        return extremal_4multigraph(n), f4_formula(n)
    return max(f5_lower_constructions(n), key=lambda c: c[1])


def max_edges_no_crossing(
    p: int,
    n: int,
    *,
    node_budget: int = 200_000_000,
    long_run: bool = False,
) -> tuple[int, PMultigraph]:
    """Exact maximum edge total of a crossing-free p-layer multigraph on n vertices.

    Seeded with the matching construction, then proves optimality by branch
    and bound over per-pair deficits, capped rank by rank by vertex-order
    floors, over one member of each layer-permutation orbit.  Supported:
    p = 4 with 3 <= n <= 9, and p = 5 with 3 <= n <= 6; p = 5 with n = 7 or 8
    must be requested with long_run=True.  Raises CapabilityError carrying
    best_found when the node budget runs out or a long run is needed, and
    ParameterError for a node budget below 1.
    """
    if node_budget < 1:
        raise ParameterError(f"node budget must be at least 1, got {node_budget}")
    if p not in (4, 5):
        raise ParameterError(f"supported layer counts are 4 and 5, got {p}")
    largest = 9 if p == 4 else 8
    if not 3 <= n <= largest:
        raise ParameterError(
            f"supported vertex counts are 3..9 for p=4 and 3..8 for p=5 "
            f"(7 and 8 behind long_run), got n={n} for p={p}"
        )
    if p == 5 and n > 6 and not long_run:
        raise CapabilityError(
            f"the (5, {n}) search is gated behind long_run",
            best_found=_seed_construction(p, n)[1],
        )

    if n == 3:
        return p * 3, PMultigraph.complete(p, n)

    seed_graph, seed_total = _seed_construction(p, n)
    if has_three_crossing_pairs(seed_graph) is not None:
        raise AssertionError("seed construction must be crossing-free")

    npairs = comb(n, 2)
    quads_at = _quad_descriptors(n)
    sdr = _sdr_table()

    best = seed_total
    best_graph = seed_graph
    cap = p * npairs
    ceilings = _deficit_ceilings(p, n, seed_total + 1)
    S = [0] * npairs
    nodes = 0

    def extend(t: int, deficit_used: int, options: list) -> None:
        nonlocal best, best_graph, nodes
        if t == npairs:
            total = cap - deficit_used
            if total > best:
                best = total
                best_graph = PMultigraph(p, n, tuple(S))
            return
        budget = min(ceilings[t], cap - best - 1) - deficit_used
        if budget < 0:
            return
        checks = quads_at[t]
        for d in range(min(budget, p) + 1):
            for mask, child in options[d]:
                ok = True
                for r_ab, r_ax, r_by, r_bx, r_ay in checks:
                    if sdr[S[r_ab] & mask][S[r_ax] & S[r_by]][S[r_ay] & S[r_bx]]:
                        ok = False
                        break
                if ok:
                    nodes += 1
                    if nodes > node_budget:
                        raise CapabilityError(
                            f"node budget {node_budget} exhausted", best_found=best
                        )
                    S[t] = mask
                    extend(t + 1, deficit_used + d, child)
        S[t] = 0

    extend(0, 0, _class_options(p))

    if has_three_crossing_pairs(best_graph) is not None:
        raise AssertionError("search produced a crossing witness in its own optimum")
    return best, best_graph


# ---------------------------------------------------------------------------
# Exhaustive 4-vertex facts.
# ---------------------------------------------------------------------------

def _core_multigraph(ca, cb, cc) -> PMultigraph:
    memb = [0] * 6
    for (r1, r2), combo in zip(_CORE_RANKS, (ca, cb, cc)):
        memb[r1], memb[r2] = combo[1], combo[2]
    return PMultigraph(5, 4, tuple(memb))


# The paper's 4-vertex lemma: from edge total 23 some matching has
# pair-multiplicity sum at most 5, and from 22 some pair lies in all 5 layers.
LEMMA_4VERTEX_MIN_SUM = 23
LEMMA_4VERTEX_SUM_BOUND = 5
LEMMA_4VERTEX_FULL_PAIR = 22


def verify_lemma_4vertex(*, seed: int = 0) -> Certificate:
    """Scan all 5-layer multigraphs on 4 vertices for two structural facts.

    For every crossing-free state: with edge total >= LEMMA_4VERTEX_MIN_SUM
    some matching has pair-multiplicity sum <= LEMMA_4VERTEX_SUM_BOUND, and
    with edge total >= LEMMA_4VERTEX_FULL_PAIR some single pair lies in all
    five layers.
    States are ranged over as deficit-sorted multisets of ordered matching
    assignments with multiplicities 1, 3 or 6 (the symmetry group of the
    4-vertex set permutes the three matchings slot-preservingly).  The states
    below both thresholds are charged in bulk from their closed-form count,
    so the ClaimRun's visited == space check reconciles the scan exactly.
    For each pair (a, b) of the first two assignments, the third ranges over
    a contiguous run of the deficit-sorted combos, and each threshold cuts a
    prefix of that run.  Whether the third crosses depends only on the row
    sdr[a][b], so per-row prefix counts of crossing-free combos turn every
    count into a weighted range sum, and per-row next-crossing-free indices
    find the first failing third, with the visited count it had in the
    combo-by-combo scan.
    """
    p = 5
    full = (1 << p) - 1
    min_sum, max_sum, full_pair = (
        LEMMA_4VERTEX_MIN_SUM, LEMMA_4VERTEX_SUM_BOUND, LEMMA_4VERTEX_FULL_PAIR
    )
    space = (1 << (2 * p)) ** 3
    run = ClaimRun("lemma-4vertex", space, seed)
    cutoff = 2 * 3 * p - min(min_sum, full_pair)
    combos = _combo_table(p)
    sdr = _sdr_table()
    ncombos = len(combos)
    # ends[off + k]: the number of combos with deficit <= k, as C(2p, d) have
    # deficit d; 0 for k < 0.  In the loop -off <= k <= 6p.
    off = max(min_sum, full_pair, 0)
    ends = [0] * off + list(accumulate(comb(2 * p, d) for d in range(2 * p + 1)))
    ends += [ncombos] * (off + 6 * p + 1 - len(ends))
    # a third's matching sum 2p - dc exceeds max_sum while dc <= 2p - max_sum - 1
    over = 2 * p - max_sum - 1
    over_end = ends[off + min(over, 2 * p)] if over >= 0 else 0
    has_full = [combo[1] == full or combo[2] == full for combo in combos]

    # per distinct sdr row: prefix counts of crossing-free combos, and the
    # next crossing-free index, overall and among combos without a full pair
    # (unsigned shorts, as ncombos is 1024, so the tables stay small)
    row_tables: dict[tuple, tuple[memoryview, memoryview, memoryview]] = {}

    def tables_for(row: tuple) -> tuple[memoryview, memoryview, memoryview]:
        pre, nf, nfn = (memoryview(bytearray(2 * (ncombos + 1))).cast("H") for _ in range(3))
        nf[ncombos] = nfn[ncombos] = ncombos
        free = [not row[combo[3]] for combo in combos]
        for j in range(ncombos):
            pre[j + 1] = pre[j] + free[j]
        for j in range(ncombos - 1, -1, -1):
            nf[j] = j if free[j] else nf[j + 1]
            nfn[j] = j if free[j] and not has_full[j] else nfn[j + 1]
        return pre, nf, nfn

    accounted = space - sum(comb(6 * p, k) for k in range(cutoff + 1))  # below both thresholds
    scanned = 0
    n_cross = 0
    n_free = 0
    n_min_sum_checked = 0
    n_full_pair_checked = 0

    def fail(ca, cb, cc, reason: str, e: int) -> None:
        g = _core_multigraph(ca, cb, cc)
        witness = {
            "reason": reason,
            "edge_total": e,
            "matching_sums": sorted(
                2 * p - combo[0] for combo in (ca, cb, cc)
            ),
            "multigraph": g.to_json_dict(),
        }
        run.fail(accounted + scanned, witness, reason)

    for ia in range(ncombos):
        ca = combos[ia]
        da = ca[0]
        if 3 * da > cutoff:
            break
        sdr_a = sdr[ca[3]]
        full_a = has_full[ia]
        for ib in range(ia, ncombos):
            cb = combos[ib]
            db = cb[0]
            if da + 2 * db > cutoff:
                break
            row = sdr_a[cb[3]]
            tables = row_tables.get(row)
            if tables is None:
                tables = row_tables[row] = tables_for(row)
            pre, nf, nfn = tables
            # the third combo ic runs over [ib, hi); ic == ib weighs w0, later
            # ones w1, so the crossing-free states with ib <= ic < h weigh
            # free0 + w1 * (pre[h] - pre1) for h > ib, and 0 otherwise
            w0, w1 = (1, 3) if ia == ib else (3, 6)
            pre1 = pre[ib + 1]
            free0 = w0 * (pre1 - pre[ib])
            rest = 6 * p - da - db  # the edge total is rest - dc
            hi = ends[off + cutoff - da - db]  # > ib, as db <= cutoff - da - db
            min_sum_end = ends[off + rest - min_sum]
            full_pair_end = ends[off + rest - full_pair]

            # the first failing third, if any; the min-sum reason wins a tie,
            # as it is checked first for each state
            first, reason = ncombos, ""
            if nf[ib] < min(min_sum_end, over_end):
                first, reason = nf[ib], "min matching sum exceeds bound"
            if not (full_a or has_full[ib]) and nfn[ib] < min(full_pair_end, first):
                first, reason = nfn[ib], "no pair with full multiplicity"
            if reason:
                cc = combos[first]
                scanned += w0 + w1 * (first - ib)
                fail(ca, cb, cc, reason, rest - cc[0])

            states = w0 + w1 * (hi - ib - 1)
            free_states = free0 + w1 * (pre[hi] - pre1)
            scanned += states
            n_cross += states - free_states
            n_free += free_states
            if min_sum_end > ib:
                n_min_sum_checked += free0 + w1 * (pre[min_sum_end] - pre1)
            if full_pair_end > ib:
                n_full_pair_checked += free0 + w1 * (pre[full_pair_end] - pre1)

    witness = {
        "crossing_states_at_threshold": n_cross,
        "crossing_free_states_at_threshold": n_free,
        "min_sum_instances": n_min_sum_checked,
        "full_pair_instances": n_full_pair_checked,
    }
    return run.passed(accounted + scanned, [witness])


# ---------------------------------------------------------------------------
# Integer inequality chains.
# ---------------------------------------------------------------------------

# The paper's deletion inequalities and Section 4 identities are checked for
# every n up to this bound.
INEQUALITY_N_MAX = 10001


def _f5_upper_scaled(m: int) -> int:
    """4 times the real upper bound (7 m^2 - m) / 4 on the 5-layer maximum."""
    return 7 * m * m - m


def verify_corollary_inequalities(*, seed: int = 0) -> Certificate:
    """Check the two deletion inequalities for every odd n in [9, INEQUALITY_N_MAX].

    Everything is multiplied by 4 so the fractional 5-layer bound becomes the
    integer 7 m^2 - m and the checks stay exact.
    """
    odds = range(9, INEQUALITY_N_MAX + 1, 2)
    space = len(odds)
    run = ClaimRun("corollary-bf", space, seed)
    visited = 0
    for n in odds:
        m5, m6 = n - 5, n - 6
        lhs_a = 4 * b_formula(m5) + _f5_upper_scaled(m5) + 4 * (7 * m5 + 10)
        lhs_b = (
            4 * (b_formula(m6) + (n - 9) // 2)
            + _f5_upper_scaled(m6)
            + 4 * (comb(m6, 2) + 10 * m6 + 20)
        )
        rhs = 4 * b_formula(n)
        visited += 1
        if not (lhs_a < rhs and lhs_b < rhs):
            run.fail(
                visited,
                {
                    "n": n,
                    "scaled_lhs_a": lhs_a,
                    "scaled_lhs_b": lhs_b,
                    "scaled_rhs": rhs,
                },
                "deletion inequality violated",
            )
    return run.passed(visited, [])


def verify_section4_arithmetic(*, seed: int = 0) -> Certificate:
    """Exact identities for every n up to INEQUALITY_N_MAX.

    For odd n >= 9: b(n-4) + f4(n-4) + 5(n-4) + 4 == b(n).
    For even n >= 4: b(n) - b(n-1) == 3 C(n/2, 2).
    """
    odds = range(9, INEQUALITY_N_MAX + 1, 2)
    evens = range(4, INEQUALITY_N_MAX + 1, 2)
    space = len(odds) + len(evens)
    run = ClaimRun("section4-arith", space, seed)
    visited = 0
    for n in odds:
        visited += 1
        lhs = b_formula(n - 4) + f4_formula(n - 4) + 5 * (n - 4) + 4
        if lhs != b_formula(n):
            run.fail(visited, {"n": n, "lhs": lhs, "rhs": b_formula(n)},
                     "odd split identity violated")
    for n in evens:
        visited += 1
        diff = b_formula(n) - b_formula(n - 1)
        if diff != 3 * comb(n // 2, 2):
            run.fail(visited, {"n": n, "difference": diff, "expected": 3 * comb(n // 2, 2)},
                     "even increment identity violated")
    return run.passed(visited, [])
