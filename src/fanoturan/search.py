"""Exhaustive boundary searches and claim verifiers with run certificates.

Two enumeration engines drive everything.  The raw engine accounts for
every labeled complement edge set of a given size and lists those whose
primal hypergraph is Fano-free (the complement must intersect every plane
image); it branches on the lowest image not yet hit, charging in bulk the
sets that can no longer hit it, so it never walks the sets one at a time.
ex-7 and lemma-n7 count labeled survivors with it, and fact-tetra runs the
same brancher over 4-sets instead of plane images.  The canonical engine,
behind max_fano_free_edges and ex-8, walks only complements that are the
least-labeled member of their isomorphism class, adding edges in increasing
colex rank; whenever a child is rejected (not canonical, or provably unable
to cover the remaining plane images) the engine charges the full count of
size-complements through that child, so the books close exactly at
C(#triples, size).  Both engines, and the apex link scans, read plane images
only through fano.cover_table.  Survivors are the complements themselves, as
Hypergraphs; hypergraph.complement turns them back into the primal ones.

The apex link scans (lemma-2-3, fact-2-4, matching-facts) range over all
2^15 graphs on six vertices, the links of a seventh.  They decide them all
at once on link bitsets, ints of 2^15 bits with bit m standing for link mask
m: per pair the links containing it, per size k the links with at least k
pairs, and per plane image the links whose non-link apex triples hit it.  A
verdict is then a few ANDs and ORs, and a failure is reported at the lowest
set bit, with the count an ascending scan of the masks would have visited.

Claim verifiers build their certificates through a ClaimRun: they return
run.passed(...), which checks visited == space, and end any counterexample
with run.fail(...), which raises VerificationError carrying the failing
certificate, so deliberately weakened inputs fail loudly instead of passing
vacuously.  The claim table CLAIMS lists every registered claim once, in run
order; run_claim, CLAIM_ORDER, LONG_RUN_CLAIMS and the command line all read
it.  A verifier takes only what run_claim hands it.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .canonical import automorphism_count, canonical_form, is_canonical
from .certificate import Certificate, CheckpointWriter, ClaimRun
from .errors import CapabilityError, ParameterError
from .fano import (
    contains_fano_crossing,
    contains_fano_embedding,
    contains_fano_pasch,
    cover_table,
    find_clique,
)
from .hypergraph import (
    Hypergraph,
    _members,
    b_formula,
    complement,
    construct,
    recognize_balanced_bipartite,
    to_json_dict,
    triple_rank,
)
from .multigraph import (  # run by name from CLAIMS
    verify_corollary_inequalities,
    verify_lemma_4vertex,
    verify_section4_arithmetic,
)

RAW_STATE_CAP = 2_000_000

# The fixed numbers of the paper's finite steps, read when a verifier runs.
LEMMA_N7_FAMILIES = ("balanced_bipartite", "j7")  # B_7 and J_7, the classes of ex(7) = 30
LEMMA_2_3_MIN_LINK_DEGREE = 11  # Lemma 2.3's lower bound on the seventh vertex's link
FACT_TETRA_VERTEX_COUNTS = (4, 5, 6, 7)  # scanned exhaustively; the count chain runs to 64


@dataclass
class ScanResult:
    survivors: list[Hypergraph]  # complements
    accounted: int


def _hitting_sets(masks, full, size: int) -> tuple[list[tuple[int, ...]], int]:
    """Every size-subset of range(len(masks)) whose masks cover full, and its accounting.

    Labeled hitting-set branching (after Niedermeier and Rossmanith, 2003):
    at each node take the lowest image not yet hit; its options are the
    still-allowed elements that hit it.  The sets avoiding every option are
    charged as dead, and child j takes option j and forbids options 1..j-1,
    so the children partition the rest.  Once every image is hit, each
    completion by allowed elements survives.  The charges sum to
    C(len(masks), size), and the survivors come back as ascending rank
    tuples in lexicographic order, the order of itertools.combinations.
    """
    T = len(masks)
    hitters: dict[int, int] = {}  # image bit -> the elements hitting it, as a mask
    for r, m in enumerate(masks):
        while m:
            low = m & -m
            hitters[low] = hitters.get(low, 0) | 1 << r
            m ^= low
    survivors: list[tuple[int, ...]] = []
    accounted = 0

    def rec(covered: int, allowed: int, chosen: int, rem: int) -> None:
        nonlocal accounted
        unhit = full & ~covered
        if not unhit:
            accounted += comb(allowed.bit_count(), rem)
            base = tuple(r for r in range(T) if chosen >> r & 1)
            for extra in combinations([r for r in range(T) if allowed >> r & 1], rem):
                survivors.append(tuple(sorted(base + extra)))
            return
        if rem == 0:
            accounted += 1
            return
        options = hitters.get(unhit & -unhit, 0) & allowed
        accounted += comb(allowed.bit_count() - options.bit_count(), rem)
        while options:
            low = options & -options
            allowed ^= low
            rec(covered | masks[low.bit_length() - 1], allowed, chosen | low, rem - 1)
            options ^= low

    rec(0, (1 << T) - 1, 0, size)
    if accounted != comb(T, size):
        raise AssertionError(
            f"hitting-set accounting mismatch: {accounted} != C({T}, {size}) = {comb(T, size)}"
        )
    survivors.sort()
    return survivors, accounted


def _raw_survivors(n: int, size: int) -> ScanResult:
    """Every labeled complement of size triples whose primal is Fano-free."""
    T = comb(n, 3)
    total = comb(T, size)
    if total > RAW_STATE_CAP:
        raise CapabilityError(
            f"raw scan of {total} states exceeds the cap {RAW_STATE_CAP}; use canonical dedup"
        )
    table = cover_table(n)
    survivors, accounted = _hitting_sets(table.masks, table.full, size)
    return ScanResult([Hypergraph.from_ranks(n, ranks) for ranks in survivors], accounted)


def _canonical_survivors(
    n: int, size: int, *, checkpoint: CheckpointWriter | None = None
) -> ScanResult:
    """Orderly scan of canonical complements, with exact rejection accounting.

    Every edge set has exactly one increasing build order, and every prefix
    of a canonical set is canonical, so rejecting a child (with r the new
    largest rank, k+1 edges placed) cuts exactly C(T-1-r, size-k-1) leaf
    sets.  A child is also rejected when the triples left cannot hit the
    images it leaves uncovered: too few of them (the count bound), or none
    of rank above r through some uncovered image (the reach test).  So the
    leaves reached are exactly the canonical complements hitting all plane
    images.
    """
    T = comb(n, 3)
    table = cover_table(n)
    masks, full, most = table.masks, table.full, table.most
    nimages = full.bit_count()
    # reach[r]: the images that some triple of rank >= r can still hit.
    reach = [0] * (T + 1)
    for r in range(T - 1, -1, -1):
        reach[r] = reach[r + 1] | masks[r]
    survivors: list[Hypergraph] = []
    accounted = 0
    nodes = 0

    def rec(bits: int, covered: int, maxr: int, k: int) -> None:
        nonlocal accounted, nodes
        nodes += 1
        if k == size:
            survivors.append(Hypergraph(n, bits))
            accounted += 1
            return
        rem = size - k - 1
        for r in range(maxr + 1, T):
            tail = comb(T - 1 - r, rem)
            newcov = covered | masks[r]
            if nimages - newcov.bit_count() > most * rem or newcov | reach[r + 1] != full:
                accounted += tail
                continue
            nb = bits | 1 << r
            if not is_canonical(Hypergraph(n, nb)):
                accounted += tail
                continue
            rec(nb, newcov, r, k + 1)
        if checkpoint is not None:
            checkpoint.maybe_write(nodes, accounted, len(survivors))

    if nimages > most * size:  # the same cover bound at the root, the empty set included
        accounted = comb(T, size)
    else:
        rec(0, 0, -1, 0)
    if accounted != comb(T, size):
        raise AssertionError(
            f"rejection accounting mismatch: {accounted} != C({T}, {size}) = {comb(T, size)}"
        )
    if checkpoint is not None:
        checkpoint.write(nodes, accounted, len(survivors))
    return ScanResult(survivors, accounted)


# ---------------------------------------------------------------------------
# Extremal values.
# ---------------------------------------------------------------------------

def max_fano_free_edges(n: int, *, long_run: bool = False) -> tuple[int, list[Hypergraph]]:
    """Largest Fano-free edge count on n vertices plus the extremal classes.

    Walks complement sizes upward through the canonical engine, which keeps
    one survivor per class; Fano-freeness survives edge removal, so the first
    size with survivors is exact.  Each class is given by its canonical form.
    n = 8 must be requested with long_run=True.
    """
    if not 4 <= n <= 8:
        raise ParameterError(f"supported vertex counts are 4..8, got {n}")
    if n == 8 and not long_run:
        raise CapabilityError(
            "the 8-vertex boundary scan is gated behind long_run", best_found=b_formula(8)
        )
    T = comb(n, 3)
    for c in range(T + 1):
        survivors = _canonical_survivors(n, c).survivors
        if survivors:
            classes = [canonical_form(complement(comp)) for comp in survivors]
            return T - c, sorted(classes, key=Hypergraph.ranks)
    raise AssertionError("even the empty hypergraph should survive")


# ---------------------------------------------------------------------------
# Seven-vertex classification.
# ---------------------------------------------------------------------------

def verify_lemma_n7(*, seed: int = 0) -> Certificate:
    """Classify all 30-edge Fano-free hypergraphs on 7 vertices.

    Accounts for every 5-edge complement through the hitting-set brancher
    and lists the labeled survivors, checks the complement dichotomy (any two
    missing triples share 0 or 2 vertices), groups survivors up to
    isomorphism and matches the classes against the constructions named in
    LEMMA_N7_FAMILIES: the balanced bipartite hypergraph and the complete
    hypergraph minus the five triples through one pair.  Labeled counts and
    automorphism orbit sizes must agree.
    """
    space = comb(35, 5)
    run = ClaimRun("lemma-n7", space, seed)
    expected = {canonical_form(construct(kind, 7)) for kind in LEMMA_N7_FAMILIES}

    scan = _raw_survivors(7, 5)
    visited = scan.accounted
    comp_groups: dict[Hypergraph, list[Hypergraph]] = {}
    for comp in scan.survivors:
        for ta, tb in combinations(comp.edges(), 2):
            shared = len(set(ta) & set(tb))
            if shared not in (0, 2):
                run.fail(
                    visited, {"complement_ranks": list(comp.ranks()), "shared_vertices": shared},
                    "missing triples share exactly one vertex",
                )
        if contains_fano_embedding(complement(comp)):
            run.fail(visited, {"complement_ranks": list(comp.ranks())},
                     "image cover test and embedding detector disagree")
        comp_groups.setdefault(canonical_form(comp), []).append(comp)

    labeled = sum(len(v) for v in comp_groups.values())
    if labeled != 56 or len(comp_groups) != 2:
        run.fail(visited, {"labeled_survivors": labeled, "classes": len(comp_groups)},
                 "unexpected survivor count")

    found: dict[Hypergraph, dict] = {}
    for members in comp_groups.values():
        rep = complement(members[0])
        form = canonical_form(rep)
        orbit = 5040 // automorphism_count(rep)
        if orbit != len(members):
            run.fail(visited, {"orbit_from_automorphisms": orbit, "labeled_members": len(members)},
                     "orbit size disagrees with labeled count")
        found[form] = {
            "labeled_count": len(members),
            "hypergraph": to_json_dict(form),
            "balanced_bipartite": recognize_balanced_bipartite(rep) is not None,
        }

    if set(found) != expected:
        missing = [f.ranks() for f in expected - set(found)]
        extra = [f.ranks() for f in set(found) - expected]
        run.fail(visited, {"missing_classes": missing, "unexpected_classes": extra},
                 "survivor classes differ from the expected ones")
    counts = sorted(d["labeled_count"] for d in found.values())
    if counts != [21, 35]:
        run.fail(visited, {"class_sizes": counts}, "unexpected class sizes")

    return run.passed(visited, [found[f] for f in sorted(found, key=Hypergraph.ranks)])


def verify_ex7(*, seed: int = 0) -> Certificate:
    """The 7-vertex maximum is 30: no survivors below 5 missing triples.

    Accounts for every complement of sizes 0..5 through the hitting-set
    brancher (384,168 states, none walked one at a time) and confirms both
    extremal constructions named in LEMMA_N7_FAMILIES attain the bound and
    pass all three independent plane detectors as Fano-free.
    """
    space = sum(comb(35, c) for c in range(6))
    run = ClaimRun("ex-7", space, seed)
    visited = 0
    for c in range(6):
        scan = _raw_survivors(7, c)
        visited += scan.accounted
        if c < 5 and scan.survivors:
            first = list(scan.survivors[0].ranks())
            run.fail(visited, {"complement_ranks": first, "edges": 35 - c},
                     "Fano-free hypergraph above 30 edges")
    if len(scan.survivors) != 56:
        run.fail(visited, {"survivors": len(scan.survivors)},
                 "wrong survivor count at the boundary")

    for kind in LEMMA_N7_FAMILIES:
        h = construct(kind, 7)
        if h.edge_count != 30 or h.edge_count != b_formula(7):
            run.fail(visited, {"family": kind, "edges": h.edge_count},
                     "extremal construction has wrong size")
        if contains_fano_embedding(h) or contains_fano_crossing(h) or contains_fano_pasch(h):
            run.fail(visited, {"family": kind}, "extremal construction contains a plane copy")
    return run.passed(visited, [{"max_edges": 30, "labeled_extremals": 56}])


def verify_ex8(
    *,
    long_run: bool = False,
    seed: int = 0,
    checkpoint_path: str | None = None,
) -> Certificate:
    """The 8-vertex maximum is 48 with one extremal class.

    Needs only the 7- and 8-edge complement levels: Fano-freeness survives
    edge removal, so an empty 7-edge level rules out everything above 49
    edges.  Both levels run the canonical engine with cover pruning and
    exact rejection accounting; the unique 8-edge survivor class is checked
    to be the balanced bipartite complement (two disjoint complete 4-vertex
    hypergraphs) by canonical form, orbit size, and all three detectors.
    """
    space = comb(56, 7) + comb(56, 8)
    run = ClaimRun("ex-8", space, seed)
    if not long_run:
        raise CapabilityError("the 8-vertex scan is gated behind long_run", best_found=None)

    scan7 = _canonical_survivors(8, 7)
    visited = scan7.accounted
    if scan7.survivors:
        run.fail(visited, {"complement_ranks": list(scan7.survivors[0].ranks())},
                 "a 49-edge Fano-free hypergraph exists")

    with CheckpointWriter(checkpoint_path) if checkpoint_path else nullcontext() as writer:
        scan8 = _canonical_survivors(8, 8, checkpoint=writer)
    visited += scan8.accounted

    classes = {canonical_form(comp): comp for comp in scan8.survivors}
    if len(classes) != 1:
        run.fail(visited, {"classes": len(classes)}, "expected exactly one extremal class")
    (comp_form, comp), = classes.items()
    primal = complement(comp)
    b8 = construct("balanced_bipartite", 8)
    checks = {
        "canonical_match": canonical_form(primal) == canonical_form(b8),
        "complement_match": comp_form == canonical_form(complement(b8)),
        "orbit": 40320 // automorphism_count(comp),
        "edges": primal.edge_count,
        "formula": b_formula(8),
        "fano_free_all_detectors": not (
            contains_fano_embedding(primal)
            or contains_fano_crossing(primal)
            or contains_fano_pasch(primal)
        ),
    }
    if not (
        checks["canonical_match"]
        and checks["complement_match"]
        and checks["orbit"] == 35
        and checks["edges"] == 48 == checks["formula"]
        and checks["fano_free_all_detectors"]
    ):
        run.fail(visited, checks, "extremal class validation failed")
    return run.passed(visited, [{"max_edges": 48, "labeled_extremals": 35,
                                 "extremal": to_json_dict(canonical_form(primal))}])


# ---------------------------------------------------------------------------
# Six-set link scans (one apex vertex over a near-complete 6-vertex base).
# ---------------------------------------------------------------------------

_SIX_TRIPLES = tuple(combinations(range(6), 3))
_SIX_PAIRS = tuple(combinations(range(6), 2))
_APEX_RANKS = tuple(triple_rank(u, w, 6) for u, w in _SIX_PAIRS)


def _pair_sets() -> list[int]:
    """Per pair i of _SIX_PAIRS, the link bitset of the masks containing it.

    A link bitset is one int of 2^15 bits, bit m standing for the link mask
    m; the bitsets are built when a verifier runs, not at import.  Bit m of
    entry i is m >> i & 1: a block of 2^i clear bits and 2^i set bits,
    repeated by doubling up to 2^15 bits.
    """
    out = []
    for i in range(15):
        block, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while width < 1 << 15:
            block |= block << width
            width <<= 1
        out.append(block)
    return out


def _size_sets(pair_sets: list[int]) -> list[int]:
    """ge[k]: the link bitset of the masks with at least k pairs, for k = 0..15."""
    ge = [(1 << (1 << 15)) - 1] + [0] * 15
    for i, ps in enumerate(pair_sets):
        for k in range(i + 1, 0, -1):
            ge[k] |= ge[k - 1] & ps
    return ge


def _image_link_sets(table, pair_sets: list[int]) -> list[int]:
    """Per plane image on 7 vertices, the links whose non-link apex triples hit it.

    Entry j is the OR of the complements of pair_sets[i] over the pairs i
    whose apex triple {u, w, 6} lies in image j of the table.
    """
    every = (1 << (1 << 15)) - 1
    out = [0] * table.full.bit_length()
    for ps, r in zip(pair_sets, _APEX_RANKS):
        for j in _members(table.masks[r]):
            out[j] |= every ^ ps
    return out


def _apex_hypergraph(comp_triples, link_mask: int) -> Hypergraph:
    """7-vertex hypergraph: complete 6-set minus comp_triples, plus a link."""
    edges = [t for i, t in enumerate(_SIX_TRIPLES) if i not in comp_triples]
    edges.extend((u, w, 6) for i, (u, w) in enumerate(_SIX_PAIRS) if link_mask >> i & 1)
    return Hypergraph.from_edges(7, edges)


def verify_lemma_2_3(*, seed: int = 0) -> Certificate:
    """Dense Fano-free 7-vertex hypergraphs have a balanced bipartite 6-set.

    States: a 6-vertex base missing at most 2 of its 20 triples, times all
    2^15 links of a seventh vertex.  Whenever the whole hypergraph is
    Fano-free and the link has at least LEMMA_2_3_MIN_LINK_DEGREE edges, the
    base must be the complete balanced bipartite hypergraph on 3+3 vertices.
    Links below the degree threshold fail the hypothesis and are accounted in
    bulk.  Each base decides all its links at once on link bitsets: the
    Fano-free links are the AND of the image link sets over the plane images
    its missing triples leave unhit, and the states are counted in the order
    of a scan over ascending link masks.
    """
    table = cover_table(7)
    comp_choices = (
        [()]
        + [(i,) for i in range(20)]
        + list(combinations(range(20), 2))
    )
    space = len(comp_choices) * (1 << 15)
    run = ClaimRun("lemma-2-3", space, seed)
    pair_sets = _pair_sets()
    dense_links = _size_sets(pair_sets)[LEMMA_2_3_MIN_LINK_DEGREE]
    image_links = _image_link_sets(table, pair_sets)
    per_base = dense_links.bit_count()

    visited = ((1 << 15) - per_base) * len(comp_choices)
    fano_free_seen = 0
    for comp in comp_choices:
        free = dense_links
        base_cov = table.cover(triple_rank(*_SIX_TRIPLES[i]) for i in comp)
        for j in _members(table.full & ~base_cov):
            free &= image_links[j]
        fano_free_seen += free.bit_count()
        if free:
            base6 = complement(Hypergraph.from_edges(6, [_SIX_TRIPLES[i] for i in comp]))
            if recognize_balanced_bipartite(base6) is None:
                m = next(_members(free))
                run.fail(
                    visited + (dense_links & ((2 << m) - 1)).bit_count(),
                    {
                        "hypergraph": to_json_dict(_apex_hypergraph(comp, m)),
                        "link_degree": m.bit_count(),
                        "missing_base_triples": [list(_SIX_TRIPLES[i]) for i in comp],
                    },
                    "Fano-free dense state with non-bipartite base",
                )
        visited += per_base
    if fano_free_seen == 0:
        run.fail(visited, {"fano_free_states": 0}, "scan was vacuous")
    return run.passed(visited, [{"fano_free_states": fano_free_seen,
                                 "links_at_or_above_degree": per_base}])


def _six_degrees(link_mask: int) -> list[int]:
    """Sorted vertex degrees of the graph on 0..5 whose pairs the mask selects."""
    degs = [0] * 6
    for i, (u, w) in enumerate(_SIX_PAIRS):
        if link_mask >> i & 1:
            degs[u] += 1
            degs[w] += 1
    return sorted(degs)


def verify_fact_2_4(*, seed: int = 0) -> Certificate:
    """Over a complete 6-set, a Fano-free apex link has at most 10 edges.

    Decides all 2^15 links at once on link bitsets: the Fano-free links are
    the AND of the image link sets over every plane image, and the best link
    size is the largest k whose size class meets them.  Pins the maximum at
    10, checks all six extremal links are a complete graph on five of the six
    base vertices, and closes the arithmetic: 20 + 10 + 10 + 6 = 46 < 48
    rules out two such apexes reaching the balanced bipartite count on 8
    vertices.  One boundary case per side is re-verified with the embedding
    detector.
    """
    table = cover_table(7)
    space = 1 << 15
    run = ClaimRun("fact-2-4", space, seed)
    pair_sets = _pair_sets()
    ge = _size_sets(pair_sets)
    image_links = _image_link_sets(table, pair_sets)
    free = ge[0]
    for j in _members(table.full):
        free &= image_links[j]
    visited = space
    best = max((k for k in range(16) if free & ge[k]), default=-1)
    extremal = free & ge[best] if best >= 0 else 0
    if best != 10 or extremal.bit_count() != 6:
        run.fail(visited, {"max_link": best, "extremals": extremal.bit_count()},
                 "unexpected link maximum")
    argmax = list(_members(extremal))
    for m in argmax:
        degs = _six_degrees(m)
        if degs != [0, 4, 4, 4, 4, 4]:
            run.fail(visited, {"link_degrees": degs},
                     "extremal link is not complete on five vertices")

    h_free = _apex_hypergraph((), argmax[0])
    h_over = _apex_hypergraph((), argmax[0] | (1 << next(
        i for i in range(15) if not argmax[0] >> i & 1
    )))
    if contains_fano_embedding(h_free) or not contains_fano_embedding(h_over):
        run.fail(visited, {"detector_agreement": False},
                 "embedding detector disagrees with the image cover scan")
    if not 20 + 10 + 10 + 6 < b_formula(8):
        run.fail(visited, {"bound": 46, "target": b_formula(8)}, "apex arithmetic fails")
    return run.passed(visited, [{
        "max_link_edges": 10,
        "extremal_links": 6,
        "upper_bound_with_two_apexes": 46,
        "balanced_count": b_formula(8),
    }])


def _perfect_matchings6() -> list[int]:
    return [1 << i | 1 << j | 1 << k for i, j, k in combinations(range(15), 3)
            if len({*_SIX_PAIRS[i], *_SIX_PAIRS[j], *_SIX_PAIRS[k]}) == 6]


def verify_matching_facts(*, seed: int = 0) -> Certificate:
    """Perfect matchings in 6-vertex graphs: the 11-edge threshold is sharp.

    The complete graph has exactly 15 perfect matchings; every graph with 11
    or more edges contains one; exactly six 10-edge graphs contain none and
    each is a complete graph on five vertices plus an isolated vertex.  All
    2^15 graphs are decided at once on link bitsets: the graphs with a
    perfect matching are the OR over the matchings of the AND of their three
    pair sets, and a failure is reported at the graph an ascending scan
    would stop at.
    """
    space = 1 << 15
    run = ClaimRun("matching-facts", space, seed)
    pms = _perfect_matchings6()
    if len(pms) != 15 or len(set(pms)) != 15:
        run.fail(0, {"matchings": len(pms)}, "wrong perfect matching count in the complete graph")
    pair_sets = _pair_sets()
    ge = _size_sets(pair_sets)
    has_pm = 0
    for pm in pms:
        containing = ge[0]
        for i in _members(pm):
            containing &= pair_sets[i]
        has_pm |= containing
    pm_free = ge[0] ^ has_pm
    if pm_free & ge[11]:
        m = next(_members(pm_free & ge[11]))
        run.fail(m + 1, {"edges": [list(_SIX_PAIRS[i]) for i in range(15) if m >> i & 1]},
                 "an 11-edge graph without a perfect matching")
    visited = space
    pm_free_10 = pm_free & ge[10]
    if pm_free_10.bit_count() != 6:
        run.fail(visited, {"ten_edge_pm_free": pm_free_10.bit_count()},
                 "unexpected count of matching-free 10-edge graphs")
    for m in _members(pm_free_10):
        degs = _six_degrees(m)
        if degs != [0, 4, 4, 4, 4, 4]:
            run.fail(visited, {"degrees": degs},
                     "matching-free extremal is not complete on five vertices")
    return run.passed(visited, [{"perfect_matchings_of_complete": 15, "ten_edge_pm_free": 6}])


# ---------------------------------------------------------------------------
# Tetrahedra at the balanced count.
# ---------------------------------------------------------------------------

def _quad_masks(m: int) -> tuple[list[int], int]:
    """Per triple rank on m vertices, the 4-sets containing it, and the mask of all 4-sets.

    A hypergraph has no tetrahedron iff its missing triples hit every 4-set.
    """
    quads_through = [0] * comb(m, 3)
    for i, quad in enumerate(combinations(range(m), 4)):
        for t in combinations(quad, 3):
            quads_through[triple_rank(*t)] |= 1 << i
    return quads_through, (1 << comb(m, 4)) - 1


def _lex_combination(T: int, size: int, index: int) -> tuple[int, ...]:
    """The index-th size-subset of range(T) in the order of itertools.combinations."""
    out = []
    x = 0
    for k in range(size, 0, -1):
        while comb(T - x - 1, k - 1) <= index:  # the subsets starting at x come first
            index -= comb(T - x - 1, k - 1)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def verify_fact_tetra(*, seed: int = 0) -> Certificate:
    """Every hypergraph with b(n) edges contains a complete 4-vertex piece.

    For each n in FACT_TETRA_VERTEX_COUNTS, hitting-set branching accounts
    for every complement of C(n,3) - b(n) triples and lists those that hit
    every 4-set, which must be none.  A seeded sample of those states, drawn
    by lexicographic index, is re-verified with the independent clique
    finder.  The exact chain 3 C(n,3) < 4 b(n) covers all n in [4, 64].
    """
    targets = FACT_TETRA_VERTEX_COUNTS
    rng = random.Random(seed)
    chain = range(4, 65)
    space = sum(comb(comb(m, 3), comb(m, 3) - b_formula(m)) for m in targets) + len(chain)
    run = ClaimRun("fact-tetra", space, seed)
    visited = 0

    for m in targets:
        T = comb(m, 3)
        c = T - b_formula(m)
        total = comb(T, c)
        sample = rng.sample(range(total), min(100, total))
        survivors, accounted = _hitting_sets(*_quad_masks(m), c)
        visited += accounted
        if survivors:
            run.fail(visited, {"n": m, "complement_ranks": list(survivors[0])},
                     "a hypergraph at the balanced count with no tetrahedron")
        for idx in sorted(sample):
            ranks = _lex_combination(T, c, idx)
            if find_clique(complement(Hypergraph.from_ranks(m, ranks)), 4) is None:
                run.fail(visited, {"n": m, "complement_ranks": list(ranks)},
                         "clique finder disagrees with the mask scan")

    for m in chain:
        visited += 1
        if not 3 * comb(m, 3) < 4 * b_formula(m):
            run.fail(visited, {"n": m}, "count comparison chain fails")
    return run.passed(visited, [{"vertex_counts": list(targets), "chain_checked_to": 64}])


# ---------------------------------------------------------------------------
# Claim registry.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """A registered claim: its id, the name of its verifier, and its gate.

    The verifier is looked up in this module by name when the claim runs, so
    a wrapper installed on that module attribute (a profiler's or a test's)
    sees the call.  Only long-run claims take long_run and checkpoint_path,
    and without long_run they raise CapabilityError before any work, so the
    command line asks them first.
    """

    id: str
    verifier: str
    long_run: bool = False


CLAIMS: tuple[Claim, ...] = (
    Claim("ex-7", "verify_ex7"),
    Claim("lemma-n7", "verify_lemma_n7"),
    Claim("fact-tetra", "verify_fact_tetra"),
    Claim("lemma-2-3", "verify_lemma_2_3"),
    Claim("fact-2-4", "verify_fact_2_4"),
    Claim("matching-facts", "verify_matching_facts"),
    Claim("lemma-4vertex", "verify_lemma_4vertex"),
    Claim("corollary-bf", "verify_corollary_inequalities"),
    Claim("section4-arith", "verify_section4_arithmetic"),
    Claim("ex-8", "verify_ex8", long_run=True),
)

CLAIM_ORDER: tuple[str, ...] = tuple(c.id for c in CLAIMS)
LONG_RUN_CLAIMS = frozenset(c.id for c in CLAIMS if c.long_run)


def run_claim(
    claim: str,
    *,
    seed: int = 0,
    long_run: bool = False,
    checkpoint_path: str | None = None,
) -> Certificate:
    """Run one registered claim end to end and return its certificate."""
    entry = next((c for c in CLAIMS if c.id == claim), None)
    if entry is None:
        raise ParameterError(
            f"unknown claim {claim!r}; valid ids: {', '.join(CLAIM_ORDER)}"
        )
    verify = globals()[entry.verifier]
    if entry.long_run:
        return verify(seed=seed, long_run=long_run, checkpoint_path=checkpoint_path)
    return verify(seed=seed)
