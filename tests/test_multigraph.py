"""Layer multigraphs: crossing pairs, extremal values, and inequality chains."""

import json
import random
import time
from itertools import combinations, permutations, product
from math import comb

import pytest

from fanoturan import multigraph
from fanoturan.certificate import ClaimRun
from fanoturan.errors import CapabilityError, FormatError, ParameterError, VerificationError
from fanoturan.multigraph import (
    CrossingWitness,
    PMultigraph,
    _f5_upper_scaled,
    _pick_distinct,
    _sdr3,
    extremal_4multigraph,
    f4_formula,
    f5_lower_constructions,
    has_three_crossing_pairs,
    max_edges_no_crossing,
    verify_corollary_inequalities,
    verify_lemma_4vertex,
    verify_section4_arithmetic,
)
from fanoturan.hypergraph import MAX_VERTICES, b_formula, pair_rank


def _random_multigraph(p, n, density, rng):
    memb = []
    for _ in range(comb(n, 2)):
        m = 0
        for l in range(p):
            if rng.random() < density:
                m |= 1 << l
        memb.append(m)
    return PMultigraph(p, n, tuple(memb))


def _relabel(g, vperm, lperm):
    """Apply a vertex permutation and a layer permutation (0-indexed)."""
    memb = [0] * comb(g.n, 2)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            m = g.memb[pair_rank(u, v)]
            out = 0
            for l in range(g.p):
                if m >> l & 1:
                    out |= 1 << lperm[l]
            memb[pair_rank(*sorted((vperm[u], vperm[v])))] = out
    return PMultigraph(g.p, g.n, tuple(memb))


def test_constructor_validation():
    with pytest.raises(ParameterError):
        PMultigraph(0, 4, ())
    with pytest.raises(ParameterError):
        PMultigraph(17, 4, (0,) * 6)
    with pytest.raises(ParameterError):
        PMultigraph(4, 4, (0,) * 5)  # wrong pair count
    with pytest.raises(ParameterError):
        PMultigraph(2, 3, (4, 0, 0))  # stray layer bit


def test_accessors_on_a_small_example():
    g = PMultigraph(3, 3, (0b101, 0b010, 0b111))
    assert g.multiplicity(0, 1) == 2
    assert g.multiplicity(1, 0) == 2
    assert g.edge_total() == 6
    assert PMultigraph.complete(3, 3).edge_total() == 9


def test_json_roundtrip_is_exact():
    rng = random.Random(21)
    for _ in range(25):
        g = _random_multigraph(rng.choice((4, 5)), rng.randrange(3, 7), 0.5, rng)
        d = g.to_json_dict()
        assert PMultigraph.from_json_dict(json.loads(json.dumps(d))) == g
        assert json.dumps(d) == json.dumps(PMultigraph.from_json_dict(d).to_json_dict())


def test_json_rejects_malformed_objects():
    good = extremal_4multigraph(4).to_json_dict()
    for mutate in (
        lambda d: d.pop("p"),
        lambda d: d.update(extra=1),
        lambda d: d["pairs"].append({"u": 0, "v": 1, "layers": [1]}),  # out of order
        lambda d: d["pairs"][0].update(layers=[]),
        lambda d: d["pairs"][0].update(layers=[5]),
        lambda d: d["pairs"][0].update(layers=[2, 1]),
        lambda d: d["pairs"][0].update(u=3, v=3),
        lambda d: d["pairs"][0].update(layers=3),
        lambda d: d["pairs"][0].update(layers=[1, "2"]),
        lambda d: d.update(n=-1, pairs=[]),
        lambda d: d.update(n=10**6),
        lambda d: d.update(p=10**9),
        lambda d: d.update(p=True, pairs=[{"u": 0, "v": 1, "layers": [1]}]),
        lambda d: d.update(n=True, pairs=[]),
        lambda d: d["pairs"][0].update(layers=[True]),
        lambda d: d["pairs"][0].update(u=False),
    ):
        d = json.loads(json.dumps(good))
        mutate(d)
        with pytest.raises(FormatError):
            PMultigraph.from_json_dict(d)


def test_sdr3_matches_brute_force():
    def brute(ia, ib, ic):
        bits = [[l for l in range(5) if m >> l & 1] for m in (ia, ib, ic)]
        return any(
            len({x, y, z}) == 3
            for x in bits[0] for y in bits[1] for z in bits[2]
        )

    for ia in range(32):
        for ib in range(32):
            for ic in range(32):
                assert _sdr3(ia, ib, ic) == brute(ia, ib, ic)


def test_pick_distinct_matches_a_bit_length_scan():
    def scan(ia, ib, ic):
        for i in range(ia.bit_length()):
            if not ia >> i & 1:
                continue
            for j in range(ib.bit_length()):
                if j == i or not ib >> j & 1:
                    continue
                for k in range(ic.bit_length()):
                    if k not in (i, j) and ic >> k & 1:
                        return (i + 1, j + 1, k + 1)
        return None

    checked = 0
    for ia in range(32):
        for ib in range(32):
            for ic in range(32):
                if _sdr3(ia, ib, ic):
                    assert _pick_distinct(ia, ib, ic) == scan(ia, ib, ic)
                    checked += 1
    assert checked > 10_000


def test_crossing_witness_holds_in():
    # layer 1 holds the matching 01|23, layer 2 holds 02|13, layer 3 holds 03|12
    memb = [0] * 6
    memb[pair_rank(0, 1)] = 0b001
    memb[pair_rank(2, 3)] = 0b001
    memb[pair_rank(0, 2)] = 0b010
    memb[pair_rank(1, 3)] = 0b010
    memb[pair_rank(0, 3)] = 0b100
    memb[pair_rank(1, 2)] = 0b100
    g = PMultigraph(4, 4, tuple(memb))
    w = has_three_crossing_pairs(g)
    assert w is not None
    assert w.holds_in(g)
    assert w.quad == (0, 1, 2, 3)
    assert len(set(w.layers)) == 3
    # removing any one pair destroys every crossing
    for r in range(6):
        if not memb[r]:
            continue
        weaker = list(memb)
        weaker[r] = 0
        assert has_three_crossing_pairs(PMultigraph(4, 4, tuple(weaker))) is None
    assert not CrossingWitness((0, 1, 2, 3), (1, 1, 2)).holds_in(g)


def test_crossing_detection_needs_three_distinct_layers():
    # all three matchings in the same single layer: no crossing
    g = PMultigraph(4, 4, (0b1,) * 6)
    assert has_three_crossing_pairs(g) is None
    assert has_three_crossing_pairs(PMultigraph.complete(4, 4)) is not None
    assert has_three_crossing_pairs(PMultigraph.complete(5, 3)) is None
    assert has_three_crossing_pairs(PMultigraph.complete(2, 6)) is None


def test_crossing_invariant_under_relabeling():
    rng = random.Random(55)
    for _ in range(60):
        p = rng.choice((4, 5))
        g = _random_multigraph(p, rng.randrange(4, 8), rng.uniform(0.2, 0.6), rng)
        vperm = list(range(g.n))
        rng.shuffle(vperm)
        lperm = list(range(p))
        rng.shuffle(lperm)
        mapped = _relabel(g, vperm, lperm)
        before = has_three_crossing_pairs(g)
        after = has_three_crossing_pairs(mapped)
        assert (before is None) == (after is None)
        if after is not None:
            assert after.holds_in(mapped)


def test_f4_formula_matches_extremal_construction():
    for n in range(4, 21):
        g = extremal_4multigraph(n)
        assert g.edge_total() == f4_formula(n) == 2 * comb(n, 2) + 2 * (n * n // 4)
    assert extremal_4multigraph(8).edge_total() == 88


def test_extremal_construction_is_crossing_free():
    for n in range(4, 11):
        assert has_three_crossing_pairs(extremal_4multigraph(n)) is None


def test_f5_lower_constructions_are_crossing_free_with_stated_totals():
    for n in range(4, 11):
        (g1, t1), (g2, t2) = f5_lower_constructions(n)
        assert g1.edge_total() == t1 == 5 * (n * n // 3)
        assert g2.edge_total() == t2 == f4_formula(n) + n * n // 4
        assert has_three_crossing_pairs(g1) is None
        assert has_three_crossing_pairs(g2) is None


def test_constructions_check_the_vertex_cap_before_building():
    # 10**9 vertices would need about 5 * 10**17 pair masks
    assert extremal_4multigraph(MAX_VERTICES).n == MAX_VERTICES
    assert PMultigraph.complete(4, MAX_VERTICES).n == MAX_VERTICES
    for n in (MAX_VERTICES + 1, 10**9):
        with pytest.raises(ParameterError):
            extremal_4multigraph(n)
        with pytest.raises(ParameterError):
            f5_lower_constructions(n)
        with pytest.raises(ParameterError):
            PMultigraph.complete(4, n)


def test_exact_search_small_values():
    for p, n, want in ((5, 3, 15), (4, 4, 20), (5, 4, 25)):
        value, g = max_edges_no_crossing(p, n)
        assert value == want
        assert g.edge_total() == want
        assert has_three_crossing_pairs(g) is None


def test_exact_search_largest_four_layer_instance():
    # f_4(n) is the maximum section4-arith uses, and 4 f_5(n) <= 7 n^2 - n is
    # the bound corollary-bf takes on trust.  The whole default range is
    # inside the cap, so it must also finish in bounded time.
    start = time.process_time()
    for n in range(4, 10):
        value, g = max_edges_no_crossing(4, n)
        assert value == f4_formula(n) == g.edge_total()
        assert has_three_crossing_pairs(g) is None
    assert value == 112
    for n in range(4, 7):
        value, g = max_edges_no_crossing(5, n)
        assert 4 * value <= _f5_upper_scaled(n)
        assert value == g.edge_total()
        assert has_three_crossing_pairs(g) is None
    # About 0.03 s of CPU time, so the bound catches a search that loses its
    # vertex-order floors or its layer classes.
    assert time.process_time() - start < 10


def test_exact_search_floors_agree_with_the_plain_bound(monkeypatch):
    floored = {pn: max_edges_no_crossing(*pn) for pn in ((4, 4), (5, 4), (4, 5))}
    monkeypatch.setattr(
        multigraph, "_deficit_ceilings",
        lambda p, n, target: [p * comb(n, 2) - target] * comb(n, 2),
    )
    for (p, n), (value, g) in floored.items():
        plain_value, plain_g = max_edges_no_crossing(p, n)
        assert plain_value == value == g.edge_total() == plain_g.edge_total()
        assert has_three_crossing_pairs(g) is None
        assert has_three_crossing_pairs(plain_g) is None


@pytest.mark.parametrize("shortfall", (1, 3))
def test_exact_search_reaches_the_maximum_from_a_weaker_seed(monkeypatch, shortfall):
    # The floors come from the seed total, so a seed below the maximum must
    # still leave every optimum reachable.
    seed_construction = multigraph._seed_construction

    def weaker(p, n):
        g, total = seed_construction(p, n)
        return g, total - shortfall

    monkeypatch.setattr(multigraph, "_seed_construction", weaker)
    for p, n, want in ((4, 4, 20), (5, 4, 25), (4, 5, 32), (5, 5, 40), (4, 6, 48), (5, 6, 60)):
        value, g = max_edges_no_crossing(p, n)
        assert value == want == g.edge_total()
        assert has_three_crossing_pairs(g) is None


def _class_rule_accepts(options, p, seq):
    """Walk the search's (mask, child options) table along a mask sequence."""
    for mask in seq:
        child = dict(options[p - mask.bit_count()]).get(mask)
        if child is None:
            return False
        options = child
    return True


@pytest.mark.parametrize("p, length", ((3, 4), (4, 3), (5, 2)))
def test_layer_class_rule_accepts_one_image_per_orbit(p, length):
    # Exactly one layer-permuted image of every mask sequence is accepted:
    # at least one, or some multigraphs would be missed, and at most one, or
    # the symmetry is only partly broken.
    options = multigraph._class_options(p)
    relabel = [
        [sum(1 << perm[l] for l in range(p) if m >> l & 1) for m in range(1 << p)]
        for perm in permutations(range(p))
    ]
    seen = set()
    for seq in product(range(1 << p), repeat=length):
        if seq in seen:
            continue
        orbit = {tuple(image[m] for m in seq) for image in relabel}
        seen |= orbit
        accepted = [s for s in orbit if _class_rule_accepts(options, p, s)]
        assert len(accepted) == 1, (seq, accepted)
    assert len(seen) == (1 << p) ** length


def test_sdr_table_matches_sdr3():
    sdr = multigraph._sdr_table()
    for a in range(32):
        for b in range(32):
            row = sdr[a][b]
            for c in range(32):
                assert row[c] == _sdr3(a, b, c)
    assert len({id(row) for rows in sdr for row in rows}) == 119


@pytest.mark.parametrize("p, n, nodes, want", ((4, 5, 446, 32), (5, 5, 799, 40)))
def test_exact_search_node_counts_at_the_budget_boundary(p, n, nodes, want):
    # The seed is optimal, so the search expands the same nodes in any order.
    with pytest.raises(CapabilityError) as info:
        max_edges_no_crossing(p, n, node_budget=nodes - 1)
    assert info.value.best_found == multigraph._seed_construction(p, n)[1]
    assert max_edges_no_crossing(p, n, node_budget=nodes)[0] == want


def test_exact_search_long_run_five_layer_maxima():
    # f_5(7) and f_5(8): the seed construction is optimal, and about 1.7 s.
    for n, want in ((7, 80), (8, 105)):
        value, g = max_edges_no_crossing(5, n, long_run=True)
        assert value == want == g.edge_total()
        assert g == multigraph._seed_construction(5, n)[0]
        assert 4 * value <= _f5_upper_scaled(n)


def test_exact_search_validation_and_gates():
    with pytest.raises(ParameterError):
        max_edges_no_crossing(3, 4)
    for n in (3, 4):
        with pytest.raises(ParameterError):
            max_edges_no_crossing(4, n, node_budget=0)
    with pytest.raises(ParameterError):
        max_edges_no_crossing(6, 4)
    with pytest.raises(ParameterError):
        max_edges_no_crossing(4, 2)
    with pytest.raises(ParameterError):
        max_edges_no_crossing(4, 10)
    with pytest.raises(ParameterError):
        max_edges_no_crossing(5, 9)
    assert max_edges_no_crossing(4, 7)[0] == 66
    assert max_edges_no_crossing(5, 6)[0] == 60
    with pytest.raises(CapabilityError) as info:
        max_edges_no_crossing(5, 7)
    assert str(info.value) == "the (5, 7) search is gated behind long_run"
    assert info.value.best_found == 80 == max(t for _, t in f5_lower_constructions(7))
    with pytest.raises(CapabilityError) as info:
        max_edges_no_crossing(4, 5, node_budget=50)
    assert info.value.best_found is not None
    assert info.value.best_found <= 32


def test_lemma_4vertex_passes_with_exact_accounting():
    cert = verify_lemma_4vertex()
    assert cert.passed()
    assert cert.space == 32 ** 6 == cert.visited
    payload = cert.witnesses[0]
    assert payload["crossing_free_states_at_threshold"] == 189336
    assert payload["min_sum_instances"] > 0
    assert payload["full_pair_instances"] > 0


def test_lemma_4vertex_tight_bound_fails_with_live_witness(monkeypatch):
    monkeypatch.setattr(multigraph, "LEMMA_4VERTEX_SUM_BOUND", 4)
    with pytest.raises(VerificationError) as info:
        verify_lemma_4vertex(seed=4)
    cert = info.value.certificate
    assert cert.verdict == "fail"
    assert (cert.claim, cert.space, cert.visited, cert.seed) == (
        "lemma-4vertex", 1073741824, 1065086046, 4,
    )
    assert str(info.value) == "min matching sum exceeds bound"
    w = cert.witnesses[0]
    g = PMultigraph.from_json_dict(w["multigraph"])
    assert g.edge_total() == w["edge_total"] >= 23
    assert has_three_crossing_pairs(g) is None
    sums = sorted(
        g.multiplicity(a, b) + g.multiplicity(c, d)
        for (a, b), (c, d) in ((((0, 1)), ((2, 3))), (((0, 2)), ((1, 3))), (((0, 3)), ((1, 2))))
    )
    assert sums == w["matching_sums"]
    assert sums[0] > 4  # genuinely violates the tightened bound


def test_lemma_4vertex_loose_bound_still_passes(monkeypatch):
    monkeypatch.setattr(multigraph, "LEMMA_4VERTEX_SUM_BOUND", 6)
    cert = verify_lemma_4vertex()
    assert cert.passed()
    assert cert.witnesses[0]["min_sum_instances"] > 0


def _lemma_4vertex_by_plain_scan(seed):
    """The verifier as a combo-by-combo scan over (ia, ib, ic), for comparison."""
    p = 5
    full = (1 << p) - 1
    min_sum, max_sum, full_pair = (
        multigraph.LEMMA_4VERTEX_MIN_SUM,
        multigraph.LEMMA_4VERTEX_SUM_BOUND,
        multigraph.LEMMA_4VERTEX_FULL_PAIR,
    )
    space = (1 << (2 * p)) ** 3
    run = ClaimRun("lemma-4vertex", space, seed)
    cutoff = 2 * 3 * p - min(min_sum, full_pair)
    combos = multigraph._combo_table(p)
    sdr = multigraph._sdr_table()
    ncombos = len(combos)
    accounted = space - sum(comb(6 * p, k) for k in range(cutoff + 1))
    scanned = n_cross = n_free = n_min_sum = n_full_pair = 0

    def fail(ca, cb, cc, reason, e):
        witness = {
            "reason": reason,
            "edge_total": e,
            "matching_sums": sorted(2 * p - combo[0] for combo in (ca, cb, cc)),
            "multigraph": multigraph._core_multigraph(ca, cb, cc).to_json_dict(),
        }
        run.fail(accounted + scanned, witness, reason)

    for ia in range(ncombos):
        da = combos[ia][0]
        if 3 * da > cutoff:
            break
        for ib in range(ia, ncombos):
            db = combos[ib][0]
            if da + 2 * db > cutoff:
                break
            for ic in range(ib, ncombos):
                dc = combos[ic][0]
                d = da + db + dc
                if d > cutoff:
                    break
                if ia == ib == ic:
                    mult = 1
                elif ia == ib or ib == ic:
                    mult = 3
                else:
                    mult = 6
                scanned += mult
                ca, cb, cc = combos[ia], combos[ib], combos[ic]
                if sdr[ca[3]][cb[3]][cc[3]]:
                    n_cross += mult
                    continue
                n_free += mult
                e = 6 * p - d
                if e >= min_sum:
                    n_min_sum += mult
                    if 2 * p - dc > max_sum:
                        fail(ca, cb, cc, "min matching sum exceeds bound", e)
                if e >= full_pair:
                    n_full_pair += mult
                    if not any(combo[1] == full or combo[2] == full for combo in (ca, cb, cc)):
                        fail(ca, cb, cc, "no pair with full multiplicity", e)

    return run.passed(accounted + scanned, [{
        "crossing_states_at_threshold": n_cross,
        "crossing_free_states_at_threshold": n_free,
        "min_sum_instances": n_min_sum,
        "full_pair_instances": n_full_pair,
    }])


def _outcome(verifier):
    """(certificate without elapsed_ms, failure message or None)."""
    try:
        cert, msg = verifier(seed=6), None
    except VerificationError as exc:
        cert, msg = exc.certificate, str(exc)
    d = cert.to_json_dict()
    del d["elapsed_ms"]
    return d, msg


@pytest.mark.parametrize(
    "constant, value, message",
    [
        (None, None, None),
        ("LEMMA_4VERTEX_SUM_BOUND", 6, None),
        ("LEMMA_4VERTEX_SUM_BOUND", 4, "min matching sum exceeds bound"),
        ("LEMMA_4VERTEX_FULL_PAIR", 21, "no pair with full multiplicity"),
    ],
)
def test_lemma_4vertex_range_sums_agree_with_a_plain_scan(monkeypatch, constant, value, message):
    if constant is not None:
        monkeypatch.setattr(multigraph, constant, value)
    got = _outcome(verify_lemma_4vertex)
    assert got == _outcome(_lemma_4vertex_by_plain_scan)
    assert got[1] == message


def test_lemma_4vertex_one_edge_short_full_pair_fails(monkeypatch):
    monkeypatch.setattr(multigraph, "LEMMA_4VERTEX_FULL_PAIR", 21)
    with pytest.raises(VerificationError) as info:
        verify_lemma_4vertex(seed=4)
    cert = info.value.certificate
    assert (cert.claim, cert.verdict, cert.space, cert.visited, cert.seed) == (
        "lemma-4vertex", "fail", 1073741824, 1061040606, 4,
    )
    assert str(info.value) == "no pair with full multiplicity"
    w = cert.witnesses[0]
    g = PMultigraph.from_json_dict(w["multigraph"])
    assert g.edge_total() == w["edge_total"] >= 21
    assert has_three_crossing_pairs(g) is None
    assert all(g.multiplicity(a, b) < 5 for a, b in combinations(range(4), 2))


def test_corollary_inequalities_hold_and_flip_fails(monkeypatch):
    cert = verify_corollary_inequalities()
    assert cert.passed()
    assert cert.space == cert.visited == len(range(9, 10002, 2))
    # dropping the -m of the 5-layer bound breaks the inequality where the
    # paper's bound is tight: at n = 9 both sides become 280 = 4 b(9)
    monkeypatch.setattr(multigraph, "_f5_upper_scaled", lambda m: 7 * m * m)
    with pytest.raises(VerificationError) as info:
        verify_corollary_inequalities(seed=4)
    failed = info.value.certificate
    assert (failed.claim, failed.verdict, failed.space, failed.visited, failed.seed) == (
        "corollary-bf", "fail", 4997, 1, 4,
    )
    assert str(info.value) == "deletion inequality violated"
    assert failed.witnesses[0]["n"] == 9
    assert failed.witnesses[0]["scaled_lhs_a"] == failed.witnesses[0]["scaled_rhs"] == 280


def test_section4_arithmetic_holds_and_mutant_fails(monkeypatch):
    cert = verify_section4_arithmetic()
    assert cert.passed()
    assert cert.visited == cert.space
    monkeypatch.setattr(multigraph, "f4_formula", lambda n: 2 * comb(n, 2))  # crossing term lost
    with pytest.raises(VerificationError) as info:
        verify_section4_arithmetic(seed=4)
    failed = info.value.certificate
    assert (failed.claim, failed.verdict, failed.space, failed.visited, failed.seed) == (
        "section4-arith", "fail", 9996, 1, 4,
    )
    assert str(info.value) == "odd split identity violated"
    assert failed.witnesses[0]["n"] == 9


def test_corollary_n9_numbers_are_the_stated_ones():
    # the n = 9 instance of the odd-n inequality, scaled by 4 to stay integral:
    # 4 b(4) + (7 m^2 - m at m = 4) + 4 (7 * 4 + 10) against 4 b(9)
    lhs4 = 4 * b_formula(4) + (7 * 16 - 4) + 4 * (7 * 4 + 10)
    assert lhs4 == 4 * 4 + 4 * 27 + 4 * 38 == 4 * 69
    assert lhs4 < 4 * b_formula(9) == 4 * 70
