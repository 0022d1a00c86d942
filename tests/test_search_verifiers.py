"""Exhaustive verifiers: boundary scans, classification, and certificates."""

import inspect
import json
import random
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from fanoturan import certificate, search
from fanoturan.canonical import canonical_form
from fanoturan.certificate import (
    Certificate,
    CheckpointWriter,
    ClaimRun,
    read_checkpoint,
)
from fanoturan.errors import (
    CapabilityError,
    FormatError,
    ParameterError,
    VerificationError,
)
from fanoturan.fano import (
    CoverTable,
    contains_fano_cover,
    contains_fano_embedding,
    cover_table,
    find_clique,
)
from fanoturan.hypergraph import (
    Hypergraph,
    b_formula,
    complement,
    construct,
    from_json_dict,
    triple_rank,
)
from fanoturan.search import (
    CLAIM_ORDER,
    CLAIMS,
    LONG_RUN_CLAIMS,
    max_fano_free_edges,
    run_claim,
    verify_ex7,
    verify_ex8,
    verify_fact_2_4,
    verify_fact_tetra,
    verify_lemma_2_3,
    verify_lemma_n7,
    verify_matching_facts,
)

# `verify all --long-run --format json --seed 42` without elapsed_ms
PINNED = Path(__file__).resolve().parent / "data" / "certificates_seed42.json"


# ---------------------------------------------------------------------------
# Enumeration plumbing.
# ---------------------------------------------------------------------------

def _fano_free(scan, n, size):
    """The primal hypergraphs of the complements an engine keeps at one size."""
    return [complement(comp) for comp in scan(n, size).survivors]


def test_dedup_soundness_at_the_seven_vertex_boundary():
    raw = _fano_free(search._raw_survivors, 7, 5)
    canon = _fano_free(search._canonical_survivors, 7, 5)
    assert len(raw) == 56
    raw_classes = {canonical_form(h) for h in raw}
    canon_classes = {canonical_form(h) for h in canon}
    assert raw_classes == canon_classes
    assert len(canon) == len(canon_classes) == 2
    for h in raw:
        assert h.edge_count == 30
        assert not contains_fano_embedding(h)


@pytest.mark.parametrize("n,size", [(7, 0), (7, 4), (6, 2), (6, 3)])
def test_dedup_soundness_on_a_crowded_level(n, size):
    # n = 7: levels below the boundary, where survivors do not exist; n = 6:
    # no plane images, so every complement survives and the engines must agree
    # on classes (compared through the sparse complements, which are cheaper)
    raw = _fano_free(search._raw_survivors, n, size)
    canon = _fano_free(search._canonical_survivors, n, size)
    if n == 7:
        assert raw == [] and canon == []
        return
    assert len(raw) == comb(20, size)
    canon_classes = {canonical_form(complement(h)) for h in canon}
    assert {canonical_form(complement(h)) for h in raw} == canon_classes
    assert len(canon) == len(canon_classes) > 1


def test_complement_duality_spot_check():
    rng = random.Random(71)
    full = (1 << comb(7, 3)) - 1
    for _ in range(1000):
        ranks = tuple(sorted(rng.sample(range(35), 5)))
        bits = 0
        for r in ranks:
            bits |= 1 << r
        primal_direct = Hypergraph(7, full ^ bits)
        primal_rebuilt = complement(Hypergraph(7, bits))
        assert primal_direct == primal_rebuilt
        assert contains_fano_cover(primal_direct) == contains_fano_embedding(
            primal_rebuilt
        )


def test_max_fano_free_edges_small_values():
    assert max_fano_free_edges(4)[0] == 4
    assert max_fano_free_edges(5)[0] == 10
    assert max_fano_free_edges(6)[0] == 20
    value, classes = max_fano_free_edges(7)
    assert value == 30
    assert len(classes) == 2
    with pytest.raises(ParameterError):
        max_fano_free_edges(9)
    with pytest.raises(CapabilityError) as info:
        max_fano_free_edges(8)
    assert info.value.best_found == 48


def test_boundary_supersets_stay_covered():
    # every one-edge extension of the bipartite extremum holds a plane copy,
    # and so does every random further superset
    rng = random.Random(88)
    b7 = construct("balanced_bipartite", 7)
    missing = [t for t in combinations(range(7), 3) if not b7.has_edge(*t)]
    assert len(missing) == 5
    for t in missing:
        base = Hypergraph(7, b7.bits | (1 << triple_rank(*t)))
        assert contains_fano_embedding(base)
        for _ in range(20):
            extra = rng.sample([m for m in missing if m != t], rng.randrange(0, 5))
            bits = base.bits
            for e in extra:
                bits |= 1 << triple_rank(*e)
            assert contains_fano_embedding(Hypergraph(7, bits))


def _plain_walk(masks, full, size):
    """The oracle: every size-subset in combinations order, kept when it hits every image."""
    kept = []
    walked = 0
    for ranks in combinations(range(len(masks)), size):
        walked += 1
        cov = 0
        for r in ranks:
            cov |= masks[r]
        if cov == full:
            kept.append(ranks)
    return kept, walked


def _scan_inputs():
    for n, sizes in ((6, range(4)), (7, range(6))):
        for size in sizes:
            yield pytest.param("cover", n, size, id=f"cover-n{n}-size{size}")
    for m in (4, 5, 6, 7):
        yield pytest.param("quads", m, comb(m, 3) - b_formula(m), id=f"quads-m{m}")


@pytest.mark.parametrize("kind,n,size", _scan_inputs())
def test_hitting_sets_agree_with_a_plain_walk(kind, n, size):
    # n = 6 has no plane images, so every set survives; the quad masks are
    # fact-tetra's, at its sizes C(m, 3) - b(m)
    if kind == "cover":
        table = cover_table(n)
        masks, full = table.masks, table.full
    else:
        masks, full = search._quad_masks(n)
    survivors, accounted = search._hitting_sets(masks, full, size)
    kept, walked = _plain_walk(masks, full, size)
    assert survivors == kept
    assert accounted == walked == comb(len(masks), size)
    if kind == "cover" and n == 7:
        assert len(survivors) == (56 if size == 5 else 0)


def test_hitting_sets_accounting_catches_a_dropped_dead_charge(monkeypatch):
    # at the root of the n = 7, size-5 scan, the lowest image has 7 options,
    # so its dead charge is C(35 - 7, 5); nothing else asks for C(28, 5)
    dropped = []

    def comb_without_the_root_charge(a, b):
        if (a, b) == (28, 5):
            dropped.append((a, b))
            return 0
        return comb(a, b)

    monkeypatch.setattr(search, "comb", comb_without_the_root_charge)
    table = cover_table(7)
    with pytest.raises(AssertionError, match="accounting mismatch"):
        search._hitting_sets(table.masks, table.full, 5)
    assert dropped == [(28, 5)]


def test_lex_combination_follows_combinations_order():
    for T in range(9):
        for size in range(T + 1):
            walk = list(combinations(range(T), size))
            assert [search._lex_combination(T, size, i) for i in range(len(walk))] == walk
    walk = combinations(range(35), 5)
    for i, ranks in enumerate(walk):
        if i % 9973 == 0:
            assert search._lex_combination(35, 5, i) == ranks
    assert search._lex_combination(35, 5, comb(35, 5) - 1) == (30, 31, 32, 33, 34)


def test_raw_scan_cap_raises_before_any_work(monkeypatch):
    built = []
    monkeypatch.setattr(search, "cover_table", lambda n: built.append(n))
    assert comb(56, 5) == 3819816 > search.RAW_STATE_CAP
    with pytest.raises(CapabilityError) as info:
        search._raw_survivors(8, 5)
    assert str(info.value) == (
        "raw scan of 3819816 states exceeds the cap 2000000; use canonical dedup"
    )
    assert built == []


def test_dropping_one_image_leaves_the_seven_vertex_levels_unchanged():
    # each plane image on 7 points is hit by every 5-set that hits the other
    # 29, and no 4-set hits 29 of them: a table missing one image is an
    # equivalent mutant for ex-7 and lemma-n7
    table = cover_table(7)
    boundary = search._hitting_sets(table.masks, table.full, 5)[0]
    for image in range(30):
        keep = table.full & ~(1 << image)
        masks = [m & keep for m in table.masks]
        assert search._hitting_sets(masks, keep, 4)[0] == []
        assert search._hitting_sets(masks, keep, 5)[0] == boundary


# ---------------------------------------------------------------------------
# Claim verifiers.
# ---------------------------------------------------------------------------

def test_ex7_certificate():
    cert = verify_ex7()
    assert cert.passed()
    assert cert.space == sum(comb(35, c) for c in range(6)) == 384168
    assert cert.visited == cert.space
    assert cert.witnesses[0] == {"max_edges": 30, "labeled_extremals": 56}


def test_lemma_n7_certificate_and_classes():
    cert = verify_lemma_n7()
    assert cert.passed()
    assert cert.space == comb(35, 5) == 324632
    assert cert.visited == cert.space
    counts = sorted(w["labeled_count"] for w in cert.witnesses)
    assert counts == [21, 35]
    flags = {w["balanced_bipartite"] for w in cert.witnesses}
    assert flags == {True, False}
    for w in cert.witnesses:
        h = from_json_dict(w["hypergraph"])
        assert h.edge_count == 30
        assert not contains_fano_embedding(h)
        is_b7 = canonical_form(h) == canonical_form(construct("balanced_bipartite", 7))
        assert is_b7 == w["balanced_bipartite"]
        if not is_b7:
            assert canonical_form(h) == canonical_form(construct("j7", 7))


def test_lemma_n7_rejects_a_wrong_class_list(monkeypatch):
    fake = canonical_form(construct("fano", 7))
    monkeypatch.setattr(search, "LEMMA_N7_FAMILIES", search.LEMMA_N7_FAMILIES + ("fano",))
    with pytest.raises(VerificationError) as info:
        verify_lemma_n7(seed=4)
    cert = info.value.certificate
    assert (cert.claim, cert.verdict, cert.space, cert.visited, cert.seed) == (
        "lemma-n7", "fail", 324632, 324632, 4,
    )
    assert str(info.value) == "survivor classes differ from the expected ones"
    w = cert.witnesses[0]
    assert fake.ranks() in w["missing_classes"]
    assert w["unexpected_classes"] == []


def test_ex7_checks_the_lemma_n7_class_list(monkeypatch):
    # ex-7 checks the constructions lemma-n7 names, not a list of its own
    monkeypatch.setattr(search, "LEMMA_N7_FAMILIES", search.LEMMA_N7_FAMILIES + ("fano",))
    with pytest.raises(VerificationError) as info:
        verify_ex7(seed=4)
    cert = info.value.certificate
    assert (cert.claim, cert.verdict, cert.visited) == ("ex-7", "fail", 384168)
    assert str(info.value) == "extremal construction has wrong size"
    assert cert.witnesses[0] == {"family": "fano", "edges": 7}


def _unhittable_image(table):
    # image 0 stays in the table but no triple hits it: nothing is Fano-free
    return CoverTable(tuple(m & ~1 for m in table.masks), table.full, table.most)


def _triple_hitting_every_image(table):
    # triple 0 is credited with every image: one missing triple suffices
    return CoverTable((table.full,) + table.masks[1:], table.full, table.full.bit_count())


@pytest.mark.parametrize("mutant,ex7_failure,n7_failure", [
    (_unhittable_image, ("wrong survivor count at the boundary", 384168),
     "unexpected survivor count"),
    (_triple_hitting_every_image, ("Fano-free hypergraph above 30 edges", 1 + 35),
     "missing triples share exactly one vertex"),
])
def test_seven_vertex_scans_reject_a_wrong_cover_table(
    monkeypatch, mutant, ex7_failure, n7_failure
):
    table = mutant(cover_table(7))
    monkeypatch.setattr(search, "cover_table", lambda n: table)
    with pytest.raises(VerificationError) as info:
        verify_ex7(seed=4)
    cert = info.value.certificate
    assert (cert.claim, cert.verdict, cert.space) == ("ex-7", "fail", 384168)
    assert (str(info.value), cert.visited) == ex7_failure
    with pytest.raises(VerificationError) as info:
        verify_lemma_n7(seed=4)
    cert = info.value.certificate
    assert (cert.claim, cert.verdict, cert.space, cert.visited) == (
        "lemma-n7", "fail", 324632, 324632,
    )
    assert str(info.value) == n7_failure


def test_lemma_2_3_certificate():
    cert = verify_lemma_2_3()
    assert cert.passed()
    assert cert.space == 211 * (1 << 15) == 6914048
    assert cert.visited == cert.space
    payload = cert.witnesses[0]
    assert payload["fano_free_states"] == 260
    assert payload["links_at_or_above_degree"] == 1941


def test_lemma_2_3_mutant_finds_a_sparse_counterexample(monkeypatch):
    monkeypatch.setattr(search, "LEMMA_2_3_MIN_LINK_DEGREE", 10)
    with pytest.raises(VerificationError) as info:
        verify_lemma_2_3(seed=4)
    cert = info.value.certificate
    assert (cert.claim, cert.verdict, cert.space, cert.visited, cert.seed) == (
        "lemma-2-3", "fail", 6914048, 5870968, 4,
    )
    assert str(info.value) == "Fano-free dense state with non-bipartite base"
    w = cert.witnesses[0]
    h = from_json_dict(w["hypergraph"])
    assert h.n == 7
    assert not contains_fano_embedding(h)  # genuinely plane-free
    assert w["link_degree"] == 10
    assert sum(h.has_edge(u, w, 6) for u, w in combinations(range(6), 2)) == 10


def _bits(bitset):
    """A link bitset as a string whose m-th character is bit m."""
    return format(bitset, f"0{1 << 15}b")[::-1]


def test_image_link_sets_match_the_cover_table():
    table = cover_table(7)
    pair_sets = search._pair_sets()
    for i, ps in enumerate(pair_sets):
        assert _bits(ps) == "".join(str(m >> i & 1) for m in range(1 << 15)), i
    ge = search._size_sets(pair_sets)
    assert len(ge) == 16
    for k in range(16):
        assert ge[k].bit_count() == sum(comb(15, j) for j in range(k, 16))
    images = [_bits(s) for s in search._image_link_sets(table, pair_sets)]
    assert len(images) == 30
    for m in range(1 << 15):
        outside = [search._APEX_RANKS[i] for i in range(15) if not m >> i & 1]
        got = sum(1 << j for j, bits in enumerate(images) if bits[m] == "1")
        assert got == table.cover(outside), m


def _fact_2_4_scan(table):
    """fact-2-4's link maximum as a plain scan: the best size and its link count."""
    best, count = -1, 0
    for m in range(1 << 15):
        outside = [search._APEX_RANKS[i] for i in range(15) if not m >> i & 1]
        if table.cover(outside) == table.full:
            sz = m.bit_count()
            if sz > best:
                best, count = sz, 0
            count += sz == best
    return best, count


def test_fact_2_4_fails_when_an_apex_triple_hits_every_image(monkeypatch):
    # every link without pair 0 is then "Fano-free"; dropping one image
    # instead would be a weak mutant: each of the 30 leaves the maximum at 10
    real = cover_table(7)
    apex = search._APEX_RANKS[0]
    masks = real.masks[:apex] + (real.full,) + real.masks[apex + 1:]
    table = CoverTable(masks, real.full, real.full.bit_count())
    best, count = _fact_2_4_scan(table)
    assert (best, count) == (14, 1)
    monkeypatch.setattr(search, "cover_table", lambda n: table)
    with pytest.raises(VerificationError) as info:
        verify_fact_2_4(seed=4)
    cert = info.value.certificate
    assert str(info.value) == "unexpected link maximum"
    assert (cert.claim, cert.verdict, cert.space, cert.visited) == (
        "fact-2-4", "fail", 1 << 15, 1 << 15,
    )
    assert cert.witnesses == [{"max_link": best, "extremals": count}]


def _matching_scan(pms):
    """matching-facts' first 11-edge graph without a matching, as a plain scan:
    the number of graphs visited up to it and its edges."""
    for m in range(1 << 15):
        if m.bit_count() >= 11 and not any(pm & m == pm for pm in pms):
            return m + 1, [list(search._SIX_PAIRS[i]) for i in range(15) if m >> i & 1]
    return None


def test_perfect_matchings_of_k6_are_the_fifteen_matchings():
    pms = search._perfect_matchings6()
    assert len(pms) == 15
    for pm in pms:
        pairs = [search._SIX_PAIRS[i] for i in range(15) if pm >> i & 1]
        assert len(pairs) == 3
        assert sorted(v for pair in pairs for v in pair) == list(range(6))

    index = {pair: i for i, pair in enumerate(search._SIX_PAIRS)}

    def matchings(avail):
        if not avail:
            yield 0
            return
        u = avail[0]
        for w in avail[1:]:
            for m in matchings([v for v in avail if v not in (u, w)]):
                yield m | 1 << index[(u, w)]

    assert set(pms) == set(matchings(list(range(6))))


def test_matching_facts_fail_without_pair_zero_matchings(monkeypatch):
    # fifteen distinct triples of pairs, all through pair 0: every graph
    # without pair 0 then has no "matching"
    pms = [1 | 1 << a | 1 << b for a, b in list(combinations(range(1, 15), 2))[:15]]
    visited, edges = _matching_scan(pms)
    monkeypatch.setattr(search, "_perfect_matchings6", lambda: pms)
    with pytest.raises(VerificationError) as info:
        verify_matching_facts(seed=4)
    cert = info.value.certificate
    assert str(info.value) == "an 11-edge graph without a perfect matching"
    assert (cert.claim, cert.verdict, cert.space, cert.visited) == (
        "matching-facts", "fail", 1 << 15, visited,
    )
    assert cert.witnesses == [{"edges": edges}]


def test_fact_2_4_certificate():
    cert = verify_fact_2_4()
    assert cert.passed()
    assert cert.space == 1 << 15
    assert cert.witnesses[0] == {
        "max_link_edges": 10,
        "extremal_links": 6,
        "upper_bound_with_two_apexes": 46,
        "balanced_count": b_formula(8),
    }


def test_matching_facts_certificate():
    cert = verify_matching_facts()
    assert cert.passed()
    assert cert.space == 1 << 15
    assert cert.witnesses[0] == {
        "perfect_matchings_of_complete": 15,
        "ten_edge_pm_free": 6,
    }


def test_fact_tetra_certificate(monkeypatch):
    cert = verify_fact_tetra()
    assert cert.passed()
    assert cert.witnesses[0]["vertex_counts"] == [4, 5, 6, 7]
    monkeypatch.setattr(search, "FACT_TETRA_VERTEX_COUNTS", (5,))
    single = verify_fact_tetra()
    assert single.passed()
    assert single.witnesses[0]["vertex_counts"] == [5]
    assert single.space == comb(10, 1) + len(range(4, 65))


def test_fact_tetra_fails_below_the_tetrahedron_free_maximum(monkeypatch):
    # T(7, 4, 3) = 12: some 23-edge hypergraph on 7 vertices has no tetrahedron
    # (3,570 labeled ones), while every 24-edge one has
    real_b = search.b_formula
    monkeypatch.setattr(search, "b_formula", lambda n: 23 if n == 7 else real_b(n))
    monkeypatch.setattr(search, "FACT_TETRA_VERTEX_COUNTS", (7,))
    with pytest.raises(VerificationError) as info:
        verify_fact_tetra(seed=4)
    cert = info.value.certificate
    assert (cert.claim, cert.verdict, cert.seed) == ("fact-tetra", "fail", 4)
    assert cert.space == comb(35, 12) + len(range(4, 65))
    assert cert.visited == comb(35, 12)
    assert str(info.value) == "a hypergraph at the balanced count with no tetrahedron"
    w = cert.witnesses[0]
    assert w["n"] == 7 and len(w["complement_ranks"]) == 12
    primal = complement(Hypergraph.from_ranks(7, w["complement_ranks"]))
    assert primal.edge_count == 23
    assert find_clique(primal, 4) is None
    survivors, _ = search._hitting_sets(*search._quad_masks(7), 12)
    assert len(survivors) == 3570 and list(survivors[0]) == w["complement_ranks"]
    assert search._hitting_sets(*search._quad_masks(7), 11)[0] == []


def test_ex8_long_run_with_checkpoints(tmp_path):
    path = str(tmp_path / "scan.ckpt")
    with pytest.raises(CapabilityError):
        verify_ex8()
    cert = verify_ex8(long_run=True, checkpoint_path=path, seed=42)
    assert cert.passed()
    record = json.loads(json.dumps(cert.to_json_dict()))
    del record["elapsed_ms"]
    assert record == json.loads(PINNED.read_text(encoding="utf-8"))[CLAIM_ORDER.index("ex-8")]
    assert cert.space == comb(56, 7) + comb(56, 8) == 1652411475
    assert cert.visited == cert.space
    payload = cert.witnesses[0]
    assert payload["max_edges"] == 48
    assert payload["labeled_extremals"] == 35
    extremal = from_json_dict(payload["extremal"])
    assert canonical_form(extremal) == canonical_form(construct("balanced_bipartite", 8))
    frames = read_checkpoint(path)
    assert frames  # stride plus the unconditional final frame
    accounted = [f[1] for f in frames]
    assert accounted == sorted(accounted)
    assert accounted[-1] == comb(56, 8)
    found = [f[2] for f in frames]
    assert found[-1] == 1


def test_run_claim_dispatch_and_registry(monkeypatch):
    assert len(CLAIM_ORDER) == 10
    assert CLAIM_ORDER == tuple(c.id for c in CLAIMS)
    assert LONG_RUN_CLAIMS == {c.id for c in CLAIMS if c.long_run} == {"ex-8"}
    cert = run_claim("matching-facts", seed=3)
    assert cert.claim == "matching-facts"
    assert cert.seed == 3
    with pytest.raises(ParameterError) as info:
        run_claim("lemma-99")
    assert "ex-7" in str(info.value)
    with pytest.raises(CapabilityError):
        run_claim("ex-8")
    # verifiers are looked up by name when a claim runs, and only the
    # long-run claim is handed long_run and checkpoint_path
    calls = []
    for entry in CLAIMS:
        monkeypatch.setattr(search, entry.verifier, lambda **kw: calls.append(kw) or kw)
    run_claim("lemma-4vertex", seed=2, long_run=True, checkpoint_path="x.ckpt")
    run_claim("ex-8", seed=2, long_run=True, checkpoint_path="x.ckpt")
    assert calls == [{"seed": 2}, {"seed": 2, "long_run": True, "checkpoint_path": "x.ckpt"}]


def test_verifiers_take_only_what_the_claim_table_passes():
    # the paper's fixed numbers are module constants, not keyword options
    for entry in CLAIMS:
        params = inspect.signature(getattr(search, entry.verifier)).parameters
        assert set(params) <= {"seed", "long_run", "checkpoint_path"}, entry.id
        assert all(p.kind is p.KEYWORD_ONLY for p in params.values()), entry.id
    assert list(inspect.signature(CheckpointWriter).parameters) == ["path"]


def test_readme_claim_table_matches_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Registered claims", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    ids = [row.split("|")[1].strip().strip("`") for row in rows]
    assert tuple(ids) == CLAIM_ORDER
    gated = {cid for cid, row in zip(ids, rows) if "--long-run" in row}
    assert gated == LONG_RUN_CLAIMS


# ---------------------------------------------------------------------------
# Certificates and checkpoints.
# ---------------------------------------------------------------------------

def test_certificate_roundtrip_and_validation():
    import fanoturan

    cert = Certificate(claim="demo", verdict="pass", space=10, visited=10, seed=7)
    assert cert.tool_version == fanoturan.__version__
    again = Certificate.from_json_dict(cert.to_json_dict())
    assert again == cert
    assert set(cert.to_json_dict()) == {
        "claim", "verdict", "space", "visited", "witnesses",
        "seed", "elapsed_ms", "tool_version",
    }
    with pytest.raises(ParameterError):
        Certificate(claim="demo", verdict="fail", space=1, visited=1)  # no witness
    with pytest.raises(ParameterError):
        Certificate(claim="demo", verdict="maybe", space=1, visited=1)
    with pytest.raises(ParameterError):
        Certificate(claim="demo", verdict="pass", space=-1, visited=0)
    with pytest.raises(FormatError):
        Certificate.from_json_dict({"claim": "demo"})


def test_claim_run_passes_only_with_exact_accounting():
    assert ClaimRun("demo", 10, 0).passed(10, []).passed()
    with pytest.raises(AssertionError):
        ClaimRun("demo", 10, 0).passed(9, [])


def test_checkpoint_roundtrip_and_corruption(tmp_path, monkeypatch):
    path = str(tmp_path / "frames.ckpt")
    monkeypatch.setattr(certificate, "CHECKPOINT_EVERY", 10)
    with CheckpointWriter(path) as writer:
        writer.maybe_write(1, 5, 0)   # below stride, skipped
        writer.maybe_write(2, 10, 1)  # hits stride
        writer.maybe_write(3, 14, 1)  # skipped again
        writer.write(4, 25, 2)        # unconditional
    assert read_checkpoint(path) == [(2, 10, 1), (4, 25, 2)]
    with open(path, "ab") as fh:
        fh.write(b"\x01")  # half a frame
    with pytest.raises(FormatError):
        read_checkpoint(path)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"\x07" + b"\x00" * 24)
    with pytest.raises(FormatError):
        read_checkpoint(str(bad))
