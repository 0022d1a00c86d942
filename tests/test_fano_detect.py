"""Plane detection: three independent methods, witnesses, and cliques."""

import json
import random
import time
from itertools import combinations, permutations
from math import comb
from pathlib import Path

import pytest

from fanoturan import search
from fanoturan.canonical import canonical_form
from fanoturan.errors import CapabilityError, ParameterError
from fanoturan.fano import (
    DetectionMethod,
    IMAGE_CAP,
    contains_fano,
    contains_fano_cover,
    contains_fano_crossing,
    contains_fano_embedding,
    contains_fano_pasch,
    cover_table,
    find_clique,
    find_fano_crossing,
    find_fano_edges,
    find_fano_embedding,
    find_fano_pasch,
)
from fanoturan.hypergraph import (
    FANO_LINES,
    Hypergraph,
    _members,
    complement,
    construct,
    random_hypergraph,
    triple_rank,
)


FANO = construct("fano", 7)
FANO_FORM = canonical_form(FANO)

# find_fano_edges(h, m) for every method, on the inputs of _pinned_inputs()
PINNED_WITNESSES = Path(__file__).resolve().parent / "data" / "fano_witnesses_seed1.json"


def _witness_subhypergraph(edges):
    """The 7 witness triples relabeled onto vertices 0..6."""
    used = sorted({v for t in edges for v in t})
    assert len(used) == 7
    index = {v: i for i, v in enumerate(used)}
    return Hypergraph.from_edges(
        7, [tuple(sorted(index[v] for v in t)) for t in edges]
    )


def _assert_valid_witness(h, edges):
    assert len(edges) == 7
    for t in edges:
        assert h.has_edge(*t)
    assert canonical_form(_witness_subhypergraph(edges)) == FANO_FORM


def test_three_methods_agree_on_seeded_random_inputs():
    for n in (7, 8, 9):
        rng = random.Random(500 + n)
        for i in range(250):
            density = 0.3 + 0.6 * (i % 50) / 49
            h = random_hypergraph(n, density, rng)
            a = contains_fano_embedding(h)
            assert a == contains_fano_crossing(h)
            assert a == contains_fano_pasch(h)


def test_cover_method_agrees_with_embedding_on_1000_samples():
    rng = random.Random(77)
    for i in range(1000):
        h = random_hypergraph(8, 0.3 + 0.6 * (i % 100) / 99, rng)
        assert contains_fano_cover(h) == contains_fano_embedding(h)
    assert not contains_fano_cover(construct("complete", 6))  # no images below 7 vertices


def _crossing_by_sorted_quads(h):
    """find_fano_crossing listing every quad of a vertex p as a sorted triple and taking the least."""
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
            quads = [
                sorted((a, b, c))
                for a in _members(tx[p] & above)
                for b in _members(ty[p] & above & tz[a])
                for c in _members(tz[p] & above & tx[b] & ty[a])
            ]
            if not quads:
                continue
            q, r, s = min(quads)
            matchings = (((p, q), (r, s)), ((p, r), (q, s)), ((p, s), (q, r)))
            cov = [[all(thirds[v][u] >> w & 1 for u, w in m) for m in matchings] for v in edge]
            for pi in permutations(range(3)):
                if all(cov[i][pi[i]] for i in range(3)):
                    lines = [(v, u, w) for v, mi in zip(edge, pi) for u, w in matchings[mi]]
                    return (edge, *(tuple(sorted(t)) for t in lines))
    return None


def _pasch_by_pair_prefilter(h):
    """find_fano_pasch with only the nonempty-x-and-y prefilter and tuple membership."""
    if h.n < 7:
        return None
    links = [[] for _ in range(h.n)]  # in edge order, as the detector lists them
    for a, b, c in h.edges():
        links[a].append((b, c))
        links[b].append((a, c))
        links[c].append((a, b))
    thirds = h.thirds()
    for v in range(h.n):
        pairs = links[v]
        for i, (a1, a2) in enumerate(pairs):
            for j in range(i + 1, len(pairs)):
                b1, b2 = pairs[j]
                if b1 in (a1, a2) or b2 in (a1, a2):
                    continue
                outside = ~(1 << a1 | 1 << a2 | 1 << b1 | 1 << b2)
                x = thirds[a1][b1] & thirds[a2][b2] & outside
                y = thirds[a1][b2] & thirds[a2][b1] & outside
                if not (x and y):
                    continue
                for c1, c2 in pairs[j + 1:]:
                    if x >> c1 & 1 and y >> c2 & 1:
                        quads = ((a1, b1, c1), (a1, b2, c2), (a2, b1, c2), (a2, b2, c1))
                    elif y >> c1 & 1 and x >> c2 & 1:
                        quads = ((a2, b2, c2), (a2, b1, c1), (a1, b2, c1), (a1, b1, c2))
                    else:
                        continue
                    lines = ((v, a1, a2), (v, b1, b2), (v, c1, c2), *quads)
                    return tuple(tuple(sorted(t)) for t in lines)
    return None


def _cover_by_complement(h):
    """contains_fano_cover as the cover of all the complement's ranks."""
    table = cover_table(h.n)
    return table.cover(complement(h).ranks()) != table.full


def test_detectors_match_plain_loops_on_seeded_inputs():
    # witnesses and verdicts must not depend on the shared views, the mask
    # tests or the early exits
    rng = random.Random(31)
    inputs = [construct("complete", n) for n in range(1, 8)] + [Hypergraph(n, 0) for n in range(1, 8)]
    inputs += [random_hypergraph(6 + i % 6, i // 6 % 21 / 20, rng) for i in range(2016)]
    found = 0
    for h in inputs:
        want = _embedding_all_orderings(h)
        assert find_fano_embedding(h) == want, h
        assert find_fano_crossing(h) == _crossing_by_sorted_quads(h), h
        assert find_fano_pasch(h) == _pasch_by_pair_prefilter(h), h
        assert contains_fano_cover(h) == _cover_by_complement(h) == (want is not None), h
        assert contains_fano_embedding(h) == contains_fano_crossing(h) == contains_fano_pasch(h) == (want is not None), h
        found += want is not None
    assert 500 < found < len(inputs) - 500  # inputs of both kinds
    assert not contains_fano_cover(construct("complete", 6))


def _cover_images(n):
    """The plane images of the cover table on n vertices, as triple-rank sets."""
    table = cover_table(n)
    return [
        frozenset(r for r, mask in enumerate(table.masks) if mask >> i & 1)
        for i in range(table.full.bit_length())
    ]


def test_cover_table_holds_every_plane_image_once():
    for n in (7, 8, 9, 10):
        images = _cover_images(n)
        assert len(images) == len(set(images)) == 30 * comb(n, 7) == cover_table(n).full.bit_count()
    reference = {
        frozenset(triple_rank(*sorted((s[a], s[b], s[c]))) for a, b, c in FANO_LINES)
        for s in permutations(range(7))
    }
    assert set(_cover_images(7)) == reference
    with pytest.raises(CapabilityError):
        cover_table(IMAGE_CAP + 1)


def test_monotone_under_200_edge_additions():
    rng = random.Random(404)
    steps = 0
    while steps < 200:
        h = random_hypergraph(8, 0.35, rng)
        state = contains_fano_embedding(h)
        missing = [t for t in combinations(range(8), 3) if not h.has_edge(*t)]
        rng.shuffle(missing)
        for t in missing[:20]:
            h = Hypergraph(h.n, h.bits | (1 << triple_rank(*t)))
            now = contains_fano_embedding(h)
            assert now >= state  # never flips back to plane-free
            state = now
            steps += 1


def test_embedding_witness_is_sound():
    rng = random.Random(9)
    found = 0
    while found < 40:
        h = random_hypergraph(8, 0.55, rng)
        edges = find_fano_embedding(h)
        if edges is None:
            continue
        _assert_valid_witness(h, edges)
        found += 1


def _embedding_all_orderings(h):
    """find_fano_embedding without the symmetry cut: each edge as line 012 in
    all six orderings, each link pair of i2 in both orders."""
    if h.n < 7 or h.edge_count < 7:
        return None
    links = [[] for _ in range(h.n)]
    for a, b, c in h.edges():
        links[a].append((b, c))
        links[b].append((a, c))
        links[c].append((a, b))
    thirds = h.thirds()
    for edge in h.edges():
        for i0, i1, i2 in permutations(edge):
            for x, y in links[i2]:
                if x in (i0, i1) or y in (i0, i1):
                    continue
                for i3, i4 in ((x, y), (y, x)):
                    used = 1 << i0 | 1 << i1 | 1 << i2 | 1 << i3 | 1 << i4
                    for i5 in range(h.n):
                        if not (thirds[i0][i4] & thirds[i1][i3] & ~used) >> i5 & 1:
                            continue
                        sixes = thirds[i0][i3] & thirds[i2][i5] & thirds[i1][i4] & ~(used | 1 << i5)
                        if sixes:
                            i6 = (sixes & -sixes).bit_length() - 1
                            img = (i0, i1, i2, i3, i4, i5, i6)
                            lines = [(img[u], img[v], img[w]) for u, v, w in FANO_LINES]
                            return tuple(tuple(sorted(t)) for t in lines)
    return None


def _lemma_n7_primals():
    """The 56 labeled 30-edge Fano-free hypergraphs on 7 vertices."""
    return [complement(comp) for comp in search._raw_survivors(7, 5).survivors]


def _fano_free_named():
    named = [construct("balanced_bipartite", n) for n in range(7, 13)]
    return _lemma_n7_primals() + named + [construct("j7", 7)]


def test_embedding_matches_the_twelve_way_scan():
    # one ordering per edge and per link pair must report the very copy
    # the scan over all twelve orderings finds first
    inputs = _fano_free_named()
    for n in range(7, 13):
        rng = random.Random(900 + n)
        inputs += [random_hypergraph(n, 0.05 + 0.9 * (i % 15) / 14, rng) for i in range(30)]
    found = 0
    for h in inputs:
        want = _embedding_all_orderings(h)
        assert find_fano_embedding(h) == want, h
        found += want is not None
    assert 0 < found < len(inputs) - 63  # random inputs of both kinds


def test_embedding_cpu_budget_on_fano_free_inputs():
    inputs = _fano_free_named()
    assert len(inputs) == 63
    t0 = time.process_time()
    assert not any(contains_fano_embedding(h) for h in inputs)
    assert time.process_time() - t0 < 0.1


def test_crossing_witness_is_sound():
    rng = random.Random(10)
    found = 0
    while found < 40:
        h = random_hypergraph(8, 0.55, rng)
        edges = find_fano_crossing(h)
        if edges is None:
            continue
        _assert_valid_witness(h, edges)
        found += 1


def _crossing_by_quads(h):
    """find_fano_crossing as a plain scan: every quad outside every edge, in lex order."""
    if h.n < 7:
        return None
    has = h.has_edge
    for edge in h.edges():
        others = [v for v in range(h.n) if v not in edge]
        for p, q, r, s in combinations(others, 4):
            matchings = (((p, q), (r, s)), ((p, r), (q, s)), ((p, s), (q, r)))
            cov = [[all(has(v, u, w) for u, w in m) for m in matchings] for v in edge]
            for pi in permutations(range(3)):
                if all(cov[i][pi[i]] for i in range(3)):
                    lines = [(v, u, w) for v, mi in zip(edge, pi) for u, w in matchings[mi]]
                    return (edge, *(tuple(sorted(t)) for t in lines))
    return None


def test_crossing_matches_the_plain_quad_scan():
    # the link-mask scan must report the very copy the plain scan finds first
    found = 0
    for n in (7, 8, 9, 10):
        rng = random.Random(700 + n)
        for i in range(40):
            h = random_hypergraph(n, 0.1 + 0.8 * (i % 20) / 19, rng)
            want = _crossing_by_quads(h)
            assert find_fano_crossing(h) == want, h
            found += want is not None
    assert 40 < found < 140


def test_pasch_witness_is_sound():
    rng = random.Random(11)
    found = 0
    while found < 40:
        h = random_hypergraph(8, 0.55, rng)
        edges = find_fano_pasch(h)
        if edges is None:
            continue
        _assert_valid_witness(h, edges)
        found += 1


def _pasch_by_membership(h):
    """find_fano_pasch as a plain scan: every link matching, both classes by has_edge."""
    if h.n < 7:
        return None
    has = h.has_edge
    links = [[] for _ in range(h.n)]  # in edge order, as the detector lists them
    for a, b, c in h.edges():
        links[a].append((b, c))
        links[b].append((a, c))
        links[c].append((a, b))
    for v in range(h.n):
        for (a1, a2), (b1, b2), (c1, c2) in combinations(links[v], 3):
            if len({a1, a2, b1, b2, c1, c2}) < 6:
                continue
            if has(a1, b1, c1) and has(a1, b2, c2) and has(a2, b1, c2) and has(a2, b2, c1):
                quads = ((a1, b1, c1), (a1, b2, c2), (a2, b1, c2), (a2, b2, c1))
            elif has(a2, b2, c2) and has(a2, b1, c1) and has(a1, b2, c1) and has(a1, b1, c2):
                quads = ((a2, b2, c2), (a2, b1, c1), (a1, b2, c1), (a1, b1, c2))
            else:
                continue
            lines = ((v, a1, a2), (v, b1, b2), (v, c1, c2), *quads)
            return tuple(tuple(sorted(t)) for t in lines)
    return None


def test_pasch_matches_the_membership_scan():
    # the mask prefilter must report the very copy the has_edge scan finds first
    found = total = 0
    for n in range(7, 13):
        rng = random.Random(600 + n)
        for i in range(40):
            h = random_hypergraph(n, 0.05 + 0.9 * (i % 20) / 19, rng)
            want = _pasch_by_membership(h)
            assert find_fano_pasch(h) == want, h
            found += want is not None
            total += 1
    assert 40 < found < total - 40  # random inputs of both kinds


def test_fano_contains_itself_with_witness_equal_to_itself():
    for find in (find_fano_embedding, find_fano_pasch, find_fano_crossing):
        assert set(find(FANO)) == set(FANO.edges())


def test_pasch_hub_works_at_every_plane_vertex():
    # moving any chosen vertex to position 0 still yields a valid witness
    for v in range(7):
        perm = [0] * 7
        perm[v] = 0
        rest = [u for u in range(7) if u != v]
        for i, u in enumerate(rest):
            perm[u] = i + 1
        h = Hypergraph.from_edges(
            7, [tuple(sorted(perm[x] for x in t)) for t in FANO.edges()]
        )
        edges = find_fano_pasch(h)
        assert edges is not None
        for t in edges:
            assert h.has_edge(*t)


def test_named_containment_facts():
    assert contains_fano_embedding(construct("complete", 7))
    assert not contains_fano_embedding(construct("j7", 7))
    for n in range(7, 13):
        b = construct("balanced_bipartite", n)
        assert not contains_fano_embedding(b)
        assert not contains_fano_crossing(b)
        assert not contains_fano_pasch(b)
    assert not contains_fano_embedding(construct("pasch", 6))


def test_small_vertex_counts_are_trivially_plane_free():
    for n in (1, 2, 3, 4, 5, 6):
        h = construct("complete", n)
        assert not contains_fano_embedding(h)
        assert not contains_fano_crossing(h)
        assert not contains_fano_pasch(h)


def test_clique_detection_named_facts():
    assert find_clique(construct("j7", 7), 6) is not None
    assert find_clique(construct("balanced_bipartite", 8), 4) is not None
    assert find_clique(construct("balanced_bipartite", 9), 5) is None
    assert find_clique(construct("complete", 6), 6) is not None
    assert find_clique(construct("complete", 3), 4) is None


def test_clique_witness_is_sound():
    rng = random.Random(15)
    found = 0
    while found < 30:
        h = random_hypergraph(8, 0.7, rng)
        quad = find_clique(h, 4)
        if quad is None:
            continue
        assert len(set(quad)) == 4
        for t in combinations(sorted(quad), 3):
            assert h.has_edge(*t)
        found += 1


def test_clique_size_validation():
    h = construct("complete", 7)
    for k in (2, 3, 7, 8):
        with pytest.raises(ParameterError):
            find_clique(h, k)


def test_dispatch_covers_all_methods():
    for method in DetectionMethod:
        assert contains_fano(FANO, method)
        assert not contains_fano(construct("balanced_bipartite", 7), method)
        _assert_valid_witness(FANO, find_fano_edges(FANO, method))
    assert contains_fano(FANO) == contains_fano(FANO, DetectionMethod.EMBEDDING)
    with pytest.raises(ParameterError):
        contains_fano(FANO, "embedding")  # the value, not the member


def _pinned_inputs():
    rng = random.Random(1)
    inputs = [random_hypergraph(7 + i % 3, 0.3 + 0.6 * (i % 50) / 49, rng) for i in range(60)]
    return inputs + [FANO, construct("complete", 7)]


def test_detector_witnesses_match_the_pinned_copies():
    # which copy each detector reports, and its edge order, are printed by
    # `check --format json`; the pin keeps both fixed
    pinned = json.loads(PINNED_WITNESSES.read_text())
    inputs = _pinned_inputs()
    assert len(pinned) == len(inputs)
    for h, row in zip(inputs, pinned):
        assert set(row) == {m.value for m in DetectionMethod}
        for method in DetectionMethod:
            edges = find_fano_edges(h, method)
            got = None if edges is None else [list(t) for t in edges]
            assert got == row[method.value], (h, method)
