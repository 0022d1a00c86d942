"""Core hypergraph type: ranks, families, recognizers, and file formats."""

import json
import random
from itertools import combinations
from math import comb

import pytest

from fanoturan.errors import CapabilityError, FormatError, ParameterError
from fanoturan.canonical import relabel
from fanoturan.hypergraph import (
    FANO_LINES,
    Hypergraph,
    _bipartite,
    b_formula,
    complement,
    construct,
    format_text,
    from_json_dict,
    pair_rank,
    parse_text,
    random_hypergraph,
    recognize_balanced_bipartite,
    to_json_dict,
    triple_rank,
)


def test_triple_rank_is_colex_bijection():
    colex = [
        (a, b, c) for c in range(2, 10) for b in range(1, c) for a in range(b)
    ]
    assert [triple_rank(*t) for t in colex] == list(range(comb(10, 3)))
    assert sorted(triple_rank(*t) for t in combinations(range(10), 3)) == list(
        range(comb(10, 3))
    )


def test_pair_rank_is_colex_bijection():
    colex = [(a, b) for b in range(1, 12) for a in range(b)]
    assert [pair_rank(*t) for t in colex] == list(range(comb(12, 2)))


def test_b_formula_matches_construction_everywhere():
    for n in range(2, 65):
        assert b_formula(n) == construct("balanced_bipartite", n).edge_count


def test_b_formula_parity_closed_forms_agree():
    for n in range(2, 65):
        if n % 2 == 0:
            split = (n - 2) * n * n // 8
        else:
            split = (n - 2) * (n * n - 1) // 8
        assert b_formula(n) == split == (n - 2) * (n * n // 4) // 2


def test_construct_named_values():
    assert construct("complete", 7).edge_count == 35
    assert construct("fano", 7).edge_count == 7
    assert construct("j7", 7).edge_count == 30
    assert construct("pasch", 6).edge_count == 4
    assert construct("balanced_bipartite", 7).edge_count == 30


def test_construct_validation():
    with pytest.raises(ParameterError):
        construct("fano", 8)
    with pytest.raises(ParameterError):
        construct("j7", 6)
    with pytest.raises(ParameterError):
        construct("pasch", 7)
    with pytest.raises(ParameterError):
        construct("nosuch", 7)
    with pytest.raises(CapabilityError):
        construct("complete", 65)


def test_fano_lines_are_a_projective_plane():
    # 7 lines, every point on 3 of them, any two lines meet in one point.
    assert len(FANO_LINES) == 7
    for v in range(7):
        assert sum(v in line for line in FANO_LINES) == 3
    for la, lb in combinations(FANO_LINES, 2):
        assert len(set(la) & set(lb)) == 1


def test_j7_misses_exactly_the_pair_triples():
    h = construct("j7", 7)
    missing = [t for t in combinations(range(7), 3) if t not in set(h.edges())]
    assert missing == [(0, 1, c) for c in range(2, 7)]


def test_hypergraph_edge_roundtrip_and_membership():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(4, 11)
        h = random_hypergraph(n, rng.random(), rng)
        edges = h.edges()
        ranks = [triple_rank(*t) for t in edges]
        assert ranks == sorted(ranks)
        assert Hypergraph.from_edges(n, edges) == h
        assert Hypergraph.from_ranks(h.n, h.ranks()) == h
        for t in edges:
            assert h.has_edge(*t)


def test_has_edge_rejects_what_is_not_a_triple_of_vertices():
    # a repeated vertex read rank 0, a negative one shifted by a negative
    # count, and one at n or above read a bit past the edge set
    h = Hypergraph.from_edges(5, [(0, 1, 2)])
    assert h.has_edge(2, 0, 1) and not h.has_edge(1, 2, 3)
    for t in ((0, 0, 1), (-1, 0, 1), (0, 1, 5), (0, 1, 7)):
        with pytest.raises(ParameterError):
            h.has_edge(*t)


def _views_by_combinations(h):
    """edges(), thirds() and links() rebuilt from itertools.combinations."""
    n = h.n
    edges = [t for t in combinations(range(n), 3) if h.bits >> triple_rank(*t) & 1]
    edges.sort(key=lambda t: triple_rank(*t))
    thirds = [[0] * n for _ in range(n)]
    links = [[] for _ in range(n)]
    for t in edges:
        for v in t:
            x, y = (u for u in t if u != v)
            thirds[x][y] |= 1 << v
            thirds[y][x] |= 1 << v
            links[v].append((x, y))
    return (
        tuple(edges),
        tuple(tuple(row) for row in thirds),
        tuple(tuple(pairs) for pairs in links),
    )


def test_shared_views_match_a_combinations_build():
    rng = random.Random(23)
    for i in range(200):
        n = 3 + i % 10
        h = random_hypergraph(n, rng.random(), rng)
        views = (h.edges(), h.thirds(), h.links())
        assert views == _views_by_combinations(h), h
        # immutable all the way down, so no caller can change a cached view
        assert type(views[0]) is tuple and all(type(t) is tuple for t in views[0])
        for view in views[1:]:
            assert type(view) is tuple and all(type(row) is tuple for row in view)
        assert all(type(p) is tuple for row in views[2] for p in row)
        assert (h.edges(), h.thirds(), h.links()) == views  # a cache hit


def test_equal_bits_on_different_vertex_counts_get_their_own_views():
    bits = Hypergraph.from_edges(7, [(0, 1, 2), (2, 3, 6)]).bits
    small, large = Hypergraph(7, bits), Hypergraph(8, bits)
    for h in (small, large, small, large):
        assert (h.edges(), h.thirds(), h.links()) == _views_by_combinations(h)
        assert len(h.thirds()) == len(h.links()) == h.n


def test_from_edges_sorts_each_triple_and_keeps_its_error_text():
    rng = random.Random(29)
    h = random_hypergraph(9, 0.5, rng)
    shuffled = [rng.sample(t, 3) for t in h.edges()]
    assert Hypergraph.from_edges(9, shuffled) == h
    for bad in ([2, 1, 1], (0, 1, 9), [3, -1, 2]):
        with pytest.raises(ParameterError) as info:
            Hypergraph.from_edges(9, [bad])
        assert str(info.value) == f"edge {tuple(bad)} is not a triple of distinct vertices below 9"


@pytest.mark.parametrize("bad", [(0, 1), (1.0, 2, 3), ("a", "b", "c"), (0, 1, 2, 3), 5])
def test_from_edges_rejects_an_edge_that_is_not_three_integers(bad):
    with pytest.raises(ParameterError) as info:
        Hypergraph.from_edges(7, [(0, 1, 2), bad])
    assert str(info.value) == f"edge {bad!r} is not three integers"


@pytest.mark.parametrize("n", [True, 7.0, "7", 0])
def test_a_vertex_count_that_is_not_a_positive_int_is_rejected(n):
    with pytest.raises(ParameterError):
        Hypergraph(n, 0)


def test_complement_is_an_involution():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(3, 12)
        h = random_hypergraph(n, rng.random(), rng)
        assert complement(complement(h)) == h
        assert h.edge_count + complement(h).edge_count == comb(n, 3)


def test_recognize_balanced_bipartite_on_the_family():
    for n in range(2, 17):
        h = construct("balanced_bipartite", n)
        parts = recognize_balanced_bipartite(h)
        assert parts is not None
        x, y = parts
        assert abs(len(x) - len(y)) <= 1
        assert sorted(x + y) == list(range(n))
        for side in (x, y):
            for t in combinations(side, 3):
                assert not h.has_edge(*t)


def test_recognize_balanced_bipartite_is_label_independent():
    rng = random.Random(23)
    base = construct("balanced_bipartite", 9)
    edges = base.edges()
    for _ in range(20):
        perm = list(range(9))
        rng.shuffle(perm)
        h = Hypergraph.from_edges(9, [tuple(sorted(perm[v] for v in t)) for t in edges])
        assert recognize_balanced_bipartite(h) is not None


def test_recognize_balanced_bipartite_rejects_near_misses():
    assert recognize_balanced_bipartite(construct("j7", 7)) is None
    b8 = construct("balanced_bipartite", 8)
    edges = b8.edges()
    # dropping any single crossing triple breaks the family
    assert recognize_balanced_bipartite(Hypergraph.from_edges(8, edges[1:])) is None
    assert recognize_balanced_bipartite(construct("complete", 6)) is None


def _balanced_splits(n):
    """Reference recognizer for n vertices: every bipartite hypergraph with
    classes of sizes floor(n/2) and ceil(n/2), mapped to its (X, Y).

    Splits are tried in lex order of X, keeping the first that gives each
    hypergraph; for even n only the X holding vertex 0 is tried.  That is
    the tie rule (X is the smaller class, or the one holding vertex 0), and
    where several splits give one hypergraph (n <= 4, no non-edge) it picks
    X = range(n // 2).
    """
    out = {}
    for x in combinations(range(n), n // 2):
        if n % 2 == 0 and 0 not in x:
            continue
        crossing = [t for t in combinations(range(n), 3) if 0 < len(set(t) & set(x)) < 3]
        h = Hypergraph.from_edges(n, crossing)
        out.setdefault(h, (x, tuple(v for v in range(n) if v not in x)))
    return out


def test_recognize_balanced_bipartite_matches_a_brute_force_reference():
    rng = random.Random(19)
    for n in range(2, 11):
        reference = _balanced_splits(n)
        inputs = [_bipartite(n, [bool(mask >> v & 1) for v in range(n)]) for mask in range(1 << n)]
        for _ in range(8):
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel(construct("balanced_bipartite", n), perm)
            assert h in reference
            inputs.append(h)
            on = [r for r in range(comb(n, 3)) if h.bits >> r & 1]
            off = [r for r in range(comb(n, 3)) if not h.bits >> r & 1]
            if on and off:
                inputs.append(Hypergraph(n, h.bits ^ 1 << rng.choice(on) ^ 1 << rng.choice(off)))
        for h in inputs:
            parts = recognize_balanced_bipartite(h)
            assert parts == reference.get(h)
            if parts is not None and n % 2 == 0:
                assert 0 in parts[0]


def test_b6_has_unique_large_independent_set():
    h = construct("balanced_bipartite", 6)
    independent = [
        k for k in combinations(range(6), 3)
        if all(not h.has_edge(*t) for t in combinations(k, 3))
    ]
    assert independent == [(0, 1, 2), (3, 4, 5)]
    bigger = [
        k for k in combinations(range(6), 4)
        if all(not h.has_edge(*t) for t in combinations(k, 3))
    ]
    assert bigger == []


def test_random_hypergraph_is_seed_deterministic():
    a = random_hypergraph(9, 0.4, random.Random(99))
    b = random_hypergraph(9, 0.4, random.Random(99))
    assert a == b
    assert random_hypergraph(6, 0.0, random.Random(1)).edge_count == 0
    assert random_hypergraph(6, 1.0, random.Random(1)).edge_count == comb(6, 3)


def test_text_format_roundtrip():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randrange(3, 12)
        h = random_hypergraph(n, rng.random(), rng)
        text = format_text(h)
        assert parse_text(text) == h
        first = text.splitlines()[0].split()
        assert first == [str(h.n), str(h.edge_count)]


def test_text_format_rejects_malformed_input():
    bad = [
        "",                        # no header
        "7\n",                     # header too short
        "7 2\n0 1 2\n",            # edge count mismatch
        "7 1\n0 1\n",              # not a triple
        "7 1\n0 1 1\n",            # repeated vertex
        "7 1\n0 1 9\n",            # vertex out of range
        "7 2\n2 3 4\n0 1 2\n",     # not ascending by rank
        "7 2\n0 1 2\n0 1 2\n",     # duplicate edge
        "7 1\n0 1 x\n",            # not an integer
    ]
    for text in bad:
        with pytest.raises(FormatError):
            parse_text(text)


def test_json_roundtrip_and_key_policy():
    h = construct("j7", 7)
    obj = to_json_dict(h)
    assert set(obj) == {"n", "edges"}
    assert from_json_dict(json.loads(json.dumps(obj))) == h
    for bad in (
        {"n": 7},
        {"n": 7, "edges": [], "extra": 1},
        {"n": 7, "edges": [[0, 1]]},
        {"n": 7, "edges": [[0, 1, 7]]},
        {"n": 7, "edges": [[0, 1, 2], [0, 1, 2]]},
        {"n": "7", "edges": []},
        {"n": 7, "edges": 5},
        {"n": True, "edges": []},
        {"n": 7, "edges": [[False, True, 2]]},
        [1, 2, 3],
    ):
        with pytest.raises(FormatError):
            from_json_dict(bad)
