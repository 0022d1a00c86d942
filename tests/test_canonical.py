"""Canonical labeling: invariance, separation, automorphism counting."""

import json
import random
import time
from itertools import combinations, permutations
from math import comb, factorial
from pathlib import Path

import pytest

from fanoturan.canonical import (
    CANONICAL_CAP,
    automorphism_count,
    canonical_form,
    is_canonical,
    relabel,
)
from fanoturan.errors import CapabilityError, ParameterError
from fanoturan.hypergraph import Hypergraph, complement, construct, random_hypergraph

# (n, bits) -> (form bits, |Aut|, is_canonical) on the inputs of
# _pinned_form_inputs(), as [n, bits, form bits, |Aut|, is_canonical] rows
# with bit sets in hex
PINNED_FORMS = Path(__file__).resolve().parent / "data" / "canonical_forms_seed3.json"


def _shuffled(h, rng):
    perm = list(range(h.n))
    rng.shuffle(perm)
    return relabel(h, perm)


def test_invariant_under_100_random_relabelings():
    rng = random.Random(42)
    subjects = [
        construct("fano", 7),
        construct("balanced_bipartite", 7),
        construct("j7", 7),
        random_hypergraph(6, 0.5, rng),
        random_hypergraph(8, 0.3, rng),
    ]
    for h in subjects:
        want = canonical_form(h)
        for _ in range(100):
            assert canonical_form(_shuffled(h, rng)) == want


def test_separates_b7_from_j7():
    assert canonical_form(construct("balanced_bipartite", 7)) != canonical_form(
        construct("j7", 7)
    )


def test_exhaustive_oracle_b7_j7_not_isomorphic():
    b7 = construct("balanced_bipartite", 7)
    j7 = set(construct("j7", 7).edges())
    for perm in permutations(range(7)):
        mapped = {tuple(sorted(perm[v] for v in t)) for t in b7.edges()}
        assert mapped != j7


def test_fano_has_30_distinct_encodings():
    fano = construct("fano", 7)
    encodings = {relabel(fano, perm).bits for perm in permutations(range(7))}
    assert len(encodings) == 5040 // 168 == 30


def test_automorphism_counts_of_named_hypergraphs():
    assert automorphism_count(construct("fano", 7)) == 168
    assert automorphism_count(construct("balanced_bipartite", 7)) == 144
    assert automorphism_count(construct("j7", 7)) == 240
    assert automorphism_count(construct("complete", 5)) == 120
    assert automorphism_count(Hypergraph(6, 0)) == 720


def test_pasch_automorphisms_and_orbit():
    pasch = construct("pasch", 6)
    count = automorphism_count(pasch)
    orbit = {relabel(pasch, perm).bits for perm in permutations(range(6))}
    assert count * len(orbit) == 720


def test_equal_forms_exactly_for_isomorphic_inputs():
    rng = random.Random(3)
    for _ in range(20):
        h = random_hypergraph(7, 0.4, rng)
        g = _shuffled(h, rng)
        assert canonical_form(h) == canonical_form(g)
    a = construct("balanced_bipartite", 8)
    b = Hypergraph.from_edges(8, a.edges()[:-1])
    assert canonical_form(a) != canonical_form(b)


def test_canonical_representative_is_reachable():
    rng = random.Random(8)
    for _ in range(15):
        h = random_hypergraph(6, 0.5, rng)
        rep = canonical_form(h)
        assert canonical_form(rep) == rep
        assert is_canonical(rep)
        assert rep.edge_count == h.edge_count


def test_is_canonical_rejects_non_minimal_labelings():
    fano = construct("fano", 7)
    rep = canonical_form(fano)
    seen_other = False
    for perm in permutations(range(7)):
        g = relabel(fano, perm)
        if g != rep:
            seen_other = True
            assert not is_canonical(g)
    assert seen_other


def test_relabel_validation():
    h = construct("fano", 7)
    with pytest.raises(ParameterError):
        relabel(h, [0, 1, 2, 3, 4, 5])  # wrong length
    with pytest.raises(ParameterError):
        relabel(h, [0, 0, 1, 2, 3, 4, 5])  # not a bijection
    with pytest.raises(ParameterError):
        relabel(h, [0, 1, 2, 3, 4, 5, 7])  # out of range


def test_canonical_cap_is_a_capability_error():
    ok = random_hypergraph(CANONICAL_CAP, 0.5, random.Random(0))
    canonical_form(ok)
    over = Hypergraph(CANONICAL_CAP + 1, 7)
    with pytest.raises(CapabilityError):
        canonical_form(over)
    with pytest.raises(CapabilityError):
        automorphism_count(over)


def test_canonical_form_ordering_and_fields():
    f = canonical_form(construct("fano", 7))
    assert isinstance(f, Hypergraph)
    assert f.n == 7
    assert len(f.ranks()) == 7
    assert list(f.ranks()) == sorted(f.ranks())
    g = canonical_form(construct("j7", 7))
    assert f != g
    assert (f.ranks() < g.ranks()) != (g.ranks() < f.ranks())


def test_relabeled_forms_hash_consistently():
    rng = random.Random(12)
    h = random_hypergraph(7, 0.5, rng)
    forms = {canonical_form(_shuffled(h, rng)) for _ in range(30)}
    assert len(forms) == 1
    assert Hypergraph.from_ranks(h.n, canonical_form(h).ranks()) in forms


def _oracle(h):
    """(least sorted rank tuple, stabiliser size) over all n! relabelings."""
    least = None
    fixed = 0
    for perm in permutations(range(h.n)):
        g = relabel(h, perm)
        ranks = tuple(r for r in range(g.bits.bit_length()) if g.bits >> r & 1)
        if least is None or ranks < least:
            least = ranks
        fixed += g.bits == h.bits
    return least, fixed


def test_brute_force_oracle_on_small_inputs():
    rng = random.Random(2024)
    subjects = [
        Hypergraph(5, 0),
        Hypergraph(6, 0),
        construct("complete", 5),
        construct("complete", 6),
        construct("pasch", 6),
        construct("balanced_bipartite", 4),
        construct("balanced_bipartite", 5),
        construct("balanced_bipartite", 6),
        complement(construct("balanced_bipartite", 6)),
        _disjoint_k4s(6),  # one K_4^(3) and two isolated vertices
    ]
    for n in range(3, 7):
        triples = range(comb(n, 3))
        for k in (1, 2, 3):
            for _ in range(3):
                ranks = rng.sample(triples, min(k, len(triples)))
                subjects.append(Hypergraph(n, sum(1 << r for r in ranks)))
        for density in (0.3, 0.5, 0.8):
            subjects.append(random_hypergraph(n, density, rng))
    for h in subjects:
        least, fixed = _oracle(h)
        assert canonical_form(h).ranks() == least, h
        assert automorphism_count(h) == fixed, h


def test_sparse_inputs_on_twelve_vertices_finish():
    # Isolated vertices complete to one sequence in every order, and each
    # tied leaf prunes the subtrees its automorphism maps onto one another,
    # so neither input enumerates its |Aut| tied leaves one by one.
    start = time.process_time()
    assert automorphism_count(Hypergraph(CANONICAL_CAP, 1)) == 6 * 362880
    fano = construct("fano", 7)
    assert automorphism_count(Hypergraph.from_edges(CANONICAL_CAP, fano.edges())) == 168 * 120
    # The first level of the ex-8 scan: one canonical one-edge hypergraph.
    assert [r for r in range(56) if is_canonical(Hypergraph(8, 1 << r))] == [0]
    # About 0.2 s of CPU time; visiting each tied leaf took about 50 s.
    assert time.process_time() - start < 10


def _disjoint_k4s(n):
    """K_4^(3) on {0..3}, plus one on {4..7} when n >= 8."""
    quads = [(0, 1, 2, 3), (4, 5, 6, 7)] if n >= 8 else [(0, 1, 2, 3)]
    return Hypergraph.from_edges(n, [t for q in quads for t in combinations(q, 3)])


@pytest.mark.parametrize("n", range(8, CANONICAL_CAP + 1))
def test_balanced_bipartite_automorphisms_within_budget(n):
    # Aut(B_n) permutes each class and swaps equal classes; the tied leaves
    # number that many, so enumerating them one by one took 50 s at n = 12.
    x, y = n // 2, n - n // 2
    want = factorial(x) * factorial(y) * (2 if x == y else 1)
    b = construct("balanced_bipartite", n)
    rng = random.Random(n)
    for h in (b, complement(b)):
        g = _shuffled(h, rng)  # a labeling no other test has cached
        start = time.process_time()
        assert automorphism_count(g) == want
        assert is_canonical(canonical_form(g))
        assert time.process_time() - start < 1


def _circulant12():
    """The triples {i, i+1, i+2} mod 12: 12 edges, |Aut| = 24."""
    return Hypergraph.from_edges(12, [tuple(sorted((i, (i + 1) % 12, (i + 2) % 12))) for i in range(12)])


def test_dense_input_with_a_small_group_within_budget():
    # The search's width, not |Aut|, is the cost here: 208 edges and only 24
    # automorphisms.  About 0.75 s of CPU time; 3.25 s before chunks were
    # compared in the parent node.
    g = _shuffled(complement(_circulant12()), random.Random(24))
    start = time.process_time()
    assert automorphism_count(g) == 24
    assert canonical_form(g).edge_count == 208
    assert time.process_time() - start < 2


def test_symmetric_inputs_are_relabel_invariant():
    rng = random.Random(11)
    subjects = [construct("balanced_bipartite", n) for n in range(7, CANONICAL_CAP + 1)]
    subjects += [construct("j7", 7), construct("fano", 7), _disjoint_k4s(8)]
    subjects += [complement(h) for h in subjects]
    for h in subjects:
        want = canonical_form(h), automorphism_count(h)
        for _ in range(10):
            g = _shuffled(h, rng)
            assert (canonical_form(g), automorphism_count(g)) == want, h
    assert automorphism_count(_disjoint_k4s(8)) == 24 * 24 * 2


def test_is_canonical_agrees_with_the_form():
    rng = random.Random(77)
    forms = []
    for _ in range(60):
        n = rng.randint(4, 8)
        forms.append(canonical_form(random_hypergraph(n, rng.uniform(0.1, 0.6), rng)))
    forms += [canonical_form(construct("balanced_bipartite", n)) for n in range(4, 11)]
    forms += [canonical_form(_disjoint_k4s(8)), canonical_form(construct("j7", 7))]
    for f in forms:
        assert is_canonical(f), f
        for _ in range(3):
            g = _shuffled(f, rng)
            assert is_canonical(g) == (canonical_form(g) == g), g


def _pinned_form_inputs():
    rng = random.Random(3)
    inputs = [
        random_hypergraph(6 + i % 4, 0.05 + 0.9 * (i % 50) / 49, rng) for i in range(300)
    ]
    named = [construct("balanced_bipartite", n) for n in range(7, CANONICAL_CAP + 1)]
    named += [construct("j7", 7), construct("fano", 7), construct("pasch", 6)]
    named += [_circulant12(), complement(_circulant12())]
    return inputs + named + [_shuffled(h, rng) for h in named]


def test_forms_match_the_pinned_forms():
    pinned = json.loads(PINNED_FORMS.read_text())
    inputs = _pinned_form_inputs()
    assert len(pinned) == len(inputs)
    for h, (n, bits, form, aut, canon) in zip(inputs, pinned):
        assert (n, int(bits, 16)) == (h.n, h.bits)
        got = canonical_form(h)
        assert (got.bits, automorphism_count(h), is_canonical(h)) == (int(form, 16), aut, canon), h
        assert is_canonical(got) and got.edge_count == h.edge_count, h
