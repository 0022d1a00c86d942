"""Canonical labeling: invariance, separation, automorphism counting."""

import json
import random
import sys
import time
from itertools import combinations, permutations
from math import comb, factorial
from pathlib import Path

import pytest

from fanoturan.canonical import (
    CANONICAL_CAP,
    _canonicalize,
    _find,
    _merge,
    _search,
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
    with pytest.raises(ParameterError):
        relabel(h, [0.0, 1, 2, 3, 4, 5, 6])  # equal to a permutation, but not of ints
    with pytest.raises(ParameterError):
        relabel(h, [False, True, 2, 3, 4, 5, 6])


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


def _orbits(gens, n):
    """For each vertex, a representative of its orbit under the group gens
    generate, rebuilt from scratch: the dict search's orbit oracle."""
    rep = list(range(n))

    def find(v):
        while rep[v] != v:
            v = rep[v]
        return v

    for g in gens:
        for v in range(n):
            a, b = find(v), find(g[v])
            if a != b:
                rep[a] = b
    return [find(v) for v in range(n)]


def _partition(orbit):
    """The orbits as a set of frozensets, whatever their representatives."""
    blocks = {}
    for v, r in enumerate(orbit):
        blocks.setdefault(r, set()).add(v)
    return {frozenset(b) for b in blocks.values()}


def test_merging_one_generator_at_a_time_matches_the_orbits_from_scratch():
    rng = random.Random(24)
    for trial in range(200):
        n = 1 + trial % 12
        rep, gens = list(range(n)), []
        for _ in range(rng.randrange(1, 6)):
            # a random permutation of a random few vertices, so that some
            # orbits stay apart until a later generator joins them
            g = list(range(n))
            moved = rng.sample(range(n), rng.randrange(1, n // 2 + 2))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                g[a] = b
            gens.append(g)
            _merge(rep, g)
            assert _partition([_find(rep, v) for v in range(n)]) == _partition(_orbits(gens, n)), gens


def test_the_form_is_the_relabeling_by_the_least_labeling():
    # relabel writes the permuted ranks straight into a bitmask; here the
    # image is rebuilt through from_edges, which sorts and validates each edge
    for h in _oracle_subjects():
        lab, aut = _search(h)
        perm = [0] * h.n
        for i, v in enumerate(lab):
            perm[v] = i
        image = Hypergraph.from_edges(h.n, [(perm[a], perm[b], perm[c]) for a, b, c in h.edges()])
        assert relabel(h, perm) == image, h
        assert _canonicalize(h.n, h.bits) == (image, aut), h


def _dict_search(h, seeded=False):
    """The canonical search with a {vertex: chunk} node, as a test oracle.

    Each node holds every unassigned vertex's chunk, sorts them as its
    candidates, and extends each one for a child through a vertex -> label
    bit map.  No child is skipped before it is built.
    """
    n, e = h.n, h.edge_count
    if e == comb(n, 3):
        return list(range(n)), factorial(n)
    top = comb(CANONICAL_CAP - 1, 2) - 1
    thirds = h.thirds()
    best = [0] * n
    if seeded:
        for a, b, c in h.edges():
            best[c] |= 1 << (top - b * (b - 1) // 2 - a)
    best_lab = list(range(n))
    aut = 0
    version = 0
    gens = []
    assigned = []
    path = []
    label_bit = [0] * n
    no_jump = n

    def descend(chunks, placed, tied, fixing):
        nonlocal best, best_lab, aut, version
        k = len(assigned)
        if placed == e:
            lab = assigned + list(chunks)
            if not tied:
                best, best_lab = path + [0] * (n - k), lab
                aut = factorial(n - k)
                version += 1
                return no_jump
            d = next((i for i in range(k) if lab[i] != best_lab[i]), k)
            if d == k:
                return no_jump
            g = [0] * n
            for a, b in zip(best_lab, lab):
                g[a] = b
            gens.append(g)
            return d
        known = 0
        for v in assigned:
            known |= 1 << v
        shift = k * (k - 1) // 2
        seen = len(gens)
        orbit = []
        orbit_gens = 0
        done = {}
        for u in sorted(chunks, key=chunks.__getitem__, reverse=True):
            c = chunks[u]
            child_tied = tied
            if tied and c != best[k]:
                if c < best[k]:
                    break
                if seeded:
                    return -1
                child_tied = False
            if fixing:
                if orbit_gens != len(fixing):
                    orbit, orbit_gens = _orbits(fixing, n), len(fixing)
                w = next((w for w in done if orbit[w] == orbit[u]), None)
                if w is not None:
                    ver, count = done[w]
                    if ver == version:
                        aut += count
                    continue
            ver0, aut0 = version, aut
            row = thirds[u]
            child = {}
            for v, cv in chunks.items():
                if v != u:
                    ts = row[v] & known
                    while ts:
                        low = ts & -ts
                        ts ^= low
                        cv |= label_bit[low.bit_length() - 1] >> shift
                    child[v] = cv
            assigned.append(u)
            path.append(c)
            label_bit[u] = 1 << (top - k)
            j = descend(child, placed + c.bit_count(), child_tied,
                        fixing and [g for g in fixing if g[u] == u])
            path.pop()
            assigned.pop()
            tied = True
            if len(gens) > seen:
                fixing = fixing + gens[seen:]
                seen = len(gens)
            if j < k:
                return j
            if j == k:
                aut += done[best_lab[k]][1]
                continue
            done[u] = (version, aut - aut0 if version == ver0 else aut)
        return no_jump

    if descend(dict.fromkeys(range(n), 0), 0, seeded, []) < 0:
        return None
    return best_lab, aut


def _oracle_subjects():
    rng = random.Random(18)
    subjects = []
    for i in range(160):
        # n = 10 stops at density 0.8: a denser one can take a second
        n, step = 3 + i % 8, i // 8
        top = 0.75 if n == 10 else 0.9
        subjects.append(random_hypergraph(n, 0.05 + top * step / 19, rng))
    named = [construct("balanced_bipartite", n) for n in range(3, CANONICAL_CAP + 1)]
    named += [construct("j7", 7), construct("fano", 7), construct("pasch", 6), _circulant12()]
    for h in named:
        g = _shuffled(h, rng)
        subjects += [h, g, complement(g)]
    # n = 12 with an edge through the last label: label 11's child has no cells
    subjects += [random_hypergraph(CANONICAL_CAP, 0.08, rng) for _ in range(2)]
    return subjects


def test_cells_search_matches_the_dict_search():
    # the cell partition and the lookahead must not change which labeling
    # is found first, |Aut|, or the is_canonical answer
    last_label_edges = 0
    for h in _oracle_subjects():
        assert _search(h) == _dict_search(h), h
        assert (_search(h, seeded=True) is None) == (_dict_search(h, seeded=True) is None), h
        # with no isolated vertex, label 11 closes an edge in every labeling
        covered = {v for t in h.edges() for v in t}
        last_label_edges += h.n == CANONICAL_CAP and len(covered) == h.n
    assert last_label_edges >= 2


def _descend_calls(search, inputs):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "descend":
            calls += 1

    sys.setprofile(count)
    try:
        for h in inputs:
            search(h)
    finally:
        sys.setprofile(None)
    return calls


def test_lookahead_skips_children_that_lose_at_once():
    # A tied child whose largest chunk is already below best's is never
    # built, nor one whose only candidate's child is.  Here the search makes
    # 0.32 times the oracle's descend calls; without the first check 0.59,
    # without the second 0.53.
    rng = random.Random(9)
    inputs = [random_hypergraph(9, 0.3 + 0.3 * (i % 10) / 9, rng) for i in range(50)]
    cells, oracle = _descend_calls(_search, inputs), _descend_calls(_dict_search, inputs)
    assert cells <= 0.4 * oracle, (cells, oracle)


def test_orbits_grown_one_generator_at_a_time_prune_as_much_as_from_scratch():
    # The cells search tries each node's candidates in the dict search's
    # order, and that search rebuilds its orbits from scratch; the cells
    # search also skips children by lookahead, so on no input does it make
    # more descend calls.  An orbit merge that drops or delays a generator
    # prunes less, and on these symmetric inputs it makes 1.3 to 3.4 times
    # the dict search's calls.
    rng = random.Random(5)
    named = [construct("balanced_bipartite", n) for n in range(6, CANONICAL_CAP + 1)]
    named += [construct("j7", 7), construct("fano", 7), construct("pasch", 6)]
    for h in named:
        g = _shuffled(h, rng)
        for x in (h, g, complement(g)):
            assert _descend_calls(_search, [x]) <= _descend_calls(_dict_search, [x]), x
