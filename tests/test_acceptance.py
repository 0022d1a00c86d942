"""Acceptance gate: the eleven headline checks with pinned runtime budgets.

Each test covers one numbered criterion, prints a single pass/fail line, and
asserts both the mathematical outcome and the wall-clock budget.
"""

import random
import time
from math import comb

from fanoturan.canonical import canonical_form
from fanoturan.certificate import read_checkpoint
from fanoturan.fano import (
    contains_fano_crossing,
    contains_fano_embedding,
    contains_fano_pasch,
)
from fanoturan.hypergraph import (
    b_formula,
    construct,
    from_json_dict,
    random_hypergraph,
)
from fanoturan.multigraph import (
    INEQUALITY_N_MAX,
    f4_formula,
    max_edges_no_crossing,
    verify_corollary_inequalities,
    verify_lemma_4vertex,
    verify_section4_arithmetic,
)
from fanoturan.search import (
    verify_ex7,
    verify_ex8,
    verify_fact_2_4,
    verify_fact_tetra,
    verify_lemma_2_3,
    verify_lemma_n7,
    verify_matching_facts,
)


class _Budget:
    """Wall clock guard; reports one line when the block closes."""

    def __init__(self, number, seconds, detail):
        self.number = number
        self.seconds = seconds
        self.detail = detail

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(
            f"criterion {self.number:2d}: {verdict}"
            f" ({elapsed:.2f}s of {self.seconds:.0f}s) {self.detail}"
        )
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds:.0f}s budget"
            )


def test_criterion_01_seven_vertex_boundary_and_classes():
    with _Budget(1, 60, "ex(7) = 30 with extremal classes {B_7, J_7}"):
        cert = verify_ex7()
        assert cert.passed()
        # the scan accounts for every complement of size 0..5 by hitting-set
        # branching, which includes the 52,360 four-edge and 324,632
        # five-edge levels demanded here
        assert cert.space == sum(comb(35, c) for c in range(6))
        assert comb(35, 4) == 52360 and comb(35, 5) == 324632
        assert cert.witnesses[0]["max_edges"] == 30 == b_formula(7)
        classes = verify_lemma_n7()
        assert classes.passed()
        assert classes.visited == comb(35, 5)
        named = {
            canonical_form(construct("balanced_bipartite", 7)),
            canonical_form(construct("j7", 7)),
        }
        found = {
            canonical_form(from_json_dict(w["hypergraph"]))
            for w in classes.witnesses
        }
        assert found == named


def test_criterion_02_five_layer_exact_maxima():
    with _Budget(2, 120, "f_5(4) = 25 and f_5(5) = 40 by exact branch and bound"):
        v4, g4 = max_edges_no_crossing(5, 4)
        v5, g5 = max_edges_no_crossing(5, 5)
        assert v4 == 25 and g4.edge_total() == 25
        assert v5 == 40 and g5.edge_total() == 40


def test_criterion_03_four_layer_exact_maxima():
    with _Budget(3, 600, "f_4(4) = 20 and f_4(5) = 32 match the closed form"):
        v4, _ = max_edges_no_crossing(4, 4)
        v5, _ = max_edges_no_crossing(4, 5)
        assert v4 == 20 == f4_formula(4)
        assert v5 == 32 == f4_formula(5)


def test_criterion_04_four_vertex_multigraph_lemma():
    with _Budget(4, 300, "both parts of the 4-vertex 5-layer lemma over 32^6 states"):
        cert = verify_lemma_4vertex()
        assert cert.passed()
        assert cert.space == 32 ** 6
        assert cert.visited == cert.space
        payload = cert.witnesses[0]
        assert payload["min_sum_instances"] > 0
        assert payload["full_pair_instances"] > 0


def test_criterion_05_dense_link_states_have_bipartite_base():
    with _Budget(5, 60, "every plane-free dense state restricts to B_6"):
        cert = verify_lemma_2_3()
        assert cert.passed()
        assert cert.space == 6914048
        assert cert.visited == cert.space
        assert cert.witnesses[0]["fano_free_states"] > 0


def test_criterion_06_apex_link_bound():
    with _Budget(6, 10, "max plane-free link over a 6-clique is 10; 46 < 48"):
        cert = verify_fact_2_4()
        assert cert.passed()
        payload = cert.witnesses[0]
        assert payload["max_link_edges"] == 10
        assert payload["upper_bound_with_two_apexes"] == 46 < b_formula(8)


def test_criterion_07_matching_facts():
    with _Budget(7, 1, "2^15 graph scan; one class of matching-free 10-edge graphs"):
        cert = verify_matching_facts()
        assert cert.passed()
        assert cert.space == 1 << 15
        # all six labeled extremals share the forced K_5-plus-isolated-vertex
        # degree profile, so they form a single isomorphism class
        assert cert.witnesses[0]["ten_edge_pm_free"] == 6


def test_criterion_08_tetrahedra_at_the_balanced_count():
    with _Budget(8, 60, "every b(n)-edge hypergraph on 4..7 vertices has a K_4^(3)"):
        cert = verify_fact_tetra()
        assert cert.passed()
        assert cert.witnesses[0]["vertex_counts"] == [4, 5, 6, 7]


def test_criterion_09_integer_inequality_chains():
    with _Budget(9, 1, "both corollary inequalities and the split identity to 10001"):
        assert INEQUALITY_N_MAX == 10001
        a = verify_corollary_inequalities()
        b = verify_section4_arithmetic()
        assert a.passed() and b.passed()
        assert a.visited == 4997


def test_criterion_10_detector_agreement():
    with _Budget(10, 60, "three detectors agree on 1000 random inputs per n in 7..9"):
        for n in (7, 8, 9):
            rng = random.Random(1000 + n)
            for i in range(1000):
                density = 0.3 + 0.6 * (i % 100) / 99
                h = random_hypergraph(n, density, rng)
                a = contains_fano_embedding(h)
                assert a == contains_fano_crossing(h)
                assert a == contains_fano_pasch(h)


def test_criterion_11_eight_vertex_boundary_long_run(tmp_path):
    with _Budget(11, 14400, "ex(8) = 48 with B_8 unique, checkpointed scan"):
        path = str(tmp_path / "ex8.ckpt")
        cert = verify_ex8(long_run=True, checkpoint_path=path)
        assert cert.passed()
        assert cert.space == comb(56, 7) + comb(56, 8)
        assert cert.visited == cert.space
        payload = cert.witnesses[0]
        assert payload["max_edges"] == 48 == b_formula(8)
        assert payload["labeled_extremals"] == 35
        frames = read_checkpoint(path)
        assert frames and frames[-1][1] == comb(56, 8)
