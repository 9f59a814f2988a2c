"""Unit tests for the Prüfer codec, enumeration, and the oracle."""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sombor.degrees import DegreeSequence
from sombor.errors import BudgetExceededError
from sombor.greedy import build_greedy_tree
from sombor.oracle import (
    _TIE_EPS,
    _codes,
    enumerate_trees,
    enumeration_count,
    prufer_decode,
    prufer_encode,
    sweep_sequences,
    sweep_verify,
    verify_minimality,
)
from sombor.tree import Tree


class TestPruferDecode:
    def test_k2(self):
        assert prufer_decode([], 2) == Tree(2, [(0, 1)])

    def test_star(self):
        assert prufer_decode([0, 0], 4) == Tree(4, [(0, 1), (0, 2), (0, 3)])

    def test_path_code(self):
        assert prufer_decode([1, 0], 4) == Tree(4, [(0, 1), (0, 3), (1, 2)])

    def test_degree_is_one_plus_multiplicity(self):
        code = [2, 0, 2, 4]
        t = prufer_decode(code, 6)
        for v in range(6):
            assert t.degree(v) == 1 + code.count(v)

    @pytest.mark.parametrize(
        "code,n",
        [([0], 5), ([0, 1, 2], 4), ([], 1), ([4], 3), ([-1], 3)],
    )
    def test_rejects_bad_input(self, code, n):
        with pytest.raises(ValueError):
            prufer_decode(code, n)


class TestPruferEncode:
    def test_k2(self):
        assert prufer_encode(Tree(2, [(0, 1)])) == []

    def test_star(self):
        assert prufer_encode(Tree(4, [(0, 1), (0, 2), (0, 3)])) == [0, 0]

    def test_natural_path(self):
        t = Tree(4, [(0, 1), (1, 2), (2, 3)])
        assert prufer_encode(t) == [1, 2]

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            prufer_encode(Tree(1, []))

    @given(
        data=st.data(),
        n=st.integers(2, 16),
    )
    def test_round_trip_random(self, data, n):
        code = data.draw(
            st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)
        )
        t = prufer_decode(code, n)
        assert prufer_encode(t) == code
        assert prufer_decode(prufer_encode(t), n) == t

    def test_round_trip_exhaustive_small(self):
        for n in range(2, 7):
            for code in itertools.product(range(n), repeat=n - 2):
                t = prufer_decode(list(code), n)
                assert prufer_encode(t) == list(code)


class TestEnumeration:
    @pytest.mark.parametrize(
        "seq,count",
        [((3, 2), 3), ((2, 2), 2), ((5,), 1), ((), 1), ((2,) * 9, 362880)],
    )
    def test_counts(self, seq, count):
        assert enumeration_count(seq) == count
        seq = DegreeSequence.normalize(seq)
        codes = [tuple(c) for c in _codes(seq, count)]
        assert len(codes) == count
        assert all(a < b for a, b in zip(codes, codes[1:]))
        with pytest.raises(RuntimeError):
            list(_codes(seq, count + 1))

    def test_count_matches_factorial_formula(self):
        extra = [(8000, 8000), (2,) * 500, (50, 40, 3)]
        for seq in sweep_sequences(14) + [DegreeSequence(s) for s in extra]:
            expected = math.factorial(seq.total_vertices() - 2)
            for d in seq:
                expected //= math.factorial(d - 1)
            assert enumeration_count(seq) == expected

    def test_enumerate_three_two(self):
        trees = list(enumerate_trees((3, 2)))
        assert len(trees) == 3
        # Lexicographic code order: [0,0,1] first.
        assert trees[0] == prufer_decode([0, 0, 1], 5)
        for t in trees:
            assert t.internal_degree_sequence() == DegreeSequence((3, 2))

    def test_enumerate_two_two_one_class(self):
        trees = list(enumerate_trees((2, 2)))
        assert len(trees) == 2
        assert len({t.canonical_form() for t in trees}) == 1

    def test_enumerate_star_unique(self):
        (only,) = enumerate_trees((4,))
        assert only == Tree(5, [(0, 1), (0, 2), (0, 3), (0, 4)])

    def test_budget_raises_eagerly(self):
        with pytest.raises(BudgetExceededError) as exc:
            enumerate_trees((2,) * 9, budget=1000)
        assert exc.value.count == 362880
        assert exc.value.budget == 1000

    @pytest.mark.parametrize(
        "seq",
        [
            DegreeSequence(entries)
            for k in range(5)
            for entries in itertools.combinations_with_replacement((4, 3, 2), k)
        ],
        ids=str,
    )
    def test_enumerated_count_matches_formula(self, seq):
        n = seq.total_vertices()
        expected = math.factorial(n - 2)
        for d in seq:
            expected //= math.factorial(d - 1)
        assert sum(1 for _ in enumerate_trees(seq)) == expected


class TestVerifyMinimality:
    def test_three_two(self):
        rep = verify_minimality((3, 2))
        assert rep.labeled_count == 3
        assert rep.isomorphism_classes == 1
        expected = math.sqrt(13) + 2 * math.sqrt(10) + math.sqrt(5)
        assert rep.greedy_value == pytest.approx(expected, abs=1e-12)
        assert rep.oracle_min == pytest.approx(expected, abs=1e-12)
        assert rep.passed

    def test_three_three_two(self):
        rep = verify_minimality((3, 3, 2))
        assert rep.labeled_count == 30
        assert rep.isomorphism_classes == 2
        assert rep.passed
        greedy = build_greedy_tree((3, 3, 2)).tree
        assert rep.argmin.canonical_form() == greedy.canonical_form()

    def test_unique_tree_trivially_passes(self):
        rep = verify_minimality((2,))
        assert rep.labeled_count == 1
        assert rep.passed

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError):
            verify_minimality((2,) * 9, budget=100)

    def test_scan_matches_tree_reference(self):
        # Slow reference: build, score and canonicalize every Tree.  The
        # extras add stars up to K_{1,50} and sequences with many leaves
        # per internal vertex, where many codes share one internal tree.
        extra = [(3, 2, 2, 2, 2, 2, 2), (5, 5), (6, 6), (7, 3), (10, 4),
                 (8, 2, 2), (4, 4, 4), (5, 3, 3, 2), *((m,) for m in range(9, 51))]
        for seq in sweep_sequences(9) + [DegreeSequence(s) for s in extra]:
            trees = list(enumerate_trees(seq))
            values = [t.sombor() for t in trees]
            low = min(values)
            first_min = next(t for t, v in zip(trees, values) if v <= low + _TIE_EPS)
            classes = len({t.canonical_form() for t in trees})

            rep = verify_minimality(seq, class_limit=len(trees))
            assert rep.labeled_count == len(trees)
            assert rep.isomorphism_classes == classes
            assert rep.oracle_min == pytest.approx(low, abs=1e-12)
            assert rep.argmin == first_min
            assert rep.passed
            over = verify_minimality(seq, class_limit=len(trees) - 1)
            assert over.isomorphism_classes is None
            assert over.argmin == first_min

    def test_class_counts_sum_to_free_tree_counts(self):
        # Each free tree on n vertices has exactly one internal degree
        # sequence, so the class counts over all sequences with n vertices
        # add up to the number of free trees on n vertices (OEIS A000055).
        free_trees = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}
        totals = dict.fromkeys(free_trees, 0)
        for seq in sweep_sequences(10):
            rep = verify_minimality(seq, class_limit=10**7)
            totals[seq.total_vertices()] += rep.isomorphism_classes
        assert totals == free_trees

    @pytest.mark.parametrize("seq, budget", [((1000,), 1), ((1000, 2), 1000)])
    def test_large_star_passes(self, seq, budget):
        # The scan's running sum of 1000 equal weights drifts from the
        # fsum Tree.sombor() by more than the default tolerance.
        rep = verify_minimality(seq, budget=budget, class_limit=0)
        assert rep.oracle_min == rep.argmin.sombor()
        assert rep.passed

    def test_weight_table_rows_are_internal_labels(self):
        # An n x n table for the star K_{1,2000} would take about 130 MB.
        tracemalloc.start()
        try:
            verify_minimality((2000,), budget=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_argmin_attains_minimum(self):
        for seq in [(3, 2), (3, 3, 2), (4, 2)]:
            rep = verify_minimality(seq)
            assert rep.argmin.sombor() == pytest.approx(rep.oracle_min, abs=1e-12)
            assert rep.argmin.internal_degree_sequence() == DegreeSequence(seq)


class TestSweep:
    def test_sequences_up_to_five(self):
        got = [s.entries for s in sweep_sequences(5)]
        assert got == [(), (2,), (2, 2), (2, 2, 2), (3,), (3, 2), (4,)]

    def test_sequences_respect_bound(self):
        for seq in sweep_sequences(9):
            assert seq.total_vertices() <= 9

    def test_rejects_tiny_bound(self):
        with pytest.raises(ValueError):
            sweep_sequences(1)

    def test_sweep_verify_all_pass(self):
        rows = list(sweep_verify(7))
        assert len(rows) == len(sweep_sequences(7))
        assert all(r.report is not None and r.report.passed for r in rows)

    def test_sweep_verify_skips_over_budget(self):
        rows = list(sweep_verify(7, budget=50))
        skipped = [r for r in rows if r.skipped]
        assert skipped
        for r in skipped:
            assert r.labeled_count > 50
            assert r.labeled_count == enumeration_count(r.sequence)
            assert r.report is None
        done = [r for r in rows if not r.skipped]
        assert all(r.report.passed for r in done)
