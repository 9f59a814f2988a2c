"""Unit tests for improving edge swaps and local search."""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sombor.errors import StaleSwapError, StepLimitError
from sombor.greedy import build_greedy_tree, check_path_condition
from sombor.oracle import enumerate_trees, prufer_decode
from sombor.swaps import apply_swap, find_improving_swap, local_search
from sombor.tree import Tree
from sombor.weights import g_gap

GREEDY_332 = math.sqrt(18) + math.sqrt(13) + 3 * math.sqrt(10) + math.sqrt(5)
CHAIN_332 = 2 * math.sqrt(13) + 4 * math.sqrt(10)


def path(n: int) -> Tree:
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def chain_3_2_3() -> Tree:
    return Tree(7, [(0, 2), (1, 2), (0, 3), (0, 4), (1, 5), (1, 6)])


@st.composite
def random_trees(draw, min_n=4, max_n=14):
    n = draw(st.integers(min_n, max_n))
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_decode(code, n)


class TestFindImprovingSwap:
    def test_chain_example(self):
        t = chain_3_2_3()
        s = find_improving_swap(t)
        assert s is not None
        assert set(s.removed) == {(0, 3), (1, 2)}
        assert set(s.added) == {(2, 3), (0, 1)}
        predicted = g_gap(1, 3, 2) - g_gap(1, 3, 3)
        assert s.predicted_delta == pytest.approx(predicted, abs=1e-15)
        assert s.predicted_delta < 0

    def test_greedy_tree_is_fixed_point(self):
        assert find_improving_swap(build_greedy_tree((3, 3, 2)).tree) is None

    def test_p5_no_swap(self):
        assert find_improving_swap(path(5)) is None

    @given(t=random_trees())
    def test_returned_swap_always_negative(self, t):
        s = find_improving_swap(t)
        assume(s is not None)
        assert s.predicted_delta < 0


class TestApplySwap:
    def test_chain_example_full(self):
        t = chain_3_2_3()
        before = t.sombor()
        assert before == pytest.approx(CHAIN_332, abs=1e-12)
        assert before == pytest.approx(19.860213191601495, abs=1e-12)
        s = find_improving_swap(t)
        after_tree = apply_swap(t, s)
        after = after_tree.sombor()
        assert after == pytest.approx(GREEDY_332, abs=1e-12)
        assert after == pytest.approx(19.571092920588203, abs=1e-12)
        assert after - before == pytest.approx(s.predicted_delta, abs=1e-12)
        assert after_tree.edges == (
            (0, 1),
            (0, 2),
            (0, 4),
            (1, 5),
            (1, 6),
            (2, 3),
        )

    def test_preserves_degree_multiset(self):
        t = chain_3_2_3()
        s = find_improving_swap(t)
        out = apply_swap(t, s)
        assert sorted(out.degrees()) == sorted(t.degrees())
        assert out.internal_degree_sequence() == t.internal_degree_sequence()

    def test_stale_swap_rejected(self):
        t = chain_3_2_3()
        s = find_improving_swap(t)
        moved = apply_swap(t, s)
        with pytest.raises(StaleSwapError, match="stale swap"):
            apply_swap(moved, s)

    def test_swap_from_other_tree_rejected(self):
        s = find_improving_swap(chain_3_2_3())
        with pytest.raises(StaleSwapError):
            apply_swap(path(7), s)

    @given(t=random_trees())
    def test_measured_matches_predicted(self, t):
        s = find_improving_swap(t)
        assume(s is not None)
        out = apply_swap(t, s)
        measured = out.sombor() - t.sombor()
        assert measured == pytest.approx(s.predicted_delta, abs=1e-12)
        assert sorted(out.degrees()) == sorted(t.degrees())


class TestLocalSearch:
    def test_chain_converges_in_one_step(self):
        r = local_search(chain_3_2_3())
        assert r.steps == 1
        assert r.final_value == pytest.approx(GREEDY_332, abs=1e-12)
        assert check_path_condition(r.tree)

    def test_greedy_zero_steps(self):
        t = build_greedy_tree((4, 3, 2)).tree
        r = local_search(t)
        assert r.steps == 0
        assert r.tree == t
        assert r.final_value == r.start_value

    def test_values_strictly_decrease(self):
        r = local_search(chain_3_2_3())
        trajectory = [r.start_value] + r.values
        assert all(a > b for a, b in zip(trajectory, trajectory[1:]))

    def test_all_three_two_starts_reach_greedy(self):
        # Every labeled tree with full degrees (3,2,1,1,1) descends to
        # the greedy value.
        greedy_value = build_greedy_tree((3, 2)).tree.sombor()
        for t in enumerate_trees((3, 2)):
            r = local_search(t)
            assert check_path_condition(r.tree)
            assert r.final_value >= greedy_value - 1e-9
            assert r.final_value == pytest.approx(greedy_value, abs=1e-9)

    def test_fixed_points_are_exactly_path_condition_trees(self):
        for t in enumerate_trees((3, 3, 2)):
            assert (find_improving_swap(t) is None) == check_path_condition(t)

    def test_step_limit_guard(self):
        with pytest.raises(StepLimitError):
            local_search(chain_3_2_3(), step_limit=0)

    @given(t=random_trees())
    def test_descent_never_increases_and_preserves_degrees(self, t):
        r = local_search(t)
        assert r.final_value <= r.start_value + 1e-12
        assert r.tree.internal_degree_sequence() == t.internal_degree_sequence()
        assert check_path_condition(r.tree)

    @given(t=random_trees())
    def test_trajectory_sums_to_final(self, t):
        r = local_search(t)
        replayed = r.start_value + sum(s.predicted_delta for s in r.swaps)
        assert replayed == pytest.approx(r.final_value, abs=1e-10)
