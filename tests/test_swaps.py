"""Unit tests for improving edge swaps and local search."""

import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sombor.errors import StaleSwapError, StepLimitError
from sombor.greedy import build_greedy_tree, check_path_condition
from sombor.oracle import enumerate_trees, prufer_decode
from sombor.swaps import (
    _SCALE,
    _scaled_index,
    apply_swap,
    find_improving_swap,
    local_search,
)
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


def descent_sized_trees(count: int = 4, n: int = 200) -> list[Tree]:
    """Uniformly random labeled trees of the benchmark's descent size, fixed seed."""
    rng = random.Random(20221)
    return [prufer_decode([rng.randrange(n) for _ in range(n - 2)], n) for _ in range(count)]


def reference_local_search(tree: Tree) -> tuple[list, list[float], Tree]:
    """The slow descent: validate and rebuild each tree, recompute each index."""
    swaps, values = [], []
    while (swap := find_improving_swap(tree)) is not None:
        tree = apply_swap(tree, swap)
        swaps.append(swap)
        values.append(tree.sombor())
    return swaps, values, tree


def degree_pair_counts(tree: Tree) -> Counter:
    deg = tree.degrees()
    return Counter(tuple(sorted((deg[u], deg[v]))) for u, v in tree.edges)


def star(m: int) -> Tree:
    return Tree(m + 1, [(0, i) for i in range(1, m + 1)])


def caterpillar(k: int) -> Tree:
    """Spine 0..k-1 where spine vertex i has i+1 pendant vertices, so nearly every degree differs."""
    edges = [(i, i + 1) for i in range(k - 1)]
    nxt = k
    for i in range(k):
        for _ in range(i + 1):
            edges.append((i, nxt))
            nxt += 1
    return Tree(nxt, edges)


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


class TestDescentMatchesReference:
    """local_search edits the tree and keeps an integer index; the reference rebuilds."""

    @staticmethod
    def check(t: Tree) -> None:
        r = local_search(t)
        swaps, values, final = reference_local_search(t)
        assert r.swaps == swaps
        assert r.values == values
        assert r.start_value == t.sombor()
        assert r.final_value == (values[-1] if values else t.sombor())
        assert r.tree == final
        assert r.tree.degrees() == final.degrees()
        assert all(r.tree.neighbors(v) == final.neighbors(v) for v in range(t.n))

    @settings(max_examples=60)
    @given(t=random_trees(min_n=2, max_n=60))
    def test_random_trees(self, t):
        self.check(t)

    @pytest.mark.parametrize("index", range(4))
    def test_descent_sized_trees(self, index):
        self.check(descent_sized_trees()[index])

    @settings(max_examples=60)
    @given(t=random_trees(min_n=4, max_n=60))
    def test_every_edit_equals_apply_swap(self, t):
        while (swap := find_improving_swap(t)) is not None:
            edited = t._swapped(swap.removed, swap.added)
            rebuilt = apply_swap(t, swap)
            assert edited == rebuilt
            assert hash(edited) == hash(rebuilt)
            assert edited.edges == rebuilt.edges
            assert edited.degrees() == rebuilt.degrees()
            for v in range(t.n):
                assert edited.neighbors(v) == rebuilt.neighbors(v)
            t = edited


class TestExactIndex:
    """The scaled integer total over 2**52 is Tree.sombor() bit for bit."""

    @settings(max_examples=200)
    @given(t=random_trees(min_n=2, max_n=60))
    def test_random_trees(self, t):
        assert _scaled_index(t) / _SCALE == t.sombor()

    def test_small_stars(self):
        for m in range(1, 1000):
            t = star(m)
            assert _scaled_index(t) / _SCALE == t.sombor()

    @pytest.mark.parametrize("m", [4096, 12345, 65537, 10**5])
    def test_large_stars(self, m):
        t = star(m)
        assert _scaled_index(t) / _SCALE == t.sombor()

    def test_caterpillar_with_many_distinct_degrees(self):
        t = caterpillar(150)
        assert len(set(t.degrees())) == 150
        assert _scaled_index(t) / _SCALE == t.sombor()


class TestFixedPointDegreePairs:
    """A descent's fixed point has the greedy tree's edge counts per degree pair."""

    @settings(max_examples=150)
    @given(t=random_trees(min_n=3, max_n=60))
    def test_random_trees(self, t):
        greedy = build_greedy_tree(t.internal_degree_sequence()).tree
        assert degree_pair_counts(local_search(t).tree) == degree_pair_counts(greedy)

    def test_descent_sized_trees(self):
        for t in descent_sized_trees():
            greedy = build_greedy_tree(t.internal_degree_sequence()).tree
            assert degree_pair_counts(local_search(t).tree) == degree_pair_counts(greedy)
