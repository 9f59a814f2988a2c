"""Unit tests for the strip/attach decomposition and incremental formula.

The one-pass strip schedule is checked against a slow reference that
re-roots, chooses and rebuilds a validated Tree at every step.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sombor.decompose import (
    DecompositionStep,
    _require_path_condition,
    _strip_schedule,
    attach,
    base_value,
    decompose,
    incremental_sombor,
    replay_totals,
    strip_last,
)
from sombor.degrees import DegreeSequence
from sombor.greedy import RootedTree, build_greedy_tree, check_path_condition
from sombor.oracle import prufer_decode
from sombor.swaps import local_search
from sombor.tree import Tree


def chain_3_2_3() -> Tree:
    return Tree(7, [(0, 2), (1, 2), (0, 3), (0, 4), (1, 5), (1, 6)])


small_sequences = st.lists(st.integers(2, 6), min_size=1, max_size=5).map(
    DegreeSequence.normalize
)


class TestIncrementalSombor:
    def test_star_to_three_two(self):
        value = incremental_sombor(3 * math.sqrt(10), 2, 3)
        expected = 3 * math.sqrt(10) + math.sqrt(5) + math.sqrt(13) - math.sqrt(10)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(
            build_greedy_tree((3, 2)).tree.sombor(), abs=1e-12
        )

    def test_attach_to_k2_leaf(self):
        so = 7.0
        assert incremental_sombor(so, 2, 1) == pytest.approx(
            so + 2 * math.sqrt(5) - math.sqrt(2), abs=1e-12
        )

    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError):
            incremental_sombor(0.0, 1, 3)
        with pytest.raises(ValueError):
            incremental_sombor(0.0, 2, 0)

    def test_delta_decreasing_in_parent_degree(self):
        # h-gap monotonicity surfaces in the step delta.
        for d_t in range(2, 51):
            deltas = [incremental_sombor(0.0, d_t, d_p) for d_p in range(2, 51)]
            assert all(a > b for a, b in zip(deltas, deltas[1:]))


class TestBaseValue:
    def test_k2(self):
        assert base_value(()) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_star(self):
        assert base_value((3,)) == pytest.approx(3 * math.sqrt(10), abs=1e-15)

    def test_uses_largest_degree(self):
        assert base_value((4, 3, 2)) == pytest.approx(4 * math.sqrt(17), abs=1e-15)


class TestAttach:
    def test_star_leaf_gives_three_two(self):
        star = build_greedy_tree((3,)).tree
        t = attach(star, 1, 2)
        greedy = build_greedy_tree((3, 2)).tree
        assert t.canonical_form() == greedy.canonical_form()
        assert t.internal_degree_sequence() == DegreeSequence((3, 2))

    def test_adds_exactly_one_vertex_for_degree_two(self):
        star = build_greedy_tree((3,)).tree
        assert attach(star, 1, 2).n == star.n + 1

    def test_promoted_vertex_degree(self):
        star = build_greedy_tree((4,)).tree
        t = attach(star, 2, 3)
        assert t.degree(2) == 3

    def test_rejects_non_pendant(self):
        star = build_greedy_tree((3,)).tree
        with pytest.raises(ValueError, match="not a pendant"):
            attach(star, 0, 2)

    def test_rejects_degree_below_two(self):
        star = build_greedy_tree((3,)).tree
        with pytest.raises(ValueError):
            attach(star, 1, 1)


class TestStripLast:
    def test_greedy_332_strips_to_greedy_33(self):
        stripped = strip_last(build_greedy_tree((3, 3, 2)).tree)
        expected = build_greedy_tree((3, 3)).tree
        assert stripped.canonical_form() == expected.canonical_form()
        assert stripped.internal_degree_sequence() == DegreeSequence((3, 3))

    def test_star_strips_to_k2(self):
        stripped = strip_last(build_greedy_tree((4,)).tree)
        assert stripped == Tree(2, [(0, 1)])

    def test_chain_violates_precondition(self):
        with pytest.raises(ValueError, match="path condition"):
            strip_last(chain_3_2_3())

    def test_k2_has_nothing_to_strip(self):
        with pytest.raises(ValueError, match="no strippable vertex"):
            strip_last(Tree(2, [(0, 1)]))

    def test_removes_exactly_the_minimum_degree(self):
        t = build_greedy_tree((5, 4, 3, 2)).tree
        stripped = strip_last(t)
        assert stripped.internal_degree_sequence() == DegreeSequence((5, 4, 3))

    @given(seq=small_sequences)
    def test_strip_after_attach_is_identity(self, seq):
        t = build_greedy_tree(seq).tree
        leaf = next(v for v in range(t.n) if t.is_pendant(v))
        assert strip_last(attach(t, leaf, 2)) == t


class TestDecompose:
    def test_greedy_432_two_steps(self):
        t = build_greedy_tree((4, 3, 2)).tree
        steps = decompose(t)
        assert [s.index_t for s in steps] == [2, 3]
        assert [s.attached_degree for s in steps] == [3, 2]
        assert [s.parent_degree for s in steps] == [4, 4]
        assert [s.added_leaves for s in steps] == [2, 1]

    def test_star_and_k2_zero_steps(self):
        assert decompose(build_greedy_tree((5,)).tree) == []
        assert decompose(Tree(2, [(0, 1)])) == []

    def test_rejects_path_condition_violation(self):
        with pytest.raises(ValueError, match="path condition"):
            decompose(chain_3_2_3())

    def test_rejects_a_single_vertex(self):
        with pytest.raises(ValueError, match="need n >= 2"):
            decompose(Tree(1, []))

    def test_replay_rebuilds_the_tree(self):
        t = build_greedy_tree((4, 3, 2)).tree
        steps = decompose(t)
        rebuilt = build_greedy_tree((4,)).tree
        for s in steps:
            rebuilt = attach(rebuilt, s.attached_at, s.attached_degree)
        assert rebuilt.canonical_form() == t.canonical_form()

    def test_replay_totals_match_direct_value(self):
        t = build_greedy_tree((4, 3, 2)).tree
        steps = decompose(t)
        totals = replay_totals(base_value((4, 3, 2)), steps)
        assert totals[-1] == pytest.approx(t.sombor(), abs=1e-12)

    def test_delta_sum_matches_direct_value(self):
        t = build_greedy_tree((5, 3, 3, 2, 2)).tree
        steps = decompose(t)
        total = base_value((5, 3, 3, 2, 2)) + sum(s.delta for s in steps)
        assert total == pytest.approx(t.sombor(), abs=1e-12)

    def test_step_delta_matches_formula(self):
        for s in decompose(build_greedy_tree((4, 3, 2)).tree):
            d_t, d_p = s.attached_degree, s.parent_degree
            expected = (
                (d_t - 1) * math.sqrt(d_t**2 + 1)
                + math.sqrt(d_t**2 + d_p**2)
                - math.sqrt(d_p**2 + 1)
            )
            assert s.delta == pytest.approx(expected, abs=1e-12)

    @given(seq=small_sequences)
    def test_random_greedy_trees_replay(self, seq):
        t = build_greedy_tree(seq).tree
        steps = decompose(t)
        assert len(steps) == max(len(seq) - 1, 0)
        totals = replay_totals(base_value(seq), steps)
        final = totals[-1] if totals else base_value(seq)
        assert final == pytest.approx(t.sombor(), abs=1e-12)

    @given(seq=small_sequences)
    def test_intermediates_satisfy_path_condition(self, seq):
        cur = build_greedy_tree(seq).tree
        while len(cur.internal_degree_sequence()) >= 1:
            assert check_path_condition(cur)
            if len(cur.internal_degree_sequence()) == 1:
                break
            cur = strip_last(cur)


def test_attached_degree_property():
    step = DecompositionStep(
        index_t=2, attached_at=1, parent_degree=4, added_leaves=2, delta=0.5
    )
    assert step.attached_degree == 3


# -- slow reference: re-root, choose and rebuild a Tree at every step --


def _rooted_at_max_degree(tree: Tree) -> RootedTree:
    deg = tree.degrees()
    root = deg.index(max(deg))
    return RootedTree.from_tree(tree, root)


def _choose_strip_vertex(rooted: RootedTree) -> int:
    tree = rooted.tree
    internal = [v for v in range(tree.n) if tree.degree(v) >= 2]
    if not internal:
        raise ValueError("no strippable vertex: tree has no internal vertex")
    d_min = min(tree.degree(v) for v in internal)
    candidates = [
        v
        for v in internal
        if tree.degree(v) == d_min
        and all(tree.is_pendant(c) for c in rooted.children[v])
    ]
    if not candidates:
        raise ValueError(
            "no strippable vertex: no minimum-degree internal vertex "
            "has all children pendant"
        )
    pos = {v: i for i, v in enumerate(rooted.bfs_order)}
    return max(candidates, key=lambda v: pos[v])


def _strip(rooted: RootedTree):
    tree = rooted.tree
    vk = _choose_strip_vertex(rooted)
    dk = tree.degree(vk)
    kids = rooted.children[vk]
    parent = rooted.parent[vk]
    if parent < 0:
        removed = set(kids[1:])
        d_p = None
    else:
        removed = set(kids)
        d_p = tree.degree(parent)
    survivors = [v for v in range(tree.n) if v not in removed]
    relabel = {old: new for new, old in enumerate(survivors)}
    edges = [
        (relabel[u], relabel[v])
        for u, v in tree.edges
        if u not in removed and v not in removed
    ]
    return Tree(len(survivors), edges), dk, relabel[vk], d_p


def reference_strip_last(tree: Tree) -> Tree:
    _require_path_condition(tree)
    return _strip(_rooted_at_max_degree(tree))[0]


def reference_decompose(tree: Tree) -> list[DecompositionStep]:
    _require_path_condition(tree)
    steps = []
    cur = tree
    t_index = len(cur.internal_degree_sequence())
    while len(cur.internal_degree_sequence()) >= 2:
        cur, dk, new_label, d_p = _strip(_rooted_at_max_degree(cur))
        steps.append(
            DecompositionStep(
                index_t=t_index,
                attached_at=new_label,
                parent_degree=d_p,
                added_leaves=dk - 1,
                delta=incremental_sombor(0.0, dk, d_p),
            )
        )
        t_index -= 1
    return list(reversed(steps))


def outcome(f, tree):
    try:
        return f(tree)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def prufer_trees(draw, min_n=2, max_n=40):
    n = draw(st.integers(min_n, max_n))
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_decode(code, n)


@st.composite
def relabeled_greedy_trees(draw):
    tree = build_greedy_tree(draw(small_sequences)).tree
    return tree.relabel(draw(st.permutations(range(tree.n))))


class TestAgainstReference:
    # Local-search fixed points and relabeled greedy trees satisfy the
    # path condition with arbitrary labels, so equal-degree candidates
    # tie and compacted labels differ from the original ones; raw
    # Prüfer trees mostly violate it and exercise the error.
    @settings(max_examples=300)
    @given(
        tree=st.one_of(
            st.lists(st.integers(2, 7), max_size=12).map(
                lambda seq: build_greedy_tree(seq).tree
            ),
            relabeled_greedy_trees(),
            prufer_trees().map(lambda t: local_search(t).tree),
            prufer_trees(),
        )
    )
    def test_same_steps_and_errors(self, tree):
        assert outcome(decompose, tree) == outcome(reference_decompose, tree)
        assert outcome(strip_last, tree) == outcome(reference_strip_last, tree)

    @given(tree=prufer_trees(min_n=3))
    def test_first_step_without_the_path_condition(self, tree):
        # Past the path-condition check no tree lacks a strippable
        # vertex; without it, most random trees do.
        def first(tree):
            for d_t, _, _, label in _strip_schedule(tree):
                return d_t, label

        def reference_first(tree):
            _, dk, label, _ = _strip(_rooted_at_max_degree(tree))
            return dk, label

        assert outcome(first, tree) == outcome(reference_first, tree)
