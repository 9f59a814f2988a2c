"""Unit tests for greedy-tree construction and the structural predicates.

Each fast construction or predicate is also checked against a slow
reference kept here.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sombor.degrees import DegreeSequence
from sombor.greedy import (
    PathWitness,
    RootedTree,
    build_greedy_tree,
    check_level_monotonicity,
    check_path_condition,
    check_subtree_property,
    find_path_violation,
    leaf_levels,
)
from sombor.oracle import prufer_decode, sweep_sequences
from sombor.tree import Tree


def path(n: int) -> Tree:
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def chain_3_2_3() -> Tree:
    """The (3,3,2) realization with the degree-2 vertex in the middle."""
    return Tree(7, [(0, 2), (1, 2), (0, 3), (0, 4), (1, 5), (1, 6)])


small_sequences = st.lists(st.integers(2, 6), max_size=8).map(
    DegreeSequence.normalize
)


@st.composite
def prufer_trees(draw, max_n=30):
    n = draw(st.integers(1, max_n))
    if n == 1:
        return Tree(1, [])
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_decode(code, n)


def reference_greedy_edges(seq: DegreeSequence) -> list[tuple[int, int]]:
    """The greedy tree built by literally expanding the vertex of largest
    degree (lowest label on ties) next, with a heap."""
    if not seq:
        return [(0, 1)]
    k = len(seq)
    pool = list(seq.entries[1:]) + [1] * seq.leaf_count()
    ptr = 0
    next_internal, next_leaf = 1, k
    heap = [(-seq[0], 0)]
    edges = []
    while heap:
        negd, u = heapq.heappop(heap)
        for _ in range(-negd if u == 0 else -negd - 1):
            d = pool[ptr]
            ptr += 1
            if d >= 2:
                c = next_internal
                next_internal += 1
                heapq.heappush(heap, (-d, c))
            else:
                c = next_leaf
                next_leaf += 1
            edges.append((u, c))
    return edges


def reference_subtree_property(tree: Tree, d: int) -> bool:
    """Search the vertices of degree >= d from one of them."""
    members = {v for v in range(tree.n) if tree.degree(v) >= d}
    if not members:
        return True
    start = min(members)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in tree.neighbors(v):
            if w in members and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == members


def reference_leaf_levels(tree: Tree) -> list[int]:
    """Distance to the nearest pendant vertex, relaxed over the edges until stable."""
    level = [0 if tree.degree(v) <= 1 else tree.n for v in range(tree.n)]
    changed = True
    while changed:
        changed = False
        for u, v in tree.edges:
            for a, b in ((u, v), (v, u)):
                if level[b] + 1 < level[a]:
                    level[a] = level[b] + 1
                    changed = True
    return level


class TestBuildGreedyTree:
    def test_star(self):
        t = build_greedy_tree((3,)).tree
        assert t.edges == ((0, 1), (0, 2), (0, 3))

    def test_empty_is_k2(self):
        rt = build_greedy_tree(())
        assert rt.tree.edges == ((0, 1),)
        assert rt.bfs_order == (0, 1)

    def test_three_two(self):
        t = build_greedy_tree((3, 2)).tree
        assert t.edges == ((0, 1), (0, 2), (0, 3), (1, 4))

    def test_three_three_two(self):
        t = build_greedy_tree((3, 3, 2)).tree
        assert t.edges == ((0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6))

    def test_four_three_two(self):
        t = build_greedy_tree((4, 3, 2)).tree
        assert t.edges == (
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 5),
            (1, 6),
            (2, 7),
        )

    def test_pendant_entries_dropped(self):
        assert build_greedy_tree((3, 2, 1, 1)).tree == build_greedy_tree((3, 2)).tree

    def test_deterministic(self):
        a = build_greedy_tree((4, 4, 3, 2, 2))
        b = build_greedy_tree((4, 4, 3, 2, 2))
        assert a.tree == b.tree
        assert a.bfs_order == b.bfs_order

    def test_matches_heap_reference_up_to_16_vertices(self):
        for seq in sweep_sequences(16):
            expected = Tree(seq.total_vertices(), reference_greedy_edges(seq))
            assert build_greedy_tree(seq).tree == expected, seq

    @given(seq=st.lists(st.integers(2, 12), max_size=25).map(DegreeSequence.normalize))
    def test_matches_heap_reference(self, seq):
        expected = Tree(seq.total_vertices(), reference_greedy_edges(seq))
        assert build_greedy_tree(seq).tree == expected

    @given(seq=small_sequences)
    def test_internal_degree_round_trip(self, seq):
        assert build_greedy_tree(seq).tree.internal_degree_sequence() == seq

    @given(seq=small_sequences)
    def test_labels_are_bfs_order(self, seq):
        rt = build_greedy_tree(seq)
        assert rt.bfs_order == tuple(range(rt.tree.n))

    @given(seq=small_sequences)
    def test_degrees_non_increasing_by_label(self, seq):
        degs = build_greedy_tree(seq).tree.degrees()
        k = len(seq)
        internal = degs[:k]
        assert all(a >= b for a, b in zip(internal, internal[1:]))
        assert all(d == 1 for d in degs[k:])

    @given(seq=small_sequences)
    def test_parent_map_consistent(self, seq):
        rt = build_greedy_tree(seq)
        assert rt.parent[rt.root] == -1
        for child, parent in enumerate(rt.parent):
            if child != rt.root:
                assert (min(child, parent), max(child, parent)) in rt.tree.edges
                assert child in rt.children[parent]
        assert len(rt.parent) == len(rt.children) == rt.tree.n


class TestRootedTree:
    def test_from_tree_path(self):
        rt = RootedTree.from_tree(path(4), root=0)
        assert rt.bfs_order == (0, 1, 2, 3)
        assert rt.parent == (-1, 0, 1, 2)
        assert rt.children == ((1,), (2,), (3,), ())

    def test_from_tree_interior_root(self):
        rt = RootedTree.from_tree(path(4), root=1)
        assert rt.bfs_order == (1, 0, 2, 3)
        assert rt.parent == (1, -1, 1, 2)
        assert rt.children == ((), (0, 2), (3,), ())

    def test_root_out_of_range(self):
        with pytest.raises(ValueError):
            RootedTree.from_tree(path(3), root=5)


class TestPathCondition:
    def test_greedy_trees_pass(self):
        for seq in sweep_sequences(8):
            assert check_path_condition(build_greedy_tree(seq).tree)

    def test_chain_fails_with_witness(self):
        t = chain_3_2_3()
        assert not check_path_condition(t)
        w = find_path_violation(t)
        assert w == PathWitness(first=3, second=0, second_last=2, last=1)
        deg = t.degrees()
        assert deg[w.first] < deg[w.last]
        assert deg[w.second] > deg[w.second_last]

    def test_p4_passes(self):
        assert check_path_condition(path(4))

    def test_p5_passes(self):
        assert check_path_condition(path(5))


class TestSubtreeProperty:
    def test_greedy_deg3_connected(self):
        assert check_subtree_property(build_greedy_tree((3, 3, 2)).tree, 3)

    def test_chain_deg3_disconnected(self):
        assert not check_subtree_property(chain_3_2_3(), 3)

    def test_threshold_one_whole_tree(self):
        assert check_subtree_property(chain_3_2_3(), 1)

    def test_empty_set_passes(self):
        assert check_subtree_property(path(4), 99)

    def test_greedy_all_thresholds(self):
        t = build_greedy_tree((4, 3, 3, 2)).tree
        for d in range(2, 5):
            assert check_subtree_property(t, d)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            check_subtree_property(path(3), 0)

    @settings(max_examples=200)
    @given(tree=prufer_trees())
    def test_matches_search_reference_at_every_threshold(self, tree):
        for d in range(1, max(tree.degrees()) + 2):
            assert check_subtree_property(tree, d) == reference_subtree_property(tree, d)


class TestLevelMonotonicity:
    def test_leaf_levels_p6(self):
        assert leaf_levels(path(6)) == [0, 1, 2, 2, 1, 0]

    def test_leaf_levels_single_vertex(self):
        assert leaf_levels(Tree(1, [])) == [0]

    @settings(max_examples=200)
    @given(tree=prufer_trees())
    def test_leaf_levels_match_relaxation_reference(self, tree):
        assert leaf_levels(tree) == reference_leaf_levels(tree)

    def test_star(self):
        assert check_level_monotonicity(build_greedy_tree((4,)).tree)

    def test_p6(self):
        assert check_level_monotonicity(path(6))

    def test_greedy_four_three_two(self):
        assert check_level_monotonicity(build_greedy_tree((4, 3, 2)).tree)

    def test_chain_fails(self):
        # The middle degree-2 vertex sits above the degree-3 vertices.
        assert not check_level_monotonicity(chain_3_2_3())

    def test_accepts_bare_tree(self):
        assert check_level_monotonicity(path(4))

    def test_greedy_trees_pass(self):
        for seq in sweep_sequences(8):
            assert check_level_monotonicity(build_greedy_tree(seq).tree)
