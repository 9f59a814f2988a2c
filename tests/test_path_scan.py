"""The path-condition scan against an independent brute force, and on
trees too large for a quadratic scan.

The reference walks the explicit tree path of every ordered pair on
its own, sharing no traversal between pairs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from sombor.greedy import (
    PathWitness,
    _violation_starts,
    build_greedy_tree,
    check_path_condition,
    find_path_violation,
    iter_path_violations,
)
from sombor.oracle import prufer_decode, sweep_sequences
from sombor.swaps import find_improving_swap, swap_from_witness
from sombor.tree import Tree


def tree_path(tree: Tree, a: int, b: int) -> list[int]:
    """The vertices of the unique a..b path, found by a search from a."""
    back = {a: a}
    stack = [a]
    while b not in back:
        v = stack.pop()
        for w in tree.neighbors(v):
            if w not in back:
                back[w] = v
                stack.append(w)
    path = [b]
    while path[-1] != a:
        path.append(back[path[-1]])
    return path[::-1]


def reference_violations(tree: Tree) -> list[PathWitness]:
    deg = tree.degrees()
    found = []
    for v1 in range(tree.n):
        for vt in range(tree.n):
            if deg[v1] >= deg[vt]:
                continue
            p = tree_path(tree, v1, vt)
            if len(p) >= 4 and deg[p[1]] > deg[p[-2]]:
                found.append(PathWitness(v1, p[1], p[-2], vt))
    return found


def assert_matches_reference(tree: Tree) -> None:
    expected = reference_violations(tree)
    assert list(iter_path_violations(tree)) == expected
    # Only vertices that start a violation get a BFS.
    assert _violation_starts(tree, tree.degrees()) == sorted(
        {w.first for w in expected}
    )
    swap = find_improving_swap(tree)
    if expected:
        assert swap == swap_from_witness(tree, expected[0])
    else:
        assert swap is None


@st.composite
def prufer_trees(draw, max_n=40):
    n = draw(st.integers(1, max_n))
    if n == 1:
        return Tree(1, [])
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_decode(code, n)


class TestAgainstBruteForce:
    @settings(max_examples=150)
    @given(tree=prufer_trees())
    def test_random_trees(self, tree):
        assert_matches_reference(tree)

    def test_every_small_greedy_tree(self):
        for seq in sweep_sequences(9):
            tree = build_greedy_tree(seq).tree
            assert reference_violations(tree) == []
            assert_matches_reference(tree)

    def test_stars_paths_and_tiny_trees(self):
        trees = [Tree(1, []), Tree(2, [(0, 1)])]
        for n in range(3, 12):
            trees.append(Tree(n, [(0, i) for i in range(1, n)]))
            trees.append(Tree(n, [(i, i + 1) for i in range(n - 1)]))
        for tree in trees:
            assert_matches_reference(tree)


class TestLargeTrees:
    """Trees on which one BFS per vertex would take minutes to hours."""

    def test_huge_star(self):
        star = Tree(200_001, [(0, i) for i in range(1, 200_001)])
        assert check_path_condition(star)

    def test_large_greedy_tree(self):
        seq = [2 + i % 5 for i in range(7000)]
        tree = build_greedy_tree(seq).tree
        assert tree.n >= 20_000
        assert check_path_condition(tree)

    def test_caterpillar_on_a_long_path(self):
        # Path vertices 0..19999, vertex 19999 its free end; spine hubs
        # 20000..20059 of degrees 3..62, hub 20000 joined to vertex 0;
        # then the hubs' pendant vertices, hub by hub.  No path vertex
        # or hub starts a violation, so the first start is the pendant
        # vertex 20060 of hub 20000, whose nearest partner is vertex 1.
        edges = [(k, k + 1) for k in range(19_999)] + [(20_000, 0)]
        leaf = 20_060
        for i in range(60):
            hub = 20_000 + i
            if i:
                edges.append((hub - 1, hub))
            for _ in range(i + 3 - (1 if i == 59 else 2)):
                edges.append((hub, leaf))
                leaf += 1
        tree = Tree(leaf, edges)
        assert len({d for d in tree.degrees() if d >= 2}) == 61
        assert find_path_violation(tree) == PathWitness(20_060, 20_000, 0, 1)
