"""Unit tests for the labeled tree type and index computation."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sombor.errors import InvalidTreeError
from sombor.oracle import prufer_decode
from sombor.tree import Tree
from sombor.weights import edge_weight


def path(n: int) -> Tree:
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


def star(m: int) -> Tree:
    return Tree(m + 1, [(0, i) for i in range(1, m + 1)])


@st.composite
def random_trees(draw, min_n=2, max_n=12):
    n = draw(st.integers(min_n, max_n))
    if n == 1:
        return Tree(1, [])
    code = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_decode(code, n)


class TestValidation:
    def test_k2_valid(self):
        t = Tree(2, [(0, 1)])
        assert t.edges == ((0, 1),)

    def test_single_vertex(self):
        assert Tree(1, []).sombor() == 0.0

    def test_triangle_is_cycle(self):
        with pytest.raises(InvalidTreeError, match="cycle detected"):
            Tree(3, [(0, 1), (1, 2), (0, 2)])

    def test_disconnected(self):
        with pytest.raises(InvalidTreeError, match="not connected"):
            Tree(4, [(0, 1), (2, 3)])

    def test_huge_n_with_few_edges_fails_before_allocating(self):
        with pytest.raises(InvalidTreeError, match="wrong edge count"):
            Tree(10**6, [(0, 1)])

    def test_duplicate_edge(self):
        with pytest.raises(InvalidTreeError, match=r"duplicate edge \(0, 1\)"):
            Tree(3, [(0, 1), (1, 0), (1, 2)])
        # Reversed, after other edges, with more than n-1 edges.
        with pytest.raises(InvalidTreeError, match=r"duplicate edge \(1, 2\)"):
            Tree(4, [(0, 1), (1, 2), (2, 3), (2, 1)])

    def test_self_loop(self):
        with pytest.raises(InvalidTreeError, match="cycle detected"):
            Tree(2, [(0, 0)])

    def test_label_out_of_range(self):
        with pytest.raises(InvalidTreeError, match="out of range"):
            Tree(3, [(0, 1), (1, 3)])

    def test_no_vertices(self):
        with pytest.raises(InvalidTreeError):
            Tree(0, [])

    def test_edge_order_normalized(self):
        assert Tree(3, [(2, 1), (1, 0)]) == Tree(3, [(0, 1), (1, 2)])

    @pytest.mark.parametrize(
        "n, edges",
        [
            (True, []),
            (3, [(0, True), (True, 2)]),
            (3.0, [(0, 1), (1, 2)]),
            ("3", []),
            (3, [(0, 1.0), (1, 2)]),
            (None, []),
        ],
        ids=["bool-n", "bool-labels", "float-n", "str-n", "float-label", "none-n"],
    )
    def test_non_int_rejected(self, n, edges):
        with pytest.raises(InvalidTreeError, match="must be (an int|ints)"):
            Tree(n, edges)


class TestStructure:
    def test_degrees_k2(self):
        assert Tree(2, [(0, 1)]).degrees() == (1, 1)

    def test_degrees_star(self):
        assert star(3).degrees() == (3, 1, 1, 1)

    def test_degrees_path(self):
        assert path(4).degrees() == (1, 2, 2, 1)

    def test_neighbors_sorted(self):
        t = Tree(4, [(0, 3), (0, 1), (0, 2)])
        assert t.neighbors(0) == (1, 2, 3)

    @given(t=random_trees(min_n=1))
    def test_every_neighbor_tuple_ascending(self, t):
        for v in range(t.n):
            assert list(t.neighbors(v)) == sorted(t.neighbors(v))

    def test_internal_degree_sequence(self):
        assert path(4).internal_degree_sequence().entries == (2, 2)
        assert star(3).internal_degree_sequence().entries == (3,)

    @given(t=random_trees())
    def test_handshake(self, t):
        assert sum(t.degrees()) == 2 * len(t.edges)

    def test_relabel(self):
        t = path(3).relabel([2, 1, 0])
        assert t.edges == ((0, 1), (1, 2))

    def test_relabel_rejects_non_bijection(self):
        with pytest.raises(InvalidTreeError):
            path(3).relabel([0, 0, 1])

    def test_equality_and_hash(self):
        assert len({path(4), Tree(4, [(2, 3), (1, 2), (0, 1)])}) == 1


class TestBfs:
    def test_path_from_interior(self):
        assert path(4).bfs(1) == ([1, 0, 2, 3], [1, -1, 1, 2])

    def test_neighbors_ascending(self):
        t = Tree(5, [(0, 4), (0, 2), (0, 3), (3, 1)])
        assert t.bfs(0) == ([0, 2, 3, 4, 1], [-1, 3, 0, 0, 0])

    def test_several_roots(self):
        assert path(6).bfs(0, 5) == ([0, 5, 1, 4, 2, 3], [-1, 0, 1, 4, 5, -1])

    def test_root_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            path(3).bfs(3)
        with pytest.raises(ValueError, match="out of range"):
            path(3).bfs(-1)

    @given(data=st.data(), t=random_trees(min_n=1))
    def test_walk_properties(self, data, t):
        roots = data.draw(
            st.lists(st.integers(0, t.n - 1), min_size=1, max_size=3, unique=True)
        )
        order, parent = t.bfs(*roots)
        assert sorted(order) == list(range(t.n))
        assert order[: len(roots)] == roots
        assert [v for v in range(t.n) if parent[v] == -1] == sorted(roots)
        pos = {v: i for i, v in enumerate(order)}
        depth = [0] * t.n
        for v in order[len(roots):]:
            p = parent[v]
            assert pos[p] < pos[v]
            assert p in t.neighbors(v)
            depth[v] = depth[p] + 1
        assert all(depth[a] <= depth[b] for a, b in zip(order, order[1:]))
        # Each vertex's children follow one another in ascending order.
        for v in range(t.n):
            at = [pos[w] for w in range(t.n) if parent[w] == v]
            if at:
                assert at == list(range(at[0], at[0] + len(at)))


class TestIndices:
    def test_sombor_k2(self):
        assert Tree(2, [(0, 1)]).sombor() == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_sombor_star_closed_form(self):
        assert star(3).sombor() == pytest.approx(3 * math.sqrt(10), abs=1e-12)
        assert star(3).sombor() == pytest.approx(9.486832980505138, abs=1e-12)

    def test_sombor_path_closed_form(self):
        assert path(4).sombor() == pytest.approx(
            2 * math.sqrt(5) + 2 * math.sqrt(2), abs=1e-12
        )
        assert path(4).sombor() == pytest.approx(7.3005630797457695, abs=1e-12)

    def test_index_constant_weight_counts_edges(self):
        t = path(6)
        assert t.index(lambda x, y: 1.0) == len(t.edges)

    def test_index_second_zagreb_p4(self):
        assert path(4).index(lambda x, y: x * y) == 8

    @given(t=random_trees())
    def test_sombor_equals_index_exactly(self, t):
        assert t.sombor() == t.index(edge_weight)

    @given(t=random_trees(min_n=3))
    def test_sombor_lower_bound_strict_above_k2(self, t):
        assert t.sombor() > (t.n - 1) * math.sqrt(2)

    @given(data=st.data(), t=random_trees())
    def test_sombor_isomorphism_invariant(self, data, t):
        perm = data.draw(st.permutations(range(t.n)))
        relabeled = t.relabel(list(perm))
        assert relabeled.sombor() == pytest.approx(t.sombor(), abs=1e-12)
        assert relabeled.canonical_form() == t.canonical_form()


class TestCanonicalForm:
    def test_relabeled_path_equal(self):
        # The path 3-1-0-2 is P4 with shuffled labels.
        other = Tree(4, [(3, 1), (1, 0), (0, 2)])
        assert other.canonical_form() == path(4).canonical_form()

    def test_path_differs_from_star(self):
        assert path(4).canonical_form() != star(3).canonical_form()

    def test_reflexive(self):
        t = star(5)
        assert t.canonical_form() == t.canonical_form()

    def test_centers_of_path(self):
        assert path(4).centers() == (1, 2)
        assert path(5).centers() == (2,)

    def test_centers_of_k2(self):
        assert Tree(2, [(0, 1)]).centers() == (0, 1)


class TestSerialization:
    def test_edge_list_round_trip(self):
        t = star(4)
        assert Tree.from_edge_list(t.to_edge_list()) == t

    def test_edge_list_ignores_comments_and_blanks(self):
        text = "# a star\n4\n\n0 1\n0 2\n# middle\n0 3\n"
        assert Tree.from_edge_list(text) == star(3)

    @pytest.mark.parametrize(
        "text", ["", "x\n0 1", "3\n0 1 2\n1 2", "3\n0 one\n1 2"]
    )
    def test_edge_list_malformed(self, text):
        with pytest.raises(InvalidTreeError):
            Tree.from_edge_list(text)

    def test_json_round_trip(self):
        t = path(5)
        assert Tree.from_json(t.to_json()) == t
        obj = json.loads(t.to_json())
        assert obj["n"] == 5
        assert obj["edges"] == [[0, 1], [1, 2], [2, 3], [3, 4]]

    @pytest.mark.parametrize(
        "text",
        ['{"n": 2}', "[1,2]", "not json", '{"n": "2", "edges": []}', '{"n": 3, "edges": [[0]]}'],
    )
    def test_json_malformed(self, text):
        with pytest.raises(InvalidTreeError):
            Tree.from_json(text)

    def test_json_edges_not_a_list_blames_edges_only(self):
        with pytest.raises(InvalidTreeError) as excinfo:
            Tree.from_json('{"n": 3, "edges": "x"}')
        assert str(excinfo.value) == '"edges" must be a list'

    @pytest.mark.parametrize(
        "text",
        ['{"n": true, "edges": []}', '{"n": 3, "edges": [[0, true], [true, 2]]}'],
        ids=["n", "labels"],
    )
    def test_json_booleans_are_not_ints(self, text):
        with pytest.raises(InvalidTreeError):
            Tree.from_json(text)

    def test_dot_output(self):
        dot = star(2).to_dot()
        assert dot == "graph tree {\n  0 -- 1;\n  0 -- 2;\n}\n"

    def test_repr_round_trips_through_eval_shape(self):
        t = path(3)
        assert repr(t) == "Tree(n=3, edges=[(0, 1), (1, 2)])"
