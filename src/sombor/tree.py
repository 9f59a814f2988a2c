"""Labeled trees on vertices 0..n-1 and degree-based indices.

A Tree is validated on construction and immutable afterwards.  Edges are
stored sorted with each pair normalized to (min, max), so equal trees
compare equal and every traversal below is deterministic.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, insort
from typing import Callable, Iterable

from .degrees import DegreeSequence
from .errors import InvalidTreeError
from .weights import edge_weight

Edge = tuple[int, int]
WeightFunction = Callable[[int, int], float]


class Tree:
    """A labeled simple tree on vertices 0..n-1."""

    __slots__ = ("n", "edges", "_adj", "_deg")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        # type() rather than isinstance(): bool is an int subclass.
        if type(n) is not int:
            raise InvalidTreeError(f"vertex count must be an int, got {n!r}")
        if n < 1:
            raise InvalidTreeError(f"need at least one vertex, got n={n}")
        edges = list(edges)
        # Checked before any O(n) allocation, so a huge declared n with
        # few edges fails at once.  Fewer than n-1 edges cannot connect.
        if len(edges) < n - 1:
            raise InvalidTreeError(
                f"wrong edge count: expected {n - 1}, got {len(edges)}; "
                "not connected"
            )
        norm: list[Edge] = []
        # Union-find: more than n-1 edges always close a cycle, and n-1
        # edges without one connect all n vertices, so the loop below
        # finds every remaining defect.  A repeated edge finds its
        # endpoints already joined, so it is told apart from a cycle there.
        root = list(range(n))

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise InvalidTreeError(f"vertex labels must be ints, got ({u!r}, {v!r})")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidTreeError(
                    f"vertex label out of range in edge ({u}, {v}) for n={n}"
                )
            if u == v:
                raise InvalidTreeError(f"cycle detected: self-loop at {u}")
            e = (u, v) if u < v else (v, u)
            ru, rv = find(u), find(v)
            if ru == rv:
                if e in norm:
                    raise InvalidTreeError(f"duplicate edge {e}")
                raise InvalidTreeError(f"cycle detected: edge {e} closes a cycle")
            root[ru] = rv
            norm.append(e)
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(sorted(norm))
        # Sorted edges append each vertex's neighbours in ascending order.
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self._deg: tuple[int, ...] = tuple(map(len, adj))

    def _swapped(self, removed: Iterable[Edge], added: Iterable[Edge]) -> "Tree":
        """This tree with the removed edges swapped for the added ones, unvalidated.

        For degree-preserving moves whose result is known to be a tree,
        such as an improving swap built from one of this tree's paths:
        edges are normalized, each removed edge is present, and every
        vertex loses as many edges as it gains, so the degrees are shared.
        """
        edges = list(self.edges)
        adj = list(self._adj)
        touched: dict[int, list[int]] = {}
        for u, v in removed:
            del edges[bisect_left(edges, (u, v))]
            for a, b in ((u, v), (v, u)):
                nbrs = touched.setdefault(a, list(adj[a]))
                del nbrs[bisect_left(nbrs, b)]
        for u, v in added:
            insort(edges, (u, v))
            for a, b in ((u, v), (v, u)):
                insort(touched.setdefault(a, list(adj[a])), b)
        for a, nbrs in touched.items():
            adj[a] = tuple(nbrs)
        out = object.__new__(type(self))
        out.n = self.n
        out.edges = tuple(edges)
        out._adj = tuple(adj)
        out._deg = self._deg
        return out

    # -- structure ---------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> tuple[int, ...]:
        return self._deg

    def bfs(self, *roots: int) -> tuple[list[int], list[int]]:
        """Breadth-first order from the given distinct roots, and each vertex's parent.

        Neighbours are visited in ascending label order; parent is -1 at
        each root.  Several roots give one walk that starts from all of them.
        """
        n = self.n
        parent = [-2] * n
        for r in roots:
            if not 0 <= r < n:
                raise ValueError(f"root {r} out of range for n={n}")
            parent[r] = -1
        order = list(roots)
        adj = self._adj
        for v in order:
            for w in adj[v]:
                if parent[w] == -2:
                    parent[w] = v
                    order.append(w)
        return order, parent

    def is_pendant(self, v: int) -> bool:
        return self.degree(v) == 1

    def internal_degree_sequence(self) -> DegreeSequence:
        return DegreeSequence.normalize(d for d in self.degrees() if d >= 2)

    def relabel(self, mapping: dict[int, int] | list[int]) -> "Tree":
        """Return the tree with vertex v renamed to mapping[v]."""
        if isinstance(mapping, dict):
            img = [mapping[v] for v in range(self.n)]
        else:
            img = list(mapping)
        if sorted(img) != list(range(self.n)):
            raise InvalidTreeError("relabel mapping is not a bijection on 0..n-1")
        return Tree(self.n, [(img[u], img[v]) for u, v in self.edges])

    # -- indices -----------------------------------------------------

    def index(self, weight: WeightFunction) -> float:
        """Sum of weight(d(u), d(v)) over all edges uv.

        The weight must be symmetric in its arguments.  fsum keeps the
        total correctly rounded regardless of edge count.
        """
        deg = self.degrees()
        return math.fsum(weight(deg[u], deg[v]) for u, v in self.edges)

    def sombor(self) -> float:
        """Sombor index, sum of sqrt(d(u)^2 + d(v)^2) over edges."""
        return self.index(edge_weight)

    # -- isomorphism -------------------------------------------------

    def centers(self) -> tuple[int, ...]:
        """The one or two middle vertices of the tree."""
        if self.n <= 2:
            return tuple(range(self.n))
        deg = list(self.degrees())
        layer = [v for v in range(self.n) if deg[v] == 1]
        remaining = self.n
        while remaining > 2:
            remaining -= len(layer)
            nxt = []
            for v in layer:
                deg[v] = 0
                for w in self._adj[v]:
                    if deg[w] > 1:
                        deg[w] -= 1
                        if deg[w] == 1:
                            nxt.append(w)
            layer = nxt
        return tuple(sorted(layer))

    def _ahu(self, root: int) -> str:
        order, parent = self.bfs(root)
        enc = [""] * self.n
        for v in reversed(order):
            kids = sorted(enc[w] for w in self._adj[v] if w != parent[v])
            enc[v] = "(" + "".join(kids) + ")"
        return enc[root]

    def canonical_form(self) -> str:
        """Isomorphism-invariant string: AHU encoding rooted at the center.

        Two trees are isomorphic iff their canonical forms are equal.
        """
        return min(self._ahu(c) for c in self.centers())

    # -- serialization -----------------------------------------------

    @classmethod
    def from_edge_list(cls, text: str) -> "Tree":
        """Parse the plain text format: first line n, then one 'u v' per line.

        Blank lines and lines starting with '#' are ignored.
        """
        lines = [
            ln.strip()
            for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")
        ]
        if not lines:
            raise InvalidTreeError("empty edge list input")
        try:
            n = int(lines[0])
        except ValueError:
            raise InvalidTreeError(
                f"first line must be the vertex count, got {lines[0]!r}"
            ) from None
        edges = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise InvalidTreeError(f"malformed edge line {ln!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise InvalidTreeError(f"malformed edge line {ln!r}") from None
        return cls(n, edges)

    def to_edge_list(self) -> str:
        lines = [str(self.n)]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Tree":
        """Parse {"n": int, "edges": [[u, v], ...]}."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidTreeError(f"invalid JSON: {exc}") from None
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise InvalidTreeError('JSON tree needs keys "n" and "edges"')
        edges = obj["edges"]
        if not isinstance(edges, list):
            raise InvalidTreeError('"edges" must be a list')
        pairs = []
        for e in edges:
            if not isinstance(e, list) or len(e) != 2:
                raise InvalidTreeError(f"malformed edge {e!r}")
            pairs.append((e[0], e[1]))
        # The constructor rejects a non-int n or label, JSON booleans included.
        return cls(obj["n"], pairs)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.edges]})

    def to_dot(self, name: str = "tree") -> str:
        lines = [f"graph {name} {{"]
        lines.extend(f"  {u} -- {v};" for u, v in self.edges)
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- dunder ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Tree(n={self.n}, edges={list(self.edges)})"
