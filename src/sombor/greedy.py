"""Greedy tree construction and the structural predicates it satisfies.

The greedy tree for an internal degree sequence hands out the largest
remaining degrees level by level from a maximum-degree root, always
expanding the labeled vertex of largest degree first.  Among trees
realizing the sequence it minimizes the Sombor index; the predicates
below (path condition, subtree property, level monotonicity) are the
structural fingerprints of that minimality.

The path-condition scan first decides, for every vertex v1 at once,
whether some violating path starts there: v1 does iff a neighbour v2
has, beyond it, an edge (u, x) with u nearer to v2, u != v2,
d(u) < d(v2) and d(x) > d(v1).  The (d(u), d(x)) pairs met beyond each
directed edge form a D x D bitset over the D distinct internal
degrees, held in one Python int; a bottom-up and a top-down pass over
a BFS order (rerooting) fill them all, so the flags cost
O(n * D^2 / 64) word operations.  The violations themselves then come
from one BFS per flagged vertex, in ascending order, so finding the
first costs the flag pass and a single BFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

from .degrees import DegreeSequence
from .tree import Tree


@dataclass(frozen=True, eq=False)
class RootedTree:
    """A tree plus a distinguished root and its BFS layering.

    parent and children are indexed by vertex; parent[root] == -1.
    Built only by from_tree.
    """

    tree: Tree
    root: int
    parent: tuple[int, ...]
    bfs_order: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]

    @classmethod
    def from_tree(cls, tree: Tree, root: int = 0) -> "RootedTree":
        """Root an existing tree; children are visited in ascending label order."""
        order, parent = tree.bfs(root)
        kids = (tuple(w for w in tree.neighbors(v) if w != parent[v]) for v in range(tree.n))
        return cls(tree, root, tuple(parent), tuple(order), tuple(kids))


def build_greedy_tree(seq: DegreeSequence | Iterable[int]) -> RootedTree:
    """Construct the greedy tree for an internal degree sequence, rooted at 0.

    The root gets degree d1; each expanded vertex hands the largest
    remaining degrees to its children in non-increasing order, and the
    vertex with the largest degree (lowest label on ties) is expanded
    next.  Internal vertices are labeled 0..k-1 in assignment order,
    leaves k..n-1.  Labels are handed out in BFS order, so rooting the
    tree at 0 gives back the construction's layering.  The empty
    sequence yields K2.

    Degrees fall with the label, so vertices are expanded in label
    order and vertex c >= 1 hangs off the owner of the c-th child slot:
    the root owns d1 slots, every other internal vertex d - 1.
    """
    seq = DegreeSequence.normalize(seq)
    if not seq:
        return RootedTree.from_tree(Tree(2, [(0, 1)]))
    owners = [0] * seq[0]
    for u, d in enumerate(seq.entries[1:], 1):
        owners += [u] * (d - 1)
    n = seq.total_vertices()
    return RootedTree.from_tree(Tree(n, zip(owners, range(1, n))))


class PathWitness(NamedTuple):
    """A path v1..vt violating the path condition.

    d(first) < d(last) but d(second) > d(second_last); second and
    second_last are the path neighbors of the endpoints.
    """

    first: int
    second: int
    second_last: int
    last: int


def _union(a: int, b: int) -> int:
    """a | b, returning an operand itself when it already holds every bit.

    Equal tables, such as those along a chain, then share one int.
    """
    c = a | b
    if c == a:
        return a
    return b if c == b else c


def _violation_starts(tree: Tree, deg: tuple[int, ...]) -> list[int]:
    """Every vertex that starts some path violation, ascending.

    Uses the criterion in the module docstring.  Both u and x are
    internal (d(x) = 1 never exceeds d(v1)), so the tables live on the
    tree of internal vertices: for each directed edge (p -> c) of it,
    the (d(u), d(x)) pairs over the edges (u, x) on c's side, u nearer
    to c, as a D x D bitset over the ranks of the internal degrees.
    The bottom-up pass gives the tables pointing away from the root;
    the top-down pass reroots them, leaving out each neighbour's own
    term by prefix and suffix ORs, and frees each table once consumed.
    Pairs from v2's own edges have d(u) = d(v2), so the query mask,
    rows below rank d(v2) and columns above d(v1), ignores them; a leaf
    v1 adds no term, so its table is the union of all of v2's.
    """
    n = tree.n
    levels = sorted({d for d in deg if d >= 2})
    D = len(levels)
    if D < 2:
        # d(u) < d(v2) needs two distinct internal degrees.
        return []
    rank_of = {d: i for i, d in enumerate(levels)}
    rank = [rank_of.get(d, -1) for d in deg]
    # (v1 -> v2) starts a violation iff its table meets
    # rows[rank v2] & cols[rank v1 + 1]; a leaf's rank is -1.
    rows = [(1 << r * D) - 1 for r in range(D)]
    every_row = sum(1 << r * D for r in range(D))
    cols = [((1 << D) - (1 << k)) * every_row for k in range(D + 1)]

    # Internal vertices induce a subtree, so a whole-tree walk from an
    # internal root gives them the parents of a walk confined to it.
    order, parent = tree.bfs(rank.index(0))
    order = [v for v in order if rank[v] >= 0]
    kids = {v: [w for w in tree.neighbors(v) if w != parent[v] and rank[w] >= 0] for v in order}
    flagged = [False] * n

    # Bottom-up: down[c] is the table of (parent[c] -> c).
    down = [0] * n
    for c in order[:0:-1]:
        acc = own = 0
        for w in kids[c]:
            own |= 1 << rank[w]
            acc = _union(acc, down[w])
        rc = rank[c]
        p = parent[c]
        if acc & rows[rc] & cols[rank[p] + 1]:
            flagged[p] = True
        down[c] = _union(acc, own << rc * D)

    # Top-down: up[c] is the table of (c -> parent[c]).
    up = [0] * n
    for v in order:
        rv = rank[v]
        row = rows[rv]
        base = rv * D
        ks = kids[v]
        p = parent[v]
        terms = []
        for w in ks:
            terms.append(_union(down[w], 1 << base + rank[w]))
            down[w] = 0
        if p >= 0:
            terms.append(_union(up[v], 1 << base + rank[p]))
            up[v] = 0
        m = len(terms)
        suffix = [0] * (m + 1)
        for j in range(m - 1, -1, -1):
            suffix[j] = _union(terms[j], suffix[j + 1])
        if m < deg[v] and suffix[0] & row & cols[0]:
            for w in tree.neighbors(v):
                if rank[w] < 0:
                    flagged[w] = True
        prefix = 0
        for j, w in enumerate(ks):
            table = up[w] = _union(prefix, suffix[j + 1])
            if table & row & cols[rank[w] + 1]:
                flagged[w] = True
            prefix = _union(prefix, terms[j])
    return [v for v in range(n) if flagged[v]]


def iter_path_violations(tree: Tree) -> Iterator[PathWitness]:
    """Yield all path-condition violations, lexicographic by (first, last).

    One pass over per-edge bitsets of (d(u), d(x)) pairs flags every
    vertex that starts a violation (see the module docstring), in
    O(n * D^2 / 64) word operations for D distinct internal degrees.
    Only flagged first endpoints get a BFS, which gives every other
    vertex its path predecessor and the second vertex on the path, so
    each ordered pair is inspected in O(1).  Finding the first
    violation, or none, costs the flag pass plus at most one BFS.
    """
    deg = tree.degrees()
    n = tree.n
    for v1 in _violation_starts(tree, deg):
        order, parent = tree.bfs(v1)
        dist = [0] * n
        second = [-1] * n
        for w in order[1:]:
            p = parent[w]
            dist[w] = dist[p] + 1
            second[w] = w if p == v1 else second[p]
        for vt in range(n):
            if dist[vt] >= 3 and deg[v1] < deg[vt] and deg[second[vt]] > deg[parent[vt]]:
                yield PathWitness(v1, second[vt], parent[vt], vt)


def find_path_violation(tree: Tree) -> Optional[PathWitness]:
    """First path-condition violation in scan order, or None."""
    return next(iter_path_violations(tree), None)


def check_path_condition(tree: Tree) -> bool:
    """True iff every path v1..vt (t >= 4) with d(v1) < d(vt) has d(v2) <= d(v_{t-1})."""
    return find_path_violation(tree) is None


def check_subtree_property(tree: Tree, d: int) -> bool:
    """True iff the vertices of degree >= d induce a connected subgraph or none exist."""
    if d < 1:
        raise ValueError(f"degree threshold must be >= 1, got {d}")
    # An induced subgraph of a tree is a forest, so it is connected
    # iff it has one edge fewer than vertices.
    deg = tree.degrees()
    members = sum(x >= d for x in deg)
    inner = sum(deg[u] >= d and deg[v] >= d for u, v in tree.edges)
    return members == 0 or inner == members - 1


def leaf_levels(tree: Tree) -> list[int]:
    """Level of each vertex: minimum distance to a pendant vertex."""
    pendant = [v for v in range(tree.n) if tree.degree(v) <= 1]
    order, parent = tree.bfs(*pendant)
    level = [0] * tree.n
    for v in order[len(pendant):]:
        level[v] = level[parent[v]] + 1
    return level


def check_level_monotonicity(tree: Tree) -> bool:
    """True iff max degree in level set L_i <= min degree in L_{i+1} for all i."""
    level = leaf_levels(tree)
    top = max(level)
    lo = [float("inf")] * (top + 1)
    hi = [float("-inf")] * (top + 1)
    for v in range(tree.n):
        d = tree.degree(v)
        lo[level[v]] = min(lo[level[v]], d)
        hi[level[v]] = max(hi[level[v]], d)
    return all(hi[i] <= lo[i + 1] for i in range(top))
