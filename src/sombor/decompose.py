"""Recursive strip/attach decomposition with exact incremental values.

A path-condition tree T with internal degrees (d_1 >= ... >= d_k) peels
down to the star K_{1,d_1}: each step removes the pendant children of a
minimum-degree internal vertex whose children are all pendant, demoting
it to a pendant vertex.  Replayed forward with `attach`, each step adds
a known amount to the Sombor index, so the whole value rebuilds from
the star's d_1 * sqrt(d_1^2 + 1) by pure arithmetic.

The whole strip sequence comes from one BFS, in O(n log n).  The root,
the first vertex of maximum degree, never changes: no degree grows, so
it stays the first maximum, and it is stripped only as the last
internal vertex.  Removing leaves keeps every other parent, child and
BFS position, and compacting labels keeps their order, so a stripped
vertex's new label is its old one less the removed labels below it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .degrees import DegreeSequence
from .greedy import RootedTree, find_path_violation
from .tree import Tree
from .weights import edge_weight


@dataclass(frozen=True)
class DecompositionStep:
    """One attach step T_{t-1} -> T_t of the rebuild direction."""

    index_t: int
    attached_at: int
    parent_degree: int
    added_leaves: int
    delta: float

    @property
    def attached_degree(self) -> int:
        return self.added_leaves + 1


def incremental_sombor(so_prev: float, d_t: int, d_p: int) -> float:
    """Index after attaching d_t - 1 pendant children to a pendant vertex.

    The promoted vertex gains degree d_t next to a degree-d_p neighbor:
    so_prev + (d_t - 1)sqrt(d_t^2 + 1) + sqrt(d_t^2 + d_p^2) - sqrt(d_p^2 + 1).
    """
    if d_t < 2:
        raise ValueError(f"attached degree must be >= 2, got {d_t}")
    if d_p < 1:
        raise ValueError(f"parent degree must be >= 1, got {d_p}")
    return (
        so_prev
        + (d_t - 1) * edge_weight(d_t, 1)
        + edge_weight(d_t, d_p)
        - edge_weight(d_p, 1)
    )


def base_value(seq: DegreeSequence | Iterable[int]) -> float:
    """Sombor value of the decomposition base: K_{1,d_1}, or K2 when empty."""
    seq = DegreeSequence.normalize(seq)
    if len(seq) == 0:
        return edge_weight(1, 1)
    return seq[0] * edge_weight(seq[0], 1)


def attach(tprev: Tree, v: int, d_t: int) -> Tree:
    """Add d_t - 1 pendant children (fresh top labels) to pendant vertex v."""
    if d_t < 2:
        raise ValueError(f"attached degree must be >= 2, got {d_t}")
    if not 0 <= v < tprev.n or not tprev.is_pendant(v):
        raise ValueError(f"vertex {v} is not a pendant vertex")
    n = tprev.n
    edges = list(tprev.edges) + [(v, n + i) for i in range(d_t - 1)]
    return Tree(n + d_t - 1, edges)


def _require_path_condition(tree: Tree) -> None:
    witness = find_path_violation(tree)
    if witness is not None:
        raise ValueError(
            f"path condition violated: path {witness.first}..{witness.last} "
            f"has endpoint neighbors {witness.second}, {witness.second_last}"
        )


def _strip_schedule(
    tree: Tree,
) -> Iterator[tuple[int, Optional[int], tuple[int, ...], int]]:
    """Every strip step of `tree` in order, ending with the star -> K2 step.

    Yields (degree of the stripped vertex, its parent's degree or None
    for the root, the original labels removed, the vertex's label once
    all removals so far are compacted).  A vertex is ready once all its
    children are pendant; each step takes the ready vertex of least
    degree, deepest in BFS order on ties, which must also have the least
    degree of all internal vertices left.
    """
    deg = tree.degrees()
    rooted = RootedTree.from_tree(tree, deg.index(max(deg)))
    pos = {v: i for i, v in enumerate(rooted.bfs_order)}
    internal = [v for v in range(tree.n) if deg[v] >= 2]
    waiting = {v: sum(deg[c] >= 2 for c in rooted.children[v]) for v in internal}
    ready = [(deg[v], -pos[v], v) for v in internal if waiting[v] == 0]
    heapq.heapify(ready)
    removed_below = [0] * (tree.n + 1)  # Fenwick tree over labels 0..n-1
    for d_min in sorted(deg[v] for v in internal):
        d, _, v = heapq.heappop(ready)
        if d != d_min:
            raise ValueError(
                "no strippable vertex: no minimum-degree internal vertex "
                "has all children pendant"
            )
        p = rooted.parent[v]
        # The root keeps one child, so the star strips to K2.
        removed = rooted.children[v][1:] if p < 0 else rooted.children[v]
        for c in removed:
            i = c + 1
            while i <= tree.n:
                removed_below[i] += 1
                i += i & -i
        label, i = v, v
        while i:
            label -= removed_below[i]
            i -= i & -i
        yield d, None if p < 0 else deg[p], removed, label
        if p >= 0:
            waiting[p] -= 1
            if waiting[p] == 0:
                heapq.heappush(ready, (deg[p], -pos[p], p))


def strip_last(tree: Tree) -> Tree:
    """One decomposition step: T_k -> T_{k-1}, labels compacted.

    The stripped vertex is the minimum-degree internal vertex with all
    children pendant, deepest in BFS order from the first maximum-degree
    vertex on ties; a star keeps one leaf and becomes K2.  The input
    must satisfy the path condition, which guarantees a strippable
    vertex.
    """
    _require_path_condition(tree)
    for _, _, removed, _ in _strip_schedule(tree):
        gone = set(removed)
        survivors = [v for v in range(tree.n) if v not in gone]
        relabel = {old: new for new, old in enumerate(survivors)}
        edges = [
            (relabel[u], relabel[v])
            for u, v in tree.edges
            if u not in gone and v not in gone
        ]
        return Tree(len(survivors), edges)
    raise ValueError("no strippable vertex: tree has no internal vertex")


def decompose(tree: Tree) -> list[DecompositionStep]:
    """Full strip sequence T_k -> ... -> T_1, reported in attach order.

    Steps come back ascending in t (2..k); replaying them with
    incremental_sombor from base_value reproduces sombor(T).  Stars and
    K2 decompose in zero steps; a single vertex has no decomposition.
    """
    if tree.n < 2:
        raise ValueError(f"cannot decompose a tree with n={tree.n}: need n >= 2")
    _require_path_condition(tree)
    # The schedule's last step, the star -> K2, is not part of the rebuild.
    schedule = list(_strip_schedule(tree))[:-1]
    steps = [
        DecompositionStep(
            index_t=len(schedule) + 1 - i,
            attached_at=label,
            parent_degree=d_p,
            added_leaves=d_t - 1,
            delta=incremental_sombor(0.0, d_t, d_p),
        )
        for i, (d_t, d_p, _, label) in enumerate(schedule)
    ]
    steps.reverse()
    return steps


def replay_totals(base: float, steps: Iterable[DecompositionStep]) -> list[float]:
    """Running Sombor totals of a replayed decomposition."""
    totals = []
    cur = base
    for s in steps:
        cur = incremental_sombor(cur, s.attached_degree, s.parent_degree)
        totals.append(cur)
    return totals
