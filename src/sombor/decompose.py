"""Recursive strip/attach decomposition with exact incremental values.

A path-condition tree T with internal degrees (d_1 >= ... >= d_k) peels
down to the star K_{1,d_1}: each step removes the pendant children of a
minimum-degree internal vertex whose children are all pendant, demoting
it to a pendant vertex.  Replayed forward with `attach`, each step adds
a known amount to the Sombor index, so the whole value rebuilds from
the star's d_1 * sqrt(d_1^2 + 1) by pure arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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
    if not isinstance(seq, DegreeSequence):
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


def _rooted_at_max_degree(tree: Tree) -> RootedTree:
    deg = tree.degrees()
    root = deg.index(max(deg))
    return RootedTree.from_tree(tree, root)


def _choose_strip_vertex(rooted: RootedTree, ordering: Optional[Sequence[int]]) -> int:
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
    if ordering is not None:
        if sorted(ordering) != sorted(internal):
            raise ValueError("ordering must list exactly the internal vertices")
        degs = [tree.degree(v) for v in ordering]
        if any(a < b for a, b in zip(degs, degs[1:])):
            raise ValueError("ordering must be non-increasing in degree")
        if ordering[-1] in candidates:
            return ordering[-1]
        # Lemma's relabeling clause: fall through to an equal-degree choice.
    pos = {v: i for i, v in enumerate(rooted.bfs_order)}
    return max(candidates, key=lambda v: pos[v])


def _strip(
    rooted: RootedTree, ordering: Optional[Sequence[int]]
) -> tuple[Tree, int, int, Optional[int]]:
    """Remove the pendant children of the chosen vertex and compact labels.

    Returns (stripped tree, stripped degree d_t, new label of the demoted
    vertex, parent degree or None when the vertex was the root).
    """
    tree = rooted.tree
    vk = _choose_strip_vertex(rooted, ordering)
    dk = tree.degree(vk)
    kids = rooted.children[vk]
    parent = rooted.parent_of(vk)
    if parent is None:
        # Root with all children pendant: the k=1 star, strip to K2.
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


def _require_path_condition(tree: Tree) -> None:
    witness = find_path_violation(tree)
    if witness is not None:
        raise ValueError(
            f"path condition violated: path {witness.first}..{witness.last} "
            f"has endpoint neighbors {witness.second}, {witness.second_last}"
        )


def strip_last(
    t: RootedTree | Tree, ordering: Optional[Sequence[int]] = None
) -> Tree:
    """One decomposition step: T_k -> T_{k-1}, labels compacted.

    The stripped vertex is the minimum-degree internal vertex with all
    children pendant, deepest in BFS order on ties; an explicit
    `ordering` (internal vertices by non-increasing degree) pins the
    choice to its last entry when that entry qualifies.  The input must
    satisfy the path condition, which guarantees a strippable vertex.
    """
    rooted = t if isinstance(t, RootedTree) else _rooted_at_max_degree(t)
    _require_path_condition(rooted.tree)
    return _strip(rooted, ordering)[0]


def decompose(t: RootedTree | Tree) -> list[DecompositionStep]:
    """Full strip sequence T_k -> ... -> T_1, reported in attach order.

    Steps come back ascending in t (2..k); replaying them with
    incremental_sombor from base_value reproduces sombor(T).  Stars and
    K2 decompose in zero steps.
    """
    tree = t.tree if isinstance(t, RootedTree) else t
    _require_path_condition(tree)
    steps: list[DecompositionStep] = []
    cur = tree
    t_index = len(cur.internal_degree_sequence())
    while len(cur.internal_degree_sequence()) >= 2:
        rooted = _rooted_at_max_degree(cur)
        stripped, dk, new_label, d_p = _strip(rooted, None)
        assert d_p is not None  # the root keeps an internal child while k >= 2
        steps.append(
            DecompositionStep(
                index_t=t_index,
                attached_at=new_label,
                parent_degree=d_p,
                added_leaves=dk - 1,
                delta=incremental_sombor(0.0, dk, d_p),
            )
        )
        cur = stripped
        t_index -= 1
    return list(reversed(steps))


def replay_totals(base: float, steps: Iterable[DecompositionStep]) -> list[float]:
    """Running Sombor totals of a replayed decomposition."""
    totals = []
    cur = base
    for s in steps:
        cur = incremental_sombor(cur, s.attached_degree, s.parent_degree)
        totals.append(cur)
    return totals
