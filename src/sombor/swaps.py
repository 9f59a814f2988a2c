"""Improving edge swaps and first-improvement descent.

A witness path v1..vt with d(v1) < d(vt) and d(v2) > d(v_{t-1}) yields
the degree-preserving move: remove v1v2 and v_{t-1}vt, add v1v_{t-1}
and v2vt.  The move keeps every vertex degree, keeps the graph a tree,
and strictly decreases the Sombor index.  (Removing both edges leaves
three components, holding v1, v2..v_{t-1} and vt; the added edges join
v1 and vt to the middle one.)

``apply_swap`` validates and rebuilds the result.  ``local_search`` only
applies swaps built from the current tree's own paths, so it edits the
tree in O(n) per swap and keeps the index as an exact integer sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import StaleSwapError, StepLimitError
from .greedy import PathWitness, iter_path_violations
from .tree import Edge, Tree
from .weights import edge_weight, g_gap

# Every edge weight is at least sqrt(2) >= 1, so its float spacing is at
# least 2**-52 and the weight times 2**52 is an exact integer.
_SCALE = 2**52


def _scaled_weight(x: int, y: int) -> int:
    return int(edge_weight(x, y) * _SCALE)


def _scaled_index(tree: Tree) -> int:
    """The Sombor index times 2**52, exactly; divided by _SCALE it is ``tree.sombor()``."""
    deg = tree.degrees()
    return sum(_scaled_weight(deg[u], deg[v]) for u, v in tree.edges)


@dataclass(frozen=True)
class EdgeSwap:
    """A single improving move and its exact predicted effect."""

    removed: tuple[Edge, Edge]
    added: tuple[Edge, Edge]
    predicted_delta: float
    witness: PathWitness


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def swap_from_witness(tree: Tree, w: PathWitness) -> EdgeSwap:
    """Build the Proposition move for a witness path."""
    deg = tree.degrees()
    a, b = deg[w.first], deg[w.last]
    delta = g_gap(a, b, deg[w.second_last]) - g_gap(a, b, deg[w.second])
    return EdgeSwap(
        removed=(_norm(w.first, w.second), _norm(w.second_last, w.last)),
        added=(_norm(w.first, w.second_last), _norm(w.second, w.last)),
        predicted_delta=delta,
        witness=w,
    )


def find_improving_swap(tree: Tree) -> Optional[EdgeSwap]:
    """First improving swap in (v1, vt) scan order, or None at a fixed point."""
    w = next(iter_path_violations(tree), None)
    return None if w is None else swap_from_witness(tree, w)


def apply_swap(tree: Tree, swap: EdgeSwap) -> Tree:
    """Apply a swap produced for this tree; validates the result."""
    current = set(tree.edges)
    for e in swap.removed:
        if e not in current:
            raise StaleSwapError(f"stale swap: edge {e} not in tree")
    current.difference_update(swap.removed)
    current.update(swap.added)
    return Tree(tree.n, sorted(current))


@dataclass
class LocalSearchResult:
    """Descent trajectory: final tree plus the swaps that got there."""

    tree: Tree
    start_value: float
    final_value: float
    swaps: list[EdgeSwap] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.swaps)


def local_search(tree: Tree, step_limit: Optional[int] = None) -> LocalSearchResult:
    """Apply improving swaps until none exists.

    Terminates because each swap strictly decreases the index over a
    finite tree space; the step guard (default 10 n^2) only trips on a
    bug.  The result always satisfies the path condition.

    Each swap is an O(n) edit of the tree, with no revalidation, and
    changes four terms of an integer total of the weights scaled by
    2**52.  Integer true division and ``math.fsum`` both round the exact
    sum correctly, so every value equals ``Tree.sombor()`` of its tree.
    """
    limit = 10 * tree.n * tree.n if step_limit is None else step_limit
    start = tree.sombor()
    result = LocalSearchResult(tree=tree, start_value=start, final_value=start)
    deg = tree.degrees()
    total = _scaled_index(tree)
    while True:
        swap = find_improving_swap(result.tree)
        if swap is None:
            return result
        if len(result.swaps) >= limit:
            raise StepLimitError(
                f"local search exceeded {limit} steps; descent should be strict"
            )
        result.tree = result.tree._swapped(swap.removed, swap.added)
        for u, v in swap.added:
            total += _scaled_weight(deg[u], deg[v])
        for u, v in swap.removed:
            total -= _scaled_weight(deg[u], deg[v])
        result.swaps.append(swap)
        result.final_value = total / _SCALE
        result.values.append(result.final_value)
