"""Seeded inputs for the benchmark workloads.

Every generator here depends only on its seed and on constants in this
file, never on the package under test, so a change to the package
cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import heapq
import math
import random

# Sequences with 5,000-20,000 labeled trees and n <= 13, with their
# isomorphism class counts.  The class counts are pinned facts the
# `verify` check compares against; the labeled counts follow from the
# multinomial formula in labeled_count.
CLASSIFY_SEQUENCES = {
    (2, 2, 2, 2, 2, 2, 2): 1,
    (3, 3, 2, 2, 2, 2): 17,
    (3, 3, 3, 2, 2): 10,
    (4, 2, 2, 2, 2, 2): 6,
    (4, 3, 3, 2, 2): 28,
    (4, 3, 3, 3): 4,
    (4, 4, 2, 2, 2): 10,
    (4, 4, 3, 2): 8,
    (4, 4, 4, 2): 3,
    (5, 2, 2, 2, 2, 2): 7,
    (5, 3, 2, 2, 2): 17,
    (5, 3, 3, 3): 4,
    (5, 4, 3, 2): 15,
    (5, 5, 2, 2): 5,
    (5, 5, 4): 2,
    (6, 3, 2, 2, 2): 17,
    (6, 3, 3, 2): 8,
    (6, 4, 2, 2): 8,
    (6, 4, 4): 2,
    (6, 5, 2, 2): 8,
    (6, 5, 3): 3,
    (7, 2, 2, 2, 2): 5,
    (7, 3, 3, 2): 8,
    (7, 4, 2, 2): 8,
    (8, 2, 2, 2, 2): 5,
}

# Both have n = 11 and 15,120 labeled trees, so `enumerate` output size
# and peak memory do not depend on which one a seed picks.
ENUMERATE_SEQUENCES = ((4, 3, 3, 2, 2), (5, 2, 2, 2, 2, 2))

VERIFIES_PER_ENUMERATE = 5
SWEEP_MAX_N = 11
DESCENT_N = 200
DECOMPOSE_N = 1200
DECOMPOSE_MAX_DEGREE = 5


def labeled_count(seq: tuple[int, ...]) -> int:
    """(n-2)! / prod((d_i - 1)!) labeled trees realize a degree sequence."""
    n = 2 + sum(d - 1 for d in seq)
    count = math.factorial(n - 2)
    for d in seq:
        count //= math.factorial(d - 1)
    return count


def classify_order(seed: int) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """All classify sequences in a seeded order, plus the enumerate pick.

    The sequences fall into VERIFIES_PER_ENUMERATE bands by labeled
    count, and each run of that many consecutive entries holds one
    sequence of each band.  Whichever prefix of the order a timed run
    gets through, its mix of call sizes, and so its median call time,
    then depends little on the seed.
    """
    rng = random.Random(f"classify:{seed}")
    by_size = sorted(CLASSIFY_SEQUENCES, key=lambda s: (labeled_count(s), s))
    width = len(by_size) // VERIFIES_PER_ENUMERATE
    bands = [by_size[i * width:(i + 1) * width] for i in range(VERIFIES_PER_ENUMERATE)]
    for band in bands:
        rng.shuffle(band)
    order = []
    for round_ in zip(*bands):
        round_ = list(round_)
        rng.shuffle(round_)
        order += round_
    return order, rng.choice(ENUMERATE_SEQUENCES)


def prufer_tree(code: list[int], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree with this Prüfer code (heap decoder)."""
    degree = [1] * n
    for v in code:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def edge_list_text(n: int, edges: list[tuple[int, int]]) -> str:
    """The CLI's plain edge-list format: n, then one 'u v' per line."""
    return "\n".join([str(n)] + [f"{u} {v}" for u, v in edges]) + "\n"


def descent_trees(seed: int, count: int) -> list[str]:
    """Uniformly random labeled trees on DESCENT_N vertices, as edge lists."""
    rng = random.Random(f"descent:{seed}")
    n = DESCENT_N
    return [
        edge_list_text(n, prufer_tree([rng.randrange(n) for _ in range(n - 2)], n))
        for _ in range(count)
    ]


def decompose_sequences(seed: int, count: int) -> list[tuple[int, ...]]:
    """Degree sequences whose trees have exactly DECOMPOSE_N vertices.

    A tree with internal degrees d_i has 2 + sum(d_i - 1) vertices, so
    the draws stop when sum(d_i - 1) reaches DECOMPOSE_N - 2.
    """
    rng = random.Random(f"decompose:{seed}")
    out = []
    for _ in range(count):
        remaining = DECOMPOSE_N - 2
        degrees = []
        while remaining > 0:
            d = min(rng.randint(2, DECOMPOSE_MAX_DEGREE), remaining + 1)
            degrees.append(d)
            remaining -= d - 1
        out.append(tuple(sorted(degrees, reverse=True)))
    return out
