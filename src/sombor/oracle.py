"""Exhaustive certification of greedy-tree minimality via Prüfer codes.

Labeled trees in which vertex i has prescribed degree d_i correspond
exactly to the multiset permutations of the code {i repeated d_i - 1
times}, so enumerating those permutations enumerates the trees.  The
oracle scans them all, tracks the Sombor minimum, and compares it with
the greedy construction.

Every route passes one budget gate and reads one self-checking code
walk.  `verify_minimality` scores every code in one value-only scan
that pointer-decodes the code while summing edge weights, with no Tree
allocation.  Its optional isomorphism-class count walks no code: it
counts rooted and edge-rooted trees over sub-multisets of the internal
degrees and combines them by Otter's dissimilarity theorem.
`enumerate_trees` yields validated Tree objects for callers that want
the trees themselves, and the tests keep it as the slow reference the
scan and the class count are checked against.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .degrees import DegreeSequence
from .errors import BudgetExceededError
from .greedy import build_greedy_tree
from .tree import Tree

DEFAULT_BUDGET = 10**7
DEFAULT_TOLERANCE = 1e-9
DEFAULT_CLASS_LIMIT = 20000

# Two sums of at most n square roots of integers < 2n^2 either coincide
# or differ by far more than this at desk scale.
_TIE_EPS = 1e-12


def prufer_decode(code: Iterable[int], n: int) -> Tree:
    """The unique labeled tree on 0..n-1 with the given Prüfer code.

    Vertex degree equals 1 + multiplicity in the code.
    """
    code = list(code)
    if n < 2:
        raise ValueError(f"Prüfer decoding needs n >= 2, got n={n}")
    if len(code) != n - 2:
        raise ValueError(f"code length must be n-2={n - 2}, got {len(code)}")
    degree = [1] * n
    for v in code:
        if not 0 <= v < n:
            raise ValueError(f"code label {v} out of range for n={n}")
        degree[v] += 1
    edges = []
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for v in code:
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return Tree(n, edges)


def prufer_encode(tree: Tree) -> list[int]:
    """Prüfer code of a tree, inverse of prufer_decode."""
    n = tree.n
    if n < 2:
        raise ValueError("Prüfer encoding needs n >= 2")
    deg = list(tree.degrees())
    # With degree-1 vertices, the neighbor sum IS the unique neighbor.
    nb = [sum(tree.neighbors(v)) for v in range(n)]
    code = []
    ptr = 0
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for _ in range(n - 2):
        p = nb[leaf]
        code.append(p)
        nb[p] -= leaf
        deg[p] -= 1
        deg[leaf] = 0
        if deg[p] == 1 and p < ptr:
            leaf = p
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    return code


def enumeration_count(seq: DegreeSequence | Iterable[int]) -> int:
    """(n-2)! / prod((d_i - 1)!) labeled trees realize the sequence.

    Built as a product of binomials, so no big factorial is divided.
    """
    seq = DegreeSequence.normalize(seq)
    count = 1
    slots = 0
    for d in seq:
        slots += d - 1
        count *= math.comb(slots, d - 1)
    return count


def _admit(seq: DegreeSequence | Iterable[int], budget: int) -> tuple[DegreeSequence, int]:
    """The normalized sequence and its count; BudgetExceededError past budget.

    A tree with more vertices than a list can index raises OverflowError
    first, before its count is computed or any tree is built.
    """
    seq = DegreeSequence.normalize(seq)
    if seq.total_vertices() > sys.maxsize:
        # The message Python gives for `[1] * n`, as greedy reports it.
        raise OverflowError("cannot fit 'int' into an index-sized integer")
    count = enumeration_count(seq)
    if count > budget:
        raise BudgetExceededError(count, budget)
    return seq, count


def _codes(seq: DegreeSequence, count: int) -> Iterator[list[int]]:
    """Every code of the sequence in lexicographic order, as one list advanced in place.

    Raises RuntimeError on exhaustion unless exactly count codes came out.
    """
    a = [i for i, d in enumerate(seq) for _ in range(d - 1)]
    seen = 0
    while True:
        yield a
        seen += 1
        # Next permutation: swap the last ascent's head with its least
        # larger successor, then reverse the tail.
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            break
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[i + 1 :][::-1]
    if seen != count:
        raise RuntimeError(f"enumeration produced {seen} codes, expected {count}")


def enumerate_trees(
    seq: DegreeSequence | Iterable[int], budget: int = DEFAULT_BUDGET
) -> Iterator[Tree]:
    """Yield every labeled tree where internal vertex i has degree d_i.

    Codes are generated in lexicographic order; the total is checked
    against the multinomial count on exhaustion.  Raises
    BudgetExceededError before yielding anything if the count exceeds
    the budget.
    """
    seq, count = _admit(seq, budget)
    n = seq.total_vertices()
    return (prufer_decode(code, n) for code in _codes(seq, count))


def _scan_min(seq: DegreeSequence, count: int) -> list[int]:
    """Code of a minimum-Sombor tree of the enumeration, without building trees.

    Each code is pointer-decoded while summing precomputed edge weights
    (code entries are internal labels < k; the last edge ends at leaf
    n-1).  The argmin is the first code, in lexicographic order, within
    _TIE_EPS of the minimum: a later code replaces it only when lower by
    more than _TIE_EPS, so labelings of one tree that differ by rounding
    never displace each other.
    """
    k = len(seq)
    base = list(seq.entries) + [1] * seq.leaf_count()
    weight = [[math.hypot(a, b) for b in base] for a in base[:k]]
    tail = [math.hypot(b, 1) for b in base]
    bar = math.inf
    best_code: list[int] = []
    for code in _codes(seq, count):
        deg = base.copy()
        total = 0.0
        ptr = k
        leaf = ptr
        for v in code:
            total += weight[v][leaf]
            d = deg[v] - 1
            deg[v] = d
            if d == 1 and v < ptr:
                leaf = v
            else:
                ptr += 1
                while deg[ptr] != 1:
                    ptr += 1
                leaf = ptr
        total += tail[leaf]
        if total < bar:
            bar = total - _TIE_EPS
            best_code = code.copy()
    return best_code


def _count_classes(seq: DegreeSequence) -> int:
    """Isomorphism classes of the trees with the sequence, counted without a walk.

    By Otter's dissimilarity theorem every tree has vertex orbits - edge
    orbits + [it has a symmetric edge] = 1, so summed over the classes,
    classes = R - E + S.  R counts vertex-rooted trees, E edge-rooted
    ones (unordered pairs of planted trees joined at their roots), and S
    those whose root edge is symmetric (two copies of one planted tree).
    A planted tree is rooted at a vertex whose degree counts an edge to
    a parent; a single leaf is one.

    Every count is keyed by a multiset T of internal degrees, held as
    multiplicities over the distinct degrees of seq.  A planted tree
    with internal multiset T has 1 + sum(d - 2 for d in T) leaves, so
    leaves never enter the state: the cost depends neither on their
    number nor on the largest degree.

    planted(T) counts planted trees with internal multiset T.
    forests(j, T) counts multisets of j planted trees whose internal
    multisets add up to T: h of them are not leaves, and leaves fill the
    other j - h slots in one way.  nonleaf(h, T) counts the h non-leaf
    trees by the Pólya multiset recurrence
    h * nonleaf(h, T) = sum of planted(S) * nonleaf(h - i, T - i*S) over
    1 <= i <= h and non-empty S with i*S inside T.  A sum that h does
    not divide exactly raises RuntimeError.
    """
    degrees = sorted(set(seq))
    full = tuple(seq.entries.count(d) for d in degrees)

    def without(t: tuple[int, ...], i: int) -> tuple[int, ...]:
        return t[:i] + (t[i] - 1,) + t[i + 1 :]

    @functools.cache
    def planted(t: tuple[int, ...]) -> int:
        if not any(t):
            return 1
        return sum(forests(d - 1, without(t, i)) for i, d in enumerate(degrees) if t[i])

    def forests(j: int, t: tuple[int, ...]) -> int:
        return sum(nonleaf(h, t) for h in range(min(j, sum(t)) + 1))

    @functools.cache
    def nonleaf(h: int, t: tuple[int, ...]) -> int:
        if h == 0:
            return int(not any(t))
        if h > sum(t):
            return 0
        total = 0
        for i in range(1, h + 1):
            for sub in itertools.product(*(range(c // i + 1) for c in t)):
                if any(sub):
                    rest = tuple(c - i * x for c, x in zip(t, sub))
                    total += planted(sub) * nonleaf(h - i, rest)
        count, remainder = divmod(total, h)
        if remainder:
            raise RuntimeError(f"Pólya sum {total} is not divisible by {h}")
        return count

    # Rooted at a leaf, whose one planted subtree holds all of seq, or at
    # a vertex of each internal degree d, whose d subtrees hold the rest.
    rooted = planted(full) + sum(forests(d, without(full, i)) for i, d in enumerate(degrees))
    symmetric = 0
    if all(c % 2 == 0 for c in full):
        symmetric = planted(tuple(c // 2 for c in full))
    return rooted - forests(2, full) + symmetric


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of certifying one degree sequence against the oracle."""

    degree_sequence: DegreeSequence
    greedy_value: float
    oracle_min: float
    argmin: Tree
    labeled_count: int
    isomorphism_classes: Optional[int]
    passed: bool


def verify_minimality(
    seq: DegreeSequence | Iterable[int],
    budget: int = DEFAULT_BUDGET,
    tolerance: float = DEFAULT_TOLERANCE,
    class_limit: int = DEFAULT_CLASS_LIMIT,
) -> VerificationReport:
    """Certify that the greedy tree attains the enumeration minimum.

    Every labeled tree is scored by the value-only scan.  The argmin is
    the first tree in lexicographic Prüfer-code order whose value is
    within _TIE_EPS of the minimum, and oracle_min is its Tree.sombor(),
    the same fsum as greedy_value rather than the scan's running sum.
    When there are at most class_limit trees, their isomorphism classes
    are counted exactly, without a second walk; otherwise
    isomorphism_classes is None.
    """
    seq, count = _admit(seq, budget)
    n = seq.total_vertices()
    greedy_value = build_greedy_tree(seq).tree.sombor()
    argmin = prufer_decode(_scan_min(seq, count), n)
    iso = None
    if count <= class_limit:
        iso = _count_classes(seq)
    oracle_min = argmin.sombor()
    return VerificationReport(
        degree_sequence=seq,
        greedy_value=greedy_value,
        oracle_min=oracle_min,
        argmin=argmin,
        labeled_count=count,
        isomorphism_classes=iso,
        passed=abs(greedy_value - oracle_min) <= tolerance,
    )


def sweep_sequences(max_n: int) -> list[DegreeSequence]:
    """All internal degree sequences with total_vertices <= max_n, ascending.

    A sequence qualifies iff sum(d_i - 1) <= max_n - 2, so these are
    shifted partitions; the empty sequence (K2) is included.
    """
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    m = max_n - 2

    def parts(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        yield ()
        for p in range(min(remaining, cap), 0, -1):
            for rest in parts(remaining - p, p):
                yield (p,) + rest

    seqs = {tuple(p + 1 for p in ps) for ps in parts(m, m)}
    return [DegreeSequence(s) for s in sorted(seqs)]


@dataclass(frozen=True)
class SweepRow:
    """One sweep entry; report is None when the budget skipped it."""

    sequence: DegreeSequence
    labeled_count: int
    report: Optional[VerificationReport]

    @property
    def skipped(self) -> bool:
        return self.report is None


def sweep_verify(
    max_n: int,
    budget: int = DEFAULT_BUDGET,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Iterator[SweepRow]:
    """Verify every sequence up to max_n vertices, skipping over-budget ones.

    max_n < 2 raises at the call; each row is verified as it is drawn.
    """

    def row(seq: DegreeSequence) -> SweepRow:
        try:
            report = verify_minimality(seq, budget=budget, tolerance=tolerance, class_limit=0)
        except BudgetExceededError as exc:
            return SweepRow(seq, exc.count, None)
        return SweepRow(seq, report.labeled_count, report)

    return map(row, sweep_sequences(max_n))
