"""Output checks for each CLI call the benchmark makes.

Each checker takes a call's stdout and returns the work units the call
completed, or raises CheckError.  Checks compare against library
reference functions and pinned mathematical facts, never against a
stored copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math

from sombor import Tree, build_greedy_tree, check_path_condition
from sombor.oracle import sweep_sequences

from inputs import CLASSIFY_SEQUENCES, SWEEP_MAX_N, labeled_count

# Sum of (n-2)!/prod((d_i-1)!) over every internal degree sequence with
# n <= 11: the labeled trees one `sweep --max-n 11` scans.
SWEEP_TREES = 979_924

# An index printed to 9 decimals may sit one unit of the last place
# from a value rounded on another path.
DECIMALS_9 = 1.5e-9


class CheckError(Exception):
    """A call's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _json(out: str, command: str) -> dict:
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{command}: output is not JSON: {exc}") from None
    require(isinstance(doc, dict), f"{command}: output is not a JSON object")
    require(doc.get("command") == command, f"{command}: wrong command field")
    return doc


def check_noop(out: str) -> int:
    """`greedy -d 2` prints the path on 3 vertices, SO = 2 sqrt(5)."""
    lines = out.splitlines()
    require(len(lines) == 4 and lines[0] == "3", "greedy -d 2: not a 3-vertex tree")
    require(lines[-1] == f"SO = {2 * math.sqrt(5):.9f}", "greedy -d 2: wrong index")
    return 1


def check_sweep(out: str) -> int:
    rows = list(csv.reader(io.StringIO(out)))
    expected = sweep_sequences(SWEEP_MAX_N)
    require(len(rows) == len(expected) + 1, f"sweep: {len(rows) - 1} rows, expected {len(expected)}")
    total = 0
    for row, seq in zip(rows[1:], expected):
        require(len(row) == 6, f"sweep: malformed row {row}")
        require(row[0].split() == [str(d) for d in seq], f"sweep: row {row[0]!r} out of order")
        require(row[5] == "pass", f"sweep: {row[0]!r} has status {row[5]!r}")
        require(int(row[2]) == labeled_count(tuple(seq)), f"sweep: wrong labeled_count for {row[0]!r}")
        greedy = build_greedy_tree(seq).tree.sombor()
        require(abs(float(row[3]) - greedy) <= DECIMALS_9, f"sweep: greedy {row[3]} for {row[0]!r}, expected {greedy:.9f}")
        require(abs(float(row[4]) - greedy) <= DECIMALS_9, f"sweep: oracle_min {row[4]} for {row[0]!r}, expected {greedy:.9f}")
        total += int(row[2])
    require(total == SWEEP_TREES, f"sweep: {total} labeled trees, expected {SWEEP_TREES}")
    return total


def check_verify(seq: tuple[int, ...], out: str) -> int:
    doc = _json(out, "verify")
    require(tuple(doc["degree_sequence"]) == seq, "verify: wrong degree_sequence")
    require(doc["pass"] is True, f"verify: {seq} did not pass")
    require(doc["labeled_count"] == labeled_count(seq), f"verify: wrong labeled_count for {seq}")
    require(
        doc["isomorphism_classes"] == CLASSIFY_SEQUENCES[seq],
        f"verify: {doc['isomorphism_classes']} isomorphism classes for {seq}, "
        f"expected {CLASSIFY_SEQUENCES[seq]}",
    )
    return doc["labeled_count"]


def check_enumerate(seq: tuple[int, ...], out: str) -> int:
    doc = _json(out, "enumerate")
    count = labeled_count(seq)
    trees = doc["trees"]
    require(doc["count"] == count, f"enumerate: count {doc['count']}, expected {count}")
    require(len(trees) == count, f"enumerate: {len(trees)} trees listed, expected {count}")
    require(
        len({tuple(map(tuple, t)) for t in trees}) == count,
        "enumerate: repeated tree",
    )
    # Vertex i < k has degree seq[i]; every other vertex is a leaf.
    n = 2 + sum(d - 1 for d in seq)
    degrees = seq + (1,) * (n - len(seq))
    for edges in trees:
        tree = Tree(n, [tuple(e) for e in edges])
        require(tree.degrees() == degrees, f"enumerate: tree {edges} has the wrong degrees")
    return count


def check_optimize(tree_text: str, out: str) -> int:
    doc = _json(out, "optimize")
    start = Tree.from_edge_list(tree_text)
    final = Tree(doc["n"], [tuple(e) for e in doc["edges"]])
    require(final.n == start.n, "optimize: vertex count changed")
    require(sorted(final.degrees()) == sorted(start.degrees()), "optimize: degree multiset changed")
    require(check_path_condition(final), "optimize: result violates the path condition")
    require(abs(doc["start_sombor"] - start.sombor()) <= DECIMALS_9, "optimize: wrong start_sombor")
    require(abs(doc["final_sombor"] - final.sombor()) <= DECIMALS_9, "optimize: wrong final_sombor")
    require(doc["steps"] == len(doc["trace"]), "optimize: steps differs from trace length")
    return doc["steps"]


def check_decompose(seq: tuple[int, ...], out: str) -> int:
    doc = _json(out, "decompose")
    expected = build_greedy_tree(seq).tree.sombor()
    require(abs(doc["final"] - expected) <= DECIMALS_9, f"decompose: final {doc['final']}, expected {expected:.9f}")
    # Each strip removes one internal vertex, from k of them down to the star.
    ts = [s["t"] for s in doc["steps"]]
    require(ts == list(range(2, len(seq) + 1)), "decompose: steps are not t = 2..k")
    return len(ts)
