"""Command-line front end.

Subcommands: greedy, index, optimize, enumerate, verify, sweep,
decompose.  Exit codes: 0 success or all-pass, 1 usage error,
2 validation error, 3 verification failure, 4 budget exceeded,
5 input too large for this machine.
All numeric output uses 9 decimal places; identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

from . import oracle
from .decompose import base_value, decompose, replay_totals
from .degrees import DegreeSequence
from .errors import BudgetExceededError
from .greedy import build_greedy_tree
from .swaps import local_search
from .tree import Tree

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4
EXIT_TOO_LARGE = 5


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float | None, missing: str = "") -> str:
    """A float as %.9f text; `missing` stands in for a value not computed."""
    return missing if x is None else f"{x:.9f}"


def _round9(x: float | None) -> float | None:
    """A float for JSON, rounded to 9 places; a value not computed is null."""
    return None if x is None else round(x, 9)


def _pairs(edges) -> list[list[int]]:
    return [list(e) for e in edges]


def _edge_str(tree: Tree) -> str:
    return " ".join(f"{u}-{v}" for u, v in tree.edges)


def _load_tree(path: str) -> Tree:
    """Read a tree file; JSON if it starts with '{', edge list otherwise."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    if text.lstrip().startswith("{"):
        return Tree.from_json(text)
    return Tree.from_edge_list(text)


# Each handler computes its result once and returns (exit code, output):
# the JSON document without "command", or the text lines, which may be
# a generator that computes them as they are printed.  A handler whose
# code depends on lines not yet computed returns a callable for it.


def _cmd_greedy(args: argparse.Namespace):
    tree = build_greedy_tree(args.degrees).tree
    so = tree.sombor()
    if args.output_format == "json":
        return EXIT_OK, {"degree_sequence": list(args.degrees), "n": tree.n,
                         "edges": _pairs(tree.edges), "sombor": _round9(so)}
    if args.output_format == "dot":
        return EXIT_OK, [tree.to_dot("greedy") + f"// SO = {_fmt(so)}"]
    return EXIT_OK, [tree.to_edge_list() + f"SO = {_fmt(so)}"]


def _cmd_index(args: argparse.Namespace):
    tree = _load_tree(args.input)
    so = tree.sombor()
    if args.output_format == "json":
        return EXIT_OK, {"n": tree.n, "sombor": _round9(so)}
    return EXIT_OK, [f"SO = {_fmt(so)}"]


def _cmd_optimize(args: argparse.Namespace):
    result = local_search(_load_tree(args.input))
    trace = list(zip(result.swaps, result.values)) if args.trace else []
    if args.output_format == "json":
        json_trace = [{"removed": _pairs(s.removed), "added": _pairs(s.added),
                       "delta": _round9(s.predicted_delta), "sombor": _round9(v)} for s, v in trace]
        return EXIT_OK, {
            "start_sombor": _round9(result.start_value),
            "final_sombor": _round9(result.final_value),
            "steps": result.steps, "n": result.tree.n, "edges": _pairs(result.tree.edges),
            "trace": json_trace,
        }
    swaps = (
        f"swap {i}: remove {' '.join(f'({u},{w})' for u, w in s.removed)} "
        f"add {' '.join(f'({u},{w})' for u, w in s.added)} "
        f"delta = {_fmt(s.predicted_delta)} SO = {_fmt(v)}"
        for i, (s, v) in enumerate(trace, 1)
    )
    return EXIT_OK, [
        f"start SO = {_fmt(result.start_value)}",
        *swaps,
        f"steps = {result.steps}",
        result.tree.to_edge_list() + f"SO = {_fmt(result.final_value)}",
    ]


def _cmd_enumerate(args: argparse.Namespace):
    trees = oracle.enumerate_trees(args.degrees, budget=args.budget)
    # Every sequence has a tree.  Building the first one before anything
    # is printed makes a tree too large to build fail with no output.
    trees = itertools.chain([next(trees)], trees)
    count = oracle.enumeration_count(args.degrees)
    if args.output_format == "json":
        return EXIT_OK, {"degree_sequence": list(args.degrees), "count": count,
                         "trees": [_pairs(t.edges) for t in trees]}
    return EXIT_OK, itertools.chain([f"count = {count}"], map(_edge_str, trees))


def _cmd_verify(args: argparse.Namespace):
    rep = oracle.verify_minimality(args.degrees, budget=args.budget, tolerance=args.tol)
    code = EXIT_OK if rep.passed else EXIT_VERIFY
    if args.output_format == "json":
        return code, {
            "degree_sequence": list(rep.degree_sequence), "labeled_count": rep.labeled_count,
            "isomorphism_classes": rep.isomorphism_classes, "greedy": _round9(rep.greedy_value),
            "oracle_min": _round9(rep.oracle_min), "argmin_edges": _pairs(rep.argmin.edges),
            "pass": rep.passed,
        }
    classes = rep.isomorphism_classes
    return code, [
        f"degree sequence: {rep.degree_sequence}",
        f"labeled trees: {rep.labeled_count}",
        *([] if classes is None else [f"isomorphism classes: {classes}"]),
        f"greedy SO = {_fmt(rep.greedy_value)}",
        f"oracle min SO = {_fmt(rep.oracle_min)}",
        f"argmin: {_edge_str(rep.argmin)}",
        f"status: {'PASS' if rep.passed else 'FAIL'}",
    ]


def _cmd_sweep(args: argparse.Namespace):
    # Called before any output: a max_n below 2 raises here, not mid-CSV.
    rows = oracle.sweep_verify(args.max_n, budget=args.budget, tolerance=args.tol)
    tally = {"pass": 0, "fail": 0, "skipped": 0}

    def outcomes():
        """Each row as (sequence, n, count, greedy, oracle_min, status), tallied."""
        for r in rows:
            rep = r.report
            status = "skipped" if rep is None else "pass" if rep.passed else "fail"
            tally[status] += 1
            g, o = (None, None) if rep is None else (rep.greedy_value, rep.oracle_min)
            yield r.sequence, r.sequence.total_vertices(), r.labeled_count, g, o, status

    def code():
        return EXIT_VERIFY if tally["fail"] else EXIT_BUDGET if tally["skipped"] else EXIT_OK

    keys = ("degree_sequence", "total_vertices", "labeled_count", "greedy", "oracle_min", "status")
    if args.output_format == "json":
        json_rows = [dict(zip(keys, (list(s), n, c, _round9(g), _round9(o), st)))
                     for s, n, c, g, o, st in outcomes()]
        return code, {"max_n": args.max_n, "rows": json_rows, "summary": tally}

    def lines():
        if args.output_format == "csv":
            yield ",".join(keys)
            for s, n, c, g, o, st in outcomes():
                yield f"{' '.join(map(str, s))},{n},{c},{_fmt(g)},{_fmt(o)},{st}"
            return
        for s, n, c, g, o, st in outcomes():
            yield (f"{str(s):<24} n={n:<3} count={c:<9} greedy={_fmt(g, '-'):<15} "
                   f"oracle={_fmt(o, '-'):<15} {st}")
        yield "total: {pass} pass, {fail} fail, {skipped} skipped".format(**tally)

    return code, lines()


def _cmd_decompose(args: argparse.Namespace):
    tree = _load_tree(args.input) if args.degrees is None else build_greedy_tree(args.degrees).tree
    steps = decompose(tree)
    base = base_value(tree.internal_degree_sequence())
    totals = replay_totals(base, steps)
    final = totals[-1] if totals else base
    rows = list(zip(steps, totals))
    if args.output_format == "json":
        json_steps = [{"t": s.index_t, "d_t": s.attached_degree, "d_p": s.parent_degree,
                       "delta": _round9(s.delta), "running_total": _round9(r)} for s, r in rows]
        return EXIT_OK, {"base": _round9(base), "steps": json_steps, "final": _round9(final)}
    return EXIT_OK, [
        f"base SO = {_fmt(base)}",
        *(f"t={s.index_t} d_t={s.attached_degree} d_p={s.parent_degree} "
          f"attach_at={s.attached_at} delta={_fmt(s.delta)} total={_fmt(r)}" for s, r in rows),
        f"final SO = {_fmt(final)}",
    ]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    # A nan tolerance fails every comparison and an infinite one passes all.
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sombor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def degrees(p, help=None, required=True):
        p.add_argument("-d", "--degrees", required=required, help=help)

    def tree_input(p, required=True):
        help = "edge-list or JSON tree file, - for stdin"
        p.add_argument("--input", required=required, help=help)

    def max_n(p):
        p.add_argument("--max-n", type=_positive_int, required=True,
                       help="largest total vertex count")

    def degrees_or_input(p):
        group = p.add_mutually_exclusive_group(required=True)
        degrees(group, "decompose the greedy tree of this sequence", required=False)
        tree_input(group, required=False)

    def command(handler, help, source, formats=("text", "json"), budget=False, tol=False):
        """Add the subcommand `handler` is named for (_cmd_<name>): its source
        option(s), then --format, --budget and --tol."""
        p = sub.add_parser(handler.__name__[len("_cmd_"):], help=help)
        p.set_defaults(handler=handler)
        source(p)
        p.add_argument("--format", dest="output_format", choices=formats, default="text")
        if budget:
            p.add_argument("--budget", type=_positive_int, default=oracle.DEFAULT_BUDGET)
        if tol:
            p.add_argument("--tol", type=_positive_float, default=oracle.DEFAULT_TOLERANCE)
        return p

    command(_cmd_greedy, "build the greedy tree for a degree sequence",
            lambda p: degrees(p, "internal degree sequence, e.g. 3,3,2"), ("text", "json", "dot"))
    command(_cmd_index, "Sombor index of a tree file", tree_input)
    command(_cmd_optimize, "descend by improving swaps to a fixed point", tree_input).add_argument(
        "--trace", action="store_true", help="print one line per applied swap")
    command(_cmd_enumerate, "list all labeled trees for a degree sequence", degrees, budget=True)
    command(_cmd_verify, "certify greedy minimality against the oracle", degrees,
            budget=True, tol=True)
    command(_cmd_sweep, "verify every degree sequence up to a vertex bound", max_n,
            ("text", "json", "csv"), budget=True, tol=True)
    command(_cmd_decompose, "strip/attach decomposition with running totals", degrees_or_input)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "degrees", None) is not None:
            args.degrees = DegreeSequence.from_text(args.degrees)
        code, out = args.handler(args)
        if isinstance(out, dict):
            print(json.dumps({"command": args.command, **out}, indent=2))
        else:
            # Each line is flushed as it is computed, so a piped sweep shows progress.
            for line in out:
                print(line, flush=True)
        sys.stdout.flush()
        return code() if callable(code) else code
    except BrokenPipeError:
        # The reader closed stdout early (`sombor enumerate ... | head`).
        # Point stdout at devnull so the interpreter's final flush of the
        # unwritten buffer stays silent, and exit as a success.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (MemoryError, OverflowError) as exc:
        reason = str(exc) or type(exc).__name__
        print(f"error: input too large for this machine: {reason}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def run() -> None:
    sys.exit(main())
