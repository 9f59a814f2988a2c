"""Command-line front end.

Subcommands: greedy, index, optimize, enumerate, verify, sweep,
decompose.  Exit codes: 0 success or all-pass, 1 usage error,
2 validation error, 3 verification failure, 4 budget exceeded.
All numeric output uses 9 decimal places; identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional

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


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors by default; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def _round9(x: float) -> float:
    return round(x, 9)


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


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


def _edge_str(tree: Tree) -> str:
    return " ".join(f"{u}-{v}" for u, v in tree.edges)


def _cmd_greedy(args: argparse.Namespace) -> int:
    tree = build_greedy_tree(args.degrees).tree
    so = tree.sombor()
    if args.output_format == "json":
        _emit_json(
            {
                "command": "greedy",
                "degree_sequence": list(args.degrees),
                "n": tree.n,
                "edges": [list(e) for e in tree.edges],
                "sombor": _round9(so),
            }
        )
    elif args.output_format == "dot":
        print(tree.to_dot("greedy"), end="")
        print(f"// SO = {_fmt(so)}")
    else:
        print(tree.to_edge_list(), end="")
        print(f"SO = {_fmt(so)}")
    return EXIT_OK


def _cmd_index(args: argparse.Namespace) -> int:
    tree = _load_tree(args.input)
    so = tree.sombor()
    if args.output_format == "json":
        _emit_json({"command": "index", "n": tree.n, "sombor": _round9(so)})
    else:
        print(f"SO = {_fmt(so)}")
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    tree = _load_tree(args.input)
    result = local_search(tree)
    if args.output_format == "json":
        _emit_json(
            {
                "command": "optimize",
                "start_sombor": _round9(result.start_value),
                "final_sombor": _round9(result.final_value),
                "steps": result.steps,
                "n": result.tree.n,
                "edges": [list(e) for e in result.tree.edges],
                "trace": [
                    {
                        "removed": [list(e) for e in s.removed],
                        "added": [list(e) for e in s.added],
                        "delta": _round9(s.predicted_delta),
                        "sombor": _round9(v),
                    }
                    for s, v in zip(result.swaps, result.values)
                ]
                if args.trace
                else [],
            }
        )
    else:
        print(f"start SO = {_fmt(result.start_value)}")
        if args.trace:
            for i, (s, v) in enumerate(zip(result.swaps, result.values), 1):
                rm = " ".join(f"({u},{w})" for u, w in s.removed)
                ad = " ".join(f"({u},{w})" for u, w in s.added)
                print(
                    f"swap {i}: remove {rm} add {ad} "
                    f"delta = {_fmt(s.predicted_delta)} SO = {_fmt(v)}"
                )
        print(f"steps = {result.steps}")
        print(result.tree.to_edge_list(), end="")
        print(f"SO = {_fmt(result.final_value)}")
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    seq = args.degrees
    trees = oracle.enumerate_trees(seq, budget=args.budget)
    count = oracle.enumeration_count(seq)
    if args.output_format == "json":
        _emit_json(
            {
                "command": "enumerate",
                "degree_sequence": list(seq),
                "count": count,
                "trees": [[list(e) for e in t.edges] for t in trees],
            }
        )
    else:
        print(f"count = {count}")
        for t in trees:
            print(_edge_str(t))
    return EXIT_OK


def _report_json(rep: oracle.VerificationReport) -> dict:
    return {
        "degree_sequence": list(rep.degree_sequence),
        "labeled_count": rep.labeled_count,
        "isomorphism_classes": rep.isomorphism_classes,
        "greedy": _round9(rep.greedy_value),
        "oracle_min": _round9(rep.oracle_min),
        "argmin_edges": [list(e) for e in rep.argmin.edges],
        "pass": rep.passed,
    }


def _cmd_verify(args: argparse.Namespace) -> int:
    rep = oracle.verify_minimality(
        args.degrees, budget=args.budget, tolerance=args.tol
    )
    if args.output_format == "json":
        _emit_json({"command": "verify", **_report_json(rep)})
    else:
        print(f"degree sequence: {rep.degree_sequence}")
        print(f"labeled trees: {rep.labeled_count}")
        if rep.isomorphism_classes is not None:
            print(f"isomorphism classes: {rep.isomorphism_classes}")
        print(f"greedy SO = {_fmt(rep.greedy_value)}")
        print(f"oracle min SO = {_fmt(rep.oracle_min)}")
        print(f"argmin: {_edge_str(rep.argmin)}")
        print(f"status: {'PASS' if rep.passed else 'FAIL'}")
    return EXIT_OK if rep.passed else EXIT_VERIFY


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Called before any output: a max_n below 2 raises here, not mid-CSV.
    rows = oracle.sweep_verify(args.max_n, budget=args.budget, tolerance=args.tol)
    tally = {"pass": 0, "fail": 0, "skipped": 0}

    def outcome(row: oracle.SweepRow):
        """Tally the row's status; return it with greedy and oracle_min, None if skipped."""
        rep = row.report
        status = "skipped" if rep is None else "pass" if rep.passed else "fail"
        tally[status] += 1
        return (status, None, None) if rep is None else (status, rep.greedy_value, rep.oracle_min)

    json_rows = []
    if args.output_format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(
            [
                "degree_sequence",
                "total_vertices",
                "labeled_count",
                "greedy",
                "oracle_min",
                "status",
            ]
        )
    # Text and CSV rows are flushed as each sequence finishes, so a piped
    # sweep shows progress; JSON is printed once, at the end.
    for r in rows:
        status, g, o = outcome(r)
        if args.output_format == "json":
            json_rows.append(
                {
                    "degree_sequence": list(r.sequence),
                    "total_vertices": r.sequence.total_vertices(),
                    "labeled_count": r.labeled_count,
                    "greedy": None if g is None else _round9(g),
                    "oracle_min": None if o is None else _round9(o),
                    "status": status,
                }
            )
        elif args.output_format == "csv":
            writer.writerow(
                [
                    " ".join(str(d) for d in r.sequence),
                    r.sequence.total_vertices(),
                    r.labeled_count,
                    "" if g is None else _fmt(g),
                    "" if o is None else _fmt(o),
                    status,
                ]
            )
            sys.stdout.flush()
        else:
            g = "-" if g is None else _fmt(g)
            o = "-" if o is None else _fmt(o)
            print(
                f"{str(r.sequence):<24} n={r.sequence.total_vertices():<3} "
                f"count={r.labeled_count:<9} greedy={g:<15} "
                f"oracle={o:<15} {status}",
                flush=True,
            )
    if args.output_format == "json":
        _emit_json({"command": "sweep", "max_n": args.max_n, "rows": json_rows, "summary": tally})
    elif args.output_format == "text":
        print("total: {pass} pass, {fail} fail, {skipped} skipped".format(**tally))
    if tally["fail"]:
        return EXIT_VERIFY
    if tally["skipped"]:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    if args.degrees is not None:
        tree = build_greedy_tree(args.degrees).tree
    else:
        tree = _load_tree(args.input)
    steps = decompose(tree)
    base = base_value(tree.internal_degree_sequence())
    totals = replay_totals(base, steps)
    final = totals[-1] if totals else base
    if args.output_format == "json":
        _emit_json(
            {
                "command": "decompose",
                "base": _round9(base),
                "steps": [
                    {
                        "t": s.index_t,
                        "d_t": s.attached_degree,
                        "d_p": s.parent_degree,
                        "delta": _round9(s.delta),
                        "running_total": _round9(r),
                    }
                    for s, r in zip(steps, totals)
                ],
                "final": _round9(final),
            }
        )
    else:
        print(f"base SO = {_fmt(base)}")
        for s, r in zip(steps, totals):
            print(
                f"t={s.index_t} d_t={s.attached_degree} d_p={s.parent_degree} "
                f"attach_at={s.attached_at} delta={_fmt(s.delta)} "
                f"total={_fmt(r)}"
            )
        print(f"final SO = {_fmt(final)}")
    return EXIT_OK


_HANDLERS = {
    "greedy": _cmd_greedy,
    "index": _cmd_index,
    "optimize": _cmd_optimize,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "decompose": _cmd_decompose,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sombor", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("greedy", help="build the greedy tree for a degree sequence")
    p.add_argument("-d", "--degrees", required=True, help="internal degree sequence, e.g. 3,3,2")
    p.add_argument("--format", dest="output_format", choices=["text", "json", "dot"], default="text")

    p = sub.add_parser("index", help="Sombor index of a tree file")
    p.add_argument("--input", required=True, help="edge-list or JSON tree file, - for stdin")
    p.add_argument("--format", dest="output_format", choices=["text", "json"], default="text")

    p = sub.add_parser("optimize", help="descend by improving swaps to a fixed point")
    p.add_argument("--input", required=True, help="edge-list or JSON tree file, - for stdin")
    p.add_argument("--format", dest="output_format", choices=["text", "json"], default="text")
    p.add_argument("--trace", action="store_true", help="print one line per applied swap")

    p = sub.add_parser("enumerate", help="list all labeled trees for a degree sequence")
    p.add_argument("-d", "--degrees", required=True)
    p.add_argument("--format", dest="output_format", choices=["text", "json"], default="text")
    p.add_argument("--budget", type=_positive_int, default=oracle.DEFAULT_BUDGET)

    p = sub.add_parser("verify", help="certify greedy minimality against the oracle")
    p.add_argument("-d", "--degrees", required=True)
    p.add_argument("--format", dest="output_format", choices=["text", "json"], default="text")
    p.add_argument("--budget", type=_positive_int, default=oracle.DEFAULT_BUDGET)
    p.add_argument("--tol", type=_positive_float, default=oracle.DEFAULT_TOLERANCE)

    p = sub.add_parser("sweep", help="verify every degree sequence up to a vertex bound")
    p.add_argument("--max-n", type=_positive_int, required=True, help="largest total vertex count")
    p.add_argument("--format", dest="output_format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--budget", type=_positive_int, default=oracle.DEFAULT_BUDGET)
    p.add_argument("--tol", type=_positive_float, default=oracle.DEFAULT_TOLERANCE)

    p = sub.add_parser("decompose", help="strip/attach decomposition with running totals")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("-d", "--degrees", help="decompose the greedy tree of this sequence")
    g.add_argument("--input", help="edge-list or JSON tree file, - for stdin")
    p.add_argument("--format", dest="output_format", choices=["text", "json"], default="text")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "degrees", None) is not None:
            args.degrees = DegreeSequence.from_text(args.degrees)
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def run() -> None:
    sys.exit(main())
