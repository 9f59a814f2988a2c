"""Golden CLI outputs: the exact stdout, stderr and exit code of main(argv).

Each case in CASES is run in process with COLUMNS=80, so --help text
wraps the same everywhere; tree inputs come on stdin.  The expected
bytes live in tests/data/cli_golden.json.  When an output change is
intended, rewrite that file from the current code with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from sombor.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden.json"

P4 = "4\n0 1\n1 2\n2 3\n"
K2_JSON = '{"n": 2, "edges": [[0, 1]]}'
# Three improving swaps from here to the greedy tree.
DESCENT = "9\n0 1\n0 2\n0 7\n0 8\n1 6\n3 4\n4 6\n5 6\n"
# Two degree-3 vertices joined through a degree-2 middle: not greedy.
CHAIN = "7\n0 2\n1 2\n0 3\n0 4\n1 5\n1 6\n"
# Tied strip candidates and labels compacted after each strip.
TIE = "8\n0 3\n1 4\n2 4\n2 6\n2 7\n3 6\n5 6\n"

COMMANDS = ("greedy", "index", "optimize", "enumerate", "verify", "sweep", "decompose")

# id -> (argv, stdin)
CASES = {
    "greedy-text": (["greedy", "-d", "4,3,3,2"], ""),
    "greedy-json": (["greedy", "-d", "4,3,3,2", "--format", "json"], ""),
    "greedy-dot": (["greedy", "-d", "3,2", "--format", "dot"], ""),
    "index-text": (["index", "--input", "-"], P4),
    "index-json": (["index", "--input", "-", "--format", "json"], K2_JSON),
    "optimize-text": (["optimize", "--input", "-"], DESCENT),
    "optimize-text-trace": (["optimize", "--input", "-", "--trace"], DESCENT),
    "optimize-json": (["optimize", "--input", "-", "--format", "json"], DESCENT),
    "optimize-json-trace": (["optimize", "--input", "-", "--format", "json", "--trace"], DESCENT),
    "enumerate-text": (["enumerate", "-d", "3,2"], ""),
    "enumerate-json": (["enumerate", "-d", "3,2", "--format", "json"], ""),
    "enumerate-budget": (["enumerate", "-d", "2,2,2,2", "--budget", "2"], ""),
    "verify-text": (["verify", "-d", "3,3,2"], ""),
    "verify-json": (["verify", "-d", "3,3,2", "--format", "json"], ""),
    "verify-budget": (["verify", "-d", "2,2,2,2", "--budget", "2", "--format", "json"], ""),
    "sweep-text": (["sweep", "--max-n", "5"], ""),
    "sweep-csv": (["sweep", "--max-n", "5", "--format", "csv"], ""),
    "sweep-json": (["sweep", "--max-n", "5", "--format", "json"], ""),
    "sweep-text-skips": (["sweep", "--max-n", "5", "--budget", "1"], ""),
    "sweep-csv-skips": (["sweep", "--max-n", "5", "--budget", "1", "--format", "csv"], ""),
    "sweep-json-skips": (["sweep", "--max-n", "5", "--budget", "1", "--format", "json"], ""),
    "sweep-max-n-1": (["sweep", "--max-n", "1", "--format", "csv"], ""),
    "decompose-text": (["decompose", "-d", "4,3,2"], ""),
    "decompose-json": (["decompose", "-d", "4,3,2", "--format", "json"], ""),
    "decompose-input-tie": (["decompose", "--input", "-"], TIE),
    "decompose-not-greedy": (["decompose", "--input", "-", "--format", "json"], CHAIN),
    "usage-missing-degrees": (["greedy"], ""),
    **{f"help-{c}": ([c, "--help"], "") for c in COMMANDS},
}


def call(argv, stdin):
    """Run main(argv) with stdin; return (stdout, stderr, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return {"out": out.getvalue(), "err": err.getvalue(), "code": code}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_every_case_has_golden_output(golden):
    assert set(golden) == set(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_output_is_byte_identical(case, golden, monkeypatch):
    if case.startswith("help-") and sys.version_info >= (3, 13):
        pytest.skip("argparse lays out --help differently from Python 3.13 on")
    monkeypatch.setenv("COLUMNS", "80")
    assert call(*CASES[case]) == golden[case]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    records = {case: call(argv, stdin) for case, (argv, stdin) in CASES.items()}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
