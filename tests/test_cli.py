"""End-to-end tests for the command-line interface.

Every test but the pipe test drives main(argv) in process and inspects
stdout, stderr, and the exit code.  Usage errors surface as
SystemExit(1) from the parser; everything else returns an int.
"""

import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sombor
from sombor import DegreeSequence, Tree, oracle
from sombor.cli import EXIT_BUDGET, EXIT_OK, EXIT_TOO_LARGE, EXIT_VALIDATION, EXIT_VERIFY, main

GREEDY_32_TEXT = "5\n0 1\n0 2\n0 3\n1 4\nSO = 12.166174573\n"


def usage_error(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1


class TestGreedy:
    def test_text_output_exact(self, capsys):
        assert main(["greedy", "-d", "3,2"]) == EXIT_OK
        assert capsys.readouterr().out == GREEDY_32_TEXT

    def test_all_internal_degrees_one_gives_k2(self, capsys):
        assert main(["greedy", "-d", "1,1"]) == EXIT_OK
        assert capsys.readouterr().out == "2\n0 1\nSO = 1.414213562\n"

    def test_json_output(self, capsys):
        assert main(["greedy", "-d", "3,2", "--format", "json"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["command"] == "greedy"
        assert obj["degree_sequence"] == [3, 2]
        assert obj["n"] == 5
        assert obj["edges"] == [[0, 1], [0, 2], [0, 3], [1, 4]]
        assert obj["sombor"] == 12.166174573

    def test_dot_output_exact(self, capsys):
        assert main(["greedy", "-d", "3,2", "--format", "dot"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == (
            "graph greedy {\n"
            "  0 -- 1;\n"
            "  0 -- 2;\n"
            "  0 -- 3;\n"
            "  1 -- 4;\n"
            "}\n"
            "// SO = 12.166174573\n"
        )

    def test_byte_identical_reruns(self, capsys):
        main(["greedy", "-d", "4,3,3,2", "--format", "json"])
        first = capsys.readouterr().out
        main(["greedy", "-d", "4,3,3,2", "--format", "json"])
        assert capsys.readouterr().out == first

    def test_seed_flag_is_usage_error(self):
        usage_error(["greedy", "-d", "3,2", "--seed", "7"])

    def test_zero_degree_rejected(self, capsys):
        assert main(["greedy", "-d", "1,0"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error:")

    def test_non_numeric_degrees_rejected(self, capsys):
        assert main(["greedy", "-d", "abc"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_degrees_is_usage_error(self):
        usage_error(["greedy"])


class TestIndex:
    def test_edge_list_file(self, capsys, tmp_path):
        path = tmp_path / "p4.txt"
        path.write_text("4\n0 1\n1 2\n2 3\n")
        assert main(["index", "--input", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "SO = 7.300563080\n"

    def test_comments_and_blank_lines_ignored(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# greedy tree for 3,2\n\n5\n0 1\n0 2\n0 3\n1 4\n")
        assert main(["index", "--input", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "SO = 12.166174573\n"

    def test_json_file_is_sniffed(self, capsys, tmp_path):
        path = tmp_path / "k2.json"
        path.write_text('{"n": 2, "edges": [[0, 1]]}')
        assert main(["index", "--input", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "SO = 1.414213562\n"

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("4\n0 1\n1 2\n2 3\n"))
        assert main(["index", "--input", "-"]) == EXIT_OK
        assert capsys.readouterr().out == "SO = 7.300563080\n"

    def test_json_format(self, capsys, tmp_path):
        path = tmp_path / "p4.txt"
        path.write_text("4\n0 1\n1 2\n2 3\n")
        assert main(["index", "--input", str(path), "--format", "json"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"command": "index", "n": 4, "sombor": 7.30056308}

    def test_missing_file(self, capsys, tmp_path):
        assert main(["index", "--input", str(tmp_path / "nope.txt")]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "command, text",
        [
            ("index", '{"n": true, "edges": []}'),
            ("optimize", '{"n": 3, "edges": [[0, true], [true, 2]]}'),
        ],
        ids=["index-n", "optimize-labels"],
    )
    def test_json_booleans_rejected(self, capsys, monkeypatch, command, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main([command, "--input", "-", "--format", "json"]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")

    def test_json_edges_not_a_list(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": 3, "edges": "x"}'))
        assert main(["index", "--input", "-"]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == 'error: "edges" must be a list\n'

    def test_cyclic_input_rejected(self, capsys, tmp_path):
        path = tmp_path / "c3.txt"
        path.write_text("3\n0 1\n1 2\n2 0\n")
        assert main(["index", "--input", str(path)]) == EXIT_VALIDATION
        assert "cycle" in capsys.readouterr().err


@pytest.fixture
def chain_file(tmp_path):
    # Two degree-3 vertices joined through a degree-2 middle: the
    # canonical path-condition violation, one swap from greedy.
    path = tmp_path / "chain.txt"
    path.write_text("7\n0 2\n1 2\n0 3\n0 4\n1 5\n1 6\n")
    return str(path)


class TestOptimize:
    def test_chain_descends_one_step(self, capsys, chain_file):
        assert main(["optimize", "--input", chain_file]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "start SO = 19.860213192"
        assert lines[1] == "steps = 1"
        assert lines[-1] == "SO = 19.571092921"

    def test_trace_lines(self, capsys, chain_file):
        assert main(["optimize", "--input", chain_file, "--trace"]) == EXIT_OK
        out = capsys.readouterr().out
        trace = [l for l in out.splitlines() if l.startswith("swap ")]
        assert len(trace) == 1
        assert trace[0].startswith("swap 1: remove")
        assert "delta = -0.289120271" in trace[0]

    def test_greedy_input_is_fixed_point(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("5\n0 1\n0 2\n0 3\n1 4\n")
        assert main(["optimize", "--input", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "start SO = 12.166174573"
        assert lines[1] == "steps = 0"
        assert lines[-1] == "SO = 12.166174573"

    def test_json_trace(self, capsys, chain_file):
        assert main(["optimize", "--input", chain_file, "--format", "json", "--trace"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["start_sombor"] == 19.860213192
        assert obj["final_sombor"] == 19.571092921
        assert obj["steps"] == 1
        assert len(obj["trace"]) == 1
        step = obj["trace"][0]
        assert set(step) == {"removed", "added", "delta", "sombor"}
        assert step["sombor"] == obj["final_sombor"]

    def test_json_without_trace_is_empty(self, capsys, chain_file):
        main(["optimize", "--input", chain_file, "--format", "json"])
        assert json.loads(capsys.readouterr().out)["trace"] == []


class TestEnumerate:
    def test_text_output_exact(self, capsys):
        assert main(["enumerate", "-d", "3,2"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "count = 3",
            "0-1 0-2 0-3 1-4",
            "0-1 0-2 0-4 1-3",
            "0-1 0-3 0-4 1-2",
        ]

    def test_json_matches_library(self, capsys):
        assert main(["enumerate", "-d", "3,2", "--format", "json"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        expected = [
            [list(e) for e in t.edges] for t in oracle.enumerate_trees((3, 2))
        ]
        assert obj["count"] == 3
        assert obj["trees"] == expected

    def test_budget_exceeded_exits_4(self, capsys):
        assert main(["enumerate", "-d", "2,2,2,2", "--budget", "2"]) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "budget" in err

    def test_budget_exceeded_with_huge_count_exits_4(self, capsys):
        # 8000,8000 has a count of 4814 digits, past str()'s default limit.
        assert main(["enumerate", "-d", "8000,8000", "--budget", "1"]) == EXIT_BUDGET
        assert "exceeds budget 1" in capsys.readouterr().err

    def test_nonpositive_budget_is_usage_error(self):
        usage_error(["enumerate", "-d", "3,2", "--budget", "0"])


class TestVerify:
    def test_text_pass(self, capsys):
        assert main(["verify", "-d", "3,3,2"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "degree sequence: 3,3,2"
        assert lines[1] == "labeled trees: 30"
        assert lines[2] == "isomorphism classes: 2"
        assert lines[3] == "greedy SO = 19.571092921"
        assert lines[4] == "oracle min SO = 19.571092921"
        assert lines[5].startswith("argmin: ")
        assert lines[6] == "status: PASS"

    def test_single_tree_sequence(self, capsys):
        assert main(["verify", "-d", "2"]) == EXIT_OK
        assert "labeled trees: 1" in capsys.readouterr().out

    def test_json_pass(self, capsys):
        assert main(["verify", "-d", "3,3,2", "--format", "json"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["command"] == "verify"
        assert obj["labeled_count"] == 30
        assert obj["isomorphism_classes"] == 2
        assert obj["greedy"] == obj["oracle_min"] == 19.571092921
        assert obj["pass"] is True

    def test_large_star_passes(self, capsys):
        assert main(["verify", "-d", "1000"]) == EXIT_OK
        assert "status: PASS" in capsys.readouterr().out

    def test_failed_report_exits_3(self, capsys, monkeypatch):
        fake = oracle.VerificationReport(
            degree_sequence=DegreeSequence((2,)),
            greedy_value=2.0,
            oracle_min=1.0,
            argmin=Tree(2, [(0, 1)]),
            labeled_count=1,
            isomorphism_classes=1,
            passed=False,
        )
        monkeypatch.setattr(oracle, "verify_minimality", lambda *a, **k: fake)
        assert main(["verify", "-d", "2"]) == EXIT_VERIFY
        assert "status: FAIL" in capsys.readouterr().out

    def test_budget_exceeded_exits_4(self, capsys):
        assert main(["verify", "-d", "2,2,2,2", "--budget", "2"]) == EXIT_BUDGET
        assert "budget" in capsys.readouterr().err

    def test_budget_exceeded_with_huge_count_exits_4(self, capsys):
        assert main(["verify", "-d", "8000,8000", "--budget", "1"]) == EXIT_BUDGET
        assert "exceeds budget 1" in capsys.readouterr().err

    def test_nonpositive_tolerance_is_usage_error(self):
        usage_error(["verify", "-d", "3,2", "--tol", "0"])

    @pytest.mark.parametrize("tol", ["nan", "NaN", "inf", "1e400"])
    def test_nonfinite_tolerance_is_usage_error(self, tol, capsys):
        # A nan tolerance would fail every certificate and an infinite one pass any.
        usage_error(["verify", "-d", "3,2", "--tol", tol])
        assert f"--tol: must be a finite number > 0, got '{tol}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["verify", "-d", "3,2", "--tol", "x"], "--tol: must be a finite number > 0, got 'x'"),
        (["verify", "-d", "3,2", "--budget", "x"], "--budget: must be an integer >= 1, got 'x'"),
        (["verify", "-d", "3,2", "--budget", "1.5"],
         "--budget: must be an integer >= 1, got '1.5'"),
        (["sweep", "--max-n", "x"], "--max-n: must be an integer >= 1, got 'x'"),
    ], ids=["tol", "budget", "budget-float", "max-n"])
    def test_non_numeric_option_names_the_rule(self, argv, message, capsys):
        usage_error(argv)
        err = capsys.readouterr().err
        assert message in err
        assert "_positive" not in err


class TestSweep:
    def test_text_all_pass(self, capsys):
        assert main(["sweep", "--max-n", "5"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        assert lines[-1] == "total: 7 pass, 0 fail, 0 skipped"
        assert all("pass" in l for l in lines[:-1])

    def test_csv_output(self, capsys):
        assert main(["sweep", "--max-n", "5", "--format", "csv"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "degree_sequence,total_vertices,labeled_count,greedy,oracle_min,status"
        assert len(lines) == 8
        assert all(l.endswith(",pass") for l in lines[1:])
        assert lines[1] == ",2,1,1.414213562,1.414213562,pass"

    def test_json_summary(self, capsys):
        assert main(["sweep", "--max-n", "5", "--format", "json"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["summary"] == {"pass": 7, "fail": 0, "skipped": 0}
        assert len(obj["rows"]) == 7
        assert obj["rows"][0]["degree_sequence"] == []
        assert obj["rows"][0]["greedy"] == 1.414213562

    def test_small_budget_skips_and_exits_4(self, capsys):
        assert main(["sweep", "--max-n", "5", "--budget", "1"]) == EXIT_BUDGET
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "total: 4 pass, 0 fail, 3 skipped"

    def test_failing_row_exits_3(self, capsys, monkeypatch):
        bad = oracle.VerificationReport(
            degree_sequence=DegreeSequence((2,)),
            greedy_value=2.0,
            oracle_min=1.0,
            argmin=Tree(2, [(0, 1)]),
            labeled_count=1,
            isomorphism_classes=1,
            passed=False,
        )
        rows = [oracle.SweepRow(DegreeSequence((2,)), 1, bad)]
        monkeypatch.setattr(oracle, "sweep_verify", lambda *a, **k: iter(rows))
        assert main(["sweep", "--max-n", "5"]) == EXIT_VERIFY
        assert "1 fail" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "fmt, first_line",
        [
            ("text", f"{'()':<24} n=2   count=1         greedy=1.414213562     oracle=1.414213562     pass"),
            ("csv", ",2,1,1.414213562,1.414213562,pass"),
        ],
        ids=["text", "csv"],
    )
    def test_rows_are_written_as_they_finish(self, capsys, monkeypatch, fmt, first_line):
        real = oracle.sweep_verify

        def streamed(*args, **kwargs):
            rows = real(*args, **kwargs)
            yield next(rows)
            assert capsys.readouterr().out.endswith(first_line + "\n")
            yield from rows

        monkeypatch.setattr(oracle, "sweep_verify", streamed)
        assert main(["sweep", "--max-n", "3", "--format", fmt]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0].startswith("2")

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_bound_below_two_prints_nothing(self, capsys, fmt):
        assert main(["sweep", "--max-n", "1", "--format", fmt]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: max_n must be >= 2, got 1\n"

    def test_missing_max_n_is_usage_error(self):
        usage_error(["sweep"])


class TestDecompose:
    def test_text_from_degrees(self, capsys):
        assert main(["decompose", "-d", "4,3,2"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "base SO = 16.492422502"
        assert lines[1].startswith("t=2 d_t=3 d_p=4 ")
        assert lines[2].startswith("t=3 d_t=2 d_p=4 ")
        assert lines[-1] == "final SO = 26.278970504"

    def test_star_has_no_steps(self, capsys):
        assert main(["decompose", "-d", "2"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "base SO = 4.472135955\nfinal SO = 4.472135955\n"
        )

    def test_json_steps(self, capsys):
        assert main(["decompose", "-d", "4,3,2", "--format", "json"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert obj["base"] == 16.492422502
        assert obj["final"] == 26.278970504
        assert [(s["t"], s["d_t"], s["d_p"]) for s in obj["steps"]] == [
            (2, 3, 4),
            (3, 2, 4),
        ]
        assert obj["steps"][-1]["running_total"] == obj["final"]

    def test_input_file(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("5\n0 1\n0 2\n0 3\n1 4\n")
        assert main(["decompose", "--input", str(path)]) == EXIT_OK
        assert "final SO = 12.166174573" in capsys.readouterr().out

    def test_tied_candidates_and_compacted_labels(self, capsys, tmp_path):
        # Not the greedy labeling: rooted at 2, vertices 3 and 4 tie at
        # degree 2 and the deeper one, 3, goes first; 3, 4 and 6 are each
        # attached at label 2 once the stripped leaves are compacted away.
        path = tmp_path / "tie.txt"
        path.write_text("8\n0 3\n1 4\n2 4\n2 6\n2 7\n3 6\n5 6\n")
        assert main(["decompose", "--input", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == (
            "base SO = 9.486832981\n"
            "t=2 d_t=3 d_p=3 attach_at=2 delta=7.404918347 total=16.891751328\n"
            "t=3 d_t=2 d_p=3 attach_at=2 delta=2.679341593 total=19.571092921\n"
            "t=4 d_t=2 d_p=3 attach_at=2 delta=2.679341593 total=22.250434513\n"
            "final SO = 22.250434513\n"
        )

    def test_single_vertex_rejected(self, capsys, tmp_path):
        path = tmp_path / "k1.txt"
        path.write_text("1\n")
        assert main(["decompose", "--input", str(path)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: cannot decompose a tree with n=1: need n >= 2\n"

    def test_non_greedy_input_rejected(self, capsys, chain_file):
        assert main(["decompose", "--input", chain_file]) == EXIT_VALIDATION
        assert "path condition" in capsys.readouterr().err

    def test_degrees_and_input_are_mutually_exclusive(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2\n0 1\n")
        usage_error(["decompose", "-d", "3,2", "--input", str(path)])

    def test_one_source_is_required(self):
        usage_error(["decompose"])


class TestUsage:
    def test_no_arguments(self):
        usage_error([])

    def test_unknown_command(self):
        usage_error(["frobnicate"])

    def test_bad_format_choice(self):
        usage_error(["greedy", "-d", "3,2", "--format", "yaml"])


class TestTooLarge:
    @pytest.mark.parametrize(
        "argv",
        [["greedy", "-d", "100000000"], ["verify", "-d", "99999999999999999999999999"]],
        ids=["memory", "overflow"],
    )
    def test_oversized_input_exits_5_with_one_line(self, argv):
        # The child caps its own address space at 256 MB before it runs the
        # CLI, so the greedy build of 10^8 vertices runs out of memory; the
        # verify sequence has one labeled tree but too many leaves to index.
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
            "from sombor.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        src = os.path.dirname(os.path.dirname(sombor.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == EXIT_TOO_LARGE
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: input too large for this machine")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


class TestConsoleScript:
    def test_pyproject_target_runs_the_cli(self, capsys, monkeypatch):
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        # A regex, not tomllib: Python 3.10 has no TOML parser.
        pattern = r'^\[project\.scripts\]$[^\[]*^sombor\s*=\s*"([\w.]+):(\w+)"'
        match = re.search(pattern, text, re.M)
        assert match, "pyproject.toml names no sombor console script"
        target = getattr(importlib.import_module(match[1]), match[2])
        monkeypatch.setattr(sys, "argv", ["sombor", "greedy", "-d", "3,2"])
        with pytest.raises(SystemExit) as excinfo:
            target()
        assert excinfo.value.code == EXIT_OK
        assert capsys.readouterr().out == GREEDY_32_TEXT


class TestPipes:
    def test_reader_closing_stdout_is_a_clean_exit(self):
        # 226800 trees print far more than a pipe buffer holds, so the
        # child is still writing when the reader goes away.
        src = os.path.dirname(os.path.dirname(sombor.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "sombor", "enumerate", "-d", "3,3,3,3,2,2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        try:
            assert proc.stdout.readline() == b"count = 226800\n"
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == EXIT_OK
        assert err == b""
