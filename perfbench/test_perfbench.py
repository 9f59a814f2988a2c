"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench"""

from __future__ import annotations

import importlib
import itertools
import json
import random
import statistics
import sys

import pytest

import run  # puts src/ on sys.path
import checks
import inputs
import tracing
from sombor import Tree, build_greedy_tree, enumeration_count


def cli_output(argv, stdin=None, exit_code=0) -> str:
    outcome, out = run.run_in_process(run.Call(tuple(argv), lambda out: 0, stdin), importlib.import_module("sombor.cli"))
    assert outcome.exit_code == exit_code
    return out


def small_tree_text(n=30) -> str:
    """A random labeled tree that violates the path condition."""
    rng = random.Random(1)
    return inputs.edge_list_text(n, inputs.prufer_tree([rng.randrange(n) for _ in range(n - 2)], n))


# -- tracer ------------------------------------------------------------


def fake_clock(*times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_only_direct_children():
    t = tracing.Tracer(clock=fake_clock(0, 1, 3, 4, 5, 6, 8, 10))
    a = t.begin("a")
    b = t.begin("b")
    t.finish(b)
    c = t.begin("c")
    d = t.begin("d")
    t.finish(d)
    t.finish(c)
    t.finish(a)
    assert t.self_times() == {"a": 4.0, "b": 2.0, "c": 3.0, "d": 1.0}
    assert list(t.parent) == [-1, 0, 0, 2]


def test_self_time_sums_repeated_spans_of_one_name():
    t = tracing.Tracer(clock=fake_clock(0, 1, 2, 3, 5, 9))
    outer = t.begin("x")
    inner = t.begin("x")
    t.finish(inner)
    other = t.begin("y")
    t.finish(other)
    t.finish(outer)
    # outer x: 9 - (1 + 2) = 6, inner x: 1, y: 2
    assert t.self_times() == {"x": 7.0, "y": 2.0}


def test_iterator_is_timed_per_next_and_nests_under_the_consumer():
    t = tracing.Tracer(clock=itertools.count().__next__)
    gen = t.wrap_iter("gen", lambda: iter([1, 2]))
    consume = t.wrap("consume", lambda: list(gen()))
    assert consume() == [1, 2]
    names = [t.names[i] for i in t.name_id]
    # the call, two items, and the exhausting next()
    assert names == ["consume", "gen", "gen", "gen", "gen"]
    assert set(t.parent[1:]) == {0}
    assert t.calls == {"consume": 1, "gen": 1}


def test_instrument_rebinds_every_module_and_restores():
    swaps = sys.modules["sombor.swaps"]
    cli = importlib.import_module("sombor.cli")
    originals = (swaps.iter_path_violations, cli.local_search, Tree.__init__, Tree.__dict__["from_json"])
    tracer = tracing.Tracer()
    tree = Tree(7, inputs.prufer_tree([0, 0, 1, 2, 3], 7))
    with tracing.instrument(tracer):
        assert swaps.iter_path_violations is not originals[0]
        assert cli.local_search is not originals[1]
        cli.local_search(tree)
    assert (swaps.iter_path_violations, cli.local_search, Tree.__init__, Tree.__dict__["from_json"]) == originals
    scans = [p for i, p in zip(tracer.name_id, tracer.parent) if tracer.names[i] == "greedy.path_scan"]
    assert scans and all(tracer.names[tracer.name_id[p]] == "swaps.find" for p in scans)
    assert tracer.calls["swaps.local_search"] == 1


def test_instrument_counts_trees_once_whichever_route_scans_them():
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        cli_output(["verify", "-d", "3,3,2"])  # enumerates inside verify
        cli_output(["enumerate", "-d", "3,2"])
        # n <= 5: 7 sequences; (3,2) and (2,2,2) have 3 and 6 trees, over budget
        cli_output(["sweep", "--max-n", "5", "--budget", "2"], exit_code=4)
    assert tracer.counts["oracle.trees_scanned"] == 30 + 3 + (1 + 1 + 1 + 2 + 1)
    assert tracer.counts["oracle.sweep.rows"] == 7
    assert tracer.counts["oracle.sweep.skipped"] == 2


# -- checks ------------------------------------------------------------


def test_pinned_classify_counts_match_the_library_formula():
    for seq in inputs.CLASSIFY_SEQUENCES:
        assert inputs.labeled_count(seq) == enumeration_count(seq)
        assert 5000 <= inputs.labeled_count(seq) <= 20000
    assert {inputs.labeled_count(s) for s in inputs.ENUMERATE_SEQUENCES} == {15120}


def sweep_csv(rows) -> str:
    header = "degree_sequence,total_vertices,labeled_count,greedy,oracle_min,status\n"
    return header + "".join(",".join(map(str, row)) + "\n" for row in rows)


def test_sweep_check_rejects_dropped_row_wrong_count_wrong_index_and_failure():
    rows = []
    for seq in checks.sweep_sequences(inputs.SWEEP_MAX_N):
        so = f"{build_greedy_tree(seq).tree.sombor():.9f}"
        rows.append([" ".join(map(str, seq)), seq.total_vertices(), enumeration_count(seq), so, so, "pass"])
    assert checks.check_sweep(sweep_csv(rows)) == checks.SWEEP_TREES
    wrong_count = [row.copy() for row in rows]
    wrong_count[9][2] += 1
    wrong_greedy = [row.copy() for row in rows]
    wrong_greedy[30][3] = f"{float(rows[30][3]) + 1e-8:.9f}"
    wrong_min = [row.copy() for row in rows]
    wrong_min[60][4] = f"{float(rows[60][4]) - 1e-8:.9f}"
    failed = [row.copy() for row in rows]
    failed[5][5] = "fail"
    for bad in (rows[:-1], rows[:40] + rows[41:], wrong_count, wrong_greedy, wrong_min, failed):
        with pytest.raises(checks.CheckError):
            checks.check_sweep(sweep_csv(bad))


def test_verify_check_rejects_wrong_counts_and_failure():
    seq = (2,) * 7
    good = json.loads(cli_output(["verify", "-d", "2,2,2,2,2,2,2", "--format", "json"]))
    assert checks.check_verify(seq, json.dumps(good)) == 5040
    for key, value in [("labeled_count", 5039), ("isomorphism_classes", 2), ("pass", False)]:
        with pytest.raises(checks.CheckError):
            checks.check_verify(seq, json.dumps({**good, key: value}))


def test_enumerate_check_rejects_wrong_count_dropped_repeated_or_wrong_tree():
    seq = (3, 3, 2)
    good = json.loads(cli_output(["enumerate", "-d", "3,3,2", "--format", "json"]))
    assert checks.check_enumerate(seq, json.dumps(good)) == 30
    trees = good["trees"]
    swapped_degrees = [[[0, 1], [0, 2], [1, 3], [1, 4], [1, 5], [2, 6]]]
    for doc in [
        {**good, "count": 31},
        {**good, "trees": trees[:-1]},
        {**good, "trees": trees[:-1] + trees[:1]},
        {**good, "trees": trees[:-1] + swapped_degrees},
    ]:
        with pytest.raises(checks.CheckError):
            checks.check_enumerate(seq, json.dumps(doc))


def test_optimize_check_rejects_dropped_trace_line_and_wrong_values():
    text = small_tree_text()
    good = json.loads(cli_output(["optimize", "--input", "-", "--trace", "--format", "json"], stdin=text))
    assert good["steps"] > 0
    assert checks.check_optimize(text, json.dumps(good)) == good["steps"]
    for doc in [
        {**good, "trace": good["trace"][:-1]},
        {**good, "final_sombor": good["final_sombor"] + 1e-6},
        {**good, "start_sombor": good["start_sombor"] - 1e-6},
        {**good, "edges": json.loads(cli_output(["greedy", "-d", "2", "--format", "json"]))["edges"]},
    ]:
        with pytest.raises((checks.CheckError, ValueError)):
            checks.check_optimize(text, json.dumps(doc))


def test_optimize_check_rejects_a_tree_that_breaks_the_path_condition():
    text = small_tree_text()
    doc = json.loads(cli_output(["optimize", "--input", "-", "--format", "json"], stdin=text))
    start = Tree.from_edge_list(text)
    doc.update(edges=[list(e) for e in start.edges], final_sombor=round(start.sombor(), 9))
    with pytest.raises(checks.CheckError, match="path condition"):
        checks.check_optimize(text, json.dumps(doc))


def test_decompose_check_rejects_dropped_step_and_wrong_final():
    seq = (4, 3, 3, 2)
    good = json.loads(cli_output(["decompose", "-d", "4,3,3,2", "--format", "json"]))
    assert checks.check_decompose(seq, json.dumps(good)) == 3
    for doc in [{**good, "steps": good["steps"][1:]}, {**good, "final": good["final"] + 1e-8}]:
        with pytest.raises(checks.CheckError):
            checks.check_decompose(seq, json.dumps(doc))


def test_noop_check_pins_the_index():
    out = cli_output(["greedy", "-d", "2"])
    assert checks.check_noop(out) == 1
    with pytest.raises(checks.CheckError):
        checks.check_noop(out.replace("4.47213", "4.47214"))


def test_verifier_fails_a_repeat_that_prints_different_bytes():
    verifier = run.Verifier()
    call = run.Call(("x",), lambda out: len(out))
    first, again, changed = (run.Outcome(call, 1.0, 0) for _ in range(3))
    verifier(first, "abc")
    verifier(again, "abc")
    verifier(changed, "abd")
    assert (first.units, again.units, changed.units) == (3, 3, 0)
    assert not first.error and not again.error and changed.error
    crashed = run.Outcome(call, 1.0, 2, error="boom")
    verifier(crashed, "abc")
    assert crashed.error == "exit code 2: boom"


def test_timed_loop_ends_at_the_pass_boundary_nearest_the_time():
    # passes of 4 calls, 2 s each; 5 s is nearer 4 s than 6 s
    assert [n for n in range(13) if run.loop_done(n / 2, n, 4, 5)] == [8, 12]
    assert [n for n in range(13) if run.loop_done(n / 2, n, 4, 5.1)] == [12]
    assert not run.loop_done(0.0, 0, 1, 5)
    # a classify pass holds every sequence once and one enumerate per round
    argvs = [c.argv for c in itertools.islice(run.classify_calls(3), run.WORKLOADS["classify"][1])]
    assert sorted(a[2] for a in argvs if a[0] == "verify") == sorted(
        ",".join(map(str, s)) for s in inputs.CLASSIFY_SEQUENCES
    )
    assert sum(a[0] == "enumerate" for a in argvs) == len(argvs) // (inputs.VERIFIES_PER_ENUMERATE + 1)


def test_harrell_davis_median_is_a_median_that_bridges_gaps():
    hd = run.harrell_davis_median
    assert hd([3.0]) == 3.0
    assert hd([5.0, 1.0, 4.0, 2.0, 3.0]) == pytest.approx(3.0)
    assert hd([1.0] * 15 + [2.0] * 15) == pytest.approx(1.5)
    # one of 30 calls crossing the gap between two call sizes moves the
    # plain median by half the gap, the estimate by much less
    low, high = [1.0] * 15 + [2.0] * 15, [1.0] * 14 + [2.0] * 16
    assert statistics.median(high) - statistics.median(low) == 0.5
    assert 0 < hd(high) - hd(low) < 0.2


# -- inputs ------------------------------------------------------------


def test_inputs_are_deterministic_per_seed():
    assert inputs.classify_order(5) == inputs.classify_order(5)
    assert inputs.classify_order(5) != inputs.classify_order(6)
    assert inputs.descent_trees(5, 3) == inputs.descent_trees(5, 3)
    assert inputs.descent_trees(5, 3) != inputs.descent_trees(6, 3)
    assert inputs.decompose_sequences(5, 2) == inputs.decompose_sequences(5, 2)
    assert inputs.decompose_sequences(5, 2) != inputs.decompose_sequences(6, 2)
    calls = [c.argv for c in itertools.islice(run.classify_calls(5), 12)]
    assert calls == [c.argv for c in itertools.islice(run.classify_calls(5), 12)]


def test_generated_inputs_have_the_stated_shape():
    order, pick = inputs.classify_order(1)
    assert sorted(order) == sorted(inputs.CLASSIFY_SEQUENCES) and pick in inputs.ENUMERATE_SEQUENCES
    # each round of verifies holds one sequence from each size band
    rank = {s: i for i, s in enumerate(sorted(order, key=lambda s: (inputs.labeled_count(s), s)))}
    for r in range(0, len(order), 5):
        assert sorted(rank[s] // 5 for s in order[r:r + 5]) == [0, 1, 2, 3, 4]
    for text in inputs.descent_trees(1, 3):
        tree = Tree.from_edge_list(text)
        assert tree.n == inputs.DESCENT_N
    for seq in inputs.decompose_sequences(1, 3):
        assert 2 + sum(d - 1 for d in seq) == inputs.DECOMPOSE_N
        assert list(seq) == sorted(seq, reverse=True) and min(seq) >= 2


def test_prufer_tree_degrees_follow_code_multiplicities():
    code = [3, 3, 0, 5, 3]
    tree = Tree(7, inputs.prufer_tree(code, 7))
    assert tree.degrees() == tuple(1 + code.count(v) for v in range(7))


# -- launcher ----------------------------------------------------------


def test_child_peak_rss_does_not_depend_on_earlier_large_outputs_or_the_parent():
    noop = run.Call(run.NOOP_ARGV, checks.check_noop)
    seq = inputs.ENUMERATE_SEQUENCES[0]
    big = run.Call(("enumerate", "-d", ",".join(map(str, seq)), "--format", "json"), lambda out: 0)
    ballast = bytes(64 << 20).replace(b"\0", b"x")  # the parent's RSS grows by 64 MB
    with run.Launcher({**run.os.environ, "PYTHONPATH": str(run.SRC)}) as launcher:
        before, out = launcher.run_cli(noop)
        assert checks.check_noop(out) == 1
        large, out = launcher.run_cli(big)
        assert len(out) > 1 << 20
        after, _ = launcher.run_cli(noop)
        # a bare interpreter shows the launcher's floor, below any CLI call
        floor = launcher.spawn([sys.executable, "-S", "-c", ""])[0]["maxrss_kb"] / 1024
    assert len(ballast) == 64 << 20
    assert floor < before.maxrss_mb - 2
    assert before.maxrss_mb < 40 and large.maxrss_mb > before.maxrss_mb + 20
    assert abs(after.maxrss_mb - before.maxrss_mb) < 2
