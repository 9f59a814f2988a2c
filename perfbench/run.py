"""Benchmark of the sombor CLI: four workloads end to end, or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 22 --trace 0

With --trace 0 the CLI runs as subprocesses (`python -m sombor`, with
src/ on PYTHONPATH), one call at a time: a closed loop with one client,
for the whole passes over the workload's inputs whose call wall time
comes nearest to --seconds.  Every call's output
is checked outside the timed region, and the end-to-end metrics are
reported.  With --trace 1 a fixed number of the same calls, set by
--seconds, run in process, each once plain and once under the
outside-in tracer, and the per-layer metrics are reported.

Every metric is printed by name with its unit; the last line of stdout
is one JSON object with the keys correct, attempted, failed and
metrics.  A record of the run, with each call's wall and CPU time, is
written under perfbench/runs/.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

# The package under test is not installed; it is imported from the
# checkout, as the CLI children are.
sys.path.insert(0, str(SRC))
try:
    import checks
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the package under test from {SRC}: {exc}")

NOOP_ARGV = ("greedy", "-d", "2")
# Wall time of one yardstick.py run on a machine of nominal speed.  Each
# call's wall time is scaled by nominal / measured yardstick time around
# it, which takes out most of the drift in speed of a shared VM (see
# README.md).
YARDSTICK_NOMINAL_S = 0.080
DESCENT_POOL = 30
DECOMPOSE_POOL = 4
WAITING = (
    "waiting: none measured. The program is single-threaded and waits on "
    "no queue, lock or other process, so no layer has a waiting time."
)


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check its output must pass."""

    argv: tuple[str, ...]
    check: Callable[[str], int]
    stdin: Optional[str] = None
    label: str = ""


@dataclass
class Outcome:
    call: Call
    wall_s: float
    exit_code: int
    cpu_s: Optional[float] = None
    maxrss_mb: Optional[float] = None
    units: int = 0
    error: str = ""

    def record(self) -> dict:
        return {
            "argv": " ".join(self.call.argv),
            "input": self.call.label,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "maxrss_mb": self.maxrss_mb,
            "exit_code": self.exit_code,
            "units": self.units,
            "error": self.error,
        }


def _degrees(seq: tuple[int, ...]) -> str:
    return ",".join(map(str, seq))


def sweep_calls(seed: int) -> Iterator[Call]:
    # One fixed input: the sweep has no seeded choice to make.
    argv = ("sweep", "--max-n", str(inputs.SWEEP_MAX_N), "--format", "csv")
    return itertools.repeat(Call(argv, checks.check_sweep, label=f"max_n={inputs.SWEEP_MAX_N}"))


def classify_calls(seed: int) -> Iterator[Call]:
    order, pick = inputs.classify_order(seed)
    enumerate_call = Call(
        ("enumerate", "-d", _degrees(pick), "--format", "json"),
        functools.partial(checks.check_enumerate, pick),
        label=_degrees(pick),
    )
    verifies = itertools.cycle(
        Call(("verify", "-d", _degrees(s), "--format", "json"), functools.partial(checks.check_verify, s), label=_degrees(s))
        for s in order
    )
    while True:
        yield enumerate_call
        yield from itertools.islice(verifies, inputs.VERIFIES_PER_ENUMERATE)


def descent_calls(seed: int) -> Iterator[Call]:
    argv = ("optimize", "--input", "-", "--trace", "--format", "json")
    return itertools.cycle(
        Call(argv, functools.partial(checks.check_optimize, text), stdin=text, label=f"seed {seed} tree {i}")
        for i, text in enumerate(inputs.descent_trees(seed, DESCENT_POOL))
    )


def decompose_calls(seed: int) -> Iterator[Call]:
    return itertools.cycle(
        Call(
            ("decompose", "--format", "json", "-d", _degrees(s)),
            functools.partial(checks.check_decompose, s),
            label=f"seed {seed} sequence {i} (k={len(s)})",
        )
        for i, s in enumerate(inputs.decompose_sequences(seed, DECOMPOSE_POOL))
    )


# Calls per second of --seconds in a traced run.  The traced run makes
# a fixed number of calls, not as many as fit in the time, so its counts
# repeat exactly for a given seed.  At these rates it takes about
# --seconds on a 2-core VM at nominal speed, and 1.5 times that when the
# machine runs slow.
TRACE_CALLS_PER_S = {"sweep": 0.2, "classify": 0.5, "descent": 0.6, "decompose": 0.3}

# Workload -> (call stream, calls in one pass over its inputs, what one
# unit of throughput is).
WORKLOADS = {
    "sweep": (sweep_calls, 1, "labeled trees scanned"),
    "classify": (
        classify_calls,
        len(inputs.CLASSIFY_SEQUENCES) // inputs.VERIFIES_PER_ENUMERATE * (inputs.VERIFIES_PER_ENUMERATE + 1),
        "labeled trees verified or listed",
    ),
    "descent": (descent_calls, DESCENT_POOL, "swaps applied"),
    "decompose": (decompose_calls, DECOMPOSE_POOL, "strip steps"),
}


def loop_done(busy: float, calls: int, pass_len: int, seconds: float) -> bool:
    """Whether a timed loop of `calls` calls, `busy` seconds in all, ends here.

    It ends only after a whole pass over the workload's inputs, so the
    mix of inputs timed does not depend on where the time ran out: the
    inputs differ in cost, and how much of a part-pass a run got through
    moved the median call time of `classify` by up to 20%.  Of the pass
    boundaries it ends at the one nearest to `seconds` of call time.
    """
    if not calls or calls % pass_len:
        return False
    return busy + busy / (calls // pass_len) / 2 >= seconds


def harrell_davis_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median.

    A mean of the sorted values weighted by the Beta((n+1)/2, (n+1)/2)
    density over each one's slot in (0, 1).  A workload's calls differ
    in cost, and the plain median of a few dozen of them can fall in a
    gap between call sizes, where noise in the one or two middle calls
    moves it far: over ten `classify` runs it spread 0.11-0.15
    (interquartile range over median) against 0.07 for this estimate.
    """
    xs = sorted(values)
    n = len(xs)
    shape = (n + 1) / 2 - 1
    steps = 200  # midpoint-rule steps per slot
    weights = [
        sum(
            # density relative to its peak at 1/2, so it cannot overflow
            math.exp(shape * (math.log(t) + math.log1p(-t) + math.log(4)))
            for t in ((i + (k + 0.5) / steps) / n for k in range(steps))
        )
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


class Verifier:
    """Checks each output once per distinct call; repeats must match byte for byte."""

    def __init__(self):
        self.first: dict[tuple, tuple[str, int]] = {}

    def __call__(self, outcome: Outcome, out: str) -> None:
        if outcome.exit_code != 0:
            detail = f": {outcome.error}" if outcome.error else ""
            outcome.error = f"exit code {outcome.exit_code}{detail}"
            return
        key = (outcome.call.argv, outcome.call.stdin)
        if key in self.first:
            first_out, units = self.first[key]
            if out != first_out:
                outcome.error = "output differs from an earlier identical call"
            else:
                outcome.units = units
            return
        try:
            units = outcome.call.check(out)
        except Exception as exc:  # any malformed output is a failed call, not a crash
            outcome.error = f"{type(exc).__name__}: {exc}"
            return
        self.first[key] = (out, units)
        outcome.units = units


class Launcher:
    """Runs child processes through launcher.py, a process that stays small.

    A child's peak RSS from wait4 includes the peak RSS of the process
    that spawned it (see launcher.py), so children are not spawned from
    this process, which holds large outputs while it checks them.
    Children write their output to files under runs/, which this
    process reads after each child has ended.
    """

    def __init__(self, env: dict):
        RUNS.mkdir(exist_ok=True)
        stem = RUNS / f".child-{os.getpid()}"
        self.paths = {name: Path(f"{stem}.{name}") for name in ("stdin", "stdout", "stderr")}
        # -S skips site imports, which keeps the launcher near 10 MB,
        # below the smallest CLI call's peak (about 15 MB).
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launcher.py")],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        for path in self.paths.values():
            path.unlink(missing_ok=True)

    def spawn(self, argv: list[str], stdin: Optional[str] = None) -> tuple[dict, str, str]:
        """Run argv to completion; returns the launcher's reply, stdout and stderr."""
        if stdin is not None:
            self.paths["stdin"].write_text(stdin, encoding="utf-8")
        request = {
            "argv": argv,
            "stdin": None if stdin is None else str(self.paths["stdin"]),
            "stdout": str(self.paths["stdout"]),
            "stderr": str(self.paths["stderr"]),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        reply = json.loads(line)
        read = lambda name: self.paths[name].read_text(encoding="utf-8", errors="replace")
        return reply, read("stdout"), read("stderr")

    def run_cli(self, call: Call) -> tuple[Outcome, str]:
        """Run one CLI call as a child; wall, CPU and peak RSS come from wait4."""
        reply, out, err = self.spawn([sys.executable, "-m", "sombor", *call.argv], call.stdin)
        outcome = Outcome(
            call, reply["wall_s"], reply["exit_code"],
            cpu_s=reply["cpu_s"], maxrss_mb=reply["maxrss_kb"] / 1024,
        )
        if outcome.exit_code != 0 and err.strip():
            outcome.error = err.strip().splitlines()[-1]
        return outcome, out

    def run_yardstick(self) -> float:
        """Wall time of one yardstick.py process."""
        reply, _, err = self.spawn([sys.executable, str(HERE / "yardstick.py")])
        if reply["exit_code"] != 0:
            raise RuntimeError(f"yardstick.py failed: {err.strip()}")
        return reply["wall_s"]


def run_in_process(call: Call, cli) -> tuple[Outcome, str]:
    """Run one CLI call through cli.main in this process."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(call.stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            cpu = time.process_time()
            error = ""
            try:
                code = cli.main(list(call.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed call, as it is for a subprocess
                code, error = 1, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu
    finally:
        sys.stdin = saved_stdin
    return Outcome(call, wall, code, cpu_s=cpu, error=error), out.getvalue()


def measure_cli(workload: str, seed: int, seconds: float):
    with Launcher({**os.environ, "PYTHONPATH": str(SRC)}) as launcher:
        return _measure_cli(launcher, workload, seed, seconds)


def _measure_cli(launcher: Launcher, workload: str, seed: int, seconds: float):
    verifier = Verifier()
    outcomes: list[Outcome] = []

    def call_once(call: Call) -> Outcome:
        outcome, out = launcher.run_cli(call)
        verifier(outcome, out)
        outcomes.append(outcome)
        return outcome

    noop = Call(NOOP_ARGV, checks.check_noop, label="no-op")
    # The first call in a fresh checkout also compiles bytecode, which
    # users pay once, not per call; it is checked but not timed.
    call_once(noop)
    # Each workload call is followed by a no-op call (a set-up sample)
    # and a yardstick run; the yardstick runs on either side of a call
    # give the machine's speed while it ran.
    setup: list[float] = []
    yardstick = [launcher.run_yardstick()]
    calls, pass_len, unit_name = WORKLOADS[workload]
    stream = calls(seed)
    loop: list[Outcome] = []
    busy = 0.0
    while not loop_done(busy, len(loop), pass_len, seconds):
        loop.append(call_once(next(stream)))
        busy += loop[-1].wall_s
        setup.append(call_once(noop).wall_s)
        yardstick.append(launcher.run_yardstick())
    slowdown = [(a + b) / (2 * YARDSTICK_NOMINAL_S) for a, b in zip(yardstick, yardstick[1:])]
    scaled = [o.wall_s / f for o, f in zip(loop, slowdown)]
    work = sum(o.units for o in loop)
    failed = sum(1 for o in outcomes if o.error)
    raw = {
        "throughput": work / busy,
        "call_p50_s": harrell_davis_median([o.wall_s for o in loop]),
        "setup_s": statistics.median(setup),
    }
    metrics = {
        "throughput": (work / sum(scaled), "1/s"),
        "call_p50_s": (harrell_davis_median(scaled), "s"),
        "setup_s": (statistics.median(t / f for t, f in zip(setup, slowdown)), "s"),
        "peak_rss_mb": (max(o.maxrss_mb for o in outcomes), "MB"),
    }
    notes = [
        f"timings above are at nominal machine speed: each call's wall time is scaled by "
        f"{YARDSTICK_NOMINAL_S} s over the mean of the yardstick runs on either side of it "
        f"(median yardstick {statistics.median(yardstick):.4f} s over {len(yardstick)} runs)",
        f"throughput: {unit_name} per second of scaled call wall time; {work} in {len(loop)} calls, {len(loop) // pass_len} pass(es) over the inputs, "
        f"{busy:.3f} s unscaled; unscaled {raw['throughput']:.6f} 1/s",
        f"call_p50_s: Harrell-Davis median of {len(loop)} calls, process start-up included; unscaled {raw['call_p50_s']:.6f} s",
        f"setup_s: median of {len(setup)} calls of `sombor {' '.join(NOOP_ARGV)}`, one after each "
        f"workload call; unscaled {raw['setup_s']:.6f} s",
        f"peak_rss_mb: largest peak RSS of one CLI child, over {len(outcomes)} children",
        f"failed_frac: {failed / len(outcomes)} ({failed} of {len(outcomes)} calls)",
        "cpu_s/wall_s over the loop: "
        f"{sum(o.cpu_s for o in loop) / busy:.4f} (per-call CPU time is in the run record)",
    ]
    extra = {
        "repeats": {"workload_calls": len(loop), "passes": len(loop) // pass_len, "setup_calls": len(setup), "yardstick_runs": len(yardstick)},
        "unscaled": raw,
        "yardstick_s": yardstick,
    }
    return metrics, outcomes, notes, extra


def measure_traced(workload: str, seed: int, seconds: float):
    cli = importlib.import_module("sombor.cli")
    tracer = tracing.Tracer()
    verifier = Verifier()
    outcomes: list[Outcome] = []
    plain = traced = 0.0
    count = math.ceil(seconds * TRACE_CALLS_PER_S[workload])
    # Each call runs plain and traced back to back, in alternating order,
    # which keeps drift in machine speed out of the overhead ratio.
    for request, call in enumerate(itertools.islice(WORKLOADS[workload][0](seed), count)):
        for traced_turn in (request % 2, 1 - request % 2):
            if traced_turn:
                tracer.current_request = request
                with tracing.instrument(tracer):
                    outcome, out = run_in_process(call, cli)
                traced += outcome.wall_s
            else:
                outcome, out = run_in_process(call, cli)
                plain += outcome.wall_s
            verifier(outcome, out)
            outcomes.append(outcome)
    self_s = tracer.self_times()
    metrics = {}
    for span in tracing.SPAN_NAMES:
        metrics[f"{span}.calls"] = (tracer.calls[span], "count")
        metrics[f"{span}.self_s"] = (self_s.get(span, 0.0), "s")
    for name in tracing.COUNTS:
        metrics[name] = (tracer.counts[name], "count")
    rows = tracer.counts["oracle.sweep.rows"]
    covered = (rows - tracer.counts["oracle.sweep.skipped"]) / rows if rows else 0.0
    metrics["oracle.sweep.covered_frac"] = (covered, "ratio")
    metrics["trace_overhead_frac"] = (traced / plain - 1, "ratio")
    RUNS.mkdir(exist_ok=True)
    spans_path = RUNS / f"{workload}-spans.csv.gz"
    tracer.write_spans(spans_path)
    ranked = sorted(self_s.items(), key=lambda kv: -kv[1])
    notes = [f"{count} calls, each run plain ({plain:.3f} s in all) and traced ({traced:.3f} s)"]
    notes += [f"  {name:<22} {s:10.4f} s self  {s / traced:6.1%} of traced wall" for name, s in ranked]
    notes += [
        "oracle.sweep.covered_frac is 0 when the workload runs no sweep",
        f"{len(tracer.start)} spans written to {spans_path.relative_to(ROOT)}",
    ]
    return metrics, outcomes, notes, {"repeats": {"calls_each_plain_and_traced": count}}


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
        help="one workload, or all four in turn, each with its own result line",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="wall time of workload calls to measure; with --trace 1 it sets the number of calls",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> None:
    """Measure one workload, write its record and print its metrics."""
    measure = measure_traced if trace else measure_cli
    metrics, outcomes, notes, extra = measure(workload, seed, seconds)
    failed = sum(1 for o in outcomes if o.error)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    RUNS.mkdir(exist_ok=True)
    record_path = RUNS / f"{workload}-seed{seed}-trace{trace}.json"
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": sys.version,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "calls": [o.record() for o in outcomes],
        **extra,
        **result,
    }
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    mode = "traced in process" if trace else "CLI subprocesses, closed loop, 1 client"
    print(f"perfbench {workload} seed={seed} seconds={seconds} ({mode}; {record['nproc']} cores)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<30} {value:>16.6f} {unit}" if isinstance(value, float) else f"{name:<30} {value:>16} {unit}")
    for line in notes:
        print(line)
    for o in outcomes:
        if o.error:
            print(f"FAILED {' '.join(o.call.argv)} [{o.call.label}]: {o.error}")
    print(WAITING)
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        run_workload(workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
