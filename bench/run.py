#!/usr/bin/env python3
"""Benchmark for probvoter: one workload, checked outputs, metrics as JSON.

Run from the root of a source checkout (the package is imported from src/):

    python3 bench/run.py --workload mc-k16 --seed 1 --seconds 30 --trace 0

One process drives `probvoter.cli.main(argv)` as a closed loop with one
client: it repeats a pass over the workload's commands until --seconds have
elapsed, times a fixed yardstick between commands to track the host's speed,
checks every output against bench/check.py, and prints a
human-readable summary followed by one JSON line with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the summary has every
end-to-end metric and the JSON line the gated ones (GATED); with --trace 1
untraced and traced passes alternate and the metrics are per-layer self
times and counts from bench/spans.py.  Inputs, outputs, the output digests
and the spans go to .bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter

import check
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_LAUNCHES = 15
# About the yardstick's median time between commands on a 2-vCPU 2.1 GHz Xeon
# VM with Python 3.11; wall_ref_s is wall time rescaled to the host speed at
# which it takes this.
YARDSTICK_REF_S = 0.025


def measure_setup(failures: list[str]) -> list[float]:
    """Wall seconds of fresh interpreters running `python -m probvoter --version`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "probvoter", "--version"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        times.append(perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.startswith("probvoter "):
            failures.append(f"--version exited {proc.returncode}: {proc.stderr[-200:]!r}")
    return times


def yardstick() -> float:
    """Seconds to run fixed pure-Python work of the kinds the CLI spends its
    time on: 64-bit integer mixing, dict updates, string building,
    generators over a long tuple of bits, and exact binomial sums.

    On a shared 2-vCPU VM the host's speed drifts by up to 1.8x over seconds
    to minutes, so raw wall times of the same code spread by up to 30%
    between runs.  Timing the yardstick around every command and dividing
    by it cancels most of the drift.
    """
    gc.collect()
    start = perf_counter()
    x, counts, total, parts = 12345, {}, Fraction(0), []
    for i in range(6_000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
        if i % 16 == 0:
            total += Fraction(x & 255, (x >> 8 & 255) + 1)
        parts.append(format(x & 0xFFFF, "x"))
    "".join(parts).count("a")
    bits = tuple(int(c) for c in format(x, "064b") * 384)
    any(b not in (0, 1) for b in bits)
    "".join(map(str, bits)).count("1")
    for j in range(1, 1000, 16):
        p = Fraction(j, 2000)
        total += sum(comb(16, i) * p**i * (1 - p) ** (16 - i) for i in range(9))
    return perf_counter() - start


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Runner:
    """Runs passes over a workload's commands and checks every output."""

    def __init__(self, cli, analytic, workload: workloads.Workload, tracer: spans.Tracer | None):
        self.cli = cli
        self.analytic = analytic
        self.workload = workload
        self.tracer = tracer
        self.main = tracer.wrap("cli.main", cli.main) if tracer else None
        self.digests: list[dict[str, str]] = []
        self.seconds: list[list[float]] = [[] for _ in workload.commands]
        self.yardsticks: list[list[float]] = [[] for _ in workload.commands]
        self.passes: list[tuple[bool, float]] = []
        self.layers: list[tuple[dict[str, float], dict[str, int]]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_pass(self, traced: bool) -> None:
        first_span = len(self.tracer.spans) if traced else 0
        if traced:
            spans.install_layers(self.tracer, self.cli, self.analytic)
        wall = 0.0
        before = yardstick()
        try:
            for i, command in enumerate(self.workload.commands):
                wall += self._run_command(i, command, traced)
                after = yardstick()
                # The host's speed while the command ran: the yardsticks just
                # before and just after it.
                self.yardsticks[i].append((before + after) / 2)
                before = after
        finally:
            if traced:
                self.tracer.uninstall()
        self.passes.append((traced, wall))
        if traced:
            self.layers.append(spans.self_times(self.tracer.spans, first_span))

    def _run_command(self, index: int, command: workloads.Command, traced: bool) -> float:
        for name in command.outputs:
            Path(name).unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        main = self.main if traced else self.cli.main
        # Each command starts from an empty young generation, as in a fresh
        # CLI process, so where collections fall does not depend on the
        # commands before it.
        gc.collect()
        if traced:
            self.tracer.command = self.attempted
        self.attempted += 1
        code = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(list(command.argv))
        except Exception as exc:  # a crash is one failed command, not a failed run
            stderr.write(f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
        self.seconds[index].append(seconds)

        where = f"pass {len(self.passes) + 1} {command.label}"
        if code != 0:
            self.failed += 1
            self.failures.append(f"{where}: exit {code}: {stderr.getvalue()[-300:]!r}")
            return seconds
        text = stdout.getvalue()
        files = {name: Path(name).read_bytes() for name in command.outputs if Path(name).is_file()}
        digests = {"stdout": sha256(text.encode("utf-8"))}
        digests.update((name, sha256(data)) for name, data in files.items())
        if index == len(self.digests):
            self.digests.append(digests)
            problems = check.check_command(command, text, files)
        elif digests != self.digests[index]:
            problems = ["output differs from the first pass"]
        else:
            problems = []
        self.failed += bool(problems)
        self.failures.extend(f"{where}: {problem}" for problem in problems)
        return seconds

    def reference_seconds(self) -> float:
        """A pass's wall time at the host speed where the yardstick takes
        YARDSTICK_REF_S: the sum over commands of the median ratio of each
        run's time to the yardsticks timed around it."""
        return YARDSTICK_REF_S * sum(
            statistics.median(t / y for t, y in zip(times, yards))
            for times, yards in zip(self.seconds, self.yardsticks)
        )

    def kind_seconds(self, kind: str) -> float:
        """Median over passes of the seconds spent in commands of one kind."""
        columns = [self.seconds[i] for i, c in enumerate(self.workload.commands) if c.kind == kind]
        return statistics.median(map(sum, zip(*columns)))


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    if len(samples) < 11:
        return "n/a (needs 11 samples)"
    ordered = sorted(samples)
    return f"p{100 * (len(ordered) - 10) // len(ordered)}={ordered[-11]:.4f} s"


# The end-to-end metrics in the result line.  The rest are printed and kept in
# the results file.  On a 2-vCPU VM the raw wall_s of ten runs of the same
# code (one per seed) spread by 0.06-0.34 (IQR/median); wall_ref_s, the same
# passes rescaled by the yardstick, spread by 0.02-0.03.  The throughputs use
# raw seconds too; on a workload where their command is the main load they
# restate wall_s.  peak_rss_mb on wide-n20 reads either about 106 or about
# 114 MB for the same code, depending on the seed and the checkout's path, so
# its bound in BENCHMARK.json is the widest allowed.
GATED = ("wall_ref_s", "setup_s", "peak_rss_mb")


def end_to_end(runner: Runner, setup: list[float]) -> dict[str, tuple[float, str]]:
    commands = runner.workload.commands
    trials = sum(len(c.grid) * c.trials for c in commands if c.kind == "simulate")
    points = sum(len(c.grid) for c in commands if c.kind == "analytic")
    rows = sum(1 << c.function.n for c in commands if c.kind == "profile")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(wall for _, wall in runner.passes), "s"),
        "wall_ref_s": (runner.reference_seconds(), "s"),
        "mc_trials_per_s": (trials / runner.kind_seconds("simulate"), "1/s"),
        "exact_points_per_s": (points / runner.kind_seconds("analytic"), "1/s"),
        "load_rows_per_s": (rows / runner.kind_seconds("profile"), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


LAYER_SECONDS = (
    "logic.parse_expression", "logic.parse_table_file", "voter.error_profile",
    "voter.synthesize", "voter.emit_sop", "analytic.compare_and_crossover",
    "analytic.expected_errors", "sim.run_sweep",
)
LAYER_COUNTS = (
    "logic.rows", "voter.decision_entries", "analytic.points", "sim.trials", "sim.draws",
)


def per_layer(runner: Runner) -> dict[str, tuple[float, str]]:
    def median(fn):
        return statistics.median(fn(seconds, counts) for seconds, counts in runner.layers)

    metrics = {f"{name}_s": (median(lambda s, c: s.get(name, 0.0)), "s") for name in LAYER_SECONDS}
    metrics["cli.self_s"] = (median(lambda s, c: s.get("cli.main", 0.0)), "s")
    # Counts are the same on every pass; the last traced pass gives them.
    metrics.update((name, (runner.layers[-1][1].get(name, 0), "count")) for name in LAYER_COUNTS)
    metrics["sim.us_per_trial"] = (median(lambda s, c: s.get("sim.run_sweep", 0.0) / max(1, c.get("sim.trials", 0)) * 1e6), "us")
    metrics["sim.ns_per_draw"] = (median(lambda s, c: s.get("sim.run_sweep", 0.0) / max(1, c.get("sim.draws", 0)) * 1e9), "ns")
    # Passes alternate untraced, traced: pair each traced pass with the one
    # before it, so that drift in host speed cancels.
    pairs = zip(runner.passes[::2], runner.passes[1::2])
    metrics["trace_overhead_s"] = (statistics.median(t - u for (_, u), (_, t) in pairs), "s")
    return metrics


def layer_shares(runner: Runner) -> list[str]:
    """Share of traced wall time spent in each layer's own code."""
    totals: dict[str, float] = {}
    for seconds, _ in runner.layers:
        for name, value in seconds.items():
            layer = name.split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + value
    wall = sum(w for traced, w in runner.passes if traced)
    return [f"  {layer:<9} {value / wall:6.1%} of traced wall_s" for layer, value in sorted(totals.items())]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "probvoter" / "cli.py").is_file():
        print(f"bench: no probvoter sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from probvoter import analytic, cli

    workload = workloads.build(args.workload, args.seed)
    work = OUT_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.write_inputs(work)
    os.chdir(work)

    failures: list[str] = []
    setup = [] if args.trace else measure_setup(failures)
    runner = Runner(cli, analytic, workload, spans.Tracer() if args.trace else None)
    # Start a pass only if it should end within --seconds (judged by the
    # slowest pass so far, checks included); always make at least one
    # untraced and, with --trace 1, one traced pass.
    start = perf_counter()
    longest = 0.0
    while len(runner.passes) < 1 + args.trace or perf_counter() + longest < start + args.seconds:
        begun = perf_counter()
        runner.run_pass(traced=bool(args.trace) and len(runner.passes) % 2 == 1)
        longest = max(longest, perf_counter() - begun)
    failed = len(failures) + runner.failed
    failures.extend(runner.failures)

    metrics = per_layer(runner) if args.trace else end_to_end(runner, setup)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    attempted = runner.attempted + len(setup)
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": [{"traced": traced, "wall_s": wall} for traced, wall in runner.passes],
        "commands": [
            {"argv": list(c.argv), "seconds": runner.seconds[i], "yardstick_s": runner.yardsticks[i], "sha256": runner.digests[i] if i < len(runner.digests) else None}
            for i, c in enumerate(workload.commands)
        ],
        "setup_s": setup,
        "failures": failures,
        "metrics": metrics,
    }
    (work / f"results-trace{args.trace}.json").write_text(json.dumps(results, indent=1) + "\n")
    if args.trace:
        (work / "spans.json").write_text(json.dumps(runner.tracer.dump()) + "\n")

    walls = [wall for traced, wall in runner.passes if not traced]
    print(f"workload {args.workload} seed {args.seed}: {len(runner.passes)} passes, "
          f"{attempted} commands, {failed} failed (failed_frac {failed / attempted:.4g})")
    for problem in failures[:20]:
        print(f"  FAIL {problem}")
    print(f"  wall_s (untraced) median={statistics.median(walls):.4f} s, {tail(walls)}, {len(walls)} samples")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    if args.trace:
        print("\n".join(layer_shares(runner)))
    print(f"  outputs sha256 {sha256(json.dumps(runner.digests).encode())} (per file in results)")
    print(f"  results in {work.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics if args.trace else {name: metrics[name] for name in GATED},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
