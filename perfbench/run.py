"""Benchmark of ``oraclebench experiment``, one workload per invocation.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``. Each experiment runs in a fresh interpreter (``perfbench/probe.py``)
so that its peak RSS is its own. The workload's ``masterSeed`` is the seed.

With ``--trace 0`` the benchmark times the set-up (a fresh interpreter that
imports ``oraclebench.cli`` and validates the config) several times, then runs
the experiment untraced until ``--seconds`` have passed, and reports the
end-to-end metrics of ``BENCHMARK.json`` as medians. With ``--trace 1`` it
runs the experiment once untraced and twice traced, all at workers=1, and
reports the per-layer metrics.

Every run is checked: exit code 0, the workload's correctness gates on
``summary.csv``, and ``rows.csv`` / ``summary.csv`` bytes equal to those of the
invocation's first run, which is made at workers=1 (for a workload with more
workers this is the determinism gate across worker counts). Traced runs must
also agree on every count. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; details go
to ``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PROBE = os.path.join(BENCH_DIR, "probe.py")
DEADLINE_S = 170.0
SETUP_REPEATS = 7
MIN_TIMED_RUNS = 2

CONSTANTS = {"c0": 1e-11, "c1": 1.0, "Kd": 1.0}


@dataclass(frozen=True)
class Workload:
    config: dict
    workers: int
    gate: Callable[[dict], list]


def _rate_gate(max_slope):
    def gate(s):
        return [
            (f"nonexact slope <= {max_slope}", s["slopeNonexact"] <= max_slope),
            ("nonexact R2 >= 0.9", s["r2Nonexact"] >= 0.9),
            ("satisfaction >= 0.9", s["satisfaction"] >= 0.9),
        ]

    return gate


def _finite_gap_gate(s):
    return [
        ("exact slope in [-0.65, -0.35]", -0.65 <= s["slopeExact"] <= -0.35),
        ("nonexact slope <= -0.85", s["slopeNonexact"] <= -0.85),
        ("exact R2 >= 0.85", s["r2Exact"] >= 0.85),
        ("nonexact R2 >= 0.85", s["r2Nonexact"] >= 0.85),
    ]


def _isomorphy_gate(s):
    return [("frequency >= 1 - 4 exp(-x)", s["satisfaction"] >= 1.0 - 4.0 * math.exp(-2.0))]


WORKLOADS = {
    # criterion 7 shortened to 24 replications; test-set draws dominate
    "square_lasso": Workload(
        {"scenario": "SquareLasso", "nGrid": [256, 512, 1024, 2048, 4096], "d": 50, "q": 2,
         "epsilon": 0.002, "x": 1.0, "replications": 24, "noise": {"kind": "Gaussian", "sd": 0.5},
         "betaStar": {"support": 3, "magnitude": 1.0}, "constants": CONSTANTS},
        1, _rate_gate(-0.8)),
    # same solver layer, but each inner step is O(n d) and risk_estimate is minor. Its
    # nonexact slope averages about -0.83 over seeds, so the gate asks only for a clearly
    # faster decay than the exact 1/sqrt(n) rate.
    "lq_rerm_q4": Workload(
        {"scenario": "LqRerm", "nGrid": [256, 512, 1024, 2048], "d": 10, "q": 4,
         "epsilon": 0.002, "x": 1.0, "replications": 30, "noise": {"kind": "Bounded", "range": 0.5},
         "betaStar": {"support": 3, "magnitude": 1.0}, "constants": CONSTANTS},
        1, _rate_gate(-0.5)),
    # bypasses solvers and risk_estimate: fixed-point bisection and Monte Carlo sups.
    # With the default 16 cells the dictionary drawn from the seed sets the mean margin,
    # and slack_rel_stderr spread 0.21 (IQR / median) over seeds; 256 cells make
    # dictionaries alike (0.04).
    "isomorphy": Workload(
        {"scenario": "Isomorphy", "nGrid": [256, 512, 1024, 2048], "d": 8, "epsilon": 0.25,
         "x": 2.0, "replications": 1000, "cells": 256},
        1, _isomorphy_gate),
    # criterion-5 grid; many cheap rows, so pool dispatch, erm_finite and CSV dominate
    "finite_gap_parallel": Workload(
        {"scenario": "FiniteGap", "nGrid": [128, 256, 512, 1024, 2048, 4096, 8192], "gamma": 0.5,
         "epsilon": 0.0019, "x": 1.0, "replications": 4000},
        2, _finite_gap_gate),
}


class BenchError(Exception):
    """The benchmark itself cannot go on (missing program, timeout)."""


def _spawn(args, deadline):
    """Run the probe with ``args`` in its own session; kill the session at the deadline.

    A blocking wait returns as soon as the probe exits; ``Popen.wait`` with a
    timeout polls and would round short set-up times to its sleep interval.
    """
    proc = subprocess.Popen([sys.executable, PROBE, *args], stdout=sys.stderr, start_new_session=True)
    expired = threading.Event()

    def kill():
        expired.set()
        os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(deadline - time.monotonic(), 0.1), kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
    if expired.is_set():
        raise BenchError(f"probe {args[0]} passed the {DEADLINE_S:.0f} s deadline")
    return code


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _summary_stats(path):
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    stats = {key: float(rows[0][key] or "nan") for key in ("slopeExact", "r2Exact", "slopeNonexact", "r2Nonexact")}
    reps = [int(r["replications"]) for r in rows]
    sat = [float(r["satisfactionFrequency"]) for r in rows]
    stats["satisfaction"] = sum(f * k for f, k in zip(sat, reps)) / sum(reps)
    return stats


def slack_rel_stderr(rows_path):
    """Geometric mean over n of stderr / |mean| of the nonexact slack, where |mean| > 3 stderr.

    Pooling the grid keeps the figure steady across seeds; points whose mean
    is not resolved from zero would only add noise. Isomorphy's slack (the
    worst-case margin) is negative, hence the absolute value.
    """
    by_n = {}
    with open(rows_path, encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            by_n.setdefault(row["n"], []).append(float(row["slackNonexact"]))
    logs = []
    for values in by_n.values():
        mean = statistics.fmean(values)
        stderr = statistics.stdev(values) / math.sqrt(len(values))
        if abs(mean) > 3.0 * stderr:
            logs.append(math.log(stderr / abs(mean)))
    return math.exp(statistics.fmean(logs)) if logs else math.nan


class Session:
    """The runs of one invocation, in order, with their checks."""

    def __init__(self, name, seed, out):
        self.workload = WORKLOADS[name]
        self.out = out
        self.config_path = os.path.join(out, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as handle:
            json.dump(dict(self.workload.config, masterSeed=seed), handle, indent=2)
        self.deadline = time.monotonic() + DEADLINE_S
        self.runs = []
        self.setups = []

    def time_setup(self):
        t0 = time.perf_counter()
        code = _spawn(["setup", self.config_path], self.deadline)
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise BenchError(f"set-up probe exited {code}")
        self.setups.append(elapsed)

    def experiment(self, workers, spans=None):
        """One experiment run; returns its record, with ``failures`` listing failed checks."""
        run_dir = os.path.join(self.out, "csv")
        result_path = os.path.join(self.out, "result.json")
        for stale in glob.glob(os.path.join(run_dir, "*")) + [result_path]:
            if os.path.isfile(stale):
                os.remove(stale)
        args = ["run", self.config_path, run_dir, str(workers), result_path]
        code = _spawn(args + (["--trace", spans] if spans else []), self.deadline)
        run = {"workers": workers, "traced": bool(spans), "failures": []}
        if code != 0 or not os.path.isfile(result_path):
            run["failures"].append(f"probe exited {code}")
            self.runs.append(run)
            return run
        with open(result_path, encoding="utf-8") as handle:
            run.update(json.load(handle))
        if run["exit"] != 0:
            run["failures"].append(f"experiment exited {run['exit']}")
        else:
            rows_csv = os.path.join(run_dir, "rows.csv")
            summary_csv = os.path.join(run_dir, "summary.csv")
            run["rows_sha256"] = _sha256(rows_csv)
            run["summary_sha256"] = _sha256(summary_csv)
            run["csv_bytes"] = os.path.getsize(rows_csv) + os.path.getsize(summary_csv)
            with open(rows_csv, "rb") as handle:
                run["rows"] = sum(1 for _ in handle) - 1
            run["slack_rel_stderr"] = slack_rel_stderr(rows_csv)
            run["gates"] = _summary_stats(summary_csv)
            run["failures"] += [f"gate {label}" for label, ok in self.workload.gate(run["gates"]) if not ok]
            first = next((r for r in self.runs if "rows_sha256" in r), run)
            if (run["rows_sha256"], run["summary_sha256"]) != (first.get("rows_sha256"), first.get("summary_sha256")):
                run["failures"].append(f"CSV bytes differ from the first run (workers={first['workers']})")
        self.runs.append(run)
        return run


def _median(runs, key):
    return statistics.median(r[key] for r in runs)


def end_to_end(session, seconds):
    for _ in range(SETUP_REPEATS):
        session.time_setup()
    setups = session.setups
    workers = session.workload.workers
    if workers > 1:
        session.experiment(1)
    timed = []
    t0 = time.monotonic()
    longest = 0.0
    while len(timed) < MIN_TIMED_RUNS or time.monotonic() - t0 < seconds:
        if time.monotonic() + 1.5 * longest > session.deadline:
            break
        started = time.monotonic()
        timed.append(session.experiment(workers))
        longest = max(longest, time.monotonic() - started)
    good = [r for r in timed if "wall_s" in r]
    if not good:
        raise BenchError("no timed run finished: " + "; ".join(f for r in timed for f in r["failures"]))
    reference = next((r for r in session.runs if "slack_rel_stderr" in r), {})
    metrics = {
        "wall_s": _median(good, "wall_s"),
        "cpu_s": _median(good, "cpu_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _median(good, "peak_rss_mb"),
        "slack_rel_stderr": reference.get("slack_rel_stderr", math.nan),
    }
    notes = [
        f"wall_s over {len(good)} runs: median {metrics['wall_s']:.3f} s, "
        f"min {min(r['wall_s'] for r in good):.3f}, max {max(r['wall_s'] for r in good):.3f}",
        f"setup_s over {len(setups)} starts: median {metrics['setup_s']:.3f} s, "
        f"min {min(setups):.3f}, max {max(setups):.3f}",
    ]
    if workers > 1:
        notes.append(f"largest worker peak RSS: {max(r['worker_peak_rss_mb'] for r in good):.1f} MB")
    return metrics, notes


def _layer_values(run):
    """Per-layer figures of one traced run."""
    tr = run["trace"]
    calls, total, own = tr["count"], tr["total_s"], tr["self_s"]
    solves = calls["solvers.solve"]
    return {
        "harness.test_draw_s": total["harness.test_draw"],
        "model.risk_estimate_s": own["model.risk_estimate"],
        "model.risk_estimate_calls": calls["model.risk_estimate"],
        "model.test_points": tr["test_points"],
        "solvers.solve_s": total["solvers.solve"],
        "solvers.self_s": own["solvers.solve"],
        "solvers.solve_calls": solves,
        "solvers.project_s": total["solvers.project"],
        "solvers.project_calls": calls["solvers.project"],
        "solvers.project_per_solve": calls["solvers.project"] / solves if solves else 0.0,
        "solvers.max_gap": tr["max_gap"],
        "complexity.fixed_point_s": total["complexity.fixed_point"],
        "complexity.fixed_point_calls": calls["complexity.fixed_point"],
        "complexity.localized_sup_s": total["complexity.localized_sup"],
        "complexity.localized_sup_calls": calls["complexity.localized_sup"],
        "concentration.psi_norm_s": total["concentration.psi_norm"],
        "concentration.psi_norm_calls": calls["concentration.psi_norm"],
        "concentration.envelope_s": total["concentration.envelope"],
        "model.erm_finite_s": total["model.erm_finite"],
        "model.erm_finite_calls": calls["model.erm_finite"],
        "harness.run_scenario_s": total["harness.run_scenario"],
        "harness.self_s": own["harness.run_scenario"],
        "harness.rows": run["rows"],
        "cli.main_s": total["cli.main"],
        "cli.write_s": total["cli.write"],
        "cli.csv_bytes": run["csv_bytes"],
    }


def per_layer(session, units):
    untraced = session.experiment(1)
    traced = [session.experiment(1, os.path.join(session.out, f"spans-{k}.csv")) for k in (1, 2)]
    if session.workload.workers > 1:
        session.experiment(session.workload.workers)
    if any(r["failures"] for r in [untraced, *traced]):
        raise BenchError("a run needed for the per-layer split failed: "
                         + "; ".join(f for r in session.runs for f in r["failures"]))
    values = [_layer_values(r) for r in traced]
    metrics = {}
    for name in values[0]:
        figures = [v[name] for v in values]
        # counts and other non-time figures must repeat exactly between the two traced runs
        if units[name] != "s" and figures[0] != figures[1]:
            traced[1]["failures"].append(f"{name} differs between traced runs: {figures}")
        metrics[name] = statistics.median(figures)
    metrics["trace.overhead_s"] = metrics["cli.main_s"] - untraced["wall_s"]
    shares = {k: metrics[k] / metrics["cli.main_s"] for k in metrics if k.endswith("_s") and k != "trace.overhead_s"}
    notes = [f"share of traced cli.main_s: {k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]) if v > 0]
    return metrics, notes


def _git_sha():
    """Commit of a git checkout, read from .git without running git; 'unknown' elsewhere."""
    try:
        with open(".git/HEAD", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(".git/packed-refs", encoding="utf-8") as handle:
            for line in handle:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown"


def _source_lines():
    total = 0
    for path in sorted(glob.glob("src/oraclebench/*.py")):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=777)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile("src/oraclebench/cli.py") or not os.path.isfile("BENCHMARK.json"):
        print("run from the root of an oraclebench checkout (src/oraclebench and BENCHMARK.json)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    out = os.path.join(BENCH_DIR, "out", args.workload)
    os.makedirs(out, exist_ok=True)
    session = Session(args.workload, args.seed % 2**64, out)
    try:
        metrics, notes = per_layer(session, units) if args.trace else end_to_end(session, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units) or any(math.isnan(v) for v in metrics.values()):
        print(f"benchmark error: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 1

    failed = [r for r in session.runs if r["failures"]]
    first = session.runs[0]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "workers": session.workload.workers,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "cpu_count": os.cpu_count(),
        "src_lines": _source_lines(),
        "rows_sha256": first.get("rows_sha256"),
        "summary_sha256": first.get("summary_sha256"),
        "metrics": metrics,
        "setups_s": session.setups,
        "runs": [{k: v for k, v in r.items() if k != "trace"} for r in session.runs],
    }
    with open(os.path.join(out, f"record-trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    for key in ("workload", "seed", "workers", "git_sha", "python", "numpy", "cpu_count", "src_lines", "rows_sha256"):
        print(f"{key}: {record[key]}")
    for line in notes:
        print(line)
    for run in failed:
        print(f"FAILED run (workers={run['workers']}, traced={run['traced']}): {'; '.join(run['failures'])}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(session.runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
