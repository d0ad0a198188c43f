"""One measured step of the benchmark, run in a fresh interpreter.

    python3 perfbench/probe.py setup CONFIG
    python3 perfbench/probe.py run CONFIG OUT WORKERS RESULT [--trace SPANS]

``setup`` imports ``oraclebench.cli`` and validates CONFIG with
``config_from_mapping``; the caller times the whole process.

``run`` calls ``oraclebench.cli.main`` for ``experiment`` once and writes to
RESULT its exit code, wall time (from ``main`` entry until ``manifest.json``
is written), CPU time including pool workers, and the peak RSS of this
process and of its largest waited-for worker. With ``--trace`` the layer
functions are replaced by timing wrappers for the run and restored after it;
the spans are kept in memory and written to SPANS after the run, and their
per-layer totals go into RESULT.

Run from the root of a source checkout: the package is imported from
``src/``.
"""

from __future__ import annotations

import csv
import importlib
import json
import os
import resource
import sys
import time
from array import array

sys.path.insert(0, os.path.abspath("src"))

# (module, attribute, span name). The harness imports its layer functions by
# name, so they are replaced where the harness looks them up.
PATCHES = (
    ("oraclebench.cli", "run_scenario", "harness.run_scenario"),
    ("oraclebench.cli", "write_rows_csv", "cli.write"),
    ("oraclebench.cli", "write_summary_csv", "cli.write"),
    ("oraclebench.harness", "solve_lq_rerm", "solvers.solve"),
    ("oraclebench.harness", "risk_estimate", "model.risk_estimate"),
    ("oraclebench.harness", "erm_finite", "model.erm_finite"),
    ("oraclebench.harness", "fixed_point_lambda", "complexity.fixed_point"),
    ("oraclebench.harness", "expected_localized_sup", "complexity.localized_sup"),
    ("oraclebench.harness", "psi_alpha_norm", "concentration.psi_norm"),
    ("oraclebench.harness", "envelope_psi1", "concentration.envelope"),
    ("oraclebench.solvers", "project_l1_ball", "solvers.project"),
    ("oraclebench.concentration", "psi_alpha_norm", "concentration.psi_norm"),
)
SPAN_NAMES = ("cli.main", "harness.test_draw") + tuple(sorted({name for _, _, name in PATCHES}))


class Tracer:
    """Spans (name, start, end, parent) in flat arrays, plus solver and draw counts."""

    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack = [-1]
        self.test_points = 0
        self.max_gap = 0.0

    def span(self, name, fn, *args, **kwargs):
        sid = len(self.names)
        self.names.append(self.name_ids[name])
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[sid] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name, fn):
        if name == "model.risk_estimate":
            return self._wrap_risk_estimate(fn)

        records_gap = name == "solvers.solve"

        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if records_gap:
                self.max_gap = max(self.max_gap, result.optimality_gap)
            return result

        return traced

    def _wrap_risk_estimate(self, fn):
        # the test-set draw is timed on its own, as a child of risk_estimate
        def traced(predictor, generator, *args, **kwargs):
            def timed_generator(rng, size):
                self.test_points += int(size)
                return self.span("harness.test_draw", generator, rng, size)

            return self.span("model.risk_estimate", fn, predictor, timed_generator, *args, **kwargs)

        return traced

    def totals(self):
        """Per span name: call count, total seconds, and self seconds (minus direct children)."""
        count = dict.fromkeys(SPAN_NAMES, 0)
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for sid, name_id in enumerate(self.names):
            name = SPAN_NAMES[name_id]
            duration = self.ends[sid] - self.starts[sid]
            count[name] += 1
            total[name] += duration
            self_s[name] += duration
            parent = self.parents[sid]
            if parent >= 0:
                self_s[SPAN_NAMES[self.names[parent]]] -= duration
        return {"count": count, "total_s": total, "self_s": self_s,
                "test_points": self.test_points, "max_gap": self.max_gap}

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["id", "name", "start", "end", "parent"])
            for sid, name_id in enumerate(self.names):
                out.writerow([sid, SPAN_NAMES[name_id], repr(self.starts[sid]),
                              repr(self.ends[sid]), self.parents[sid]])


def _patched(tracer):
    saved = []
    for module_name, attr, span_name in PATCHES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(span_name, original))
    return saved


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _run(config, out, workers, result_path, spans_path):
    import numpy as np

    from oraclebench import cli

    argv = ["experiment", "--config", config, "--out", out, "--workers", str(workers)]
    tracer = Tracer() if spans_path else None
    saved = _patched(tracer) if tracer else []
    try:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        code = tracer.span("cli.main", cli.main, argv) if tracer else cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
    result = {
        "exit": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "package": os.path.dirname(cli.__file__),
        "trace": tracer.totals() if tracer else None,
    }
    if tracer:
        tracer.write(spans_path)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def main(argv):
    if len(argv) == 2 and argv[0] == "setup":
        from oraclebench.cli import config_from_mapping

        with open(argv[1], encoding="utf-8") as handle:
            config_from_mapping(json.load(handle))
        return 0
    if len(argv) in (5, 7) and argv[0] == "run":
        spans = argv[6] if len(argv) == 7 and argv[5] == "--trace" else None
        if len(argv) == 7 and spans is None:
            return 2
        return _run(argv[1], argv[2], int(argv[3]), argv[4], spans)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
