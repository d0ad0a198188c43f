"""The benchmark's workloads meet their correctness gates at the benchmark's default seed.

``perfbench/run.py`` is loaded as a module, without writing bytecode next to
it, and each workload's config runs in process through ``run_scenario``. A
change that breaks a gate then fails here, not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from oraclebench import config_from_mapping, run_scenario
from oraclebench.harness import write_summary_csv

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _load_run_py():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


RUN = _load_run_py()


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_workload_meets_its_gate_at_seed_777(name, tmp_path):
    workload = RUN.WORKLOADS[name]
    # CSV bytes do not depend on the worker count, so one process is enough
    result = run_scenario(config_from_mapping(dict(workload.config, masterSeed=777)))
    summary = tmp_path / "summary.csv"
    write_summary_csv(result, summary)
    failed = [label for label, ok in workload.gate(RUN._summary_stats(summary)) if not ok]
    assert not failed, f"{name}: {failed}"


def test_lq_rerm_q4_solves_in_few_gradients(monkeypatch):
    # each q = 4 solve moves from its least-squares fit by Newton steps on its sign pattern, one row-gradient per
    # step, and certifies there: 847 row-gradients on this config, where iterating from the least-squares fit took
    # 5183 and starting from zero and growing the step on every move 8753
    from oraclebench import solvers

    rows = []
    grad = solvers._LqObjective.grad

    def counting(obj, beta):
        rows.append(len(beta))
        return grad(obj, beta)

    monkeypatch.setattr(solvers._LqObjective, "grad", counting)
    run_scenario(config_from_mapping(dict(RUN.WORKLOADS["lq_rerm_q4"].config, masterSeed=777)))
    assert sum(rows) <= 6000


def test_square_lasso_starts_where_few_prox_steps_remain(monkeypatch):
    # each q = 2 solve of a full-rank design starts at its sign-fixed KKT point, which certifies every replication
    # of this config at seed 777 without a step; starting from zero took 2842 row-steps
    from oraclebench import solvers

    rows = []
    prox = solvers._prox_l1_power

    def counting(v, c, p):
        rows.append(len(v))
        return prox(v, c, p)

    monkeypatch.setattr(solvers, "_prox_l1_power", counting)
    run_scenario(config_from_mapping(dict(RUN.WORKLOADS["square_lasso"].config, masterSeed=777)))
    assert sum(rows) <= 300


def test_lq_rerm_q4_starts_where_few_prox_steps_remain(monkeypatch):
    # each q = 4 solve of a full-rank design starts at its Newton point on the sign pattern of its least-squares fit,
    # which certifies every replication of this config at seed 777 without a step; iterating from the least-squares
    # fit took 2914 row-steps
    from oraclebench import solvers

    rows = []
    prox = solvers._prox_l1_power

    def counting(v, c, p):
        rows.append(len(v))
        return prox(v, c, p)

    monkeypatch.setattr(solvers, "_prox_l1_power", counting)
    run_scenario(config_from_mapping(dict(RUN.WORKLOADS["lq_rerm_q4"].config, masterSeed=777)))
    assert sum(rows) <= 300
