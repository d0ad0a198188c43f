import argparse
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oraclebench import (
    IterationLimitError,
    harness,
    l1_penalty_level,
    psi_alpha_norm,
    rerm_residual,
)
from oraclebench.cli import build_parser, main
from oraclebench.solvers import Moments


def stack_size(sample):
    """The number of samples in a stack given to ``solve_lq_rerm``, as rows (a Sample) or as q = 2 Moments."""
    return len(sample.gram if isinstance(sample, Moments) else sample.design)


@pytest.fixture
def finite_gap_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "scenario": "FiniteGap",
                "nGrid": [64, 128],
                "epsilon": 0.0019,
                "replications": 20,
                "masterSeed": 777,
                "gamma": 0.5,
            }
        )
    )
    return path


def run_cli(args):
    return main([str(a) for a in args])


def _subcommands(parser):
    """The subparsers of ``parser`` by name."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_import_leaves_numpy_random_unloaded():
    # numpy.random loads only where replications are drawn: at import it would add to the start-up time of
    # every run and to the resident size of a parent process that, at workers > 1, draws nothing; the
    # modules numpy itself loads are subtracted, since numpy 1.x imports numpy.random eagerly
    code = ("import sys, numpy; before = set(sys.modules); import oraclebench.cli; "
            "print(sorted(set(sys.modules) - before))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout
    assert "oraclebench.cli" in loaded
    assert "'numpy.random" not in loaded


class TestExperiment:
    def test_valid_run_writes_artifacts(self, finite_gap_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["experiment", "--config", finite_gap_config, "--out", out]) == 0
        assert (out / "rows.csv").is_file()
        assert (out / "summary.csv").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["masterSeed"] == 777
        assert manifest["toolVersion"]

    def test_missing_ngrid_exits_2_naming_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scenario": "FiniteGap"}))
        code = run_cli(["experiment", "--config", path, "--out", tmp_path / "o"])
        assert code == 2
        assert "nGrid" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, finite_gap_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["experiment", "--config", finite_gap_config, "--out", out1]) == 0
        assert run_cli(["experiment", "--config", finite_gap_config, "--out", out2]) == 0
        assert (out1 / "rows.csv").read_bytes() == (out2 / "rows.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_worker_count_does_not_change_output(self, finite_gap_config, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w4"
        assert run_cli(
            ["experiment", "--config", finite_gap_config, "--out", out1, "--workers", 1]
        ) == 0
        assert run_cli(
            ["experiment", "--config", finite_gap_config, "--out", out2, "--workers", 4]
        ) == 0
        assert (out1 / "rows.csv").read_bytes() == (out2 / "rows.csv").read_bytes()

    def test_set_override_changes_seed(self, finite_gap_config, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_cli(["experiment", "--config", finite_gap_config, "--out", out1])
        run_cli(
            [
                "experiment",
                "--config",
                finite_gap_config,
                "--out",
                out2,
                "--set",
                "masterSeed=123",
            ]
        )
        assert (out1 / "rows.csv").read_bytes() != (out2 / "rows.csv").read_bytes()
        assert json.loads((out2 / "manifest.json").read_text())["masterSeed"] == 123

    def test_env_seed_override(self, finite_gap_config, tmp_path, monkeypatch):
        monkeypatch.setenv("ORACLEBENCH_SEED", "4242")
        out = tmp_path / "env"
        assert run_cli(["experiment", "--config", finite_gap_config, "--out", out]) == 0
        assert json.loads((out / "manifest.json").read_text())["masterSeed"] == 4242

    def test_set_beats_env(self, finite_gap_config, tmp_path, monkeypatch):
        monkeypatch.setenv("ORACLEBENCH_SEED", "4242")
        out = tmp_path / "both"
        run_cli(
            ["experiment", "--config", finite_gap_config, "--out", out, "--set", "masterSeed=555"]
        )
        assert json.loads((out / "manifest.json").read_text())["masterSeed"] == 555

    def test_unparsable_config_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["experiment", "--config", path, "--out", tmp_path / "o"]) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run_cli(["experiment", "--config", tmp_path / "nope.json", "--out", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_naming_a_file_exits_2_naming_out(self, under, finite_gap_config, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep")
        out = blocker / "sub" if under else blocker
        assert run_cli(["experiment", "--config", finite_gap_config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "runtime error" not in err
        assert blocker.read_text() == "keep"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "config.json"]

    @pytest.mark.parametrize(
        "spoil, env_seed, extra, named",
        [
            (lambda path: path.write_text("[1, 2]"), None, [], "--config must hold a JSON object"),
            (lambda path: path.write_text("{not json"), None, [], "--config: "),
            (lambda path: path.write_bytes(b"\xff{}"), None, [], "--config: "),
            (lambda path: path.unlink(), None, [], "--config: "),
            (None, "abc", [], "ORACLEBENCH_SEED"),
            (None, None, ["--set", "foo"], "--set"),
            (None, None, ["--workers", 0], "--workers"),
        ],
        ids=["config-list", "config-not-json", "config-not-utf8", "config-missing", "env-seed-not-integer",
             "set-without-equals", "workers-0"],
    )
    def test_usage_error_exits_2_naming_flag(self, spoil, env_seed, extra, named, finite_gap_config, tmp_path,
                                             monkeypatch, capsys):
        if spoil is not None:
            spoil(finite_gap_config)
        if env_seed is None:
            monkeypatch.delenv("ORACLEBENCH_SEED", raising=False)
        else:
            monkeypatch.setenv("ORACLEBENCH_SEED", env_seed)
        out = tmp_path / "o"
        assert run_cli(["experiment", "--config", finite_gap_config, "--out", out, *extra]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {named}")
        assert not out.exists()

    def test_bad_cli_usage_exits_2(self):
        assert run_cli(["experiment"]) == 2
        assert run_cli([]) == 2
        assert run_cli(["unknown-command"]) == 2


SMALL_CONFIGS = {
    "FiniteGap": {"scenario": "FiniteGap", "nGrid": [64, 128, 256], "epsilon": 0.0019,
                  "replications": 12, "gamma": 0.5},
    "Isomorphy": {"scenario": "Isomorphy", "nGrid": [64, 128], "d": 4, "epsilon": 0.25,
                  "x": 2.0, "replications": 12, "lambdaReplications": 20},
    "SquareLasso": {"scenario": "SquareLasso", "nGrid": [64, 128, 256], "d": 5, "epsilon": 0.01,
                    "replications": 6, "noise": {"kind": "Gaussian", "sd": 0.5},
                    "betaStar": {"support": 2, "magnitude": 1.0},
                    "constants": {"c0": 1e-11, "c1": 1.0, "Kd": 1.0}},
    "LqRerm": {"scenario": "LqRerm", "nGrid": [64, 128, 256], "d": 3, "q": 4, "epsilon": 0.01,
               "replications": 4, "noise": {"kind": "Bounded", "range": 0.5},
               "betaStar": {"support": 2, "magnitude": 0.5},
               "constants": {"c0": 1e-11, "c1": 1.0, "Kd": 1.0}},
    "LqRerm-q3-Gaussian": {"scenario": "LqRerm", "nGrid": [64, 128, 256], "d": 3, "q": 3, "epsilon": 0.01,
                           "replications": 4, "noise": {"kind": "Gaussian", "sd": 0.5},
                           "betaStar": {"support": 2, "magnitude": 0.5},
                           "constants": {"c0": 1e-11, "c1": 1.0, "Kd": 1.0}},
    # a stack holds 2 samples of 2048 x 10 raw rows, so a chunk spans several stacks at workers 1 (32
    # replications) and at workers 2 (chunks of 4)
    "LqRerm-stacks": {"scenario": "LqRerm", "nGrid": [2048], "d": 10, "q": 4, "epsilon": 0.01,
                      "replications": 32, "noise": {"kind": "Bounded", "range": 0.5},
                      "betaStar": {"support": 2, "magnitude": 0.5},
                      "constants": {"c0": 1e-11, "c1": 1.0, "Kd": 1.0}},
    # a stack holds 5 samples of moments, 8 * 100 * 100 bytes each whatever their n, so the raw rows of Exponential
    # noise make a chunk span several stacks at workers 1 (80 replications) and at workers 2 (chunks of 10)
    "SquareLasso-raw-stacks": {"scenario": "SquareLasso", "nGrid": [512], "d": 100, "epsilon": 0.01,
                               "replications": 80, "noise": {"kind": "Exponential", "rate": 2.0},
                               "betaStar": {"support": 2, "magnitude": 1.0},
                               "constants": {"c0": 1e-11, "c1": 1.0, "Kd": 1.0}},
    # a block holds 6 draws of 4096 cells, so a chunk spans several blocks at workers 1 (64 replications)
    # and at workers 2 (chunks of 8)
    "Isomorphy-blocks": {"scenario": "Isomorphy", "nGrid": [4096], "d": 4, "cells": 256, "epsilon": 0.25,
                         "x": 2.0, "replications": 64, "lambdaReplications": 20},
}


@pytest.mark.parametrize("scenario", sorted(SMALL_CONFIGS))
def test_every_scenario_byte_identical_across_workers(scenario, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMALL_CONFIGS[scenario], masterSeed=777)))
    payloads = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert run_cli(["experiment", "--config", path, "--out", out, "--workers", workers]) == 0
        payloads.append(((out / "rows.csv").read_bytes(), (out / "summary.csv").read_bytes()))
    assert payloads[0] == payloads[1]
    assert payloads[0][0].count(b"\n") > 1
    # each n has one oracle risk and one budget: summary.csv writes the text that every row of that n holds
    rows, summary = (list(csv.DictReader(payload.decode().splitlines())) for payload in payloads[0])
    for line in summary:
        per_n = [row for row in rows if row["n"] == line["n"]]
        assert len(per_n) == int(line["replications"])
        assert {row["oracleRisk"] for row in per_n} == {line["meanOracleRisk"]}
        assert {row["budget"] for row in per_n} == {line["meanBudget"]}


MALFORMED = [
    ('nGrid=["a"]', "nGrid", "FiniteGap"),
    ("nGrid=[1.5, 2.5, 3.5]", "nGrid", "FiniteGap"),
    ('betaStar.support="a"', "betaStar.support", "SquareLasso"),
    ('constants.c0="abc"', "constants.c0", "FiniteGap"),
    ("constants.C0=5", "constants.C0", "FiniteGap"),
    ('noise={"kind": "Gaussian", "sd": "abc"}', "noise.sd", "SquareLasso"),
    ("x=NaN", "'x'", "FiniteGap"),
    ("x=Infinity", "'x'", "FiniteGap"),
    ("floor=NaN", "floor", "FiniteGap"),
    ("d=2.7", "'d'", "SquareLasso"),
    ("d=true", "'d'", "SquareLasso"),
    # a field that no longer exists is rejected by name
    ("testSize=2.5", "testSize", "FiniteGap"),
    ("replications=3.9", "replications", "FiniteGap"),
    ("gamma=-1", "gamma", "FiniteGap"),
    # past 2^32 cells numpy draws bounded integers another way, which the Isomorphy draw does not reproduce
    ("cells=4294967297", "cells", "Isomorphy"),
    ("cells=8589934592", "cells", "Isomorphy"),
]


# each field is set on a scenario that reads it, so that it is rejected for its value and not as a key the scenario
# does not read
@pytest.mark.parametrize("override, field_name, scenario", [pytest.param(*case, id=f"{case[0]}-{case[1]}")
                                                            for case in MALFORMED])
def test_malformed_config_exits_2_naming_field(override, field_name, scenario, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIGS[scenario]))
    code = run_cli(["experiment", "--config", path, "--out", tmp_path / "o", "--set", override])
    assert code == 2
    assert field_name in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, field_name",
    [
        (["scenario=SquareLasso", "q=3"], "'q'"),
        (["scenario=LqRerm", "q=4", 'noise={"kind": "Exponential", "rate": 1}'], "'noise'"),
        (["scenario=LqRerm", "q=3", 'noise={"kind": "Bounded", "range": 0.5}'], "'q'"),
        # c_q = E |N(0, 1)|^q overflows a float from about q = 300, though the budget at betaStar.support = 0 does not
        (["scenario=LqRerm", "q=400", "betaStar.support=0"], "'q'"),
        # E noise^2 past the floats: sd^2, or 1 / rate^2 where rate^2 rounds to 0
        (["scenario=SquareLasso", 'noise={"kind": "Gaussian", "sd": 1e200}'], "'noise'"),
        (["scenario=SquareLasso", 'noise={"kind": "Exponential", "rate": 1e-200}'], "'noise'"),
        (["scenario=SquareLasso", "d=2"], "'betaStar.support'"),
        (["scenario=SquareLasso", "constants.Kd=-1"], "'constants.Kd'"),
        (["scenario=SquareLasso", "constants.c1=-1"], "'constants.c1'"),
        (["scenario=SquareLasso", "nGrid=[1, 4]"], "'nGrid'"),
        (["scenario=SquareLasso", "d=1", "betaStar.support=1"], "'d'"),
        (["scenario=LqRerm", "q=4", 'noise={"kind": "Bounded", "range": 0.5}', "d=1", "betaStar.support=1"], "'d'"),
        (["scenario=Isomorphy", "x=1"], "'x'"),
        # c0 (x + log 2) / (epsilon n) past the floats, by a large x or by a small epsilon
        (["x=1e308", "constants.c0=10"], "'x'"),
        (["epsilon=1e-310"], "'epsilon'"),
    ],
    ids=["SquareLasso-q3", "LqRerm-q4-Exponential", "LqRerm-q3-Bounded", "LqRerm-q400-Gaussian-overflow",
         "SquareLasso-Gaussian-sd-overflow", "SquareLasso-Exponential-rate-underflow", "SquareLasso-support-above-d",
         "SquareLasso-Kd-negative", "SquareLasso-c1-negative", "SquareLasso-n1", "SquareLasso-d1",
         "LqRerm-q4-d1", "Isomorphy-x1", "FiniteGap-budget-overflow", "FiniteGap-epsilon-budget-overflow"],
)
def test_incompatible_config_exits_2_naming_field(overrides, field_name, tmp_path, capsys):
    # a FiniteGap base that sets only keys every scenario reads, so a case that switches the scenario is rejected
    # for its own field
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "FiniteGap", "nGrid": [64, 128], "epsilon": 0.0019, "replications": 20,
                                "masterSeed": 777}))
    args = ["experiment", "--config", path, "--out", tmp_path / "o"]
    for override in overrides:
        args += ["--set", override]
    assert run_cli(args) == 2
    assert field_name in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_overflowing_budget_exits_2_before_any_output(tmp_path, capsys):
    # (1 + r)^q with r = ||beta_star||_1 = 3 overflows a float above q = 512, and Kd^q with Kd = 2 above q = 1024
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMALL_CONFIGS["LqRerm"], betaStar={"support": 3, "magnitude": 1.0})))
    for q, kd in ((2000, 2), (600, 1)):
        overrides = ["--set", f"q={q}", "--set", f"constants.Kd={kd}"]
        assert run_cli(["experiment", "--config", path, "--out", tmp_path / "o", *overrides]) == 2
        err = capsys.readouterr().err
        assert "overflows a float; lower q or Kd" in err and "runtime error" not in err
        assert not (tmp_path / "o").exists()


def test_isomorphy_budget_past_the_floats_exits_2_naming_x(tmp_path, capsys):
    # the budget needs the estimated fixed point, so it is checked as the run starts, before any CSV is written
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMALL_CONFIGS["Isomorphy"], x=1e308)))
    out = tmp_path / "o"
    assert run_cli(["experiment", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: fields ")
    assert all(name in err for name in ("'x'", "'constants.c0'", "'epsilon'"))
    assert not (out / "rows.csv").exists()


@pytest.mark.parametrize(
    "mapping, field_name",
    [
        ({"scenario": "FiniteGap", "nGrid": [64], "d": 4}, "'d'"),
        ({"scenario": "FiniteGap", "nGrid": [64], "constants": {"c0": 1.0, "c1": 1.0}}, "'constants.c1'"),
        ({"scenario": "Isomorphy", "nGrid": [64], "x": 2.0, "gamma": 0.5}, "'gamma'"),
        ({"scenario": "Isomorphy", "nGrid": [64], "x": 2.0, "constants": {"Kd": 2.0}}, "'constants.Kd'"),
        ({"scenario": "SquareLasso", "nGrid": [64], "cells": 4}, "'cells'"),
        ({"scenario": "LqRerm", "nGrid": [64], "q": 4, "noise": {"kind": "Bounded", "range": 0.5},
          "labelFlip": 0.1}, "'labelFlip'"),
        # a FiniteGap file that sets the regression's fields, some past what a regression accepts
        ({"scenario": "FiniteGap", "nGrid": [64, 128], "d": 1, "q": 7, "noise": {"kind": "Bounded", "range": 3},
          "betaStar": {"support": 30}, "cells": 3, "replications": 5}, "'d'"),
        ({"scenario": "SquareLasso", "nGrid": [64, 128], "cells": 3, "gamma": 1.0, "labelFlip": 0.2,
          "lambdaReplications": 10}, "'cells'"),
    ],
    ids=["FiniteGap-d", "FiniteGap-c1", "Isomorphy-gamma", "Isomorphy-Kd", "SquareLasso-cells", "LqRerm-labelFlip",
         "FiniteGap-regression-fields", "SquareLasso-isomorphy-fields"],
)
def test_key_the_scenario_does_not_read_exits_2_naming_it(mapping, field_name, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(mapping))
    assert run_cli(["experiment", "--config", path, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: field {field_name} is not read by {mapping['scenario']}\n"
    assert not (tmp_path / "o").exists()


def test_unknown_scenario_exits_2_before_its_keys_are_checked(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "Nope", "nGrid": [4], "bogus": 1}))
    assert run_cli(["experiment", "--config", path, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: field 'scenario' must be one of ")


def test_regression_budget_is_compute_rho_b(tmp_path, capsys):
    # a run's budget is rho-b at r = ||beta_star||_1 with c1 as its constant, to the 12 digits compute prints
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIGS["LqRerm"]))
    out = tmp_path / "o"
    assert run_cli(["experiment", "--config", path, "--out", out, "--workers", 1, "--set", "constants.c1=3"]) == 0
    capsys.readouterr()
    for line in csv.DictReader((out / "summary.csv").read_text().splitlines()):
        assert run_cli(["compute", "rho-b", "--n", line["n"], "--d", 3, "--q", 4, "--Kd", 1, "--epsilon", 0.01,
                        "--r", 1, "--x", 1, "--c0", 3]) == 0
        assert capsys.readouterr().out.strip() == f"{float(line['meanBudget']):.12g}"


def test_solver_failure_exits_3_naming_replication(monkeypatch, tmp_path, capsys):
    solve = harness.solve_lq_rerm
    calls = []

    def failing_at_n128_rep2(sample, *args, **kwargs):
        # at workers 1 each n's six replications solve as one stack, in grid order: n = 128's stack is the
        # second call, and its row 2 is replication 2
        calls.append(stack_size(sample))
        solution = solve(sample, *args, **kwargs)
        if len(calls) == 2:
            raise IterationLimitError("iteration budget exhausted in row 2",
                                      best=replace(solution, optimality_gap=0.25), row=2)
        return solution

    monkeypatch.setattr(harness, "solve_lq_rerm", failing_at_n128_rep2)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIGS["SquareLasso"]))
    assert run_cli(["experiment", "--config", path, "--out", tmp_path / "o", "--workers", 1]) == 3
    assert calls == [6, 6]
    err = capsys.readouterr().err
    assert "SquareLasso solver failed at n=128, replication 2" in err
    assert "best gap 0.25" in err


def test_solver_failure_in_a_later_stack_names_its_replication(monkeypatch, tmp_path, capsys):
    # a sample of the d = 5 config is its moments, 8 * 5 * 5 bytes of Gram matrix, so stacks hold 4
    # replications: 0-3 and 4-5 at every n. Row 1 of n = 128's second stack is replication 5
    monkeypatch.setattr(harness, "_STACK_BYTES", 4 * 8 * 5 * 5)
    solve = harness.solve_lq_rerm
    calls = []

    def failing_in_the_fourth_stack(sample, *args, **kwargs):
        calls.append(stack_size(sample))
        solution = solve(sample, *args, **kwargs)
        if len(calls) == 4:
            raise IterationLimitError("iteration budget exhausted in row 1",
                                      best=replace(solution, optimality_gap=0.5), row=1)
        return solution

    monkeypatch.setattr(harness, "solve_lq_rerm", failing_in_the_fourth_stack)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIGS["SquareLasso"]))
    assert run_cli(["experiment", "--config", path, "--out", tmp_path / "o", "--workers", 1]) == 3
    assert calls == [4, 2, 4, 2]
    err = capsys.readouterr().err
    assert "SquareLasso solver failed at n=128, replication 5" in err
    assert "best gap 0.5" in err


def _solution_of_every_row(beta):
    """A stand-in for ``solve_lq_rerm`` that returns ``beta`` for every sample of the stack it is given."""
    return lambda sample, *args, **kwargs: SimpleNamespace(beta=np.tile(beta, (len(sample.design), 1)))


def test_non_finite_q4_risk_exits_3_naming_replication(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness, "solve_lq_rerm", _solution_of_every_row(np.full(3, 1e100)))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIGS["LqRerm"]))
    assert run_cli(["experiment", "--config", path, "--out", tmp_path / "o", "--workers", 1]) == 3
    assert "runtime error: LqRerm exact risk is not finite at n=64, replication 0" in capsys.readouterr().err


def test_non_finite_q4_risk_in_a_later_stack_names_its_replication(monkeypatch, tmp_path, capsys):
    # at n = 64 a sample of the d = 3 config takes 8 * 3 * (64 + 3) bytes, so stacks hold 2 of its 4
    # replications; only row 1 of the second stack, replication 3, gets a coefficient that overflows its risk
    monkeypatch.setattr(harness, "_STACK_BYTES", 2 * 8 * 3 * (64 + 3))
    calls = []

    def overflowing_in_the_second_stack(sample, *args, **kwargs):
        calls.append(len(sample.design))
        beta = np.zeros((len(sample.design), 3))
        if len(calls) == 2:
            beta[1] = 1e100
        return SimpleNamespace(beta=beta)

    monkeypatch.setattr(harness, "solve_lq_rerm", overflowing_in_the_second_stack)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIGS["LqRerm"]))
    assert run_cli(["experiment", "--config", path, "--out", tmp_path / "o", "--workers", 1]) == 3
    assert calls == [2, 2]
    assert "runtime error: LqRerm exact risk is not finite at n=64, replication 3" in capsys.readouterr().err


def test_overflowing_penalty_coefficient_exits_2_naming_c0(tmp_path, capsys):
    # the penalty level itself is finite; dividing it by n epsilon^2 leaves the floats
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "SquareLasso", "nGrid": [256, 512], "replications": 2, "epsilon": 0.002,
                                "constants": {"c0": 1e304, "c1": 0}}))
    assert run_cli(["experiment", "--config", path, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "constants.c0" in err and "runtime error" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("epsilon", [1e-200, 1e-160], ids=["square-underflows", "square-subnormal"])
def test_tiny_epsilon_penalty_coefficient_exits_2_naming_epsilon(epsilon, tmp_path, capsys):
    # at the default c0 the coefficient leaves the floats because epsilon^2 rounds to 0 or to a subnormal
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"scenario": "LqRerm", "q": 4, "noise": {"kind": "Bounded", "range": 0.5},
                                "nGrid": [64, 128], "d": 3, "replications": 2, "epsilon": epsilon}))
    assert run_cli(["experiment", "--config", path, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert "'epsilon'" in err and "raise epsilon" in err and "runtime error" not in err
    assert not (tmp_path / "o").exists()


class TestCompute:
    def test_penalty_unit_inputs_prints_1(self, capsys):
        e = repr(math.e)
        code = run_cli(
            ["compute", "penalty", "--n", e, "--d", e, "--x", "1e-12", "--q", "2", "--Kd", "1"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_psi_norm_zeros_prints_0(self, tmp_path, capsys):
        path = tmp_path / "zeros.txt"
        path.write_text("0\n0\n0\n")
        assert run_cli(["compute", "psi-norm", "--file", path, "--alpha", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_psi_norm_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        samples = rng.exponential(1.0, 50)
        path = tmp_path / "x.txt"
        path.write_text("\n".join(repr(float(v)) for v in samples))
        assert run_cli(["compute", "psi-norm", "--file", path, "--alpha", "1.5", "--tol", "1e-10"]) == 0
        printed = capsys.readouterr().out.strip()
        expected = psi_alpha_norm(samples, 1.5, tol=1e-10)
        assert printed == f"{expected:.12g}"

    def test_fixed_point_sqrt_table(self, tmp_path, capsys):
        grid = np.linspace(0.0, 400.0, 40001)
        path = tmp_path / "table.txt"
        path.write_text("\n".join(f"{float(lam)!r} {math.sqrt(lam)!r}" for lam in grid))
        assert run_cli(["compute", "fixed-point", "--table", path, "--epsilon", "0.4"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(100.0, abs=0.1)

    @pytest.mark.parametrize(
        "table",
        ["0.1 nan\n0.5 0.2\n1.0 0.3\n", "0.1 -5\n", "0.1 inf\n0.5 0.2\n", "-0.1 0.01\n0.5 0.2\n",
         # phi(1) = 0.5 > (0.25 / 4) * 1, so the fixed point lies past the last level, where interpolation is flat
         "0.1 0.1\n0.5 0.3\n1.0 0.5\n"],
        ids=["nan-sup", "negative-sup", "inf-sup", "negative-level", "fixed-point-beyond-last-level"],
    )
    def test_fixed_point_malformed_table_exits_2_naming_table(self, table, tmp_path, capsys):
        path = tmp_path / "table.txt"
        path.write_text(table)
        assert run_cli(["compute", "fixed-point", "--table", path, "--epsilon", "0.25"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--table" in captured.err

    def test_rho_a_and_rho_b(self, capsys):
        assert run_cli(
            ["compute", "rho-a", "--lambda-star", "0.7", "--bn", "0", "--Bn", "0",
             "--epsilon", "0.25", "--x", "1", "--n", "100"]
        ) == 0
        assert capsys.readouterr().out.strip() == "0.7"
        assert run_cli(
            ["compute", "rho-b", "--n", "256", "--d", "20", "--q", "2", "--Kd", "1",
             "--epsilon", "0.25", "--r", "1", "--x", "1"]
        ) == 0
        expected = rerm_residual(256, 20, 2, 1, 0.25, 1, 1)
        assert capsys.readouterr().out.strip() == f"{expected:.12g}"

    def test_penalty_matches_library(self, capsys):
        assert run_cli(["compute", "penalty", "--n", "1024", "--d", "50", "--x", "1", "--q", "4", "--Kd", "1.5"]) == 0
        assert capsys.readouterr().out.strip() == f"{l1_penalty_level(1024, 50, 1.0, 4.0, 1.5):.12g}"

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["penalty", "--n", "nan", "--d", "3", "--x", "1", "--Kd", "1"], "--n"),
            (["penalty", "--n", "8", "--d", "3", "--x", "inf", "--Kd", "1"], "--x"),
            (["rho-a", "--lambda-star", "nan", "--bn", "0", "--Bn", "0", "--epsilon", "0.25", "--x", "1",
              "--n", "100"], "--lambda-star"),
            (["rho-b", "--n", "256", "--d", "20", "--q", "2", "--Kd", "1", "--epsilon", "0.25", "--r", "nan",
              "--x", "1"], "--r"),
        ],
        ids=["penalty-n-nan", "penalty-x-inf", "rho-a-lambda-nan", "rho-b-r-nan"],
    )
    def test_non_finite_real_exits_2_naming_flag(self, args, flag, capsys):
        assert run_cli(["compute", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}:" in captured.err

    def test_readme_shows_one_example_per_subcommand(self):
        section = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = section.split("## CLI", 1)[1].split("\n## ", 1)[0]
        examples = [line.split()[2] for line in section.splitlines() if line.startswith("oraclebench compute ")]
        examples = sorted(name for name in examples if name != "QUANTITY")
        assert examples == sorted(_subcommands(_subcommands(build_parser())["compute"]))

    @pytest.mark.parametrize("quantity, extra", [("penalty", []), ("rho-b", ["--epsilon", "0.25", "--r", "1"])])
    def test_overflow_exits_2(self, quantity, extra, capsys):
        # Kd^q = 2^2000 overflows a float: an input out of range, not a runtime fault
        args = ["compute", quantity, "--n", "100", "--d", "10", "--x", "1", "--Kd", "2", "--q", "2000", *extra]
        assert run_cli(args) == 2
        assert "overflows a float; lower q or Kd" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, lower",
        [
            (["rho-a", "--lambda-star", "0", "--bn", "1e308", "--Bn", "1e308", "--epsilon", "0.25", "--x", "1e308",
              "--n", "1"], "lambda_star, bn, big_bn, x or c0"),
            (["penalty", "--n", "2", "--d", "2", "--x", "1", "--Kd", "1", "--q", "1e308"], "q or Kd"),
            (["rho-b", "--n", "2", "--d", "2", "--q", "1e308", "--Kd", "0.5", "--epsilon", "0.25", "--r", "0",
              "--x", "1"], "q or Kd"),
        ],
        ids=["rho-a", "penalty-q1e308", "rho-b-q1e308"],
    )
    def test_value_past_the_floats_exits_2(self, args, lower, capsys):
        # rho-a once printed inf; at q = 1e308 the exponent (4q - 2)/q is inf, and log(2)^inf rounded to 0
        assert run_cli(["compute", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"overflows a float; lower {lower}" in captured.err

    @pytest.mark.parametrize(
        "flag, value", [("--x", "1e308"), ("--r", "1e308"), ("--c0", "1e308"), ("--epsilon", "1e-200")]
    )
    def test_rho_b_past_the_floats_names_its_own_inputs(self, flag, value, capsys):
        # the residual is erm_residual's at derived inputs, which rho-b does not take; at epsilon = 1e-200 its square
        # underflows to 0 and the level divides by it
        args = {"--n": "2", "--d": "2", "--q": "2", "--Kd": "1", "--epsilon": "0.25", "--r": "0", "--x": "1"}
        args[flag] = value
        assert run_cli(["compute", "rho-b", *(item for pair in args.items() for item in pair)]) == 2
        err = capsys.readouterr().err
        assert "rerm_residual overflows a float; lower q or Kd, r, x or c0, or raise epsilon" in err
        assert "lambda_star" not in err and "runtime error" not in err

    @pytest.mark.parametrize(
        "args, flag, text",
        [(["psi-norm"], "--file", None), (["fixed-point", "--epsilon", "0.25"], "--table", "level sup\n0 0\n")],
        ids=["missing-file", "non-numeric-table"],
    )
    def test_unreadable_file_exits_2_naming_flag(self, args, flag, text, tmp_path, capsys):
        path = tmp_path / "data.txt"
        if text is not None:
            path.write_text(text)
        assert run_cli(["compute", *args, flag, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"compute error: {flag}: ")

    @pytest.mark.parametrize("text", ["1 2\n3 4\n", "1 2 3\n"], ids=["table", "one-line"])
    def test_psi_norm_file_of_several_columns_exits_2_naming_file(self, text, tmp_path, capsys):
        # a sample file holds one number per line, so a table given by mistake is not read as one long sample
        path = tmp_path / "data.txt"
        path.write_text(text)
        assert run_cli(["compute", "psi-norm", "--file", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "compute error: --file must hold one number per line\n"

    @pytest.mark.parametrize("text", ["", "# levels and suprema\n"], ids=["empty", "comment-only"])
    @pytest.mark.parametrize("args, flag",
                             [(["psi-norm"], "--file"), (["fixed-point", "--epsilon", "0.25"], "--table")])
    def test_file_without_data_exits_2_naming_flag(self, text, args, flag, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            # numpy's "input contained no data" warning is not the report
            warnings.simplefilter("error")
            assert run_cli(["compute", *args, flag, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"compute error: {flag} holds no data\n"

    @pytest.mark.parametrize(
        "args, code, out",
        [(["psi-norm", "--file", "1e7\n1e7\n"], 0, "14426950.4089\n"),
         (["psi-norm", "--file", "1e308\n"], 2, ""),
         (["fixed-point", "--epsilon", "0.25", "--bracket-hi", "1e308", "--table", "0 0\n1 1e308\n"], 2, "")],
        ids=["psi-norm-float-spacing", "psi-norm-overflow", "fixed-point-overflow"],
    )
    def test_bisection_ends(self, args, code, out, tmp_path):
        # each of these once bisected forever, so they run in a process of their own with a timeout
        path = tmp_path / "data.txt"
        path.write_text(args[-1])
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "oraclebench.cli", "compute", *args[:-1], str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (code, out), proc.stderr

    def test_bad_args_exit_2(self, tmp_path):
        assert run_cli(["compute", "penalty", "--n", "1", "--d", "2", "--x", "1", "--Kd", "1"]) == 2
        assert run_cli(["compute", "psi-norm", "--file", tmp_path / "missing.txt"]) == 2
        assert run_cli(["compute", "nonsense"]) == 2
