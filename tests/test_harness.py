import ast
import hashlib
import importlib
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclebench import (
    BetaStarSpec,
    InvalidInputError,
    LossSpec,
    NoiseSpec,
    OracleReport,
    ScenarioConfig,
    config_from_mapping,
    derive_seed,
    rate_fit,
    risk_estimate,
    run_finite_gap,
    run_isomorphy,
    run_lq_rerm,
    run_scenario,
    run_square_lasso,
)
from oraclebench import harness
from oraclebench.harness import rows_csv_text, summary_csv_text


def finite_gap_config(**kwargs):
    base = dict(
        scenario="FiniteGap",
        n_grid=[64, 128, 256],
        epsilon=0.0019,
        replications=40,
        master_seed=777,
        gamma=0.5,
    )
    base.update(kwargs)
    return ScenarioConfig(**base)


def lasso_config(**kwargs):
    base = dict(
        scenario="SquareLasso",
        n_grid=[128, 256],
        d=8,
        q=2.0,
        epsilon=0.01,
        x=1.0,
        replications=6,
        master_seed=99,
        noise=NoiseSpec.gaussian(0.5),
        beta_star=BetaStarSpec(2, 1.0),
        constants={"c0": 1e-11, "c1": 1.0, "Kd": 1.0},
        test_size=4000,
    )
    base.update(kwargs)
    return ScenarioConfig(**base)


def _config_mappings():
    """Valid run-file mappings with up to two fields replaced by arbitrary JSON values."""
    scalar = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    junk = st.recursive(
        scalar,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )
    kinds = st.sampled_from(["Gaussian", "Bounded", "Exponential"])
    param_keys = {"Gaussian": "sd", "Bounded": "range", "Exponential": "rate"}
    noise = kinds.flatmap(lambda kind: st.fixed_dictionaries({"kind": st.just(kind), param_keys[kind]: st.floats(0, 5)}))
    valid = st.fixed_dictionaries(
        {
            "scenario": st.sampled_from(["FiniteGap", "Isomorphy", "SquareLasso", "LqRerm"]),
            "nGrid": st.lists(st.integers(1, 10**4), min_size=1, max_size=4, unique=True).map(sorted),
        },
        optional={
            "d": st.integers(1, 50),
            "q": st.floats(2, 8),
            "epsilon": st.floats(0.001, 0.49),
            "x": st.floats(0.1, 5),
            "replications": st.integers(1, 100),
            "masterSeed": st.integers(0, 2**64 - 1),
            "gamma": st.floats(0, 5),
            "testSize": st.integers(2, 10**5),
            "lambdaReplications": st.integers(1, 500),
            "floor": st.floats(1e-15, 1e-3),
            "labelFlip": st.floats(0, 0.5),
            "cells": st.integers(2, 64),
            "noise": noise,
            "betaStar": st.fixed_dictionaries({"support": st.integers(0, 5), "magnitude": st.floats(-2, 2)}),
            "constants": st.dictionaries(st.sampled_from(["c0", "c1", "Kd"]), st.floats(0, 2), max_size=3),
        },
    )
    broken_noise = kinds.flatmap(
        lambda kind: st.fixed_dictionaries({"kind": st.just(kind)}, optional={param_keys[kind]: junk})
    )
    broken_nested = st.one_of(
        st.fixed_dictionaries({"noise": broken_noise | junk}),
        st.fixed_dictionaries({"betaStar": st.fixed_dictionaries({}, optional={"support": junk, "magnitude": junk})}),
        st.fixed_dictionaries({"constants": st.dictionaries(st.sampled_from(["c0", "c1", "Kd"]), junk, max_size=2)}),
        st.fixed_dictionaries({"nGrid": st.lists(junk, max_size=3)}),
    )
    keys = ["scenario", "nGrid", "d", "q", "epsilon", "x", "replications", "masterSeed", "gamma",
            "testSize", "lambdaReplications", "floor", "labelFlip", "cells", "noise", "betaStar",
            "constants", "bogus"]
    broken = st.dictionaries(st.sampled_from(keys), junk, max_size=2) | broken_nested
    return st.builds(lambda base, bad: {**base, **bad}, valid, st.just({}) | broken)


class TestRateFit:
    def test_exact_inverse_n(self):
        points = [(n, 5.0 / n) for n in (10, 20, 40, 80)]
        fit = rate_fit(points)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_exact_inverse_sqrt_n(self):
        points = [(n, 2.0 / math.sqrt(n)) for n in (10, 100, 1000)]
        fit = rate_fit(points)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)

    def test_constant_values(self):
        fit = rate_fit([(10, 3.0), (20, 3.0), (40, 3.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_nonpositive_values_excluded(self):
        fit = rate_fit([(10, 1.0), (20, 0.5), (40, 0.25), (80, -1.0)])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert len(fit.points) == 4

    def test_too_few_points(self):
        with pytest.raises(InvalidInputError):
            rate_fit([(10, 1.0), (20, 0.5), (40, -1.0)])


class TestOracleReport:
    def test_slack_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            achieved = rng.uniform(0, 2)
            oracle = rng.uniform(0, 2)
            eps = rng.uniform(0.001, 0.49)
            rep = OracleReport.build(100, achieved, oracle, eps, 1.0)
            assert rep.slack_exact - rep.slack_nonexact == pytest.approx(
                3 * eps * oracle, rel=1e-12, abs=1e-15
            )

    def test_satisfied_definition(self):
        rep = OracleReport.build(10, 1.0, 0.5, 0.1, 0.4)
        assert rep.satisfied == (rep.slack_nonexact <= 0.4)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        a = derive_seed(777, "finite-gap", 128, 3)
        assert a == derive_seed(777, "finite-gap", 128, 3)
        assert a != derive_seed(777, "finite-gap", 128, 4)
        assert a != derive_seed(777, "finite-gap", 256, 3)
        assert a != derive_seed(777, "square-lasso", 128, 3)
        assert a != derive_seed(778, "finite-gap", 128, 3)

    @pytest.mark.parametrize("master_seed, n, replication", [
        (2**64 - 1, 128, 3),
        (777, 0, 0),
        (777, 256, 2**32),
        (2**64 - 1, 0, 2**64 - 1),
    ])
    def test_is_the_stream_prefix_composition(self, master_seed, n, replication):
        prefix = harness._stream_prefix(master_seed, "finite-gap", n)
        assert derive_seed(master_seed, "finite-gap", n, replication) == harness._splitmix64(prefix ^ replication)


class TestFiniteGap:
    def test_identical_functions_zero_exact_slack(self):
        # gamma = 0 collapses the risk gap, so any pick is an oracle
        res = run_finite_gap(finite_gap_config(gamma=0.0, epsilon=0.01))
        assert all(r.report.slack_exact == 0.0 for r in res.rows)

    def test_huge_gap_always_picks_oracle(self):
        res = run_finite_gap(finite_gap_config(gamma=1e6, epsilon=0.01))
        assert all(r.report.slack_exact == 0.0 for r in res.rows)

    def test_achieved_risk_is_a_model_risk(self):
        res = run_finite_gap(finite_gap_config())
        for row in res.rows:
            n = row.report.n
            delta = min(0.5 / math.sqrt(n), 1 - 1e-12)
            risks = {0.5 - delta / 2, 0.5 + delta / 2}
            assert any(abs(row.report.achieved_risk - r) < 1e-12 for r in risks)

    def test_golden_streams(self):
        # sha256 of the CSVs pins every replication's stream, not only their agreement across workers
        result = run_finite_gap(finite_gap_config())
        assert hashlib.sha256(rows_csv_text(result).encode()).hexdigest() == (
            "b78248786a89e62b5fbb956d434312ace133fd904ff48707e8c94affda53d5ee"
        )
        assert hashlib.sha256(summary_csv_text(result).encode()).hexdigest() == (
            "7ad822c51c4eed7b87c3223815b061d3bc9a06e0bb56f87fa0d960f1bdc07a93"
        )

    def test_workers_do_not_change_rows(self):
        cfg = finite_gap_config()
        r1 = run_finite_gap(cfg, workers=1)
        r2 = run_finite_gap(cfg, workers=3)
        assert rows_csv_text(r1) == rows_csv_text(r2)

    @pytest.mark.parametrize("workers, pool_size", [(64, 3), (2, 2)])
    def test_pool_is_no_larger_than_the_chunk_count(self, monkeypatch, workers, pool_size):
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        cfg = finite_gap_config(n_grid=[64], replications=3)
        result = run_finite_gap(cfg, workers=workers)
        assert sizes == [pool_size]
        assert rows_csv_text(result) == rows_csv_text(run_finite_gap(cfg))

    def test_erm_pick_invariant_under_monotone_loss_relabeling(self):
        # any order-preserving relabeling of the two empirical risks keeps
        # the argmin index distribution unchanged
        rng = np.random.default_rng(1)
        for _ in range(100):
            risks = rng.uniform(0, 1, size=2)
            relabeled = 0.2 + 0.5 * risks  # strictly increasing map
            assert np.argmin(risks) == np.argmin(relabeled)

    def test_wrong_scenario_rejected(self):
        with pytest.raises(InvalidInputError):
            run_finite_gap(lasso_config())


class TestIsomorphy:
    def iso_config(self, **kwargs):
        base = dict(
            scenario="Isomorphy",
            n_grid=[256],
            d=8,
            epsilon=0.25,
            x=2.0,
            replications=200,
            master_seed=777,
            lambda_replications=200,
        )
        base.update(kwargs)
        return ScenarioConfig(**base)

    def test_deterministic_labels_full_frequency(self):
        res = run_isomorphy(self.iso_config(label_flip=0.5))
        assert res.satisfaction_frequency == 1.0

    def test_inflated_budget_full_frequency(self):
        res = run_isomorphy(self.iso_config(constants={"c0": 1e6}))
        assert res.satisfaction_frequency == 1.0

    def test_frequency_monotone_in_budget(self):
        res = run_isomorphy(self.iso_config())
        margins = np.array([r.report.achieved_risk for r in res.rows])
        rho = res.extras[256]["rho"]
        freq = lambda budget: float(np.mean(margins <= budget))
        assert freq(rho / 4) <= freq(rho) <= freq(rho * 4)
        assert freq(margins.max() + 1.0) == 1.0

    def test_localization_draws_once_per_n(self, monkeypatch):
        calls = []
        original = harness.expected_localized_sup

        def counting(sampler, replications, seed):
            def counted(rng):
                calls.append(1)
                return sampler(rng)

            return original(counted, replications, seed)

        monkeypatch.setattr(harness, "expected_localized_sup", counting)
        run_isomorphy(self.iso_config(n_grid=[128, 256], replications=20, lambda_replications=50))
        assert len(calls) == 2 * 50

    def test_report_shape(self):
        res = run_isomorphy(self.iso_config())
        assert res.target_frequency == pytest.approx(1 - 4 * math.exp(-2))
        assert all(r.report.oracle_risk == 0.0 for r in res.rows)
        assert set(res.extras[256]) >= {"rho", "lambda_star", "lambda_band"}


class TestSquareLasso:
    def test_noiseless_zero_signal(self):
        cfg = lasso_config(noise=NoiseSpec.gaussian(0.0), beta_star=BetaStarSpec(0, 0.0))
        res = run_square_lasso(cfg)
        for row in res.rows:
            assert row.report.achieved_risk == pytest.approx(0.0, abs=1e-12)
            assert row.report.satisfied

    def test_consistency_with_tiny_penalty(self):
        cfg = lasso_config(n_grid=[512], constants={"c0": 0.0, "c1": 1.0}, replications=4)
        res = run_square_lasso(cfg)
        sd2 = 0.25
        for s in res.summaries:
            assert s.mean_achieved == pytest.approx(sd2 * (1 + cfg.d / 512), rel=0.2)
            assert s.satisfaction_frequency == 1.0

    def test_exponential_noise_rejected(self):
        # exponential noise runs at q = 2; above it only Bounded noise has a closed-form risk
        with pytest.raises(InvalidInputError, match="'noise'"):
            run_lq_rerm(lasso_config(scenario="LqRerm", q=4.0, noise=NoiseSpec.exponential(1.0)))

    def test_exponential_noise_meets_the_criterion_7_gates(self):
        # the paper's unbounded setting: the criterion-7 config with centered Exponential(2) noise
        config = ScenarioConfig(
            scenario="SquareLasso",
            n_grid=[2**k for k in range(8, 13)],
            d=50,
            epsilon=0.002,
            replications=200,
            master_seed=777,
            noise=NoiseSpec.exponential(2.0),
            beta_star=BetaStarSpec(3, 1.0),
            constants={"c0": 1e-11, "c1": 1.0, "Kd": 1.0},
        )
        result = run_square_lasso(config)
        assert result.fit_nonexact.slope <= -0.8
        assert result.fit_nonexact.r_squared >= 0.9
        assert result.satisfaction_frequency >= 0.9

    def test_q_must_be_two(self):
        with pytest.raises(InvalidInputError):
            run_square_lasso(lasso_config(q=3.0))

    @pytest.mark.parametrize(
        "noise, design_m2",
        [(NoiseSpec.gaussian(0.5), 1.0), (NoiseSpec.bounded(0.5), 1.0 / 3.0), (NoiseSpec.exponential(2.0), 1.0)],
        ids=["gaussian", "bounded", "exponential"],
    )
    def test_exact_risk_matches_monte_carlo(self, monkeypatch, noise, design_m2):
        cfg = lasso_config(noise=noise, n_grid=[64], replications=1)
        beta_hat = np.linspace(-0.5, 1.5, cfg.d)
        beta_star = cfg.beta_star.vector(cfg.d)
        monkeypatch.setattr(harness, "solve_lq_rerm", lambda *args, **kwargs: SimpleNamespace(beta=beta_hat))
        achieved = run_square_lasso(cfg).rows[0].report.achieved_risk
        exact = design_m2 * float(np.sum((beta_hat - beta_star) ** 2)) + noise.abs_moment(2)
        assert achieved == pytest.approx(exact, rel=1e-12)

        def generator(rng, size):
            design = harness._rerm_design(rng, size, cfg.d, noise)
            return design, design @ beta_star + noise.draw(rng, size)

        estimate = risk_estimate(lambda x: x @ beta_hat, generator, LossSpec.lq(2), 200_000, 5)
        assert abs(achieved - estimate.mean) <= 4.0 * estimate.stderr

    def test_q2_never_draws_a_test_set(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("risk_estimate called for q = 2")

        monkeypatch.setattr(harness, "risk_estimate", forbidden)
        res_sq = run_square_lasso(lasso_config(noise=NoiseSpec.bounded(0.5)))
        res_lq = run_lq_rerm(lasso_config(scenario="LqRerm"))
        assert len(res_sq.rows) == len(res_lq.rows) == 12


class TestLqRerm:
    def test_q2_delegates_bit_for_bit(self):
        cfg_sq = lasso_config()
        cfg_lq = lasso_config(scenario="LqRerm")
        res_sq = run_square_lasso(cfg_sq)
        res_lq = run_lq_rerm(cfg_lq)
        assert rows_csv_text(res_sq) == rows_csv_text(res_lq)
        assert summary_csv_text(res_sq) == summary_csv_text(res_lq)

    def test_noiseless_zero_signal(self):
        cfg = lasso_config(
            scenario="LqRerm",
            q=4.0,
            noise=NoiseSpec.bounded(0.0),
            beta_star=BetaStarSpec(0, 0.0),
            replications=3,
        )
        res = run_lq_rerm(cfg)
        assert all(r.report.slack_nonexact <= 1e-12 for r in res.rows)

    def test_q4_bounded_noise_satisfaction(self):
        cfg = lasso_config(
            scenario="LqRerm",
            q=4.0,
            noise=NoiseSpec.bounded(0.5),
            beta_star=BetaStarSpec(2, 0.5),
            replications=10,
            test_size=4000,
        )
        res = run_lq_rerm(cfg)
        assert res.satisfaction_frequency >= 0.9

    def test_q4_gaussian_rejected(self):
        with pytest.raises(InvalidInputError):
            run_lq_rerm(lasso_config(scenario="LqRerm", q=4.0))


class TestRunScenarioAndCsv:
    def test_dispatch(self):
        res = run_scenario(finite_gap_config())
        assert res.scenario == "FiniteGap"

    def test_rows_csv_format(self):
        res = run_scenario(finite_gap_config(n_grid=[64], replications=3))
        text = rows_csv_text(res)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "scenario,n,replication,achievedRisk,oracleRisk,slackExact,"
            "slackNonexact,budget,satisfied"
        )
        assert len(lines) == 1 + 3
        first = lines[1].split(",")
        assert first[0] == "FiniteGap"
        assert first[1] == "64"
        assert first[2] == "0"
        assert first[8] in ("true", "false")
        # 17 significant digits round-trip
        assert float(first[3]) == res.rows[0].report.achieved_risk

    def test_determinism_of_whole_run(self):
        cfg = finite_gap_config()
        assert rows_csv_text(run_scenario(cfg)) == rows_csv_text(run_scenario(cfg))

    def test_summary_contains_fits(self):
        res = run_scenario(finite_gap_config(n_grid=[64, 128, 256, 512], replications=60))
        text = summary_csv_text(res)
        assert text.startswith("scenario,n,replications,")
        assert len(text.strip().split("\n")) == 5


class TestConfigParsing:
    def test_minimal_mapping(self):
        cfg = config_from_mapping({"scenario": "FiniteGap", "nGrid": [10, 20]})
        assert cfg.n_grid == (10, 20)

    def test_missing_required_field_named(self):
        with pytest.raises(InvalidInputError, match="nGrid"):
            config_from_mapping({"scenario": "FiniteGap"})

    def test_unknown_field_named(self):
        with pytest.raises(InvalidInputError, match="bogus"):
            config_from_mapping({"scenario": "FiniteGap", "nGrid": [4], "bogus": 1})

    def test_noise_parsing(self):
        cfg = config_from_mapping(
            {
                "scenario": "SquareLasso",
                "nGrid": [16],
                "noise": {"kind": "Bounded", "range": 0.5},
                "betaStar": {"support": 1, "magnitude": 2.0},
                "constants": {"c0": 0.5},
            }
        )
        assert cfg.noise == NoiseSpec.bounded(0.5)
        assert cfg.beta_star == BetaStarSpec(1, 2.0)
        assert cfg.constant("c0") == 0.5

    def test_bad_noise_named(self):
        with pytest.raises(InvalidInputError, match="noise"):
            config_from_mapping({"scenario": "FiniteGap", "nGrid": [4], "noise": {"kind": "Laplace", "sd": 1}})

    def test_grid_must_increase(self):
        with pytest.raises(InvalidInputError, match="nGrid"):
            config_from_mapping({"scenario": "FiniteGap", "nGrid": [10, 10]})

    def test_noise_validation(self):
        with pytest.raises(InvalidInputError):
            NoiseSpec("Gaussian", -1.0)
        assert NoiseSpec.gaussian(2.0).abs_moment(2) == 4.0
        assert NoiseSpec.bounded(1.0).abs_moment(4) == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "build, field_name",
        [
            (lambda: finite_gap_config(x=float("nan")), "'x'"),
            (lambda: finite_gap_config(d=2.7), "'d'"),
            (lambda: finite_gap_config(replications=True), "'replications'"),
            (lambda: finite_gap_config(constants={"c0": "abc"}), "'constants.c0'"),
            (lambda: BetaStarSpec(2.5, 1.0), "'betaStar.support'"),
            (lambda: NoiseSpec("Gaussian", True), "'noise.sd'"),
        ],
        ids=["x-nan", "d-2.7", "replications-True", "constants-c0-str", "betaStar-support-2.5", "noise-sd-True"],
    )
    def test_direct_construction_rejects_naming_field(self, build, field_name):
        with pytest.raises(InvalidInputError, match=re.escape(field_name)):
            build()

    def test_integral_reals_accepted_as_integers(self):
        cfg = config_from_mapping({"scenario": "FiniteGap", "nGrid": [4.0, 8], "d": 3.0})
        assert cfg.n_grid == (4, 8) and cfg.d == 3

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mapping=_config_mappings())
    def test_fuzzed_mapping_gives_config_or_invalid_input(self, mapping):
        try:
            config = config_from_mapping(mapping)
        except InvalidInputError:
            return
        assert isinstance(config, ScenarioConfig)

    def test_beta_star_vector(self):
        spec = BetaStarSpec(2, 1.5)
        assert np.array_equal(spec.vector(4), [1.5, 1.5, 0.0, 0.0])
        assert spec.l1_norm() == 3.0
        with pytest.raises(InvalidInputError):
            spec.vector(1)


def test_benchmark_probe_patch_targets_exist():
    # a renamed import would silently make a traced benchmark layer report 0 calls;
    # PATCHES is read with ast so that importing the probe's sys.path change never runs
    probe = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"
    tree = ast.parse(probe.read_text(encoding="utf-8"))
    (patches,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "PATCHES" for t in node.targets)
    ]
    assert patches
    for module_name, attr, _ in patches:
        assert hasattr(importlib.import_module(module_name), attr), f"{module_name}.{attr}"
