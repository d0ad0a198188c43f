import ast
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import math
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclebench import (
    BetaStarSpec,
    InvalidInputError,
    NoiseSpec,
    Sample,
    ScenarioConfig,
    ScenarioResult,
    config_from_mapping,
    derive_seed,
    fixed_point_lambda,
    rate_fit,
    rerm_residual,
    risk_estimate,
    run_scenario,
    solve_lq_rerm,
)
from oraclebench import harness
from oraclebench.harness import rows_csv_text, summary_csv_text
from oraclebench.solvers import Moments, _LqObjective, moments
from test_complexity import exact_localized_sup


def stack_size(sample):
    """The number of samples in a stack given to ``solve_lq_rerm``, as rows (a Sample) or as q = 2 Moments."""
    return len(sample.gram if isinstance(sample, Moments) else sample.design)


def fixed_solution(beta):
    """A stand-in for ``solve_lq_rerm`` that returns ``beta`` for every sample of the stack it is given."""
    return lambda sample, *args, **kwargs: SimpleNamespace(beta=np.tile(beta, (stack_size(sample), 1)))


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
        noise=NoiseSpec("Gaussian", 0.5),
        beta_star=BetaStarSpec(2, 1.0),
        constants={"c0": 1e-11, "c1": 1.0, "Kd": 1.0},
    )
    base.update(kwargs)
    return ScenarioConfig(**base)


def iso_config(**kwargs):
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


def inline_pool(sizes):
    """A stand-in for ProcessPoolExecutor that maps in this process and appends each pool's size to ``sizes``."""

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    return InlinePool


def _config_mappings():
    """Valid run-file mappings, each setting only keys its scenario reads, with up to two fields replaced by arbitrary
    JSON values or keys that the scenario may not read."""
    scalar = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    junk = st.recursive(
        scalar,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )
    kinds = st.sampled_from(["Gaussian", "Bounded", "Exponential"])
    param_keys = {"Gaussian": "sd", "Bounded": "range", "Exponential": "rate"}
    noise = kinds.flatmap(lambda kind: st.fixed_dictionaries({"kind": st.just(kind), param_keys[kind]: st.floats(0, 5)}))
    optional = {
        "d": st.integers(1, 50),
        "q": st.floats(2, 8),
        "epsilon": st.floats(0.001, 0.49),
        "x": st.floats(0.1, 5),
        "replications": st.integers(1, 100),
        "masterSeed": st.integers(0, 2**64 - 1),
        "gamma": st.floats(0, 5),
        "lambdaReplications": st.integers(1, 500),
        "labelFlip": st.floats(0, 0.5),
        "cells": st.integers(2, 64),
        "noise": noise,
        "betaStar": st.fixed_dictionaries({"support": st.integers(0, 5), "magnitude": st.floats(-2, 2)}),
    }
    reads = {row.key: row.readers for row in harness._FIELDS}

    def valid_for(scenario):
        # the keys the scenario reads, at values its own check accepts: a regression runs from n = 2, and Isomorphy
        # needs x > log 4, which its default does not meet
        smallest_n = 2 if scenario in ("SquareLasso", "LqRerm") else 1
        required = {
            "scenario": st.just(scenario),
            "nGrid": st.lists(st.integers(smallest_n, 10**4), min_size=1, max_size=4, unique=True).map(sorted),
        }
        if scenario == "Isomorphy":
            required["x"] = st.floats(1.4, 5)
        constants = [name for name, row in harness._CONSTANTS.items() if scenario in row.readers]
        return st.fixed_dictionaries(required, optional={
            **{key: strategy for key, strategy in optional.items() if scenario in reads[key] and key not in required},
            "constants": st.dictionaries(st.sampled_from(constants), st.floats(0, 2), max_size=3),
        })

    valid = st.sampled_from(["FiniteGap", "Isomorphy", "SquareLasso", "LqRerm"]).flatmap(valid_for)
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
            "lambdaReplications", "labelFlip", "cells", "noise", "betaStar",
            "constants", "bogus"]
    broken = st.dictionaries(st.sampled_from(keys), junk, max_size=2) | broken_nested
    return st.builds(lambda base, bad: {**base, **bad}, valid, st.just({}) | broken)


# sha256 of the CSVs pins every replication's stream, not only their agreement across
# workers; one small config per scenario, with LqRerm at q = 4 so that it runs as itself, and
# SquareLasso with each noise: Gaussian draws the QR factor, the other two the n raw rows
GOLDEN = [
    (finite_gap_config(),
     "b78248786a89e62b5fbb956d434312ace133fd904ff48707e8c94affda53d5ee",
     "1a24e40112f9f8ac896b5c4dfd17b26653f1c6813cf93e94d29cff98771e243a"),
    # ON PURPOSE: moved when bn and big_bn became the exact psi_1 norms of the 0-1 losses instead of estimates
    # from calibration draws, so only budget and meanBudget move; every achieved risk, slack, satisfied flag
    # and lambda_star is unchanged
    (iso_config(),
     "683ef1faabc3892b967a1383c3390efb7050dd16b3054041bed74042092f43c4",
     "e19cf7cabefc360574beba0024683f6cf24d823a978c94047c762e5ac8af223d"),
    # odd n at a cell count that is not a power of two: each draw leaves half a word buffered
    # ON PURPOSE: moved when bn and big_bn became exact, as above; only budget and meanBudget move, and every
    # achieved risk, slack, satisfied flag and lambda_star is unchanged
    (iso_config(n_grid=[255, 1023], cells=17),
     "6cf21cd9ee7ef843a16a269aff73b3e000956053e5152f4c4c96e965d2a285cb",
     "d6dc19dddc33539f6bfb8f38d73770676f4c1d7e03bf67506539bb759d9f58a8"),
    (lasso_config(),
     "d6be49b6f8ab110d0eba59a69ed0e53cca89172eb3d2298ee6313f8214ce9916",
     "339a448c7a39d2e1cdd8badf9cc3624d8cda7bca5eff5331c77e825b5880b47c"),
    (lasso_config(noise=NoiseSpec("Exponential", 2.0)),
     "5ce909d96c710e0aac50d83e5d069f2b2e4134bccf95294b44a4f34cec476794",
     "04131473442a5c7cf7b3ec1061f8d420b784cc60e0836ea0c21ba3ca42508532"),
    (lasso_config(noise=NoiseSpec("Bounded", 0.5)),
     "85ba66ad0862d0c03eead14fb62d0a4f4527cd63f2eecc10b87f260cd5954109",
     "209c8c52eb9e59870bbb35df3b590c778f826d50cfc0feda8e81c1633ec6544d"),
    # ON PURPOSE: moved when every penalized q > 2 solve began to start at its Newton point on the sign
    # pattern of its least-squares fit, which changes its last bits (achieved risks within 1e-6)
    (lasso_config(scenario="LqRerm", q=4.0, noise=NoiseSpec("Bounded", 0.5)),
     "05f743bd5a9ad29c2d5d0d4fbc8941b0a3a729cbfa65ac4fa6de617eaf6ea148",
     "0b31eeb03fdc47342fd9041297986793d8a6b0c16c4a0a2d6599f8d302d33213"),
]


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

    def test_too_few_points(self):
        with pytest.raises(InvalidInputError):
            rate_fit([(10, 1.0), (20, 0.5), (40, -1.0)])

    @pytest.mark.parametrize(
        "points, cause",
        [
            # each returned a NaN fit, through a RuntimeWarning
            ([(10, 1.0), (10, 2.0), (10, 3.0)], "distinct n"),
            ([(0, 1.0), (10, 2.0), (20, 3.0)], "finite and positive"),
            ([(-1, 1.0), (10, 2.0), (20, 3.0)], "finite and positive"),
            ([(math.nan, 1.0), (10, 2.0), (20, 3.0)], "finite and positive"),
            ([(10, math.inf), (20, 2.0), (40, 3.0)], "not infinite"),
        ],
        ids=["repeated-n", "zero-n", "negative-n", "nan-n", "infinite-value"],
    )
    def test_degenerate_points_rejected_naming_the_cause(self, points, cause):
        with pytest.raises(InvalidInputError, match=cause):
            rate_fit(points)


class TestOracleReport:
    # the slack and satisfied definitions, checked on the per-replication arrays of whole runs
    def test_slack_identity(self):
        for eps in (0.0019, 0.1, 0.49):
            for config in (finite_gap_config(epsilon=eps), lasso_config(epsilon=eps)):
                res = run_scenario(config)
                assert res.achieved.shape == (len(config.n_grid), config.replications)
                assert res.oracle.shape == res.budget.shape == (len(config.n_grid),)
                assert np.all(res.oracle > 0)
                assert np.array_equal(res.slack_exact, res.achieved - res.oracle[:, None])
                np.testing.assert_allclose(res.slack_exact - res.slack_nonexact,
                                           np.broadcast_to(3 * eps * res.oracle[:, None], res.achieved.shape),
                                           rtol=1e-12, atol=1e-15)

    def test_satisfied_definition(self):
        # a small c0 shrinks the budget until some replications miss it
        res = run_scenario(finite_gap_config(constants={"c0": 1e-3}))
        assert 0 < res.satisfaction_frequency < 1
        assert np.array_equal(res.satisfied, res.slack_nonexact <= res.budget[:, None])


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
        # a chunk mixes its replications in as one uint64 array; array arithmetic wraps without a warning
        reps = np.array([0, 1, replication, replication ^ 1, 2**63, 2**64 - 1], dtype=np.uint64)
        seeds = harness._splitmix64(prefix ^ reps)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [derive_seed(master_seed, "finite-gap", n, int(rep)) for rep in reps]


class TestFiniteGap:
    def test_identical_functions_zero_exact_slack(self):
        # gamma = 0 collapses the risk gap, so any pick is an oracle
        res = run_scenario(finite_gap_config(gamma=0.0, epsilon=0.01))
        assert np.all(res.slack_exact == 0.0)

    def test_huge_gap_always_picks_oracle(self):
        res = run_scenario(finite_gap_config(gamma=1e6, epsilon=0.01))
        assert np.all(res.slack_exact == 0.0)

    def test_achieved_risk_is_a_model_risk(self):
        res = run_scenario(finite_gap_config())
        for n, achieved in zip(res.config.n_grid, res.achieved):
            delta = min(0.5 / math.sqrt(n), 1 - 1e-12)
            risks = {0.5 - delta / 2, 0.5 + delta / 2}
            for risk in achieved:
                assert any(abs(risk - r) < 1e-12 for r in risks)

    def test_golden_streams(self):
        for config, rows_sha, summary_sha in GOLDEN:
            result = run_scenario(config)
            assert result.config.scenario == config.scenario
            assert hashlib.sha256(rows_csv_text(result).encode()).hexdigest() == rows_sha, config.scenario
            assert hashlib.sha256(summary_csv_text(result).encode()).hexdigest() == summary_sha, config.scenario

    def test_workers_do_not_change_rows(self):
        cfg = finite_gap_config()
        r1 = run_scenario(cfg, workers=1)
        r2 = run_scenario(cfg, workers=3)
        assert rows_csv_text(r1) == rows_csv_text(r2)

    @pytest.mark.parametrize("workers, cpus, pool_size", [(64, 8, 3), (2, 8, 2), (64, 2, 2), (5000, None, 1)],
                             ids=["64-3", "2-2", "64-2", "5000-1"])
    def test_pool_is_no_larger_than_the_chunk_count(self, monkeypatch, workers, cpus, pool_size):
        # the pool gets at most one process per chunk and per CPU (one if the count is unknown); an inline
        # pool records the size, so no process is started
        sizes = []
        monkeypatch.setattr(harness, "ProcessPoolExecutor", inline_pool(sizes))
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        cfg = finite_gap_config(n_grid=[64], replications=3)
        result = run_scenario(cfg, workers=workers)
        assert sizes == [pool_size]
        assert rows_csv_text(result) == rows_csv_text(run_scenario(cfg))

    @staticmethod
    def _per_replication_achieved(config):
        # the row of one replication at a time, as FiniteGap scored it before chunks were scored at once
        achieved = []
        for n in config.n_grid:
            ctx = harness._finite_gap_ctx(config, n)
            for rep in range(config.replications):
                rng = np.random.default_rng(derive_seed(config.master_seed, "finite-gap", n, rep))
                plus = int(np.count_nonzero(rng.random(n) < ctx["p_plus"]))
                achieved.append(float(ctx["true_risks"][harness.erm_finite(ctx["losses"], [plus, n - plus])]))
        return np.array(achieved).reshape(len(config.n_grid), config.replications)

    @pytest.mark.parametrize("replications, workers, chunks", [
        (7, 1, [7]), (7, 2, [1] * 7), (7, 3, [1] * 7), (45, 2, [6] * 7 + [3]), (45, 3, [4] * 11 + [1]),
    ])
    def test_chunk_scoring_matches_the_per_replication_row(self, monkeypatch, replications, workers, chunks):
        # one erm_finite call per chunk, on that chunk's (2, size) counts; an inline pool keeps the counter
        # in this process
        cfg = finite_gap_config(n_grid=[64, 100, 257], replications=replications, gamma=2.0)
        expected = self._per_replication_achieved(cfg)
        calls = []
        original = harness.erm_finite

        def counting(losses, counts):
            calls.append(np.shape(counts)[1])
            return original(losses, counts)

        monkeypatch.setattr(harness, "erm_finite", counting)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", inline_pool([]))
        result = run_scenario(cfg, workers=workers)
        assert np.array_equal(result.achieved, expected)
        assert calls == chunks * len(cfg.n_grid)

    def test_erm_pick_invariant_under_monotone_loss_relabeling(self):
        # any order-preserving relabeling of the two empirical risks keeps
        # the argmin index distribution unchanged
        rng = np.random.default_rng(1)
        for _ in range(100):
            risks = rng.uniform(0, 1, size=2)
            relabeled = 0.2 + 0.5 * risks  # strictly increasing map
            assert np.argmin(risks) == np.argmin(relabeled)


class TestIsomorphy:
    def test_target_frequency_is_positive(self):
        # 1 - 4 exp(-x) is not positive for x <= log 4, a target that no run can miss
        for x in (1.0, math.log(4.0)):
            with pytest.raises(InvalidInputError, match="'x'"):
                iso_config(x=x)
        config = iso_config(x=math.nextafter(math.log(4.0), math.inf))
        assert harness._REGISTRY["Isomorphy"].target(config) > 0

    def test_deterministic_labels_full_frequency(self):
        res = run_scenario(iso_config(label_flip=0.5))
        assert res.satisfaction_frequency == 1.0

    def test_inflated_budget_full_frequency(self):
        res = run_scenario(iso_config(constants={"c0": 1e6}))
        assert res.satisfaction_frequency == 1.0

    def test_frequency_monotone_in_budget(self):
        res = run_scenario(iso_config())
        margins = res.achieved.ravel()
        rho = res.budget[0]
        freq = lambda budget: float(np.mean(margins <= budget))
        assert freq(rho / 4) <= freq(rho) <= freq(rho * 4)
        assert freq(margins.max() + 1.0) == 1.0

    def test_localization_draws_once_per_n(self, monkeypatch):
        # per n, the harness draws the class lambda_replications times and hands the localization one
        # (lambda_replications, d) deviation matrix; every other draw is a replication's row
        shapes, draws = [], []
        localize, risks = harness.expected_localized_sup, harness._isomorphy_risks

        def recording(means, deviations):
            shapes.append(np.shape(deviations))
            return localize(means, deviations)

        def counting(rngs, *args):
            # each generator consumed is one draw of the class
            rngs = list(rngs)
            draws.extend(rngs)
            return risks(rngs, *args)

        monkeypatch.setattr(harness, "expected_localized_sup", recording)
        monkeypatch.setattr(harness, "_isomorphy_risks", counting)
        run_scenario(iso_config(n_grid=[128, 256], replications=20, lambda_replications=50))
        assert shapes == [(50, 8)] * 2
        assert len(draws) == 2 * (50 + 20)

    def test_localization_draws_follow_the_one_stream_law(self):
        # draw i at n is default_rng(derive_seed(masterSeed, "isomorphy/lambda", n, i)), the law of every stream
        config = iso_config(n_grid=[128, 256], lambda_replications=60)
        res = run_scenario(config)
        true_risks, losses, p_plus = harness._isomorphy_model(config)
        for n in config.n_grid:
            rngs = (np.random.default_rng(derive_seed(config.master_seed, "isomorphy/lambda", n, i)) for i in range(60))
            devs = [np.abs(true_risks - harness._isomorphy_risks([rng], losses, p_plus, n)[0]) for rng in rngs]

            def phi(lam):
                # the mean exact localized sup over the draws, one draw at a time
                sups = [exact_localized_sup(true_risks, dev, lam) for dev in devs]
                return float(np.mean(sups))

            lam_star = fixed_point_lambda(phi, config.epsilon, bracket_hi=1.0, tol=1e-4)
            assert lam_star > 1e-4
            assert res.extras[n]["lambda_star"] == lam_star

    @pytest.mark.parametrize("seed", range(8))
    def test_histogram_draw_matches_the_expanded_draw(self, seed):
        # the draw as the (functions, n) loss matrix it replaced: same risks bit for bit, same stream use
        config = iso_config(cells=int(np.random.default_rng(seed).integers(2, 65)))
        _, losses, p_plus = harness._isomorphy_model(config)
        # a label +1 point has loss 1 exactly where the pattern is -1
        patterns = 1 - 2 * losses[:, : config.cells]
        for n in (1, 255, 256, 4096):
            old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            cells = old_rng.integers(0, p_plus.size, size=n)
            labels = np.where(old_rng.random(n) < p_plus[cells], 1.0, -1.0)
            expanded = ((patterns[:, cells] * labels) <= 0).mean(axis=1)
            assert np.array_equal(harness._isomorphy_risks([new_rng], losses, p_plus, n), [expanded])
            # the draw consumed numpy's words; numpy's buffered half at odd n is never read by a fresh generator
            # drawn once, and the draw drops it
            assert new_rng.bit_generator.state["state"] == old_rng.bit_generator.state["state"]

    def test_draw_reads_only_the_bit_generators(self):
        # Generator.integers and Generator.random are not called: stand-ins with nothing but a bit generator
        # score as the generators do
        config = iso_config(cells=17)
        _, losses, p_plus = harness._isomorphy_model(config)
        rngs = [np.random.default_rng(seed) for seed in range(40)]
        stand_ins = [SimpleNamespace(bit_generator=np.random.default_rng(seed).bit_generator) for seed in range(40)]
        for n in (255, 256):
            np.testing.assert_array_equal(harness._isomorphy_risks(stand_ins, losses, p_plus, n),
                                          harness._isomorphy_risks(rngs, losses, p_plus, n))

    @pytest.mark.parametrize("m", [0.05, 0.3, 0.5, 1.0])
    def test_indicator_psi1_is_the_psi_norm_of_a_binary_sample(self, m):
        # a sample of 4096 zeros and ones has the psi_1 norm of a {0, 1} variable with the sample's mean; 0.05 and
        # 0.3 of 4096 are not whole, so the sample has the nearest count of ones
        ones = round(m * 4096)
        sample = (np.arange(4096) < ones).astype(float)
        norm = harness.psi_alpha_norm(sample, alpha=1.0, tol=1e-12)
        assert harness._indicator_psi1(ones / 4096) == pytest.approx(norm, rel=0.0, abs=1e-9)

    def test_indicator_psi1_is_zero_at_mean_zero(self):
        assert harness._indicator_psi1(0.0) == 0.0

    @pytest.mark.parametrize("config", [config for config, _, _ in GOLDEN if config.scenario == "Isomorphy"])
    def test_envelope_norm_is_that_of_the_constant_one(self, config):
        # some function errs at one of the n points with probability 1 to the last bit
        res = run_scenario(config)
        assert [res.extras[n]["bn"] for n in config.n_grid] == [1.0 / math.log(2.0)] * len(config.n_grid)

    def test_context_draws_only_the_model_and_localization_streams(self, monkeypatch):
        # the psi_1 constants are closed forms, so the context has no stream of its own
        tags = []
        for name in ("derive_seed", "_generators"):
            def recording(seed, tag, *args, draw=getattr(harness, name)):
                tags.append(tag)
                return draw(seed, tag, *args)

            monkeypatch.setattr(harness, name, recording)
        harness._isomorphy_ctx(iso_config(cells=17, n_grid=[255]), 255)
        assert sorted(set(tags)) == ["isomorphy/lambda", "isomorphy/model"]

    def test_dictionary_without_risk_has_no_deviation_term(self):
        # at labelFlip 0.5 every label is fixed by its cell, and this seed draws one function that is right on
        # every cell: both psi_1 constants are 0 and the budget is lambda_star at every n
        config = iso_config(label_flip=0.5, cells=2, d=1, master_seed=8, n_grid=[16, 256, 1024], replications=20,
                            lambda_replications=20)
        assert np.all(harness._isomorphy_model(config)[0] == 0.0)
        res = run_scenario(config)
        for i, n in enumerate(config.n_grid):
            extras = res.extras[n]
            assert extras["bn"] == extras["big_bn"] == 0.0
            assert res.budget[i] == extras["lambda_star"]
        assert res.satisfaction_frequency == 1.0

    def test_report_shape(self):
        res = run_scenario(iso_config(n_grid=[256, 512, 1024, 2048], replications=20))
        assert res.target_frequency == pytest.approx(1 - 4 * math.exp(-2))
        assert np.all(res.oracle == 0.0)
        # the budget is stored once, in res.budget
        assert set(res.extras[256]) == {"lambda_star", "lambda_band", "lambda_at_floor", "bn", "big_bn"}
        # from n = 1024 on, lambda_star is fixed_point_lambda's lower end, its tolerance 1e-4, not a fixed point
        assert [res.extras[n]["lambda_at_floor"] for n in res.config.n_grid] == [False, False, True, True]
        assert all(entry["lambda_at_floor"] == (entry["lambda_star"] == 1e-4) for entry in res.extras.values())
        # the flag is reported in the extras only: neither CSV gains a column
        rows, summary = rows_csv_text(res), summary_csv_text(res)
        assert (rows.split("\n")[0], summary.split("\n")[0]) == (harness.ROWS_HEADER, harness.SUMMARY_HEADER)


class TestSquareLasso:
    @pytest.mark.parametrize("config", [lasso_config(constants={"c0": 1e-11, "c1": 3.0, "Kd": 1.5}),
                                        lasso_config(scenario="LqRerm", q=4.0, noise=NoiseSpec("Bounded", 0.5))],
                             ids=["SquareLasso", "LqRerm-q4"])
    def test_budget_is_the_rerm_residual_at_beta_star(self, config):
        # one budget builder: rerm_residual of the l1 ball at r = ||beta_star||_1, scaled by c1
        res = run_scenario(config)
        assert "budget" not in res.extras[config.n_grid[0]]
        kd, r = config.constant("Kd"), config.beta_star.l1_norm()
        for i, n in enumerate(config.n_grid):
            expected = rerm_residual(n, config.d, config.q, kd, config.epsilon, r, config.x, c0=config.constant("c1"))
            assert res.budget[i] == expected

    def test_noiseless_zero_signal(self):
        cfg = lasso_config(noise=NoiseSpec("Gaussian", 0.0), beta_star=BetaStarSpec(0, 0.0))
        res = run_scenario(cfg)
        assert np.all(np.abs(res.achieved) <= 1e-12)
        assert res.satisfied.all()

    def test_consistency_with_tiny_penalty(self):
        cfg = lasso_config(n_grid=[512], constants={"c0": 0.0, "c1": 1.0}, replications=4)
        res = run_scenario(cfg)
        sd2 = 0.25
        for s in res.summaries:
            assert s.mean_achieved == pytest.approx(sd2 * (1 + cfg.d / 512), rel=0.2)
            assert s.satisfaction_frequency == 1.0

    def test_exponential_noise_rejected(self):
        # exponential noise runs at q = 2; above it only Bounded noise has a closed-form risk
        with pytest.raises(InvalidInputError, match="'noise'"):
            run_scenario(lasso_config(scenario="LqRerm", q=4.0, noise=NoiseSpec("Exponential", 1.0)))

    def test_exponential_noise_meets_the_criterion_7_gates(self):
        # the paper's unbounded setting: the criterion-7 config with centered Exponential(2) noise
        config = ScenarioConfig(
            scenario="SquareLasso",
            n_grid=[2**k for k in range(8, 13)],
            d=50,
            epsilon=0.002,
            replications=200,
            master_seed=777,
            noise=NoiseSpec("Exponential", 2.0),
            beta_star=BetaStarSpec(3, 1.0),
            constants={"c0": 1e-11, "c1": 1.0, "Kd": 1.0},
        )
        result = run_scenario(config)
        assert result.fit_nonexact.slope <= -0.8
        assert result.fit_nonexact.r_squared >= 0.9
        assert result.satisfaction_frequency >= 0.9

    def test_q_must_be_two(self):
        with pytest.raises(InvalidInputError):
            run_scenario(lasso_config(q=3.0))

    @pytest.mark.parametrize(
        "noise, design_m2",
        [(NoiseSpec("Gaussian", 0.5), 1.0), (NoiseSpec("Bounded", 0.5), 1.0 / 3.0),
         (NoiseSpec("Exponential", 2.0), 1.0)],
        ids=["gaussian", "bounded", "exponential"],
    )
    def test_exact_risk_matches_monte_carlo(self, monkeypatch, noise, design_m2):
        cfg = lasso_config(noise=noise, n_grid=[64], replications=1)
        beta_hat = np.linspace(-0.5, 1.5, cfg.d)
        beta_star = cfg.beta_star.vector(cfg.d)
        monkeypatch.setattr(harness, "solve_lq_rerm", fixed_solution(beta_hat))
        achieved = run_scenario(cfg).achieved[0, 0]
        exact = design_m2 * float(np.sum((beta_hat - beta_star) ** 2)) + noise._moment(2)
        assert achieved == pytest.approx(exact, rel=1e-12)

        def generator(rng, size):
            design = harness._design_of(noise).draw(rng, (size, cfg.d))
            return design, design @ beta_star + noise.draw(rng, size)

        estimate = risk_estimate(lambda x: x @ beta_hat, generator, 2, 200_000, 5)
        assert abs(achieved - estimate.mean) <= 4.0 * estimate.stderr


class TestGaussianFactorSample:
    """Gaussian SquareLasso rows solve on the moments of the QR factor of their sample, not on its n rows."""

    @pytest.mark.parametrize("n", [40, 8, 5], ids=["n>d", "n=d", "n<d"])
    def test_factor_sample_has_the_raw_objective(self, n):
        d = 8
        rng = np.random.default_rng(11)
        x = rng.standard_normal((n, d))
        y = x @ rng.standard_normal(d) + rng.standard_normal(n)
        q, r = np.linalg.qr(x)
        # the QR factor with a positive diagonal, whose law the draw samples
        signs = np.sign(np.diag(r))
        q, r = q * signs, r * signs[:, None]
        qty = q.T @ y
        # the draw's generator calls, in order, answered with the pieces of x, y: R's upper triangle, its squared
        # diagonal, Q'y as the noise at beta_star = 0 and sd = 1, and the residual's squared norm
        answers = [r, np.diag(r) ** 2, qty, float(np.sum((y - q @ qty) ** 2))]
        replay = SimpleNamespace(standard_normal=lambda size: answers.pop(0), chisquare=lambda df: answers.pop(0))
        sample = harness._gaussian_factor_moments(replay, n, np.zeros(d), NoiseSpec("Gaussian", 1.0))
        # at n <= d there is no residual to draw
        assert len(answers) == (0 if n > d else 1)
        assert isinstance(sample, Moments) and sample.n == n
        raw, factor = _LqObjective(Sample(design=x, response=y), 2), _LqObjective(sample, 2)
        for beta in rng.standard_normal((5, d)):
            assert np.abs(factor.grad(beta) - raw.grad(beta)).max() <= 1e-10
            assert abs(factor.risk_exact(beta) - raw.risk_exact(beta)) <= 1e-10

    def test_mean_achieved_risk_matches_raw_draws(self):
        # per n, the factor draws' mean achieved risk lies within 4 combined stderr of that of
        # raw draws solved at the same penalty
        config = lasso_config(d=10, n_grid=[32, 256], replications=400)
        beta_star = config.beta_star.vector(config.d)
        result = run_scenario(config)
        for n, achieved in zip(config.n_grid, result.achieved):
            penalty_coef = harness._rerm_ctx(config, n)["penalty_coef"]
            raw = []
            for rep in range(config.replications):
                rng = np.random.default_rng(derive_seed(config.master_seed, "square-lasso/raw", n, rep))
                x = rng.standard_normal((n, config.d))
                sample = Sample(design=x, response=x @ beta_star + config.noise.draw(rng, n))
                delta = solve_lq_rerm(sample, 2, penalty_coef, tol=1e-6).beta - beta_star
                raw.append(float(delta @ delta) + config.noise._moment(2))
            raw = np.array(raw)
            combined = math.sqrt(achieved.var(ddof=1) / achieved.size + raw.var(ddof=1) / raw.size)
            assert abs(achieved.mean() - raw.mean()) <= 4.0 * combined, n

    def test_grid_at_and_below_d_certifies(self, monkeypatch):
        # n < d gives an n x d factor, and n = d has no residual, whose chi^2_0 draw would raise
        gaps = []
        solve = harness.solve_lq_rerm

        def recording(sample, *args, **kwargs):
            solution = solve(sample, *args, **kwargs)
            gaps.append((stack_size(sample), solution.optimality_gap))
            return solution

        monkeypatch.setattr(harness, "solve_lq_rerm", recording)
        result = run_scenario(lasso_config(n_grid=[4, 8, 16], d=8))
        # a stack's gap is the largest of its rows
        assert sum(rows for rows, _ in gaps) == result.achieved.size
        assert max(gap for _, gap in gaps) <= 1e-6
        assert np.isfinite(result.achieved).all()

    @pytest.mark.parametrize(
        "config, factor",
        [
            (lasso_config(), True),
            (lasso_config(scenario="LqRerm"), True),
            (lasso_config(noise=NoiseSpec("Exponential", 2.0)), False),
            (lasso_config(noise=NoiseSpec("Bounded", 0.5)), False),
            (lasso_config(scenario="LqRerm", q=4.0, noise=NoiseSpec("Bounded", 0.5)), False),
        ],
        ids=["gaussian", "lq-rerm-q2-gaussian", "exponential", "bounded", "lq-rerm-q4-bounded"],
    )
    def test_only_gaussian_square_loss_solves_on_the_factor(self, monkeypatch, config, factor):
        # every q = 2 stack is Moments with the true n, whether drawn as a factor or as raw rows; a q = 4 stack
        # holds n rows per sample
        stacks, draws, draw = [], [], harness._gaussian_factor_moments

        def recording(sample, *args, **kwargs):
            stacks.append(sample)
            return SimpleNamespace(beta=np.zeros((stack_size(sample), config.d)))

        def counting(rng, n, *args):
            draws.append(n)
            return draw(rng, n, *args)

        monkeypatch.setattr(harness, "solve_lq_rerm", recording)
        monkeypatch.setattr(harness, "_gaussian_factor_moments", counting)
        run_scenario(config)
        expected = [n for n in config.n_grid for _ in range(config.replications)]
        assert [sample.n for sample in stacks for _ in range(stack_size(sample))] == expected
        assert all(isinstance(sample, Moments) == (config.q == 2) for sample in stacks)
        assert all(sample.design.shape[1:] == (sample.n, config.d) for sample in stacks if config.q != 2)
        assert draws == (expected if factor else [])


class TestLqRerm:
    def test_q2_delegates_bit_for_bit(self):
        cfg_sq = lasso_config()
        cfg_lq = lasso_config(scenario="LqRerm")
        res_sq = run_scenario(cfg_sq)
        res_lq = run_scenario(cfg_lq)
        assert rows_csv_text(res_sq) == rows_csv_text(res_lq)
        assert summary_csv_text(res_sq) == summary_csv_text(res_lq)

    def test_noiseless_zero_signal(self):
        cfg = lasso_config(
            scenario="LqRerm",
            q=4.0,
            noise=NoiseSpec("Bounded", 0.0),
            beta_star=BetaStarSpec(0, 0.0),
            replications=3,
        )
        res = run_scenario(cfg)
        assert np.all(res.slack_nonexact <= 1e-12)

    def test_q4_bounded_noise_satisfaction(self):
        cfg = lasso_config(
            scenario="LqRerm",
            q=4.0,
            noise=NoiseSpec("Bounded", 0.5),
            beta_star=BetaStarSpec(2, 0.5),
            replications=10,
        )
        res = run_scenario(cfg)
        assert res.satisfaction_frequency >= 0.9

    def test_q3_bounded_rejected(self):
        # Bounded noise has an exact risk at q = 2 and q = 4 only
        with pytest.raises(InvalidInputError, match="field 'q' must be 2 or 4 with Bounded noise"):
            lasso_config(scenario="LqRerm", q=3.0, noise=NoiseSpec("Bounded", 0.5))

    @pytest.mark.parametrize(
        "noise, q",
        [(NoiseSpec("Gaussian", 0.5), 2.0), (NoiseSpec("Gaussian", 0.5), 3.0), (NoiseSpec("Gaussian", 0.5), 4.0),
         (NoiseSpec("Gaussian", 0.5), 6.5), (NoiseSpec("Bounded", 0.5), 2.0), (NoiseSpec("Bounded", 0.5), 4.0),
         (NoiseSpec("Exponential", 2.0), 2.0)],
        ids=["gaussian-q2", "gaussian-q3", "gaussian-q4", "gaussian-q6.5", "bounded-q2", "bounded-q4",
             "exponential-q2"],
    )
    def test_every_allowed_noise_and_q_runs(self, noise, q):
        # the exact risk grows with ||beta - beta_star|| for every allowed pair, so no exact slack is negative
        res = run_scenario(lasso_config(scenario="LqRerm", q=q, noise=noise))
        assert res.achieved.shape == (2, 6)
        assert np.all(res.slack_exact >= 0.0)

    def test_q4_exact_risk_matches_monte_carlo(self, monkeypatch):
        noise = NoiseSpec("Bounded", 0.5)
        cfg = lasso_config(scenario="LqRerm", q=4.0, noise=noise, n_grid=[64], replications=1)
        beta_star = cfg.beta_star.vector(cfg.d)
        # a delta of the noise's scale, heaviest on one coordinate: each of the four terms of the
        # exact risk then moves it by more than 4 stderr of the estimate below
        beta_hat = beta_star + np.array([0.6, 0.3, -0.2, 0.1, 0.0, 0.0, 0.0, 0.0])
        monkeypatch.setattr(harness, "solve_lq_rerm", fixed_solution(beta_hat))
        achieved = run_scenario(cfg).achieved[0, 0]

        def generator(rng, size):
            design = harness._design_of(noise).draw(rng, (size, cfg.d))
            return design, design @ beta_star + noise.draw(rng, size)

        estimate = risk_estimate(lambda x: x @ beta_hat, generator, 4, 200_000, 5)
        assert abs(achieved - estimate.mean) <= 4.0 * estimate.stderr

    def test_q4_exact_slack_is_zero_at_beta_star(self, monkeypatch):
        noise = NoiseSpec("Bounded", 0.5)
        cfg = lasso_config(scenario="LqRerm", q=4.0, noise=noise, replications=2)
        beta_star = cfg.beta_star.vector(cfg.d)
        monkeypatch.setattr(harness, "solve_lq_rerm", fixed_solution(beta_star))
        res = run_scenario(cfg)
        # E xi^4 = range^4 / 5 for xi uniform on [-range, range]
        assert np.all(res.achieved == 0.5**4 / 5)
        assert np.all(res.oracle == 0.5**4 / 5)
        assert np.all(res.slack_exact == 0.0)

    def test_q4_non_finite_exact_risk_rejected(self, monkeypatch):
        beta_hat = np.full(8, 1e100)
        monkeypatch.setattr(harness, "solve_lq_rerm", fixed_solution(beta_hat))
        cfg = lasso_config(scenario="LqRerm", q=4.0, noise=NoiseSpec("Bounded", 0.5), replications=1)
        # a runtime fault of the run, not a malformed input
        with pytest.raises(RuntimeError, match="not finite at n=128, replication 0"):
            run_scenario(cfg)

    def test_q3_gaussian_exact_risk_matches_monte_carlo(self, monkeypatch):
        noise = NoiseSpec("Gaussian", 0.5)
        cfg = lasso_config(scenario="LqRerm", q=3.0, noise=noise, n_grid=[64], replications=1)
        beta_star = cfg.beta_star.vector(cfg.d)
        beta_hat = beta_star + np.array([0.6, 0.3, -0.2, 0.1, 0.0, 0.0, 0.0, 0.0])
        monkeypatch.setattr(harness, "solve_lq_rerm", fixed_solution(beta_hat))
        achieved = run_scenario(cfg).achieved[0, 0]

        def generator(rng, size):
            design = harness._design_of(noise).draw(rng, (size, cfg.d))
            return design, design @ beta_star + noise.draw(rng, size)

        estimate = risk_estimate(lambda x: x @ beta_hat, generator, 3, 200_000, 5)
        assert abs(achieved - estimate.mean) <= 4.0 * estimate.stderr

    def test_q3_gaussian_exact_slack_is_zero_at_beta_star(self, monkeypatch):
        cfg = lasso_config(scenario="LqRerm", q=3.0, noise=NoiseSpec("Gaussian", 0.3), replications=2)
        monkeypatch.setattr(harness, "solve_lq_rerm", fixed_solution(cfg.beta_star.vector(cfg.d)))
        res = run_scenario(cfg)
        # E |N(0, 0.09)|^3 = 2^(3/2) Gamma(2) / sqrt(pi) * 0.027
        assert res.oracle == pytest.approx([math.sqrt(8.0 / math.pi) * 0.027] * 2, rel=1e-14)
        assert np.all(res.achieved == res.oracle[:, None])
        assert np.all(res.slack_exact == 0.0)

    def test_q3_gaussian_exact_slack_decays_like_1_over_n(self):
        # a gate fixed before its first run: the exact slack of the L_3 estimator is a 1/n control, whose
        # n * mean tends to the delta-method limit (q/2) d c_q c_{2q-2} sd^q / ((q - 1)^2 c_{q-2}^2), with
        # c_p = E |N(0, 1)|^p; every per-n value must lie within a factor of 2 of that limit
        q, sd = 3.0, 0.5
        cfg = ScenarioConfig(scenario="LqRerm", n_grid=[256, 512, 1024, 2048], d=10, q=q, epsilon=0.002, x=1.0,
                             replications=30, master_seed=31, noise=NoiseSpec("Gaussian", sd),
                             beta_star=BetaStarSpec(3, 1.0), constants={"c0": 1e-11, "c1": 1.0, "Kd": 1.0})
        res = run_scenario(cfg)
        assert res.fit_exact.slope <= -0.8
        assert res.fit_exact.r_squared >= 0.9
        c = [harness._gaussian_abs_moment(p, 1.0) for p in (q, 2 * q - 2, q - 2)]
        limit = (q / 2) * cfg.d * c[0] * c[1] * sd**q / ((q - 1) ** 2 * c[2] ** 2)
        assert limit == pytest.approx(3.53, abs=0.01)
        for s in res.summaries:
            assert limit / 2 <= s.n * s.mean_slack_exact <= 2 * limit, s.n


@pytest.mark.parametrize(
    "config",
    [lasso_config(), lasso_config(noise=NoiseSpec("Bounded", 0.5)),
     lasso_config(noise=NoiseSpec("Exponential", 2.0), n_grid=[4096], replications=20),
     lasso_config(scenario="LqRerm", q=4.0, noise=NoiseSpec("Bounded", 0.5))],
    ids=["SquareLasso-gaussian-factor", "SquareLasso-bounded-raw-rows", "SquareLasso-exponential-n4096", "LqRerm-q4"],
)
def test_regression_rows_do_not_depend_on_the_stacks(monkeypatch, config):
    # a chunk solved a stack at a time gives the risks of its replications solved one at a time, bit for bit,
    # whether the chunk fits in one stack or splits into several. At q = 2 a sample takes 8 d^2 bytes whatever
    # its n, so n = 4096 raw rows stack too
    n, tag = config.n_grid[-1], harness._REGISTRY[config.scenario].tag
    ctx = harness._rerm_ctx(config, n)
    reps = range(config.replications)

    def rows(part):
        return harness._rerm_rows(config, ctx, n, part, harness._generators(config.master_seed, tag, n, part))

    alone = np.concatenate([rows(range(rep, rep + 1)) for rep in reps])
    stacks, splits, solve = [], [], harness.solve_lq_rerm

    def recording(sample, *args, **kwargs):
        stacks.append(stack_size(sample))
        return solve(sample, *args, **kwargs)

    monkeypatch.setattr(harness, "solve_lq_rerm", recording)
    for stack_bytes in (harness._STACK_BYTES, 2**10, 2**12, 2**16):
        monkeypatch.setattr(harness, "_STACK_BYTES", stack_bytes)
        stacks.clear()
        assert rows(reps).tobytes() == alone.tobytes(), stack_bytes
        splits.append(tuple(stacks))
    assert (config.replications,) in splits
    assert any(len(split) > 1 and max(split) > 1 for split in splits)


@pytest.mark.parametrize("n, cells", [(1, 64), (255, 512), (4096, 16)])
def test_isomorphy_rows_do_not_depend_on_the_blocks(monkeypatch, n, cells):
    # a chunk drawn and scored a block at a time gives the margins of its replications drawn one generator at a
    # time, bit for bit, whether a block holds one draw, several, or the whole chunk
    config = iso_config(cells=cells, replications=24)
    true_risks, losses, p_plus = harness._isomorphy_model(config)
    ctx = {"true_risks": true_risks, "losses": losses, "p_plus": p_plus}
    reps = range(config.replications)

    def rows(part):
        rngs = harness._generators(config.master_seed, "isomorphy", n, part)
        return harness._isomorphy_rows(config, ctx, n, part, rngs)

    alone = np.concatenate([rows(range(rep, rep + 1)) for rep in reps])
    blocks, splits, score = [], [], harness.histogram_risks

    def recording(table, counts):
        blocks.append(np.shape(counts)[1])
        return score(table, counts)

    monkeypatch.setattr(harness, "histogram_risks", recording)
    for stack_bytes in (harness._STACK_BYTES, 2**12, 2**20):
        monkeypatch.setattr(harness, "_STACK_BYTES", stack_bytes)
        blocks.clear()
        assert rows(reps).tobytes() == alone.tobytes(), stack_bytes
        splits.append(tuple(blocks))
    assert all(sum(split) == config.replications for split in splits)
    assert splits[1] == (1,) * config.replications
    assert any(max(split) > 1 for split in splits)


@pytest.mark.parametrize("kind", sorted(harness._LAWS))
def test_law_table_moments(kind):
    # each row at a non-unit parameter: its draws have mean 0, the row's E xi^2 and, where the row has one, its E xi^4
    law, param = harness._LAWS[kind], 0.7
    x = law.draw(np.random.default_rng(3), 200_000, param)
    assert x.shape == (200_000,)
    moments = [(1, 0.0), (2, law.moment(2, param)), (4, law.moment(4, param))]
    assert not math.isnan(moments[1][1])
    for power, moment in moments:
        if math.isnan(moment):
            continue
        values = x**power
        assert abs(values.mean() - moment) <= 4.0 * values.std(ddof=1) / math.sqrt(values.size), power


@pytest.mark.parametrize("noise, design", [
    (NoiseSpec("Gaussian", 0.5), NoiseSpec("Gaussian", 1.0)),
    (NoiseSpec("Bounded", 3.0), NoiseSpec("Bounded", 1.0)),
    (NoiseSpec("Exponential", 2.0), NoiseSpec("Gaussian", 1.0)),
], ids=["Gaussian", "Bounded", "Exponential"])
def test_design_is_the_unit_law_of_a_kind(noise, design):
    # a design coordinate is N(0, 1) (Gaussian, sd 1), or U[-1, 1] (Bounded, range 1) with Bounded noise, and the
    # moments the exact risks read come out exactly
    assert harness._design_of(noise) == design
    m2, m4 = (1.0 / 3.0, 1.0 / 5.0) if design.kind == "Bounded" else (1.0, None)
    assert design._moment(2) == m2
    assert m4 is None or design._moment(4) == m4


class TestRunScenarioAndCsv:
    def test_dispatch(self):
        res = run_scenario(finite_gap_config())
        assert res.config.scenario == "FiniteGap"

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
        assert float(first[3]) == res.achieved[0, 0]

    def test_determinism_of_whole_run(self):
        cfg = finite_gap_config()
        assert rows_csv_text(run_scenario(cfg)) == rows_csv_text(run_scenario(cfg))

    @pytest.mark.parametrize(
        "config",
        [config for config, _, _ in GOLDEN] + [finite_gap_config(replications=1)],
        ids=["FiniteGap", "Isomorphy", "Isomorphy-odd", "SquareLasso", "SquareLasso-Exponential",
             "SquareLasso-Bounded", "LqRerm", "FiniteGap-one-replication"],
    )
    def test_written_files_are_the_texts(self, config, tmp_path):
        # the writers stream what the texts hold, so the pinned hashes pin the files too
        result = run_scenario(config)
        harness.write_rows_csv(result, tmp_path / "rows.csv")
        harness.write_summary_csv(result, tmp_path / "summary.csv")
        assert (tmp_path / "rows.csv").read_bytes() == rows_csv_text(result).encode()
        assert (tmp_path / "summary.csv").read_bytes() == summary_csv_text(result).encode()

    def test_rows_writer_holds_one_n_at_a_time(self, tmp_path):
        # writing the whole text at once peaked at 3.6 times its length here; one n's lines are about an eighth of it
        result = run_scenario(finite_gap_config(n_grid=[8, 16, 32, 64, 128, 256, 512, 1024], replications=2000))
        length = len(rows_csv_text(result))
        tracemalloc.start()
        try:
            harness.write_rows_csv(result, tmp_path / "rows.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < length

    def test_rows_writer_memory_does_not_grow_with_replications(self, tmp_path):
        # the writer holds a piece of at most _CSV_LINES lines: about 164 kB here, where one n's lines are 1.7 MB and
        # holding them whole peaked at 5.8 MB
        result = run_scenario(finite_gap_config(n_grid=[64, 128], replications=20000))
        one_n = min(sum(len(line) for line in rows_csv_text(result).splitlines(keepends=True)[1:]
                        if line.split(",")[1] == str(n)) for n in (64, 128))
        tracemalloc.start()
        try:
            harness.write_rows_csv(result, tmp_path / "rows.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < one_n / 8

    @pytest.mark.parametrize("rows", [lambda risks: risks[:-1], lambda risks: risks[:1]], ids=["short", "single"])
    def test_chunk_of_the_wrong_length_raises(self, rows, monkeypatch):
        # a chunk must fill its replications exactly; a single value must not broadcast over them
        spec = harness._REGISTRY["FiniteGap"]
        monkeypatch.setitem(harness._REGISTRY, "FiniteGap",
                            spec._replace(rows=lambda *args: rows(spec.rows(*args))))
        with pytest.raises(ValueError):
            run_scenario(finite_gap_config(n_grid=[64, 128], replications=3), workers=1)

    def test_summary_contains_fits(self):
        res = run_scenario(finite_gap_config(n_grid=[64, 128, 256, 512], replications=60))
        text = summary_csv_text(res)
        assert text.startswith("scenario,n,replications,")
        assert len(text.strip().split("\n")) == 5

    @pytest.mark.parametrize(
        "config, keys",
        [(finite_gap_config(), ("delta",)),
         (iso_config(n_grid=[128, 256, 512], replications=20, lambda_replications=20),
          ("lambda_star", "lambda_band", "lambda_at_floor", "bn", "big_bn")),
         (lasso_config(n_grid=[64, 128, 256]), ("penalty_coef",)),
         (lasso_config(scenario="LqRerm", q=4.0, n_grid=[64, 128, 256], noise=NoiseSpec("Bounded", 0.5)),
          ("penalty_coef",))],
        ids=["FiniteGap", "Isomorphy", "SquareLasso", "LqRerm"],
    )
    def test_extras_hold_the_registry_keys_per_n(self, config, keys):
        # one entry per n of the scenario's registry keys, each a finite float or, for a flag, a bool; a scenario
        # fits rates exactly when it has no target frequency
        res = run_scenario(config)
        assert keys == harness._REGISTRY[config.scenario].extras
        assert list(res.extras) == list(config.n_grid)
        for entry in res.extras.values():
            assert tuple(entry) == keys
            assert all(type(value) is bool or isinstance(value, float) and math.isfinite(value)
                       for value in entry.values())
        fits = res.target_frequency is None
        assert (res.fit_exact is not None) == fits and (res.fit_nonexact is not None) == fits


    @staticmethod
    def _record_of(text, config):
        """The record that a rows.csv text holds: the achieved risks by n and replication, and the oracle risk and
        budget of each n, read from its first row."""
        rows = list(csv.DictReader(io.StringIO(text)))
        shape = len(config.n_grid), config.replications
        achieved = np.array([float(row["achievedRisk"]) for row in rows]).reshape(shape)
        firsts = rows[::config.replications]
        return achieved, *(np.array([float(row[key]) for row in firsts]) for key in ("oracleRisk", "budget"))

    @pytest.mark.parametrize("config", [config for config, _, _ in GOLDEN],
                             ids=["FiniteGap", "Isomorphy", "Isomorphy-odd", "SquareLasso", "SquareLasso-Exponential",
                                  "SquareLasso-Bounded", "LqRerm"])
    def test_rows_csv_and_the_config_rebuild_the_result(self, config):
        # rows.csv is a complete record: the result built from it writes the run's two files byte for byte
        result = run_scenario(config)
        rows = rows_csv_text(result)
        rebuilt = ScenarioResult(result.config, *self._record_of(rows, result.config))
        assert rows_csv_text(rebuilt) == rows
        assert summary_csv_text(rebuilt) == summary_csv_text(result)

    def test_record_of_the_wrong_shape_names_the_array(self):
        config = finite_gap_config(n_grid=[64, 128], replications=3)
        res = run_scenario(config)
        with pytest.raises(InvalidInputError, match=r"^achieved must have shape \(2, 3\), got \(2, 2\)$"):
            ScenarioResult(config, res.achieved[:, :-1], res.oracle, res.budget)
        # a single oracle risk would otherwise broadcast over every n
        with pytest.raises(InvalidInputError, match=r"^oracle must have shape \(2,\), got \(1,\)$"):
            ScenarioResult(config, res.achieved, res.oracle[:1], res.budget)

    @pytest.mark.parametrize("replications", [3, 4])
    def test_float32_record_is_taken_as_float64(self, replications):
        # rows are keyed by the bits of a float64 risk; a float32 row viewed so paired two risks into one key, which
        # wrote half the rows at 4 replications and raised at 3
        config = finite_gap_config(n_grid=[64, 128], replications=replications, epsilon=0.1)
        achieved = np.array([[0.5, 0.25, 0.5, 0.75], [0.5, 0.5, 0.25, 0.25]])[:, :replications]
        expected = rows_csv_text(ScenarioResult(config, achieved, np.full(2, 0.25), np.ones(2)))
        result = ScenarioResult(config, achieved.astype(np.float32), np.full(2, 0.25, np.float32), [1, 1])
        assert result.achieved.dtype == result.oracle.dtype == result.budget.dtype == np.float64
        assert rows_csv_text(result) == expected

    def test_non_numeric_record_names_the_array(self):
        config = finite_gap_config(n_grid=[64, 128], replications=2)
        with pytest.raises(InvalidInputError, match=r"^achieved must be an array of numbers$"):
            ScenarioResult(config, [["a", "b"], ["c", "d"]], np.zeros(2), np.ones(2))
        with pytest.raises(InvalidInputError, match=r"^budget must be an array of numbers$"):
            ScenarioResult(config, np.zeros((2, 2)), np.zeros(2), [{}, {}])

    def test_result_memory_does_not_grow_with_replications(self):
        # the result derives each n's slacks one n at a time and keeps none of them; holding both slacks and the flag
        # for every replication peaks at 3.8 MB here and keeps 2.6 MB, against a 1.3 MB record
        config = finite_gap_config(n_grid=[8, 16, 32, 64, 128, 256, 512, 1024], replications=20000)
        # each replication picks one of FiniteGap's two functions, whose risks are the oracle and the oracle plus a gap
        oracle, gap = np.full(8, 0.25), 0.5 / np.sqrt(config.n_grid)
        achieved = oracle[:, None] + np.random.default_rng(0).integers(0, 2, (8, 20000)) * gap[:, None]
        tracemalloc.start()
        try:
            result = ScenarioResult(config, achieved, oracle, np.full(8, 0.01))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < achieved.nbytes
        assert kept < achieved[0].nbytes
        assert 0 < result.satisfaction_frequency < 1

    def test_rows_csv_keeps_the_sign_of_a_zero_risk(self):
        # a distinct row is formatted once, keyed by the bits of its achieved risk; a key by value would write a
        # -0.0 replication as the 0.0 one before it
        config = finite_gap_config(n_grid=[64, 128], replications=3, epsilon=0.1)
        result = ScenarioResult(config, np.array([[0.0, -0.0, 0.0], [0.5, 0.5, -0.0]]), np.zeros(2), np.ones(2))
        rows = csv.DictReader(io.StringIO(rows_csv_text(result)))
        columns = ("achievedRisk", "slackExact", "slackNonexact")
        assert [[row[key] for key in columns] for row in rows] == [
            ["0"] * 3, ["-0"] * 3, ["0"] * 3, ["0.5"] * 3, ["0.5"] * 3, ["-0"] * 3]

    @staticmethod
    def _floored_record(means):
        """A FiniteGap result at nGrid [64, 128, 256, 512], 2 replications, epsilon 0.1, oracle 0.4 and budget 1,
        whose per-n mean nonexact slacks are ``means``, and its summary.csv rows."""
        config = finite_gap_config(n_grid=[64, 128, 256, 512], replications=2, epsilon=0.1)
        oracle = np.full(4, 0.4)
        achieved = (1.0 + 3.0 * config.epsilon) * 0.4 + np.array(means)[:, None] + [[-0.001, 0.001]]
        result = ScenarioResult(config, achieved, oracle, np.ones(4))
        return result, list(csv.DictReader(io.StringIO(summary_csv_text(result))))

    def test_nonpositive_mean_nonexact_slack_is_floored_and_left_out_of_the_fit(self):
        result, rows = self._floored_record([0.04, -0.2, 0.01, 0.005])
        floored = rows[1]
        assert (floored["n"], floored["meanSlackNonexact"], floored["flooredNonexact"]) == (
            "128", "9.9999999999999998e-13", "true")
        assert [row["flooredNonexact"] for row in rows] == ["false", "true", "false", "false"]
        assert [row["flooredCount"] for row in rows] == ["1"] * 4
        means = result.slack_nonexact.mean(axis=1)
        assert means[1] < 0
        positive = [(n, mean) for n, mean in zip(result.config.n_grid, means) if mean > 0]
        assert len(positive) == 3
        assert result.fit_nonexact == rate_fit(positive)
        assert result.fit_nonexact.slope == pytest.approx(-1.0, abs=1e-9)
        assert rows[0]["slopeNonexact"] == f"{result.fit_nonexact.slope:.17g}"

    def test_two_positive_mean_nonexact_slacks_fit_nothing(self):
        result, rows = self._floored_record([0.04, -0.2, 0.01, -0.1])
        assert result.fit_nonexact is None
        assert result.floored_count == 2
        for row in rows:
            assert row["flooredCount"] == "2"
            assert (row["slopeNonexact"], row["interceptNonexact"], row["r2Nonexact"]) == ("", "", "")


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
        assert cfg.noise == NoiseSpec("Bounded", 0.5)
        assert cfg.beta_star == BetaStarSpec(1, 2.0)
        assert cfg.constant("c0") == 0.5

    @pytest.mark.parametrize("spec, support, magnitude", [
        ({"magnitude": 2.0}, 3, 2.0), ({"support": 1}, 1, 1.0), ({}, 3, 1.0),
    ], ids=["magnitude-only", "support-only", "empty"])
    def test_partial_beta_star_keeps_the_default_of_the_missing_key(self, spec, support, magnitude):
        # a key left out of betaStar takes the default a left-out betaStar has, never 0
        cfg = config_from_mapping({"scenario": "SquareLasso", "nGrid": [16], "betaStar": spec})
        assert ScenarioConfig("SquareLasso", (16,)).beta_star == BetaStarSpec(3, 1.0)
        assert cfg.beta_star == BetaStarSpec(support, magnitude)

    def test_bad_noise_named(self):
        with pytest.raises(InvalidInputError, match="noise"):
            config_from_mapping({"scenario": "SquareLasso", "nGrid": [4], "noise": {"kind": "Laplace", "sd": 1}})

    @pytest.mark.parametrize("mapping, name", [
        ([{"scenario": "FiniteGap", "nGrid": [4]}], "configuration root"),
        ({"scenario": "SquareLasso", "nGrid": [4], "betaStar": {"support": 1, "sign": 1}}, "betaStar"),
        ({"scenario": "FiniteGap", "nGrid": [4], "constants": 5}, "'constants'"),
    ], ids=["root-list", "betaStar-extra-key", "constants-5"])
    def test_malformed_mapping_rejected_naming_the_field(self, mapping, name):
        with pytest.raises(InvalidInputError, match=re.escape(name)):
            config_from_mapping(mapping)

    def test_grid_must_increase(self):
        with pytest.raises(InvalidInputError, match="nGrid"):
            config_from_mapping({"scenario": "FiniteGap", "nGrid": [10, 10]})

    def test_noise_validation(self):
        with pytest.raises(InvalidInputError):
            NoiseSpec("Gaussian", -1.0)
        assert NoiseSpec("Gaussian", 2.0)._moment(2) == 4.0
        assert NoiseSpec("Bounded", 1.0)._moment(4) == pytest.approx(0.2)
        # c_q is past the floats at q = 400, but the moment at sd = 0 is 0
        assert NoiseSpec("Gaussian", 0.0)._moment(400) == 0.0

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
        cfg = config_from_mapping({"scenario": "SquareLasso", "nGrid": [4.0, 8], "d": 3.0})
        assert cfg.n_grid == (4, 8) and cfg.d == 3

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mapping=_config_mappings())
    def test_fuzzed_mapping_gives_config_or_invalid_input(self, mapping):
        # any other exception would exit 3; a rejection names the field at fault, a schema key or the unknown key
        try:
            config = config_from_mapping(mapping)
        except InvalidInputError as exc:
            names = "|".join(re.escape(key) for key in [*(key for key, *_ in harness._FIELDS), "bogus"])
            assert re.search(rf"\b({names})\b", str(exc)), str(exc)
            return
        assert isinstance(config, ScenarioConfig)

    def test_beta_star_vector(self):
        spec = BetaStarSpec(2, 1.5)
        assert np.array_equal(spec.vector(4), [1.5, 1.5, 0.0, 0.0])
        assert spec.l1_norm() == 3.0
        with pytest.raises(InvalidInputError):
            spec.vector(1)


@pytest.mark.parametrize("config", [finite_gap_config(), iso_config(lambda_replications=20)],
                         ids=["FiniteGap", "Isomorphy"])
def test_finite_dictionary_contexts_hold_no_array_that_grows_with_n(config):
    # a context is pickled into every pool payload, so it holds per-point tables, never (M, n) matrices
    def array_sizes(value):
        if isinstance(value, np.ndarray):
            return [value.size]
        if isinstance(value, dict):
            return [size for item in value.values() for size in array_sizes(item)]
        if dataclasses.is_dataclass(value):
            return [size for f in dataclasses.fields(value) for size in array_sizes(getattr(value, f.name))]
        return []

    config = dataclasses.replace(config, n_grid=(64, 4096))
    small, large = (array_sizes(harness._REGISTRY[config.scenario].context(config, n)) for n in config.n_grid)
    assert small and small == large


@pytest.mark.parametrize("config", [finite_gap_config(), iso_config(cells=16), iso_config(cells=5)],
                         ids=["FiniteGap", "Isomorphy-16-cells", "Isomorphy-5-cells"])
def test_loss_tables_cost_1_exactly_where_the_sign_differs_from_the_label(config):
    # point i < cells is cell i with label +1, point cells + i is cell i with label -1; FiniteGap has one cell
    # and the constant predictors +1 and -1, Isomorphy the sign patterns drawn from its model stream
    if config.scenario == "FiniteGap":
        patterns = np.array([[1.0], [-1.0]])
    else:
        rng = np.random.default_rng(derive_seed(config.master_seed, "isomorphy/model", 0, 0))
        patterns = rng.choice([-1.0, 1.0], size=(config.d, config.cells))
    functions, cells = patterns.shape
    expected = np.empty((functions, 2 * cells))
    for j in range(functions):
        for cell in range(cells):
            for point, label in ((cell, 1.0), (cells + cell, -1.0)):
                expected[j, point] = 1.0 if np.sign(patterns[j, cell]) != label else 0.0
    losses = harness._REGISTRY[config.scenario].context(config, config.n_grid[0])["losses"]
    assert losses.dtype == float and np.array_equal(losses, expected)


def readme_text():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_config_table():
    table = readme_text().split("| key | default | constraint | read by |\n|---|---|---|---|\n", 1)[1]
    return table.split("\n\n", 1)[0]


def test_readme_config_table_lists_the_schema_fields_in_order():
    keys = [line.split("`", 2)[1] for line in readme_config_table().splitlines()]
    assert keys == [key for key, *_ in harness._FIELDS]


def test_readme_read_by_column_is_the_schema_read_sets():
    read_by = {line.split("`", 2)[1]: line.rstrip(" |").rsplit(" | ", 1)[1].split(", ")
               for line in readme_config_table().splitlines()}
    assert read_by == {row.key: list(row.readers) for row in harness._FIELDS}


def test_readme_example_configuration_is_accepted():
    example = readme_text().split("Example configuration:\n\n```json\n", 1)[1].split("```", 1)[0]
    config = config_from_mapping(json.loads(example))
    assert config.scenario == "SquareLasso" and config.n_grid == (256, 512, 1024, 2048, 4096)


@pytest.mark.parametrize("build, name", [
    (lambda: finite_gap_config(constants={"c1": 1.0}), "constants.c1"),
    (lambda: iso_config(constants={"c0": 2.0, "Kd": 1.0}), "constants.Kd"),
    (lambda: config_from_mapping({"scenario": "FiniteGap", "nGrid": [4], "constants": {"c1": 1.0}}), "constants.c1"),
], ids=["FiniteGap-c1", "Isomorphy-Kd", "FiniteGap-c1-mapping"])
def test_constant_the_scenario_does_not_read_is_rejected_on_both_paths(build, name):
    with pytest.raises(InvalidInputError, match=rf"^field '{re.escape(name)}' is not read by "):
        build()


def test_python_config_keeps_the_defaults_of_fields_its_scenario_does_not_read():
    # a set value and a default cannot be told apart on a built config, so only the mapping path rejects a key
    assert finite_gap_config(d=3, cells=4).d == 3
    with pytest.raises(InvalidInputError, match="field 'd' is not read by FiniteGap"):
        config_from_mapping({"scenario": "FiniteGap", "nGrid": [4], "d": 3})


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
