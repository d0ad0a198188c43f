"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with ``pytest -s`` to see
them live). The stochastic criteria (5, 6, 7) fix the master seed, so their
outcomes are reproducible runs of the Monte Carlo scenarios, not flaky
estimates.
"""

import json
import math
import time

import numpy as np

from oraclebench import (
    BetaStarSpec,
    NoiseSpec,
    Sample,
    ScenarioConfig,
    bernstein_verify,
    expected_localized_sup,
    fixed_point_lambda,
    project_l1_ball,
    psi_alpha_norm,
    run_scenario,
    solve_lasso,
    solve_square_lasso,
)
from oraclebench.cli import main as cli_main

from test_solvers import sort_threshold_projection


def report(number, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_psi1_closed_form():
    start = time.perf_counter()
    est = psi_alpha_norm(np.ones(32), 1.0, tol=1e-8)
    closed_form = 1.0 / math.log(2.0)
    ok_value = abs(est - closed_form) <= 1e-6
    scaled = psi_alpha_norm(3.0 * np.ones(32), 1.0, tol=1e-8)
    ok_scale = abs(scaled - 3.0 * est) <= 2e-6
    elapsed = time.perf_counter() - start
    report(
        1,
        "psi_1 norm closed form and 3x homogeneity",
        ok_value and ok_scale and elapsed < 1.0,
        f"value={est:.9f} target={closed_form:.9f} scale_gap={abs(scaled - 3 * est):.2e} "
        f"time={elapsed:.2f}s",
    )


def test_criterion_2_localization_grid_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 21))
        means = rng.uniform(0, 2, size=m)
        devs = rng.uniform(0, 1, size=m)
        level = rng.uniform(0, 2.5)
        # the map Isomorphy bisects, at one draw
        exact = expected_localized_sup(means, devs[None])(level).mean
        # brute force: 10^4-point grid over each member's feasible scaling interval
        brute = 0.0
        for mean, dev in zip(means, devs):
            top = 1.0 if mean == 0 else min(1.0, level / mean)
            thetas = np.linspace(0.0, top, 10**4)
            brute = max(brute, float((thetas * dev).max()))
        worst = max(worst, abs(exact - brute))
    elapsed = time.perf_counter() - start
    report(
        2,
        "localized star-hull supremum matches theta-grid brute force",
        worst <= 1e-10 and elapsed < 10.0,
        f"worst_gap={worst:.2e} time={elapsed:.2f}s",
    )


def test_criterion_3_fixed_point_algebra():
    sqrt_case = fixed_point_lambda(lambda lam: math.sqrt(lam), 0.4, 200.0, tol=1e-8)
    const_case = fixed_point_lambda(lambda lam: 1.0, 0.4, 200.0, tol=1e-8)
    ok = abs(sqrt_case - 100.0) <= 1e-6 and abs(const_case - 10.0) <= 1e-6
    report(
        3,
        "fixed-point levels for sqrt and constant expected suprema",
        ok,
        f"sqrt={sqrt_case:.9f} const={const_case:.9f}",
    )


def test_criterion_4_solver_grid_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    tol = 1e-8
    grid = np.linspace(-3.0, 3.0, 400)
    b1, b2 = np.meshgrid(grid, grid)
    betas = np.stack([b1.ravel(), b2.ravel()], axis=1)
    worst_sq = worst_l1 = 0.0
    for _ in range(50):
        n = 20
        design = rng.standard_normal((n, 2))
        response = design @ rng.uniform(-1, 1, 2) + 0.3 * rng.standard_normal(n)
        sample = Sample(design=design, response=response)
        risks = np.mean(
            (response[None, :] - betas @ design.T) ** 2, axis=1
        )

        kappa = rng.uniform(0, 4)
        objective = risks + (kappa / n) * np.abs(betas).sum(axis=1) ** 2
        resolution = _grid_resolution(objective)
        sol = solve_square_lasso(sample, kappa, tol=tol)
        worst_sq = max(worst_sq, abs(sol.objective - objective.min()) - resolution)

        lam = rng.uniform(0.01, 0.5)
        objective = risks + lam * np.abs(betas).sum(axis=1)
        resolution = _grid_resolution(objective)
        beta = solve_lasso(sample, lam, tol=1e-10).beta
        mine = float(np.mean((response - design @ beta) ** 2) + lam * np.abs(beta).sum())
        worst_l1 = max(worst_l1, abs(mine - objective.min()) - resolution)

    projections_exact = all(
        np.array_equal(
            project_l1_ball(v := rng.standard_normal(int(rng.integers(1, 12))) * 3, r := rng.uniform(0, 4)),
            sort_threshold_projection(v, r),
        )
        for _ in range(1000)
    )
    elapsed = time.perf_counter() - start
    ok = worst_sq <= tol and worst_l1 <= tol and projections_exact and elapsed < 30.0
    report(
        4,
        "penalized solvers match d=2 grid oracles; projection matches sort oracle",
        ok,
        f"square_gap={worst_sq:.2e} lasso_gap={worst_l1:.2e} "
        f"projections_exact={projections_exact} time={elapsed:.2f}s",
    )


def _grid_resolution(objective_values):
    """Objective variation around the grid argmin, a one-cell resolution bound."""
    square = objective_values.reshape(400, 400)
    i, j = np.unravel_index(np.argmin(square), square.shape)
    lo_i, hi_i = max(i - 1, 0), min(i + 2, 400)
    lo_j, hi_j = max(j - 1, 0), min(j + 2, 400)
    patch = square[lo_i:hi_i, lo_j:hi_j]
    return float(patch.max() - patch.min())


def test_criterion_5_finite_gap_rate_split():
    start = time.perf_counter()
    config = ScenarioConfig(
        scenario="FiniteGap",
        n_grid=[2**k for k in range(7, 14)],
        epsilon=0.0019,
        x=1.0,
        replications=500,
        master_seed=777,
        gamma=0.5,
    )
    result = run_scenario(config)
    fit_exact = result.fit_exact
    fit_nonexact = result.fit_nonexact
    elapsed = time.perf_counter() - start
    ok = (
        fit_nonexact is not None
        and fit_exact is not None
        and fit_nonexact.slope <= -0.85
        and fit_nonexact.r_squared >= 0.85
        and -0.65 <= fit_exact.slope <= -0.35
        and fit_exact.r_squared >= 0.85
        and elapsed < 120.0
    )
    report(
        5,
        "two-function rate gap: nonexact slack decays much faster than exact",
        ok,
        f"exact={fit_exact.slope:.3f}/R2={fit_exact.r_squared:.3f} "
        f"nonexact={fit_nonexact.slope:.3f}/R2={fit_nonexact.r_squared:.3f} "
        f"floored={result.floored_count} time={elapsed:.1f}s",
    )


def test_criterion_6_isomorphy_frequency():
    start = time.perf_counter()
    config = ScenarioConfig(
        scenario="Isomorphy",
        n_grid=[512],
        d=8,
        epsilon=0.25,
        x=2.0,
        replications=2000,
        master_seed=777,
    )
    result = run_scenario(config)
    threshold = 1.0 - 4.0 * math.exp(-2.0) - 0.02
    elapsed = time.perf_counter() - start
    ok = result.satisfaction_frequency >= threshold and elapsed < 120.0
    report(
        6,
        "empirical/population risk equivalence event frequency",
        ok,
        f"frequency={result.satisfaction_frequency:.4f} threshold={threshold:.4f} "
        f"time={elapsed:.1f}s",
    )


def test_criterion_7_square_lasso_fast_rate():
    start = time.perf_counter()
    config = ScenarioConfig(
        scenario="SquareLasso",
        n_grid=[2**k for k in range(8, 13)],
        d=50,
        q=2.0,
        epsilon=0.002,
        x=1.0,
        replications=200,
        master_seed=777,
        noise=NoiseSpec.gaussian(0.5),
        beta_star=BetaStarSpec(3, 1.0),
        constants={"c0": 1e-11, "c1": 1.0, "Kd": 1.0},
    )
    result = run_scenario(config)
    fit = result.fit_nonexact
    elapsed = time.perf_counter() - start
    ok = (
        fit is not None
        and fit.slope <= -0.8
        and fit.r_squared >= 0.9
        and result.satisfaction_frequency >= 0.9
        and elapsed < 300.0
    )
    report(
        7,
        "squared-l1 RERM nonexact slack decays like 1/n with satisfied budgets",
        ok,
        f"slope={fit.slope:.3f} R2={fit.r_squared:.3f} "
        f"satisfaction={result.satisfaction_frequency:.3f} time={elapsed:.1f}s",
    )


def test_criterion_8_bernstein_universality():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    holds = 0
    total = 1000
    for i in range(total):
        n = int(rng.integers(20, 200))
        kind = i % 3
        if kind == 0:
            samples = rng.exponential(rng.uniform(0.2, 3.0), size=n)
        elif kind == 1:
            samples = rng.uniform(0.0, rng.uniform(0.5, 4.0), size=n)
        else:
            samples = np.abs(rng.standard_normal(n)) * rng.uniform(0.2, 2.0)
        psi1 = psi_alpha_norm(samples, 1.0, tol=1e-7)
        holds += bernstein_verify(samples, psi1, z=float(n))
    elapsed = time.perf_counter() - start
    ok = holds == total and elapsed < 10.0
    report(
        8,
        "second-moment inequality holds on randomized nonnegative datasets",
        ok,
        f"holds={holds}/{total} time={elapsed:.2f}s",
    )


def test_criterion_9_determinism_across_workers(tmp_path):
    config = {
        "scenario": "FiniteGap",
        "nGrid": [64, 128],
        "epsilon": 0.0019,
        "replications": 50,
        "masterSeed": 777,
        "gamma": 0.5,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    payloads = []
    for run, workers in (("a", 1), ("b", 1), ("c", 8), ("d", 8)):
        out = tmp_path / run
        code = cli_main(
            ["experiment", "--config", str(config_path), "--out", str(out), "--workers", str(workers)]
        )
        assert code == 0
        payloads.append((out / "rows.csv").read_bytes())
    ok = all(p == payloads[0] for p in payloads[1:])
    report(
        9,
        "byte-identical rows.csv across reruns and worker counts 1 and 8",
        ok,
        f"runs={len(payloads)} bytes={len(payloads[0])}",
    )
