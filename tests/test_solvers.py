import collections
import inspect
import math

import numpy as np
import pytest

from oraclebench import (
    InvalidInputError,
    IterationLimitError,
    Sample,
    empirical_risk,
    erm_residual,
    l1_penalty_level,
    project_l1_ball,
    rerm_residual,
    solve_lasso,
    solve_lq_rerm,
    solve_square_lasso,
)
from oraclebench.solvers import moments


def sort_threshold_projection(v, radius):
    """Independent sort-based oracle for the l1 projection."""
    v = np.asarray(v, dtype=float)
    absv = np.abs(v)
    if absv.sum() <= radius:
        return v.copy()
    u = np.sort(absv)[::-1]
    css = np.cumsum(u)
    rho = 0
    for j in range(len(u)):
        if u[j] > (css[j] - radius) / (j + 1):
            rho = j
    theta = (css[rho] - radius) / (rho + 1)
    return np.sign(v) * np.maximum(absv - theta, 0.0)


def grid_objective_min(sample, weight, power, grid_pts=400, lo=-3.0, hi=3.0):
    """Brute-force d=2 objective minimum over a square grid."""
    g = np.linspace(lo, hi, grid_pts)
    b1, b2 = np.meshgrid(g, g)
    betas = np.stack([b1.ravel(), b2.ravel()], axis=1)
    risks = np.mean(
        np.abs(sample.response[None, :] - betas @ sample.design.T) ** 2, axis=1
    )
    return float((risks + weight * np.abs(betas).sum(axis=1) ** power).min())


def random_instance(rng, n=20, d=2, noise=0.3):
    design = rng.standard_normal((n, d))
    response = design @ rng.uniform(-1, 1, d) + noise * rng.standard_normal(n)
    return Sample(design=design, response=response)


class TestProjectL1Ball:
    def test_inside_unchanged(self):
        v = np.array([0.25, -0.25, 0.1])
        assert np.array_equal(project_l1_ball(v, 1.0), v)

    def test_axis_example(self):
        assert np.allclose(project_l1_ball(np.array([3.0, 0.0]), 1.0), [1.0, 0.0])

    def test_two_coordinate_example(self):
        assert np.allclose(project_l1_ball(np.array([2.0, 1.0]), 1.0), [1.0, 0.0])

    def test_matches_sort_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = int(rng.integers(1, 12))
            v = rng.standard_normal(d) * rng.uniform(0.1, 10)
            r = rng.uniform(0, 4)
            assert np.array_equal(project_l1_ball(v, r), sort_threshold_projection(v, r))

    def test_norm_bound_and_idempotence(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = rng.standard_normal(6) * 3
            r = rng.uniform(0, 2)
            p = project_l1_ball(v, r)
            assert np.abs(p).sum() <= r + 1e-10
            assert np.allclose(project_l1_ball(p, r), p, atol=1e-14)

    def test_zero_radius(self):
        assert np.array_equal(project_l1_ball(np.array([1.0, -2.0]), 0.0), [0.0, 0.0])

    @pytest.mark.parametrize("v", [np.ones((2, 2)), np.full((2, 3), 0.1), np.array(2.0)], ids=["2d", "2d-inside", "0d"])
    def test_non_vector_is_rejected(self, v):
        with pytest.raises(InvalidInputError, match="vector"):
            project_l1_ball(v, 1.0)

    def test_negative_radius(self):
        for radius in (-0.5, float("nan")):
            with pytest.raises(InvalidInputError):
                project_l1_ball(np.array([1.0]), radius)


class TestSolveLqRerm:
    def test_huge_penalty_drives_beta_to_zero(self):
        rng = np.random.default_rng(2)
        s = random_instance(rng)
        sol = solve_lq_rerm(s, 2.0, penalty_coef=1e9, tol=1e-10)
        assert np.abs(sol.beta).sum() < 1e-6
        assert sol.objective == pytest.approx(np.mean(s.response**2), rel=1e-4)

    def test_zero_penalty_one_dim_mean(self):
        y = np.array([1.0, 2.0, 6.0])
        s = Sample(design=np.ones((3, 1)), response=y)
        sol = solve_lq_rerm(s, 2.0, penalty_coef=0.0, tol=1e-10)
        assert sol.beta[0] == pytest.approx(y.mean(), abs=1e-6)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(3)
        tol = 1e-8
        for _ in range(8):
            s = random_instance(rng)
            weight = rng.uniform(0, 0.3)
            sol = solve_lq_rerm(s, 2.0, weight, tol=tol)
            gridmin = grid_objective_min(s, weight, 2.0)
            assert sol.objective <= gridmin + tol
            assert sol.optimality_gap <= tol

    def test_q4_matches_direct_search(self):
        rng = np.random.default_rng(4)
        s = random_instance(rng, n=15)
        weight = 0.05
        sol = solve_lq_rerm(s, 4.0, weight, tol=1e-8)
        g = np.linspace(-3, 3, 300)
        b1, b2 = np.meshgrid(g, g)
        betas = np.stack([b1.ravel(), b2.ravel()], axis=1)
        objs = np.mean(
            np.abs(s.response[None, :] - betas @ s.design.T) ** 4, axis=1
        ) + weight * np.abs(betas).sum(axis=1) ** 4
        assert sol.objective <= objs.min() + 1e-8

    def test_objective_identity_and_radius(self):
        rng = np.random.default_rng(5)
        s = random_instance(rng)
        sol = solve_lq_rerm(s, 3.0, 0.07, tol=1e-8)
        risk = empirical_risk(np.abs(s.response - s.design @ sol.beta) ** 3)
        assert sol.objective == pytest.approx(risk + 0.07 * np.abs(sol.beta).sum() ** 3, abs=1e-10)

    def test_never_beats_reference_probes(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            s = random_instance(rng)
            weight = rng.uniform(0, 1)
            sol = solve_lq_rerm(s, 2.0, weight, tol=1e-9)
            at_zero = np.mean(s.response**2)
            ls = np.linalg.lstsq(s.design, s.response, rcond=None)[0]
            at_ls = np.mean((s.response - s.design @ ls) ** 2) + weight * np.abs(ls).sum() ** 2
            assert sol.objective <= at_zero + 1e-9
            assert sol.objective <= at_ls + 1e-9

    def test_constrained_value_convex_nonincreasing(self):
        # sampled V(r) must be nonincreasing and convex up to inner tolerance
        rng = np.random.default_rng(7)
        s = random_instance(rng)
        radii = np.linspace(0.0, 2.0, 9)
        values = [_constrained_value(s, r) for r in radii]
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-8)
        second = np.diff(values, 2)
        assert np.all(second >= -1e-6)

    def test_q_domain(self):
        rng = np.random.default_rng(8)
        s = random_instance(rng)
        with pytest.raises(InvalidInputError):
            solve_lq_rerm(s, 1.5, 0.1)
        with pytest.raises(InvalidInputError):
            solve_lq_rerm(s, 2.0, -0.1)

    def test_iteration_limit_carries_best_iterate(self):
        rng = np.random.default_rng(20)
        s = random_instance(rng)
        with pytest.raises(IterationLimitError) as info:
            solve_lq_rerm(s, 2.0, 0.05, tol=1e-12, max_iter=2)
        best = info.value.best
        assert best is not None
        assert np.all(np.isfinite(best.beta))
        assert best.objective <= np.mean(s.response**2) + 1e-12

    @pytest.mark.parametrize("q", [1.0, 2.0, 2.5, 3.0, 4.0, 6.0])
    def test_prox_matches_brute_force(self, q):
        # the minimizer of |b - v|^2 / 2 + c |b|_1^q is the l1-ball projection of v at its own
        # l1 norm, so a scan over that norm brackets the minimum from above; the objective is convex
        # in that norm, so a second scan between the neighbours of the best point refines it
        from oraclebench.solvers import _prox_l1_power

        rng = np.random.default_rng(21)
        for _ in range(15):
            v = rng.standard_normal(int(rng.integers(1, 8))) * rng.uniform(0.1, 3)
            c = 10.0 ** rng.uniform(-3, 1)

            def h(b):
                return 0.5 * float((b - v) @ (b - v)) + c * float(np.abs(b).sum()) ** q

            grid = np.linspace(0.0, np.abs(v).sum(), 1001)
            best = int(np.argmin([h(project_l1_ball(v, t)) for t in grid]))
            fine = np.linspace(grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)], 1001)
            brute = min(h(project_l1_ball(v, t)) for t in fine)
            mine = h(_prox_l1_power(v[None], np.array([c]), q)[0])
            assert mine <= brute + 1e-12
            assert brute - mine <= 1e-5 * (1.0 + brute)

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
    def test_prox_matches_the_all_counts_newton_reference(self, p):
        # the prox above p = 2 tests every active count in closed form and solves for the l1 norm at
        # the largest one only; the reference solves it for every count by vectorized Newton
        from oraclebench.solvers import _prox_l1_power

        def reference(v, c):
            absv = np.abs(v)
            u = np.sort(absv)[::-1]
            css, a = np.cumsum(u), c * p * np.arange(1, u.size + 1)
            total = np.minimum(css, (css / a) ** (1.0 / (p - 1.0)))
            for _ in range(100):
                step = (total + a * total ** (p - 1.0) - css) / (1.0 + a * (p - 1.0) * total ** (p - 2.0))
                total = total - step
                if np.all(step <= 1e-15 * total):
                    break
            theta = c * p * total ** (p - 1.0)
            active = np.nonzero(u > theta)[0]
            if active.size == 0:
                return np.zeros_like(v)
            return np.sign(v) * np.maximum(absv - theta[active[-1]], 0.0)

        rng = np.random.default_rng(26)
        for trial in range(200):
            d = 1 if trial % 10 == 0 else int(rng.integers(2, 30))
            v = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 2)
            if trial % 10 == 1:
                v = np.zeros(d)
            elif trial % 10 in (2, 3):
                # exact ties, with either sign
                v = rng.choice([-1.0, 1.0], d) * rng.choice(np.abs(v[:3]), d)
            c = 10.0 ** rng.uniform(-300, 3)
            ref, mine = reference(v, c), _prox_l1_power(v[None], np.array([c]), p)[0]
            assert np.abs(mine - ref).max() <= 1e-12 * np.abs(ref).max(), (trial, c)

    @pytest.mark.parametrize("pen", [0.05, 0.0])
    def test_loop_above_q2_evaluates_only_gradients(self, monkeypatch, pen):
        # the value mean |r|^q is computed twice per solve, for the radius of the gap's ball and for the
        # returned objective, whatever the instance and the iteration count; every step asks for gradients
        from oraclebench import solvers

        calls = collections.Counter()

        class Counted(solvers._LqObjective):
            def __getattribute__(self, name):
                attr = super().__getattribute__(name)
                if inspect.ismethod(attr):
                    calls[name] += 1
                return attr

        monkeypatch.setattr(solvers, "_LqObjective", Counted)
        rng = np.random.default_rng(27)
        for d in (2, 6):
            s = random_instance(rng, n=40, d=d)
            for max_iter in (1, 3, 10, 200_000):
                calls.clear()
                try:
                    solve_lq_rerm(s, 4.0, pen, tol=1e-10, max_iter=max_iter)
                except IterationLimitError:
                    pass
                assert calls["risk_exact"] == 2
                # at zero, at the first candidate and at the first extrapolated point
                assert calls["grad"] >= 3
                assert set(calls) <= {"grad", "risk_exact", "lipschitz_estimate", "row_space_radius"}

    @pytest.mark.parametrize(
        "q, pen",
        [(2.0, 0.05), (3.0, 0.05), (4.0, 0.05), (2.0, 0.0), (4.0, 0.0), (1.0, 0.05), (1.0, 1e-8), (1.0, 0.0)],
    )
    def test_gap_bounds_excess_over_reference(self, q, pen):
        rng = np.random.default_rng(22)
        s = random_instance(rng, n=30, d=5)
        f_ref = _solve(s, q, pen, tol=1e-12).objective
        excesses = []
        for max_iter in (1, 2, 4, 8, 16, 32):
            try:
                sol = _solve(s, q, pen, tol=1e-12, max_iter=max_iter)
            except IterationLimitError as exc:
                sol = exc.best
            excesses.append(sol.objective - f_ref)
            assert sol.objective - f_ref <= sol.optimality_gap + 1e-12
        assert excesses[0] > 1e-2
        for tol in (1e-2, 1e-4, 1e-6):
            sol = _solve(s, q, pen, tol=tol)
            assert sol.optimality_gap <= tol
            assert sol.objective - f_ref <= sol.optimality_gap + 1e-12

    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_rank_deficient_design_converges(self, q):
        rng = np.random.default_rng(23)
        s = random_instance(rng, n=15, d=40)
        for pen in (0.0, 0.01, 1.0):
            sol = solve_lq_rerm(s, q, pen, tol=1e-8)
            assert sol.optimality_gap <= 1e-8
        # with more coordinates than points the unpenalized risk interpolates to 0
        assert solve_lq_rerm(s, q, 0.0, tol=1e-8).objective <= 1e-8

    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_zero_penalty_gap_is_certified(self, q):
        rng = np.random.default_rng(24)
        s = random_instance(rng, n=40, d=3)
        sol = solve_lq_rerm(s, q, 0.0, tol=1e-9)
        assert sol.optimality_gap <= 1e-9
        # reference minimizer: least squares, then Newton steps on mean |r|^q
        beta = np.linalg.lstsq(s.design, s.response, rcond=None)[0]
        for _ in range(100):
            r = s.response - s.design @ beta
            grad = -(q / s.n) * s.design.T @ (np.sign(r) * np.abs(r) ** (q - 1.0))
            hess = (q * (q - 1.0) / s.n) * s.design.T @ (s.design * (np.abs(r) ** (q - 2.0))[:, None])
            beta = beta - np.linalg.solve(hess, grad)
        f_ref = float(np.mean(np.abs(s.response - s.design @ beta) ** q))
        assert sol.objective - f_ref <= sol.optimality_gap + 1e-12
        assert f_ref - sol.objective <= 1e-12


def _solve(sample, q, pen, **kwargs):
    """solve_lq_rerm at q, or at q = 1 the lasso: the same loop with the penalty's power 1."""
    if q == 1.0:
        return solve_lasso(sample, pen, **kwargs)
    return solve_lq_rerm(sample, q, pen, **kwargs)


def _stack(samples):
    return Sample(design=np.stack([s.design for s in samples]), response=np.stack([s.response for s in samples]))


def _iterations(sample, q, pen, tol):
    """The fewest proximal iterations after which the solo solve certifies tol; success is monotone in max_iter."""
    lo, hi = 0, 1
    while True:
        try:
            _solve(sample, q, pen, tol=tol, max_iter=hi)
            break
        except IterationLimitError:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _solve(sample, q, pen, tol=tol, max_iter=mid)
            hi = mid
        except IterationLimitError:
            lo = mid
    return hi


class TestStackedSolve:
    """A stack of samples solves in one loop, each row taking exactly the iterates of its solo solve."""

    @pytest.mark.parametrize(
        "q, pen, n, d",
        [(2.0, 0.05, 30, 5), (3.0, 0.05, 30, 5), (4.0, 0.05, 30, 5), (1.0, 0.05, 30, 5), (1.0, 1e-9, 30, 5),
         (2.0, 0.0, 15, 40), (4.0, 0.0, 15, 40)],
        ids=["q2-fixed-step", "q3-backtracking", "q4-backtracking", "lasso-fenchel", "lasso-row-space",
             "q2-pen0-rank-deficient", "q4-pen0-rank-deficient"],
    )
    def test_equals_solo_solves_bit_for_bit(self, q, pen, n, d):
        rng = np.random.default_rng(31)
        samples = [random_instance(rng, n=n, d=d, noise=rng.uniform(0.05, 1.0)) for _ in range(6)]
        tol = 1e-9
        solo = [_solve(s, q, pen, tol=tol) for s in samples]
        stacked = _solve(_stack(samples), q, pen, tol=tol)
        assert stacked.beta.shape == (len(samples), d) and stacked.objective.shape == (len(samples),)
        assert stacked.beta.tobytes() == np.stack([s.beta for s in solo]).tobytes()
        assert stacked.objective.tobytes() == np.array([s.objective for s in solo]).tobytes()
        # the stack's certificate is its largest, and every row's is at most tol
        assert stacked.optimality_gap == max(s.optimality_gap for s in solo) <= tol

    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_rows_stop_at_their_own_iteration(self, q):
        # rows of very different conditioning certify after different iteration counts; a budget that only the
        # fastest rows meet names the first row that ran out, and the best iterate holds the others' solutions
        rng = np.random.default_rng(32)
        samples = []
        for scale in (1.0, 6.0, 1.0, 3.0):
            design = rng.standard_normal((25, 4)) * np.array([1.0, 1.0, 1.0, scale])
            samples.append(Sample(design=design, response=design @ rng.uniform(-1, 1, 4) + rng.standard_normal(25)))
        pen, tol = 0.02, 1e-10
        counts = [_iterations(s, q, pen, tol) for s in samples]
        assert len(set(counts)) > 1
        solo = [_solve(s, q, pen, tol=tol) for s in samples]
        stacked = _solve(_stack(samples), q, pen, tol=tol)
        assert stacked.beta.tobytes() == np.stack([s.beta for s in solo]).tobytes()
        budget = min(counts)
        with pytest.raises(IterationLimitError) as info:
            _solve(_stack(samples), q, pen, tol=tol, max_iter=budget)
        first_late = min(i for i, count in enumerate(counts) if count > budget)
        assert info.value.row == first_late and f"row {first_late}" in str(info.value)
        best = info.value.best
        for i, count in enumerate(counts):
            if count <= budget:
                assert best.beta[i].tobytes() == solo[i].beta.tobytes()
                assert best.objective[i] == solo[i].objective
        assert best.optimality_gap > tol

    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_finished_rows_stay_in_the_stack(self, q, monkeypatch):
        # the rows of test_rows_stop_at_their_own_iteration, which certify at different iterations. A certified row
        # stays in place, and backtracking, above q = 2, steps the whole stack too: every gradient is of all rows
        from oraclebench import solvers

        rng = np.random.default_rng(32)
        samples = []
        for scale in (1.0, 6.0, 1.0, 3.0):
            design = rng.standard_normal((25, 4)) * np.array([1.0, 1.0, 1.0, scale])
            samples.append(Sample(design=design, response=design @ rng.uniform(-1, 1, 4) + rng.standard_normal(25)))
        pen, tol = 0.02, 1e-10
        counts = [_iterations(s, q, pen, tol) for s in samples]
        assert len(set(counts)) > 1
        rows = []
        grad = solvers._LqObjective.grad

        def recording(obj, beta):
            rows.append(len(beta))
            return grad(obj, beta)

        monkeypatch.setattr(solvers._LqObjective, "grad", recording)
        _solve(_stack(samples), q, pen, tol=tol)
        assert set(rows) == {len(samples)}
        # one gradient at zero, then per step one at z and one per candidate; the last row certifies at the top of
        # iteration max(counts), after max(counts) - 1 steps. Above q = 2 some steps backtrack
        plain = 1 + 2 * (max(counts) - 1)
        assert len(rows) == plain if q == 2.0 else len(rows) > plain

    def test_single_sample_is_a_stack_of_one(self):
        # solve_square_lasso reads n from the stack's shape too; a single sample keeps its own shapes
        rng = np.random.default_rng(33)
        s = random_instance(rng)
        sol = solve_square_lasso(s, 2.0)
        assert sol.beta.shape == (s.d,) and isinstance(sol.objective, float)
        stacked = solve_square_lasso(_stack([s, s]), 2.0)
        assert stacked.beta.shape == (2, s.d) and stacked.objective.shape == (2,)
        assert stacked.beta.tobytes() == np.stack([sol.beta, sol.beta]).tobytes()
        assert stacked.objective.tolist() == [sol.objective] * 2


@pytest.mark.parametrize(
    "solve, kwargs, name",
    [
        (solve_lq_rerm, {"q": float("nan"), "penalty_coef": 0.1}, "q"),
        (solve_lq_rerm, {"q": 2.0, "penalty_coef": float("nan")}, "penalty_coef"),
        (solve_lq_rerm, {"q": 4.0, "penalty_coef": float("inf")}, "penalty_coef"),
        (solve_lq_rerm, {"q": 2.0, "penalty_coef": 0.1, "tol": float("nan")}, "tol"),
        (solve_square_lasso, {"kappa": float("nan")}, "kappa"),
        (solve_square_lasso, {"kappa": float("inf")}, "kappa"),
        (solve_square_lasso, {"kappa": 1.0, "tol": float("nan")}, "tol"),
        (solve_lasso, {"lambda1": float("nan")}, "lambda1"),
        (solve_lasso, {"lambda1": float("inf")}, "lambda1"),
        (solve_lasso, {"lambda1": 0.1, "tol": float("inf")}, "tol"),
        (solve_lq_rerm, {"q": float("inf"), "penalty_coef": 0.1}, "q"),
        (solve_lq_rerm, {"q": 4.0, "penalty_coef": 0.1, "max_iter": 0}, "max_iter"),
        (solve_lq_rerm, {"q": 2.0, "penalty_coef": 0.1, "max_iter": -3}, "max_iter"),
        (solve_square_lasso, {"kappa": 1.0, "max_iter": 2.5}, "max_iter"),
        (solve_lasso, {"lambda1": 0.1, "max_iter": float("nan")}, "max_iter"),
        (solve_lq_rerm, {"q": 2.0, "penalty_coef": 0.1, "max_iter": True}, "max_iter"),
        (solve_lq_rerm, {"q": 2.0, "penalty_coef": np.array([0.1, 0.2])}, "penalty_coef"),
    ],
)
def test_solvers_reject_non_finite_arguments(solve, kwargs, name):
    s = random_instance(np.random.default_rng(25))
    with pytest.raises(InvalidInputError, match=name):
        solve(s, **kwargs)


class TestMoments:
    """At q = 2 a sample's Moments solve exactly as its rows do."""

    @pytest.mark.parametrize("pen", [0.05, 0.0], ids=["pen>0", "pen=0"])
    @pytest.mark.parametrize("solver", ["lq_rerm", "square_lasso", "lasso"])
    def test_moments_solve_as_the_rows_bit_for_bit(self, solver, pen):
        rng = np.random.default_rng(34)
        samples = [random_instance(rng, n=30, d=5, noise=rng.uniform(0.05, 1.0)) for _ in range(3)]
        solve = {"lq_rerm": lambda s: solve_lq_rerm(s, 2.0, pen, tol=1e-9),
                 "square_lasso": lambda s: solve_square_lasso(s, 30 * pen, tol=1e-9),
                 "lasso": lambda s: solve_lasso(s, pen, tol=1e-9)}[solver]
        for sample in (samples[0], _stack(samples)):
            rows, reduced = solve(sample), solve(moments(sample.design, sample.response))
            assert rows.beta.shape == reduced.beta.shape
            assert rows.beta.tobytes() == reduced.beta.tobytes()
            assert np.asarray(rows.objective).tobytes() == np.asarray(reduced.objective).tobytes()
            assert rows.optimality_gap == reduced.optimality_gap

    def test_stack_of_moments_is_the_moments_of_the_stack(self):
        rng = np.random.default_rng(35)
        samples = [random_instance(rng, n=40, d=6) for _ in range(3)]
        parts = [moments(s.design, s.response) for s in samples]
        whole = moments(_stack(samples).design, _stack(samples).response)
        assert whole.n == 40 and whole.gram.shape == (3, 6, 6) and whole.y2m.shape == (3,)
        for name in ("gram", "xty", "y2m"):
            assert getattr(whole, name).tobytes() == np.stack([getattr(m, name) for m in parts]).tobytes()

    def test_moments_above_q2_are_rejected(self):
        s = random_instance(np.random.default_rng(36))
        with pytest.raises(InvalidInputError, match="q = 2"):
            solve_lq_rerm(moments(s.design, s.response), 4.0, 0.1)


def _constrained_value(sample, radius, max_iter=50_000):
    """Least mean square risk over the l1 ball of ``radius``, by projected gradient at step 1/L."""
    gram = sample.design.T @ sample.design / sample.n
    xty = sample.design.T @ sample.response / sample.n
    step = 1.0 / (2.0 * np.linalg.eigvalsh(gram)[-1])
    beta = np.zeros(sample.d)
    for _ in range(max_iter):
        nxt = project_l1_ball(beta - 2.0 * step * (gram @ beta - xty), radius)
        moved = float(np.abs(nxt - beta).max())
        beta = nxt
        if moved <= 1e-14:
            break
    return float(np.mean((sample.response - sample.design @ beta) ** 2))


class TestSolveSquareLasso:
    def test_kappa_zero_is_least_squares(self):
        rng = np.random.default_rng(9)
        s = random_instance(rng)
        sol = solve_square_lasso(s, 0.0, tol=1e-10)
        ls = np.linalg.lstsq(s.design, s.response, rcond=None)[0]
        ls_obj = np.mean((s.response - s.design @ ls) ** 2)
        assert sol.objective <= ls_obj + 1e-9

    def test_zero_response(self):
        s = Sample(design=np.eye(3), response=np.zeros(3))
        sol = solve_square_lasso(s, 1.0, tol=1e-10)
        assert np.allclose(sol.beta, 0.0)
        assert sol.objective == 0.0

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            s = random_instance(rng)
            kappa = rng.uniform(0, 5)
            sol = solve_square_lasso(s, kappa, tol=1e-8)
            gridmin = grid_objective_min(s, kappa / s.n, 2.0)
            assert sol.objective <= gridmin + 1e-8

    def test_penalty_monotone_shrinkage(self):
        rng = np.random.default_rng(11)
        s = random_instance(rng, n=30, d=4)
        norms = []
        for kappa in (0.0, 0.5, 2.0, 8.0, 32.0):
            sol = solve_square_lasso(s, kappa, tol=1e-9)
            norms.append(np.abs(sol.beta).sum())
        assert all(b <= a + 1e-6 for a, b in zip(norms, norms[1:]))


class TestSolveLasso:
    def test_zero_penalty_least_squares(self):
        rng = np.random.default_rng(12)
        s = random_instance(rng)
        beta = solve_lasso(s, 0.0, tol=1e-12).beta
        ls = np.linalg.lstsq(s.design, s.response, rcond=None)[0]
        assert np.allclose(beta, ls, atol=1e-8)

    def test_threshold_kills_all_coordinates(self):
        rng = np.random.default_rng(13)
        s = random_instance(rng)
        lam = 2 * np.abs(s.design.T @ s.response).max() / s.n
        beta = solve_lasso(s, lam * 1.0001, tol=1e-12).beta
        assert np.array_equal(beta, np.zeros(s.d))

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            s = random_instance(rng)
            lam = rng.uniform(0.01, 0.5)
            beta = solve_lasso(s, lam, tol=1e-10).beta
            mine = np.mean((s.response - s.design @ beta) ** 2) + lam * np.abs(beta).sum()
            gridmin = grid_objective_min(s, lam, 1.0)
            assert mine <= gridmin + 1e-8

    def test_certifies_below_the_gradient_rounding_level(self):
        # at lambda1 = 1e-12 the Fenchel gap stays near 1e-8 from rounding in the gradient; the
        # row-space gap of the risk plus lambda1 * ||beta||_1 certifies tol at once
        rng = np.random.default_rng(2)
        design = rng.standard_normal((20, 3))
        response = design @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.standard_normal(20)
        sol = solve_lasso(Sample(design, response), 1e-12, tol=1e-10, max_iter=20_000)
        assert sol.optimality_gap <= 1e-10
        ls = np.linalg.lstsq(design, response, rcond=None)[0]
        assert sol.objective <= float(np.mean((response - design @ ls) ** 2)) + 1e-12 * np.abs(ls).sum() + 1e-10

    def test_certifies_where_rounding_swamps_objective_differences(self):
        # near the minimum the q = 2 objective values of successive iterates differ by rounding only;
        # a restart on a rise of the objective then fires on noise and FISTA stalls short of tol
        rng = np.random.default_rng(0)
        design = rng.standard_normal((15, 40))
        response = design[:, :3].sum(axis=1) + 0.1 * rng.standard_normal(15)
        sol = solve_lasso(Sample(design, response), 1e-6, tol=1e-10)
        assert sol.optimality_gap <= 1e-10


class TestPenaltyLevel:
    def test_unit_plug_in(self):
        value = l1_penalty_level(math.e, math.e, 1e-12, 2.0, 1.0)
        assert value == pytest.approx(1.0, rel=1e-9)

    def test_homogeneity_in_scale(self):
        for q in (2.0, 4.0):
            a = l1_penalty_level(100, 50, 1.0, q, 1.0)
            b = l1_penalty_level(100, 50, 1.0, q, 2.0)
            assert b == pytest.approx(2**q * a, rel=1e-12)

    def test_increasing_in_x(self):
        values = [l1_penalty_level(100, 50, x, 2.0, 1.0) for x in (0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(InvalidInputError):
            l1_penalty_level(1, 50, 1.0, 2.0, 1.0)
        with pytest.raises(InvalidInputError):
            l1_penalty_level(100, 50, 0.0, 2.0, 1.0)


class TestErmResidual:
    def test_lambda_dominates(self):
        assert erm_residual(0.7, 0.0, 0.0, 0.25, 1.0, 100) == 0.7

    def test_deviation_plug_in(self):
        n = 64
        eps = 0.4
        assert erm_residual(0.0, 1.0, 0.0, eps, float(n), n) == pytest.approx(1.0 / eps)

    def test_monotone_in_x(self):
        values = [erm_residual(0.0, 1.0, 2.0, 0.25, x, 100) for x in (0.5, 1.0, 2.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_linear_in_c0(self):
        a = erm_residual(0.0, 1.0, 2.0, 0.25, 1.0, 100, c0=1.0)
        b = erm_residual(0.0, 1.0, 2.0, 0.25, 1.0, 100, c0=2.0)
        assert b == pytest.approx(2 * a)

    def test_epsilon_domain(self):
        with pytest.raises(InvalidInputError):
            erm_residual(0.0, 1.0, 1.0, 0.5, 1.0, 100)


class TestRermResidual:
    def test_monotone_in_r_and_x(self):
        base = rerm_residual(256, 20, 2.0, 1.0, 0.25, 1.0, 1.0)
        assert rerm_residual(256, 20, 2.0, 1.0, 0.25, 2.0, 1.0) >= base
        assert rerm_residual(256, 20, 2.0, 1.0, 0.25, 1.0, 2.0) >= base

    def test_closed_form_cross_check(self):
        n, d, q, kd, eps, r, x = 256, 20, 3.0, 1.5, 0.25, 1.5, 2.0
        lambda_star = (1 + r) ** q * kd**q * math.log(n) ** ((4 * q - 2) / q) * math.log(d) ** 2 / (n * eps**2)
        phi_n = kd**q * math.log(n) * (1 + r) ** q
        bn = (2 * kd) ** q * (1 + r) ** q * math.log(math.e * n)
        for c0 in (1.0, 100.0):
            expected = max(lambda_star, c0 * (phi_n + bn / eps) * (x + 1) / (n * eps))
            assert rerm_residual(n, d, q, kd, eps, r, x, c0=c0) == pytest.approx(expected, rel=1e-12)

