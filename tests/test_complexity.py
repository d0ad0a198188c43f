import math

import numpy as np
import pytest

from oraclebench import (
    BracketError,
    InvalidInputError,
    bernstein_from_psi1,
    bernstein_verify,
    erm_residual,
    expected_localized_sup,
    fixed_point_lambda,
    l1_penalty_level,
    psi_alpha_norm,
    rerm_residual,
)


def brute_force_localized_sup(means, deviations, level, grid=10**4):
    """Independent oracle: scan a theta grid per class member."""
    thetas = np.linspace(0.0, 1.0, grid)
    best = 0.0
    for mean, dev in zip(means, deviations):
        feasible = thetas[(thetas * mean) <= level]
        if feasible.size:
            best = max(best, float(feasible.max() * dev))
    return best


def exact_localized_sup(means, deviations, level):
    """Plain-Python reference: the exact localized star-hull supremum of one draw.

    Member g may be scaled by theta in [0, 1] with theta * mean_g <= level, and a zero mean leaves it
    unconstrained; the scaled deviation is linear in theta, so the supremum is max_g min(1, level/mean_g) * dev_g.
    """
    return max((dev if mean == 0 else min(1.0, level / mean) * dev) for mean, dev in zip(means, deviations))


def one_draw_sup(means, deviations, level):
    """``expected_localized_sup`` at one draw: a one-row deviation matrix, whose mean is that draw's supremum."""
    estimate = expected_localized_sup(means, np.asarray(deviations, dtype=float)[None])(level)
    assert estimate.stderr == 0.0
    return estimate.mean


class TestLocalizedStarHullSup:
    def test_unclipped_equals_max_deviation(self):
        # at a level >= every mean, no member is scaled down
        means = np.array([0.5, 1.0, 0.2])
        devs = np.array([0.1, 0.4, 0.3])
        assert one_draw_sup(means, devs, 2.0) == pytest.approx(0.4)

    def test_clipped_member(self):
        value = one_draw_sup(np.array([2.0]), np.array([0.6]), 1.0)
        assert value == pytest.approx(0.3)
        assert value == pytest.approx(
            brute_force_localized_sup([2.0], [0.6], 1.0), abs=1e-4
        )

    def test_zero_deviations(self):
        assert one_draw_sup(np.array([1.0, 2.0]), np.zeros(2), 0.5) == 0.0

    def test_zero_mean_unconstrained(self):
        assert one_draw_sup(np.array([0.0]), np.array([0.7]), 0.0) == pytest.approx(0.7)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            m = int(rng.integers(1, 21))
            means = rng.uniform(0, 2, size=m)
            devs = rng.uniform(0, 1, size=m)
            level = rng.uniform(0, 2.5)
            exact = one_draw_sup(means, devs, level)
            approx = brute_force_localized_sup(means, devs, level)
            # the grid undershoots by at most one theta step per member
            assert exact >= approx - 1e-12
            assert exact - approx <= devs.max() / 9999 + 1e-12

    def test_monotone_in_level(self):
        rng = np.random.default_rng(1)
        means = rng.uniform(0, 2, size=10)
        devs = rng.uniform(0, 1, size=10)
        values = [one_draw_sup(means, devs, lam) for lam in np.linspace(0, 3, 25)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


class TestExpectedLocalizedSup:
    MEANS = np.array([0.3, 0.6])

    @classmethod
    def _deviations(cls, draws, seed):
        """|P g - P_n g| of ``draws`` independent draws, one row each."""
        return np.abs(np.random.default_rng(seed).normal(0, 0.1, size=(draws, cls.MEANS.size)))

    def test_single_replication_equals_one_draw(self):
        devs = self._deviations(1, 42)
        est = expected_localized_sup(self.MEANS, devs)(1.0)
        assert est.mean == exact_localized_sup(self.MEANS, devs[0], 1.0)
        assert est.stderr == 0.0

    def test_deterministic_data_zero(self):
        est = expected_localized_sup(np.array([0.5]), np.zeros((10, 1)))(1.0)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_matches_per_level_reference_bit_for_bit(self):
        # the last member has mean zero and is never scaled down
        means = np.array([0.2, 0.5, 0.0])
        devs = np.abs(np.random.default_rng(13).normal(0, 0.1, size=(60, 3)))
        estimate = expected_localized_sup(means, devs)
        # level 0, between two means, above the max mean
        for level in (0.0, 0.35, 0.9):
            values = [exact_localized_sup(means, row, level) for row in devs]
            assert estimate(level).mean == float(np.mean(values))
            assert estimate(level).stderr == float(np.std(values, ddof=1) / math.sqrt(60))

    def test_keeps_its_own_copy_of_the_draws(self):
        # the inputs are checked once, so a later change to the caller's arrays must not reach the map
        means, devs = self.MEANS.copy(), self._deviations(20, 3)
        estimate = expected_localized_sup(means, devs)
        before = estimate(0.4)
        means[:], devs[:] = -1.0, np.nan
        assert estimate(0.4) == before

    @pytest.mark.parametrize(
        "means, deviations",
        [
            ([-0.1, 0.3], [[0.1, 0.1]]),
            ([0.1, 0.3], [[-0.1, 0.1]]),
            ([0.1, 0.3], [[np.nan, 0.1]]),
            ([0.1, 0.3], [[0.1]]),
            ([0.1, 0.3], np.ones((4, 3))),
            ([0.1, 0.3], [0.1, 0.1]),
            ([[0.1, 0.3]], [[0.1, 0.1]]),
            ([], np.zeros((3, 0))),
        ],
        ids=["negative-mean", "negative-deviation", "nan-deviation", "unequal-pair", "unequal-draws",
             "one-draw-as-vector", "means-as-matrix", "empty-class"],
    )
    def test_bad_draws_rejected_at_construction(self, means, deviations):
        with pytest.raises(InvalidInputError):
            expected_localized_sup(means, deviations)

    def test_bad_replications_and_level_rejected(self):
        with pytest.raises(InvalidInputError):
            expected_localized_sup(self.MEANS, np.zeros((0, 2)))
        estimate = expected_localized_sup(self.MEANS, self._deviations(5, 1))
        with pytest.raises(InvalidInputError):
            estimate(-0.1)

    def test_monte_carlo_self_consistency(self):
        small = expected_localized_sup(self.MEANS, self._deviations(2000, 10))(1.0)
        large = expected_localized_sup(self.MEANS, self._deviations(8000, 11))(1.0)
        band = 5 * math.hypot(small.stderr, large.stderr)
        assert abs(small.mean - large.mean) <= band


class TestFixedPointLambda:
    def test_zero_phi_returns_lower_bracket(self):
        assert fixed_point_lambda(lambda lam: 0.0, 0.3, 10.0, tol=1e-6) == pytest.approx(1e-6)

    def test_sqrt_phi(self):
        # a sqrt(lam) = (eps/4) lam at lam = (4a/eps)^2 = 100
        value = fixed_point_lambda(lambda lam: math.sqrt(lam), 0.4, 200.0, tol=1e-8)
        assert value == pytest.approx(100.0, abs=1e-6)

    def test_constant_phi(self):
        value = fixed_point_lambda(lambda lam: 1.0, 0.4, 200.0, tol=1e-8)
        assert value == pytest.approx(10.0, abs=1e-6)

    def test_bracket_grows_automatically(self):
        value = fixed_point_lambda(lambda lam: math.sqrt(lam), 0.4, 0.25, tol=1e-8)
        assert value == pytest.approx(100.0, abs=1e-6)

    def test_defining_inequalities(self):
        phi = lambda lam: 0.7 * math.sqrt(lam)
        eps, tol = 0.3, 1e-9
        star = fixed_point_lambda(phi, eps, 1000.0, tol=tol)
        assert phi(star) <= (eps / 4) * star
        assert phi(star - 10 * tol) > (eps / 4) * (star - 10 * tol)

    def test_bracket_error(self):
        # phi growing faster than linear never satisfies the inequality
        with pytest.raises(BracketError):
            fixed_point_lambda(lambda lam: 10.0 * lam, 0.4, 1.0, tol=1e-6)

    def test_epsilon_domain(self):
        with pytest.raises(InvalidInputError):
            fixed_point_lambda(lambda lam: 0.0, 0.5, 1.0)

    @staticmethod
    def _bounded(phi):
        # a bisection that cannot end fails here instead of hanging the suite
        calls = []

        def counted(lam):
            calls.append(lam)
            if len(calls) > 10_000:
                raise RuntimeError("the bisection does not end")
            return phi(lam)

        return counted

    def test_ends_where_float_spacing_exceeds_tol(self):
        # the fixed point is 1.6e8, where floats lie 3e-8 apart, far wider than tol
        phi = lambda lam: 0.1 * min(lam, 1e8)
        star = fixed_point_lambda(self._bounded(phi), 0.25, 1e7, tol=1e-9)
        assert star == pytest.approx(1.6e8, rel=1e-15) and phi(star) <= 0.0625 * star

    def test_bracket_that_overflows_is_an_error(self):
        # phi stays above (eps/4) lam up to the largest float, and doubling past it would reach inf
        with pytest.raises(BracketError):
            fixed_point_lambda(self._bounded(lambda lam: min(lam, 1e308)), 0.25, 1e308)


class TestL1ComplexityProfile:
    """The l1 ball's closed-form constants, seen through rerm_residual; at c0 = 0 it is lambda_star(r)."""

    def test_plug_in_unit_constants(self):
        eps = 0.3
        assert rerm_residual(math.e, math.e, 2.0, 1.0, eps, 0.0, 1.0, c0=0.0) == pytest.approx(
            1.0 / (math.e * eps**2), rel=1e-12
        )

    def test_homogeneity_in_scale(self):
        for q in (2.0, 3.0):
            for c0 in (0.0, 1.0):
                for r in (0.0, 1.0, 3.7):
                    small, large = (rerm_residual(100, 50, q, kd, 0.2, r, 1.0, c0=c0) for kd in (1.0, 2.0))
                    assert large == pytest.approx(2**q * small, rel=1e-12)

    def test_lambda_scaling_in_radius(self):
        at_zero = rerm_residual(100, 50, 2.0, 1.0, 0.2, 0.0, 1.0, c0=0.0)
        assert rerm_residual(100, 50, 2.0, 1.0, 0.2, 1.0, 1.0, c0=0.0) == pytest.approx(4 * at_zero, rel=1e-12)

    def test_maps_nondecreasing_in_r(self):
        for c0 in (0.0, 1.0, 1e6):
            values = [rerm_residual(200, 30, 3.0, 1.5, 0.1, r, 1.0, c0=c0) for r in np.linspace(0, 5, 40)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_n_monotonicity_directions(self):
        # lambda_star falls with n (for n past e^3)
        small, large = (rerm_residual(n, 30, 2.0, 1.0, 0.2, 1.0, 1.0, c0=0.0) for n in (64, 128))
        assert large < small

    def test_epsilon_domain(self):
        for eps in (0.0, 0.5, 0.6, -0.1):
            with pytest.raises(InvalidInputError, match="epsilon"):
                rerm_residual(100, 50, 2.0, 1.0, eps, 1.0, 1.0)


class TestErmResidual:
    # the bounds that Isomorphy's config check puts on bn and big_bn at n = 256: 0-1 losses and their psi_1 norm
    BN = 1.0 / math.log(2.0)
    BIG_BN = bernstein_from_psi1(BN, 256)

    def test_budget_within_the_floats_when_its_left_to_right_product_is_not(self):
        # c0 (bn + big_bn / epsilon) x is past the floats at c0 = 1.2e308, x = 2 and epsilon = 0.25
        assert 1.2e308 * (self.BN + self.BIG_BN / 0.25) * 2.0 == math.inf
        budget = erm_residual(0.0, self.BN, self.BIG_BN, 0.25, 2.0, 256, c0=1.2e308)
        assert budget == pytest.approx(1.2e308 * erm_residual(0.0, self.BN, self.BIG_BN, 0.25, 2.0, 256), rel=1e-15)
        assert budget < math.inf

    def test_finite_budget_keeps_its_left_to_right_bits(self):
        for c0 in (0.5, 1.0, 3.0, 1e300):
            expected = c0 * (self.BN + self.BIG_BN / 0.25) * 2.0 / (256 * 0.25)
            assert erm_residual(0.0, self.BN, self.BIG_BN, 0.25, 2.0, 256, c0=c0) == expected

    def test_budget_past_the_floats_in_either_order_is_an_error(self):
        # at n = 16 the budget is about 11.6 c0
        with pytest.raises(InvalidInputError, match="erm_residual overflows a float"):
            erm_residual(0.0, self.BN, bernstein_from_psi1(self.BN, 16), 0.25, 2.0, 16, c0=1e308)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: psi_alpha_norm(np.random.default_rng(0).exponential(size=500), 1.0, tol=math.nan), "tol"),
        (lambda: fixed_point_lambda(lambda lam: 0.01 * math.sqrt(lam), 0.25, 1.0, tol=math.nan), "tol"),
        (lambda: fixed_point_lambda(lambda lam: 0.0, 0.25, math.nan), "bracket_hi"),
        # tol = inf returned the upper bracket itself, 4.0 here where the fixed point is 2.56
        (lambda: fixed_point_lambda(lambda lam: 0.1 * math.sqrt(lam), 0.25, 1.0, tol=math.inf), "tol"),
        (lambda: fixed_point_lambda(lambda lam: 0.0, 0.25, math.inf), "bracket_hi"),
        (lambda: psi_alpha_norm(np.ones(5), 1.0, tol=math.inf), "tol"),
        (lambda: psi_alpha_norm(np.ones(5), math.inf), "alpha"),
        (lambda: rerm_residual(math.nan, 50, 2.0, 1.0, 0.25, 1.0, 1.0), "n"),
        (lambda: rerm_residual(100, math.nan, 2.0, 1.0, 0.25, 1.0, 1.0), "d"),
        (lambda: rerm_residual(100, 50, math.nan, 1.0, 0.25, 1.0, 1.0), "q"),
        (lambda: rerm_residual(100, 50, 2.0, math.nan, 0.25, 1.0, 1.0), "kd"),
        (lambda: rerm_residual(100, 50, 2.0, 1.0, math.nan, 1.0, 1.0), "epsilon"),
        (lambda: psi_alpha_norm(np.ones(5), math.nan), "alpha"),
        (lambda: bernstein_from_psi1(math.nan, 10), "psi1"),
        (lambda: bernstein_from_psi1(1.0, math.nan), "n"),
        (lambda: bernstein_verify(np.ones(5), math.nan, 5.0), "psi1"),
        (lambda: bernstein_verify(np.ones(5), 1.0, math.nan), "z"),
        (lambda: l1_penalty_level(math.nan, 50, 1.0, 2.0, 1.0), "n"),
        (lambda: l1_penalty_level(100, math.nan, 1.0, 2.0, 1.0), "d"),
        (lambda: l1_penalty_level(100, 50, math.nan, 2.0, 1.0), "x"),
        (lambda: l1_penalty_level(100, 50, 1.0, math.nan, 1.0), "q"),
        (lambda: l1_penalty_level(100, 50, 1.0, 2.0, math.nan), "kd"),
        (lambda: erm_residual(math.nan, 1.0, 1.0, 0.25, 1.0, 100), "lambda_star"),
        (lambda: erm_residual(0.0, math.nan, 1.0, 0.25, 1.0, 100), "bn"),
        (lambda: erm_residual(0.0, 1.0, math.nan, 0.25, 1.0, 100), "big_bn"),
        (lambda: erm_residual(0.0, 1.0, 1.0, 0.25, math.nan, 100), "x"),
        (lambda: erm_residual(0.0, 1.0, 1.0, 0.25, 1.0, math.nan), "n"),
        (lambda: rerm_residual(100, 50, 2.0, 1.0, 0.25, math.nan, 1.0), "r"),
        (lambda: rerm_residual(100, 50, 2.0, 1.0, 0.25, 1.0, math.nan), "x"),
        (lambda: l1_penalty_level(100, 50, 1.0, 2.0, 1.0, c0=math.nan), "c0"),
        (lambda: l1_penalty_level(100, 50, 1.0, 2.0, 1.0, c0=-1.0), "c0"),
        (lambda: erm_residual(0.0, 1.0, 1.0, 0.25, 1.0, 100, c0=math.nan), "c0"),
        (lambda: erm_residual(0.0, 1.0, 1.0, 0.25, 1.0, 100, c0=-1.0), "c0"),
        (lambda: rerm_residual(100, 50, 2.0, 1.0, 0.25, 1.0, 1.0, c0=math.nan), "c0"),
        (lambda: rerm_residual(100, 50, 2.0, 1.0, 0.25, 1.0, 1.0, c0=-1.0), "c0"),
    ],
    ids=["psi-norm-tol", "fixed-point-tol", "fixed-point-bracket", "fixed-point-tol-inf", "fixed-point-bracket-inf",
         "psi-norm-tol-inf", "psi-norm-alpha-inf", "profile-n", "profile-d", "profile-q",
         "profile-kd", "profile-epsilon", "psi-norm-alpha", "bernstein-psi1", "bernstein-n", "verify-psi1", "verify-z",
         "penalty-n", "penalty-d", "penalty-x", "penalty-q", "penalty-kd", "rho-a-lambda-star", "rho-a-bn",
         "rho-a-big-bn", "rho-a-x", "rho-a-n", "rho-b-r", "rho-b-x",
         "penalty-c0-nan", "penalty-c0-negative", "rho-a-c0-nan", "rho-a-c0-negative", "rho-b-c0-nan",
         "rho-b-c0-negative"],
)
def test_nan_numerical_argument_rejected_naming_it(call, name):
    # a NaN fails every comparison, so a "<= 0" check or a max() lets it through to a wrong answer; an
    # infinity passes a check with no upper end
    with pytest.raises(InvalidInputError, match=rf"\b{name}\b"):
        call()
