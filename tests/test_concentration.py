import math

import numpy as np
import pytest

from oraclebench import (
    InvalidInputError,
    bernstein_from_psi1,
    bernstein_verify,
    envelope_psi1,
    psi_alpha_norm,
)

LOG2_INV = 1.0 / math.log(2.0)


class TestPsiAlphaNorm:
    def test_all_zero(self):
        assert psi_alpha_norm(np.zeros(5), 1.0) == 0.0

    def test_constant_ones_closed_form(self):
        # solve exp(1/c) = 2 exactly: c = 1/ln 2
        assert psi_alpha_norm(np.ones(7), 1.0, tol=1e-9) == pytest.approx(LOG2_INV, abs=1e-8)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(0)
        tol = 1e-8
        for _ in range(10):
            x = rng.exponential(1.0, size=40)
            base = psi_alpha_norm(x, 1.0, tol=tol)
            scaled = psi_alpha_norm(3.0 * x, 1.0, tol=tol)
            assert abs(scaled - 3.0 * base) <= 2e-7

    def test_monotone_in_data(self):
        rng = np.random.default_rng(1)
        tol = 1e-9
        for alpha in (1.0, 2.0):
            for _ in range(10):
                x = rng.exponential(1.0, size=30)
                bump = x + rng.uniform(0, 0.5, size=30)
                lo = psi_alpha_norm(x, alpha, tol=tol)
                hi = psi_alpha_norm(bump, alpha, tol=tol)
                assert hi >= lo - 2 * tol

    def test_moment_at_estimate_is_feasible(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(100)
        c = psi_alpha_norm(x, 2.0, tol=1e-10)
        assert np.mean(np.exp((np.abs(x) / c) ** 2)) <= 2.0 + 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            psi_alpha_norm([], 1.0)
        with pytest.raises(InvalidInputError):
            psi_alpha_norm([1.0, np.inf], 1.0)
        with pytest.raises(InvalidInputError):
            psi_alpha_norm([1.0], 0.5)

    @pytest.fixture
    def bounded_moments(self, monkeypatch):
        # a bisection that cannot end fails here instead of hanging the suite
        from oraclebench import concentration

        moment, calls = concentration._empirical_exp_moment, []

        def counted(*args):
            calls.append(None)
            if len(calls) > 10_000:
                raise RuntimeError("the bisection does not end")
            return moment(*args)

        monkeypatch.setattr(concentration, "_empirical_exp_moment", counted)

    def test_ends_where_float_spacing_exceeds_tol(self, bounded_moments):
        # near 1.4e7 floats lie 1.9e-9 apart, so the bracket never gets within the default tol of 1e-9
        assert psi_alpha_norm([1e7, 1e7], 1.0) == pytest.approx(1e7 * LOG2_INV, rel=1e-15)

    def test_bracket_that_overflows_is_an_error(self, bounded_moments):
        # exp(1) > 2 at c = 1e308, and doubling c overflows to inf
        with pytest.raises(InvalidInputError, match="bracket"):
            psi_alpha_norm([1e308], 1.0)


class TestEnvelopePsi1:
    def test_all_zero_class(self):
        assert envelope_psi1(np.zeros((3, 4))) == 0.0

    def test_single_replication_constant(self):
        # per-sample maxima (1,1,1): psi_1 norm of the constant 1
        assert envelope_psi1(np.array([[1.0, 1.0, 1.0]])) == pytest.approx(LOG2_INV, abs=1e-8)

    def test_bounded_class_dominated(self):
        rng = np.random.default_rng(3)
        bound = 2.5
        values = rng.uniform(0, bound, size=(50, 10))
        assert envelope_psi1(values) <= bound * LOG2_INV + 1e-8

    def test_ragged_rejected(self):
        with pytest.raises(InvalidInputError):
            envelope_psi1([[1.0, 2.0], [1.0]])


class TestBernstein:
    def test_zero_diameter(self):
        assert bernstein_from_psi1(0.0, 100) == 0.0

    def test_unit_inputs(self):
        assert bernstein_from_psi1(1.0, 1) == pytest.approx(1.0)

    def test_linear_in_diameter(self):
        a = bernstein_from_psi1(1.0, 50)
        b = bernstein_from_psi1(2.0, 50)
        assert b == pytest.approx(2 * a)

    def test_verify_zero_samples(self):
        assert bernstein_verify(np.zeros(10), 0.0, 1.0)

    def test_verify_constant_ones(self):
        # 1 <= 2*(1/ln2)*1 + (4 + 24/ln(2)^2)/e^2
        assert bernstein_verify(np.ones(10), LOG2_INV, math.e)

    def test_verify_exponential_analytic(self):
        # unit-rate exponential: EX = 1, EX^2 = 2, psi_1 norm 2
        rng = np.random.default_rng(4)
        samples = rng.exponential(1.0, size=10**5)
        assert bernstein_verify(samples, 2.0, math.e)

    def test_verify_universal_on_random_data(self):
        rng = np.random.default_rng(5)
        for i in range(60):
            kind = i % 3
            if kind == 0:
                samples = rng.exponential(rng.uniform(0.1, 3.0), size=200)
            elif kind == 1:
                samples = rng.uniform(0, rng.uniform(0.5, 5.0), size=200)
            else:
                samples = np.abs(rng.standard_normal(200)) * rng.uniform(0.1, 2.0)
            psi1 = psi_alpha_norm(samples, 1.0, tol=1e-8)
            assert bernstein_verify(samples, psi1, z=float(len(samples)))

    def test_verify_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            bernstein_verify([-1.0, 2.0], 1.0, 1.0)
