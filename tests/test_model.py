import warnings

import numpy as np
import pytest

from oraclebench import (
    FiniteModel,
    InvalidInputError,
    LossSpec,
    Sample,
    empirical_risk,
    erm_finite,
    risk_estimate,
)


class TestEmpiricalRisk:
    def test_zero_losses(self):
        assert empirical_risk([0.0, 0.0, 0.0, 0.0]) == 0.0

    def test_arithmetic_mean(self):
        assert empirical_risk([1.0, 3.0]) == 2.0

    def test_direct_lq_evaluation(self):
        # q=2, one sample x=1, y=3, beta=1: |3 - 1|^2 = 4
        loss = LossSpec.lq(2)
        assert empirical_risk(loss.per_sample(np.array([1.0]), np.array([3.0]))) == 4.0

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            empirical_risk([1.0, np.inf])
        with pytest.raises(InvalidInputError):
            empirical_risk([1.0, np.nan])

    def test_rejects_negative_and_empty(self):
        with pytest.raises(InvalidInputError):
            empirical_risk([-0.1, 1.0])
        with pytest.raises(InvalidInputError):
            empirical_risk([])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            losses = rng.exponential(1.0, size=17)
            assert empirical_risk(losses) == pytest.approx(
                empirical_risk(rng.permutation(losses)), rel=1e-14
            )

    def test_zero_one_risk_in_unit_interval(self):
        rng = np.random.default_rng(1)
        loss = LossSpec.zero_one()
        for _ in range(20):
            preds = rng.choice([-1.0, 1.0], size=30)
            ys = rng.choice([-1.0, 1.0], size=30)
            value = empirical_risk(loss.per_sample(preds, ys))
            assert 0.0 <= value <= 1.0
            assert np.all(np.isin(loss.per_sample(preds, ys), (0.0, 1.0)))

    def test_lq_homogeneity(self):
        rng = np.random.default_rng(2)
        preds = rng.standard_normal(25)
        ys = rng.standard_normal(25)
        for q in (2.0, 3.0, 4.0):
            loss = LossSpec.lq(q)
            base = empirical_risk(loss.per_sample(preds, ys))
            for c in (0.0, 0.5, 2.0):
                scaled = empirical_risk(loss.per_sample(c * preds, c * ys))
                assert scaled == pytest.approx(c**q * base, rel=1e-12, abs=1e-300)


class TestErmFinite:
    def test_single_function(self):
        model = FiniteModel(predictions=np.array([[1.0, 1.0]]))
        assert erm_finite(model, np.array([1.0, -1.0]), LossSpec.zero_one()) == 0

    def test_strict_minimizer(self):
        # second row fits responses exactly
        preds = np.array([[0.0, 0.0], [1.0, 2.0]])
        model = FiniteModel(predictions=preds)
        assert erm_finite(model, np.array([1.0, 2.0]), LossSpec.lq(2)) == 1

    def test_tie_breaks_to_lowest_index(self):
        preds = np.array([[1.0, -1.0], [-1.0, 1.0]])
        model = FiniteModel(predictions=preds)
        # both predictors err on exactly one point
        assert erm_finite(model, np.array([1.0, 1.0]), LossSpec.zero_one()) == 0

    def test_append_worse_function_keeps_index(self):
        rng = np.random.default_rng(3)
        loss = LossSpec.lq(2)
        ys = rng.standard_normal(12)
        preds = rng.standard_normal((4, 12))
        model = FiniteModel(predictions=preds)
        j = erm_finite(model, ys, loss)
        worse = ys + 100.0  # empirical risk far above all rows
        bigger = FiniteModel(predictions=np.vstack([preds, worse]))
        assert erm_finite(bigger, ys, loss) == j

    def test_slack_selects_earlier_index(self):
        preds = np.array([[0.5, 0.5], [0.0, 0.0]])
        model = FiniteModel(predictions=preds)
        ys = np.array([0.0, 0.0])
        assert erm_finite(model, ys, LossSpec.lq(2)) == 1
        assert erm_finite(model, ys, LossSpec.lq(2), slack=0.3) == 0

    def test_matches_the_per_row_loop(self):
        # reference: each predictor's empirical risk on its own, lowest index among the minimizers
        rng = np.random.default_rng(4)
        for loss in (LossSpec.lq(2), LossSpec.lq(3.5), LossSpec.zero_one()):
            for _ in range(50):
                m, n = int(rng.integers(1, 8)), int(rng.integers(1, 40))
                preds, ys = rng.standard_normal((m, n)), rng.standard_normal(n)
                if loss.is_zero_one:
                    preds, ys = np.sign(preds), np.where(ys > 0, 1.0, -1.0)
                risks = [empirical_risk(loss.per_sample(row, ys)) for row in preds]
                assert erm_finite(FiniteModel(predictions=preds), ys, loss) == int(np.argmin(risks))

    def test_wrong_response_length_rejected(self):
        model = FiniteModel(predictions=np.zeros((2, 3)))
        with pytest.raises(InvalidInputError):
            erm_finite(model, np.zeros(2), LossSpec.lq(2))

    def test_overflowing_loss_rejected(self):
        # |1e200|^4 overflows to inf, which is rejected without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                erm_finite(FiniteModel(predictions=[[1e200]]), [0.0], LossSpec.lq(4))

    def test_nan_slack_rejected(self):
        model = FiniteModel(predictions=np.array([[1.0, 1.0], [-1.0, -1.0]]))
        with pytest.raises(InvalidInputError, match="slack"):
            erm_finite(model, np.array([1.0, -1.0]), LossSpec.zero_one(), slack=float("nan"))

    def test_infinite_slack_picks_index_0(self):
        model = FiniteModel(predictions=np.array([[1.0, 1.0], [-1.0, -1.0]]))
        assert erm_finite(model, np.array([-1.0, -1.0]), LossSpec.zero_one(), slack=float("inf")) == 0

    def test_nan_response_rejected(self):
        model = FiniteModel(predictions=np.zeros((2, 3)))
        for loss in (LossSpec.lq(2), LossSpec.zero_one()):
            with pytest.raises(InvalidInputError):
                erm_finite(model, np.array([1.0, np.nan, 1.0]), loss)

    @pytest.mark.parametrize("bad", [0.5, 0.0])
    def test_zero_one_rejects_non_sign_responses(self, bad):
        model = FiniteModel(predictions=np.ones((2, 3)))
        with pytest.raises(InvalidInputError):
            erm_finite(model, np.array([1.0, bad, -1.0]), LossSpec.zero_one())

    def test_empty_model_rejected(self):
        with pytest.raises(InvalidInputError):
            FiniteModel(predictions=np.empty((0, 3)))
        # the old per-row path rejected an empty sample through empirical_risk
        with pytest.raises(InvalidInputError):
            FiniteModel(predictions=np.empty((2, 0)))


class TestPerSample:
    @pytest.mark.parametrize("loss", [LossSpec.lq(2), LossSpec.lq(3.5), LossSpec.zero_one()],
                             ids=["L2", "L3.5", "zero_one"])
    def test_matrix_against_vector_matches_row_by_row(self, loss):
        rng = np.random.default_rng(5)
        preds, ys = rng.standard_normal((4, 9)), rng.standard_normal(9)
        if loss.is_zero_one:
            preds, ys = np.sign(preds), np.where(ys > 0, 1.0, -1.0)
        rows = np.vstack([loss.per_sample(row, ys) for row in preds])
        assert np.array_equal(loss.per_sample(preds, ys), rows)

    @pytest.mark.parametrize("preds, ys", [
        (np.zeros((2, 3)), np.zeros(2)),
        (np.zeros((2, 3)), np.zeros((3, 2))),
        (np.zeros(3), np.zeros((1, 3))),
        (np.zeros((2, 3)), np.float64(0.0)),
        (np.float64(0.0), np.float64(0.0)),
    ])
    def test_rejects_shape_mismatch_and_0d_responses(self, preds, ys):
        with pytest.raises(InvalidInputError, match="trailing shape"):
            LossSpec.lq(2).per_sample(preds, ys)


class TestRiskEstimate:
    def test_overflowing_loss_rejected_without_warning(self):
        def generator(rng, size):
            return np.zeros((size, 1)), np.zeros(size)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                risk_estimate(lambda x: np.full(len(x), 1e200), generator, LossSpec.lq(4), 10, 0)

    def test_perfect_predictor(self):
        def generator(rng, size):
            x = rng.standard_normal((size, 1))
            return x, x[:, 0]

        est = risk_estimate(lambda x: x[:, 0], generator, LossSpec.lq(2), 100, 5)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_agreeing_sign_predictor(self):
        def generator(rng, size):
            x = rng.standard_normal((size, 1))
            return x, np.where(x[:, 0] > 0, 1.0, -1.0)

        est = risk_estimate(
            lambda x: np.where(x[:, 0] > 0, 1.0, -1.0), generator, LossSpec.zero_one(), 500, 6
        )
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_gaussian_second_moment(self):
        # y = standard normal noise, predictor 0: E[y^2] = 1
        def generator(rng, size):
            return np.zeros((size, 1)), rng.standard_normal(size)

        est = risk_estimate(lambda x: np.zeros(len(x)), generator, LossSpec.lq(2), 10**5, 7)
        assert abs(est.mean - 1.0) <= 4 * est.stderr

    def test_small_test_size_rejected(self):
        with pytest.raises(InvalidInputError):
            risk_estimate(lambda x: x, lambda rng, size: (np.zeros((size, 1)), np.zeros(size)), LossSpec.lq(2), 1, 0)

    def test_deterministic_given_seed(self):
        def generator(rng, size):
            return np.zeros((size, 1)), rng.standard_normal(size)

        a = risk_estimate(lambda x: np.zeros(len(x)), generator, LossSpec.lq(2), 50, 11)
        b = risk_estimate(lambda x: np.zeros(len(x)), generator, LossSpec.lq(2), 50, 11)
        assert a == b


class TestContainers:
    def test_sample_validation(self):
        with pytest.raises(InvalidInputError):
            Sample(design=np.ones((2, 2)), response=np.ones(3))
        with pytest.raises(InvalidInputError):
            Sample(design=np.array([[np.nan]]), response=np.array([1.0]))

    def test_sample_immutable(self):
        s = Sample(design=np.ones((2, 2)), response=np.ones(2))
        with pytest.raises(ValueError):
            s.design[0, 0] = 7.0

    def test_loss_spec_validation(self):
        with pytest.raises(InvalidInputError):
            LossSpec.lq(1.5)
        with pytest.raises(InvalidInputError):
            LossSpec.zero_one().per_sample(np.array([1.0]), np.array([0.5]))

    def test_true_risks_validation(self):
        with pytest.raises(InvalidInputError):
            FiniteModel(predictions=np.ones((2, 3)), true_risks=np.array([0.1]))
        with pytest.raises(InvalidInputError):
            FiniteModel(predictions=np.ones((1, 3)), true_risks=np.array([-0.1]))
