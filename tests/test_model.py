import warnings

import numpy as np
import pytest

from oraclebench import (
    InvalidInputError,
    LossSpec,
    Sample,
    empirical_risk,
    erm_finite,
    histogram_risks,
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
    # a sample given point by point is the histogram np.ones(n) over its n points
    def test_single_function(self):
        losses = LossSpec.zero_one().per_sample(np.array([[1.0, 1.0]]), np.array([1.0, -1.0]))
        assert erm_finite(losses, np.ones(2)) == 0

    def test_strict_minimizer(self):
        # second row fits responses exactly
        preds = np.array([[0.0, 0.0], [1.0, 2.0]])
        assert erm_finite(LossSpec.lq(2).per_sample(preds, np.array([1.0, 2.0])), np.ones(2)) == 1

    def test_tie_breaks_to_lowest_index(self):
        preds = np.array([[1.0, -1.0], [-1.0, 1.0]])
        # both predictors err on exactly one point
        assert erm_finite(LossSpec.zero_one().per_sample(preds, np.array([1.0, 1.0])), np.ones(2)) == 0

    def test_append_worse_function_keeps_index(self):
        rng = np.random.default_rng(3)
        loss = LossSpec.lq(2)
        ys = rng.standard_normal(12)
        preds = rng.standard_normal((4, 12))
        j = erm_finite(loss.per_sample(preds, ys), np.ones(12))
        worse = ys + 100.0  # empirical risk far above all rows
        assert erm_finite(loss.per_sample(np.vstack([preds, worse]), ys), np.ones(12)) == j

    def test_slack_selects_earlier_index(self):
        preds = np.array([[0.5, 0.5], [0.0, 0.0]])
        ys = np.array([0.0, 0.0])
        assert erm_finite(LossSpec.lq(2).per_sample(preds, ys), np.ones(2)) == 1

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
                assert erm_finite(loss.per_sample(preds, ys), np.ones(n)) == int(np.argmin(risks))

    def test_wrong_response_length_rejected(self):
        # one response per point, checked when the loss table is built
        with pytest.raises(InvalidInputError):
            erm_finite(LossSpec.lq(2).per_sample(np.zeros((2, 3)), np.zeros(2)), np.ones(3))

    @pytest.mark.parametrize("losses, counts", [
        (np.zeros((2, 3)), np.ones(2)),
        (np.zeros((2, 3)), np.ones(4)),
        (np.zeros((2, 3)), np.ones((1, 3))),
        (np.zeros(3), np.ones(3)),
        (np.zeros((2, 3, 1)), np.ones(3)),
        (np.zeros((0, 3)), np.ones(3)),
        (np.zeros((2, 3)), np.array([1.0, -1.0, 2.0])),
        (np.zeros((2, 3)), np.array([1, -1, 2])),
        (np.zeros((2, 3)), np.array([1.0, 0.5, 2.0])),
        (np.zeros((2, 3)), np.array([1.0, np.nan, 2.0])),
        (np.zeros((2, 3)), np.array([1.0, np.inf, 2.0])),
        (np.zeros((2, 3)), np.zeros(3)),
        (np.zeros((2, 3)), np.zeros(3, dtype=int)),
        (np.array([[0.0, np.nan], [1.0, 1.0]]), np.ones(2)),
        (np.array([[-1.0, 0.0], [1.0, 1.0]]), np.ones(2)),
    ], ids=["counts-too-short", "counts-too-long", "counts-2d", "losses-1d", "losses-3d", "no-functions",
            "negative-float-count", "negative-int-count", "non-integer-count", "nan-count", "inf-count",
            "all-zero-float-counts", "all-zero-int-counts", "nan-loss", "negative-loss"])
    def test_bad_shapes_counts_and_losses_rejected(self, losses, counts):
        with pytest.raises(InvalidInputError):
            erm_finite(losses, counts)

    def test_overflowing_loss_rejected(self):
        # |1e200|^4 overflows to inf, which is rejected without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                erm_finite(LossSpec.lq(4).per_sample(np.array([[1e200]]), np.array([0.0])), np.ones(1))
            # an infinite loss at a point that does not occur gives 0 * inf = NaN, also without a warning
            with pytest.raises(InvalidInputError):
                erm_finite(np.array([[np.inf, 0.0]]), [0, 1])

    def test_nan_response_rejected(self):
        for loss in (LossSpec.lq(2), LossSpec.zero_one()):
            with pytest.raises(InvalidInputError):
                erm_finite(loss.per_sample(np.zeros((2, 3)), np.array([1.0, np.nan, 1.0])), np.ones(3))


    @pytest.mark.parametrize("bad", [0.5, 0.0])
    def test_zero_one_rejects_non_sign_responses(self, bad):
        # non-sign responses are rejected when the loss table is built
        with pytest.raises(InvalidInputError):
            erm_finite(LossSpec.zero_one().per_sample(np.ones((2, 3)), np.array([1.0, bad, -1.0])), np.ones(3))

    def test_empty_model_rejected(self):
        # a dictionary with no functions, or a loss table with no points, has no minimizer
        with pytest.raises(InvalidInputError):
            erm_finite(np.empty((0, 3)), np.ones(3))
        with pytest.raises(InvalidInputError):
            erm_finite(np.empty((2, 0)), np.ones(0))


class TestHistogramRisks:
    """The histogram of a sample scores a sign dictionary exactly as its expanded (M, n) loss matrix."""

    @staticmethod
    def _expanded_and_histogram(rng, m, cells, n, p_plus=0.5):
        # distinct points: cell c labelled +1 is point c, labelled -1 is point cells + c
        patterns = rng.choice([-1.0, 1.0], size=(m, cells))
        cell = rng.integers(0, cells, size=n)
        labels = np.where(rng.random(n) < p_plus, 1.0, -1.0)
        loss = LossSpec.zero_one()
        expanded = loss.per_sample(patterns[:, cell], labels).mean(axis=1)
        table = loss.per_sample(np.hstack([patterns, patterns]), np.repeat([1.0, -1.0], cells))
        counts = np.bincount(cell + cells * (labels < 0), minlength=2 * cells)
        return expanded, table, counts

    def test_bit_identical_to_the_expanded_mean(self):
        rng = np.random.default_rng(2012)
        for _ in range(200):
            m, cells = int(rng.integers(1, 9)), int(rng.integers(1, 65))
            n = int(rng.choice([1, 2, 3, 4096, rng.integers(1, 4097)]))
            expanded, table, counts = self._expanded_and_histogram(rng, m, cells, n, rng.uniform(0.05, 0.95))
            risks = histogram_risks(table, counts)
            assert np.array_equal(risks, expanded)
            assert erm_finite(table, counts) == int(np.argmin(expanded))

    @pytest.mark.parametrize("n", [2, 64, 4096])
    def test_exact_tie_goes_to_index_0(self, n):
        # the constant predictors +1 and -1 on an even sample with exactly n / 2 labels +1
        labels = np.repeat([1.0, -1.0], n // 2)
        preds = np.vstack([np.ones(n), -np.ones(n)])
        expanded = LossSpec.zero_one().per_sample(preds, labels).mean(axis=1)
        table = LossSpec.zero_one().per_sample(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([1.0, -1.0]))
        risks = histogram_risks(table, [n // 2, n // 2])
        assert np.array_equal(risks, expanded) and risks[0] == risks[1] == 0.5
        assert erm_finite(table, [n // 2, n // 2]) == int(np.argmin(expanded)) == 0


class TestHistogramMatrix:
    """A (points, samples) count matrix scores each column as the one-histogram call on it alone."""

    def test_each_column_equals_the_vector_call(self):
        rng = np.random.default_rng(2013)
        loss = LossSpec.zero_one()
        for _ in range(100):
            m, cells, samples = int(rng.integers(1, 9)), int(rng.integers(1, 65)), int(rng.integers(1, 40))
            patterns = rng.choice([-1.0, 1.0], size=(m, cells))
            table = loss.per_sample(np.hstack([patterns, patterns]), np.repeat([1.0, -1.0], cells))
            n = int(rng.choice([1, 2, 4096, rng.integers(1, 4097)]))
            counts = np.stack([np.bincount(rng.integers(0, 2 * cells, size=n), minlength=2 * cells)
                               for _ in range(samples)], axis=1)
            risks, picks = histogram_risks(table, counts), erm_finite(table, counts)
            assert risks.shape == (m, samples) and picks.shape == (samples,)
            for k in range(samples):
                assert np.array_equal(risks[:, k], histogram_risks(table, counts[:, k]))
                assert picks[k] == erm_finite(table, counts[:, k])

    def test_integer_and_float_counts_give_the_same_bits(self):
        # integer counts are scored as floats, which takes the BLAS product; both equal numpy's exact
        # integer-float product, since every dot product of 0-1 losses with counts is an integer below 2**53
        rng = np.random.default_rng(2014)
        patterns = rng.choice([-1.0, 1.0], size=(8, 256))
        table = LossSpec.zero_one().per_sample(np.hstack([patterns, patterns]), np.repeat([1.0, -1.0], 256))
        counts = np.stack([np.bincount(rng.integers(0, 512, size=n), minlength=512)
                           for n in rng.integers(1, 4097, size=256)], axis=1)
        assert counts.shape == (512, 256) and counts.dtype.kind == "i"
        risks = histogram_risks(table, counts)
        assert risks.tobytes() == histogram_risks(table, counts.astype(float)).tobytes()
        assert risks.tobytes() == (table @ counts / counts.sum(axis=0)).tobytes()

    @pytest.mark.parametrize("counts", [
        np.array([[3, 0], [1, 0]]),
        np.array([[3.0, 0.0], [1.0, 0.0]]),
        np.array([[3, 2], [1, -1]]),
        np.array([[3.0, 2.0], [1.0, -1.0]]),
        np.array([[3.0, 2.0], [1.0, 0.5]]),
        np.empty((2, 0), dtype=int),
        np.ones((2, 2, 1), dtype=int),
    ], ids=["zero-total-int", "zero-total-float", "negative-int", "negative-float", "non-integer", "no-samples",
            "counts-3d"])
    def test_bad_column_rejected(self, counts):
        table = LossSpec.zero_one().per_sample(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([1.0, -1.0]))
        for fn in (histogram_risks, erm_finite):
            with pytest.raises(InvalidInputError):
                fn(table, counts)

    def test_exact_tie_goes_to_index_0_in_every_column(self):
        # the constant predictors +1 and -1, each column an even sample with exactly half its labels +1
        table = LossSpec.zero_one().per_sample(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([1.0, -1.0]))
        halves = np.array([1, 32, 2048])
        risks = histogram_risks(table, np.vstack([halves, halves]))
        assert np.all(risks == 0.5)
        assert np.array_equal(erm_finite(table, np.vstack([halves, halves])), [0, 0, 0])


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
