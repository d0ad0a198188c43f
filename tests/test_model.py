import warnings

import numpy as np
import pytest

from oraclebench import (
    InvalidInputError,
    RiskEstimate,
    Sample,
    erm_finite,
    histogram_risks,
    risk_estimate,
)


class TestEmpiricalRisk:
    """``histogram_risks`` is the empirical risk: the mean of each predictor's losses over the sample's points."""

    def test_zero_losses(self):
        assert np.array_equal(histogram_risks(np.zeros((1, 4)), np.ones(4)), [0.0])

    def test_arithmetic_mean(self):
        assert histogram_risks([[1.0, 3.0]], [1, 1])[0] == 2.0

    def test_direct_lq_evaluation(self):
        # q=2, one sample x=1, y=3, beta=1: |3 - 1|^2 = 4
        assert histogram_risks(np.abs(np.array([[3.0]]) - 1.0) ** 2, [1])[0] == 4.0

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            histogram_risks([[1.0, np.inf]], [1, 1])
        with pytest.raises(InvalidInputError):
            histogram_risks([[1.0, np.nan]], [1, 1])

    def test_rejects_negative_and_empty(self):
        # a negative loss is rejected, as is a table with no points
        with pytest.raises(InvalidInputError):
            histogram_risks([[-1.0, 0.5]], [1, 1])
        with pytest.raises(InvalidInputError):
            histogram_risks(np.empty((1, 0)), np.ones(0))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            losses, counts, order = rng.exponential(1.0, size=(1, 17)), rng.integers(1, 5, size=17), rng.permutation(17)
            assert histogram_risks(losses, counts) == pytest.approx(
                histogram_risks(losses[:, order], counts[order]), rel=1e-14
            )

    def test_zero_one_risk_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            preds = rng.choice([-1.0, 1.0], size=(1, 30))
            ys = rng.choice([-1.0, 1.0], size=30)
            value = histogram_risks((preds * ys <= 0).astype(float), np.ones(30))[0]
            assert 0.0 <= value <= 1.0

    def test_lq_homogeneity(self):
        rng = np.random.default_rng(2)
        preds = rng.standard_normal((1, 25))
        ys = rng.standard_normal(25)
        for q in (2.0, 3.0, 4.0):
            base = histogram_risks(np.abs(ys - preds) ** q, np.ones(25))[0]
            for c in (0.0, 0.5, 2.0):
                scaled = histogram_risks(np.abs(c * ys - c * preds) ** q, np.ones(25))[0]
                assert scaled == pytest.approx(c**q * base, rel=1e-12, abs=1e-300)


class TestErmFinite:
    # a sample given point by point is the histogram np.ones(n) over its n points
    def test_single_function(self):
        # the 0-1 losses of the constant predictor +1 at labels +1 and -1
        assert erm_finite(np.array([[0.0, 1.0]]), np.ones(2)) == 0

    def test_strict_minimizer(self):
        # second row fits responses exactly
        preds = np.array([[0.0, 0.0], [1.0, 2.0]])
        assert erm_finite((np.array([1.0, 2.0]) - preds) ** 2, np.ones(2)) == 1

    def test_tie_breaks_to_lowest_index(self):
        preds = np.array([[1.0, -1.0], [-1.0, 1.0]])
        # both predictors err on exactly one point
        assert erm_finite((preds * np.array([1.0, 1.0]) <= 0).astype(float), np.ones(2)) == 0

    def test_append_worse_function_keeps_index(self):
        rng = np.random.default_rng(3)
        ys = rng.standard_normal(12)
        preds = rng.standard_normal((4, 12))
        j = erm_finite((ys - preds) ** 2, np.ones(12))
        worse = ys + 100.0  # empirical risk far above all rows
        assert erm_finite((ys - np.vstack([preds, worse])) ** 2, np.ones(12)) == j

    def test_slack_selects_earlier_index(self):
        preds = np.array([[0.5, 0.5], [0.0, 0.0]])
        ys = np.array([0.0, 0.0])
        assert erm_finite((ys - preds) ** 2, np.ones(2)) == 1

    def test_matches_the_per_row_loop(self):
        # reference: each predictor's empirical risk on its own, lowest index among the minimizers
        rng = np.random.default_rng(4)
        for q in (2.0, 3.5, None):  # None: the 0-1 loss of sign predictors at sign labels
            for _ in range(50):
                m, n = int(rng.integers(1, 8)), int(rng.integers(1, 40))
                preds, ys = rng.standard_normal((m, n)), rng.standard_normal(n)
                if q is None:
                    preds, ys = np.sign(preds), np.where(ys > 0, 1.0, -1.0)
                table = (preds * ys <= 0).astype(float) if q is None else np.abs(ys - preds) ** q
                risks = [np.mean(row) for row in table]
                assert erm_finite(table, np.ones(n)) == int(np.argmin(risks))

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
        (np.array([[-0.1, 1.0]]), [1, 1]),
    ], ids=["counts-too-short", "counts-too-long", "counts-2d", "losses-1d", "losses-3d", "no-functions",
            "negative-float-count", "negative-int-count", "non-integer-count", "nan-count", "inf-count",
            "all-zero-float-counts", "all-zero-int-counts", "nan-loss", "negative-loss",
            "negative-loss-nonnegative-risk"])
    def test_bad_shapes_counts_and_losses_rejected(self, losses, counts):
        with pytest.raises(InvalidInputError):
            erm_finite(losses, counts)

    def test_overflowing_loss_rejected(self):
        # an infinite loss, as from an overflowing |r|^q, is rejected without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                erm_finite(np.array([[np.inf]]), np.ones(1))
            # an infinite loss at a point that does not occur gives 0 * inf = NaN, also without a warning
            with pytest.raises(InvalidInputError):
                erm_finite(np.array([[np.inf, 0.0]]), [0, 1])

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
        expanded = (patterns[:, cell] * labels <= 0).astype(float).mean(axis=1)
        table = (np.hstack([patterns, patterns]) * np.repeat([1.0, -1.0], cells) <= 0).astype(float)
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
        expanded = (preds * labels <= 0).astype(float).mean(axis=1)
        table = np.array([[0.0, 1.0], [1.0, 0.0]])
        risks = histogram_risks(table, [n // 2, n // 2])
        assert np.array_equal(risks, expanded) and risks[0] == risks[1] == 0.5
        assert erm_finite(table, [n // 2, n // 2]) == int(np.argmin(expanded)) == 0


class TestHistogramMatrix:
    """A (points, samples) count matrix scores each column as the one-histogram call on it alone."""

    def test_each_column_equals_the_vector_call(self):
        rng = np.random.default_rng(2013)
        for _ in range(100):
            m, cells, samples = int(rng.integers(1, 9)), int(rng.integers(1, 65)), int(rng.integers(1, 40))
            patterns = rng.choice([-1.0, 1.0], size=(m, cells))
            table = (np.hstack([patterns, patterns]) * np.repeat([1.0, -1.0], cells) <= 0).astype(float)
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
        table = (np.hstack([patterns, patterns]) * np.repeat([1.0, -1.0], 256) <= 0).astype(float)
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
        # the 0-1 losses of the constant predictors +1 and -1 at labels +1 and -1
        table = np.array([[0.0, 1.0], [1.0, 0.0]])
        for fn in (histogram_risks, erm_finite):
            with pytest.raises(InvalidInputError):
                fn(table, counts)

    def test_exact_tie_goes_to_index_0_in_every_column(self):
        # the constant predictors +1 and -1, each column an even sample with exactly half its labels +1
        # the 0-1 losses of the constant predictors +1 and -1 at labels +1 and -1
        table = np.array([[0.0, 1.0], [1.0, 0.0]])
        halves = np.array([1, 32, 2048])
        risks = histogram_risks(table, np.vstack([halves, halves]))
        assert np.all(risks == 0.5)
        assert np.array_equal(erm_finite(table, np.vstack([halves, halves])), [0, 0, 0])


class TestRiskEstimate:
    def test_overflowing_loss_rejected_without_warning(self):
        def generator(rng, size):
            return np.zeros((size, 1)), np.zeros(size)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                risk_estimate(lambda x: np.full(len(x), 1e200), generator, 4, 10, 0)

    def test_perfect_predictor(self):
        def generator(rng, size):
            x = rng.standard_normal((size, 1))
            return x, x[:, 0]

        est = risk_estimate(lambda x: x[:, 0], generator, 2, 100, 5)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_gaussian_second_moment(self):
        # y = standard normal noise, predictor 0: E[y^2] = 1
        def generator(rng, size):
            return np.zeros((size, 1)), rng.standard_normal(size)

        est = risk_estimate(lambda x: np.zeros(len(x)), generator, 2, 10**5, 7)
        assert abs(est.mean - 1.0) <= 4 * est.stderr

    @pytest.mark.parametrize("q", [np.nan, np.inf, 1.5], ids=["nan", "inf", "1.5"])
    def test_q_not_finite_and_at_least_2_rejected_naming_q(self, q):
        with pytest.raises(InvalidInputError, match=r"\bq\b"):
            risk_estimate(lambda x: x[:, 0], lambda rng, size: (np.zeros((size, 1)), np.zeros(size)), q, 10, 0)

    @pytest.mark.parametrize("predictor, response", [
        (lambda x: x, 0.0),
        (lambda x: np.zeros(len(x) - 1), 0.0),
        (lambda x: x[:, 0], np.nan),
        (lambda x: np.full(len(x), np.inf), np.inf),
    ], ids=["n-by-1-predictions", "short-predictions", "nan-response", "inf-minus-inf"])
    def test_mismatched_or_non_finite_inputs_rejected(self, predictor, response):
        # an (n, 1) prediction would broadcast against n responses to an (n, n) loss matrix
        with pytest.raises(InvalidInputError):
            risk_estimate(predictor, lambda rng, size: (np.zeros((size, 1)), np.full(size, response)), 2, 10, 0)

    def test_small_test_size_rejected(self):
        with pytest.raises(InvalidInputError):
            risk_estimate(lambda x: x, lambda rng, size: (np.zeros((size, 1)), np.zeros(size)), 2, 1, 0)

    def test_deterministic_given_seed(self):
        def generator(rng, size):
            return np.zeros((size, 1)), rng.standard_normal(size)

        a = risk_estimate(lambda x: np.zeros(len(x)), generator, 2, 50, 11)
        b = risk_estimate(lambda x: np.zeros(len(x)), generator, 2, 50, 11)
        assert a == b


class TestContainers:
    def test_sample_validation(self):
        with pytest.raises(InvalidInputError):
            Sample(design=np.ones((2, 2)), response=np.ones(3))
        with pytest.raises(InvalidInputError):
            Sample(design=np.array([[np.nan]]), response=np.array([1.0]))

    @pytest.mark.parametrize("build", [
        lambda: Sample(design=np.ones(3), response=np.ones(3)),
        lambda: Sample(design=np.ones((0, 2)), response=np.ones(0)),
        lambda: RiskEstimate(mean=1.0, stderr=-0.1),
    ], ids=["sample-1d-design", "sample-zero-rows", "risk-estimate-negative-stderr"])
    def test_malformed_container_rejected(self, build):
        with pytest.raises(InvalidInputError):
            build()

    def test_sample_immutable(self):
        s = Sample(design=np.ones((2, 2)), response=np.ones(2))
        with pytest.raises(ValueError):
            s.design[0, 0] = 7.0

    def test_sample_takes_over_an_owned_float_array(self):
        # a float64 array that owns its memory is not copied but made read-only in place; a view, or an array of
        # another dtype, is copied and left as it was
        design, response = np.ones((3, 2)), np.ones(3)
        s = Sample(design=design, response=response)
        assert np.shares_memory(s.design, design) and not design.flags.writeable
        view, counts = np.ones((4, 2))[1:], np.arange(3)
        s = Sample(design=view, response=counts)
        assert not np.shares_memory(s.design, view) and view.flags.writeable and counts.flags.writeable
        assert s.response.dtype == np.float64 and not s.response.flags.writeable
