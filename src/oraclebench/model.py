"""Data containers, loss evaluation, and exact ERM over finite dictionaries.

Conventions used throughout the package:

* risks are means of nonnegative per-sample losses,
* binary labels live in {-1, +1} and a sign mismatch costs 1,
* every container is immutable after construction, so all operations here
  are pure functions and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "Sample",
    "LossSpec",
    "FiniteModel",
    "RiskEstimate",
    "empirical_risk",
    "erm_finite",
    "risk_estimate",
]


def _as_readonly_float_array(values, name, ndim):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != ndim:
        raise InvalidInputError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Sample:
    """A regression dataset: an n x d design matrix plus n responses."""

    design: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        design = _as_readonly_float_array(self.design, "design", 2)
        response = _as_readonly_float_array(self.response, "response", 1)
        if design.shape[0] < 1 or design.shape[1] < 1:
            raise InvalidInputError("design must have at least one row and one column")
        if response.shape[0] != design.shape[0]:
            raise InvalidInputError(
                f"response length {response.shape[0]} != design rows {design.shape[0]}"
            )
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "response", response)

    @property
    def n(self):
        return self.design.shape[0]

    @property
    def d(self):
        return self.design.shape[1]


@dataclass(frozen=True)
class LossSpec:
    """Loss family: L_q with exponent q >= 2, or the 0-1 sign loss.

    For the 0-1 loss, responses must lie in {-1, +1} and predictions are
    sign-valued; the loss is 1 exactly when the signs differ.
    """

    kind: str
    q: float | None = None

    _LQ = "lq"
    _ZERO_ONE = "zero_one"

    def __post_init__(self):
        if self.kind == self._LQ:
            if self.q is None or not np.isfinite(self.q) or self.q < 2:
                raise InvalidInputError(f"L_q loss requires q >= 2, got {self.q}")
        elif self.kind == self._ZERO_ONE:
            if self.q is not None:
                raise InvalidInputError("zero-one loss takes no exponent")
        else:
            raise InvalidInputError(f"unknown loss kind {self.kind!r}")

    @classmethod
    def lq(cls, q):
        return cls(kind=cls._LQ, q=float(q))

    @classmethod
    def zero_one(cls):
        return cls(kind=cls._ZERO_ONE)

    @property
    def is_zero_one(self):
        return self.kind == self._ZERO_ONE

    def per_sample(self, predictions, responses):
        """Per-sample losses of predictions against responses.

        ``responses`` is at least 1-dimensional and its shape equals the
        trailing shape of ``predictions``; numpy broadcasts it, so an (M, n)
        prediction matrix against n responses gives the (M, n) losses of every
        row. Each input is checked once, at its own size. An ``|r|^q`` that
        overflows comes back as ``inf`` without a warning; ``empirical_risk``
        and ``erm_finite`` reject it.
        """
        predictions = np.asarray(predictions, dtype=float)
        responses = np.asarray(responses, dtype=float)
        if responses.ndim < 1 or predictions.shape[predictions.ndim - responses.ndim:] != responses.shape:
            raise InvalidInputError(
                f"responses shape {responses.shape} must equal the trailing shape of predictions {predictions.shape}"
            )
        if not np.isfinite(predictions).all() or not np.isfinite(responses).all():
            raise InvalidInputError("non-finite prediction or response")
        if self.is_zero_one:
            if not (np.abs(responses) == 1.0).all():
                raise InvalidInputError("zero-one loss requires responses in {-1,+1}")
            return (predictions * responses <= 0).astype(float)
        with np.errstate(over="ignore"):
            return np.abs(responses - predictions) ** self.q


@dataclass(frozen=True)
class FiniteModel:
    """A finite dictionary of predictors, stored as per-sample values.

    ``predictions[j, i]`` is the value of the j-th predictor at the i-th
    sample point. ``true_risks``, when supplied by a generator that knows the
    data distribution, holds the population risk of each predictor.
    """

    predictions: np.ndarray
    true_risks: np.ndarray | None = None

    def __post_init__(self):
        preds = _as_readonly_float_array(self.predictions, "predictions", 2)
        if preds.shape[0] < 1 or preds.shape[1] < 1:
            raise InvalidInputError("model must contain at least one function and one sample point")
        object.__setattr__(self, "predictions", preds)
        if self.true_risks is not None:
            risks = _as_readonly_float_array(self.true_risks, "true_risks", 1)
            if risks.shape[0] != preds.shape[0]:
                raise InvalidInputError("true_risks length must equal the model size")
            if np.any(risks < 0):
                raise InvalidInputError("true_risks must be nonnegative")
            object.__setattr__(self, "true_risks", risks)

    @property
    def size(self):
        return self.predictions.shape[0]


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo risk estimate: sample mean and its standard error."""

    mean: float
    stderr: float

    def __post_init__(self):
        if self.stderr < 0:
            raise InvalidInputError("stderr must be nonnegative")


def empirical_risk(losses):
    """Arithmetic mean of per-sample losses.

    Raises on empty, non-finite, or negative inputs.
    """
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 1 or losses.size < 1:
        raise InvalidInputError("losses must be a nonempty vector")
    if not np.all(np.isfinite(losses)):
        raise InvalidInputError("losses contain non-finite values")
    if np.any(losses < 0):
        raise InvalidInputError("losses must be nonnegative")
    return float(np.mean(losses))


def erm_finite(model, responses, loss):
    """Index of the empirical risk minimizer over a finite dictionary.

    ``responses`` holds one value per sample point, the last axis of
    ``model.predictions``. One loss evaluation scores every predictor, with
    the responses broadcast against the prediction matrix and each checked
    once. Returns the lowest-index exact minimizer, which keeps repeated runs
    reproducible.
    """
    if model.size < 1:
        raise InvalidInputError("empty model")
    responses = np.asarray(responses, dtype=float)
    if responses.shape != model.predictions.shape[1:]:
        raise InvalidInputError(f"responses must hold one value per sample point, got shape {responses.shape}")
    risks = loss.per_sample(model.predictions, responses).mean(axis=1)
    if not np.isfinite(risks).all():
        raise InvalidInputError("losses contain non-finite values")
    return int(np.argmin(risks))


def risk_estimate(predictor, generator, loss, test_size, rng):
    """Estimate a predictor's population risk on a fresh sample.

    ``generator(rng, size)`` must return a pair ``(X, y)`` of fresh draws;
    ``predictor(X)`` returns per-point predictions. The result is the sample
    mean of the losses with its standard error (ddof=1).
    """
    test_size = int(test_size)
    if test_size < 2:
        raise InvalidInputError("test_size must be >= 2")
    rng = np.random.default_rng(rng)
    design, responses = generator(rng, test_size)
    losses = loss.per_sample(np.asarray(predictor(design), dtype=float), responses)
    mean = empirical_risk(losses)
    stderr = float(np.std(losses, ddof=1) / np.sqrt(test_size))
    return RiskEstimate(mean=mean, stderr=stderr)
