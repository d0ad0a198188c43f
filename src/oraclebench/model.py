"""Data containers, exact ERM over finite dictionaries, and a Monte Carlo L_q risk reference.

Conventions used throughout the package:

* risks are means of nonnegative per-sample losses,
* a finite dictionary is given by its (functions, points) loss table at the
  distinct sample points and scored on the sample's histogram over them: the
  table times the count of each point, and many samples at once as one
  table-matrix product over their histograms; a caller that knows the data
  distribution keeps the population risks beside the table,
* every container is immutable after construction, so all operations here
  are pure functions and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "Sample",
    "RiskEstimate",
    "erm_finite",
    "histogram_risks",
    "risk_estimate",
]


def _as_readonly_float_array(values, name, ndims):
    # an array of floats that owns its memory is taken over, not copied; it turns read-only below
    owned = type(values) is np.ndarray and values.dtype == np.float64 and values.flags.owndata
    arr = values if owned else np.array(values, dtype=float)
    if arr.ndim not in ndims:
        raise InvalidInputError(f"{name} must be {' or '.join(map(str, ndims))}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Sample:
    """A regression dataset: an n x d design matrix plus n responses, or a stack of R of them, (R, n, d) and (R, n).

    Each array is copied, unless it is a float64 array that owns its memory: that one is taken over and made
    read-only in place.
    """

    design: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        design = _as_readonly_float_array(self.design, "design", (2, 3))
        response = _as_readonly_float_array(self.response, "response", (design.ndim - 1,))
        if 0 in design.shape:
            raise InvalidInputError("design must have at least one row and one column")
        if response.shape != design.shape[:-1]:
            raise InvalidInputError(f"response shape {response.shape} != design rows {design.shape[:-1]}")
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "response", response)

    @property
    def n(self):
        return self.design.shape[-2]

    @property
    def d(self):
        return self.design.shape[-1]


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo risk estimate: sample mean and its standard error."""

    mean: float
    stderr: float

    def __post_init__(self):
        if self.stderr < 0:
            raise InvalidInputError("stderr must be nonnegative")


def histogram_risks(losses, counts):
    """Empirical risks of a finite dictionary from the histograms of one or more samples.

    ``losses[j, i]`` is the loss of the j-th predictor at the i-th distinct
    point. ``counts`` is one sample's histogram, ``counts[i]`` being how often
    the i-th point occurs, or a (points, samples) matrix with one histogram
    per column. The risks are ``losses @ counts / counts.sum(axis=0)``, of
    shape (functions,) or (functions, samples). Counts must be nonnegative
    integers and every histogram must have a positive total; every loss must
    be nonnegative and the risks must come out finite. For integer-valued
    losses, such as the 0-1 loss, every dot product is an exact integer below
    2**53 in any summation order, so the risks equal the mean of the expanded
    (functions, n) loss matrix bit for bit, and each column of a matrix call
    equals the call on that column alone.
    """
    losses = np.asarray(losses, dtype=float)
    counts = np.asarray(counts)
    if (losses.ndim != 2 or losses.shape[0] < 1 or counts.ndim not in (1, 2)
            or counts.shape[0] != losses.shape[1] or 0 in counts.shape[1:]):
        raise InvalidInputError(
            "losses must be (functions, points) and counts (points,) or (points, samples) with at least "
            f"one sample, got shapes {losses.shape} and {counts.shape}"
        )
    # NaN fails the comparison
    if not (losses >= 0).all():
        raise InvalidInputError("losses must be nonnegative")
    integral = counts.dtype.kind in "iu" or (
        counts.dtype.kind == "f" and np.isfinite(counts).all() and (counts == np.floor(counts)).all()
    )
    if not (integral and (counts >= 0).all()):
        raise InvalidInputError("counts must be nonnegative integers")
    total = counts.sum(axis=0)
    if not (total > 0).all():
        raise InvalidInputError("counts must have a positive total in every sample")
    # numpy's integer-float product bypasses BLAS; integer counts below 2**53 are exact as floats
    counts = counts.astype(float, copy=False)
    # 0 * inf and overflow give NaN or inf without a warning; the check below rejects both
    with np.errstate(invalid="ignore", over="ignore"):
        risks = losses @ counts / total
    if not np.isfinite(risks).all():
        raise InvalidInputError("risks must be finite")
    return risks


def erm_finite(losses, counts):
    """Index of the empirical risk minimizer over a finite dictionary, per sample.

    Scores every predictor with ``histogram_risks(losses, counts)`` and
    returns the lowest-index exact minimizer, which keeps repeated runs
    reproducible: an int for one histogram of shape (points,), and an int
    array with one index per column for a (points, samples) matrix.
    """
    picks = np.argmin(histogram_risks(losses, counts), axis=0)
    return int(picks) if picks.ndim == 0 else picks


def risk_estimate(predictor, generator, q, test_size, rng):
    """Monte Carlo L_q risk E |y - predictor(X)|^q, with its standard error (ddof=1), on the ``test_size`` fresh
    draws ``(X, y) = generator(rng, test_size)``. Rejects a q outside [2, inf), predictions or responses not of
    shape (test_size,), which numpy would broadcast, and a non-finite loss, an overflowing one included."""
    if not 2.0 <= q < np.inf:
        raise InvalidInputError(f"q must be finite and >= 2, got {q!r}")
    test_size = int(test_size)
    if test_size < 2:
        raise InvalidInputError("test_size must be >= 2")
    design, responses = generator(np.random.default_rng(rng), test_size)
    predictions, responses = np.asarray(predictor(design), dtype=float), np.asarray(responses, dtype=float)
    if not predictions.shape == responses.shape == (test_size,):
        raise InvalidInputError(f"predictions {predictions.shape}, responses {responses.shape} must be ({test_size},)")
    with np.errstate(over="ignore", invalid="ignore"):
        losses = np.abs(responses - predictions) ** q
    if not np.isfinite(losses).all():
        raise InvalidInputError("non-finite loss: an input is not finite, or |y - prediction|^q overflows")
    return RiskEstimate(mean=float(np.mean(losses)), stderr=float(np.std(losses, ddof=1) / np.sqrt(test_size)))
