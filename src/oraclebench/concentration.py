"""Empirical tail-norm estimation and closed-form concentration bounds.

The psi_alpha (Orlicz) norm of a sample is the smallest scale c at which the
empirical exponential moment mean(exp(|x_i|^alpha / c^alpha)) drops to 2.
Everything downstream is plug-in: empirical moments replace expectations, and
population-level claims are left to Monte Carlo replication in the harness.
``psi_alpha_norm`` and ``envelope_psi1`` return the scale as a float, and
``bernstein_from_psi1`` returns the second-moment constant B as a float.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "psi_alpha_norm",
    "envelope_psi1",
    "bernstein_from_psi1",
    "bernstein_verify",
]

_GROWTH_LIMIT = 200


def _empirical_exp_moment(absx, alpha, c):
    with np.errstate(over="ignore"):
        return float(np.mean(np.exp((absx / c) ** alpha)))


def bisect_threshold(holds, hi, checks, lower, tol, fail):
    """The upper end of a bracket, at most ``tol`` wide, of the point where ``holds`` turns from false to true.

    The upper end starts at ``hi`` and doubles until ``holds`` there; after ``checks`` failed checks, or where
    doubling would overflow to inf, it raises ``fail(hi)`` at the last end checked. ``lower(hi)`` then gives the
    bracket to bisect: a lower end where ``holds`` is false and hi, or an answer x as (x, x). Bisection stops once
    the bracket is at most ``tol`` wide or its midpoint rounds to one of its ends.
    """
    while not holds(hi):
        checks -= 1
        if checks == 0 or hi * 2.0 == math.inf:
            raise fail(hi)
        hi *= 2.0
    lo, hi = lower(hi)
    while hi - lo > tol and lo < (mid := 0.5 * (hi + lo)) < hi:
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def psi_alpha_norm(samples, alpha, tol=1e-9):
    """Empirical psi_alpha norm of a sample by bisection.

    The map c -> mean(exp(|x_i|^alpha / c^alpha)) is strictly decreasing, so
    the smallest c with moment <= 2 is found by growing an upper bracket
    geometrically from max|x_i| and bisecting down to ``tol``
    (:func:`bisect_threshold`); returns the upper end of the final bracket.
    A sample of all zeros has norm 0.
    """
    if not 1 <= alpha < math.inf:
        raise InvalidInputError("alpha must be finite and >= 1")
    if not 0 < tol < math.inf:
        raise InvalidInputError("tol must be finite and positive")
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise InvalidInputError("samples must be a nonempty vector")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("samples contain non-finite values")
    absx = np.abs(x)
    top = float(absx.max())
    if top == 0.0:
        return 0.0

    def holds(c):
        return _empirical_exp_moment(absx, alpha, c) <= 2.0

    def lower(hi):
        lo = hi / 2.0
        while holds(lo):
            lo /= 2.0
            if lo < np.finfo(float).tiny:
                return 0.0, hi
        return lo, hi

    return float(bisect_threshold(holds, top, _GROWTH_LIMIT, lower, tol,
                                  lambda hi: InvalidInputError("failed to bracket the psi norm from above")))


def envelope_psi1(class_values):
    """psi_1 norm of the per-draw envelope maxima.

    ``class_values[r, i]`` holds sup over the class of |g(Z_i)| for the i-th
    point of the r-th independent draw; the estimate is the psi_1 norm of the
    per-draw maxima over i, bisected to the default tolerance of
    :func:`psi_alpha_norm`.
    """
    try:
        arr = np.asarray(class_values, dtype=float)
    except ValueError as exc:
        raise InvalidInputError("class_values must be a rectangular replications x n matrix") from exc
    if arr.ndim != 2 or arr.size < 1:
        raise InvalidInputError("class_values must be a rectangular replications x n matrix")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("class_values contain non-finite values")
    maxima = np.max(np.abs(arr), axis=1)
    return psi_alpha_norm(maxima, alpha=1.0)


def bernstein_from_psi1(psi1, n):
    """Second-moment control constant for nonnegative subexponential losses.

    A psi_1 diameter D yields B = D * log(e n), returned as a float; its
    additive residual is B^2/n.
    """
    if not psi1 >= 0:
        raise InvalidInputError("psi1 must be nonnegative")
    if not n >= 1:
        raise InvalidInputError("n must be >= 1")
    return psi1 * math.log(math.e * n)


def bernstein_verify(samples, psi1, z):
    """Check the empirical second-moment inequality for nonnegative data.

    Returns True iff mean(x^2) is at most
    log(ez) * psi1 * mean(x) + (4 + 6 log^2(ez) psi1^2) / (ez),
    with psi1 an upper bound on the empirical psi_1 norm of the samples.
    """
    if not z >= 1:
        raise InvalidInputError("z must be >= 1")
    if not psi1 >= 0:
        raise InvalidInputError("psi1 must be nonnegative")
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise InvalidInputError("samples must be a nonempty vector")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("samples contain non-finite values")
    if np.any(x < 0):
        raise InvalidInputError("samples must be nonnegative")
    log_ez = math.log(math.e * z)
    lhs = float(np.mean(x * x))
    rhs = log_ez * psi1 * float(np.mean(x)) + (4.0 + 6.0 * log_ez**2 * psi1**2) / (math.e * z)
    return lhs <= rhs
