"""Empirical tail-norm estimation and closed-form concentration bounds.

The psi_alpha (Orlicz) norm of a sample is the smallest scale c at which the
empirical exponential moment mean(exp(|x_i|^alpha / c^alpha)) drops to 2. It
is homogeneous, so ``psi_alpha_norm`` bisects it for the sample scaled to a
largest entry of 1, inside a bracket known in closed form.
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


def _empirical_exp_moment(absx, alpha, c):
    return float(np.mean(np.exp((absx / c) ** alpha)))


def psi_alpha_norm(samples, alpha, tol=1e-9):
    """Empirical psi_alpha norm of a sample by bisection in a closed-form bracket.

    The norm is max|x_i| times that of u = |x| / max|x|, whose largest entry is 1. For k entries the moment
    c -> mean(exp((u_i / c)^alpha)) is strictly decreasing and lies between (exp(c^-alpha) + k - 1) / k and
    exp(c^-alpha), so it drops to 2 in [ln(k + 1)^(-1/alpha), ln(2)^(-1/alpha)], where no exponential exceeds
    k + 1. One bisection narrows that bracket until, scaled back, it is at most ``tol * min(1, max|x|)`` wide or
    its midpoint rounds to an end, and returns its scaled upper end: ``tol`` is absolute at unit scale and above,
    and relative to max|x| below. A sample of all zeros has norm 0; a norm past the floats is an error.
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
    u = absx / top
    lo, hi = math.log(u.size + 1) ** (-1.0 / alpha), math.log(2.0) ** (-1.0 / alpha)
    while hi - lo > tol / max(1.0, top) and lo < (mid := 0.5 * (hi + lo)) < hi:
        if _empirical_exp_moment(u, alpha, mid) <= 2.0:
            hi = mid
        else:
            lo = mid
    if top * hi == math.inf:
        raise InvalidInputError(f"the psi norm of a sample whose largest magnitude is {top:g} overflows a float")
    return top * hi


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
    # each draw's largest magnitude without an |arr| copy of the matrix: np.abs(arr).max(axis=1) but for the sign of
    # a zero, which psi_alpha_norm drops
    maxima = np.maximum(arr.max(axis=1), -arr.min(axis=1))
    return psi_alpha_norm(maxima, alpha=1.0)


def bernstein_from_psi1(psi1, n):
    """Second-moment control constant for nonnegative subexponential losses.

    A psi_1 diameter D yields B = D * log(e n), returned as a float; its
    additive residual is B^2/n.
    """
    if not (math.isfinite(psi1) and psi1 >= 0):
        raise InvalidInputError("psi1 must be finite and nonnegative")
    if not (math.isfinite(n) and n >= 1):
        raise InvalidInputError("n must be finite and >= 1")
    return psi1 * math.log(math.e * n)


def bernstein_verify(samples, psi1, z):
    """Check the empirical second-moment inequality for nonnegative data.

    Returns True iff mean(x^2) is at most
    log(ez) * psi1 * mean(x) + (4 + 6 log^2(ez) psi1^2) / (ez),
    with psi1 an upper bound on the empirical psi_1 norm of the samples.
    """
    if not (math.isfinite(z) and z >= 1):
        raise InvalidInputError("z must be finite and >= 1")
    if not (math.isfinite(psi1) and psi1 >= 0):
        raise InvalidInputError("psi1 must be finite and nonnegative")
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
