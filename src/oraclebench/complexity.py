"""Localized empirical process suprema and their fixed point.

The star hull of a class of nonnegative-mean functions is the set of all
down-scalings theta*g with theta in [0,1]; localizing at level lam keeps the
scalings whose mean is at most lam. For a finite class the supremum of
|(P - P_n)h| over the localized hull is exact: the deviation of theta*g is
linear in theta, so each g contributes at its largest admissible scaling.

The fixed point of lam -> E sup over the localized hull, compared against
(eps/4)*lam, is the level above which empirical and population means are
equivalent; bisection is valid because E sup / lam is nonincreasing in lam.
``expected_localized_sup`` maps the population means and the deviations of
fixed draws (one draw is a one-row matrix) to lam -> the mean exact sup over
those draws: every level the bisection visits sees the same sample, so the map
is pointwise monotone; nothing here draws.
The closed-form level of l1 balls lives with the residual it enters,
``solvers.rerm_residual``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BracketError, InvalidInputError
from .model import RiskEstimate

__all__ = [
    "expected_localized_sup",
    "fixed_point_lambda",
]


def _checked_draws(means, deviations):
    """Checked copies: means as a float vector, deviations as a float (draws, members) matrix."""
    means = np.array(means, dtype=float)
    devs = np.array(deviations, dtype=float)
    if means.ndim != 1 or means.size < 1 or devs.ndim != 2 or devs.shape[1:] != means.shape or devs.size < 1:
        raise InvalidInputError("means must be a nonempty vector and deviations must hold rows of its length")
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(devs))):
        raise InvalidInputError("means and deviations must be finite")
    if np.any(means < 0):
        raise InvalidInputError("means must be nonnegative (losses are nonnegative)")
    if np.any(devs < 0):
        raise InvalidInputError("deviations must be nonnegative")
    return means, devs


def expected_localized_sup(means, deviations):
    """Monte Carlo map from a level to the expected localized star-hull supremum.

    ``means`` is the (M,) vector of the class's population means and
    ``deviations`` the (R, M) matrix of its deviations |P g_j - P_n g_j|, one
    row per independent draw; both are checked once and copied. Within a
    draw, member g may be scaled by theta in [0, 1] subject to
    theta * mean_g <= level (a zero-mean member is unconstrained), so the
    draw's exact supremum is max_g min(1, level / mean_g) * deviation_g. The
    returned ``estimate(level)`` averages it over the R draws as a
    ``RiskEstimate`` (mean and ddof-1 standard error). Every level sees the
    same draws, so ``estimate(level).mean`` is nondecreasing in the level and
    ``estimate(level).mean / level`` nonincreasing, as fixed-point bisection
    requires.
    """
    means, devs = _checked_draws(means, deviations)

    def estimate(level):
        if not level >= 0:
            raise InvalidInputError("level must be nonnegative")
        with np.errstate(divide="ignore"):
            caps = np.where(means > 0, level / np.where(means > 0, means, 1.0), np.inf)
        values = np.max(np.minimum(1.0, caps) * devs, axis=-1)
        stderr = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
        return RiskEstimate(mean=float(values.mean()), stderr=stderr)

    return estimate


def fixed_point_lambda(phi, epsilon, bracket_hi, tol=1e-9):
    """Smallest level lam (within tol) with phi(lam) <= (epsilon/4) * lam.

    ``phi`` evaluates the expected localized supremum at a level; since
    phi(lam)/lam is nonincreasing, the sign of phi(lam) - (epsilon/4)*lam
    changes once and bisection applies. The upper end doubles from
    ``bracket_hi`` until it holds, up to 60 times and not past the largest
    float, or a BracketError is raised; the lower end is tol, itself the answer
    where it holds. Bisection stops once the bracket is at most ``tol`` wide or
    its midpoint rounds to an end, and returns the upper end.
    """
    if not 0 < epsilon < 0.5:
        raise InvalidInputError("epsilon must lie in (0, 1/2)")
    if not 0 < tol < math.inf:
        raise InvalidInputError("tol must be finite and positive")
    if not 0 < bracket_hi < math.inf:
        raise InvalidInputError("bracket_hi must be finite and positive")
    slope = epsilon / 4.0

    def holds(lam):
        return phi(lam) <= slope * lam

    hi, doublings = float(bracket_hi), 0
    while not holds(hi):
        if doublings == 60 or hi * 2.0 == math.inf:
            raise BracketError(f"phi exceeds (epsilon/4)*lam up to lam={hi:g}")
        hi, doublings = 2.0 * hi, doublings + 1
    lo = min(tol, hi)
    if holds(lo):
        return float(lo)
    while hi - lo > tol and lo < (mid := 0.5 * (hi + lo)) < hi:
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi
