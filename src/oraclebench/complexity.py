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
fixed draws to lam -> E sup over those draws: every level the bisection visits
sees the same sample, so the map is pointwise monotone; nothing here draws.
The closed-form level of l1 balls lives with the residual it enters,
``solvers.rerm_residual``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, InvalidInputError
from .model import RiskEstimate

__all__ = [
    "LocalizedSupInput",
    "localized_star_hull_sup",
    "expected_localized_sup",
    "fixed_point_lambda",
]

_DOUBLINGS = 60


@dataclass(frozen=True)
class LocalizedSupInput:
    """Per-member means and deviations of a finite class, plus a level.

    ``means[j]`` is the population mean of the j-th (nonnegative) function,
    ``deviations[j]`` the absolute gap |P g_j - P_n g_j| on one draw, and
    ``level`` the localization level.
    """

    means: np.ndarray
    deviations: np.ndarray
    level: float

    def __post_init__(self):
        means, devs = _checked_draws(self.means, self.deviations, ndim=1)
        _check_level(self.level)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "deviations", devs)


def _checked_draws(means, deviations, ndim):
    """Checked copies: means as a float vector, deviations as a float array of ``ndim`` axes, members last."""
    means = np.array(means, dtype=float)
    devs = np.array(deviations, dtype=float)
    if means.ndim != 1 or means.size < 1 or devs.ndim != ndim or devs.shape[-1:] != means.shape or devs.size < 1:
        raise InvalidInputError("means must be a nonempty vector and deviations must hold rows of its length")
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(devs))):
        raise InvalidInputError("means and deviations must be finite")
    if np.any(means < 0):
        raise InvalidInputError("means must be nonnegative (losses are nonnegative)")
    if np.any(devs < 0):
        raise InvalidInputError("deviations must be nonnegative")
    return means, devs


def _check_level(level):
    if not level >= 0:
        raise InvalidInputError("level must be nonnegative")


def _star_hull_sup(means, deviations, level):
    # max_j min(1, level / mean_j) * deviation_j along the last axis
    with np.errstate(divide="ignore"):
        caps = np.where(means > 0, level / np.where(means > 0, means, 1.0), np.inf)
    return np.max(np.minimum(1.0, caps) * deviations, axis=-1)


def localized_star_hull_sup(inp):
    """Exact supremum of scaled deviations over the localized star hull.

    Each member g may be scaled by theta in [0, 1] subject to
    theta * mean_g <= level; a zero-mean member is unconstrained. Since the
    scaled deviation is linear in theta, the supremum over the hull is
    max_g min(1, level / mean_g) * deviation_g.
    """
    return float(_star_hull_sup(inp.means, inp.deviations, inp.level))


def expected_localized_sup(means, deviations):
    """Monte Carlo map from a level to the expected localized star-hull supremum.

    ``means`` is the (M,) vector of the class's population means and
    ``deviations`` the (R, M) matrix of its deviations |P g_j - P_n g_j|, one
    row per independent draw; both are checked once and copied. The returned
    ``estimate(level)`` averages the exact localized supremum over the R
    draws as a ``RiskEstimate`` (mean and ddof-1 standard error). Every level
    sees the same draws, so ``estimate(level).mean`` is nondecreasing in the
    level and ``estimate(level).mean / level`` nonincreasing, as fixed-point
    bisection requires.
    """
    means, devs = _checked_draws(means, deviations, ndim=2)

    def estimate(level):
        _check_level(level)
        values = _star_hull_sup(means, devs, level)
        stderr = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
        return RiskEstimate(mean=float(values.mean()), stderr=stderr)

    return estimate


def fixed_point_lambda(phi, epsilon, bracket_hi, tol=1e-9):
    """Smallest level lam (within tol) with phi(lam) <= (epsilon/4) * lam.

    ``phi`` evaluates the expected localized supremum at a level; since
    phi(lam)/lam is nonincreasing, the sign of phi(lam) - (epsilon/4)*lam
    changes once and bisection applies. The upper bracket is doubled up to
    60 times before a BracketError is raised; the lower bracket is tol.
    """
    if not 0 < epsilon < 0.5:
        raise InvalidInputError("epsilon must lie in (0, 1/2)")
    if not tol > 0:
        raise InvalidInputError("tol must be positive")
    if not bracket_hi > 0:
        raise InvalidInputError("bracket_hi must be positive")
    slope = epsilon / 4.0

    hi = float(bracket_hi)
    for _ in range(_DOUBLINGS + 1):
        if phi(hi) <= slope * hi:
            break
        hi *= 2.0
    else:
        raise BracketError(
            f"phi exceeds (epsilon/4)*lam up to lam={hi:g}; enlarge bracket_hi"
        )

    lo = min(tol, hi)
    if phi(lo) <= slope * lo:
        return float(lo)
    while hi - lo > tol:
        mid = 0.5 * (hi + lo)
        if phi(mid) <= slope * mid:
            hi = mid
        else:
            lo = mid
    return float(hi)
