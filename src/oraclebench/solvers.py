"""Regularized least squares with l1-power penalties, plus residual builders.

Three entry points share one solver loop. ``solve_lq_rerm`` minimizes

    F(beta) = mean_i |y_i - <x_i, beta>|^q + pen * ||beta||_1^q,   q >= 2,

``solve_square_lasso`` is its q = 2 case with pen = kappa / n, and
``solve_lasso`` is the q = 2 risk plus pen * ||beta||_1. The loop is
accelerated proximal gradient (FISTA, Beck & Teboulle 2009). The prox of
c * ||beta||_1^p, for p = 1 or q, is soft-thresholding at a threshold found
from the sorted magnitudes, by the same helper that projects onto l1 balls;
above p = 2 the number of active coordinates is found in closed form and
the threshold by a scalar Newton solve at that count only. At q = 2 the step
is the fixed 1/L, with L exact from the Gram matrix; for q > 2 it is found
by backtracking. The momentum restarts from the current iterate whenever the
new step points against it, (z - cand).(cand - beta) > 0 for the
extrapolated point z (the gradient restart of O'Donoghue & Candes 2015).
Neither test compares objective values, so rounding near the minimum does
not trigger them; the objective may rise between iterates. The loop reads
gradients only: the risk itself is evaluated for the gap's radius, for the
lasso's Fenchel gap (through the Gram matrix) and for the returned objective.

The loop stops on a certified duality gap, which bounds F(beta) - min F
from above. For p = q it is the Frank-Wolfe gap (Jaggi 2013): every
minimizer satisfies pen * ||beta||_1^q <= F(0), so it lies in the l1 ball of
radius R = (F(0) / pen)^{1/q}, and the gap is the largest decrease of the
objective's linearization over that ball. At pen = 0 the ball is replaced
by an l2 ball around the minimizer in the design's row space. For the lasso
it is the smaller of the Fenchel gap at the residual scaled into the dual's
feasible set and that l2 gap of the risk plus the penalty; the second
certifies penalties below the rounding level of the gradient.

The closed-form builders at the bottom evaluate penalty levels and the
residual terms that appear in nonexact oracle inequalities for ERM and RERM,
each as a float; a power of q that overflows a float is an InvalidInputError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, IterationLimitError

__all__ = [
    "RermSolution",
    "project_l1_ball",
    "solve_lq_rerm",
    "solve_square_lasso",
    "solve_lasso",
    "l1_penalty_level",
    "erm_residual",
    "rerm_residual",
]

@dataclass(frozen=True)
class RermSolution:
    """Solution of a penalized regression: coefficients and a certificate.

    ``objective`` is the empirical risk at ``beta`` plus the penalty term,
    and ``optimality_gap`` is a duality gap: a certified upper bound, up to
    rounding, on how far ``objective`` sits above the minimum.
    """

    beta: np.ndarray
    objective: float
    optimality_gap: float

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float).copy()
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        if self.optimality_gap < 0:
            raise InvalidInputError("optimality_gap must be nonnegative")


def _soft_threshold(v, threshold, active=None):
    """Soft-threshold v at theta_k for the largest k with u_k > theta_k; zero if there is none.

    u holds the magnitudes of v in decreasing order, and ``threshold(css, k)``
    maps their cumulative sums css_k, for k = 1..d active coordinates, to
    theta_k. ``active(u, css, k)``, when given, tests u_k > theta_k for every
    k at once in another form, so that ``threshold`` is evaluated at one k only.
    """
    absv = np.abs(v)
    u = np.sort(absv)[::-1]
    css, counts = np.cumsum(u), np.arange(1, u.size + 1)
    found = np.nonzero(active(u, css, counts) if active else u > threshold(css, counts))[0]
    if found.size == 0:
        return np.zeros_like(v)
    last = found[-1]
    return np.sign(v) * np.maximum(absv - threshold(css[last], int(last) + 1), 0.0)


def project_l1_ball(v, radius):
    """Euclidean projection onto the l1 ball of the given radius.

    Points already inside are returned unchanged; otherwise the projection is
    the soft-thresholding of v at the threshold theta solving
    sum_i max(|v_i| - theta, 0) = radius, found from the sorted magnitudes.
    """
    if not radius >= 0:
        raise InvalidInputError("radius must be nonnegative")
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("vector contains non-finite values")
    if np.abs(v).sum() <= radius:
        return v.copy()
    if radius == 0.0:
        return np.zeros_like(v)
    return _soft_threshold(v, lambda css, k: (css - radius) / k)


def _prox_l1_power(v, c, p):
    """argmin_b ||b - v||^2 / 2 + c * ||b||_1^p, for c >= 0 and p = 1 or p >= 2.

    At p = 1 this is soft-thresholding at c. Otherwise the minimizer
    soft-thresholds v at theta = c p T^{p-1}, where T is its own l1 norm.
    With the k largest magnitudes active, T solves T + k c p T^{p-1} =
    css_k, the sum of those k magnitudes. At p = 2 that is closed form for
    every k. Above it, the left side is increasing in T, so u_k > theta_k
    holds iff it is larger at S_k = (u_k / (c p))^{1/(p-1)}, where it equals
    S_k + k u_k, than at T, where it equals css_k; this tests every k in
    closed form, and Newton solves for T at the largest active k only.
    """
    if c == 0.0:
        return v
    if p == 1.0:
        return _soft_threshold(v, lambda css, k: c)
    if p == 2.0:
        return _soft_threshold(v, lambda css, k: c * p * (css / (1.0 + c * p * k)))

    def theta(css, k):
        css, a = float(css), c * p * k
        # both terms bound the root from above, so Newton descends to it monotonically
        total = min(css, (css / a) ** (1.0 / (p - 1.0)))
        for _ in range(100):
            step = (total + a * total ** (p - 1.0) - css) / (1.0 + a * (p - 1.0) * total ** (p - 2.0))
            total -= step
            if step <= 1e-15 * total:
                break
        return c * p * total ** (p - 1.0)

    return _soft_threshold(v, theta, lambda u, css, k: (u / (c * p)) ** (1.0 / (p - 1.0)) > css - k * u)


class _LqObjective:
    """Smooth part of the penalized objective: mean_i |y_i - <x_i, b>|^q.

    For q = 2 the gradient is evaluated through the Gram matrix, which makes
    iterations O(d^2) instead of O(n d). The derivative of |u|^q is
    q u |u|^{q-2}, continuous for q >= 2; at q = 4 the power is a square.
    """

    def __init__(self, sample, q):
        self.X = sample.design
        self.y = sample.response
        self.n, self.d = self.X.shape
        self.q = float(q)
        if self.q == 2.0:
            self.gram = self.X.T @ self.X / self.n
            self.xty = self.X.T @ self.y / self.n
            self.y2m = float(self.y @ self.y) / self.n

    def risk_exact(self, beta):
        resid = self.y - self.X @ beta
        return float(np.mean(np.abs(resid) ** self.q))

    def gram_risk(self, beta):
        """The q = 2 risk through the Gram matrix, clipped at zero."""
        value = self.y2m - 2.0 * float(self.xty @ beta) + float(beta @ (self.gram @ beta))
        return max(value, 0.0)

    def grad(self, beta):
        if self.q == 2.0:
            return 2.0 * (self.gram @ beta - self.xty)
        resid = self.y - self.X @ beta
        return -(self.q / self.n) * (self.X.T @ (resid * np.abs(resid) ** (self.q - 2.0)))

    def lipschitz_estimate(self, beta):
        """Largest Hessian eigenvalue, exact for q = 2, local probe otherwise."""
        if self.q == 2.0:
            return 2.0 * float(np.linalg.eigvalsh(self.gram)[-1])
        resid = self.y - self.X @ beta
        weights = np.abs(resid) ** (self.q - 2.0)
        hess = (self.q * (self.q - 1.0) / self.n) * (self.X.T @ (self.X * weights[:, None]))
        return float(np.linalg.eigvalsh(hess)[-1])

    def row_space_radius(self):
        """An l2 bound on the minimizer of the risk alone that lies in the design's row space.

        That minimizer b has mean |y - X b|^q <= mean |y|^q, so its empirical
        l2 prediction norm is at most ||y||_n + (mean |y|^q)^{1/q}; dividing
        by the square root of the smallest nonzero Gram eigenvalue bounds
        ||b||_2. Eigenvalues below numpy's rank tolerance count as zero.
        """
        eigs = np.linalg.eigvalsh(self.X.T @ self.X / self.n)
        positive = eigs[eigs > eigs[-1] * max(self.n, self.d) * np.finfo(float).eps]
        if positive.size == 0:
            return 0.0
        fit = math.sqrt(float(np.mean(self.y**2))) + self.risk_exact(np.zeros(self.d)) ** (1.0 / self.q)
        return fit / math.sqrt(float(positive[0]))


def _proximal_descent(sample, q, pen_name, pen, power, tol, max_iter):
    """FISTA for mean_i |y_i - <x_i, beta>|^q + pen * ||beta||_1^power, with power 1 or q.

    See :func:`solve_lq_rerm`; ``pen_name`` names the penalty in error messages.
    """
    if not q >= 2:
        raise InvalidInputError("q must be >= 2")
    if not 0 <= pen < math.inf:
        raise InvalidInputError(f"{pen_name} must be finite and nonnegative")
    if not 0 < tol < math.inf:
        raise InvalidInputError("tol must be finite and positive")
    obj = _LqObjective(sample, q)
    q, pen, power = obj.q, float(pen), float(power)
    # at power q every minimizer lies in the l1 ball of this radius; otherwise a minimizer of
    # the risk alone lies in this l2 ball
    l1_ball = pen > 0 and power != 1.0
    radius = (obj.risk_exact(np.zeros(obj.d)) / pen) ** (1.0 / power) if l1_ball else obj.row_space_radius()

    def duality_gap(beta, grad):
        l1 = float(np.abs(beta).sum())
        if not l1_ball:
            # min F >= min risk, so the risk's l2 gap plus the penalty bounds F - min F
            row_space_gap = float(grad @ beta) + float(np.linalg.norm(grad)) * radius + pen * l1
            if pen == 0.0:
                return row_space_gap
            # power 1 comes only with q = 2. Near the minimum the Frank-Wolfe form is about
            # (gmax - pen) * F(0) / pen, which rounding keeps above tol for small pen; the
            # Fenchel gap in turn stays at rounding level once pen is below the gradient's
            s = pen / max(float(np.abs(grad).max()), pen)
            return min(s * float(grad @ beta) + pen * l1 + (1.0 - s) ** 2 * obj.gram_risk(beta), row_space_gap)
        gmax = float(np.abs(grad).max())
        t = min(radius, (gmax / (power * pen)) ** (1.0 / (power - 1.0)))
        return float(grad @ beta) + pen * l1**power + gmax * t - pen * t**power

    def solution(beta, gap):
        l1 = float(np.abs(beta).sum())
        return RermSolution(beta=beta, objective=obj.risk_exact(beta) + pen * l1**power, optimality_gap=max(gap, 0.0))

    beta = np.zeros(obj.d)
    grad = obj.grad(beta)
    gap = duality_gap(beta, grad)
    z, z_grad, momentum = beta, grad, 1.0
    step = 1.0 / max(obj.lipschitz_estimate(beta), 1e-12)
    for _ in range(int(max_iter)):
        if gap <= tol:
            return solution(beta, gap)
        while True:
            cand = _prox_l1_power(z - step * z_grad, step * pen, power)
            cand_grad = obj.grad(cand)
            if q == 2.0 or step < 1e-280:
                break
            # for convex f, <grad f(cand) - grad f(z), delta> bounds f(cand) - f(z) - <grad f(z), delta>
            # from above, so this test implies sufficient decrease; unlike a difference of
            # objective values it does not cancel to rounding near the minimum
            delta = cand - z
            if float((cand_grad - z_grad) @ delta) <= float(delta @ delta) / (2.0 * step):
                break
            step *= 0.5
        if float((z - cand) @ (cand - beta)) > 0.0:
            # the step turned against the momentum: restart it from the current iterate. Without
            # momentum z is beta and the test cannot fire; unlike a rise of the objective it does
            # not fire on rounding noise near the minimum
            z, z_grad, momentum = beta, grad, 1.0
            continue
        next_momentum = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum**2))
        z = cand + ((momentum - 1.0) / next_momentum) * (cand - beta)
        beta, grad, momentum = cand, cand_grad, next_momentum
        gap = duality_gap(beta, grad)
        z_grad = obj.grad(z)
        if q != 2.0:
            step *= 1.25
    raise IterationLimitError("iteration budget exhausted", best=solution(beta, gap))


def solve_lq_rerm(sample, q, penalty_coef, tol=1e-8, max_iter=200_000):
    """Minimize the L_q empirical risk plus ``penalty_coef * ||beta||_1^q``.

    FISTA from zero, with the prox of the l1-power penalty, a fixed step at
    q = 2 and backtracking for q > 2, restarting the momentum whenever the
    new step points against it. It stops once the Frank-Wolfe gap of the
    current iterate is at most ``tol``; that gap is the returned
    ``optimality_gap`` and bounds the objective's excess over the minimum.
    At penalty 0 on a rank-deficient design the iterates stay in the
    design's row space, so the reported minimizer is the one of least l2
    norm. Running ``max_iter`` proximal iterations without reaching ``tol``
    raises IterationLimitError carrying the last iterate and its gap; the
    objective is not monotone, so that iterate need not be the best seen.
    """
    return _proximal_descent(sample, q, "penalty_coef", penalty_coef, q, tol, max_iter)


def solve_square_lasso(sample, kappa, tol=1e-8, max_iter=200_000):
    """Least squares penalized by ``kappa * ||beta||_1^2 / n``.

    The q = 2 case of :func:`solve_lq_rerm` with penalty coefficient
    kappa / n, with the same optimality contract.
    """
    return _proximal_descent(sample, 2.0, "kappa", kappa / sample.n, 2.0, tol, max_iter)


def solve_lasso(sample, lambda1, tol=1e-8, max_iter=200_000):
    """Standard lasso: mean squared error plus ``lambda1 * ||beta||_1``.

    The loop of :func:`solve_lq_rerm` at q = 2 with the plain l1 penalty,
    whose prox is soft-thresholding, and the same contract: it stops once a
    certified duality gap (the lasso's Fenchel gap, or the l2 row-space gap
    of the risk plus the penalty when smaller) is at most ``tol``, so ``tol``
    bounds the objective's excess over the minimum.
    """
    return _proximal_descent(sample, 2.0, "lambda1", lambda1, 1.0, tol, max_iter)


def _finite(builder):
    """``builder``, with a float overflow in its powers of q raised as an invalid q or Kd, not a runtime fault."""
    @functools.wraps(builder)
    def checked(*args, **kwargs):
        try:
            value = builder(*args, **kwargs)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
        raise InvalidInputError(f"{builder.__name__} overflows a float; lower q or Kd")

    return checked


@_finite
def l1_penalty_level(n, d, x, q, kd, c0=1.0):
    """Theory-driven penalty level for the ||beta||_1^q regularizer.

    Evaluates c0 * kd^q * (log n)^{(4q-2)/q} * (log d)^2 * (x + log n); the
    RERM objective divides this by n * epsilon^2.
    """
    if not (n >= 2 and d >= 2):
        raise InvalidInputError("n and d must be >= 2")
    if not x > 0:
        raise InvalidInputError("x must be positive")
    if not q >= 2:
        raise InvalidInputError("q must be >= 2")
    if not kd > 0:
        raise InvalidInputError("kd must be positive")
    if not 0 <= c0 < math.inf:
        raise InvalidInputError("c0 must be finite and nonnegative")
    return c0 * kd**q * math.log(n) ** ((4.0 * q - 2.0) / q) * math.log(d) ** 2 * (x + math.log(n))


def erm_residual(lambda_star, bn, big_bn, epsilon, x, n, c0=1.0):
    """Residual budget for the nonexact ERM oracle inequality.

    Returns max(lambda_star, c0 * (bn + big_bn / epsilon) * x / (n * epsilon))
    as a float, with ``bn`` the psi_1 envelope bound and ``big_bn`` the
    second-moment control constant.
    """
    if not 0 < epsilon < 0.5:
        raise InvalidInputError("epsilon must lie in (0, 1/2)")
    for name, value in (("lambda_star", lambda_star), ("bn", bn), ("big_bn", big_bn), ("x", x)):
        if not value >= 0:
            raise InvalidInputError(f"{name} must be nonnegative")
    if not n >= 1:
        raise InvalidInputError("n must be >= 1")
    if not 0 <= c0 < math.inf:
        raise InvalidInputError("c0 must be finite and nonnegative")
    return float(max(lambda_star, c0 * (bn + big_bn / epsilon) * x / (n * epsilon)))


@_finite
def rerm_residual(profile, r, x, c0=1.0):
    """Radius-indexed residual for the regularized oracle inequality.

    Evaluates max(lambda_star(r), c0 * (phi_n(r) + bn(r)/eps) * (x+1) /
    (n * eps)) from a complexity profile; nondecreasing in r and in x.
    """
    if not r >= 0:
        raise InvalidInputError("r must be nonnegative")
    if not x > 0:
        raise InvalidInputError("x must be positive")
    if not 0 <= c0 < math.inf:
        raise InvalidInputError("c0 must be finite and nonnegative")
    eps = profile.epsilon
    deviation = c0 * (profile.phi_n(r) + profile.bn(r) / eps) * (x + 1.0) / (profile.n * eps)
    return float(max(profile.lambda_star(r), deviation))

