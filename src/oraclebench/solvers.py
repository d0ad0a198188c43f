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

Every solver also takes a stack of R samples, (R, n, d) and (R, n); one sample
is a stack of one. Each row keeps its own step, momentum, restart and stop, so
it takes exactly the iterates of its solo solve; a certified row stays in the
stack and no longer moves. Backtracking steps the whole stack too: each round
recomputes every row's candidate at its own step, and only running rows that
fail the test halve it, so a row that kept its step gets the same bits. The
stack's gap is its largest, and IterationLimitError names the first row still
running when iterations run out. At q = 2 the loop reads a sample only through
its Moments X'X/n, X'y/n and y'y/n (O(R d^2) memory), which every solver also
takes in place of its rows.

The loop stops on a certified duality gap, which bounds F(beta) - min F
from above. For p = q it is the Frank-Wolfe gap (Jaggi 2013): every
minimizer satisfies pen * ||beta||_1^q <= F(0), so it lies in the l1 ball of
radius r = (F(0) / pen)^{1/q}, and the gap is the largest decrease of the
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
from collections import namedtuple
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
    rounding, on how far ``objective`` sits above the minimum. A stack's
    ``beta`` and ``objective`` hold a row per sample, its gap is the largest.
    """

    beta: np.ndarray
    objective: float | np.ndarray
    optimality_gap: float

    def __post_init__(self):
        for name in ("beta", "objective"):
            value = np.asarray(getattr(self, name), dtype=float).copy()
            value.setflags(write=False)
            object.__setattr__(self, name, value if value.ndim else float(value))
        if self.optimality_gap < 0:
            raise InvalidInputError("optimality_gap must be nonnegative")


def _soft_threshold(v, threshold, active=None):
    """Soft-threshold each row of v at theta_k for its largest k with u_k > theta_k; zero if there is none.

    u holds a row's magnitudes in decreasing order, and ``threshold(css, k)``
    maps their cumulative sums css_k, for k = 1..d active coordinates, to
    theta_k. ``active(u, css, k)``, when given, tests u_k > theta_k for every
    k at once in another form, so ``threshold`` gets each row's largest k only.
    """
    absv = np.abs(v)
    u = np.sort(absv, axis=-1)[:, ::-1]
    css, counts = u.cumsum(axis=-1), np.arange(1, u.shape[-1] + 1)
    thetas = None if active else threshold(css, counts)
    found = active(u, css, counts) if active else u > thetas
    rows, last = np.arange(len(v)), u.shape[-1] - 1 - found[:, ::-1].argmax(axis=-1)
    theta = threshold(css[rows, last], last + 1) if active else thetas[rows, last]
    return np.where(found.any(axis=-1)[:, None], np.sign(v) * np.maximum(absv - theta[:, None], 0.0), 0.0)


def project_l1_ball(v, radius):
    """Euclidean projection onto the l1 ball of the given radius.

    Points already inside are returned unchanged; otherwise the projection is
    the soft-thresholding of v at the threshold theta solving
    sum_i max(|v_i| - theta, 0) = radius, found from the sorted magnitudes.
    """
    if not radius >= 0:
        raise InvalidInputError("radius must be nonnegative")
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise InvalidInputError(f"v must be a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("vector contains non-finite values")
    if np.abs(v).sum() <= radius:
        return v.copy()
    if radius == 0.0:
        return np.zeros_like(v)
    return _soft_threshold(v[None], lambda css, k: (css - radius) / k)[0]


def _prox_l1_power(v, c, p):
    """argmin_b ||b - v||^2 / 2 + c * ||b||_1^p for each row of v with its own c >= 0, for p = 1 or p >= 2.

    At p = 1 this is soft-thresholding at c. Otherwise the minimizer
    soft-thresholds v at theta = c p T^{p-1}, where T is its own l1 norm.
    With the k largest magnitudes active, T solves T + k c p T^{p-1} =
    css_k, the sum of those k magnitudes. At p = 2 that is closed form for
    every k. Above it, the left side is increasing in T, so u_k > theta_k
    holds iff it is larger at S_k = (u_k / (c p))^{1/(p-1)}, where it equals
    S_k + k u_k, than at T, where it equals css_k; this tests every k in
    closed form, and Newton solves for T at the largest active k only, row by row in Python floats.
    """
    zero = c == 0.0
    if np.count_nonzero(zero):
        # the prox at c = 0 is the identity; 1 stands in for c there so the other rows can go on
        return v if zero.all() else np.where(zero[:, None], v, _prox_l1_power(v, np.where(zero, 1.0, c), p))
    cp = c[:, None] * p
    if p == 1.0:
        return _soft_threshold(v, lambda css, k: np.broadcast_to(cp, css.shape))
    if p == 2.0:
        return _soft_threshold(v, lambda css, k: cp * (css / (1.0 + cp * k)))

    def theta(css, k):
        out = np.empty(len(css))
        for row, (css_k, a) in enumerate(zip(css.tolist(), (cp[:, 0] * k).tolist())):
            # both terms bound the root from above, so Newton descends to it monotonically
            total = min(css_k, (css_k / a) ** (1.0 / (p - 1.0)))
            for _ in range(100):
                step = (total + a * total ** (p - 1.0) - css_k) / (1.0 + a * (p - 1.0) * total ** (p - 2.0))
                total -= step
                if step <= 1e-15 * total:
                    break
            out[row] = float(cp[row, 0]) * total ** (p - 1.0)
        return out

    return _soft_threshold(v, theta, lambda u, css, k: (u / cp) ** (1.0 / (p - 1.0)) > css - k * u)


def _matvec(a, b):
    """The product of each matrix of the stack a with the same row of b."""
    return (a @ b[..., None])[..., 0]


def _dot(a, b):
    """The dot product of each row of a with the same row of b."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


Moments = namedtuple("Moments", "n gram xty y2m")


def moments(design, response):
    """All the q = 2 objective reads of n rows X, y: Moments(n, X'X/n, X'y/n, y'y/n), per sample of a stack."""
    n = design.shape[-2]
    gram = design.swapaxes(-1, -2) @ design
    gram /= n
    return Moments(n, gram, _matvec(design.swapaxes(-1, -2), response) / n, _dot(response, response) / n)


class _LqObjective:
    """Smooth part of the penalized objective, mean_i |y_i - <x_i, b>|^q, one row per sample of a stack.

    It takes a Sample or, at q = 2 only, its Moments. At q = 2 values and
    gradients go through the Gram matrix, which makes iterations O(d^2)
    instead of O(n d). The derivative of |u|^q is q u |u|^{q-2}, continuous
    for q >= 2; at q = 4 the power is a square.
    """

    def __init__(self, sample, q):
        self.q = float(q)
        if not isinstance(sample, Moments):
            if self.q != 2.0:
                self.X = sample.design.reshape(-1, *sample.design.shape[-2:])
                self.y = sample.response.reshape(self.X.shape[:2])
            sample = moments(sample.design, sample.response)
        elif self.q != 2.0:
            raise InvalidInputError(f"moments hold a sample's q = 2 objective only, not its q = {q:g} one")
        self.n, self.d, self.stacked = sample.n, sample.gram.shape[-1], sample.gram.ndim == 3
        self.gram, self.xty, self.y2m = (m if self.stacked else m[None] for m in sample[1:])

    def risk_exact(self, beta):
        """The risk of each row; at q = 2 through the Gram matrix, clipped at zero."""
        if self.q == 2.0:
            return np.maximum(self.y2m - 2.0 * _dot(self.xty, beta) + _dot(beta, _matvec(self.gram, beta)), 0.0)
        resid = self.y - _matvec(self.X, beta)
        return np.mean(np.abs(resid) ** self.q, axis=-1)

    def grad(self, beta):
        if self.q == 2.0:
            return 2.0 * (_matvec(self.gram, beta) - self.xty)
        resid = self.y - _matvec(self.X, beta)
        return -(self.q / self.n) * _matvec(self.X.swapaxes(1, 2), resid * np.abs(resid) ** (self.q - 2.0))

    def lipschitz_estimate(self, beta):
        """Largest Hessian eigenvalue, exact for q = 2, local probe otherwise."""
        if self.q == 2.0:
            return 2.0 * np.linalg.eigvalsh(self.gram)[:, -1]
        resid = self.y - _matvec(self.X, beta)
        weights = np.abs(resid) ** (self.q - 2.0)
        hess = (self.q * (self.q - 1.0) / self.n) * (self.X.swapaxes(1, 2) @ (self.X * weights[..., None]))
        return np.linalg.eigvalsh(hess)[:, -1]

    def row_space_radius(self):
        """An l2 bound on the minimizer of the risk alone that lies in the design's row space.

        That minimizer b has mean |y - X b|^q <= mean |y|^q, so its empirical
        l2 prediction norm is at most ||y||_n + (mean |y|^q)^{1/q}; dividing
        by the square root of the smallest nonzero Gram eigenvalue bounds
        ||b||_2. Eigenvalues below numpy's rank tolerance count as zero.
        """
        eigs = np.linalg.eigvalsh(self.gram)
        cutoff = eigs[:, -1:] * max(self.n, self.d) * np.finfo(float).eps
        smallest = np.where(eigs > cutoff, eigs, np.inf).min(axis=-1)
        fit = np.sqrt(self.y2m) + self.risk_exact(np.zeros(self.d)) ** (1.0 / self.q)
        return fit / np.sqrt(smallest)


def _proximal_descent(sample, q, pen_name, pen, power, tol, max_iter):
    """FISTA for mean_i |y_i - <x_i, beta>|^q + pen * ||beta||_1^power, with power 1 or q.

    A row whose gap is at most ``tol`` stays in the stack and no longer moves. See
    :func:`solve_lq_rerm`; ``pen_name`` names the penalty in error messages.
    """
    # a non-scalar argument becomes NaN, so the check below names it
    q, pen, tol, power = (float(value) if np.ndim(value) == 0 else math.nan for value in (q, pen, tol, power))
    if not 2 <= q < math.inf:
        raise InvalidInputError("q must be finite and >= 2")
    if not 0 <= pen < math.inf:
        raise InvalidInputError(f"{pen_name} must be a finite nonnegative scalar")
    if not 0 < tol < math.inf:
        raise InvalidInputError("tol must be finite and positive")
    if not (isinstance(max_iter, (int, np.integer)) and not isinstance(max_iter, bool) and max_iter >= 1):
        raise InvalidInputError("max_iter must be an integer >= 1")
    obj = _LqObjective(sample, q)
    # at power q every minimizer lies in the l1 ball of this radius; otherwise a minimizer of
    # the risk alone lies in this l2 ball
    l1_ball = pen > 0 and power != 1.0
    beta = np.zeros((len(obj.gram), obj.d))
    radius = (obj.risk_exact(beta) / pen) ** (1.0 / power) if l1_ball else obj.row_space_radius()

    def duality_gap(beta, grad):
        l1, slope = np.abs(beta).sum(axis=-1), _dot(grad, beta)
        if not l1_ball:
            # min F >= min risk, so the risk's l2 gap plus the penalty bounds F - min F
            row_space_gap = slope + np.sqrt(_dot(grad, grad)) * radius + pen * l1
            if pen == 0.0:
                return row_space_gap
            # power 1 comes only with q = 2. Near the minimum the Frank-Wolfe form is about
            # (gmax - pen) * F(0) / pen, which rounding keeps above tol for small pen; the
            # Fenchel gap in turn stays at rounding level once pen is below the gradient's
            s = pen / np.maximum(np.abs(grad).max(axis=-1), pen)
            return np.minimum(s * slope + pen * l1 + (1.0 - s) ** 2 * obj.risk_exact(beta), row_space_gap)
        gmax = np.abs(grad).max(axis=-1)
        t = np.minimum(radius, (gmax / (power * pen)) ** (1.0 / (power - 1.0)))
        return slope + pen * l1**power + gmax * t - pen * t**power

    grad = obj.grad(beta)
    gap = duality_gap(beta, grad)
    z, z_grad, momentum = beta, grad, np.ones(len(beta))
    step = 1.0 / np.maximum(obj.lipschitz_estimate(beta), 1e-12)

    def solution():
        """The stack's current iterates, without the stack's axis for one sample."""
        objective = obj.risk_exact(beta) + pen * np.abs(beta).sum(axis=-1) ** power
        whole = ... if obj.stacked else 0
        return RermSolution(beta[whole], objective[whole], float(np.maximum(gap, 0.0).max()))

    def accepts():
        # for convex f, <grad f(cand) - grad f(z), delta> bounds f(cand) - f(z) - <grad f(z), delta>
        # from above, so this test implies sufficient decrease; unlike a difference of
        # objective values it does not cancel to rounding near the minimum
        delta = cand - z
        return (step < 1e-280) | (_dot(cand_grad - z_grad, delta) <= _dot(delta, delta) / (2.0 * step))

    for _ in range(max_iter):
        running = ~(gap <= tol)  # a NaN gap never certifies
        if not running.any():
            return solution()
        while True:
            cand = _prox_l1_power(z - step[:, None] * z_grad, step * pen, power)
            cand_grad = obj.grad(cand)
            # above q = 2 a running row halves its step until its candidate passes the test, or the step
            # underflows; each round steps the whole stack, and a row that kept its step gets the same candidate
            fails = running & ~accepts() if q != 2.0 else ()
            if not np.any(fails):
                break
            step = np.where(fails, 0.5 * step, step)
        # a step that turned against the momentum restarts it from the current iterate. Without
        # momentum z is beta and the test cannot fire; unlike a rise of the objective it does
        # not fire on rounding noise near the minimum. A finished row does not move either
        moves = running & ~(_dot(z - cand, cand - beta) > 0.0)
        next_momentum = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum**2))
        z = np.where(moves[:, None], cand + ((momentum - 1.0) / next_momentum)[:, None] * (cand - beta), beta)
        beta, grad = np.where(moves[:, None], cand, beta), np.where(moves[:, None], cand_grad, grad)
        momentum = np.where(moves, next_momentum, 1.0)
        # a row that does not move keeps its iterate, so its gap and the gradient at z = beta come out as before
        gap, z_grad = duality_gap(beta, grad), obj.grad(z)
        if q != 2.0:
            step = np.where(moves, step * 1.25, step)
    row = int(np.flatnonzero(running)[0])
    raise IterationLimitError(f"iteration budget exhausted in row {row}", best=solution(), row=row)


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
    At q = 2 ``sample`` may also be its ``moments``, solved to the same bits.
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
def rerm_residual(n, d, q, kd, epsilon, r, x, c0=1.0):
    """Radius-indexed residual for the regularized oracle inequality over l1 balls.

    The l1 ball of radius r under the L_q loss has, with
    h(n,d) = kd^q (log n)^{(4q-2)/q} (log d)^2, the complexity profile

        lambda_star(r) = (1+r)^q * h(n,d) / (n epsilon^2),
        phi_n(r)       = kd^q * (log n) * (1+r)^q,
        bn(r)          = (2 kd)^q * (1+r)^q * log(e n),

    and the residual is :func:`erm_residual` with lambda_star(r) as its level,
    phi_n(r) as its envelope bound ``bn``, bn(r) as its second-moment constant
    ``big_bn``, and x + 1 in place of x. It is nondecreasing in r and in x,
    and homogeneous of degree q in kd.
    """
    if not 0 < epsilon < 0.5:
        raise InvalidInputError("epsilon must lie in (0, 1/2)")
    if not (n >= 2 and d >= 2):
        raise InvalidInputError("n and d must be >= 2")
    if not q >= 2:
        raise InvalidInputError("q must be >= 2")
    if not kd > 0:
        raise InvalidInputError("kd must be positive")
    if not r >= 0:
        raise InvalidInputError("r must be nonnegative")
    if not x > 0:
        raise InvalidInputError("x must be positive")
    h = kd**q * math.log(n) ** ((4.0 * q - 2.0) / q) * math.log(d) ** 2
    lambda_star = (1.0 + r) ** q * h / (n * epsilon**2)
    phi_n = kd**q * math.log(n) * (1.0 + r) ** q
    bn = (2.0 * kd) ** q * (1.0 + r) ** q * math.log(math.e * n)
    return erm_residual(lambda_star, phi_n, bn, epsilon, x + 1.0, n, c0=c0)
