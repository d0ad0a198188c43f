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
is the fixed 1/L, with L exact from the Gram matrix; for q > 2 it is found by
backtracking: after a move it grows by 1.25 only where the accepted candidate
would also have passed the test at the grown step. With a penalty at power q
and n > d each row starts on the sign pattern of its least-squares fit, where
the penalty is smooth: at q = 2 at the pattern's KKT point, pruned once, and
above at the end of Newton steps with a d x d Hessian per row, each trusted
step pruning the coordinates whose sign flips, until the pattern holds
(Lee, Sun & Saunders 2014 take such steps inside a proximal Newton method).
Otherwise the loop starts at zero (q = 2) or at the minimum-norm
least-squares fit pinv(X'X/n) X'y/n (q > 2). A stack whose every start
certifies computes no step. The momentum restarts from the current iterate
whenever the new step points against it, (z - cand).(cand - beta) > 0 for
the extrapolated point z (the gradient restart of O'Donoghue & Candes 2015).
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
each as a float; a value past the floats is an InvalidInputError naming the
inputs to lower.
"""

from __future__ import annotations

import copy
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
        return np.sign(v) * np.maximum(np.abs(v) - cp, 0.0)
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

    def hessian(self, beta):
        """The risk's Hessian q (q - 1) / n X' diag|r|^{q-2} X of each row above q = 2, one product per row."""
        weights = np.abs(self.y - _matvec(self.X, beta)) ** (self.q - 2.0)
        hess = np.empty((len(self.X), self.d, self.d))
        for x, w, out in zip(self.X, weights, hess):
            np.matmul(x.T, x * w[:, None], out=out)
        hess *= self.q * (self.q - 1.0) / self.n
        return hess

    def lipschitz_estimate(self, beta):
        """Largest Hessian eigenvalue, exact for q = 2, local probe otherwise."""
        if self.q == 2.0:
            return 2.0 * np.linalg.eigvalsh(self.gram)[:, -1]
        return np.linalg.eigvalsh(self.hessian(beta))[:, -1]

    def row(self, i):
        """The objective of row i alone, a stack of one that shares this stack's arrays."""
        one = copy.copy(self)
        for name in ("X", "y", "gram", "xty", "y2m"):
            if hasattr(self, name):
                setattr(one, name, getattr(self, name)[i:i + 1])
        return one

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


# the most Newton steps a q > 2 start takes
_NEWTON_STEPS = 30


def _plain_start(obj):
    """Each row's start without a sign pattern: zero at q = 2, and above its minimum-norm least-squares fit
    pinv(X'X/n) X'y/n, which lies in the design's row space; Gram eigenvalues below numpy's rank tolerance count
    as zero."""
    if obj.q == 2.0:
        return np.zeros(obj.xty.shape)
    cutoff = max(obj.n, obj.d) * np.finfo(float).eps
    return _matvec(np.linalg.pinv(obj.gram, rcond=cutoff, hermitian=True), obj.xty)


def _sign_fixed_start(obj, pen):
    """Each row's minimizer of the objective on a sign pattern s, where pen * ||b||_1^q is pen * (s'b)^q and smooth.

    s is the signs of the least-squares fit G^{-1} X'y/n. Each round solves a d x d system on the active
    coordinates s != 0, with identity rows and columns and a zero right side elsewhere. At q = 2 the objective is
    quadratic there, and the system (G + pen s s') b = X'y/n gives the minimizer exactly. Above q = 2 each round
    is a Newton step from the current point beta, starting at the least-squares fit: H b = H beta - g for the
    Hessian H and gradient g of the pattern's objective at beta; its solution is trusted once the step moves no
    coordinate by more than 1e-2 of the largest. Each coordinate whose trusted solution has the wrong sign leaves
    the pattern. A row stops after a round that flips no sign and moves no coordinate by more than 1e-6 of the
    largest, after two rounds at q = 2 (it prunes once) and after _NEWTON_STEPS rounds above. A row whose system
    is singular, or whose solution is not finite, takes its :func:`_plain_start`.
    """
    q, rows, diagonal = obj.q, len(obj.xty), np.arange(obj.d)
    # every round builds its system in this one buffer, the size of the stack's Gram matrices
    system, done, failed = np.empty_like(obj.gram), np.zeros(rows, dtype=bool), np.zeros(rows, dtype=bool)
    try:
        beta = np.linalg.solve(obj.gram, obj.xty[..., None])[..., 0]
        signs = np.sign(beta)
        for _ in range(2 if q == 2.0 else _NEWTON_STEPS):
            np.multiply(signs[:, :, None], signs[:, None, :], out=system)
            if q == 2.0:
                system *= pen
                system += obj.gram
                rhs = obj.xty
            else:
                total = _dot(signs, beta)
                system *= (pen * q * (q - 1.0) * total ** (q - 2.0))[:, None, None]
                system += obj.hessian(beta)
                rhs = _matvec(system, beta) - obj.grad(beta) - (pen * q * total ** (q - 1.0))[:, None] * signs
            active = signs != 0.0
            system *= active[:, :, None]
            system *= active[:, None, :]
            system[:, diagonal, diagonal] += ~active
            solved = np.linalg.solve(system, np.where(active, rhs, 0.0)[..., None])[..., 0]
            running, finite = ~done, np.isfinite(solved).all(axis=-1)
            # a q = 2 solution is exact; a Newton step is measured against the largest coordinate
            step = np.abs(solved - beta).max(axis=-1) if q != 2.0 else 0.0
            largest = np.abs(solved).max(axis=-1)
            beta = np.where((running & finite)[:, None], solved, beta)
            flips = (running & (step <= 1e-2 * largest))[:, None] & (np.sign(beta) != signs)
            signs = np.where(flips, 0.0, signs)
            failed |= running & ~finite
            done |= running & (~finite | (step <= 1e-6 * largest) & ~flips.any(axis=-1))
            if done.all():
                break
    except np.linalg.LinAlgError:
        # LAPACK solves each matrix of a stack alone, so a row solved alone gets the same bits as in its stack
        if rows == 1:
            return _plain_start(obj)
        return np.concatenate([_sign_fixed_start(obj.row(i), pen) for i in range(rows)])
    return np.where(failed[:, None], _plain_start(obj), beta) if failed.any() else beta


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
    if l1_ball and obj.n > obj.d:
        # with a penalty at power q and more points than coordinates each row starts at its minimizer on the sign
        # pattern of the least-squares fit: the KKT point at q = 2, Newton steps above. At n <= d the Gram matrix is
        # singular, and at pen = 0 the iterates must stay in the row space: both take the plain start
        beta = _sign_fixed_start(obj, pen)
    elif q != 2.0:
        beta = _plain_start(obj)

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
    # a stack whose every row certifies at its start never steps, so it skips the Hessian's eigenvalues
    step = None if (gap <= tol).all() else 1.0 / np.maximum(obj.lipschitz_estimate(beta), 1e-12)

    def solution():
        """The stack's current iterates, without the stack's axis for one sample."""
        objective = obj.risk_exact(beta) + pen * np.abs(beta).sum(axis=-1) ** power
        whole = ... if obj.stacked else 0
        return RermSolution(beta[whole], objective[whole], float(np.maximum(gap, 0.0).max()))

    def accepts(growth=1.0):
        # for convex f, <grad f(cand) - grad f(z), delta> bounds f(cand) - f(z) - <grad f(z), delta>
        # from above, so this test implies sufficient decrease; unlike a difference of
        # objective values it does not cancel to rounding near the minimum
        return (step < 1e-280) | (curvature <= spread / (2.0 * growth * step))

    for _ in range(max_iter):
        running = ~(gap <= tol)  # a NaN gap never certifies
        if not running.any():
            return solution()
        while True:
            cand = _prox_l1_power(z - step[:, None] * z_grad, step * pen, power)
            cand_grad = obj.grad(cand)
            if q == 2.0:
                break
            # above q = 2 a running row halves its step until its candidate passes the test, or the step
            # underflows; each round steps the whole stack, and a row that kept its step gets the same candidate
            delta = cand - z
            curvature, spread = _dot(cand_grad - z_grad, delta), _dot(delta, delta)
            fails = running & ~accepts()
            if not fails.any():
                break
            step = np.where(fails, 0.5 * step, step)
        # a step that turned against the momentum restarts it from the current iterate. Without
        # momentum z is beta and the test cannot fire; unlike a rise of the objective it does
        # not fire on rounding noise near the minimum. A finished row does not move either
        moves = running & ~(_dot(z - cand, cand - beta) > 0.0)
        if q != 2.0:
            # a moving row grows its step only where its accepted pair would also pass the test at 1.25 * step
            step = np.where(moves & accepts(1.25), step * 1.25, step)
        next_momentum = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum**2))
        z = np.where(moves[:, None], cand + ((momentum - 1.0) / next_momentum)[:, None] * (cand - beta), beta)
        beta, grad = np.where(moves[:, None], cand, beta), np.where(moves[:, None], cand_grad, grad)
        momentum = np.where(moves, next_momentum, 1.0)
        # a row that does not move keeps its iterate, so its gap and the gradient at z = beta come out as before
        gap, z_grad = duality_gap(beta, grad), obj.grad(z)
    row = int(np.flatnonzero(running)[0])
    raise IterationLimitError(f"iteration budget exhausted in row {row}", best=solution(), row=row)


def solve_lq_rerm(sample, q, penalty_coef, tol=1e-8, max_iter=200_000):
    """Minimize the L_q empirical risk plus ``penalty_coef * ||beta||_1^q``.

    FISTA with the prox of the l1-power penalty, restarting the momentum
    whenever the new step points against it. At q = 2 it takes a fixed step;
    for q > 2 it backtracks, and after a move the step grows by 1.25 only
    where the accepted candidate would also pass at the grown step. At a
    positive penalty with n > d it starts from the minimizer on the sign
    pattern of the least-squares fit: in closed form at q = 2, with the
    pattern pruned once, and by Newton steps above, pruning every coordinate
    whose sign flips until the pattern holds. A row whose system there is
    singular, and every other input, starts from zero at q = 2 and from the
    minimum-norm least-squares fit above.
    It stops once the Frank-Wolfe gap of the current iterate is at most
    ``tol``; that gap is the returned ``optimality_gap`` and bounds the
    objective's excess over the minimum.
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
    kappa / n, with the same start and optimality contract.
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


def _finite(remedy):
    """A decorator: a value of the builder past the floats, an OverflowError in its powers or a division by a
    square that underflowed to 0 is an InvalidInputError that gives ``remedy``, not a runtime fault."""
    def wrap(builder):
        @functools.wraps(builder)
        def checked(*args, **kwargs):
            try:
                value = builder(*args, **kwargs)
            except (OverflowError, ZeroDivisionError):
                value = math.inf
            if math.isfinite(value):
                return value
            raise InvalidInputError(f"{builder.__name__} overflows a float; {remedy}")

        return checked

    return wrap


def _log_power(n, q):
    """(log n)^((4q - 2)/q), the factor of log n in both l1 builders. An exponent past the floats (4q overflows
    from q of about 4.5e307) raises OverflowError, where the power would round to 0 or inf."""
    exponent = (4.0 * q - 2.0) / q
    if not math.isfinite(exponent):
        raise OverflowError("(4q - 2)/q overflows a float")
    return math.log(n) ** exponent


@_finite("lower q or Kd, x or c0")
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
    return c0 * kd**q * _log_power(n, q) * math.log(d) ** 2 * (x + math.log(n))


@_finite("lower lambda_star, bn, big_bn, x or c0, or raise epsilon")
def erm_residual(lambda_star, bn, big_bn, epsilon, x, n, c0=1.0):
    """Residual budget for the nonexact ERM oracle inequality.

    Returns max(lambda_star, c0 * (bn + big_bn / epsilon) * x / (n * epsilon))
    as a float, with ``bn`` the psi_1 envelope bound and ``big_bn`` the
    second-moment control constant. A value past the floats is an
    InvalidInputError.
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
    budget = c0 * (bn + big_bn / epsilon) * x / (n * epsilon)
    if budget == math.inf:
        # c0 (bn + big_bn / epsilon) x can pass the floats where the budget does not; dividing first would move
        # the bits of a finite budget, so only an infinite one is evaluated again that way
        budget = c0 * ((bn + big_bn / epsilon) / (n * epsilon)) * x
    return float(max(lambda_star, budget))


@_finite("lower q or Kd, r, x or c0, or raise epsilon")
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
    h = kd**q * _log_power(n, q) * math.log(d) ** 2
    lambda_star = (1.0 + r) ** q * h / (n * epsilon**2)
    phi_n = kd**q * math.log(n) * (1.0 + r) ** q
    bn = (2.0 * kd) ** q * (1.0 + r) ** q * math.log(math.e * n)
    # the unchecked builder, so that a value past the floats is reported by this function's own inputs
    return erm_residual.__wrapped__(lambda_star, phi_n, bn, epsilon, x + 1.0, n, c0=c0)
