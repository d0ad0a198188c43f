"""Monte Carlo scenarios that measure oracle-inequality slacks at desk scale.

Four scenarios are provided:

* ``FiniteGap``: a two-predictor sign-loss dictionary whose population risks
  differ by gamma/sqrt(n). The exact slack of ERM (risk above the oracle)
  decays like n^{-1/2}; the nonexact slack (risk above (1+3 eps) times the
  oracle) decays much faster, which is the rate gap the scenario quantifies.
* ``Isomorphy``: estimates the localization level of a finite dictionary by
  Monte Carlo plus bisection, builds the corresponding residual budget, and
  measures how often empirical and population risks are equivalent at that
  budget on fresh draws.
* ``SquareLasso``: sparse linear data, least squares with a squared-l1
  penalty at the theory-driven level, slack measured against the probe
  beta = beta_star with a matching budget. The square loss reads a sample
  only through its moments X'X/n, X'y/n and y'y/n, so a replication is
  reduced to them as soon as it is drawn, d^2 floats for any n. With
  Gaussian noise, whose design is Gaussian too, it draws the QR factor of
  its n rows instead: R by the Bartlett decomposition, Q'y and the residual
  norm by the rotation invariance of the noise, at a cost that does not grow
  with n; Bounded noise (uniform design) and Exponential noise draw the n
  rows. A chunk's replications are solved a stack at a time (``_rerm_rows``),
  each row exactly as alone; a failure names the ``(n, replication)`` of its
  first row at fault.
* ``LqRerm``: the same with the L_q risk and an l1^q penalty, on raw rows
  above q = 2. Both score a replication by its exact population risk
  (``_exact_risk``), with no test set, and each n's oracle is that risk at
  beta = beta_star: at every q with Gaussian noise, at q = 2 and q = 4 with
  Bounded noise, and at q = 2 with Exponential noise.

One registry, ``_REGISTRY``, holds per scenario its per-n context builder
``context(config, n)``, rows function, seed tag, target frequency (a
scenario without one fits rates) and per-n extras. Each context holds that
n's oracle risk and residual budget; Isomorphy's draws its dictionary from
the fixed ``isomorphy/model`` stream, so every n gets the same one. A rows
function scores one chunk of replications at one n: it gets their indices
and their generators, made one at a time, and returns their achieved risks
in replication order. ``run_scenario`` is the one entry
point and holds the one dispatch rule: LqRerm at q = 2 runs as SquareLasso,
so both give identical output for identical configurations. It also holds
the one slack definition: exact slack = achieved - oracle, nonexact slack =
achieved - (1 + 3 eps) * oracle, and a replication is satisfied when its
nonexact slack is at most the budget. The result holds the oracle risk and
the budget once per n, and the achieved risk, both slacks and the satisfied
flag per replication. FiniteGap and Isomorphy score their finite dictionary
on the sample's histogram over its distinct labelled points: each context
holds the loss table at those points, and a replication counts how often
each point occurs. Isomorphy draws its replications and its localization
draws a block at a time, as many as fit in ``_STACK_BYTES``, each from its
own generator exactly as alone, and scores a block with one ``bincount`` and
one ``histogram_risks`` product over its histograms (``_isomorphy_risks``);
FiniteGap gathers the two counts of every replication of a chunk and picks
all of its minimizers with one ``erm_finite`` call on the (2, replications)
count matrix. The 0-1 losses are integers, so the risks are bit-identical to
the mean of the full (functions, n) loss matrix. One field table, ``_FIELDS``,
is the config schema: ``ScenarioConfig`` casts and checks every field
through it, whether built in Python or by ``config_from_mapping``.

Every stream of a run is ``np.random.default_rng(derive_seed(masterSeed,
tag, n, i))``, so results do not depend on scheduling or worker count, and
achieved risks are gathered in replication order. ``_generators`` makes the
replications' and Isomorphy's localization generators a range at a time: it
runs numpy's fixed ``SeedSequence`` algorithm on uint32 arrays (``seeding``,
tested against numpy). It alone imports ``seeding``, which loads
numpy.random, so importing the CLI does not. Nonpositive per-n mean nonexact slacks cannot
enter a log-log fit: they are excluded from the fit, counted, and reported
in summaries as the tiny positive constant ``_FLOOR``.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
import sys
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .concentration import bernstein_from_psi1, envelope_psi1, psi_alpha_norm
from .complexity import expected_localized_sup, fixed_point_lambda
from .errors import InvalidInputError, IterationLimitError
from .model import LossSpec, Sample, erm_finite, histogram_risks
# unused here: perfbench/probe.py patches harness.risk_estimate to time a layer, and its patch targets must resolve
from .model import risk_estimate  # noqa: F401
from .solvers import Moments, erm_residual, l1_penalty_level, moments, rerm_residual, solve_lq_rerm

__all__ = [
    "NoiseSpec",
    "BetaStarSpec",
    "ScenarioConfig",
    "config_from_mapping",
    "RateFit",
    "SummaryRow",
    "ScenarioResult",
    "derive_seed",
    "rate_fit",
    "run_scenario",
    "rows_csv_text",
    "summary_csv_text",
    "write_rows_csv",
    "write_summary_csv",
]

_MASK64 = (1 << 64) - 1
# the positive stand-in that summaries report for a nonpositive mean nonexact slack
_FLOOR = 1e-12
# the most bytes of Gram matrices and, above q = 2, designs that one stack of regression samples holds, and of draws and
# counts that one block of Isomorphy draws holds
_STACK_BYTES = 448 * 1024


def _splitmix64(z):
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(text):
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


def _stream_prefix(master_seed, tag, n):
    z = _splitmix64(master_seed & _MASK64)
    z = _splitmix64(z ^ _fnv1a64(tag))
    return _splitmix64(z ^ (int(n) & _MASK64))


def derive_seed(master_seed, tag, n, replication):
    """Deterministic 64-bit stream seed for one replication of one scenario.

    Mixing (masterSeed, tag, n, replication) through splitmix64 guarantees
    that reordering or parallelizing replications cannot change any stream.
    The seed is ``_splitmix64(_stream_prefix(master_seed, tag, n) ^ replication)``:
    the prefix mixes (masterSeed, tag, n), so a run computes it once per
    chunk and mixes in the replications of the whole chunk at once, with
    ``_splitmix64`` on a uint64 array (``_generators``).
    """
    return _splitmix64(_stream_prefix(master_seed, tag, n) ^ (int(replication) & _MASK64))


def _generators(master_seed, tag, n, reps):
    """The generators of the replications in the range ``reps``, each ``default_rng(derive_seed(...))`` of its own."""
    # imported where replications are drawn: seeding loads numpy.random, which the CLI's start-up does not need
    from .seeding import generators

    prefix = _stream_prefix(master_seed, tag, n)
    return generators(_splitmix64(prefix ^ np.arange(reps.start, reps.stop, dtype=np.uint64)))


# ---------------------------------------------------------------------------
# per-scenario contexts and row computations
# ---------------------------------------------------------------------------


def _finite_gap_ctx(config, n):
    delta = min(config.gamma / math.sqrt(n), 1.0 - 1e-12)
    p_plus = 0.5 + delta / 2.0
    true_risks = np.array([1.0 - p_plus, p_plus])
    # the constant predictors +1 and -1 at the two distinct points, labels +1 and -1
    losses = LossSpec.zero_one().per_sample(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([1.0, -1.0]))
    budget = config.constant("c0") * (config.x + math.log(2.0)) / (config.epsilon * n)
    return {"true_risks": true_risks, "losses": losses, "p_plus": p_plus, "delta": delta,
            "oracle": float(true_risks.min()), "budget": budget}


def _finite_gap_rows(config, ctx, n, reps, rngs):
    # n uniforms per replication rather than one binomial draw: criterion 5 passes or fails with this
    # exact stream
    plus = np.fromiter((np.count_nonzero(rng.random(n) < ctx["p_plus"]) for rng in rngs), np.int64, len(reps))
    return ctx["true_risks"][erm_finite(ctx["losses"], np.vstack([plus, n - plus]))]


def _isomorphy_model(config):
    """Population risks and 0-1 loss table of a finite sign dictionary over equiprobable cells.

    Labels are +1 with probability 0.5 + label_flip on even cells and
    0.5 - label_flip on odd cells; predictor sign patterns are drawn from a
    fixed stream of the master seed, so every n gets the same dictionary and
    population risks are exact.
    The distinct points are the (cell, label) pairs: point c is cell c with
    label +1 and point cells + c is cell c with label -1, so the loss table
    scores the patterns twice over. Returns (true_risks, losses, p_plus).
    """
    k = config.cells
    rng = np.random.default_rng(derive_seed(config.master_seed, "isomorphy/model", 0, 0))
    patterns = rng.choice([-1.0, 1.0], size=(config.d, k))
    signs = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    p_plus = 0.5 + config.label_flip * signs
    err_prob = np.where(patterns > 0, 1.0 - p_plus, p_plus)
    losses = LossSpec.zero_one().per_sample(np.hstack([patterns, patterns]), np.repeat([1.0, -1.0], k))
    return err_prob.mean(axis=1), losses, p_plus


def _isomorphy_blocks(rngs, p_plus, n):
    """Fresh draws of n labelled cells, one per generator in order, as (draws, n) blocks of point indices.

    Each generator draws its n cells, then n uniforms that label them, the calls of a draw alone, so every
    stream is the same whatever the blocks, and a generator may come more than once. A block holds as many
    draws as fit in ``_STACK_BYTES`` at 16 bytes per drawn cell (its index and its uniform) and 16 per
    distinct point (a draw's count of it, as an integer and as a float).
    """
    k = p_plus.size
    size = max(1, _STACK_BYTES // (16 * (n + 2 * k)))
    rngs = iter(rngs)
    while block := list(itertools.islice(rngs, size)):
        cells = np.empty((len(block), n), dtype=np.int64)
        uniforms = np.empty((len(block), n))
        for row, rng in enumerate(block):
            cells[row] = rng.integers(0, k, size=n)
            rng.random(out=uniforms[row])
        yield cells + k * (uniforms >= p_plus[cells])


def _isomorphy_risks(rngs, losses, p_plus, n):
    """Empirical risks of every function on one fresh draw per generator, a (draws, functions) array.

    A block of draws is scored at once: one ``bincount`` of its points, each row's points offset into a
    histogram of its own, and one ``histogram_risks`` product over the block's histograms.
    """
    points, risks = losses.shape[1], []
    for block in _isomorphy_blocks(rngs, p_plus, n):
        draws = len(block)
        block += points * np.arange(draws)[:, None]
        counts = np.bincount(block.ravel(), minlength=draws * points).reshape(draws, points)
        risks.append(histogram_risks(losses, counts.T).T)
    return np.concatenate(risks)


def _isomorphy_ctx(config, n):
    true_risks, losses, p_plus = _isomorphy_model(config)
    rngs = _generators(config.master_seed, "isomorphy/lambda", n, range(config.lambda_replications))
    emp = _isomorphy_risks(rngs, losses, p_plus, n)
    estimate = expected_localized_sup(true_risks, np.abs(true_risks - emp))
    lam_star = fixed_point_lambda(lambda lam: estimate(lam).mean, config.epsilon, bracket_hi=1.0, tol=1e-4)
    phi_at = estimate(lam_star)

    calib_rng = np.random.default_rng(derive_seed(config.master_seed, "isomorphy/calibrate", n, 0))
    # the envelope and psi_1 draws need per-sample losses: 64 draws of the envelope, each point's largest loss,
    # then one draw of each function's losses, all from the one calibration stream
    envelope = losses.max(axis=0)
    bn = envelope_psi1(np.vstack([envelope[block] for block in _isomorphy_blocks([calib_rng] * 64, p_plus, n)]))
    pooled = np.vstack(list(_isomorphy_blocks([calib_rng] * config.d, p_plus, n)))
    diam = max(psi_alpha_norm(losses[j, points], alpha=1.0, tol=1e-6) for j, points in enumerate(pooled))
    big_bn = bernstein_from_psi1(diam, n)
    rho = erm_residual(lam_star, bn, big_bn, config.epsilon, config.x, n, c0=config.constant("c0"))
    # crude noise band on the fixed point: the defining slope is epsilon/4
    lam_band = 2.0 * phi_at.stderr * 4.0 / config.epsilon
    # the achieved risk is the worst margin and the oracle risk is 0, so both
    # slacks equal that margin and "satisfied" is the isomorphy event at rho
    return {
        "true_risks": true_risks,
        "losses": losses,
        "p_plus": p_plus,
        "oracle": 0.0,
        "budget": rho,
        "lambda_star": lam_star,
        "lambda_band": lam_band,
        "bn": bn,
        "big_bn": big_bn,
    }


def _isomorphy_rows(config, ctx, n, reps, rngs):
    """The worst margin max_f (R(f) - (1 + 2 eps) R_n(f)) of each replication of a chunk."""
    emp = _isomorphy_risks(rngs, ctx["losses"], ctx["p_plus"], n)
    return np.max(ctx["true_risks"] - (1.0 + 2.0 * config.epsilon) * emp, axis=1)


def _rerm_ctx(config, n):
    q, kd = config.q, config.constant("Kd")
    lam = l1_penalty_level(n, config.d, config.x, q, kd, c0=config.constant("c0"))
    penalty_coef = lam / (n * config.epsilon**2) if config.epsilon**2 > 0 else math.inf
    if not math.isfinite(penalty_coef):
        raise InvalidInputError(f"field 'constants.c0' makes the penalty coefficient overflow a float at n={n}")
    budget = rerm_residual(n, config.d, q, kd, config.epsilon, config.beta_star.l1_norm(), config.x,
                           c0=config.constant("c1"))
    try:
        # the oracle is the risk at beta = beta_star, so beta_star scores it exactly
        oracle = float(_exact_risk(config, np.zeros((1, config.d)))[0])
    except ArithmeticError:  # a Python float power or gamma past the floats, or 1 / rate^2 at a rate^2 of 0
        oracle = math.inf
    if not math.isfinite(oracle):
        raise InvalidInputError("fields 'q' and 'noise' make the oracle risk overflow a float; lower either")
    return {
        "penalty_coef": penalty_coef,
        "budget": budget,
        "oracle": oracle,
        "beta_star": config.beta_star.vector(config.d),
    }


# design laws of independent mean-zero coordinates: draw(rng, size, d) -> (size, d) matrix,
# m2 = E x_j^2 and m4 = E x_j^4
_Design = namedtuple("_Design", "draw m2 m4")
_DESIGNS = {
    "Gaussian": _Design(lambda rng, size, d: rng.standard_normal((size, d)), 1.0, 3.0),
    "Uniform": _Design(lambda rng, size, d: rng.uniform(-1.0, 1.0, size=(size, d)), 1.0 / 3.0, 1.0 / 5.0),
}


def _design_of(noise):
    """The design a run draws: uniform[-1, 1] with Bounded noise, standard Gaussian otherwise."""
    return _DESIGNS["Uniform" if noise.kind == NoiseSpec.BOUNDED else "Gaussian"]


def _gaussian_abs_moment(q, var):
    """E |N(0, var)|^q = c_q var^(q/2), c_q = 2^(q/2) Gamma((q + 1)/2) / sqrt(pi); var itself at q = 2, where the
    gamma function would round c_2 to 1.0000000000000002. A c_q past the floats raises OverflowError."""
    if q == 2:
        return var
    return 2.0 ** (q / 2) * math.gamma((q + 1) / 2) / math.sqrt(math.pi) * var ** (q / 2)


def _exact_risk(config, delta):
    """The exact L_q risk E |x.delta + xi|^q of each row of the (R, d) array ``delta`` = beta - beta_star.

    The design's coordinates and the noise are independent, each with mean zero. With Gaussian noise the design is
    Gaussian too, so x.delta + xi ~ N(0, m2 ||delta||^2 + sd^2) at every q. Otherwise the q = 2 risk is
    S + E xi^2 with S = m2 ||delta||^2, and the q = 4 risk E (x.delta)^4 + 6 S E xi^2 + E xi^4 loses the terms odd
    in x.delta or in xi, with E (x.delta)^4 = 3 S^2 + (m4 - 3 m2^2) sum_j delta_j^4. Other pairs raise, naming a field.
    """
    q, noise, law = config.q, config.noise, _design_of(config.noise)
    with np.errstate(over="ignore", invalid="ignore"):
        square = law.m2 * (delta[:, None, :] @ delta[:, :, None])[:, 0, 0]
        if noise.kind == NoiseSpec.GAUSSIAN:
            return _gaussian_abs_moment(q, square + noise.param**2)
        if q == 2:
            return square + noise.abs_moment(2)
        if q == 4 and noise.kind == NoiseSpec.BOUNDED:
            return (3.0 * square * square + (law.m4 - 3.0 * law.m2**2) * np.sum(delta**4, axis=-1)
                    + 6.0 * square * noise.abs_moment(2) + noise.abs_moment(4))
    if noise.kind == NoiseSpec.EXPONENTIAL:
        raise InvalidInputError(f"field 'noise' must be Gaussian or Bounded at q > 2, got {noise.kind}")
    raise InvalidInputError(f"field 'q' must be 2 or 4 with Bounded noise, got {q!r}")


def _gaussian_factor_moments(rng, n, beta_star, noise):
    """An exact draw of the Moments of n standard Gaussian rows X, y with Gaussian noise, at O(d^2) cost.

    With X = QR, k = min(n, d), R has independent entries: chi_{n-i} at
    (i, i) and N(0, 1) above the diagonal (Bartlett), and Q is independent of
    R. The noise is rotation invariant and independent of X, so Q'y = R
    beta_star + k fresh noise draws, and for n > d the residual y - QQ'y has
    squared norm sd^2 chi^2_{n-d}, independent of both. Drawn in that order:
    R, Q'y, the residual. Since ||y - X b||^2 = ||Q'y - R b||^2 + ||y - QQ'y||^2,
    the m <= d + 1 rows [R; 0], [Q'y; ||y - QQ'y||] scaled by sqrt(m / n) have
    the n rows' moments; for n <= d the residual is 0 and its row is left out.
    """
    d = beta_star.size
    k = min(n, d)
    r = np.triu(rng.standard_normal((k, d)), 1)
    r[np.arange(k), np.arange(k)] = np.sqrt(rng.chisquare(n - np.arange(k)))
    qty = r @ beta_star + noise.draw(rng, k)
    if n > d:
        # chisquare(0) raises
        r, qty = np.vstack([r, np.zeros(d)]), np.append(qty, noise.param * math.sqrt(rng.chisquare(n - d)))
    scale = math.sqrt(qty.size / n)
    return moments(scale * r, scale * qty)._replace(n=n)


def _rerm_rows(config, ctx, n, reps, rngs):
    """The achieved risks of a chunk of replications, solved as many at a time as fit in ``_STACK_BYTES``.

    Each draws from its own generator and solves exactly as alone, so the risks do not depend on the split.
    """
    beta_star, noise, law = ctx["beta_star"], config.noise, _design_of(config.noise)

    def sample_of(rng):
        # a Gaussian design with Gaussian noise is rotation invariant, so its QR factor's exact law (Bartlett) is
        # drawn at O(d^2) cost instead of O(n d); uniform designs (Bounded noise) and Exponential noise draw n rows
        if config.q == 2 and noise.kind == NoiseSpec.GAUSSIAN:
            return _gaussian_factor_moments(rng, n, beta_star, noise)
        design = law.draw(rng, n, config.d)
        rows = design, design @ beta_star + noise.draw(rng, n)
        return moments(*rows) if config.q == 2 else rows

    # a sample's objective takes 8 d^2 bytes of Gram matrix, and above q = 2 its n rows 8 n d of design
    size = max(1, _STACK_BYTES // (8 * config.d * ((n if config.q != 2 else 0) + config.d)))
    rngs, achieved = iter(rngs), []
    for start in range(0, len(reps), size):
        stack = reps[start:start + size]
        # a lazy map: each replication's arrays live only until they are stacked, the stack only as long as its solve
        parts = map(sample_of, itertools.islice(rngs, len(stack)))
        try:
            solution = solve_lq_rerm(Moments(n, *map(np.stack, list(zip(*parts))[1:])) if config.q == 2
                                     else Sample(*zip(*parts)), config.q, ctx["penalty_coef"], tol=1e-6)
        except IterationLimitError as exc:
            raise RuntimeError(f"{config.scenario} solver failed at n={n}, replication {stack[exc.row]}: {exc}; "
                               f"best gap {exc.best.optimality_gap:.3g}") from exc
        risk = _exact_risk(config, solution.beta - beta_star)
        if not np.isfinite(risk).all():
            raise RuntimeError(f"{config.scenario} exact risk is not finite at n={n}, "
                               f"replication {stack[int(np.argmin(np.isfinite(risk)))]}")
        achieved.append(risk)
    return np.concatenate(achieved)


# context(config, n) -> that n's ctx, holding its "oracle" risk and "budget"; rows(config, ctx, n, reps, rngs) ->
# the achieved risk of each replication in the range reps, rngs yielding their generators in order;
# target(config) -> target frequency, or None where the scenario fits rates; extras: the ctx keys reported per n
_Scenario = namedtuple("_Scenario", "context rows tag target extras")

_REGISTRY = {
    "FiniteGap": _Scenario(_finite_gap_ctx, _finite_gap_rows, "finite-gap", None, ("delta",)),
    "Isomorphy": _Scenario(_isomorphy_ctx, _isomorphy_rows, "isomorphy", lambda config: 1.0 - 4.0 * math.exp(-config.x),
                           ("lambda_star", "lambda_band", "bn", "big_bn")),
    "SquareLasso": _Scenario(_rerm_ctx, _rerm_rows, "square-lasso", None, ("penalty_coef",)),
    "LqRerm": _Scenario(_rerm_ctx, _rerm_rows, "lq-rerm", None, ("penalty_coef",)),
}

SCENARIOS = tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

# each named constant with its domain: c0 and c1 scale budgets and penalties, Kd is raised to the power q
_CONSTANTS = {"c0": (lambda v: v >= 0, "be >= 0"), "c1": (lambda v: v >= 0, "be >= 0"),
              "Kd": (lambda v: v > 0, "be positive")}


def _as_int(key, value):
    """An integer-valued field; bools, non-numbers and non-integral reals are rejected."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InvalidInputError(f"field {key!r} must be an integer, got {value!r}")


def _as_real(key, value):
    """A finite real field; bools, non-numbers, NaN and infinities are rejected."""
    # the comparison is False for NaN and also rejects ints too large for a float
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return float(value)
    raise InvalidInputError(f"field {key!r} must be a finite real, got {value!r}")


def _as_grid(key, value):
    if not isinstance(value, (list, tuple)):
        raise InvalidInputError(f"field {key!r} must be a list of sample sizes, got {value!r}")
    return tuple(_as_int(key, n) for n in value)


def _as_constants(key, value):
    if not isinstance(value, dict):
        raise InvalidInputError(f"field {key!r} must be a map of names to reals, got {value!r}")
    constants = {}
    for name, raw in value.items():
        if name not in _CONSTANTS:
            raise InvalidInputError(f"field '{key}.{name}' is not a known constant; use {'/'.join(_CONSTANTS)}")
        holds, requirement = _CONSTANTS[name]
        constants[name] = _as_real(f"{key}.{name}", raw)
        if not holds(constants[name]):
            raise InvalidInputError(f"field '{key}.{name}' must {requirement}, got {constants[name]!r}")
    return constants


def _as_instance(cls):
    def cast(key, value):
        if isinstance(value, cls):
            return value
        raise InvalidInputError(f"field {key!r} must be a {cls.__name__}, got {value!r}")

    return cast


def _check(obj, fields):
    """Cast and check the (key, attr, cast, predicate, requirement) fields of a frozen dataclass."""
    for key, attr, cast, holds, requirement in fields:
        value = cast(key, getattr(obj, attr))
        if holds is not None and not holds(value):
            raise InvalidInputError(f"field {key!r} must {requirement}, got {value!r}")
        object.__setattr__(obj, attr, value)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise family: Gaussian(sd), Bounded(range), or Exponential(rate).

    Bounded noise is uniform on [-range, range]; exponential noise is
    centered to mean zero, and its subexponential tail is the paper's
    unbounded setting. Every kind has mean zero, so each serves the q = 2
    scenarios, whose risk is exact. Above q = 2, ``abs_moment`` has a closed
    form for Gaussian and Bounded noise; the exact risk (``_exact_risk``)
    reads E noise^2 from it, and E noise^4 at q = 4 with Bounded noise.
    """

    kind: str
    param: float

    GAUSSIAN = "Gaussian"
    BOUNDED = "Bounded"
    EXPONENTIAL = "Exponential"

    def __post_init__(self):
        key = f"noise.{self.param_key(self.kind)}"
        _check(self, ((key, "param", _as_real, lambda v: v >= 0, "be >= 0"),))

    @classmethod
    def param_key(cls, kind):
        """The run-file name of the parameter of noise ``kind``; other kinds are rejected."""
        keys = {cls.GAUSSIAN: "sd", cls.BOUNDED: "range", cls.EXPONENTIAL: "rate"}
        if not isinstance(kind, str) or kind not in keys:
            raise InvalidInputError(f"field 'noise.kind' must be one of {'/'.join(keys)}, got {kind!r}")
        return keys[kind]

    @classmethod
    def gaussian(cls, sd):
        return cls(cls.GAUSSIAN, sd)

    @classmethod
    def bounded(cls, half_range):
        return cls(cls.BOUNDED, half_range)

    @classmethod
    def exponential(cls, rate):
        return cls(cls.EXPONENTIAL, rate)

    def draw(self, rng, size):
        if self.kind == self.GAUSSIAN:
            return rng.standard_normal(size) * self.param
        if self.kind == self.BOUNDED:
            return rng.uniform(-self.param, self.param, size)
        scale = 1.0 / self.param if self.param > 0 else 0.0
        return rng.exponential(scale, size) - scale

    def abs_moment(self, q):
        """E |noise|^q in closed form: Gaussian and Bounded noise at every q, Exponential noise at q = 2."""
        if self.kind == self.GAUSSIAN:
            return _gaussian_abs_moment(q, self.param**2)
        if self.kind == self.BOUNDED:
            return self.param**q / (q + 1.0)
        if q != 2:
            raise InvalidInputError("Exponential noise is only used with q = 2")
        return (1.0 / self.param**2) if self.param > 0 else 0.0


@dataclass(frozen=True)
class BetaStarSpec:
    """Sparse coefficient vector: ``support`` leading coordinates at ``magnitude``."""

    support: int = 3
    magnitude: float = 1.0

    def __post_init__(self):
        _check(self, (("betaStar.support", "support", _as_int, lambda v: v >= 0, "be >= 0"),
                      ("betaStar.magnitude", "magnitude", _as_real, None, None)))

    def vector(self, d):
        if self.support > d:
            raise InvalidInputError("betaStar.support exceeds d")
        beta = np.zeros(d)
        beta[: self.support] = self.magnitude
        return beta

    def l1_norm(self):
        return self.support * abs(self.magnitude)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one Monte Carlo experiment.

    Core fields follow the run schema (nGrid, epsilon, x, replications,
    masterSeed, noise, betaStar, constants). Scenario-specific knobs:
    ``gamma`` scales the FiniteGap risk gap gamma/sqrt(n); ``label_flip`` and
    ``cells`` shape the Isomorphy dictionary (d doubles as its cardinality);
    ``lambda_replications`` drives the localization estimate. SquareLasso and
    LqRerm score every replication by its exact risk (``_exact_risk``), so
    Gaussian noise runs at every q, Bounded noise at q = 2 and q = 4, and
    Exponential noise at q = 2 only; any other pair is rejected. The named
    constants are c0 >= 0, c1 >= 0 and Kd > 0; each defaults to 1.
    """

    scenario: str
    n_grid: tuple
    d: int = 10
    q: float = 2.0
    epsilon: float = 0.25
    x: float = 1.0
    replications: int = 100
    master_seed: int = 20120601
    noise: NoiseSpec = field(default_factory=lambda: NoiseSpec.gaussian(1.0))
    beta_star: BetaStarSpec = field(default_factory=BetaStarSpec)
    constants: dict = field(default_factory=dict)
    gamma: float = 1.0
    lambda_replications: int = 500
    label_flip: float = 0.3
    cells: int = 16

    def __post_init__(self):
        _check(self, _FIELDS)
        if self.scenario == "Isomorphy" and not self.x > math.log(4.0):
            # the target frequency 1 - 4 exp(-x) must be positive, or no run can miss it
            raise InvalidInputError(f"field 'x' must be > log 4 for Isomorphy, got {self.x!r}")
        if self.scenario == "SquareLasso" and self.q != 2:
            raise InvalidInputError(f"field 'q' must be 2 for SquareLasso, got {self.q!r}")
        if self.scenario in ("SquareLasso", "LqRerm"):
            # the penalty level takes log n and log d, so the smallest n and d must be >= 2
            for key, smallest in (("nGrid", self.n_grid[0]), ("d", self.d)):
                if smallest < 2:
                    raise InvalidInputError(f"field {key!r} must be >= 2 for {self.scenario}, got {smallest}")
            if self.beta_star.support > self.d:
                raise InvalidInputError(f"field 'betaStar.support' must be <= d = {self.d}, got {self.beta_star.support}")
            # the run's closed forms, here so that a (noise, q) without an exact risk, or a q, Kd or noise whose
            # powers overflow, fails before any output
            for n in self.n_grid:
                _rerm_ctx(self, n)

    def constant(self, name):
        return float(self.constants.get(name, 1.0))


# (run-file key, attribute, cast, predicate or None, requirement the predicate states)
_FIELDS = (
    ("scenario", "scenario", _as_instance(str), lambda v: v in SCENARIOS, f"be one of {'/'.join(SCENARIOS)}"),
    ("nGrid", "n_grid", _as_grid, lambda g: len(g) > 0 and g[0] >= 1 and all(a < b for a, b in zip(g, g[1:])),
     "be a nonempty strictly increasing list of positive integers"),
    ("d", "d", _as_int, lambda v: v >= 1, "be >= 1"),
    ("q", "q", _as_real, lambda v: v >= 2, "be >= 2"),
    ("epsilon", "epsilon", _as_real, lambda v: 0 < v < 0.5, "lie in (0, 1/2)"),
    ("x", "x", _as_real, lambda v: v > 0, "be positive"),
    ("replications", "replications", _as_int, lambda v: v >= 1, "be >= 1"),
    ("masterSeed", "master_seed", _as_int, lambda v: 0 <= v <= _MASK64, "fit in 64 unsigned bits"),
    ("noise", "noise", _as_instance(NoiseSpec), None, None),
    ("betaStar", "beta_star", _as_instance(BetaStarSpec), None, None),
    ("constants", "constants", _as_constants, None, None),
    ("gamma", "gamma", _as_real, lambda v: v >= 0, "be >= 0"),
    ("lambdaReplications", "lambda_replications", _as_int, lambda v: v >= 1, "be >= 1"),
    ("labelFlip", "label_flip", _as_real, lambda v: 0 <= v <= 0.5, "lie in [0, 1/2]"),
    ("cells", "cells", _as_int, lambda v: v >= 2, "be >= 2"),
)


def _noise_from_mapping(mapping):
    if not isinstance(mapping, dict) or "kind" not in mapping:
        raise InvalidInputError("noise must be an object with a 'kind' field")
    param_key = NoiseSpec.param_key(mapping["kind"])
    if set(mapping) != {"kind", param_key}:
        raise InvalidInputError(f"field 'noise' must hold 'kind' and {param_key!r} for this kind, got {list(mapping)}")
    return NoiseSpec(mapping["kind"], mapping[param_key])


def config_from_mapping(mapping):
    """Build a ScenarioConfig from a parsed key/value tree.

    Keys follow the run-file schema (nGrid, masterSeed, betaStar, ...);
    validation failures raise InvalidInputError naming the offending field.
    """
    if not isinstance(mapping, dict):
        raise InvalidInputError("configuration root must be a key/value object")
    attrs = {key: attr for key, attr, *_ in _FIELDS}
    unknown = set(mapping) - set(attrs)
    if unknown:
        raise InvalidInputError(f"unknown configuration field {sorted(unknown)[0]!r}")
    for required in ("scenario", "nGrid"):
        if required not in mapping:
            raise InvalidInputError(f"missing required field {required!r}")
    kwargs = {attrs[key]: value for key, value in mapping.items()}
    if "noise" in mapping:
        kwargs["noise"] = _noise_from_mapping(mapping["noise"])
    if "betaStar" in mapping:
        spec = mapping["betaStar"]
        if not isinstance(spec, dict) or set(spec) - {"support", "magnitude"}:
            raise InvalidInputError("betaStar must be an object with no keys but 'support' and 'magnitude'")
        # a key left out keeps its default, as a betaStar left out does
        kwargs["beta_star"] = BetaStarSpec(**spec)
    return ScenarioConfig(**kwargs)


@dataclass(frozen=True)
class RateFit:
    """Log-log OLS fit of values against sample sizes.

    The fit is ordinary least squares of log(value) on log(n) over the
    points with positive value.
    """

    slope: float
    intercept: float
    r_squared: float


def rate_fit(points):
    """Fit a power law to (n, value) pairs; needs >= 3 positive values."""
    usable = [(float(n), float(v)) for n, v in points if v > 0]
    if len(usable) < 3:
        raise InvalidInputError("rate_fit needs at least 3 points with positive values")
    logn = np.log([n for n, _ in usable])
    logv = np.log([v for _, v in usable])
    xc = logn - logn.mean()
    slope = float(xc @ (logv - logv.mean()) / (xc @ xc))
    intercept = float(logv.mean() - slope * logn.mean())
    predicted = intercept + slope * logn
    ss_res = float(np.sum((logv - predicted) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RateFit(slope=slope, intercept=intercept, r_squared=r_squared)


@dataclass(frozen=True)
class SummaryRow:
    n: int
    mean_achieved: float
    mean_slack_exact: float
    stderr_slack_exact: float
    mean_slack_nonexact: float
    stderr_slack_nonexact: float
    satisfaction_frequency: float
    floored: bool


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one scenario run produces: per-n values and per-replication arrays, summaries, fits, extras.

    ``oracle`` risk and residual ``budget`` hold one value per n of
    ``config.n_grid``. The four per-replication arrays have one row per n and
    one column per replication: ``achieved`` risk; ``slack_exact`` = achieved
    - oracle; ``slack_nonexact`` = achieved - (1 + 3 eps) * oracle; and
    ``satisfied`` = slack_nonexact <= budget. ``rows.csv`` lists all six per
    replication. ``config.scenario`` is the scenario that ran.
    """

    config: ScenarioConfig
    achieved: np.ndarray
    oracle: np.ndarray
    budget: np.ndarray
    slack_exact: np.ndarray
    slack_nonexact: np.ndarray
    satisfied: np.ndarray
    summaries: tuple
    fit_exact: RateFit | None
    fit_nonexact: RateFit | None
    satisfaction_frequency: float
    target_frequency: float | None
    floored_count: int
    extras: dict = field(default_factory=dict)


def _run_chunk(payload):
    config, ctx, n, reps = payload
    spec = _REGISTRY[config.scenario]
    rngs = _generators(config.master_seed, spec.tag, n, reps)
    return np.asarray(spec.rows(config, ctx, n, reps, rngs), dtype=float)


def _run_rows(config, contexts, workers):
    """The achieved risk of every replication, optionally computed across processes.

    Returns a (len(nGrid), replications) array in replication order.
    """
    reps = config.replications
    size = max(1, math.ceil(reps / (workers * 4))) if workers > 1 else reps
    payloads = [
        (config, contexts[n], n, range(start, min(start + size, reps)))
        for n in config.n_grid
        for start in range(0, reps, size)
    ]
    if workers > 1:
        # the pool starts all its processes at the first submit, so it gets no more than there are chunks
        # or CPUs; the chunks still follow workers, so the output does not depend on the CPU count
        with ProcessPoolExecutor(max_workers=min(workers, len(payloads), os.cpu_count() or 1)) as pool:
            chunks = list(pool.map(_run_chunk, payloads))
    else:
        chunks = [_run_chunk(p) for p in payloads]
    return np.concatenate(chunks).reshape(len(config.n_grid), reps)


def _stderr(values):
    """Per-n standard error of the mean of a (len(nGrid), replications) array."""
    if values.shape[1] < 2:
        return np.zeros(values.shape[0])
    return values.std(axis=1, ddof=1) / math.sqrt(values.shape[1])


def _try_fit(points):
    try:
        return rate_fit(points)
    except InvalidInputError:
        return None


def run_scenario(config, workers=1):
    """Run a configuration as its scenario; LqRerm at q = 2 runs as SquareLasso."""
    if config.scenario == "LqRerm" and config.q == 2:
        config = replace(config, scenario="SquareLasso")
    spec = _REGISTRY[config.scenario]
    contexts = {n: spec.context(config, n) for n in config.n_grid}
    achieved = _run_rows(config, contexts, workers)
    oracle, budget = (np.array([contexts[n][key] for n in config.n_grid], dtype=float) for key in ("oracle", "budget"))
    # the one definition of the two slacks and of a satisfied replication
    slack_exact = achieved - oracle[:, None]
    slack_nonexact = achieved - (1.0 + 3.0 * config.epsilon) * oracle[:, None]
    satisfied = slack_nonexact <= budget[:, None]

    mean_exact = slack_exact.mean(axis=1).tolist()
    mean_nonexact = slack_nonexact.mean(axis=1).tolist()
    floored = [mean <= 0.0 for mean in mean_nonexact]
    summaries = tuple(
        SummaryRow(
            n=n,
            mean_achieved=float(achieved[i].mean()),
            mean_slack_exact=mean_exact[i],
            stderr_slack_exact=float(stderr_exact),
            mean_slack_nonexact=_FLOOR if floored[i] else mean_nonexact[i],
            stderr_slack_nonexact=float(stderr_nonexact),
            satisfaction_frequency=float(satisfied[i].mean()),
            floored=floored[i],
        )
        for i, (n, stderr_exact, stderr_nonexact) in enumerate(
            zip(config.n_grid, _stderr(slack_exact), _stderr(slack_nonexact))
        )
    )
    return ScenarioResult(
        config=config,
        achieved=achieved,
        oracle=oracle,
        budget=budget,
        slack_exact=slack_exact,
        slack_nonexact=slack_nonexact,
        satisfied=satisfied,
        summaries=summaries,
        fit_exact=None if spec.target else _try_fit(zip(config.n_grid, mean_exact)),
        fit_nonexact=None if spec.target else _try_fit(zip(config.n_grid, mean_nonexact)),
        satisfaction_frequency=float(satisfied.mean()),
        target_frequency=spec.target(config) if spec.target else None,
        floored_count=sum(floored),
        extras={n: {key: contexts[n][key] for key in spec.extras} for n in config.n_grid},
    )


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

ROWS_HEADER = "scenario,n,replication,achievedRisk,oracleRisk,slackExact,slackNonexact,budget,satisfied"
SUMMARY_HEADER = (
    "scenario,n,replications,meanAchievedRisk,meanOracleRisk,meanSlackExact,stderrSlackExact,"
    "meanSlackNonexact,stderrSlackNonexact,meanBudget,satisfactionFrequency,flooredNonexact,"
    "flooredCount,targetFrequency,slopeExact,interceptExact,r2Exact,slopeNonexact,"
    "interceptNonexact,r2Nonexact"
)


def _fmt(value):
    return f"{value:.17g}"


def _fmt_opt(value):
    return "" if value is None else _fmt(value)


def rows_csv_text(result):
    """Per-replication CSV payload with a fixed column order; each n's oracle risk and budget repeat."""
    lines = [ROWS_HEADER]
    scenario = result.config.scenario
    columns = (result.achieved, result.slack_exact, result.slack_nonexact, result.satisfied)
    for i, n in enumerate(result.config.n_grid):
        oracle, budget = _fmt(result.oracle[i]), _fmt(result.budget[i])
        fields = zip(*(column[i].tolist() for column in columns))
        for rep, (achieved, exact, nonexact, satisfied) in enumerate(fields):
            lines.append(f"{scenario},{n},{rep},{_fmt(achieved)},{oracle},{_fmt(exact)},{_fmt(nonexact)},{budget},"
                         f"{'true' if satisfied else 'false'}")
    return "\n".join(lines) + "\n"


def summary_csv_text(result):
    """Per-n means, standard errors, and the fitted slopes."""
    config, lines = result.config, [SUMMARY_HEADER]
    fits = [_fmt_opt(getattr(fit, key) if fit else None)
            for fit in (result.fit_exact, result.fit_nonexact) for key in ("slope", "intercept", "r_squared")]
    for s, oracle, budget in zip(result.summaries, result.oracle, result.budget):
        means = (s.mean_achieved, oracle, s.mean_slack_exact, s.stderr_slack_exact, s.mean_slack_nonexact,
                 s.stderr_slack_nonexact, budget, s.satisfaction_frequency)
        lines.append(",".join([config.scenario, str(s.n), str(config.replications), *map(_fmt, means),
                               "true" if s.floored else "false", str(result.floored_count),
                               _fmt_opt(result.target_frequency), *fits]))
    return "\n".join(lines) + "\n"


def write_rows_csv(result, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(rows_csv_text(result))


def write_summary_csv(result, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(summary_csv_text(result))
