"""Monte Carlo scenarios that measure oracle-inequality slacks at desk scale.

Four scenarios are provided:

* ``FiniteGap``: a two-predictor sign-loss dictionary whose population risks
  differ by gamma/sqrt(n). The exact slack of ERM (risk above the oracle)
  decays like n^{-1/2}; the nonexact slack (risk above (1+3 eps) times the
  oracle) decays much faster, which is the rate gap the scenario quantifies.
* ``Isomorphy``: estimates the localization level of a finite dictionary by
  Monte Carlo plus bisection, builds the residual budget there from the exact
  psi_1 constants of its 0-1 losses, and measures how often empirical and
  population risks are equivalent at that budget on fresh draws.
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
``context(config, n)``, rows function, config check ``check(config)``, seed
tag, target frequency (a scenario without one fits rates) and per-n extras.
Each context holds that n's oracle risk and residual budget; Isomorphy's
draws its dictionary from the fixed ``isomorphy/model`` stream, so every n
gets the same one. A rows function scores one chunk of replications at one
n: it gets their indices and their generators, made one at a time, and
returns their achieved risks in replication order. ``run_scenario`` is the one entry
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
is the config schema: each row casts and checks a field, whether built in
Python or by ``config_from_mapping``, and names the scenarios that read it. A
key or a constant its scenario does not read is rejected (``_check_read``).
One law table, ``_LAWS``, holds each noise kind's parameter key, draw and
moments; a design coordinate is the unit law of a kind (``_design_of``).

Every stream of a run is ``np.random.default_rng(derive_seed(masterSeed,
tag, n, i))``, so results do not depend on scheduling or worker count, and
achieved risks are gathered in replication order. ``_generators`` makes the
replications' and Isomorphy's localization generators a range at a time: it
runs numpy's fixed ``SeedSequence`` algorithm on uint32 arrays. Isomorphy
reads each such generator's one draw from its raw words, bit for bit numpy's
``integers`` and ``random`` (``_isomorphy_blocks``). Both
reproductions live in ``seeding`` and are tested against numpy; only
``_generators`` and ``_isomorphy_blocks`` import it, since it loads
numpy.random, so importing the CLI does not. Nonpositive per-n mean
nonexact slacks cannot enter a log-log fit: they are excluded from the fit,
counted, and reported in summaries as the tiny positive constant ``_FLOOR``.
``write_rows_csv`` writes ``rows.csv`` one n at a time, as ``_rows_csv_blocks``
formats it, so memory holds one n's lines rather than every row of the run;
``rows_csv_text`` joins the same blocks.
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

from .concentration import bernstein_from_psi1
from .complexity import expected_localized_sup, fixed_point_lambda
from .errors import InvalidInputError, IterationLimitError
from .model import Sample, erm_finite, histogram_risks
from .solvers import Moments, erm_residual, l1_penalty_level, moments, rerm_residual, solve_lq_rerm
# unused here: perfbench/probe.py patches these names in harness to time layers, and its patch targets must resolve
from .concentration import envelope_psi1, psi_alpha_norm  # noqa: F401
from .model import risk_estimate  # noqa: F401

__all__ = [
    "NoiseSpec",
    "BetaStarSpec",
    "ScenarioConfig",
    "config_from_mapping",
    "RateFit",
    "ScenarioResult",
    "derive_seed",
    "rate_fit",
    "run_scenario",
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


def _require(holds, key, requirement, value):
    """Unless ``holds``, reject field ``key``: it must ``requirement``, got ``value``."""
    if not holds:
        raise InvalidInputError(f"field {key!r} must {requirement}, got {value!r}")


def _within_floats(quantity, n, fields, build):
    """``build()``, n's ``quantity``. The config has checked what it is built from, so an InvalidInputError or an
    ArithmeticError from it, like a value past the floats, is reported by the config ``fields`` it grows with."""
    try:
        value = build()
    except (InvalidInputError, ArithmeticError):
        value = math.inf
    if math.isfinite(value):
        return value
    names, lower = ", ".join(f"'{name}'" for name in fields), ", ".join(fields[:-1]) + f" or {fields[-1]}"
    raise InvalidInputError(f"fields {names} and 'epsilon' make the {quantity} overflow a float at n={n}; "
                            f"lower {lower}, or raise epsilon")


def _erm_budget(config, n, x, lam_star=0.0, bn=1.0, big_bn=0.0):
    """The budget ``erm_residual`` gives at n: FiniteGap's c0 (x + log 2) / (epsilon n) at the defaults, with x + log 2
    passed as ``x``, and Isomorphy's at its estimates."""
    return _within_floats("budget", n, ("x", "constants.c0"), lambda: erm_residual(
        lam_star, bn, big_bn, config.epsilon, x, n, config.constant("c0")))


def _isomorphy_check(config):
    # its target frequency 1 - 4 exp(-x) must be positive, or no run can miss it
    _require(config.x > math.log(4.0), "x", "be > log 4 for Isomorphy", config.x)
    # 0-1 losses bound bn by 1 / ln 2 and big_bn by log(e n) / ln 2, and the deviation term is largest at the smallest
    # n, so a budget past the floats fails before any draw
    n, bound = config.n_grid[0], _indicator_psi1(1.0)
    _erm_budget(config, n, config.x, 0.0, bound, bernstein_from_psi1(bound, n))


def _finite_gap_ctx(config, n):
    delta = min(config.gamma / math.sqrt(n), 1.0 - 1e-12)
    p_plus = 0.5 + delta / 2.0
    true_risks = np.array([1.0 - p_plus, p_plus])
    losses = np.array([[0.0, 1.0], [1.0, 0.0]])  # 0-1 losses of the constant predictors +1 and -1 at labels +1 and -1
    return {"true_risks": true_risks, "losses": losses, "p_plus": p_plus, "delta": delta,
            "oracle": float(true_risks.min()), "budget": _erm_budget(config, n, config.x + math.log(2.0))}


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
    losses = (np.hstack([patterns, patterns]) * np.repeat([1.0, -1.0], k) <= 0).astype(float)
    return err_prob.mean(axis=1), losses, p_plus


def _isomorphy_blocks(rngs, p_plus, n):
    """Fresh draws of n labelled cells, one per generator in order, as (draws, n) blocks of point indices.

    Each generator draws its n cells, then n uniforms that label them, bit for bit numpy's
    ``integers(0, k, size=n)`` and ``random(n)``, read from its raw words (``seeding.integers_then_random``).
    Each generator is fresh and draws once, and a draw reads its own stream, so every stream is the same
    whatever the blocks. A block holds as many draws as fit in ``_STACK_BYTES`` at 16 bytes per drawn cell
    and 16 per distinct point (a draw's count of it, as an integer and as a float). A drawn cell is an 8-byte
    index, and 12 bytes of raw words (half a word for its cell, one for its uniform) in a buffer that the
    call reuses from block to block.
    """
    from .seeding import integers_then_random

    k = p_plus.size
    size = max(1, _STACK_BYTES // (16 * (n + 2 * k)))
    # a uniform is u * 2^-53 for an integer u, so it is at least p exactly when u >= ceil(p 2^53)
    at_least = np.ceil(p_plus * 2.0**53).astype(np.uint64)
    for cells, units in integers_then_random(rngs, k, n, size):
        cells += k * (units >= at_least[cells])
        yield cells


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


def _indicator_psi1(m):
    """The psi_1 norm of a {0, 1} variable with mean m, the c at which 1 - m + m e^(1/c) = 2; 0 at m = 0."""
    return 1.0 / math.log1p(1.0 / m) if m > 0 else 0.0


def _isomorphy_ctx(config, n):
    true_risks, losses, p_plus = _isomorphy_model(config)
    rngs = _generators(config.master_seed, "isomorphy/lambda", n, range(config.lambda_replications))
    emp = _isomorphy_risks(rngs, losses, p_plus, n)
    estimate = expected_localized_sup(true_risks, np.abs(true_risks - emp))
    floor = 1e-4
    lam_star = fixed_point_lambda(lambda lam: estimate(lam).mean, config.epsilon, bracket_hi=1.0, tol=floor)
    phi_at = estimate(lam_star)

    # exact psi_1 constants of 0-1 losses: a draw's envelope is 1 unless all n points are ones where every function is
    # right (each with probability p0), and the diameter is the norm of the losses of the function of largest risk
    p0 = float(np.concatenate([p_plus, 1.0 - p_plus]) @ (losses.max(axis=0) == 0)) / p_plus.size
    bn = _indicator_psi1(1.0 - p0**n)
    big_bn = bernstein_from_psi1(_indicator_psi1(float(true_risks.max())), n)
    rho = _erm_budget(config, n, config.x, lam_star, bn, big_bn)
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
        # true where lambda_star is fixed_point_lambda's lower end, its tolerance, rather than a fixed point
        "lambda_at_floor": lam_star == floor,
        "bn": bn,
        "big_bn": big_bn,
    }


def _isomorphy_rows(config, ctx, n, reps, rngs):
    """The worst margin max_f (R(f) - (1 + 2 eps) R_n(f)) of each replication of a chunk."""
    emp = _isomorphy_risks(rngs, ctx["losses"], ctx["p_plus"], n)
    return np.max(ctx["true_risks"] - (1.0 + 2.0 * config.epsilon) * emp, axis=1)


def _rerm_ctx(config, n):
    q, kd = config.q, config.constant("Kd")
    # epsilon^2 may round to 0, where the division raises ZeroDivisionError
    penalty_coef = _within_floats("penalty coefficient", n, ("q", "x", "constants.Kd", "constants.c0"), lambda: (
        l1_penalty_level(n, config.d, config.x, q, kd, c0=config.constant("c0")) / (n * config.epsilon**2)))
    budget = _within_floats("budget", n, ("q", "x", "betaStar", "constants.Kd", "constants.c1"), lambda: (
        rerm_residual(n, config.d, q, kd, config.epsilon, config.beta_star.l1_norm(), config.x, config.constant("c1"))))
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


def _design_of(noise):
    """Each design coordinate's law, the unit law of a kind: U[-1, 1] with Bounded noise, N(0, 1) otherwise."""
    return NoiseSpec("Bounded" if noise.kind == "Bounded" else "Gaussian", 1.0)


def _gaussian_abs_moment(q, var):
    """E |N(0, var)|^q = c_q var^(q/2), c_q = 2^(q/2) Gamma((q + 1)/2) / sqrt(pi); var itself at q = 2, where the
    gamma function would round c_2 to 1.0000000000000002. A c_q past the floats (from about q = 340) raises
    OverflowError, unless var^(q/2) is 0 everywhere, which is then the moment."""
    if q == 2:
        return var
    power = var ** (q / 2)
    if not np.any(power):
        return power
    return 2.0 ** (q / 2) * math.gamma((q + 1) / 2) / math.sqrt(math.pi) * power


def _exact_risk(config, delta):
    """The exact L_q risk E |x.delta + xi|^q of each row of the (R, d) array ``delta`` = beta - beta_star.

    The design's coordinates and the noise are independent, each with mean zero. With Gaussian noise the design is
    Gaussian too, so x.delta + xi ~ N(0, m2 ||delta||^2 + sd^2) at every q. Otherwise the q = 2 risk is
    S + E xi^2 with S = m2 ||delta||^2, and the q = 4 risk E (x.delta)^4 + 6 S E xi^2 + E xi^4 loses the terms odd
    in x.delta or in xi, with E (x.delta)^4 = 3 S^2 + (m4 - 3 m2^2) sum_j delta_j^4. Other pairs raise, naming a field.
    """
    q, noise, design = config.q, config.noise, _design_of(config.noise)
    m2 = design._moment(2)
    with np.errstate(over="ignore", invalid="ignore"):
        square = m2 * (delta[:, None, :] @ delta[:, :, None])[:, 0, 0]
        if noise.kind == "Gaussian":
            return _gaussian_abs_moment(q, square + noise.param**2)
        if q == 2:
            return square + noise._moment(2)
        if q == 4 and noise.kind == "Bounded":
            return (3.0 * square * square + (design._moment(4) - 3.0 * m2**2) * np.sum(delta**4, axis=-1)
                    + 6.0 * square * noise._moment(2) + noise._moment(4))
    if noise.kind == "Exponential":
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
    beta_star, noise, design_law = ctx["beta_star"], config.noise, _design_of(config.noise)

    def sample_of(rng):
        # a Gaussian design with Gaussian noise is rotation invariant, so its QR factor's exact law (Bartlett) is
        # drawn at O(d^2) cost instead of O(n d); uniform designs (Bounded noise) and Exponential noise draw n rows
        if config.q == 2 and noise.kind == "Gaussian":
            return _gaussian_factor_moments(rng, n, beta_star, noise)
        design = design_law.draw(rng, (n, config.d))
        rows = design, design @ beta_star + noise.draw(rng, n)
        return moments(*rows) if config.q == 2 else rows

    # a sample's objective takes 8 d^2 bytes of Gram matrix, and above q = 2 its n rows 8 n d of design
    size = max(1, _STACK_BYTES // (8 * config.d * ((n if config.q != 2 else 0) + config.d)))
    rngs, achieved = iter(rngs), []
    for start in range(0, len(reps), size):
        stack = reps[start:start + size]
        # a lazy map: each replication's arrays live only until they are stacked, the stack only as long as its solve
        parts = map(sample_of, itertools.islice(rngs, len(stack)))
        if config.q == 2:
            sample = Moments(n, *map(np.stack, list(zip(*parts))[1:]))
        else:
            # each replication's rows go into their slices of one stack, which the Sample takes over without a copy
            design, response = np.empty((len(stack), n, config.d)), np.empty((len(stack), n))
            for i, rows in enumerate(parts):
                design[i], response[i] = rows
            sample = Sample(design, response)
        try:
            solution = solve_lq_rerm(sample, config.q, ctx["penalty_coef"], tol=1e-6)
        except IterationLimitError as exc:
            raise RuntimeError(f"{config.scenario} solver failed at n={n}, replication {stack[exc.row]}: {exc}; "
                               f"best gap {exc.best.optimality_gap:.3g}") from exc
        risk = _exact_risk(config, solution.beta - beta_star)
        if not np.isfinite(risk).all():
            raise RuntimeError(f"{config.scenario} exact risk is not finite at n={n}, "
                               f"replication {stack[int(np.argmin(np.isfinite(risk)))]}")
        achieved.append(risk)
    return np.concatenate(achieved)


def _rerm_check(config):
    # the penalty level takes log n and log d, so the smallest n and d must be >= 2
    for key, smallest in (("nGrid", config.n_grid[0]), ("d", config.d)):
        _require(smallest >= 2, key, f"be >= 2 for {config.scenario}", smallest)
    # the run's closed forms, here so that a betaStar.support above d, a (noise, q) without an exact risk, or a q, Kd
    # or noise whose powers overflow, fails before any output
    for n in config.n_grid:
        _rerm_ctx(config, n)


def _square_lasso_check(config):
    _require(config.q == 2, "q", "be 2 for SquareLasso", config.q)
    _rerm_check(config)


# context(config, n) -> that n's ctx, holding its "oracle" risk and "budget"; rows(config, ctx, n, reps, rngs) ->
# the achieved risk of each replication in the range reps, rngs yielding their generators in order; check(config)
# raises InvalidInputError naming a field the scenario cannot run with; target(config) -> target frequency, or None
# where the scenario fits rates; extras: the ctx keys reported per n
_Scenario = namedtuple("_Scenario", "context rows check tag target extras")

_REGISTRY = {
    # FiniteGap checks its largest budget, at the smallest n, so that an overflow fails before any output
    "FiniteGap": _Scenario(_finite_gap_ctx, _finite_gap_rows,
                           lambda config: _erm_budget(config, config.n_grid[0], config.x + math.log(2.0)), "finite-gap",
                           None, ("delta",)),
    "Isomorphy": _Scenario(_isomorphy_ctx, _isomorphy_rows, _isomorphy_check,
                           "isomorphy", lambda config: 1.0 - 4.0 * math.exp(-config.x),
                           ("lambda_star", "lambda_band", "lambda_at_floor", "bn", "big_bn")),
    "SquareLasso": _Scenario(_rerm_ctx, _rerm_rows, _square_lasso_check, "square-lasso", None, ("penalty_coef",)),
    "LqRerm": _Scenario(_rerm_ctx, _rerm_rows, _rerm_check, "lq-rerm", None, ("penalty_coef",)),
}

SCENARIOS = tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

def _as_int(value):
    """``value`` as an int, or None for a bool, a non-number or a non-integral real."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    return int(value) if integral or isinstance(value, float) and value.is_integer() else None


def _as_real(value):
    """``value`` as a float, or None for a bool, a non-number, NaN, an infinity or an int too large for a float."""
    # the comparison is False for NaN and for ints too large for a float
    real = isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return float(value) if real else None


def _as_grid(value):
    """``value`` as a tuple of ints, or None if it is not a list or an entry is not an integer."""
    grid = tuple(map(_as_int, value)) if isinstance(value, (list, tuple)) else None
    return None if grid is None or None in grid else grid


def _as_instance(cls):
    return lambda value: value if isinstance(value, cls) else None


# a checked field: its run-file key, attribute, cast (which returns None for a value of the wrong type), predicate
# or None, the requirement that both state, and the scenarios that read it (None for a field of a field)
_Field = namedtuple("_Field", "key attr cast holds requirement readers", defaults=(None,))


def _checked(row, raw):
    """``raw`` cast and checked by its ``_Field`` row."""
    value = row.cast(raw)
    _require(value is not None and (row.holds is None or row.holds(value)), row.key, row.requirement, raw)
    return value


def _check(obj, rows):
    """Cast and check the fields of a frozen dataclass."""
    for row in rows:
        object.__setattr__(obj, row.attr, _checked(row, getattr(obj, row.attr)))


def _check_read(scenario, key, row):
    """Reject ``key`` unless its ``_Field`` row names ``scenario``; a key with no row is read by no scenario."""
    if row is None or scenario not in row.readers:
        raise InvalidInputError(f"field {key!r} is not read by {scenario}")


_REGRESSION = ("SquareLasso", "LqRerm")
# each named constant's row: c0 and c1 scale budgets and penalties, Kd is raised to the power q
_CONSTANTS = {
    "c0": _Field("constants.c0", "c0", _as_real, lambda v: v >= 0, "be a finite real >= 0", SCENARIOS),
    "c1": _Field("constants.c1", "c1", _as_real, lambda v: v >= 0, "be a finite real >= 0", _REGRESSION),
    "Kd": _Field("constants.Kd", "Kd", _as_real, lambda v: v > 0, "be a finite real > 0", _REGRESSION),
}


def _as_constants(value):
    """``value`` as a dict of constants, each cast and checked by its row, or None if it is not a dict. A name with no
    row is kept as it is, for ``ScenarioConfig`` to reject as read by no scenario."""
    if isinstance(value, dict):
        return {name: _checked(_CONSTANTS[name], raw) if name in _CONSTANTS else raw for name, raw in value.items()}
    return None


def _exponential_draw(rng, size, rate):
    scale = 1.0 / rate if rate > 0 else 0.0
    return rng.exponential(scale, size) - scale


# each noise kind's law, with its parameter p: the run-file key of p, draw(rng, size, p) -> an array of that size,
# and moment(q, p) = E |xi|^q, unchecked and NaN where the package has no closed form (Exponential noise above q = 2)
_Law = namedtuple("_Law", "key draw moment")
_LAWS = {
    "Gaussian": _Law("sd", lambda rng, size, p: rng.standard_normal(size) * p,
                     lambda q, p: _gaussian_abs_moment(q, p**2)),
    "Bounded": _Law("range", lambda rng, size, p: rng.uniform(-p, p, size), lambda q, p: p**q / (q + 1.0)),
    "Exponential": _Law("rate", _exponential_draw, lambda q, p: (1.0 / p**2 if p > 0 else 0.0) if q == 2 else math.nan),
}


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise family: Gaussian(sd), Bounded(range), or Exponential(rate), each one row of ``_LAWS``.

    Bounded noise is uniform on [-range, range]; exponential noise is
    centered to mean zero, and its subexponential tail is the paper's
    unbounded setting. Every kind has mean zero, so each serves the q = 2
    scenarios, whose risk is exact. Above q = 2, ``abs_moment`` has a closed
    form for Gaussian and Bounded noise. ``_exact_risk`` reads E noise^2, and
    E noise^4 at q = 4 with Bounded noise, from the unchecked ``_moment``,
    whose overflow ``_rerm_ctx`` reports by the config fields at fault.
    """

    kind: str
    param: float

    def __post_init__(self):
        key = f"noise.{self.param_key(self.kind)}"
        _check(self, (_Field(key, "param", _as_real, lambda v: v >= 0, "be a finite real >= 0"),))

    @staticmethod
    def param_key(kind):
        """The run-file name of the parameter of noise ``kind``; other kinds are rejected."""
        if not isinstance(kind, str) or kind not in _LAWS:
            raise InvalidInputError(f"field 'noise.kind' must be one of {'/'.join(_LAWS)}, got {kind!r}")
        return _LAWS[kind].key

    @classmethod
    def gaussian(cls, sd):
        return cls("Gaussian", sd)

    @classmethod
    def bounded(cls, half_range):
        return cls("Bounded", half_range)

    @classmethod
    def exponential(cls, rate):
        return cls("Exponential", rate)

    def draw(self, rng, size):
        return _LAWS[self.kind].draw(rng, size, self.param)

    def abs_moment(self, q):
        """E |noise|^q in closed form: Gaussian and Bounded noise at every finite q >= 0, Exponential noise at q = 2.
        Any other q, or a moment past the floats, raises InvalidInputError naming ``q`` and the noise parameter."""
        try:
            moment = self._moment(float(q)) if 0.0 <= q < math.inf else math.nan
        except ArithmeticError:  # a float power or gamma past the floats, or 1 / rate^2 at a rate^2 of 0
            moment = math.inf
        if not math.isfinite(moment):
            key = f"noise.{self.param_key(self.kind)}"
            raise InvalidInputError(f"E |noise|^q is not a finite float at q = {q}, {key} = {self.param}")
        return moment

    def _moment(self, q):
        return _LAWS[self.kind].moment(q, self.param)


@dataclass(frozen=True)
class BetaStarSpec:
    """Sparse coefficient vector: ``support`` leading coordinates at ``magnitude``."""

    support: int = 3
    magnitude: float = 1.0

    def __post_init__(self):
        _check(self, (_Field("betaStar.support", "support", _as_int, lambda v: v >= 0, "be an integer >= 0"),
                      _Field("betaStar.magnitude", "magnitude", _as_real, None, "be a finite real")))

    def vector(self, d):
        _require(self.support <= d, "betaStar.support", f"be <= d = {d}", self.support)
        beta = np.zeros(d)
        beta[: self.support] = self.magnitude
        return beta

    def l1_norm(self):
        return self.support * abs(self.magnitude)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one Monte Carlo experiment.

    Fields follow the run schema, ``_FIELDS``, which casts and checks each one and names the scenarios that read it;
    then the scenario's own ``check`` runs (``_REGISTRY``), which for SquareLasso and LqRerm rejects a (noise, q) pair
    without an exact risk (``_exact_risk``). ``gamma`` scales the FiniteGap risk gap gamma/sqrt(n); ``label_flip`` and
    ``cells`` shape the Isomorphy dictionary (d doubles as its cardinality); ``lambda_replications`` drives the
    localization estimate. The named constants c0, c1 and Kd each default to 1. A constant the scenario does not read
    is rejected; any other field it does not read keeps its default silently here, since a set value and a default
    cannot be told apart, and ``config_from_mapping`` rejects it.
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
        for name in self.constants:
            _check_read(self.scenario, f"constants.{name}", _CONSTANTS.get(name))
        _REGISTRY[self.scenario].check(self)

    def constant(self, name):
        return float(self.constants.get(name, 1.0))


_FIELDS = (
    _Field("scenario", "scenario", _as_instance(str), lambda v: v in SCENARIOS, f"be one of {'/'.join(SCENARIOS)}",
           SCENARIOS),
    _Field("nGrid", "n_grid", _as_grid, lambda g: len(g) > 0 and g[0] >= 1 and all(a < b for a, b in zip(g, g[1:])),
           "be a nonempty strictly increasing list of positive integers", SCENARIOS),
    _Field("d", "d", _as_int, lambda v: v >= 1, "be an integer >= 1", ("Isomorphy", *_REGRESSION)),
    _Field("q", "q", _as_real, lambda v: v >= 2, "be a finite real >= 2", _REGRESSION),
    _Field("epsilon", "epsilon", _as_real, lambda v: 0 < v < 0.5, "be a real in (0, 1/2)", SCENARIOS),
    _Field("x", "x", _as_real, lambda v: v > 0, "be a finite real > 0", SCENARIOS),
    _Field("replications", "replications", _as_int, lambda v: v >= 1, "be an integer >= 1", SCENARIOS),
    _Field("masterSeed", "master_seed", _as_int, lambda v: 0 <= v <= _MASK64, "be an integer in [0, 2^64)", SCENARIOS),
    _Field("noise", "noise", _as_instance(NoiseSpec), None, "be a NoiseSpec", _REGRESSION),
    _Field("betaStar", "beta_star", _as_instance(BetaStarSpec), None, "be a BetaStarSpec", _REGRESSION),
    _Field("constants", "constants", _as_constants, None, "be a map of names to reals", SCENARIOS),
    _Field("gamma", "gamma", _as_real, lambda v: v >= 0, "be a finite real >= 0", ("FiniteGap",)),
    _Field("lambdaReplications", "lambda_replications", _as_int, lambda v: v >= 1, "be an integer >= 1",
           ("Isomorphy",)),
    _Field("labelFlip", "label_flip", _as_real, lambda v: 0 <= v <= 0.5, "be a real in [0, 1/2]", ("Isomorphy",)),
    # the draw reproduces numpy's 32-bit bounded integers only (seeding.integers_then_random)
    _Field("cells", "cells", _as_int, lambda v: 2 <= v <= 2**32, "be an integer in [2, 2**32]", ("Isomorphy",)),
)


def config_from_mapping(mapping):
    """Build a ScenarioConfig from a parsed key/value tree.

    Keys follow the run-file schema (nGrid, masterSeed, betaStar, ...);
    validation failures raise InvalidInputError naming the offending field,
    and so does a key that the scenario does not read.
    """
    if not isinstance(mapping, dict):
        raise InvalidInputError("configuration root must be a key/value object")
    for required in ("scenario", "nGrid"):
        if required not in mapping:
            raise InvalidInputError(f"missing required field {required!r}")
    rows = {row.key: row for row in _FIELDS}
    scenario = _checked(rows["scenario"], mapping["scenario"])
    for key in mapping:
        _check_read(scenario, key, rows.get(key))
    kwargs = {rows[key].attr: value for key, value in mapping.items()}
    if "noise" in mapping:
        spec = mapping["noise"]
        if not isinstance(spec, dict) or "kind" not in spec:
            raise InvalidInputError("noise must be an object with a 'kind' field")
        param_key = NoiseSpec.param_key(spec["kind"])
        if set(spec) != {"kind", param_key}:
            raise InvalidInputError(f"field 'noise' must hold 'kind' and {param_key!r} for this kind, got {list(spec)}")
        kwargs["noise"] = NoiseSpec(spec["kind"], spec[param_key])
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
    """Fit a power law to (n, value) pairs: n finite and > 0, no value infinite, 3+ positive values at 2+ distinct n."""
    points = [(float(n), float(v)) for n, v in points]
    if not all(0 < n < math.inf for n, _ in points):
        raise InvalidInputError("rate_fit needs every n finite and positive")
    if any(math.isinf(v) for _, v in points):
        raise InvalidInputError("rate_fit needs values that are not infinite")
    usable = [(n, v) for n, v in points if v > 0]
    if len(usable) < 3:
        raise InvalidInputError("rate_fit needs at least 3 points with positive values")
    if len({n for n, _ in usable}) < 2:
        raise InvalidInputError("rate_fit needs positive values at 2 or more distinct n")
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


def _rows_csv_blocks(result):
    """The per-replication CSV payload a block at a time: the header line, then each n's lines as one string.

    Every line ends in a newline, and the column order is fixed; each n's oracle risk and budget repeat.
    """
    yield ROWS_HEADER + "\n"
    scenario = result.config.scenario
    columns = (result.achieved, result.slack_exact, result.slack_nonexact, result.satisfied)
    for i, n in enumerate(result.config.n_grid):
        oracle, budget = _fmt(result.oracle[i]), _fmt(result.budget[i])
        # each distinct row is formatted once (FiniteGap has two per n). Within an n, satisfied follows from the
        # nonexact slack, so the bit patterns of the three floats key a row; unlike their values they tell 0.0
        # from -0.0
        bits = np.stack([column[i] for column in columns[:3]], axis=-1).view(np.int64)
        _, first, which = np.unique(bits, axis=0, return_index=True, return_inverse=True)
        texts = [f"{_fmt(achieved)},{oracle},{_fmt(exact)},{_fmt(nonexact)},{budget},{'true' if ok else 'false'}\n"
                 for achieved, exact, nonexact, ok in zip(*(column[i][first].tolist() for column in columns))]
        yield "".join([f"{scenario},{n},{rep},{texts[row]}" for rep, row in enumerate(which.tolist())])


def rows_csv_text(result):
    """The whole ``rows.csv`` payload as one string."""
    return "".join(_rows_csv_blocks(result))


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
    """Write ``rows.csv`` one n at a time, so memory holds one n's lines rather than every row of the run."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(_rows_csv_blocks(result))


def write_summary_csv(result, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(summary_csv_text(result))
