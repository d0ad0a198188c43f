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
  beta = beta_star with a matching budget. The achieved risk is the exact
  population square risk m2 ||beta - beta_star||^2 + E noise^2, where m2 is
  the design's per-coordinate second moment; no test set is drawn.
* ``LqRerm``: the same with the L_q risk and an l1^q penalty. For q != 2 the
  achieved risk is a Monte Carlo estimate on a fresh test set of
  ``test_size`` points.

One registry, ``_REGISTRY``, holds per scenario its context builder, row
function, seed tag, whether it fits rates, its target frequency and its
per-n extras. Every ``run_*`` entry point takes one path, ``_run``, which
holds the one dispatch rule: LqRerm at q = 2 runs as SquareLasso, so both
give identical output for identical configurations. One field table,
``_FIELDS``, is the config schema: ``ScenarioConfig`` casts and checks every
field through it, whether built in Python or by ``config_from_mapping``.

Every replication draws from a generator seeded by a 64-bit mix of
(masterSeed, scenario tag, n, replication index), so results are independent
of scheduling and worker count; rows are always aggregated in replication
order. Nonpositive per-n mean nonexact slacks cannot enter a log-log fit:
they are excluded from the fit, counted, and reported floored at a small
configurable value in summaries.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .concentration import bernstein_from_psi1, envelope_psi1, psi_alpha_norm
from .complexity import expected_localized_sup, fixed_point_lambda
from .errors import InvalidInputError, IterationLimitError
from .model import FiniteModel, LossSpec, Sample, erm_finite, risk_estimate
from .solvers import erm_residual, l1_penalty_level, solve_lq_rerm

__all__ = [
    "NoiseSpec",
    "BetaStarSpec",
    "ScenarioConfig",
    "config_from_mapping",
    "OracleReport",
    "Row",
    "RateFit",
    "SummaryRow",
    "ScenarioResult",
    "derive_seed",
    "rate_fit",
    "run_finite_gap",
    "run_isomorphy",
    "run_square_lasso",
    "run_lq_rerm",
    "run_scenario",
    "rows_csv_text",
    "summary_csv_text",
    "write_rows_csv",
    "write_summary_csv",
]

_MASK64 = (1 << 64) - 1


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
    chunk and mixes in only the replication per row.
    """
    return _splitmix64(_stream_prefix(master_seed, tag, n) ^ (int(replication) & _MASK64))


# ---------------------------------------------------------------------------
# per-scenario contexts and row computations
# ---------------------------------------------------------------------------


def _finite_gap_ctx(config, n):
    delta = min(config.gamma / math.sqrt(n), 1.0 - 1e-12)
    p_plus = 0.5 + delta / 2.0
    true_risks = np.array([1.0 - p_plus, p_plus])
    predictions = np.vstack([np.ones(n), -np.ones(n)])
    model = FiniteModel(predictions=predictions, true_risks=true_risks)
    budget = config.constant("c0") * (config.x + math.log(2.0)) / (config.epsilon * n)
    return {"model": model, "loss": LossSpec.zero_one(), "p_plus": p_plus, "delta": delta, "budget": budget}


def _finite_gap_row(config, ctx, n, rep, rng):
    labels = 2.0 * (rng.random(n) < ctx["p_plus"]) - 1.0
    model = ctx["model"]
    j = erm_finite(model, labels, ctx["loss"])
    achieved = float(model.true_risks[j])
    oracle = float(model.true_risks.min())
    return OracleReport.build(n, achieved, oracle, config.epsilon, ctx["budget"])


def _isomorphy_model(config):
    """Finite sign dictionary over equiprobable cells with known risks.

    Labels are +1 with probability 0.5 + label_flip on even cells and
    0.5 - label_flip on odd cells; predictor sign patterns are drawn once
    from a seed derived from the master seed, so population risks are exact.
    """
    k = config.cells
    rng = np.random.default_rng(derive_seed(config.master_seed, "isomorphy/model", 0, 0))
    patterns = rng.choice([-1.0, 1.0], size=(config.d, k))
    signs = np.where(np.arange(k) % 2 == 0, 1.0, -1.0)
    p_plus = 0.5 + config.label_flip * signs
    err_prob = np.where(patterns > 0, 1.0 - p_plus, p_plus)
    true_risks = err_prob.mean(axis=1)
    model = FiniteModel(predictions=patterns, true_risks=true_risks)
    return model, p_plus


def _isomorphy_losses(rng, model, p_plus, n):
    """One fresh draw of n labeled cells: the functions x n boolean matrix of sign losses."""
    cells = rng.integers(0, p_plus.size, size=n)
    labels = np.where(rng.random(n) < p_plus[cells], 1.0, -1.0)
    return (model.predictions[:, cells] * labels) <= 0


def _isomorphy_contexts(config):
    model, p_plus = _isomorphy_model(config)
    return {n: _isomorphy_ctx(config, n, model, p_plus) for n in config.n_grid}


def _isomorphy_ctx(config, n, model, p_plus):
    true_risks = model.true_risks

    def sampler(rng):
        emp = _isomorphy_losses(rng, model, p_plus, n).mean(axis=1)
        return true_risks, np.abs(true_risks - emp)

    lam_seed = derive_seed(config.master_seed, "isomorphy/lambda", n, 0)
    estimate = expected_localized_sup(sampler, config.lambda_replications, lam_seed)
    lam_star = fixed_point_lambda(lambda lam: estimate(lam).mean, config.epsilon, bracket_hi=1.0, tol=1e-4)
    phi_at = estimate(lam_star)

    calib_rng = np.random.default_rng(derive_seed(config.master_seed, "isomorphy/calibrate", n, 0))
    calib = np.vstack(
        [_isomorphy_losses(calib_rng, model, p_plus, n).max(axis=0).astype(float) for _ in range(64)]
    )
    bn = envelope_psi1(calib)
    pooled = [
        _isomorphy_losses(calib_rng, model, p_plus, n)[j].astype(float) for j in range(model.size)
    ]
    diam = max(psi_alpha_norm(losses, alpha=1.0, tol=1e-6).value for losses in pooled)
    big_bn = bernstein_from_psi1(diam, n).bn
    spec = erm_residual(
        lam_star, bn, big_bn, config.epsilon, config.x, n, c0=config.constant("c0")
    )
    # crude noise band on the fixed point: the defining slope is epsilon/4
    lam_band = 2.0 * phi_at.stderr * 4.0 / config.epsilon
    return {
        "model": model,
        "p_plus": p_plus,
        "rho": spec.value,
        "lambda_star": lam_star,
        "lambda_band": lam_band,
        "bn": bn,
        "big_bn": big_bn,
    }


def _isomorphy_row(config, ctx, n, rep, rng):
    emp = _isomorphy_losses(rng, ctx["model"], ctx["p_plus"], n).mean(axis=1)
    true_risks = ctx["model"].true_risks
    margin = float(np.max(true_risks - (1.0 + 2.0 * config.epsilon) * emp))
    # oracle risk 0 makes both slacks equal the worst margin, so the
    # satisfied flag is exactly the isomorphy event at budget rho
    return OracleReport.build(n, margin, 0.0, config.epsilon, ctx["rho"])


def _rerm_ctx(config, n):
    q = config.q
    kd = config.constant("Kd")
    lam = l1_penalty_level(n, config.d, config.x, q, kd, c0=config.constant("c0"))
    eta = l1_penalty_level(n, config.d, config.x, q, kd, c0=config.constant("c1"))
    eps2 = config.epsilon**2
    beta_star = config.beta_star.vector(config.d)
    budget = eta * (1.0 + config.beta_star.l1_norm() ** q) / (n * eps2)
    return {
        "penalty_coef": lam / (n * eps2),
        "budget": budget,
        "oracle": config.noise.abs_moment(q),
        "beta_star": beta_star,
    }


def _rerm_design(rng, size, d, noise):
    if noise.kind == NoiseSpec.BOUNDED:
        return rng.uniform(-1.0, 1.0, size=(size, d))
    return rng.standard_normal((size, d))


def _rerm_design_m2(noise):
    """E x_j^2 under ``_rerm_design``: 1/3 for uniform[-1, 1], 1 for standard Gaussian."""
    return 1.0 / 3.0 if noise.kind == NoiseSpec.BOUNDED else 1.0


def _rerm_row(config, ctx, n, rep, rng):
    beta_star, noise = ctx["beta_star"], config.noise
    design = _rerm_design(rng, n, config.d, noise)
    sample = Sample(design=design, response=design @ beta_star + noise.draw(rng, n))
    try:
        solution = solve_lq_rerm(sample, config.q, ctx["penalty_coef"], tol=1e-6)
    except IterationLimitError as exc:
        raise RuntimeError(f"{config.scenario} solver failed at n={n}, replication {rep}: {exc}; "
                           f"best gap {exc.best.optimality_gap:.3g}") from exc

    if config.q == 2:
        # design coordinates are independent and mean zero, and the noise is
        # independent of them with mean zero, so the square risk is exact:
        # E (x.beta_star + xi - x.beta)^2 = m2 ||beta - beta_star||^2 + E xi^2
        delta = solution.beta - beta_star
        achieved = _rerm_design_m2(noise) * float(delta @ delta) + ctx["oracle"]
        return OracleReport.build(n, achieved, ctx["oracle"], config.epsilon, ctx["budget"])

    def generator(gen_rng, size):
        x_test = _rerm_design(gen_rng, size, config.d, noise)
        return x_test, x_test @ beta_star + noise.draw(gen_rng, size)

    estimate = risk_estimate(
        lambda x_new: x_new @ solution.beta,
        generator,
        LossSpec.lq(config.q),
        config.resolved_test_size(),
        derive_seed(config.master_seed, "lq-rerm/test", n, rep),
    )
    return OracleReport.build(n, estimate.mean, ctx["oracle"], config.epsilon, ctx["budget"])


# contexts(config) -> {n: ctx}; row(config, ctx, n, rep, rng) -> OracleReport;
# target(config) -> target frequency; extras: the ctx keys reported per n
_Scenario = namedtuple("_Scenario", "contexts row tag fits target extras")


def _per_n(ctx_fn):
    return lambda config: {n: ctx_fn(config, n) for n in config.n_grid}


_REGISTRY = {
    "FiniteGap": _Scenario(_per_n(_finite_gap_ctx), _finite_gap_row, "finite-gap", True, None, ("delta",)),
    "Isomorphy": _Scenario(_isomorphy_contexts, _isomorphy_row, "isomorphy", False,
                           lambda config: 1.0 - 4.0 * math.exp(-config.x),
                           ("rho", "lambda_star", "lambda_band", "bn", "big_bn")),
    "SquareLasso": _Scenario(_per_n(_rerm_ctx), _rerm_row, "square-lasso", True, None, ("penalty_coef", "budget")),
    "LqRerm": _Scenario(_per_n(_rerm_ctx), _rerm_row, "lq-rerm", True, None, ("penalty_coef", "budget")),
}

SCENARIOS = tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

_CONSTANT_NAMES = ("c0", "c1", "Kd")


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
    for name in value:
        if name not in _CONSTANT_NAMES:
            raise InvalidInputError(f"field '{key}.{name}' is not a known constant; use {'/'.join(_CONSTANT_NAMES)}")
    return {name: _as_real(f"{key}.{name}", v) for name, v in value.items()}


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
    form for Bounded noise only, so only Bounded noise runs there.
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
        """E |noise|^q in closed form for the families the scenarios allow."""
        if self.kind == self.GAUSSIAN:
            if q != 2:
                raise InvalidInputError("Gaussian noise is only used with q = 2")
            return self.param**2
        if self.kind == self.BOUNDED:
            return self.param**q / (q + 1.0)
        if q != 2:
            raise InvalidInputError("Exponential noise is only used with q = 2")
        return (1.0 / self.param**2) if self.param > 0 else 0.0


@dataclass(frozen=True)
class BetaStarSpec:
    """Sparse coefficient vector: ``support`` leading coordinates at ``magnitude``."""

    support: int
    magnitude: float

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
    ``test_size`` overrides the fresh-test-set size (default 20 * max(nGrid),
    capped at 1e6) and only affects LqRerm with q != 2, since the q = 2
    achieved risk is exact; ``lambda_replications`` drives the localization
    estimate; ``floor`` is the tiny positive stand-in reported for
    nonpositive mean slacks. The named constants are c0, c1 and Kd; each
    defaults to 1.
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
    beta_star: BetaStarSpec = field(default_factory=lambda: BetaStarSpec(3, 1.0))
    constants: dict = field(default_factory=dict)
    gamma: float = 1.0
    test_size: int | None = None
    lambda_replications: int = 500
    floor: float = 1e-12
    label_flip: float = 0.3
    cells: int = 16

    def __post_init__(self):
        _check(self, _FIELDS)
        if self.scenario == "SquareLasso" and self.q != 2:
            raise InvalidInputError(f"field 'q' must be 2 for SquareLasso, got {self.q!r}")
        if self.scenario in ("SquareLasso", "LqRerm"):
            if self.beta_star.support > self.d:
                raise InvalidInputError(f"field 'betaStar.support' must be <= d = {self.d}, got {self.beta_star.support}")
            if self.q > 2 and self.noise.kind != NoiseSpec.BOUNDED:
                raise InvalidInputError(f"field 'noise' must be Bounded at q > 2, got {self.noise.kind}")

    def constant(self, name):
        return float(self.constants.get(name, 1.0))

    def resolved_test_size(self):
        return self.test_size if self.test_size is not None else min(20 * max(self.n_grid), 10**6)


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
    ("testSize", "test_size", lambda key, v: v if v is None else _as_int(key, v), lambda v: v is None or v >= 2,
     "be >= 2"),
    ("lambdaReplications", "lambda_replications", _as_int, lambda v: v >= 1, "be >= 1"),
    ("floor", "floor", _as_real, lambda v: v > 0, "be positive"),
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
            raise InvalidInputError("betaStar must be an object with 'support' and 'magnitude'")
        kwargs["beta_star"] = BetaStarSpec(spec.get("support", 0), spec.get("magnitude", 0.0))
    return ScenarioConfig(**kwargs)


@dataclass(frozen=True)
class OracleReport:
    """Per-experiment record of achieved risk against an oracle and a budget.

    ``slack_exact`` is achieved - oracle; ``slack_nonexact`` is achieved -
    (1 + 3 eps) * oracle; the report is satisfied when the nonexact slack
    fits inside the residual budget.
    """

    n: int
    achieved_risk: float
    oracle_risk: float
    epsilon: float
    residual_budget: float
    slack_exact: float
    slack_nonexact: float
    satisfied: bool

    @classmethod
    def build(cls, n, achieved_risk, oracle_risk, epsilon, residual_budget):
        slack_exact = achieved_risk - oracle_risk
        slack_nonexact = achieved_risk - (1.0 + 3.0 * epsilon) * oracle_risk
        return cls(
            n=int(n),
            achieved_risk=float(achieved_risk),
            oracle_risk=float(oracle_risk),
            epsilon=float(epsilon),
            residual_budget=float(residual_budget),
            slack_exact=float(slack_exact),
            slack_nonexact=float(slack_nonexact),
            satisfied=bool(slack_nonexact <= residual_budget),
        )


@dataclass(frozen=True)
class Row:
    replication: int
    report: OracleReport


@dataclass(frozen=True)
class RateFit:
    """Log-log OLS fit of values against sample sizes.

    The fit is ordinary least squares of log(value) on log(n) over the
    points with positive value; ``points`` echoes all supplied pairs.
    """

    slope: float
    intercept: float
    r_squared: float
    points: tuple


def rate_fit(points):
    """Fit a power law to (n, value) pairs; needs >= 3 positive values."""
    pts = [(float(n), float(v)) for n, v in points]
    usable = [(n, v) for n, v in pts if v > 0]
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
    return RateFit(slope=slope, intercept=intercept, r_squared=r_squared, points=tuple(pts))


@dataclass(frozen=True)
class SummaryRow:
    n: int
    replications: int
    mean_achieved: float
    mean_oracle: float
    mean_slack_exact: float
    stderr_slack_exact: float
    mean_slack_nonexact: float
    stderr_slack_nonexact: float
    mean_budget: float
    satisfaction_frequency: float
    floored: bool


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one scenario run produces: rows, summaries, fits, extras."""

    scenario: str
    config: ScenarioConfig
    rows: tuple
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
    prefix = _stream_prefix(config.master_seed, spec.tag, n)
    return [spec.row(config, ctx, n, rep, np.random.default_rng(_splitmix64(prefix ^ rep))) for rep in reps]


def _run_rows(config, contexts, workers):
    """Compute all rows, optionally across processes, in replication order."""
    reps = config.replications
    size = max(1, math.ceil(reps / (workers * 4))) if workers > 1 else reps
    payloads = [
        (config, contexts[n], n, range(start, min(start + size, reps)))
        for n in config.n_grid
        for start in range(0, reps, size)
    ]
    if workers > 1:
        # the pool starts all its processes at the first submit, so it gets no more than there are chunks
        with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
            chunks = list(pool.map(_run_chunk, payloads))
    else:
        chunks = [_run_chunk(p) for p in payloads]
    reports = [report for chunk in chunks for report in chunk]
    return tuple(Row(replication=i % reps, report=report) for i, report in enumerate(reports))


def _summarize(config, rows):
    summaries = []
    floored = 0
    exact_points = []
    nonexact_points = []
    for n in config.n_grid:
        group = [r.report for r in rows if r.report.n == n]
        count = len(group)
        achieved = np.array([g.achieved_risk for g in group])
        oracle = np.array([g.oracle_risk for g in group])
        s_exact = np.array([g.slack_exact for g in group])
        s_nonexact = np.array([g.slack_nonexact for g in group])
        budget = np.array([g.residual_budget for g in group])
        sat = np.array([g.satisfied for g in group])
        mean_ne = float(s_nonexact.mean())
        is_floored = mean_ne <= 0.0
        floored += int(is_floored)
        exact_points.append((n, float(s_exact.mean())))
        nonexact_points.append((n, mean_ne))
        summaries.append(
            SummaryRow(
                n=n,
                replications=count,
                mean_achieved=float(achieved.mean()),
                mean_oracle=float(oracle.mean()),
                mean_slack_exact=float(s_exact.mean()),
                stderr_slack_exact=_stderr(s_exact),
                mean_slack_nonexact=max(mean_ne, config.floor) if is_floored else mean_ne,
                stderr_slack_nonexact=_stderr(s_nonexact),
                mean_budget=float(budget.mean()),
                satisfaction_frequency=float(sat.mean()),
                floored=is_floored,
            )
        )
    return tuple(summaries), floored, exact_points, nonexact_points


def _stderr(values):
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def _try_fit(points):
    try:
        return rate_fit(points)
    except InvalidInputError:
        return None


def _run(config, workers, accepts):
    """Run ``config`` if its scenario is one of ``accepts``; LqRerm at q = 2 runs as SquareLasso."""
    scenario = "SquareLasso" if config.scenario == "LqRerm" and config.q == 2 else config.scenario
    if scenario not in accepts:
        raise InvalidInputError(f"expected scenario {'/'.join(accepts)}, got {config.scenario}")
    if scenario != config.scenario:
        config = replace(config, scenario=scenario)
    spec = _REGISTRY[scenario]
    contexts = spec.contexts(config)
    rows = _run_rows(config, contexts, workers)
    summaries, floored, exact_pts, nonexact_pts = _summarize(config, rows)
    return ScenarioResult(
        scenario=scenario,
        config=config,
        rows=rows,
        summaries=summaries,
        fit_exact=_try_fit(exact_pts) if spec.fits else None,
        fit_nonexact=_try_fit(nonexact_pts) if spec.fits else None,
        satisfaction_frequency=float(np.mean([r.report.satisfied for r in rows])),
        target_frequency=spec.target(config) if spec.target else None,
        floored_count=floored,
        extras={n: {key: contexts[n][key] for key in spec.extras} for n in config.n_grid},
    )


def run_finite_gap(config, workers=1):
    """Adversarial two-function ERM scenario; returns rows plus both rate fits."""
    return _run(config, workers, ("FiniteGap",))


def run_isomorphy(config, workers=1):
    """Isomorphy event frequency against the estimated residual budget.

    The target frequency reported is 1 - 4 exp(-x).
    """
    return _run(config, workers, ("Isomorphy",))


def run_square_lasso(config, workers=1):
    """Squared-l1-penalized least squares against the probe beta_star; takes LqRerm at q = 2 too."""
    return _run(config, workers, ("SquareLasso",))


def run_lq_rerm(config, workers=1):
    """L_q RERM scenario; q = 2 runs as SquareLasso bit for bit."""
    return _run(config, workers, ("LqRerm", "SquareLasso"))


def run_scenario(config, workers=1):
    """Run a configuration as its scenario."""
    return _run(config, workers, SCENARIOS)


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
    """Per-replication CSV payload with a fixed column order."""
    lines = [ROWS_HEADER]
    for row in result.rows:
        rep = row.report
        lines.append(
            ",".join(
                [
                    result.scenario,
                    str(rep.n),
                    str(row.replication),
                    _fmt(rep.achieved_risk),
                    _fmt(rep.oracle_risk),
                    _fmt(rep.slack_exact),
                    _fmt(rep.slack_nonexact),
                    _fmt(rep.residual_budget),
                    "true" if rep.satisfied else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def summary_csv_text(result):
    """Per-n means, standard errors, and the fitted slopes."""
    fit_e = result.fit_exact
    fit_ne = result.fit_nonexact
    lines = [SUMMARY_HEADER]
    for s in result.summaries:
        lines.append(
            ",".join(
                [
                    result.scenario,
                    str(s.n),
                    str(s.replications),
                    _fmt(s.mean_achieved),
                    _fmt(s.mean_oracle),
                    _fmt(s.mean_slack_exact),
                    _fmt(s.stderr_slack_exact),
                    _fmt(s.mean_slack_nonexact),
                    _fmt(s.stderr_slack_nonexact),
                    _fmt(s.mean_budget),
                    _fmt(s.satisfaction_frequency),
                    "true" if s.floored else "false",
                    str(result.floored_count),
                    _fmt_opt(result.target_frequency),
                    _fmt_opt(fit_e.slope if fit_e else None),
                    _fmt_opt(fit_e.intercept if fit_e else None),
                    _fmt_opt(fit_e.r_squared if fit_e else None),
                    _fmt_opt(fit_ne.slope if fit_ne else None),
                    _fmt_opt(fit_ne.intercept if fit_ne else None),
                    _fmt_opt(fit_ne.r_squared if fit_ne else None),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def write_rows_csv(result, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(rows_csv_text(result))


def write_summary_csv(result, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(summary_csv_text(result))
