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
* ``LqRerm``: the same with the L_q risk and an l1^q penalty; q = 2 delegates
  to ``SquareLasso`` outright, so both paths produce identical output for
  identical configurations. For q != 2 the achieved risk is a Monte Carlo
  estimate on a fresh test set of ``test_size`` points.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .concentration import bernstein_from_psi1, envelope_psi1, psi_alpha_norm
from .complexity import expected_localized_sup, fixed_point_lambda
from .errors import InvalidInputError
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

SCENARIOS = ("FiniteGap", "Isomorphy", "SquareLasso", "LqRerm")

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


def derive_seed(master_seed, tag, n, replication):
    """Deterministic 64-bit stream seed for one replication of one scenario.

    Mixing (masterSeed, tag, n, replication) through splitmix64 guarantees
    that reordering or parallelizing replications cannot change any stream.
    """
    z = _splitmix64(master_seed & _MASK64)
    z = _splitmix64(z ^ _fnv1a64(tag))
    z = _splitmix64(z ^ (int(n) & _MASK64))
    z = _splitmix64(z ^ (int(replication) & _MASK64))
    return int(z)


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise family: Gaussian(sd), Bounded(range), or Exponential(rate).

    Bounded noise is uniform on [-range, range]; exponential noise is
    centered to mean zero. Gaussian and bounded noise have sub-Gaussian
    tails, which is what the penalized scenarios assume; exponential noise is
    provided for tail-estimation demos and is rejected by those scenarios.
    """

    kind: str
    param: float

    GAUSSIAN = "Gaussian"
    BOUNDED = "Bounded"
    EXPONENTIAL = "Exponential"

    def __post_init__(self):
        if self.kind not in (self.GAUSSIAN, self.BOUNDED, self.EXPONENTIAL):
            raise InvalidInputError(f"noise.kind must be one of Gaussian/Bounded/Exponential, got {self.kind!r}")
        if not np.isfinite(self.param) or self.param < 0:
            raise InvalidInputError("noise parameter must be a nonnegative real")

    @classmethod
    def gaussian(cls, sd):
        return cls(cls.GAUSSIAN, float(sd))

    @classmethod
    def bounded(cls, half_range):
        return cls(cls.BOUNDED, float(half_range))

    @classmethod
    def exponential(cls, rate):
        return cls(cls.EXPONENTIAL, float(rate))

    @property
    def sub_gaussian(self):
        return self.kind in (self.GAUSSIAN, self.BOUNDED)

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
        if self.support < 0:
            raise InvalidInputError("betaStar.support must be >= 0")
        if not np.isfinite(self.magnitude):
            raise InvalidInputError("betaStar.magnitude must be finite")

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
    nonpositive mean slacks. Named constants (c0, c1, Kd, K, Kprime, K1)
    default to 1.
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
        if self.scenario not in SCENARIOS:
            raise InvalidInputError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        grid = tuple(int(n) for n in self.n_grid)
        if len(grid) == 0:
            raise InvalidInputError("nGrid must be a nonempty strictly increasing list")
        if any(n < 1 for n in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
            raise InvalidInputError("nGrid must be strictly increasing positive integers")
        object.__setattr__(self, "n_grid", grid)
        if self.d < 1:
            raise InvalidInputError("d must be >= 1")
        if self.q < 2:
            raise InvalidInputError("q must be >= 2")
        if not 0 < self.epsilon < 0.5:
            raise InvalidInputError("epsilon must lie in (0, 1/2)")
        if self.x <= 0:
            raise InvalidInputError("x must be positive")
        if self.gamma < 0:
            raise InvalidInputError("gamma must be >= 0")
        if self.replications < 1:
            raise InvalidInputError("replications must be >= 1")
        if not 0 <= self.master_seed <= _MASK64:
            raise InvalidInputError("masterSeed must fit in 64 bits")
        if self.floor <= 0:
            raise InvalidInputError("floor must be positive")
        if not 0 <= self.label_flip <= 0.5:
            raise InvalidInputError("labelFlip must lie in [0, 1/2]")
        if self.cells < 2:
            raise InvalidInputError("cells must be >= 2")
        if self.lambda_replications < 1:
            raise InvalidInputError("lambdaReplications must be >= 1")
        if self.test_size is not None and self.test_size < 2:
            raise InvalidInputError("testSize must be >= 2")

    def constant(self, name, default=1.0):
        return float(self.constants.get(name, default))

    def resolved_test_size(self):
        if self.test_size is not None:
            return int(self.test_size)
        return int(min(20 * max(self.n_grid), 10**6))


_NOISE_PARAM_KEYS = {"Gaussian": "sd", "Bounded": "range", "Exponential": "rate"}


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


def _noise_from_mapping(mapping):
    if not isinstance(mapping, dict) or "kind" not in mapping:
        raise InvalidInputError("noise must be an object with a 'kind' field")
    kind = mapping["kind"]
    if not isinstance(kind, str) or kind not in _NOISE_PARAM_KEYS:
        raise InvalidInputError(f"noise.kind must be one of Gaussian/Bounded/Exponential, got {kind!r}")
    param_key = _NOISE_PARAM_KEYS[kind]
    unknown = set(mapping) - {"kind", param_key}
    if unknown:
        raise InvalidInputError(f"unknown noise field {sorted(unknown)[0]!r}")
    if param_key not in mapping:
        raise InvalidInputError(f"noise.{param_key} is required for {kind} noise")
    return NoiseSpec(kind, _as_real(f"noise.{param_key}", mapping[param_key]))


def config_from_mapping(mapping):
    """Build a ScenarioConfig from a parsed key/value tree.

    Keys follow the run-file schema (nGrid, masterSeed, betaStar, ...);
    validation failures raise InvalidInputError naming the offending field.
    """
    if not isinstance(mapping, dict):
        raise InvalidInputError("configuration root must be a key/value object")
    known = {
        "scenario",
        "nGrid",
        "d",
        "q",
        "epsilon",
        "x",
        "replications",
        "masterSeed",
        "noise",
        "betaStar",
        "constants",
        "gamma",
        "testSize",
        "lambdaReplications",
        "floor",
        "labelFlip",
        "cells",
    }
    unknown = set(mapping) - known
    if unknown:
        raise InvalidInputError(f"unknown configuration field {sorted(unknown)[0]!r}")
    for required in ("scenario", "nGrid"):
        if required not in mapping:
            raise InvalidInputError(f"missing required field {required!r}")
    if not isinstance(mapping["nGrid"], (list, tuple)):
        raise InvalidInputError("nGrid must be a list of sample sizes")
    kwargs = {
        "scenario": mapping["scenario"],
        "n_grid": tuple(_as_int("nGrid", n) for n in mapping["nGrid"]),
    }
    scalar_fields = {
        "d": ("d", _as_int),
        "q": ("q", _as_real),
        "epsilon": ("epsilon", _as_real),
        "x": ("x", _as_real),
        "replications": ("replications", _as_int),
        "masterSeed": ("master_seed", _as_int),
        "gamma": ("gamma", _as_real),
        "testSize": ("test_size", _as_int),
        "lambdaReplications": ("lambda_replications", _as_int),
        "floor": ("floor", _as_real),
        "labelFlip": ("label_flip", _as_real),
        "cells": ("cells", _as_int),
    }
    for key, (attr, cast) in scalar_fields.items():
        if key in mapping:
            kwargs[attr] = cast(key, mapping[key])
    if "noise" in mapping:
        kwargs["noise"] = _noise_from_mapping(mapping["noise"])
    if "betaStar" in mapping:
        spec = mapping["betaStar"]
        if not isinstance(spec, dict) or set(spec) - {"support", "magnitude"}:
            raise InvalidInputError("betaStar must be an object with 'support' and 'magnitude'")
        kwargs["beta_star"] = BetaStarSpec(
            _as_int("betaStar.support", spec.get("support", 0)),
            _as_real("betaStar.magnitude", spec.get("magnitude", 0.0)),
        )
    if "constants" in mapping:
        consts = mapping["constants"]
        if not isinstance(consts, dict):
            raise InvalidInputError("constants must be a map of names to reals")
        kwargs["constants"] = {str(k): _as_real(f"constants.{k}", v) for k, v in consts.items()}
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
    return {"model": model, "p_plus": p_plus, "budget": budget}


def _finite_gap_row(config, ctx, n, rep):
    rng = np.random.default_rng(derive_seed(config.master_seed, "finite-gap", n, rep))
    labels = np.where(rng.random(n) < ctx["p_plus"], 1.0, -1.0)
    model = ctx["model"]
    j = erm_finite(model, labels, LossSpec.zero_one())
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


def _isomorphy_draw(rng, model, p_plus, n):
    """One fresh draw: per-function empirical risks on n labeled cells."""
    k = p_plus.size
    cells = rng.integers(0, k, size=n)
    labels = np.where(rng.random(n) < p_plus[cells], 1.0, -1.0)
    losses = (model.predictions[:, cells] * labels) <= 0
    return losses.mean(axis=1)


def _isomorphy_ctx(config, n, model, p_plus):
    true_risks = model.true_risks

    def sampler(rng):
        emp = _isomorphy_draw(rng, model, p_plus, n)
        return true_risks, np.abs(true_risks - emp)

    lam_seed = derive_seed(config.master_seed, "isomorphy/lambda", n, 0)

    def phi(lam):
        return expected_localized_sup(sampler, lam, config.lambda_replications, lam_seed).mean

    lam_star = fixed_point_lambda(phi, config.epsilon, bracket_hi=1.0, tol=1e-4)
    phi_at = expected_localized_sup(sampler, lam_star, config.lambda_replications, lam_seed)

    calib_rng = np.random.default_rng(derive_seed(config.master_seed, "isomorphy/calibrate", n, 0))
    calib = np.vstack([_isomorphy_env_draw(calib_rng, model, p_plus, n) for _ in range(64)])
    bn = envelope_psi1(calib)
    pooled = [
        _isomorphy_loss_draw(calib_rng, model, p_plus, n, j) for j in range(model.size)
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


def _isomorphy_env_draw(rng, model, p_plus, n):
    k = p_plus.size
    cells = rng.integers(0, k, size=n)
    labels = np.where(rng.random(n) < p_plus[cells], 1.0, -1.0)
    return ((model.predictions[:, cells] * labels) <= 0).max(axis=0).astype(float)


def _isomorphy_loss_draw(rng, model, p_plus, n, j):
    k = p_plus.size
    cells = rng.integers(0, k, size=n)
    labels = np.where(rng.random(n) < p_plus[cells], 1.0, -1.0)
    return ((model.predictions[j, cells] * labels) <= 0).astype(float)


def _isomorphy_row(config, ctx, n, rep):
    rng = np.random.default_rng(derive_seed(config.master_seed, "isomorphy", n, rep))
    emp = _isomorphy_draw(rng, ctx["model"], ctx["p_plus"], n)
    true_risks = ctx["model"].true_risks
    margin = float(np.max(true_risks - (1.0 + 2.0 * config.epsilon) * emp))
    # oracle risk 0 makes both slacks equal the worst margin, so the
    # satisfied flag is exactly the isomorphy event at budget rho
    return OracleReport.build(n, margin, 0.0, config.epsilon, ctx["rho"])


def _rerm_tag(q):
    return "square-lasso" if q == 2 else "lq-rerm"


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
        "test_size": config.resolved_test_size(),
    }


def _rerm_design(rng, size, d, noise):
    if noise.kind == NoiseSpec.BOUNDED:
        return rng.uniform(-1.0, 1.0, size=(size, d))
    return rng.standard_normal((size, d))


def _rerm_design_m2(noise):
    """E x_j^2 under ``_rerm_design``: 1/3 for uniform[-1, 1], 1 for standard Gaussian."""
    return 1.0 / 3.0 if noise.kind == NoiseSpec.BOUNDED else 1.0


def _rerm_row(config, ctx, n, rep):
    tag = _rerm_tag(config.q)
    rng = np.random.default_rng(derive_seed(config.master_seed, tag, n, rep))
    design = _rerm_design(rng, n, config.d, config.noise)
    response = design @ ctx["beta_star"] + config.noise.draw(rng, n)
    sample = Sample(design=design, response=response)
    solution = solve_lq_rerm(sample, config.q, ctx["penalty_coef"], tol=1e-6)

    beta_star = ctx["beta_star"]
    if config.q == 2:
        # design coordinates are independent and mean zero, and the noise is
        # independent of them with mean zero, so the square risk is exact:
        # E (x.beta_star + xi - x.beta)^2 = m2 ||beta - beta_star||^2 + E xi^2
        delta = solution.beta - beta_star
        achieved = _rerm_design_m2(config.noise) * float(delta @ delta) + ctx["oracle"]
        return OracleReport.build(n, achieved, ctx["oracle"], config.epsilon, ctx["budget"])

    noise = config.noise

    def generator(gen_rng, size):
        x_test = _rerm_design(gen_rng, size, config.d, noise)
        return x_test, x_test @ beta_star + noise.draw(gen_rng, size)

    estimate = risk_estimate(
        lambda x_new: x_new @ solution.beta,
        generator,
        LossSpec.lq(config.q),
        ctx["test_size"],
        derive_seed(config.master_seed, tag + "/test", n, rep),
    )
    return OracleReport.build(n, estimate.mean, ctx["oracle"], config.epsilon, ctx["budget"])


_ROW_FUNCS = {
    "FiniteGap": _finite_gap_row,
    "Isomorphy": _isomorphy_row,
    "SquareLasso": _rerm_row,
    "LqRerm": _rerm_row,
}


def _run_chunk(payload):
    scenario, config, ctx, n, reps = payload
    row_fn = _ROW_FUNCS[scenario]
    return [row_fn(config, ctx, n, rep) for rep in reps]


def _run_rows(scenario, config, contexts, workers):
    """Compute all rows, optionally across processes, in replication order."""
    reps = list(range(config.replications))
    payloads = []
    for n in config.n_grid:
        if workers > 1:
            chunk = max(1, math.ceil(config.replications / (workers * 4)))
            for start in range(0, config.replications, chunk):
                payloads.append((scenario, config, contexts[n], n, reps[start : start + chunk]))
        else:
            payloads.append((scenario, config, contexts[n], n, reps))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_chunk, payloads))
    else:
        chunks = [_run_chunk(p) for p in payloads]
    rows = []
    flat = [report for chunk in chunks for report in chunk]
    idx = 0
    for n in config.n_grid:
        for rep in reps:
            rows.append(Row(replication=rep, report=flat[idx]))
            idx += 1
    return tuple(rows)


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


def run_finite_gap(config, workers=1):
    """Adversarial two-function ERM scenario; returns rows plus both rate fits."""
    if config.scenario != "FiniteGap":
        raise InvalidInputError(f"expected scenario FiniteGap, got {config.scenario}")
    contexts = {n: _finite_gap_ctx(config, n) for n in config.n_grid}
    rows = _run_rows("FiniteGap", config, contexts, workers)
    summaries, floored, exact_pts, nonexact_pts = _summarize(config, rows)
    return ScenarioResult(
        scenario="FiniteGap",
        config=config,
        rows=rows,
        summaries=summaries,
        fit_exact=_try_fit(exact_pts),
        fit_nonexact=_try_fit(nonexact_pts),
        satisfaction_frequency=float(np.mean([r.report.satisfied for r in rows])),
        target_frequency=None,
        floored_count=floored,
        extras={"delta": {n: contexts[n]["p_plus"] * 2 - 1 for n in config.n_grid}},
    )


def run_isomorphy(config, workers=1, model=None, cell_probs=None):
    """Isomorphy event frequency against the estimated residual budget.

    A custom finite ``model`` (with its per-cell label probabilities) may be
    supplied; it must carry true risks. The target frequency reported is
    1 - 4 exp(-x).
    """
    if config.scenario != "Isomorphy":
        raise InvalidInputError(f"expected scenario Isomorphy, got {config.scenario}")
    if model is None:
        model, cell_probs = _isomorphy_model(config)
    elif cell_probs is None:
        raise InvalidInputError("a custom model needs cell_probs")
    if model.true_risks is None:
        raise InvalidInputError("isomorphy requires a model with trueRisks")
    contexts = {n: _isomorphy_ctx(config, n, model, np.asarray(cell_probs, dtype=float)) for n in config.n_grid}
    rows = _run_rows("Isomorphy", config, contexts, workers)
    summaries, floored, exact_pts, nonexact_pts = _summarize(config, rows)
    return ScenarioResult(
        scenario="Isomorphy",
        config=config,
        rows=rows,
        summaries=summaries,
        fit_exact=None,
        fit_nonexact=None,
        satisfaction_frequency=float(np.mean([r.report.satisfied for r in rows])),
        target_frequency=1.0 - 4.0 * math.exp(-config.x),
        floored_count=floored,
        extras={
            n: {
                "rho": contexts[n]["rho"],
                "lambda_star": contexts[n]["lambda_star"],
                "lambda_band": contexts[n]["lambda_band"],
                "bn": contexts[n]["bn"],
                "big_bn": contexts[n]["big_bn"],
            }
            for n in config.n_grid
        },
    )


def run_square_lasso(config, workers=1):
    """Squared-l1-penalized least squares against the probe beta_star."""
    if config.scenario not in ("SquareLasso", "LqRerm"):
        raise InvalidInputError(f"expected scenario SquareLasso, got {config.scenario}")
    if config.q != 2:
        raise InvalidInputError("SquareLasso requires q = 2")
    if not config.noise.sub_gaussian:
        raise InvalidInputError("SquareLasso requires Gaussian or Bounded noise")
    run_config = config if config.scenario == "SquareLasso" else replace(config, scenario="SquareLasso")
    contexts = {n: _rerm_ctx(run_config, n) for n in run_config.n_grid}
    rows = _run_rows("SquareLasso", run_config, contexts, workers)
    summaries, floored, exact_pts, nonexact_pts = _summarize(run_config, rows)
    return ScenarioResult(
        scenario="SquareLasso",
        config=run_config,
        rows=rows,
        summaries=summaries,
        fit_exact=_try_fit(exact_pts),
        fit_nonexact=_try_fit(nonexact_pts),
        satisfaction_frequency=float(np.mean([r.report.satisfied for r in rows])),
        target_frequency=None,
        floored_count=floored,
        extras={n: {"penalty_coef": contexts[n]["penalty_coef"], "budget": contexts[n]["budget"]} for n in run_config.n_grid},
    )


def run_lq_rerm(config, workers=1):
    """L_q RERM scenario; q = 2 delegates to the square-lasso path bit for bit."""
    if config.scenario not in ("LqRerm", "SquareLasso"):
        raise InvalidInputError(f"expected scenario LqRerm, got {config.scenario}")
    if config.q == 2:
        return run_square_lasso(replace(config, scenario="SquareLasso"), workers=workers)
    if config.noise.kind != NoiseSpec.BOUNDED:
        raise InvalidInputError("q > 2 requires Bounded noise and a bounded design")
    run_config = config if config.scenario == "LqRerm" else replace(config, scenario="LqRerm")
    contexts = {n: _rerm_ctx(run_config, n) for n in run_config.n_grid}
    rows = _run_rows("LqRerm", run_config, contexts, workers)
    summaries, floored, exact_pts, nonexact_pts = _summarize(run_config, rows)
    return ScenarioResult(
        scenario="LqRerm",
        config=run_config,
        rows=rows,
        summaries=summaries,
        fit_exact=_try_fit(exact_pts),
        fit_nonexact=_try_fit(nonexact_pts),
        satisfaction_frequency=float(np.mean([r.report.satisfied for r in rows])),
        target_frequency=None,
        floored_count=floored,
        extras={n: {"penalty_coef": contexts[n]["penalty_coef"], "budget": contexts[n]["budget"]} for n in run_config.n_grid},
    )


_RUNNERS = {
    "FiniteGap": run_finite_gap,
    "Isomorphy": run_isomorphy,
    "SquareLasso": run_square_lasso,
    "LqRerm": run_lq_rerm,
}


def run_scenario(config, workers=1):
    """Dispatch a configuration to its scenario runner."""
    return _RUNNERS[config.scenario](config, workers=workers)


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
