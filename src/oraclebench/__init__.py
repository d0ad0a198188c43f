"""oraclebench: oracle-inequality machinery and desk-scale rate experiments.

The package has three layers:

* primitives: exact ERM over finite dictionaries given by their loss tables
  and a Monte Carlo L_q risk (``model``), empirical Orlicz-norm and
  concentration evaluators that return floats (``concentration``), star-hull
  localization and its fixed point (``complexity``);
* solvers: l1-power penalized regression with certified optimality gaps and
  the closed-form penalty/residual builders, whose RERM residual is the ERM
  residual at the l1 ball's complexity profile (``solvers``);
* harness: seeded Monte Carlo scenarios that measure exact and nonexact
  oracle-inequality slacks and fit their decay rates (``harness``, with its
  replication generators in ``seeding``), with a CLI front end (``cli``).
"""

from .complexity import (
    LocalizedSupInput,
    expected_localized_sup,
    fixed_point_lambda,
    localized_star_hull_sup,
)
from .concentration import (
    bernstein_from_psi1,
    bernstein_verify,
    envelope_psi1,
    psi_alpha_norm,
)
from .errors import BracketError, InvalidInputError, IterationLimitError
from .harness import (
    BetaStarSpec,
    NoiseSpec,
    RateFit,
    ScenarioConfig,
    ScenarioResult,
    config_from_mapping,
    derive_seed,
    rate_fit,
    run_scenario,
    write_rows_csv,
    write_summary_csv,
)
from .model import (
    RiskEstimate,
    Sample,
    erm_finite,
    histogram_risks,
    risk_estimate,
)
from .solvers import (
    RermSolution,
    erm_residual,
    l1_penalty_level,
    project_l1_ball,
    rerm_residual,
    solve_lasso,
    solve_lq_rerm,
    solve_square_lasso,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BetaStarSpec",
    "BracketError",
    "InvalidInputError",
    "IterationLimitError",
    "LocalizedSupInput",
    "NoiseSpec",
    "RateFit",
    "RermSolution",
    "RiskEstimate",
    "Sample",
    "ScenarioConfig",
    "ScenarioResult",
    "bernstein_from_psi1",
    "bernstein_verify",
    "config_from_mapping",
    "derive_seed",
    "envelope_psi1",
    "erm_finite",
    "erm_residual",
    "expected_localized_sup",
    "fixed_point_lambda",
    "histogram_risks",
    "l1_penalty_level",
    "localized_star_hull_sup",
    "project_l1_ball",
    "psi_alpha_norm",
    "rate_fit",
    "rerm_residual",
    "risk_estimate",
    "run_scenario",
    "solve_lasso",
    "solve_lq_rerm",
    "solve_square_lasso",
    "write_rows_csv",
    "write_summary_csv",
]
