"""oraclebench: oracle-inequality machinery and desk-scale rate experiments.

The package has three layers:

* primitives: exact ERM over finite dictionaries given by their loss tables
  and a Monte Carlo L_q risk (``model``), empirical Orlicz-norm and
  concentration evaluators that return floats (``concentration``), the mean
  localized star-hull supremum of fixed draws and its fixed point (``complexity``);
* solvers: l1-power penalized regression with certified optimality gaps and
  the closed-form penalty/residual builders, whose RERM residual is the ERM
  residual at the l1 ball's complexity profile (``solvers``);
* harness: seeded Monte Carlo scenarios that measure exact and nonexact
  oracle-inequality slacks and fit their decay rates (``harness``, with its
  replication generators in ``seeding``), with a CLI front end (``cli``).
"""

from . import complexity, concentration, errors, harness, model, solvers
from .complexity import *
from .concentration import *
from .errors import *
from .harness import *
from .model import *
from .solvers import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for module in (complexity, concentration, errors, harness, model, solvers) for name in module.__all__
]
