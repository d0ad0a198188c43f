# The chaining complexity of an l1 ball.
#
# For l1 balls of linear predictors Maurey's empirical method bounds the
# chaining functional in closed form from the design's largest entry,
# without enumerating the ball.

import numpy as np

from oraclebench import maurey_l1_gamma2

rng = np.random.default_rng(11)

print("=== l1-ball complexity without enumerating the ball ===")
n, d = 1024, 200
design = rng.standard_normal((n, d))
max_inf = float(np.abs(design).max())
for r in (0.5, 1.0, 2.0):
    print(f"radius {r:3.1f}: empirical-method bound = {maurey_l1_gamma2(r, max_inf, n, d):8.2f}")
