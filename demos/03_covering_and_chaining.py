# The chaining complexity of an l1 ball and the localized bound it feeds.
#
# For l1 balls of linear predictors Maurey's empirical method bounds the
# chaining functional in closed form from the design's largest entry,
# without enumerating the ball. Its square is the complexity that the
# localized L_q loss-class bound takes, at q = 2 and with the envelope
# factor at q = 4.

import numpy as np

from oraclebench import lq_localized_bound, maurey_l1_gamma2

rng = np.random.default_rng(11)

print("=== l1-ball complexity without enumerating the ball ===")
n, d = 1024, 200
design = rng.standard_normal((n, d))
max_inf = float(np.abs(design).max())
for r in (0.5, 1.0, 2.0):
    print(f"radius {r:3.1f}: empirical-method bound = {maurey_l1_gamma2(r, max_inf, n, d):8.2f}")

print()
print("=== localized loss-class bound fed by the chaining complexity ===")
# complexity of the radius-0.1 ball: the square of its empirical-method bound
un = maurey_l1_gamma2(0.1, max_inf, n, d) ** 2
for mu in (0.01, 0.1, 1.0):
    b2 = lq_localized_bound(mu, un, 0.0, n, 2.0)
    b4 = lq_localized_bound(mu, un, 2.0, n, 4.0)
    print(f"level mu={mu:5.2f}:  q=2 bound = {b2:8.4f}   q=4 bound = {b4:8.4f}")
