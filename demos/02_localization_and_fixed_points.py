# Star-hull localization and the isomorphic fixed point.
#
# Take a finite class of nonnegative-mean functions. Scaling each member g
# down by theta in [0,1] subject to theta * Eg <= level produces the
# localized star hull; its expected empirical-process supremum, as a
# function of the level, crosses (eps/4) * level exactly once, and that
# crossing is the level above which empirical means track population means
# up to (1 +- eps) factors. We draw the class 500 times, hand the population
# means and the deviations of those draws to the estimator, evaluate its
# Monte Carlo estimate of the expected supremum on the same draws at any
# level, find the crossing by bisection, and check the claimed equivalence
# on fresh draws.

import numpy as np

from oraclebench import expected_localized_sup, fixed_point_lambda

rng = np.random.default_rng(7)
M, n = 6, 400
means = rng.uniform(0.1, 0.6, M)          # population risks of the class
print("population means:", np.round(means, 3))

# empirical means of M Bernoulli losses on n points, one row per draw
emp = rng.binomial(n, means, size=(500, M)) / n


print()
print("=== the expected localized supremum grows with the level, then saturates ===")
estimate = expected_localized_sup(means, np.abs(means - emp))   # kept: every level reads the same 500 draws
for level in (0.05, 0.15, 0.3, 0.6, 1.0):
    value = estimate(level)
    print(f"level={level:4.2f}  E sup over hull = {value.mean:.5f} +- {value.stderr:.5f}")

print()
print("=== Monte Carlo fixed point on the same draws ===")
eps = 0.25
lam_star = fixed_point_lambda(lambda lam: estimate(lam).mean, eps, bracket_hi=1.0, tol=1e-5)
est = estimate(lam_star)
print(f"eps = {eps}: fixed point lambda* = {lam_star:.5f}")
print(f"E sup at lambda*   = {est.mean:.5f} +- {est.stderr:.5f}  (target (eps/4)*lambda* = {eps / 4 * lam_star:.5f})")

print()
print("=== equivalence of empirical and population means above lambda* ===")
hits = 0
reps = 2000
for r in range(reps):
    stream = np.random.default_rng(r + 1000)
    emp = stream.binomial(n, means) / n
    scale = np.maximum(means, lam_star)
    hits += np.all(np.abs(means - emp) <= eps * scale)
print(f"fraction of draws with |Eg - P_n g| <= eps*max(Eg, lambda*) for all g: {hits / reps:.4f}")
