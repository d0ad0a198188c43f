# The squared-l1 penalized least squares estimator next to the plain lasso.
#
# The estimator minimizes mean squared error + (kappa/n) * ||beta||_1^2 by
# accelerated proximal gradient (FISTA): the prox of the squared-l1 penalty is
# soft-thresholding at a threshold found from the sorted magnitudes. The same
# loop covers any ||beta||_1^q penalty with the L_q risk, q >= 2, and the plain
# lasso, whose prox is soft-thresholding at a fixed level. Sweeping kappa shows
# the usual shrinkage path; every solution, the lasso's too, comes back with a
# duality gap, a certified bound on its distance to the optimum.

import numpy as np

from oraclebench import (
    Sample,
    l1_penalty_level,
    project_l1_ball,
    solve_lasso,
    solve_lq_rerm,
    solve_square_lasso,
)

rng = np.random.default_rng(3)

print("=== projection onto an l1 ball ===")
v = np.array([2.0, 1.0, -0.3])
for r in (4.0, 1.0, 0.5):
    print(f"radius {r:3.1f}: {np.round(project_l1_ball(v, r), 4)}")

# sparse ground truth, mildly overdetermined design
n, d = 120, 12
beta_true = np.zeros(d)
beta_true[:3] = [1.5, -1.0, 0.5]
design = rng.standard_normal((n, d))
response = design @ beta_true + 0.4 * rng.standard_normal(n)
sample = Sample(design=design, response=response)

print()
print("=== shrinkage path of the squared-l1 estimator ===")
print(f"{'kappa':>8} {'||beta||_1':>10} {'objective':>11} {'gap':>9}")
for kappa in (0.0, 1.0, 4.0, 16.0, 64.0, 256.0):
    sol = solve_square_lasso(sample, kappa, tol=1e-8)
    print(f"{kappa:8.1f} {np.abs(sol.beta).sum():10.4f} {sol.objective:11.6f} {sol.optimality_gap:9.1e}")

print()
print("=== plain lasso on the same data ===")
for lam in (0.0, 0.05, 0.2, 0.8):
    beta = solve_lasso(sample, lam, tol=1e-10).beta
    support = int(np.sum(np.abs(beta) > 1e-8))
    print(f"lambda1={lam:4.2f}: ||beta||_1 = {np.abs(beta).sum():7.4f}, support = {support}")

print()
print("=== an L_4 risk with a ||beta||_1^4 penalty, same mechanism ===")
sol4 = solve_lq_rerm(sample, q=4.0, penalty_coef=1e-4, tol=1e-8)
print(f"q=4 solution: ||beta||_1 = {np.abs(sol4.beta).sum():.4f}, objective = {sol4.objective:.6f}, "
      f"gap = {sol4.optimality_gap:.1e}")

print()
print("=== theory-driven penalty level ===")
for n_ in (256, 1024, 4096):
    level = l1_penalty_level(n_, d=50, x=1.0, q=2.0, kd=1.0)
    print(f"n={n_:5d}: penalty level = {level:10.1f} (grows polylogarithmically, "
          f"is divided by n*eps^2 in the objective)")
