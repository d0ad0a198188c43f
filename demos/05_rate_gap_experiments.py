# Desk-scale reproduction of the fast/slow rate gap, in three scenarios.
#
# Exact slack is R(estimator) - oracle risk; nonexact slack subtracts
# (1 + 3 eps) times the oracle instead. The point of the experiments: the
# exact slack of ERM over two functions with risk gap gamma/sqrt(n) decays
# like n^(-1/2), while the nonexact slack decays at least like 1/n. The
# squared-l1 penalized estimator is a control: its nonexact slack decays like
# 1/n against the sparse probe, but so does its exact slack, so it shows no
# rate gap. Scaled-down grids keep this script fast; the acceptance suite
# runs the full-size versions.

from oraclebench import (
    BetaStarSpec,
    NoiseSpec,
    ScenarioConfig,
    run_scenario,
    write_rows_csv,
    write_summary_csv,
)

print("=== two-function ERM: exact vs nonexact slack ===")
config = ScenarioConfig(
    scenario="FiniteGap",
    n_grid=[2**k for k in range(7, 13)],
    epsilon=0.0019,
    replications=300,
    master_seed=777,
    gamma=0.5,
)
result = run_scenario(config)
print(f"{'n':>6} {'mean exact':>12} {'mean nonexact':>14} {'floored':>8}")
for s in result.summaries:
    print(f"{s.n:6d} {s.mean_slack_exact:12.6f} {s.mean_slack_nonexact:14.6g} {str(s.floored):>8}")
print(f"exact slope    {result.fit_exact.slope:6.3f}  (R^2 = {result.fit_exact.r_squared:.3f})")
print(f"nonexact slope {result.fit_nonexact.slope:6.3f}  (R^2 = {result.fit_nonexact.r_squared:.3f})")
write_rows_csv(result, "finite_gap_rows.csv")
write_summary_csv(result, "finite_gap_summary.csv")
print("wrote finite_gap_rows.csv / finite_gap_summary.csv")

print()
print("=== equivalence event frequency for a finite dictionary ===")
iso = ScenarioConfig(
    scenario="Isomorphy", n_grid=[512], d=8, epsilon=0.25, x=2.0,
    replications=500, master_seed=777,
)
iso_result = run_scenario(iso)
info = iso_result.extras[512]
print(f"estimated localization level = {info['lambda_star']:.4f} "
      f"(+- {info['lambda_band']:.4f} noise band)")
print(f"residual budget rho = {iso_result.budget[0]:.4f}")
print(f"event frequency = {iso_result.satisfaction_frequency:.4f} "
      f"(guaranteed floor {iso_result.target_frequency:.4f})")

print()
print("=== control: the squared-l1 estimator's exact and nonexact slacks both decay like 1/n ===")
lasso = ScenarioConfig(
    scenario="SquareLasso",
    n_grid=[256, 512, 1024, 2048],
    d=30,
    epsilon=0.002,
    replications=40,
    master_seed=777,
    noise=NoiseSpec("Gaussian", 0.5),
    beta_star=BetaStarSpec(3, 1.0),
    constants={"c0": 1e-11, "c1": 1.0, "Kd": 1.0},
)
lasso_result = run_scenario(lasso)
print(f"{'n':>6} {'mean exact slack':>17} {'mean nonexact slack':>20} {'satisfied':>10}")
for s in lasso_result.summaries:
    print(f"{s.n:6d} {s.mean_slack_exact:17.6f} {s.mean_slack_nonexact:20.6f} {s.satisfaction_frequency:10.2f}")
for name, fit in (("exact", lasso_result.fit_exact), ("nonexact", lasso_result.fit_nonexact)):
    print(f"{name + ' slope':<14} {fit.slope:6.3f}  (R^2 = {fit.r_squared:.3f})")
