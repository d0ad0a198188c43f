# Empirical Orlicz norms and the second-moment (Bernstein-type) check.
#
# The psi_alpha norm of a sample is the smallest scale c at which
# mean(exp(|x_i|^alpha / c^alpha)) drops to 2. alpha=1 captures
# subexponential tails, alpha=2 sub-Gaussian ones. For nonnegative
# subexponential data, the second moment is controlled by a multiple of the
# first moment plus a small additive term; bernstein_verify checks that
# inequality on actual data.

import numpy as np

from oraclebench import bernstein_from_psi1, bernstein_verify, envelope_psi1, psi_alpha_norm

rng = np.random.default_rng(20120601)

print("=== psi_alpha norms of familiar samples ===")
constant = np.ones(500)
exponential = rng.exponential(1.0, 500)
gaussian = rng.standard_normal(500)

print(f"constant 1, alpha=1 : {psi_alpha_norm(constant, 1.0):.4f}  (closed form 1/ln2 = {1/np.log(2):.4f})")
print(f"exp(1),    alpha=1 : {psi_alpha_norm(exponential, 1.0):.4f}  (population value 2)")
print(f"N(0,1),    alpha=2 : {psi_alpha_norm(gaussian, 2.0):.4f}  (population value sqrt(8/3) = {np.sqrt(8/3):.4f})")

# positive homogeneity: scaling the data scales the norm
base = psi_alpha_norm(exponential, 1.0)
print(f"3x data            : {psi_alpha_norm(3 * exponential, 1.0):.4f}  (3x norm = {3 * base:.4f})")

print()
print("=== envelope of a finite class ===")
# 8 linear functions of a Gaussian draw; per-point envelope = max |g_j(Z_i)|
weights = rng.standard_normal((8, 3))
draws = rng.standard_normal((200, 50, 3))          # 200 replications of 50 points
envelope_values = np.abs(np.einsum("jk,rik->rji", weights, draws)).max(axis=1)
bn = envelope_psi1(envelope_values)
print(f"psi_1 norm of the per-draw envelope maximum over 50 points: {bn:.3f}")

print()
print("=== Bernstein-type second moment control ===")
n = 50
for name, sample in [("exponential", exponential), ("|N(0,1)|", np.abs(gaussian)), ("uniform[0,2]", rng.uniform(0, 2, 500))]:
    psi1 = psi_alpha_norm(sample, 1.0)
    big_b = bernstein_from_psi1(psi1, n)
    ok = bernstein_verify(sample, psi1, z=float(len(sample)))
    ratio = np.mean(sample**2) / max(np.mean(sample), 1e-12)
    print(f"{name:>12}: psi1={psi1:.3f}  B={big_b:.3f}  B^2/n={big_b * big_b / n:.3f}  "
          f"EX^2/EX={ratio:.3f}  inequality holds: {ok}")
