"""Pauli tomography and the Gaussian law of the plug-in relative entropy.

Simulates the binomial measurement records, builds the estimators, and
compares the empirical distribution of sqrt(n) (D(rho_hat||sigma) - D) with
the predicted centered normal.
"""

import numpy as np

from qdivstat import (
    ExperimentConfig,
    bloch_coefficients,
    build_pauli_basis,
    random_density,
    run_convergence_experiment,
    variance_v1,
    variance_v2,
)
from qdivstat.pauli_tomography import estimate_stack, sample_counts

rng = np.random.default_rng(31)
basis = build_pauli_basis(1)
rho = random_density(2, rng, min_eig=0.15)
sigma = random_density(2, rng, min_eig=0.15)

print("Bloch coefficients of rho:", np.round(bloch_coefficients(rho, basis), 4))

# one measurement record, a one-row stack of plus counts, and its estimate
counts = sample_counts(rho, basis, 2000, range(1), 5)
rho_hat = estimate_stack(counts, 2000, basis)[0][0]
print("plus counts per Pauli:", counts[0])
print("trace distance of the estimate:",
      0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho_hat - rho))))

v1 = variance_v1(rho, sigma, basis)
v2 = variance_v2(rho, sigma, basis)
print(f"\npredicted variances: one-sample v1^2 = {v1:.5f}, two-sample v2^2 = {v2:.5f}")

cfg = ExperimentConfig(kind="one_sample_alt", rho=rho, sigma=sigma,
                       n_grid=(1_000, 10_000), trials=800, seed=42)
summary = run_convergence_experiment(cfg)["summary"]
print("\nsqrt(n)-scaled estimation error of D(rho_hat || sigma):")
for s in summary:
    print(f"  n = {s['n']:6d}: mean {s['mean']:+.4f}  empirical var {s['var']:.5f} "
          f"(prediction {s['v_pred']:.5f})  KS to N(0, v1^2) = {s['ks']:.3f}")

cfg2 = ExperimentConfig(kind="two_sample_alt", rho=rho, sigma=sigma,
                        n_grid=(10_000,), trials=800, seed=43)
s = run_convergence_experiment(cfg2)["summary"][0]
print(f"\ntwo-sample variant at n = {s['n']}: var {s['var']:.5f} vs v2^2 {s['v_pred']:.5f}, "
      f"KS = {s['ks']:.3f}")

print("\nnull case: n * D(rho_hat || rho) has a non-Gaussian limit, the weighted")
print("chi-squared law sum_k lam_k Z_k^2 whose weights come from the Hessian of D")
print("in Pauli coordinates; the statistic is compared with that law's exact CDF:")
cfg3 = ExperimentConfig(kind="one_sample_null", rho=rho, n_grid=(1_000, 10_000),
                        trials=800, seed=44)
for s in run_convergence_experiment(cfg3)["summary"]:
    print(f"  n = {s['n']:6d}: mean {s['mean']:.4f}  var {s['var']:.4f}  KS to the exact CDF = {s['ks']:.3f}")
