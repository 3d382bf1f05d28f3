"""The limit functionals as derivatives: scaled divergence differences converge to them.

For states rho, sigma and traceless directions L1, L2, the alternative-case
functional is the first-order coefficient of D(rho + t L1 || sigma + t L2)
and the null-case functional the second-order coefficient at rho = sigma.
"""

import numpy as np

from qdivstat import (
    max_divergence,
    maxdiv_limit,
    fidelity,
    fidelity_limit,
    petz_renyi,
    petz_alt_limit,
    qre_alt_limit,
    qre_null_limit,
    random_density,
    random_traceless,
    sandwiched_renyi,
    sandwiched_alt_limit,
    umegaki,
)

rng = np.random.default_rng(23)
rho = random_density(2, rng, min_eig=0.15)
sigma = random_density(2, rng, min_eig=0.15)
L1 = random_traceless(2, rng, 0.3)
L2 = random_traceless(2, rng, 0.3)

print("alternative case: first-order response of each divergence")
rows = [
    ("relative entropy", qre_alt_limit(rho, sigma, L1, L2),
     lambda r, s: umegaki(r, s).value),
    ("Petz alpha=1.5", petz_alt_limit(rho, sigma, 1.5, L1, L2),
     lambda r, s: petz_renyi(r, s, 1.5).value),
    ("sandwiched alpha=2", sandwiched_alt_limit(rho, sigma, 2.0, L1, L2),
     lambda r, s: sandwiched_renyi(r, s, 2.0).value),
    ("fidelity", fidelity_limit(rho, sigma, L1, L2), fidelity),
    ("max-divergence", maxdiv_limit(rho, sigma, L1, L2),
     lambda r, s: max_divergence(r, s).value),
]
t = 1e-5
for name, lim, fn in rows:
    slope = (fn(rho + t * L1, sigma + t * L2) - fn(rho, sigma)) / t
    print(f"  {name:22s} functional {lim:+.6f}   difference quotient {slope:+.6f}")

print("\nnull case: the second-order coefficient at rho = sigma")
lim = qre_null_limit(rho, L1, L2)
for t in (1e-2, 1e-3, 1e-4):
    val = umegaki(rho + t * L1, rho + t * L2).value / t**2
    print(f"  t = {t:.4f}: D(rho + tL1 || rho + tL2)/t^2 = {val:.6f}")
print(f"  limit functional                         = {lim:.6f}")
print("  (nonnegative and a function of L1 - L2 only)")
