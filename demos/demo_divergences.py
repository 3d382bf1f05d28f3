"""Tour of the divergence zoo on a pair of qubit states.

Computes every divergence the library knows, then checks the textbook
identities that tie them together.
"""

import numpy as np

from qdivstat import (
    eigenbasis_povm,
    fidelity,
    max_divergence,
    measured_relative_entropy,
    petz_renyi,
    random_density,
    sandwiched_renyi,
    trivial_povm,
    umegaki,
    von_neumann_entropy,
)

rng = np.random.default_rng(7)
rho = random_density(2, rng, min_eig=0.1)
sigma = random_density(2, rng, min_eig=0.1)

print("rho =\n", np.round(rho, 4))
print("sigma =\n", np.round(sigma, 4))

print("\nvon Neumann entropy H(rho) =", von_neumann_entropy(rho))
print("Umegaki relative entropy D(rho||sigma) =", umegaki(rho, sigma).value)
print("Fidelity F(rho, sigma) =", fidelity(rho, sigma))
print("Max-divergence =", max_divergence(rho, sigma).value)

print("\nRenyi families across alpha:")
for alpha in (0.5, 0.8, 1.2, 1.5, 2.0):
    petz = petz_renyi(rho, sigma, alpha).value
    sand = sandwiched_renyi(rho, sigma, alpha).value
    print(f"  alpha={alpha:4}: Petz {petz:.6f}   sandwiched {sand:.6f}   (sandwiched <= Petz)")

# identities
d = 2
print("\nH(rho) + D(rho||I/d) - log d =",
      von_neumann_entropy(rho) + umegaki(rho, np.eye(d) / d).value - np.log(d))
print("sandwiched(1/2) + log F      =",
      sandwiched_renyi(rho, sigma, 0.5).value + np.log(fidelity(rho, sigma)))

# measured relative entropy over a finite measurement family
family = [trivial_povm(2), eigenbasis_povm(rho), eigenbasis_povm(sigma),
          eigenbasis_povm(rho - sigma)]
value, best = measured_relative_entropy(rho, sigma, family)
print(f"\nmeasured relative entropy over {len(family)} POVMs: {value.value:.6f} "
      f"(maximizer index {best}, Umegaki bound {umegaki(rho, sigma).value:.6f})")

# disjoint supports give a tagged infinity, not a float that leaks into arithmetic
clash = umegaki(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
print("\ndisjoint supports:", clash)
