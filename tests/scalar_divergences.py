"""Matrix-by-matrix Petz, sandwiched and measured divergences: the oracles of the stacked bodies.

These are the bodies the library used before its divergences took stacks:
one pair of matrices per call, the support checked first, each POVM member
evaluated in turn.  The kernel projector, the POVM outcome vectors and the
classical KL are written out here, so that the oracle shares only the masked
spectral functions with the library.
"""

import math

import numpy as np

from qdivstat.divergences import masked_power
from qdivstat.operator_core import eigvals_hermitian, hermitian_part, spectral_map, support_mask

TOL = 1e-9


def _contained(rho, sigma, tol):
    kernel = spectral_map(sigma, np.ones_like, lambda lam: ~support_mask(lam))
    return float(np.trace(kernel @ rho @ kernel).real) <= tol


def petz_renyi(rho, sigma, alpha, tol=TOL):
    """(D, branch): branch is "leak", "orthogonal" or "finite"."""
    if alpha > 1 and not _contained(rho, sigma, tol):
        return math.inf, "leak"
    Q = float(np.trace(masked_power(rho, alpha) @ masked_power(sigma, 1 - alpha)).real)
    if Q <= tol:
        return math.inf, "orthogonal"
    return math.log(Q) / (alpha - 1), "finite"


def sandwiched_renyi(rho, sigma, alpha, tol=TOL):
    """(D, branch) as for ``petz_renyi``."""
    if alpha > 1 and not _contained(rho, sigma, tol):
        return math.inf, "leak"
    q = (1 - alpha) / alpha
    root = masked_power(rho, 0.5)
    mid = masked_power(sigma, q) if q != 1 else sigma
    T = hermitian_part(root @ mid @ root, atol=np.inf)
    lam = eigvals_hermitian(T, checked=True)
    # eigenvalues below 1e-10 ||rho|| ||sigma^q||, a bound on ||T||, are rounding noise
    cutoff = 1e-10 * np.linalg.norm(rho, 2) * np.linalg.norm(masked_power(sigma, q), 2)
    total = float(np.sum(np.where(lam > cutoff, lam, 0.0) ** alpha))
    if total <= tol:
        return math.inf, "orthogonal"
    return math.log(total) / (alpha - 1), "finite"


def _kl(P, Q, tol):
    live = P > tol
    if np.any(Q[live] <= tol):
        return math.inf
    return float(np.sum(P[live] * np.log(P[live] / Q[live])))


def measured_relative_entropy(rho, sigma, family, tol=TOL, tie_tol=1e-9):
    """(D, index of the lowest near-maximal member, near-maximal indices)."""
    values = []
    for M in family:
        P = np.clip([float(np.trace(E @ rho).real) for E in M.elements], 0.0, None)
        Q = np.clip([float(np.trace(E @ sigma).real) for E in M.elements], 0.0, None)
        values.append(_kl(P / P.sum(), Q / Q.sum(), tol))
    if math.inf in values:
        idx = values.index(math.inf)
        return math.inf, idx, [idx]
    best = max(values)
    ties = [i for i, v in enumerate(values) if best - v <= tie_tol]
    return values[ties[0]], ties[0], ties
