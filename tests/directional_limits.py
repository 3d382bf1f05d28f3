"""Directional forms of the alternative-case limit functionals: the oracles of their gradients.

Each function differentiates its divergence along (L1, L2) by the chain rule,
applying the Frechet derivatives to the directions, as the limit theorems
write them; the library instead pairs the directions with one gradient.
These are the bodies the library used before it had gradients, without the
support checks: the states and directions are restricted to supp(sigma),
where rho and sigma must be positive.
"""

import math

import numpy as np

from qdivstat.divergences import povm_apply
from qdivstat.frechet import build_divided_differences, frechet1
from qdivstat.operator_core import as_matrix, eig_hermitian, hermitian_part, spectral_map, support_mask


def _on_support(rho, sigma, L1, L2):
    """rho, sigma and the directions (None is zero) compressed to the support of sigma."""
    S = eig_hermitian(sigma)
    V = S.eigenvectors[:, support_mask(S.eigenvalues)]
    d = S.dim
    mats = [as_matrix(rho), as_matrix(sigma)]
    mats += [np.zeros((d, d), dtype=complex) if L is None else as_matrix(L) for L in (L1, L2)]
    return [V.conj().T @ M @ V for M in mats]


def _retr(x) -> float:
    return float(np.trace(x).real)


def qre_alt(rho, sigma, L1, L2=None) -> float:
    """Tr[L1 (log rho - log sigma)] - Tr[rho D[log sigma](L2)]."""
    R, Sg, M1, M2 = _on_support(rho, sigma, L1, L2)
    term1 = _retr(M1 @ (spectral_map(R, np.log, support_mask) - spectral_map(Sg, np.log, support_mask)))
    table = build_divided_differences(Sg, "log")
    return term1 - _retr(R @ frechet1(table, M2).mat)


def petz_alt(rho, sigma, alpha, L1, L2=None) -> float:
    """[Tr(sigma^(1-a) D[rho^a](L1)) + Tr(rho^a D[sigma^(1-a)](L2))] / ((a-1) Tr[rho^a sigma^(1-a)])."""
    R, Sg, M1, M2 = _on_support(rho, sigma, L1, L2)
    ab = 1 - alpha
    r_pow = spectral_map(R, lambda lam: lam**alpha)
    s_pow = spectral_map(Sg, lambda lam: lam**ab)
    num = (_retr(s_pow @ frechet1(build_divided_differences(R, alpha), M1).mat)
           + _retr(r_pow @ frechet1(build_divided_differences(Sg, ab), M2).mat))
    return num / ((alpha - 1) * _retr(r_pow @ s_pow))


def sandwiched_alt(rho, sigma, alpha, L1, L2=None) -> float:
    """alpha/(alpha-1) Tr[dT T^(alpha-1)] / Tr[T^alpha] for T = rho^(1/2) sigma^q rho^(1/2)."""
    R, Sg, M1, M2 = _on_support(rho, sigma, L1, L2)
    q = (1 - alpha) / alpha
    root = spectral_map(R, np.sqrt)
    s_q = spectral_map(Sg, lambda lam: lam**q)
    d_root = frechet1(build_divided_differences(R, 0.5), M1).mat
    d_sq = frechet1(build_divided_differences(Sg, q), M2).mat if q != 1 else M2
    T = eig_hermitian(hermitian_part(root @ s_q @ root, atol=np.inf))
    dT = d_root @ s_q @ root + root @ s_q @ d_root + root @ d_sq @ root
    num = _retr(dT @ spectral_map(T, lambda lam: lam ** (alpha - 1)))
    den = float(np.sum(np.clip(T.eigenvalues, 0.0, None) ** alpha))
    return alpha / (alpha - 1) * num / den


def fidelity_alt(rho, sigma, L1, L2=None) -> float:
    """sqrt(F) Tr[dT (rho^(1/2) sigma rho^(1/2))^(-1/2)]."""
    R, Sg, M1, M2 = _on_support(rho, sigma, L1, L2)
    root = spectral_map(R, np.sqrt)
    d_root = frechet1(build_divided_differences(R, 0.5), M1).mat
    T = eig_hermitian(hermitian_part(root @ Sg @ root, atol=np.inf))
    dT = d_root @ Sg @ root + root @ Sg @ d_root + root @ M2 @ root
    sqrt_fid = float(np.sum(np.sqrt(np.clip(T.eigenvalues, 0.0, None))))
    return sqrt_fid * _retr(dT @ spectral_map(T, lambda lam: lam**-0.5))


def maxdiv_alt(rho, sigma, L1, L2=None) -> float:
    """(1/lambda_max) Tr[dM P], P the top eigenprojection of M = rho^(1/2) sigma^-1 rho^(1/2)."""
    R, Sg, M1, M2 = _on_support(rho, sigma, L1, L2)
    root = spectral_map(R, np.sqrt)
    s_inv = spectral_map(Sg, np.reciprocal)
    S = eig_hermitian(hermitian_part(root @ s_inv @ root, atol=np.inf))
    v = S.eigenvectors[:, -1]
    d_root = frechet1(build_divided_differences(R, 0.5), M1).mat
    dM = d_root @ s_inv @ root + root @ s_inv @ d_root - root @ s_inv @ M2 @ s_inv @ root
    return _retr(dM @ np.outer(v, v.conj())) / float(S.eigenvalues[-1])


def measured_alt(rho, sigma, m_star, L1, L2=None, tol=1e-10) -> float:
    """sum_i P_L1(i) log(P_rho(i)/P_sigma(i)) - P_L2(i) P_rho(i)/P_sigma(i) over the cells where P_rho > tol."""
    d = as_matrix(rho).shape[0]
    zero = np.zeros((d, d), dtype=complex)
    cells = zip(povm_apply(m_star, rho), povm_apply(m_star, sigma),
                povm_apply(m_star, zero if L1 is None else L1), povm_apply(m_star, zero if L2 is None else L2))
    return sum(a * math.log(pr / ps) - b * pr / ps for pr, ps, a, b in cells if pr > tol)
