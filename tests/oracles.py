"""Spectral, distribution and sampling helpers that the library does not call.

Each is a one-line case of ``spectral_map`` or ``eigvals_hermitian``, or a
test oracle: the support projector, the pseudo-inverse, the Loewner order,
the classical KL divergence and one draw of the Gaussian tomography limit.
"""

import math

import numpy as np

from qdivstat.divergences import MASS_TOL, DivergenceValue, _kl_rows
from qdivstat.operator_core import as_matrix, eigvals_hermitian, hermitian_part, spectral_map, support_mask
from qdivstat.pauli_tomography import PauliBasisSet, bernoulli_weights


def support_projector(A) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors with lambda > SUPPORT_RTOL * max|lambda|."""
    return hermitian_part(spectral_map(A, np.ones_like, support_mask))


def moore_penrose_inverse(A) -> np.ndarray:
    """Generalized inverse: eigenvalues with |lambda| <= SUPPORT_RTOL * max|lambda| map to 0, others to 1/lambda."""
    return hermitian_part(spectral_map(A, np.reciprocal, lambda lam: support_mask(np.abs(lam))))


def loewner_leq(A, B, tol: float = 0.0) -> bool:
    """A <= B in the Loewner order: min eigenvalue of B - A >= -tol."""
    MA, MB = as_matrix(A), as_matrix(B)
    if MA.shape != MB.shape:
        raise ValueError(f"dimension mismatch: {MA.shape} vs {MB.shape}")
    return float(eigvals_hermitian(MB - MA)[0]) >= -tol


def _check_prob_vector(P: np.ndarray, name: str) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim != 1:
        raise ValueError(f"{name} must be a vector")
    if np.any(P < -MASS_TOL):
        raise ValueError(f"{name} has a negative entry beyond tolerance")
    if abs(P.sum() - 1.0) > 1e-8:
        raise ValueError(f"{name} does not sum to 1 within tolerance")
    return np.clip(P, 0.0, None)


def classical_kl(P, Q) -> DivergenceValue:
    """Kullback-Leibler divergence of discrete distributions, with the support convention."""
    P, Q = _check_prob_vector(P, "P"), _check_prob_vector(Q, "Q")
    if P.shape != Q.shape:
        raise ValueError("distributions have different lengths")
    value = float(_kl_rows(P, Q))
    if math.isinf(value):
        return DivergenceValue.infinite("P puts mass where Q vanishes")
    return DivergenceValue(value)


def sample_gaussian_limit(rho, basis: PauliBasisSet, rng: np.random.Generator) -> np.ndarray:
    """One draw of the Gaussian weak limit sum_j gamma_j Z_j of the scaled estimator error."""
    std = np.sqrt(bernoulli_weights(rho, basis))
    return basis.combine(rng.normal(size=basis.size) * std)
