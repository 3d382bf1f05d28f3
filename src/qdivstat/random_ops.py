"""Seeded random operators for tests and demonstrations."""

from __future__ import annotations

import numpy as np

from .operator_core import check_density_spectrum, eigvals_hermitian, hermitian_part

__all__ = [
    "random_hermitian",
    "random_traceless",
    "haar_unitary",
    "random_density",
    "random_density_spectrum",
]


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitian_part(scale * (X + X.conj().T) / 2)


def random_traceless(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    H = random_hermitian(dim, rng, scale)
    return hermitian_part(H - np.trace(H) / dim * np.eye(dim))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    Z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_density(dim: int, rng: np.random.Generator, min_eig: float = 0.0) -> np.ndarray:
    """Wishart-style random state, optionally with a floor on the smallest eigenvalue."""
    X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    W = X @ X.conj().T
    W = W / np.trace(W).real
    if min_eig > 0:
        f = min_eig * dim
        if f >= 1:
            raise ValueError("min_eig too large for the dimension")
        W = (1 - f) * W + min_eig * np.eye(dim)
    return _checked_density(W)


def random_density_spectrum(spectrum, rng: np.random.Generator) -> np.ndarray:
    """Random state with a prescribed spectrum (Haar-random eigenbasis)."""
    lam = np.asarray(spectrum, dtype=float)
    if abs(lam.sum() - 1.0) > 1e-12 or np.any(lam < 0):
        raise ValueError("spectrum must be a probability vector")
    U = haar_unitary(len(lam), rng)
    return _checked_density((U * lam) @ U.conj().T)


def _checked_density(W: np.ndarray) -> np.ndarray:
    """``hermitian_part`` of W, which must be a density matrix (``check_density_spectrum``)."""
    rho = hermitian_part(W)
    check_density_spectrum(eigvals_hermitian(rho, checked=True))
    return rho
