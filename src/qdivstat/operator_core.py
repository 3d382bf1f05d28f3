"""Dense complex Hermitian linear algebra.

Eigendecompositions, matrix functions, Schatten norms, support logic,
the Loewner order, and the Frobenius-nearest density-matrix projection.
Everything downstream (derivatives, divergences, limit laws) is built
on top of the operations in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "HermitianOperator",
    "SpectralDecomposition",
    "DensityOperator",
    "DEFAULT_SUPPORT_RTOL",
    "as_matrix",
    "eig_hermitian",
    "apply_scalar_function",
    "schatten_norm",
    "support_projector",
    "support_contained",
    "moore_penrose_inverse",
    "loewner_leq",
    "project_to_simplex",
    "project_to_density",
]

# Relative cutoff separating support from kernel eigenvalues.
DEFAULT_SUPPORT_RTOL = 1e-10

_HERMITICITY_ATOL = 1e-12


class HermitianOperator:
    """A d x d complex Hermitian matrix.

    The constructor symmetrizes ``(A + A^dagger)/2`` after checking that the
    asymmetry is below an absolute tolerance of 1e-12; downstream quadrature
    and repeated products accumulate tiny asymmetries, so symmetrizing here
    keeps every later eigendecomposition honest.
    """

    __slots__ = ("mat", "dim")

    def __init__(self, mat: np.ndarray, *, atol: float = _HERMITICITY_ATOL):
        A = np.asarray(mat, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {A.shape}")
        if A.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        scale = float(np.max(np.abs(A)))
        if not math.isfinite(scale):
            raise ValueError("matrix has NaN or inf entries")
        asym = np.max(np.abs(A - A.conj().T))
        if asym > atol * max(1.0, scale):
            raise ValueError(f"matrix is not Hermitian (asymmetry {asym:.3e})")
        A = (A + A.conj().T) / 2
        A.setflags(write=False)
        self.mat = A
        self.dim = A.shape[0]

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"

    def trace(self) -> float:
        return float(np.trace(self.mat).real)


def as_matrix(op) -> np.ndarray:
    """Unwrap HermitianOperator / DensityOperator / ndarray to an ndarray."""
    if isinstance(op, DensityOperator):
        return op.op.mat
    if isinstance(op, HermitianOperator):
        return op.mat
    return np.asarray(op, dtype=complex)


def _hermitian(op) -> HermitianOperator:
    return op if isinstance(op, HermitianOperator) else HermitianOperator(as_matrix(op))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and unitary eigenvector matrix of a Hermitian operator."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def reassemble(self, values: np.ndarray | None = None) -> np.ndarray:
        """U diag(values) U^dagger; defaults to the original eigenvalues."""
        lam = self.eigenvalues if values is None else np.asarray(values)
        U = self.eigenvectors
        return (U * lam) @ U.conj().T


class DensityOperator:
    """HermitianOperator refined with PSD and unit-trace invariants."""

    __slots__ = ("op",)

    def __init__(self, mat, *, trace_atol: float = 1e-10, eig_atol: float = 1e-10):
        op = _hermitian(mat)
        tr = op.trace()
        if abs(tr - 1.0) > trace_atol:
            raise ValueError(f"trace {tr} is not 1 within {trace_atol}")
        lo = float(np.linalg.eigvalsh(op.mat)[0])
        if lo < -eig_atol:
            raise ValueError(f"matrix has negative eigenvalue {lo}")
        self.op = op

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def dim(self) -> int:
        return self.op.dim

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


class EigensolverError(RuntimeError):
    """LAPACK failed to converge; carries the operator dimension."""

    def __init__(self, dim: int):
        super().__init__(f"Hermitian eigensolver did not converge for a {dim}x{dim} operator")
        self.dim = dim


def _fix_phases(U: np.ndarray) -> np.ndarray:
    """Make the first component above 1e-12 in modulus of every eigenvector real positive.

    Fixes the U(1) phase freedom so runs are reproducible bit-for-bit given
    a deterministic eigensolver.  Every column is a unit vector, so it has
    such a component.
    """
    lead = U[np.argmax(np.abs(U) > 1e-12, axis=0), np.arange(U.shape[1])]
    return U * (lead.conj() / np.abs(lead))


def eig_hermitian(A) -> SpectralDecomposition:
    """Spectral decomposition with ascending eigenvalues and fixed phases."""
    M = as_matrix(_hermitian(A))
    try:
        lam, U = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(M.shape[0]) from exc
    U = _fix_phases(U)
    lam = lam.copy()
    lam.setflags(write=False)
    U.setflags(write=False)
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=U)


def apply_scalar_function(S: SpectralDecomposition, f: Callable[[np.ndarray], np.ndarray] | Callable[[float], float]) -> HermitianOperator:
    """f(A) = U diag(f(lambda)) U^dagger for a real scalar map f.

    The caller is responsible for masking kernel eigenvalues (log, negative
    powers); a non-finite value raises naming the offending eigenvalue.
    """
    with np.errstate(all="ignore"):
        vals = np.asarray([f(x) for x in S.eigenvalues], dtype=float)
    bad = np.flatnonzero(~np.isfinite(vals))
    if len(bad):
        raise ValueError(f"scalar function is not finite at eigenvalue {S.eigenvalues[bad[0]]}")
    return HermitianOperator(S.reassemble(vals))


def schatten_norm(A, p: float) -> float:
    """Schatten p-norm (sum |lambda_i|^p)^(1/p); p = inf gives max |lambda_i|."""
    if p < 1:
        raise ValueError(f"Schatten norm requires p >= 1, got {p}")
    lam = np.abs(np.linalg.eigvalsh(as_matrix(A)))
    if np.isinf(p):
        return float(lam.max(initial=0.0))
    if p == 1:
        return float(lam.sum())
    return float(np.sum(lam**p) ** (1.0 / p))


def support_projector(A, rel_tol: float = DEFAULT_SUPPORT_RTOL) -> HermitianOperator:
    """Orthogonal projector onto the span of eigenvectors with lambda > rel_tol * max(lambda)."""
    S = eig_hermitian(A)
    lam = S.eigenvalues
    top = float(lam.max(initial=0.0))
    keep = (lam > rel_tol * top) if top > 0 else np.zeros_like(lam, dtype=bool)
    return HermitianOperator(S.reassemble(keep.astype(float)))


def support_contained(A, B, tol: float = 1e-9, rel_tol: float = DEFAULT_SUPPORT_RTOL) -> bool:
    """True iff supp(A) is contained in supp(B), i.e. the kernel of B carries no mass of A."""
    P = support_projector(B, rel_tol=rel_tol).mat
    Q = np.eye(P.shape[0]) - P
    MA = as_matrix(A)
    leak = float(np.trace(Q @ MA @ Q).real)
    return leak <= tol


def moore_penrose_inverse(A, rel_tol: float = DEFAULT_SUPPORT_RTOL) -> HermitianOperator:
    """Generalized inverse: eigenvalues below rel_tol * max|lambda| map to 0, others to 1/lambda."""
    S = eig_hermitian(A)
    lam = S.eigenvalues
    top = float(np.max(np.abs(lam), initial=0.0))
    inv = np.where(np.abs(lam) > rel_tol * top, np.divide(1.0, lam, out=np.zeros_like(lam), where=lam != 0), 0.0)
    return HermitianOperator(S.reassemble(inv))


def loewner_leq(A, B, tol: float = 0.0) -> bool:
    """A <= B in the Loewner order: min eigenvalue of B - A >= -tol."""
    MA, MB = as_matrix(A), as_matrix(B)
    if MA.shape != MB.shape:
        raise ValueError(f"dimension mismatch: {MA.shape} vs {MB.shape}")
    return float(np.linalg.eigvalsh(MB - MA)[0]) >= -tol


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex.

    Standard sort-and-shift algorithm, O(d log d).
    """
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(v) + 1)
    cond = u + (1.0 - css) / ks > 0
    k = int(ks[cond][-1])
    theta = (css[k - 1] - 1.0) / k
    return np.maximum(v - theta, 0.0)


def project_to_density(A) -> DensityOperator:
    """Frobenius-nearest density operator.

    Eigendecompose, project the eigenvalue vector onto the probability
    simplex, reassemble with the same eigenvectors. An input that already
    satisfies the density invariants is returned unchanged (re-tagged).
    """
    op = _hermitian(A)
    lam = np.linalg.eigvalsh(op.mat)
    if abs(float(lam.sum()) - 1.0) <= 1e-10 and float(lam[0]) >= -1e-10:
        return DensityOperator(op)
    S = eig_hermitian(op)
    probs = project_to_simplex(S.eigenvalues)
    return DensityOperator(S.reassemble(probs))
