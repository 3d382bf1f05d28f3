"""Dense complex Hermitian linear algebra.

Eigendecompositions, matrix functions, Schatten norms, support logic and
the Frobenius-nearest density-matrix projection.  Everything downstream
(derivatives, divergences, limit laws) is built on top of the operations in
this module.

``eig_hermitian`` and ``eigvals_hermitian`` decompose a 2x2 matrix, or a
stack of them, in closed form with a few vectorized array operations and no
LAPACK call, so at d = 2 they cannot raise ``EigensolverError``; every other
d goes to LAPACK (``np.linalg.eigh``/``eigvalsh``).  A 2x2 decomposition
forms no eigenvectors until they are read: for a 2x2 Hermitian A, f(A) is
the linear interpolant of f on the two eigenvalues (the two-point formula),
so ``reassemble`` and every ``spectral_map`` build f(A) from the matrix's
own entries and its eigenvalues.  The closed form agrees with LAPACK to a
few ulps of the largest entry, not bit for bit, so single-qubit trial rows
differ from LAPACK-based ones in their last digits; rows at every other d
are unchanged.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "SpectralDecomposition",
    "check_density_spectrum",
    "SUPPORT_RTOL",
    "as_matrix",
    "hermitian_part",
    "eig_hermitian",
    "eigvals_hermitian",
    "support_mask",
    "spectral_map",
    "schatten_norm",
    "support_leak",
    "project_to_simplex",
    "density_spectrum",
    "project_to_density",
]

SUPPORT_RTOL = 1e-10  # relative cutoff separating support from kernel eigenvalues
DENSITY_ATOL = 1e-10  # how far a density operator's trace may be off 1, and its eigenvalues below 0
_HERMITICITY_ATOL = 1e-12  # largest asymmetry of a Hermitian matrix, relative to max(1, its largest entry)


def hermitian_part(A: np.ndarray, atol: float = _HERMITICITY_ATOL) -> np.ndarray:
    """(A + A^dagger)/2 for a matrix or a stack (..., d, d), each checked Hermitian.

    Each matrix must be finite and its asymmetry below ``atol`` times
    max(1, its largest entry modulus).  ``atol=np.inf`` symmetrizes the
    rounding asymmetry of a product of Hermitian factors, whatever its size.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[-1] < 1:
        raise ValueError("dimension must be >= 1")
    entries = A.shape[:-2] + (-1,)
    scale = np.abs(A).reshape(entries).max(axis=-1)
    if not np.isfinite(scale).all():
        raise ValueError("matrix has NaN or inf entries")
    AH = A.conj().swapaxes(-1, -2)
    asym = np.abs(A - AH).reshape(entries).max(axis=-1)
    ok = asym <= atol * np.maximum(1.0, scale)
    if not ok.all():
        raise ValueError(f"matrix is not Hermitian (asymmetry {asym[~ok].max():.3e})")
    return (A + AH) / 2


def _named_hermitian_part(A, name: str) -> np.ndarray:
    """``hermitian_part`` of the matrix of ``A``; an error it raises has ``name`` and a colon before its message."""
    try:
        return hermitian_part(as_matrix(A))
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _same_shape(rho: np.ndarray, sigma: np.ndarray) -> None:
    """Raise unless the arrays ``rho`` and ``sigma`` have one shape; the message names both."""
    if sigma.shape != rho.shape:
        raise ValueError(f"sigma has shape {sigma.shape}, but rho has shape {rho.shape}")


def as_matrix(op) -> np.ndarray:
    """The complex array of ``op``: a SpectralDecomposition is reassembled, anything else goes through np.asarray."""
    if isinstance(op, SpectralDecomposition):
        return op.reassemble()
    return np.asarray(op, dtype=complex)


class SpectralDecomposition:
    """Eigenvalues (ascending) and unitary eigenvector matrix of a Hermitian operator.

    For a stack of operators the leading axes index the operators:
    eigenvalues (..., d) and eigenvectors (..., d, d).

    A 2x2 decomposition from ``eig_hermitian`` keeps, instead of
    eigenvectors, h = (a - c)/2, b and r = hypot(h, |b|) of the lower
    triangle [[a, .], [b, c]] it was built from.  ``reassemble`` then uses
    the two-point formula, and ``eigenvectors`` are formed, phase-fixed and
    cached on first read, bit for bit those of the closed-form eigensolver.
    """

    __slots__ = ("eigenvalues", "_vectors", "_lower")

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray):
        self.eigenvalues = eigenvalues
        self._vectors = eigenvectors
        self._lower = None

    @classmethod
    def _make(cls, eigenvalues: np.ndarray, vectors: np.ndarray | None, lower) -> "SpectralDecomposition":
        S = cls.__new__(cls)
        S.eigenvalues, S._vectors, S._lower = eigenvalues, vectors, lower
        return S

    def __repr__(self) -> str:
        return f"SpectralDecomposition(dim={self.dim}, stack={self.eigenvalues.shape[:-1]})"

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    @property
    def eigenvectors(self) -> np.ndarray:
        if self._vectors is None:
            U = _fix_phases(_vectors_2x2(*self._lower))
            U.setflags(write=False)
            self._vectors = U
        return self._vectors

    def with_eigenvalues(self, eigenvalues: np.ndarray) -> "SpectralDecomposition":
        """The decomposition with the same eigenvectors and new eigenvalues (..., d)."""
        return self._make(eigenvalues, self._vectors, self._lower)

    def reassemble(self, values: np.ndarray | None = None) -> np.ndarray:
        """U diag(values) U^dagger; defaults to the original eigenvalues.

        A 2x2 decomposition from ``eig_hermitian`` takes the two-point
        formula of ``_two_point`` and reads no eigenvectors.
        """
        lam = self.eigenvalues if values is None else np.asarray(values)
        if self._lower is not None:
            return _two_point(lam, *self._lower)
        U = self.eigenvectors
        return (U * lam[..., None, :]) @ U.conj().swapaxes(-1, -2)


def check_density_spectrum(lam: np.ndarray, name: str = "matrix") -> None:
    """Raise unless ascending eigenvalues (..., d) sum to 1 and are PSD, row by row, within DENSITY_ATOL.

    The message names the offending matrix as ``name``.
    """
    off = np.abs(lam.sum(axis=-1) - 1.0)
    if (off > DENSITY_ATOL).any():
        raise ValueError(f"{name} has trace off 1 by {off.max():.3e}, more than {DENSITY_ATOL}")
    lo = lam[..., 0].min()
    if lo < -DENSITY_ATOL:
        raise ValueError(f"{name} has negative eigenvalue {lo}")


class EigensolverError(RuntimeError):
    """LAPACK failed to converge; carries the operator dimension."""

    def __init__(self, dim: int):
        super().__init__(f"Hermitian eigensolver did not converge for a {dim}x{dim} operator")
        self.dim = dim


def _fix_phases(U: np.ndarray) -> np.ndarray:
    """Make the first component above 1e-12 in modulus of every eigenvector real positive.

    Fixes the U(1) phase freedom so runs are reproducible bit-for-bit given
    a deterministic eigensolver.  Every column is a unit vector, so it has
    such a component.  Works on a stack (..., d, d) of eigenvector matrices.
    """
    first = np.argmax(np.abs(U) > 1e-12, axis=-2)
    lead = np.take_along_axis(U, first[..., None, :], axis=-2)
    return U * (lead.conj() / np.abs(lead))


def _eig_2x2(M: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Closed-form eigenvalues of a matrix or stack (..., 2, 2), read from the lower triangle.

    For [[a, conj(b)], [b, c]], with h = (a - c)/2 and r = hypot(h, |b|), the
    ascending eigenvalues are mid -+ r.  Returns them, and (h, b, r), with b
    a view of ``M``.
    """
    a = M[..., 0, 0].real
    c = M[..., 1, 1].real
    b = M[..., 1, 0]
    h = (a - c) / 2
    r = np.hypot(h, np.abs(b))
    mid = (a + c) / 2
    lam = np.empty(M.shape[:-1])
    np.subtract(mid, r, out=lam[..., 0])
    np.add(mid, r, out=lam[..., 1])
    return lam, (h, b, r)


def _vectors_2x2(h: np.ndarray, b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Closed-form eigenvectors, before the phase fix, from (h, b, r) of ``_eig_2x2``.

    The eigenvector (x, y) of mid + r is (r + h, b) when a >= c and
    (conj(b), r - h) otherwise, so that neither component cancels (LAPACK's
    zlaev2 rotation); a multiple of I (r = 0) gets (0, 1).  The eigenvector
    of mid - r is its complement (-conj(y), conj(x)).
    """
    g = r + np.abs(h)
    lower = h < 0
    scalar = r == 0
    # The vector is scaled in real arithmetic (numpy's complex division
    # overflows on a subnormal divisor): first by g + scalar, its largest
    # modulus, so that its norm is read off entries of order 1 even where h
    # and b are subnormal.
    U = np.zeros(h.shape + (2, 2), dtype=complex)
    U[..., 0, 1] = np.where(lower, b.conj(), g)
    U[..., 1, 1] = np.where(lower, g, b) + scalar
    Ur = U.view(float)
    Ur /= (g + scalar)[..., None, None]
    Ur /= np.hypot(np.abs(U[..., 0, 1]), np.abs(U[..., 1, 1]))[..., None, None]
    U[..., 0, 0] = -U[..., 1, 1].conj()
    U[..., 1, 0] = U[..., 0, 1].conj()
    return U


# Below this r, |b| may carry the rounding of the subnormal range, so the
# two-point formula recomputes r from (h, b) scaled up by an exact power of 2.
_SUBNORMAL_R = 2.0**-969
_SCALE_UP = 2.0**600


def _two_point(values: np.ndarray, h: np.ndarray, b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """f(A) for a 2x2 Hermitian A given by (h, b, r), from the values v (..., 2) of f on its eigenvalues.

    f(A) = v1 I + (v2 - v1) P, with P = [[r + h, conj(b)], [b, r - h]]/(2r)
    the projector onto the eigenvector of the larger eigenvalue mid + r; so
    f(A) is the linear interpolant of f on the two eigenvalues and needs no
    eigenvectors.  P is formed in real arithmetic before any product with v;
    a multiple of I (r = 0) gets P = diag(0, 1), so f(A) = diag(v1, v2)
    exactly.  Where r is near the subnormal range, P is read off (h, b)
    scaled up by an exact power of 2, so that r is not rounded to the
    subnormal grid.
    """
    scalar = r == 0
    tiny = r < _SUBNORMAL_R
    if tiny.any():
        up = np.where(tiny, _SCALE_UP, 1.0)
        h, b = h * up, b * up
        r = np.where(tiny, np.hypot(h, np.abs(b)), r)
    den = 2 * (r + scalar)
    q = (r + h) / den
    p_re, p_im = np.real(b) / den, np.imag(b) / den
    v1, v2 = values[..., 0], values[..., 1]
    dv = v2 - v1
    t = dv * q
    out = np.empty(t.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = v1 + t
    out[..., 1, 1] = v2 - t
    # dv * p and dv * conj(p) in real arithmetic: numpy's complex product may
    # fuse its multiply-adds in a stack and not for one matrix.
    dv_re, dv_im = np.real(dv), np.imag(dv)
    rr, ii, ri, ir = dv_re * p_re, dv_im * p_im, dv_re * p_im, dv_im * p_re
    np.subtract(rr, ii, out=out[..., 1, 0].real)
    np.add(ri, ir, out=out[..., 1, 0].imag)
    np.add(rr, ii, out=out[..., 0, 1].real)
    np.subtract(ir, ri, out=out[..., 0, 1].imag)
    return out


def eig_hermitian(A, *, checked: bool = False) -> SpectralDecomposition:
    """Spectral decomposition with ascending eigenvalues and fixed phases.

    A stack (..., d, d) of Hermitian matrices is decomposed in one call,
    matrix by matrix, into a stacked decomposition.  ``checked=True`` takes
    an array returned by ``hermitian_part`` as it is, without a second check.
    At d = 2 the closed form of ``_eig_2x2`` replaces LAPACK, so it cannot
    raise ``EigensolverError`` and its results differ from LAPACK's in the
    last digits; the decomposition keeps (h, b, r) of the lower triangle,
    reassembles by the two-point formula and forms its eigenvectors only
    when they are read.  Every other d calls ``np.linalg.eigh``.  Every d
    gets the same phase convention (``_fix_phases``).
    """
    M = np.asarray(A) if checked else hermitian_part(as_matrix(A))
    if M.shape[-1] == 2:
        lam, (h, b, r) = _eig_2x2(M)
        lam.setflags(write=False)
        return SpectralDecomposition._make(lam, None, (h, b.copy(), r))
    try:
        lam, U = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(M.shape[-1]) from exc
    lam = lam.copy()
    U = _fix_phases(U)
    lam.setflags(write=False)
    U.setflags(write=False)
    return SpectralDecomposition(eigenvalues=lam, eigenvectors=U)


def eigvals_hermitian(A, *, checked: bool = False) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or stack (..., d, d), without eigenvectors.

    ``checked`` is as in ``eig_hermitian``.  At d = 2 these are the
    eigenvalues of ``eig_hermitian``, bit for bit, from the same closed form,
    which cannot raise ``EigensolverError``; every other d calls
    ``np.linalg.eigvalsh``.
    """
    M = np.asarray(A) if checked else hermitian_part(as_matrix(A))
    if M.shape[-1] == 2:
        return _eig_2x2(M)[0]
    try:
        return np.linalg.eigvalsh(M)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(M.shape[-1]) from exc


def support_mask(lam: np.ndarray) -> np.ndarray:
    """Support eigenvalues: lambda > SUPPORT_RTOL * max|lambda|, row by row along the last axis."""
    return lam > SUPPORT_RTOL * np.max(np.abs(lam), axis=-1, keepdims=True, initial=0.0)


def spectral_map(A, f: Callable[[np.ndarray], np.ndarray],
                 keep: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
    """U diag(f(lambda) on the kept eigenvalues, 0 on the others) U^dagger.

    ``A`` is a Hermitian matrix, a stack (..., d, d) of them or their
    SpectralDecomposition.  ``f`` maps the eigenvalue array elementwise, to
    real or complex values.
    ``keep`` maps the eigenvalue array to the boolean mask of the eigenvalues
    that f applies to; with ``support_mask`` the kernel maps to 0.  None keeps
    every eigenvalue.  A non-finite value on a kept eigenvalue raises an
    error naming that eigenvalue.
    """
    S = A if isinstance(A, SpectralDecomposition) else eig_hermitian(A)
    lam = S.eigenvalues
    with np.errstate(all="ignore"):
        vals = np.asarray(f(lam))
    if keep is not None:
        vals = np.where(keep(lam), vals, 0.0)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise ValueError(f"scalar function is not finite at eigenvalue {lam[bad][0]}")
    return S.reassemble(vals)


def schatten_norm(A, p: float) -> float:
    """Schatten p-norm (sum |lambda_i|^p)^(1/p); p = inf gives max |lambda_i|.

    ``A`` must be finite and square; its rounding asymmetry, whatever its size
    (a difference quotient of Hermitian matrices carries one), is averaged out.
    """
    if p < 1:
        raise ValueError(f"Schatten norm requires p >= 1, got {p}")
    lam = np.abs(eigvals_hermitian(hermitian_part(as_matrix(A), atol=np.inf), checked=True))
    if np.isinf(p):
        return float(lam.max(initial=0.0))
    if p == 1:
        return float(lam.sum())
    return float(np.sum(lam**p) ** (1.0 / p))


def support_leak(A, B):
    """Tr[Q A Q] for Q the projector onto the kernel of B: the mass of A outside supp(B), per matrix of a stack."""
    Q = spectral_map(B, np.ones_like, lambda lam: ~support_mask(lam))
    return np.trace(Q @ as_matrix(A) @ Q, axis1=-2, axis2=-1).real


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex.

    Standard sort-and-shift algorithm, O(d log d).  An array (..., d) is
    projected along its last axis, row by row.
    """
    v = np.asarray(v, dtype=float)
    u = np.flip(np.sort(v, axis=-1), axis=-1)
    css = np.cumsum(u, axis=-1)
    ks = np.arange(1, v.shape[-1] + 1)
    cond = u + (1.0 - css) / ks > 0
    # k: the last position where cond holds
    k = v.shape[-1] - np.argmax(np.flip(cond, axis=-1), axis=-1)
    theta = (np.take_along_axis(css, k[..., None] - 1, axis=-1) - 1.0) / k[..., None]
    return np.maximum(v - theta, 0.0)


def density_spectrum(lam: np.ndarray, eig_atol: float) -> tuple[np.ndarray, np.ndarray]:
    """Nearest density spectra to ascending eigenvalues (..., d), and which rows moved.

    A row that sums to 1 within DENSITY_ATOL and has no eigenvalue below
    -eig_atol is kept as it is; any other row is projected onto the
    probability simplex, which keeps it ascending.
    """
    moved = (np.abs(lam.sum(axis=-1) - 1.0) > DENSITY_ATOL) | (lam[..., 0] < -eig_atol)
    if moved.any():
        lam = lam.copy()
        lam[moved] = project_to_simplex(lam[moved])
    return lam, moved


def project_to_density(A) -> np.ndarray:
    """Frobenius-nearest density matrix.

    Eigendecompose, project the eigenvalue vector onto the probability
    simplex, reassemble with the same eigenvectors and symmetrize.  An input
    that already satisfies the density invariants comes back as
    ``hermitian_part`` of it.
    """
    M = hermitian_part(as_matrix(A))
    if M.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    S = eig_hermitian(M, checked=True)
    lam, moved = density_spectrum(S.eigenvalues, DENSITY_ATOL)
    return hermitian_part(S.reassemble(lam)) if moved else M
