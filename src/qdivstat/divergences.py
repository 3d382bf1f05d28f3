"""Quantum divergence functionals.

Umegaki relative entropy, von Neumann entropy, Petz-Renyi and sandwiched
Renyi divergences, fidelity, max-divergence, and measured relative entropy
over finite POVM families.

All logarithms are natural; values are in nats.  Support conventions are
realized with masked spectral functions: +infinity is a tagged value on the
returned :class:`DivergenceValue`, never a float that enters arithmetic.
The relative entropy is read as -S(rho) - Tr[rho log sigma]: the eigenvalues
of rho and one decomposition of sigma suffice, for one pair or a stack.  The
other divergences are the one-pair case of their stack-capable ``*_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operator_core import (
    SUPPORT_RTOL,
    _named_hermitian_part,
    _same_shape,
    SpectralDecomposition,
    as_matrix,
    eig_hermitian,
    eigvals_hermitian,
    hermitian_part,
    spectral_map,
    support_leak,
    support_mask,
)

__all__ = [
    "DivergenceValue",
    "Povm",
    "umegaki",
    "log_with_kernel",
    "umegaki_spectral",
    "von_neumann_entropy",
    "check_petz_alpha",
    "check_sandwiched_alpha",
    "petz_renyi",
    "petz_renyi_rows",
    "sandwiched_renyi",
    "sandwiched_renyi_rows",
    "fidelity",
    "max_divergence",
    "measured_relative_entropy",
    "measured_relative_entropy_rows",
    "povm_apply",
    "eigenbasis_povm",
    "trivial_povm",
    "masked_power",
]

MASS_TOL = 1e-9  # mass counted as none: a leak out of supp(sigma), an outcome probability, a Renyi overlap
POVM_ATOL = 1e-10  # how far a POVM element may be below PSD, and the elements' sum off the identity
_TIE_TOL = 1e-9  # measured relative entropy: members within this of a row's largest KL tie with it


@dataclass(frozen=True)
class DivergenceValue:
    """A divergence evaluation: finite value or a tagged +infinity."""

    value: float
    support_ok: bool = True
    diagnostics: str | None = None

    def __post_init__(self):
        if math.isinf(self.value) == self.support_ok:
            raise ValueError("value must be +inf exactly when the support condition fails")

    @classmethod
    def infinite(cls, diagnostics: str | None = None) -> "DivergenceValue":
        return cls(value=math.inf, support_ok=False, diagnostics=diagnostics)

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"DivergenceValue({'inf' if not self.support_ok else self.value})"


class Povm:
    """A positive operator-valued measure: PSD elements summing to the identity, one read-only (k, d, d) array."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        mats = [as_matrix(E) for E in elements]
        if not mats:
            raise ValueError("a POVM needs at least one element")
        if any(M.shape != mats[0].shape for M in mats):
            raise ValueError("POVM elements have mixed dimensions")
        E = hermitian_part(np.stack(mats))
        if E.ndim != 3:
            raise ValueError(f"expected a square matrix, got shape {mats[0].shape}")
        if eigvals_hermitian(E, checked=True)[:, 0].min() < -POVM_ATOL:
            raise ValueError("POVM element is not PSD")
        if np.max(np.abs(E.sum(axis=0) - np.eye(E.shape[-1]))) > POVM_ATOL:
            raise ValueError("POVM elements do not sum to the identity")
        E.setflags(write=False)
        self.elements = E

    @property
    def outcome_count(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    def __repr__(self) -> str:
        return f"Povm(outcomes={self.outcome_count}, dim={self.dim})"


def trivial_povm(dim: int) -> Povm:
    return Povm([np.eye(dim)])


def eigenbasis_povm(A) -> Povm:
    """Projective measurement onto the eigenbasis of a Hermitian operator."""
    S = eig_hermitian(A)
    U = S.eigenvectors
    return Povm([np.outer(U[:, k], U[:, k].conj()) for k in range(S.dim)])


def povm_apply(M: Povm, A) -> np.ndarray:
    """Outcome vector (Tr[M_i A])_i, along the last axis for a stack (..., d, d); sums to Tr A."""
    mat = as_matrix(A)
    if mat.shape[-1] != M.dim:
        raise ValueError(f"operator dim {mat.shape[-1]} does not match POVM dim {M.dim}")
    return np.einsum("kij,...ji->...k", M.elements, mat).real


def masked_power(A, p: float) -> np.ndarray:
    """A^p on the support of A; kernel eigenvalues map to zero."""
    return spectral_map(A, lambda lam: lam**p, support_mask)


def log_with_kernel(sigma) -> np.ndarray:
    """L + iQ, with L the log of sigma on its support and Q its kernel projector.

    ``sigma`` is a Hermitian matrix, a stack (..., d, d) or their
    decomposition.  L and Q are Hermitian, so for Hermitian rho the real part
    of Tr[rho (L + iQ)] is Tr[rho L] and its imaginary part the leak Tr[rho Q].
    """
    return spectral_map(sigma, lambda s: np.where(support_mask(s), np.log(s), 1j))


def _sum_lam_log_lam(lam: np.ndarray) -> np.ndarray:
    """sum lam log lam along the last axis over the support (``support_mask``), so that 0 log 0 = 0."""
    return np.sum(lam * np.log(np.where(support_mask(lam), lam, 1.0)), axis=-1)


def umegaki_spectral(rho: np.ndarray, rho_eigenvalues: np.ndarray, sigma) -> np.ndarray:
    """Tr[rho (log rho - log sigma)] from rho's matrix and eigenvalues and sigma's decomposition.

    ``rho`` is a Hermitian matrix or a stack (..., d, d), with its ascending
    eigenvalues (..., d); ``sigma`` is one decomposition or a stack, or the
    ``log_with_kernel`` array built once for a fixed sigma.  The result has
    their broadcast leading shape: D = sum lam log lam over the support of
    rho, minus Tr[rho L], with L the log of sigma on its support.  D is +inf
    where supp(rho) is not contained in supp(sigma), that is where the leak
    Tr[rho Q] onto the kernel projector Q of sigma exceeds ``MASS_TOL``.  Every
    term is linear in rho or reads its eigenvalues, so rho's eigenvectors are
    never needed.
    """
    own = _sum_lam_log_lam(rho_eigenvalues)
    log_kernel = log_with_kernel(sigma) if isinstance(sigma, SpectralDecomposition) else sigma
    cross_and_leak = np.einsum("...ij,...ji->...", rho, log_kernel)
    return np.where(cross_and_leak.imag <= MASS_TOL, own - cross_and_leak.real, np.inf)


def _named_pair(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    """``_named_hermitian_part`` of rho and of sigma, which must have one shape (``_same_shape``)."""
    rho, sigma = _named_hermitian_part(rho, "rho"), _named_hermitian_part(sigma, "sigma")
    _same_shape(rho, sigma)
    return rho, sigma


def umegaki(rho, sigma) -> DivergenceValue:
    """Quantum relative entropy Tr[rho (log rho - log sigma)], +inf without support containment."""
    rho, sigma = _named_pair(rho, sigma)
    value = float(umegaki_spectral(rho, eigvals_hermitian(rho, checked=True), eig_hermitian(sigma, checked=True)))
    if math.isinf(value):
        return DivergenceValue.infinite("supp(rho) not contained in supp(sigma)")
    return DivergenceValue(value)


def von_neumann_entropy(rho) -> float:
    """-Tr[rho log rho] = -sum lam log lam in nats, from rho's eigenvalues, with 0 log 0 = 0 off the support."""
    return max(0.0, -float(_sum_lam_log_lam(eigvals_hermitian(rho))))


def _kl_rows(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """KL divergence of the distributions along the last axis; +inf where P > MASS_TOL meets Q <= MASS_TOL."""
    live = P > MASS_TOL
    leaks = np.any(live & (Q <= MASS_TOL), axis=-1)
    ratio = np.where(live, P, 1.0) / np.where(live & (Q > MASS_TOL), Q, 1.0)
    return np.where(leaks, np.inf, np.sum(P * np.log(ratio), axis=-1))


def check_petz_alpha(alpha: float) -> None:
    """Raise ValueError unless alpha is a Petz-Renyi order, in (0, 1) u (1, 2]."""
    if not (0 < alpha < 1 or 1 < alpha <= 2):
        raise ValueError(f"alpha {alpha} outside (0,1) u (1,2]")


def check_sandwiched_alpha(alpha: float) -> None:
    """Raise ValueError unless alpha is a sandwiched Renyi order, in [1/2, 1) u (1, inf)."""
    if not (0.5 <= alpha < 1 or 1 < alpha < math.inf):
        raise ValueError(f"alpha {alpha} outside [1/2,1) u (1,inf)")


def _renyi_rows(total, alpha: float, rho, sigma) -> np.ndarray:
    """log(total) / (alpha - 1) per row; +inf where total <= MASS_TOL or (alpha > 1) rho leaks out of supp(sigma)."""
    finite = total > MASS_TOL
    if alpha > 1:
        finite &= support_leak(rho, sigma) <= MASS_TOL
    return np.where(finite, np.log(np.where(finite, total, 1.0)) / (alpha - 1), np.inf)


def _renyi_value(value, rho, sigma, alpha: float) -> DivergenceValue:
    """One row of ``_renyi_rows`` as a DivergenceValue, naming why it is infinite."""
    if math.isfinite(value):
        return DivergenceValue(float(value))
    leaks = alpha > 1 and support_leak(rho, sigma) > MASS_TOL
    return DivergenceValue.infinite("supp(rho) not contained in supp(sigma)" if leaks
                                    else "rho and sigma are orthogonal")


def petz_renyi_rows(rho, sigma, alpha: float) -> np.ndarray:
    """Petz-Renyi divergence per pair of matrices or stacks (..., d, d); sigma may be their decomposition."""
    check_petz_alpha(alpha)
    overlap = np.einsum("...ij,...ji->...", masked_power(rho, alpha), masked_power(sigma, 1 - alpha)).real
    return _renyi_rows(overlap, alpha, rho, sigma)


def petz_renyi(rho, sigma, alpha: float) -> DivergenceValue:
    """Petz-Renyi divergence (alpha - 1)^-1 log Tr[rho^alpha sigma^(1-alpha)]."""
    rho, sigma = _named_pair(rho, sigma)
    return _renyi_value(petz_renyi_rows(rho, sigma, alpha), rho, sigma, alpha)


def _sandwich_base(rho, sigma, alpha: float):
    """(T, ||rho|| ||sigma^q||) for T = rho^(1/2) sigma^q rho^(1/2), q = (1-alpha)/alpha, for a pair or a stack.

    The norms are operator norms, sigma^q's on the support of sigma; their product bounds ||T||.
    """
    q = (1 - alpha) / alpha
    R = eig_hermitian(rho)
    S = sigma if isinstance(sigma, SpectralDecomposition) else eig_hermitian(sigma)
    lam = S.eigenvalues
    norm_q = (lam[..., -1] if q > 0 else np.min(np.where(support_mask(lam), lam, np.inf), axis=-1)) ** q
    root = masked_power(R, 0.5)
    mid = masked_power(S, q) if q != 1 else as_matrix(sigma)
    return hermitian_part(root @ mid @ root, atol=np.inf), R.eigenvalues[..., -1] * norm_q


def _sandwich_kept(bound):
    """The eigenvalues of T that count: above SUPPORT_RTOL ||rho|| ||sigma^q||; smaller ones are rounding noise."""
    return lambda lam: lam > SUPPORT_RTOL * np.asarray(bound)[..., None]


def sandwiched_renyi_rows(rho, sigma, alpha: float) -> np.ndarray:
    """Sandwiched Renyi divergence per pair, as ``petz_renyi_rows``: (alpha - 1)^-1 log Tr T^alpha.

    Eigenvalues of T below SUPPORT_RTOL ||rho|| ||sigma^q|| are rounding noise and count as 0,
    so orthogonal states give +inf (and ``fidelity`` 0) at every alpha.
    """
    check_sandwiched_alpha(alpha)
    T, bound = _sandwich_base(rho, sigma, alpha)
    lam = eigvals_hermitian(T, checked=True)
    lam = np.where(_sandwich_kept(bound)(lam), lam, 0.0)
    return _renyi_rows(np.sum(lam**alpha, axis=-1), alpha, rho, sigma)


def sandwiched_renyi(rho, sigma, alpha: float) -> DivergenceValue:
    """Sandwiched Renyi divergence alpha/(alpha-1) log ||rho^(1/2) sigma^((1-alpha)/alpha) rho^(1/2)||_alpha."""
    rho, sigma = _named_pair(rho, sigma)
    return _renyi_value(sandwiched_renyi_rows(rho, sigma, alpha), rho, sigma, alpha)


def fidelity(rho, sigma) -> float:
    """F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1^2 = exp(-D_1/2), in [0, 1], with D_1/2 the sandwiched divergence."""
    rho, sigma = _named_pair(rho, sigma)
    return min(math.exp(-float(sandwiched_renyi_rows(rho, sigma, 0.5))), 1.0)


def max_divergence(rho, sigma) -> DivergenceValue:
    """inf{lambda : rho <= e^lambda sigma} = log lambda_max(sigma^(-1/2) rho sigma^(-1/2))."""
    rho, sigma = _named_pair(rho, sigma)
    if support_leak(rho, sigma) > MASS_TOL:
        return DivergenceValue.infinite("supp(rho) not contained in supp(sigma)")
    inv_root = masked_power(sigma, -0.5)
    lam_max = float(eigvals_hermitian(hermitian_part(inv_root @ rho @ inv_root, atol=np.inf),
                                      checked=True)[-1])
    return DivergenceValue(math.log(lam_max))


def _measured_kl(rho, sigma, family) -> tuple[np.ndarray, np.ndarray]:
    """KL of the outcome distributions per family member (..., members), and which are near-maximal.

    A member is near-maximal within ``_TIE_TOL`` of its row's largest KL; on an infinite row, where infinite.
    """
    family = list(family)
    if not family:
        raise ValueError("POVM family is empty")
    kl = []
    for M in family:
        P = np.clip(povm_apply(M, rho), 0.0, None)
        Q = np.clip(povm_apply(M, sigma), 0.0, None)
        kl.append(_kl_rows(P / P.sum(axis=-1, keepdims=True), Q / Q.sum(axis=-1, keepdims=True)))
    kl = np.stack(kl, axis=-1)
    return kl, kl >= kl.max(axis=-1, keepdims=True) - _TIE_TOL


def measured_relative_entropy_rows(rho, sigma, family) -> np.ndarray:
    """Measured relative entropy per pair, as ``petz_renyi_rows``: the KL of the first near-maximal member."""
    kl, near = _measured_kl(rho, sigma, family)
    first = np.argmax(near, axis=-1)
    return np.take_along_axis(kl, first[..., None], axis=-1)[..., 0]


def measured_relative_entropy(rho, sigma, family) -> tuple[DivergenceValue, int]:
    """Largest KL divergence of the outcome distributions over a finite POVM family.

    Returns the maximizing value and its (lowest) index; indices of any other
    family members within 1e-9 of the maximum are listed in the diagnostics
    so non-unique maximizers are detectable.
    """
    rho, sigma = _named_pair(rho, sigma)
    kl, near = _measured_kl(rho, sigma, family)
    ties = np.flatnonzero(near).tolist()
    if math.isinf(kl[ties[0]]):
        return DivergenceValue.infinite(f"measurement {ties[0]} separates the supports"), ties[0]
    diag = None if len(ties) == 1 else f"near-maximal indices: {ties}"
    return DivergenceValue(float(kl[ties[0]]), diagnostics=diag), ties[0]
