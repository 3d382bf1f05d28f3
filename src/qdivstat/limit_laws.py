"""Deterministic limit-distribution functionals of estimator fluctuations.

Every function here evaluates the weak-limit trace functional of a scaled
divergence estimation error at concrete realizations (L1, L2) of the limit
directions.  Distribution-level statements live in the experiment runner,
where the directions have known Gaussian laws.

The two-sample null functional for the relative entropy is implemented as

    (1/2) Tr[(L1 - L2) D[log rho](L1 - L2)],

the second-order Taylor coefficient of D(rho + t L1 || rho + t L2) in t.
This form is manifestly PSD and depends on the directions only through
their difference; it reduces to (1/2) Tr[(L1-L2)^2 rho^-1] in the
commutative case and is pinned by the finite-t oracle tests.
"""

from __future__ import annotations

import math

import numpy as np

from .operator_core import (
    HermitianOperator,
    as_matrix,
    eig_hermitian,
    hermitian_part,
    spectral_map,
    support_contained,
    support_leak,
    support_mask,
)
from .frechet import (
    build_divided_differences,
    d_power,
    frechet1,
    frechet2,
)

__all__ = [
    "LimitDirection",
    "SupportViolation",
    "qre_alt_limit",
    "qre_null_limit",
    "vn_entropy_limit",
    "petz_alt_limit",
    "petz_null_limit",
    "sandwiched_alt_limit",
    "fidelity_limit",
    "maxdiv_limit",
    "measured_alt_limit",
    "qre_alt_commutative",
    "qre_null_commutative",
    "petz_alt_commutative",
    "petz_null_commutative",
]


class SupportViolation(ValueError):
    """A support precondition of a limit functional failed."""


class LimitDirection:
    """A realization of a weak limit of scaled estimator fluctuations.

    Traceless Hermitian (limits of differences of unit-trace operators);
    optionally checked to be supported inside the support of a base state.
    """

    __slots__ = ("op",)

    def __init__(self, mat, *, base=None, trace_atol: float = 1e-9, support_tol: float = 1e-8):
        op = HermitianOperator(as_matrix(mat)) if not isinstance(mat, HermitianOperator) else mat
        tr = abs(op.trace())
        scale = max(1.0, float(np.max(np.abs(op.mat))))
        if tr > trace_atol * scale:
            raise ValueError(f"limit direction has trace {tr:.3e}; expected traceless")
        if base is not None and not _direction_in_support(op.mat, base, support_tol):
            raise SupportViolation("direction has mass outside the support of its base state")
        self.op = op

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    def __repr__(self) -> str:
        return f"LimitDirection(dim={self.op.dim})"


def _dir_mat(L, dim: int) -> np.ndarray:
    if L is None:
        return np.zeros((dim, dim), dtype=complex)
    M = L.mat if isinstance(L, LimitDirection) else as_matrix(L)
    if M.shape[0] != dim:
        raise ValueError("direction dimension mismatch")
    return M


def _direction_in_support(L: np.ndarray, base, tol: float) -> bool:
    square = L @ L
    return support_leak(square, base) <= tol * max(float(np.trace(square).real), 1.0)


def _retr(x) -> float:
    return float(np.trace(x).real)


def _compress(support_of, *mats):
    """Restrict all matrices to the support subspace of ``support_of``."""
    S = eig_hermitian(support_of)
    V = S.eigenvectors[:, support_mask(S.eigenvalues)]
    return [V.conj().T @ M @ V for M in mats]


def _require_positive(name: str, M: np.ndarray) -> None:
    lo = float(np.linalg.eigvalsh(M)[0])
    if lo <= 0:
        raise SupportViolation(f"{name} must be strictly positive on the working subspace (min eig {lo:.3e})")


def _alt_inputs(rho, sigma, L1, L2, tol: float):
    """rho, sigma and the directions compressed to supp(sigma), where rho and sigma must be positive."""
    R, Sg = as_matrix(rho), as_matrix(sigma)
    d = R.shape[0]
    M1, M2 = _dir_mat(L1, d), _dir_mat(L2, d)
    if not support_contained(R, Sg, tol):
        raise SupportViolation("rho is not supported inside sigma")
    R, Sg, M1, M2 = _compress(Sg, R, Sg, M1, M2)
    _require_positive("rho", R)
    _require_positive("sigma", Sg)
    return R, Sg, M1, M2


# ---------------------------------------------------------------------------
# Quantum relative entropy and entropy
# ---------------------------------------------------------------------------

def qre_alt_limit(rho, sigma, L1, L2=None, tol: float = 1e-8) -> float:
    """Alternative-case limit Tr[L1 (log rho - log sigma) - rho D[log sigma](L2)].

    The one-sample variant is obtained with L2 = 0 (or None).
    """
    R, Sg = as_matrix(rho), as_matrix(sigma)
    d = R.shape[0]
    M1, M2 = _dir_mat(L1, d), _dir_mat(L2, d)
    if not support_contained(R, Sg, tol):
        raise SupportViolation("rho is not supported inside sigma")
    if not _direction_in_support(M2, Sg, tol):
        raise SupportViolation("L2 has mass outside the support of sigma")
    if not _direction_in_support(M1, R, tol):
        raise SupportViolation("L1 has mass outside the support of rho")
    R, Sg, M1, M2 = _compress(Sg, R, Sg, M1, M2)
    _require_positive("sigma", Sg)
    term1 = _retr(M1 @ (spectral_map(R, np.log, support_mask) - spectral_map(Sg, np.log, support_mask)))
    table = build_divided_differences(Sg, "log")
    term2 = _retr(R @ frechet1(table, M2).mat)
    return term1 - term2


def qre_null_limit(rho, L1, L2=None, tol: float = 1e-8) -> float:
    """Null-case limit (1/2) Tr[(L1-L2) D[log rho](L1-L2)]; nonnegative."""
    R = as_matrix(rho)
    d = R.shape[0]
    delta = _dir_mat(L1, d) - _dir_mat(L2, d)
    if not _direction_in_support(delta, R, tol):
        raise SupportViolation("directions have mass outside the support of rho")
    R, delta = _compress(R, R, delta)
    table = build_divided_differences(R, "log")
    return 0.5 * _retr(delta @ frechet1(table, delta).mat)


def vn_entropy_limit(rho, L, tol: float = 1e-8) -> float:
    """Entropy limit -Tr[L log rho]."""
    R = as_matrix(rho)
    M = _dir_mat(L, R.shape[0])
    if not _direction_in_support(M, R, tol):
        raise SupportViolation("L has mass outside the support of rho")
    R, M = _compress(R, R, M)
    return -_retr(M @ spectral_map(R, np.log, support_mask))


# ---------------------------------------------------------------------------
# Petz-Renyi
# ---------------------------------------------------------------------------

def _check_petz_alpha(alpha: float) -> None:
    if not (0 < alpha < 1 or 1 < alpha <= 2):
        raise ValueError(f"alpha {alpha} outside (0,1) u (1,2]")


def petz_alt_limit(rho, sigma, alpha: float, L1, L2=None, tol: float = 1e-8) -> float:
    """Alternative-case Petz-Renyi limit.

    [Tr(sigma^(1-a) D[rho^a](L1)) + Tr(rho^a D[sigma^(1-a)](L2))] / ((a-1) Tr[rho^a sigma^(1-a)]).
    """
    _check_petz_alpha(alpha)
    R, Sg, M1, M2 = _alt_inputs(rho, sigma, L1, L2, tol)
    ab = 1 - alpha
    r_pow = spectral_map(R, lambda lam: lam**alpha)
    s_pow = spectral_map(Sg, lambda lam: lam**ab)
    num = _retr(s_pow @ d_power(R, M1, alpha).mat) + _retr(r_pow @ d_power(Sg, M2, ab).mat)
    den = (alpha - 1) * _retr(r_pow @ s_pow)
    return num / den


def petz_null_limit(rho, alpha: float, L1, L2=None, tol: float = 1e-8) -> float:
    """Null-case Petz-Renyi limit (second-order trace functional at rho)."""
    _check_petz_alpha(alpha)
    R = as_matrix(rho)
    d = R.shape[0]
    M1, M2 = _dir_mat(L1, d), _dir_mat(L2, d)
    for M, name in ((M1, "L1"), (M2, "L2")):
        if not _direction_in_support(M, R, tol):
            raise SupportViolation(f"{name} has mass outside the support of rho")
    R, M1, M2 = _compress(R, R, M1, M2)
    ab = 1 - alpha
    if alpha == 2:
        d1_a = R @ M1 + M1 @ R
        d2_a = 2 * (M1 @ M1)
    else:
        t_a = build_divided_differences(R, alpha)
        d1_a = frechet1(t_a, M1).mat
        d2_a = frechet2(t_a, M1, M1).mat
    t_b = build_divided_differences(R, ab)
    d1_b = frechet1(t_b, M2).mat
    d2_b = frechet2(t_b, M2, M2).mat
    num = (_retr(spectral_map(R, lambda lam: lam**ab) @ d2_a)
           + _retr(spectral_map(R, lambda lam: lam**alpha) @ d2_b) + 2 * _retr(d1_a @ d1_b))
    return num / (2 * (alpha - 1))


# ---------------------------------------------------------------------------
# Sandwiched Renyi, fidelity, max-divergence
# ---------------------------------------------------------------------------

def sandwiched_alt_limit(rho, sigma, alpha: float, L1, L2=None, tol: float = 1e-8) -> float:
    """Alternative-case sandwiched Renyi limit (vanishes when rho = sigma)."""
    if not (0.5 <= alpha < 1 or alpha > 1):
        raise ValueError(f"alpha {alpha} outside [1/2,1) u (1,inf)")
    R, Sg, M1, M2 = _alt_inputs(rho, sigma, L1, L2, tol)
    q = (1 - alpha) / alpha
    root = spectral_map(R, np.sqrt)
    s_q = spectral_map(Sg, lambda lam: lam**q)
    d_root = d_power(R, M1, 0.5).mat
    d_sq = d_power(Sg, M2, q).mat if q != 1 else M2
    T = eig_hermitian(hermitian_part(root @ s_q @ root, atol=np.inf))
    dT = d_root @ s_q @ root + root @ s_q @ d_root + root @ d_sq @ root
    num = _retr(dT @ spectral_map(T, lambda lam: lam ** (alpha - 1)))
    den = float(np.sum(np.clip(T.eigenvalues, 0.0, None) ** alpha))
    return alpha / (alpha - 1) * num / den


def fidelity_limit(rho, sigma, L1, L2=None, tol: float = 1e-8) -> float:
    """First-order fidelity limit sqrt(F) Tr[dT (rho^(1/2) sigma rho^(1/2))^(-1/2)]."""
    R, Sg, M1, M2 = _alt_inputs(rho, sigma, L1, L2, tol)
    root = spectral_map(R, np.sqrt)
    d_root = d_power(R, M1, 0.5).mat
    T = eig_hermitian(hermitian_part(root @ Sg @ root, atol=np.inf))
    dT = d_root @ Sg @ root + root @ Sg @ d_root + root @ M2 @ root
    sqrt_fid = float(np.sum(np.sqrt(np.clip(T.eigenvalues, 0.0, None))))
    return sqrt_fid * _retr(dT @ spectral_map(T, lambda lam: lam**-0.5))


def maxdiv_limit(rho, sigma, L1, L2=None, tol: float = 1e-8, gap_tol: float = 1e-8) -> float:
    """First-order max-divergence limit, using the top eigenprojection of rho^(1/2) sigma^-1 rho^(1/2).

    The maximal eigenvalue must be simple within ``gap_tol`` (relative),
    otherwise the projection in the formula is ill-defined and an error is
    raised rather than silently picking a branch.
    """
    R, Sg, M1, M2 = _alt_inputs(rho, sigma, L1, L2, tol)
    root = spectral_map(R, np.sqrt)
    s_inv = spectral_map(Sg, np.reciprocal)
    S = eig_hermitian(hermitian_part(root @ s_inv @ root, atol=np.inf))
    lam = S.eigenvalues
    lam_max = float(lam[-1])
    if len(lam) > 1 and (lam_max - float(lam[-2])) <= gap_tol * max(1.0, lam_max):
        raise ValueError("top eigenvalue of rho^(1/2) sigma^-1 rho^(1/2) is degenerate; "
                         "the limit projection is ill-defined")
    v = S.eigenvectors[:, -1]
    proj = np.outer(v, v.conj())
    d_root = d_power(R, M1, 0.5).mat
    dM = d_root @ s_inv @ root + root @ s_inv @ d_root - root @ s_inv @ M2 @ s_inv @ root
    return (1.0 / lam_max) * _retr(dM @ proj)


# ---------------------------------------------------------------------------
# Measured relative entropy
# ---------------------------------------------------------------------------

def measured_alt_limit(rho, sigma, m_star, L1, L2=None, tol: float = 1e-10) -> float:
    """Alternative-case limit for measured relative entropy at the optimal POVM.

    sum_i P_L1(i) log(P_rho(i)/P_sigma(i)) - P_L2(i) P_rho(i)/P_sigma(i),
    with outcome cells dropped when rho, L1 and L2 all put zero mass there.
    """
    from .divergences import povm_apply

    d = as_matrix(rho).shape[0]
    M1, M2 = _dir_mat(L1, d), _dir_mat(L2, d)
    p_rho = povm_apply(m_star, rho)
    p_sig = povm_apply(m_star, sigma)
    p_l1 = povm_apply(m_star, M1)
    p_l2 = povm_apply(m_star, M2)
    total = 0.0
    for pr, ps, a, b in zip(p_rho, p_sig, p_l1, p_l2):
        if ps <= tol:
            if pr <= tol and abs(a) <= tol and abs(b) <= tol:
                continue
            raise SupportViolation("outcome distribution of sigma vanishes where rho or a direction does not")
        if pr <= tol:
            if abs(a) > tol:
                raise SupportViolation("L1 outcome mass outside the support of the rho distribution")
            continue
        total += a * math.log(pr / ps) - b * pr / ps
    return total


# ---------------------------------------------------------------------------
# Commutative-case closed forms
# ---------------------------------------------------------------------------

def qre_alt_commutative(p, q, a, b) -> float:
    """sum a_i log(p_i/q_i) - sum b_i p_i/q_i for jointly diagonal inputs."""
    p, q, a, b = map(np.asarray, (p, q, a, b))
    return float(np.sum(a * np.log(p / q)) - np.sum(b * p / q))


def qre_null_commutative(p, a, b) -> float:
    """(1/2) sum (a_i - b_i)^2 / p_i."""
    p, a, b = map(np.asarray, (p, a, b))
    return float(0.5 * np.sum((a - b) ** 2 / p))


def petz_alt_commutative(p, q, alpha: float, a, b) -> float:
    """Commutative Petz alternative limit of order alpha."""
    p, q, a, b = map(np.asarray, (p, q, a, b))
    ab = 1 - alpha
    num = alpha * np.sum(a * q**ab * p ** (alpha - 1)) + ab * np.sum(b * p**alpha * q ** (-alpha))
    den = (alpha - 1) * np.sum(p**alpha * q**ab)
    return float(num / den)


def petz_null_commutative(p, alpha: float, a, b) -> float:
    """(alpha/2) sum (a_i - b_i)^2 / p_i, the commutative null limit of order alpha."""
    p, a, b = map(np.asarray, (p, a, b))
    return float(0.5 * alpha * np.sum((a - b) ** 2 / p))
