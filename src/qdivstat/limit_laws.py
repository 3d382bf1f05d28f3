"""Limit functionals of estimator fluctuations, and the gradients behind them.

Every functional evaluates the weak-limit trace functional of a scaled
divergence estimation error at concrete realizations (L1, L2) of the limit
directions.  Distribution-level statements live in the experiment runner,
where the directions have known Gaussian laws.

In the alternative case the functional is linear, Tr[L1 G_rho] + Tr[L2 G_sigma].
Each divergence has one ``*_gradient`` routine returning (G_rho, G_sigma);
its functional checks the directions and pairs them with it, and the
experiment runner reads the Gaussian law's variance off the same gradient.
The gradients move each Frechet derivative onto the fixed operator it is
traced against, by self-adjointness: Tr[X D[f(A)](H)] = Tr[H D[f(A)](X)].
They work on supp(sigma), in sigma's eigenbasis, with one eigendecomposition
per distinct matrix, and lift the result back to the full space.  The
functionals check their directions against the same decompositions, so
checking costs no further eigensolve.

The two-sample null functional for the relative entropy is implemented as

    (1/2) Tr[(L1 - L2) D[log rho](L1 - L2)],

the second-order Taylor coefficient of D(rho + t L1 || rho + t L2) in t.
This form is manifestly PSD and depends on the directions only through
their difference; it reduces to (1/2) Tr[(L1-L2)^2 rho^-1] in the
commutative case and is pinned by the finite-t oracle tests.
"""

from __future__ import annotations

import numpy as np

from .operator_core import (
    HermitianOperator,
    SpectralDecomposition,
    as_matrix,
    eig_hermitian,
    hermitian_part,
    spectral_map,
    support_contained,
    support_leak,
    support_mask,
)
from .divergences import check_petz_alpha, check_sandwiched_alpha, povm_apply
from .frechet import (
    build_divided_differences,
    frechet1,
    frechet2,
)

__all__ = [
    "LimitDirection",
    "SupportViolation",
    "qre_alt_gradient",
    "qre_alt_limit",
    "qre_null_limit",
    "vn_entropy_limit",
    "petz_alt_gradient",
    "petz_alt_limit",
    "petz_null_limit",
    "sandwiched_alt_gradient",
    "sandwiched_alt_limit",
    "fidelity_limit",
    "maxdiv_gradient",
    "maxdiv_limit",
    "measured_alt_gradient",
    "measured_alt_limit",
    "qre_alt_commutative",
    "qre_null_commutative",
    "petz_alt_commutative",
    "petz_null_commutative",
]

# Relative gap below which the top eigenvalue of the max-divergence operator counts as degenerate.
_GAP_TOL = 1e-8


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


def _compress(S: SpectralDecomposition, *mats):
    """The decomposed matrix and ``mats`` restricted to the support of its decomposition ``S``.

    In the support eigenvectors the restricted matrix is diagonal, so it is
    returned as a decomposition that takes no second eigensolve.
    """
    keep = support_mask(S.eigenvalues)
    V = S.eigenvectors[:, keep]
    return [SpectralDecomposition(S.eigenvalues[keep], np.eye(V.shape[1]))] + [V.conj().T @ M @ V for M in mats]


def _require_positive(name: str, lam: np.ndarray) -> None:
    """Raise unless the ascending eigenvalues ``lam`` are all strictly positive."""
    if lam[0] <= 0:
        raise SupportViolation(f"{name} must be strictly positive on the working subspace (min eig {lam[0]:.3e})")


def _support_frame(rho, sigma, tol: float):
    """(V, rho_c, eig(rho_c), eig(sigma_c)): V spans supp(sigma) with sigma's eigenvectors, rho_c = V^dagger rho V.

    ``sigma`` is a matrix or its decomposition.  sigma_c is diagonal, so its
    decomposition takes no second eigensolve.
    """
    R = as_matrix(rho)
    S = sigma if isinstance(sigma, SpectralDecomposition) else eig_hermitian(sigma)
    if not support_contained(R, S, tol):
        raise SupportViolation("rho is not supported inside sigma")
    keep = support_mask(S.eigenvalues)
    V = S.eigenvectors[:, keep]
    R = V.conj().T @ R @ V
    return V, R, eig_hermitian(R), SpectralDecomposition(S.eigenvalues[keep], np.eye(len(R)))


def _lift(V: np.ndarray, *ops: np.ndarray) -> tuple[np.ndarray, ...]:
    """V X V^dagger for each operator X on supp(sigma): back to the full space."""
    return tuple(V @ X @ V.conj().T for X in ops)


def _lift_spectrum(S: SpectralDecomposition, V: np.ndarray, rho_eig: SpectralDecomposition) -> SpectralDecomposition:
    """rho's decomposition on the full space, from that of its compression onto supp(sigma) = span V.

    rho is supported inside sigma, so ker(sigma), read off sigma's
    decomposition ``S``, is part of its kernel.  The eigenvalues are not sorted.
    """
    kernel = S.eigenvectors[:, ~support_mask(S.eigenvalues)]
    return SpectralDecomposition(np.concatenate((np.zeros(kernel.shape[1]), rho_eig.eigenvalues)),
                                 np.concatenate((kernel, V @ rho_eig.eigenvectors), axis=1))


def _pair(gradient, L1, L2) -> float:
    """Tr[L1 G_rho] + Tr[L2 G_sigma]; a direction of None is zero."""
    g_rho, g_sigma = gradient
    d = g_rho.shape[0]
    return _retr(_dir_mat(L1, d) @ g_rho) + _retr(_dir_mat(L2, d) @ g_sigma)


# ---------------------------------------------------------------------------
# Quantum relative entropy and entropy
# ---------------------------------------------------------------------------

def _qre_gradient(V, R, rho_eig, sigma_eig) -> tuple[np.ndarray, np.ndarray]:
    """The relative-entropy gradient in a support frame of ``_support_frame``."""
    log_ratio = spectral_map(rho_eig, np.log, support_mask) - spectral_map(sigma_eig, np.log)
    return _lift(V, log_ratio, -frechet1(build_divided_differences(sigma_eig, "log"), R).mat)


def qre_alt_gradient(rho, sigma, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """(log rho - log sigma, -Dlog_sigma(rho)), with the log of rho taken on its support."""
    return _qre_gradient(*_support_frame(rho, sigma, tol))


def qre_alt_limit(rho, sigma, L1, L2=None, tol: float = 1e-8) -> float:
    """Alternative-case limit Tr[L1 (log rho - log sigma) - rho D[log sigma](L2)].

    The one-sample variant is obtained with L2 = 0 (or None).
    """
    R = as_matrix(rho)
    d = R.shape[0]
    M1, M2 = _dir_mat(L1, d), _dir_mat(L2, d)
    S = eig_hermitian(sigma)
    V, R_c, rho_eig, sigma_eig = _support_frame(R, S, tol)
    gradient = _qre_gradient(V, R_c, rho_eig, sigma_eig)
    if not _direction_in_support(M2, S, tol):
        raise SupportViolation("L2 has mass outside the support of sigma")
    if not _direction_in_support(M1, _lift_spectrum(S, V, rho_eig), tol):
        raise SupportViolation("L1 has mass outside the support of rho")
    return _pair(gradient, M1, M2)


def qre_null_limit(rho, L1, L2=None, tol: float = 1e-8) -> float:
    """Null-case limit (1/2) Tr[(L1-L2) D[log rho](L1-L2)]; nonnegative."""
    R = as_matrix(rho)
    d = R.shape[0]
    delta = _dir_mat(L1, d) - _dir_mat(L2, d)
    S = eig_hermitian(R)
    if not _direction_in_support(delta, S, tol):
        raise SupportViolation("directions have mass outside the support of rho")
    rho_eig, delta = _compress(S, delta)
    table = build_divided_differences(rho_eig, "log")
    return 0.5 * _retr(delta @ frechet1(table, delta).mat)


def vn_entropy_limit(rho, L, tol: float = 1e-8) -> float:
    """Entropy limit -Tr[L log rho]."""
    R = as_matrix(rho)
    M = _dir_mat(L, R.shape[0])
    S = eig_hermitian(R)
    if not _direction_in_support(M, S, tol):
        raise SupportViolation("L has mass outside the support of rho")
    rho_eig, M = _compress(S, M)
    return -_retr(M @ spectral_map(rho_eig, np.log, support_mask))


# ---------------------------------------------------------------------------
# Petz-Renyi
# ---------------------------------------------------------------------------

def petz_alt_gradient(rho, sigma, alpha: float, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """(D[rho^a](sigma^(1-a)), D[sigma^(1-a)](rho^a)) / ((a-1) Tr[rho^a sigma^(1-a)])."""
    check_petz_alpha(alpha)
    V, _, rho_eig, sigma_eig = _support_frame(rho, sigma, tol)
    _require_positive("rho", rho_eig.eigenvalues)
    r_pow = spectral_map(rho_eig, lambda lam: lam**alpha)
    s_pow = spectral_map(sigma_eig, lambda lam: lam ** (1 - alpha))
    den = (alpha - 1) * _retr(r_pow @ s_pow)
    g_rho = frechet1(build_divided_differences(rho_eig, alpha), s_pow).mat
    g_sigma = frechet1(build_divided_differences(sigma_eig, 1 - alpha), r_pow).mat
    return _lift(V, g_rho / den, g_sigma / den)


def petz_alt_limit(rho, sigma, alpha: float, L1, L2=None, tol: float = 1e-8) -> float:
    """Alternative-case Petz-Renyi limit.

    [Tr(sigma^(1-a) D[rho^a](L1)) + Tr(rho^a D[sigma^(1-a)](L2))] / ((a-1) Tr[rho^a sigma^(1-a)]).
    """
    return _pair(petz_alt_gradient(rho, sigma, alpha, tol), L1, L2)


def petz_null_limit(rho, alpha: float, L1, L2=None, tol: float = 1e-8) -> float:
    """Null-case Petz-Renyi limit (second-order trace functional at rho)."""
    check_petz_alpha(alpha)
    R = as_matrix(rho)
    d = R.shape[0]
    M1, M2 = _dir_mat(L1, d), _dir_mat(L2, d)
    S = eig_hermitian(R)
    for M, name in ((M1, "L1"), (M2, "L2")):
        if not _direction_in_support(M, S, tol):
            raise SupportViolation(f"{name} has mass outside the support of rho")
    rho_eig, M1, M2 = _compress(S, M1, M2)
    ab = 1 - alpha
    if alpha == 2:
        R = np.diag(rho_eig.eigenvalues)
        d1_a = R @ M1 + M1 @ R
        d2_a = 2 * (M1 @ M1)
    else:
        t_a = build_divided_differences(rho_eig, alpha)
        d1_a = frechet1(t_a, M1).mat
        d2_a = frechet2(t_a, M1, M1).mat
    t_b = build_divided_differences(rho_eig, ab)
    d1_b = frechet1(t_b, M2).mat
    d2_b = frechet2(t_b, M2, M2).mat
    num = (_retr(spectral_map(rho_eig, lambda lam: lam**ab) @ d2_a)
           + _retr(spectral_map(rho_eig, lambda lam: lam**alpha) @ d2_b) + 2 * _retr(d1_a @ d1_b))
    return num / (2 * (alpha - 1))


# ---------------------------------------------------------------------------
# Sandwiched Renyi, fidelity, max-divergence
# ---------------------------------------------------------------------------

def _sandwich_gradient(rho, sigma, q: float, weight, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of c Tr[X T] at fixed (c, X) = weight(T), for T = rho^(1/2) sigma^q rho^(1/2).

    c D[rho^(1/2)](Y + Y^dagger) with Y = sigma^q rho^(1/2) X, and
    c D[sigma^q](rho^(1/2) X rho^(1/2)).  ``weight`` receives the
    decomposition of T.
    """
    V, _, rho_eig, sigma_eig = _support_frame(rho, sigma, tol)
    _require_positive("rho", rho_eig.eigenvalues)
    root = spectral_map(rho_eig, np.sqrt)
    s_q = spectral_map(sigma_eig, lambda lam: lam**q)
    c, X = weight(eig_hermitian(hermitian_part(root @ s_q @ root, atol=np.inf), checked=True))
    Y = s_q @ root @ X
    g_rho = frechet1(build_divided_differences(rho_eig, 0.5), Y + Y.conj().T).mat
    g_sigma = frechet1(build_divided_differences(sigma_eig, q), root @ X @ root).mat
    return _lift(V, c * g_rho, c * g_sigma)


def sandwiched_alt_gradient(rho, sigma, alpha: float, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the sandwiched Renyi divergence (1/(a-1)) log Tr T^a, T = rho^(1/2) sigma^q rho^(1/2).

    q = (1-a)/a; the weight is X = T^(a-1) with c = a / ((a-1) Tr T^a).
    """
    check_sandwiched_alpha(alpha)

    def weight(T):
        den = float(np.sum(np.clip(T.eigenvalues, 0.0, None) ** alpha))
        return alpha / ((alpha - 1) * den), spectral_map(T, lambda lam: lam ** (alpha - 1))

    return _sandwich_gradient(rho, sigma, (1 - alpha) / alpha, weight, tol)


def sandwiched_alt_limit(rho, sigma, alpha: float, L1, L2=None, tol: float = 1e-8) -> float:
    """Alternative-case sandwiched Renyi limit (vanishes when rho = sigma)."""
    return _pair(sandwiched_alt_gradient(rho, sigma, alpha, tol), L1, L2)


def fidelity_limit(rho, sigma, L1, L2=None, tol: float = 1e-8) -> float:
    """First-order fidelity limit -F dD_(1/2), since F = exp(-D_(1/2)) for the sandwiched order 1/2.

    With T = rho^(1/2) sigma rho^(1/2), dD_(1/2) has the weight -T^(-1/2) / Tr T^(1/2), and
    F = (Tr T^(1/2))^2 is read off the same decomposition of T.
    """

    def weight(T):
        root_sum = float(np.sum(np.sqrt(np.clip(T.eigenvalues, 0.0, None))))
        return min(root_sum**2, 1.0) / root_sum, spectral_map(T, lambda lam: lam**-0.5)

    return _pair(_sandwich_gradient(rho, sigma, 1.0, weight, tol), L1, L2)


def maxdiv_gradient(rho, sigma, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the max-divergence log lambda_max(T), T = rho^(1/2) sigma^-1 rho^(1/2).

    The weight is the top eigenprojection of T, with c = 1/lambda_max.  The
    maximal eigenvalue must be simple within ``_GAP_TOL`` (relative), else the
    projection is ill-defined and an error is raised rather than silently
    picking a branch.
    """

    def weight(T):
        lam = T.eigenvalues
        lam_max = float(lam[-1])
        if len(lam) > 1 and (lam_max - float(lam[-2])) <= _GAP_TOL * max(1.0, lam_max):
            raise ValueError("top eigenvalue of rho^(1/2) sigma^-1 rho^(1/2) is degenerate; "
                             "the limit projection is ill-defined")
        v = T.eigenvectors[:, -1]
        return 1.0 / lam_max, np.outer(v, v.conj())

    return _sandwich_gradient(rho, sigma, -1.0, weight, tol)


def maxdiv_limit(rho, sigma, L1, L2=None, tol: float = 1e-8) -> float:
    """First-order max-divergence limit, using the top eigenprojection of rho^(1/2) sigma^-1 rho^(1/2)."""
    return _pair(maxdiv_gradient(rho, sigma, tol), L1, L2)


# ---------------------------------------------------------------------------
# Measured relative entropy
# ---------------------------------------------------------------------------

def measured_alt_gradient(rho, sigma, m_star, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """(sum_i log(p_i/q_i) M_i, -sum_i (p_i/q_i) M_i) over the outcomes i with p_i > tol.

    p and q are the outcome distributions of rho and sigma under the POVM
    ``m_star``; q may vanish only where p does.
    """
    p, q = povm_apply(m_star, rho), povm_apply(m_star, sigma)
    if np.any((q <= tol) & (p > tol)):
        raise SupportViolation("outcome distribution of sigma vanishes where rho does not")
    live = p > tol
    ratio = np.where(live, p, 0.0) / np.where(live, q, 1.0)
    elements = np.stack([E.mat for E in m_star.elements])
    return (np.tensordot(np.log(np.where(live, ratio, 1.0)), elements, axes=1),
            -np.tensordot(ratio, elements, axes=1))


def measured_alt_limit(rho, sigma, m_star, L1, L2=None, tol: float = 1e-10) -> float:
    """Alternative-case limit for measured relative entropy at the optimal POVM.

    sum_i P_L1(i) log(P_rho(i)/P_sigma(i)) - P_L2(i) P_rho(i)/P_sigma(i),
    with outcome cells dropped when rho, L1 and L2 all put zero mass there.
    """
    d = as_matrix(rho).shape[0]
    M1, M2 = _dir_mat(L1, d), _dir_mat(L2, d)
    pr, ps, a, b = povm_apply(m_star, np.stack([as_matrix(rho), as_matrix(sigma), M1, M2]))
    if np.any((ps <= tol) & (np.maximum(pr, np.maximum(abs(a), abs(b))) > tol)):
        raise SupportViolation("outcome distribution of sigma vanishes where rho or a direction does not")
    if np.any((ps > tol) & (pr <= tol) & (abs(a) > tol)):
        raise SupportViolation("L1 outcome mass outside the support of the rho distribution")
    return _pair(measured_alt_gradient(rho, sigma, m_star, tol), M1, M2)


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
