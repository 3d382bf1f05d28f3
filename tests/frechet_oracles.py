"""Independent oracles of the Frechet derivatives and of the sandwiched divergence's dual form.

The library evaluates Frechet derivatives of log and real powers by spectral
divided differences.  The oracles here take other routes and share nothing
with that path but the eigenvalue problem, so agreement is a meaningful
cross-check:

- quadrature of the resolvent-integral representations of D[log A],
  D^2[log A] and D[A^alpha], D^2[A^alpha];
- a central finite difference of the lifted scalar function;
- the variational (dual Schatten-norm) form of the sandwiched Renyi
  divergence: an optimizer, and the objective that it attains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qdivstat.divergences import _sandwich_base, _sandwich_kept, check_sandwiched_alpha
from qdivstat.frechet import _as_fn, _check_domain, build_divided_differences, frechet1
from qdivstat.operator_core import (
    as_matrix,
    eig_hermitian,
    eigvals_hermitian,
    hermitian_part,
    schatten_norm,
    spectral_map,
)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights for integrals over (0, infinity)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if np.any(weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("quadrature nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @classmethod
    def log_trapezoid(cls, lam_min: float, lam_max: float, growth_at_zero: float = 0.0,
                      decay_at_inf: float = 2.0, step: float = 0.4,
                      margin: float = 40.0) -> "QuadratureRule":
        """Trapezoid rule in y = log tau, adapted to a spectrum [lam_min, lam_max].

        In log coordinates the resolvent poles tau = -lam sit at uniform
        distance pi from the contour, so the accuracy is independent of the
        condition number; only the truncation window grows with log of it.
        Handles integrands behaving like tau^growth_at_zero near zero
        (> -1) and tau^-decay_at_inf at infinity (> 1).
        """
        if growth_at_zero <= -1 or decay_at_inf <= 1:
            raise ValueError("integrand exponents leave the integrable range")
        y_lo = math.log(lam_min) - margin / (1.0 + growth_at_zero)
        y_hi = math.log(lam_max) + margin / (decay_at_inf - 1.0)
        count = int(math.ceil((y_hi - y_lo) / step)) + 1
        y = np.linspace(y_lo, y_hi, count)
        tau = np.exp(y)
        h = y[1] - y[0]
        weights = h * tau  # d tau = tau dy
        weights[0] /= 2
        weights[-1] /= 2
        return cls(nodes=tau, weights=weights)


def _spectrum_bounds(M: np.ndarray) -> tuple[float, float]:
    lam = eigvals_hermitian(M)
    lo, hi = float(lam[0]), float(lam[-1])
    if lo <= 0:
        raise ValueError("base point must be strictly positive definite")
    return lo, hi


def _resolvent_sandwich(M: np.ndarray, tau: float, H: np.ndarray) -> np.ndarray:
    """(tau I + M)^-1 H (tau I + M)^-1 via two Hermitian solves."""
    shifted = tau * np.eye(M.shape[0]) + M
    X = np.linalg.solve(shifted, H)
    return np.linalg.solve(shifted, X.conj().T).conj().T


def _resolvent_double(M: np.ndarray, tau: float, H1: np.ndarray, H2: np.ndarray) -> np.ndarray:
    """(tau I + M)^-1 H1 (tau I + M)^-1 H2 (tau I + M)^-1 symmetrized over H1, H2."""
    R = np.linalg.inv(tau * np.eye(M.shape[0]) + M)
    return R @ H1 @ R @ H2 @ R + R @ H2 @ R @ H1 @ R


def frechet1_log_quadrature(A, H, rule: QuadratureRule | None = None,
                            return_error_estimate: bool = False):
    """D[log A](H) as a quadrature of the resolvent integral representation.

    Evaluates sum_m w_m (tau_m I + A)^-1 H (tau_m I + A)^-1, approximating
    the integral of the resolvent sandwich over (0, infinity) with a rule
    adapted to the spectrum of A.  Agreement with the divided-difference
    path is far below 1e-7 for condition numbers up to 1e3.
    """
    M = as_matrix(A)
    lo, hi = _spectrum_bounds(M)
    N = as_matrix(H)
    rule = rule or QuadratureRule.log_trapezoid(lo, hi)

    def run(r: QuadratureRule) -> np.ndarray:
        acc = np.zeros_like(N)
        for tau, w in zip(r.nodes, r.weights):
            acc += w * _resolvent_sandwich(M, tau, N)
        return hermitian_part(acc)

    value = run(rule)
    if not return_error_estimate:
        return value
    coarse = run(QuadratureRule.log_trapezoid(lo, hi, step=0.8))
    return value, schatten_norm(value - coarse, 1)


def frechet2_log_quadrature(A, H1, H2, rule: QuadratureRule | None = None) -> np.ndarray:
    """D^2[log A](H1, H2) = -integral of the symmetrized double resolvent sandwich."""
    M = as_matrix(A)
    lo, hi = _spectrum_bounds(M)
    N1, N2 = as_matrix(H1), as_matrix(H2)
    rule = rule or QuadratureRule.log_trapezoid(lo, hi, decay_at_inf=3.0, step=0.3)
    acc = np.zeros_like(N1)
    for tau, w in zip(rule.nodes, rule.weights):
        acc -= w * _resolvent_double(M, tau, N1, N2)
    return hermitian_part(acc)


def _sine_constant(beta: float) -> float:
    # normalization of the power integral representations
    return float(np.sin(np.pi * beta) / np.pi)


def frechet_power_quadrature(A, H, alpha: float, order: int = 1, H2=None,
                             rule: QuadratureRule | None = None) -> np.ndarray:
    """D[A^alpha](H) or D^2[A^alpha](H, H2) by quadrature of power integral representations.

    Supported exponents: alpha in (-1, 0), (0, 1), or (1, 2).  The tau^alpha
    weight enters the integrand directly; the log-trapezoid rule absorbs the
    algebraic endpoint behavior through its truncation window, with accuracy
    independent of the conditioning.  A supplied ``rule`` is used as-is and
    must then match the integrand's weight conventions below.
    """
    if not (-1 < alpha < 2) or alpha in (0.0, 1.0):
        raise ValueError(f"alpha {alpha} outside (-1,0) u (0,1) u (1,2)")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if order == 2 and H2 is None:
        raise ValueError("order 2 requires a second direction H2")
    if order == 1 and H2 is not None:
        raise ValueError("H2 given but order is 1")
    M = as_matrix(A)
    lo, hi = _spectrum_bounds(M)
    N = as_matrix(H)

    if order == 2:
        N2 = as_matrix(H2)
        rule = rule or QuadratureRule.log_trapezoid(lo, hi, growth_at_zero=min(alpha, 0.0),
                                                    decay_at_inf=3.0 - max(alpha, 0.0),
                                                    step=0.3)
        acc = np.zeros_like(N)
        for tau, w in zip(rule.nodes, rule.weights):
            acc += w * tau**alpha * _resolvent_double(M, tau, N, N2)
        if 0 < alpha < 1:
            return hermitian_part(-_sine_constant(alpha) * acc)
        if alpha < 0:
            return hermitian_part(_sine_constant(alpha + 1) * acc)
        return hermitian_part(_sine_constant(alpha - 1) * acc)

    if alpha < 1:
        # D[A^alpha](H) = +-c integral tau^alpha R H R dtau
        rule = rule or QuadratureRule.log_trapezoid(lo, hi, growth_at_zero=min(alpha, 0.0),
                                                    decay_at_inf=2.0 - alpha)
        acc = np.zeros_like(N)
        for tau, w in zip(rule.nodes, rule.weights):
            acc += w * tau**alpha * _resolvent_sandwich(M, tau, N)
        c = _sine_constant(alpha) if alpha > 0 else -_sine_constant(alpha + 1)
        return hermitian_part(c * acc)

    # alpha in (1, 2): the two terms of tau^(alpha-2) H - tau^alpha R H R only
    # converge jointly; combined stably as tau^(alpha-2) (A R H + tau R H A R)
    rule = rule or QuadratureRule.log_trapezoid(lo, hi, growth_at_zero=alpha - 2.0,
                                                decay_at_inf=3.0 - alpha)
    acc = np.zeros_like(N)
    eye = np.eye(M.shape[0])
    for tau, w in zip(rule.nodes, rule.weights):
        R = np.linalg.inv(tau * eye + M)
        acc += w * tau ** (alpha - 2.0) * (M @ R @ N + tau * (R @ N @ M @ R))
    return hermitian_part((acc + acc.conj().T) / 2 * _sine_constant(alpha - 1))


def finite_difference_check(fn, A, H, h_step: float) -> float:
    """Trace-norm gap between a central difference and the divided-difference derivative.

    Returns ||(f(A + hH) - f(A - hH)) / 2h - D[f(A)](H)||_1, which is O(h^2)
    for the smooth functions handled here.
    """
    fn = _as_fn(fn)
    M, N = as_matrix(A), as_matrix(H)
    fwd = eig_hermitian(M + h_step * N)
    bwd = eig_hermitian(M - h_step * N)
    for S in (fwd, bwd):
        _check_domain(fn, S.eigenvalues)
    f_fwd = spectral_map(fwd, fn.f)
    f_bwd = spectral_map(bwd, fn.f)
    table = build_divided_differences(M, fn)
    central = (f_fwd - f_bwd) / (2 * h_step)
    return schatten_norm(central - frechet1(table, N), 1)


# ---------------------------------------------------------------------------
# Dual form of the sandwiched divergence
# ---------------------------------------------------------------------------

def sandwiched_dual_optimizer(rho, sigma, alpha: float) -> np.ndarray:
    """Maximizer of the variational (dual Schatten-norm) form of the sandwiched divergence.

    Returns T^(alpha-1) / ||T||_alpha^(alpha-1) for T = rho^(1/2) sigma^((1-alpha)/alpha) rho^(1/2),
    which is PSD with unit alpha/(alpha-1) (quasi-)norm and attains the divergence when
    plugged into the variational objective.  As in ``sandwiched_renyi_rows``, the eigenvalues
    of T below SUPPORT_RTOL ||rho|| ||sigma^q|| count as 0; if none is left (orthogonal states), it raises.
    """
    check_sandwiched_alpha(alpha)
    T, bound = _sandwich_base(rho, sigma, alpha)
    S = eig_hermitian(T, checked=True)
    kept = _sandwich_kept(bound)
    lam = np.where(kept(S.eigenvalues), S.eigenvalues, 0.0)
    if not lam.any():
        raise ValueError("degenerate sigma support: variational base operator vanishes")
    norm_alpha = float(np.sum(lam**alpha)) ** (1.0 / alpha)
    num = spectral_map(S, lambda lam: lam ** (alpha - 1), kept)
    return hermitian_part(num / norm_alpha ** (alpha - 1))


def sandwiched_variational_objective(rho, sigma, alpha: float, eta) -> float:
    """alpha/(alpha-1) log Tr[rho^(1/2) sigma^((1-alpha)/alpha) rho^(1/2) eta].

    T keeps only the eigenvalues that ``sandwiched_renyi_rows`` counts, so orthogonal states
    have no positive overlap with any eta.
    """
    T, bound = _sandwich_base(rho, sigma, alpha)
    T = spectral_map(eig_hermitian(T, checked=True), lambda lam: lam, _sandwich_kept(bound))
    val = float(np.trace(T @ as_matrix(eta)).real)
    if val <= 0:
        raise ValueError(f"variational objective needs a positive overlap Tr[T eta], got {val:.6e}")
    return alpha / (alpha - 1) * math.log(val)
