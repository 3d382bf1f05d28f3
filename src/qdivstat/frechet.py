"""First- and second-order Frechet derivatives of log and real powers of Hermitian matrices.

The primary evaluation path is spectral divided differences (exact up to the
eigensolve, O(d^3)); quadrature of resolvent-integral representations is kept
as an independent oracle.  The two paths share nothing but the eigenvalue
problem, so agreement between them is a meaningful cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operator_core import (
    HermitianOperator,
    SpectralDecomposition,
    as_matrix,
    eig_hermitian,
    eigvals_hermitian,
    schatten_norm,
    spectral_map,
)

__all__ = [
    "ScalarFn",
    "DividedDifferenceTable",
    "QuadratureRule",
    "build_divided_differences",
    "frechet1",
    "frechet2",
    "d_log",
    "d_power",
    "frechet1_log_quadrature",
    "frechet2_log_quadrature",
    "frechet_power_quadrature",
    "finite_difference_check",
]

DEFAULT_COALESCE_TOL = 1e-8


@dataclass(frozen=True)
class ScalarFn:
    """Identifier for the scalar map lifted to matrices: log, or x -> x**alpha."""

    name: str
    alpha: float | None = None

    @classmethod
    def log(cls) -> "ScalarFn":
        return cls("log")

    @classmethod
    def power(cls, alpha: float) -> "ScalarFn":
        return cls("power", float(alpha))

    def f(self, x):
        if self.name == "log":
            return np.log(x)
        return np.power(x, self.alpha)

    def df(self, x):
        if self.name == "log":
            return 1.0 / x
        a = self.alpha
        return a * np.power(x, a - 1)

    def d2f(self, x):
        if self.name == "log":
            return -1.0 / (x * x)
        a = self.alpha
        return a * (a - 1) * np.power(x, a - 2)

    def domain_ok(self, x: float) -> bool:
        if self.name == "log":
            return x > 0
        a = self.alpha
        if a is not None and a == int(a) and a >= 0:
            return True
        return x > 0

    def __str__(self) -> str:
        return "log" if self.name == "log" else f"power({self.alpha})"


def _as_fn(fn) -> ScalarFn:
    if isinstance(fn, ScalarFn):
        return fn
    if fn == "log":
        return ScalarFn.log()
    if isinstance(fn, (int, float)):
        return ScalarFn.power(fn)
    raise ValueError(f"unknown scalar function identifier {fn!r}")


def _check_domain(fn: ScalarFn, eigenvalues: np.ndarray) -> None:
    for x in eigenvalues:
        if not fn.domain_ok(float(x)):
            raise ValueError(f"eigenvalue {x} outside the domain of {fn}")


def _dd1(fn: ScalarFn, x: np.ndarray, y: np.ndarray, tol: float) -> np.ndarray:
    """First divided difference f(x)-f(y) over x-y, coalescing to f'((x+y)/2).

    Positive arguments within a factor 2 of each other take the
    cancellation-free forms of Higham, Functions of Matrices (SIAM 2008),
    11.2: 2 atanh((x-y)/(x+y))/(x-y) for log, and for x^a
    lo^a expm1(a log1p((hi-lo)/lo))/(hi-lo) with lo < hi the two arguments.
    Elsewhere f(x) - f(y) loses no digits and the plain quotient is exact to
    rounding; it also serves arguments <= 0.
    """
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    near = hi - lo <= tol * np.maximum(np.abs(x), np.abs(y))
    close = (lo > 0) & (hi <= 2 * lo)
    gap = np.where(near, 1.0, hi - lo)
    with np.errstate(all="ignore"):
        if fn.name == "log":
            stable = 2 * np.arctanh((hi - lo) / (hi + lo)) / gap
        else:
            stable = lo**fn.alpha * np.expm1(fn.alpha * np.log1p((hi - lo) / lo)) / gap
        quotient = np.where(close, stable, (fn.f(hi) - fn.f(lo)) / gap)
        mid = fn.df((x + y) / 2)
    return np.where(near, mid, quotient)


def _dd2(fn: ScalarFn, x: np.ndarray, y: np.ndarray, z: np.ndarray, tol: float) -> np.ndarray:
    """Second divided difference, recursion over the widest-separated pair."""
    trip = np.sort(np.stack(np.broadcast_arrays(x, y, z), axis=-1), axis=-1)
    a, b, c = trip[..., 0], trip[..., 1], trip[..., 2]
    scale = np.maximum(np.abs(a), np.abs(c))
    near = (c - a) <= tol * scale
    span = np.where(near, 1.0, c - a)
    with np.errstate(all="ignore"):
        recur = (_dd1(fn, b, c, tol) - _dd1(fn, a, b, tol)) / span
        mid = fn.d2f((a + b + c) / 3) / 2
    return np.where(near, mid, recur)


@dataclass(frozen=True)
class DividedDifferenceTable:
    """Divided-difference data of a scalar function over the spectrum of a base point.

    ``first[i, j]`` and ``second[i, k, j]`` are the spectral coefficients of the
    first and second Frechet derivatives at the base point.
    """

    base_fn: ScalarFn
    eigen: SpectralDecomposition
    first: np.ndarray
    coalesce_tol: float = DEFAULT_COALESCE_TOL

    @property
    def dim(self) -> int:
        return self.eigen.dim

    def derivative(self, H: np.ndarray) -> np.ndarray:
        """D[f(A)](H) as an array, for one direction or a stack (..., d, d) of them."""
        U = self.eigen.eigenvectors
        Uh = U.conj().T
        return U @ (self.first * (Uh @ H @ U)) @ Uh

    @cached_property
    def second(self) -> np.ndarray:
        """The O(d^3) second-order table, built on first access: ``frechet1`` never reads it."""
        lam = self.eigen.eigenvalues
        return _dd2(self.base_fn, lam[:, None, None], lam[None, :, None], lam[None, None, :],
                    self.coalesce_tol)


def build_divided_differences(A, fn, coalesce_tol: float = DEFAULT_COALESCE_TOL) -> DividedDifferenceTable:
    """Build the divided-difference tables of ``fn`` at ``A``; the second order is lazy."""
    fn = _as_fn(fn)
    S = A if isinstance(A, SpectralDecomposition) else eig_hermitian(A)
    lam = S.eigenvalues
    _check_domain(fn, lam)
    first = _dd1(fn, lam[:, None], lam[None, :], coalesce_tol)
    return DividedDifferenceTable(base_fn=fn, eigen=S, first=first, coalesce_tol=coalesce_tol)


def frechet1(T: DividedDifferenceTable, H) -> HermitianOperator:
    """D[f(A)](H): Hadamard product of the first table with H in the eigenbasis."""
    M = as_matrix(H)
    if M.shape[0] != T.dim:
        raise ValueError(f"direction has dim {M.shape[0]}, base point {T.dim}")
    return HermitianOperator(T.derivative(M))


def frechet2(T: DividedDifferenceTable, H1, H2) -> HermitianOperator:
    """D^2[f(A)](H1, H2), symmetric bilinear in the directions."""
    M1, M2 = as_matrix(H1), as_matrix(H2)
    if M1.shape[0] != T.dim or M2.shape[0] != T.dim:
        raise ValueError("direction dimension does not match the base point")
    U = T.eigen.eigenvectors
    A = U.conj().T @ M1 @ U
    B = U.conj().T @ M2 @ U
    core = np.einsum("ikj,ik,kj->ij", T.second, A, B)
    core += np.einsum("ikj,ik,kj->ij", T.second, B, A)
    return HermitianOperator(U @ core @ U.conj().T)


def d_log(A, H, coalesce_tol: float = DEFAULT_COALESCE_TOL) -> HermitianOperator:
    """Convenience D[log A](H)."""
    return frechet1(build_divided_differences(A, "log", coalesce_tol), H)


def d_power(A, H, alpha: float, coalesce_tol: float = DEFAULT_COALESCE_TOL) -> HermitianOperator:
    """Convenience D[A^alpha](H); alpha in {1, 2} uses the exact algebraic form."""
    if alpha == 1:
        return HermitianOperator(as_matrix(H))
    if alpha == 2:
        M, N = as_matrix(A), as_matrix(H)
        return HermitianOperator(M @ N + N @ M)
    return frechet1(build_divided_differences(A, ScalarFn.power(alpha), coalesce_tol), H)


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

    def run(r: QuadratureRule) -> HermitianOperator:
        acc = np.zeros_like(N)
        for tau, w in zip(r.nodes, r.weights):
            acc += w * _resolvent_sandwich(M, tau, N)
        return HermitianOperator(acc)

    value = run(rule)
    if not return_error_estimate:
        return value
    coarse = run(QuadratureRule.log_trapezoid(lo, hi, step=0.8))
    return value, schatten_norm(value.mat - coarse.mat, 1)


def frechet2_log_quadrature(A, H1, H2, rule: QuadratureRule | None = None) -> HermitianOperator:
    """D^2[log A](H1, H2) = -integral of the symmetrized double resolvent sandwich."""
    M = as_matrix(A)
    lo, hi = _spectrum_bounds(M)
    N1, N2 = as_matrix(H1), as_matrix(H2)
    rule = rule or QuadratureRule.log_trapezoid(lo, hi, decay_at_inf=3.0, step=0.3)
    acc = np.zeros_like(N1)
    for tau, w in zip(rule.nodes, rule.weights):
        acc -= w * _resolvent_double(M, tau, N1, N2)
    return HermitianOperator(acc)


def _sine_constant(beta: float) -> float:
    # normalization of the power integral representations
    return float(np.sin(np.pi * beta) / np.pi)


def frechet_power_quadrature(A, H, alpha: float, order: int = 1, H2=None,
                             rule: QuadratureRule | None = None) -> HermitianOperator:
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
            return HermitianOperator(-_sine_constant(alpha) * acc)
        if alpha < 0:
            return HermitianOperator(_sine_constant(alpha + 1) * acc)
        return HermitianOperator(_sine_constant(alpha - 1) * acc)

    if alpha < 1:
        # D[A^alpha](H) = +-c integral tau^alpha R H R dtau
        rule = rule or QuadratureRule.log_trapezoid(lo, hi, growth_at_zero=min(alpha, 0.0),
                                                    decay_at_inf=2.0 - alpha)
        acc = np.zeros_like(N)
        for tau, w in zip(rule.nodes, rule.weights):
            acc += w * tau**alpha * _resolvent_sandwich(M, tau, N)
        c = _sine_constant(alpha) if alpha > 0 else -_sine_constant(alpha + 1)
        return HermitianOperator(c * acc)

    # alpha in (1, 2): the two terms of tau^(alpha-2) H - tau^alpha R H R only
    # converge jointly; combined stably as tau^(alpha-2) (A R H + tau R H A R)
    rule = rule or QuadratureRule.log_trapezoid(lo, hi, growth_at_zero=alpha - 2.0,
                                                decay_at_inf=3.0 - alpha)
    acc = np.zeros_like(N)
    eye = np.eye(M.shape[0])
    for tau, w in zip(rule.nodes, rule.weights):
        R = np.linalg.inv(tau * eye + M)
        acc += w * tau ** (alpha - 2.0) * (M @ R @ N + tau * (R @ N @ M @ R))
    return HermitianOperator((acc + acc.conj().T) / 2 * _sine_constant(alpha - 1))


def finite_difference_check(fn, A, H, h_step: float,
                            coalesce_tol: float = DEFAULT_COALESCE_TOL) -> float:
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
    table = build_divided_differences(M, fn, coalesce_tol)
    central = (f_fwd - f_bwd) / (2 * h_step)
    return schatten_norm(central - frechet1(table, N).mat, 1)
