"""First- and second-order Frechet derivatives of log and real powers of Hermitian matrices.

The one evaluation path is spectral divided differences (exact up to the
eigensolve, O(d^3)): ``build_divided_differences`` tabulates them over the
spectrum of the base point, and ``frechet1`` and ``frechet2`` apply the table
to directions.  Eigenvalues closer than ``COALESCE_TOL`` (relative) coalesce
to the derivative at their midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operator_core import (
    SpectralDecomposition,
    as_matrix,
    eig_hermitian,
    hermitian_part,
)

__all__ = [
    "ScalarFn",
    "DividedDifferenceTable",
    "build_divided_differences",
    "frechet1",
    "frechet2",
]

COALESCE_TOL = 1e-8


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
        return _dd2(self.base_fn, lam[:, None, None], lam[None, :, None], lam[None, None, :], COALESCE_TOL)


def build_divided_differences(A, fn) -> DividedDifferenceTable:
    """Build the divided-difference tables of ``fn`` at ``A``; the second order is lazy."""
    fn = _as_fn(fn)
    S = A if isinstance(A, SpectralDecomposition) else eig_hermitian(A)
    lam = S.eigenvalues
    _check_domain(fn, lam)
    first = _dd1(fn, lam[:, None], lam[None, :], COALESCE_TOL)
    return DividedDifferenceTable(base_fn=fn, eigen=S, first=first)


def frechet1(T: DividedDifferenceTable, H) -> np.ndarray:
    """D[f(A)](H): the first table's Hadamard product with H in the eigenbasis, through ``hermitian_part``."""
    M = as_matrix(H)
    if M.shape != (T.dim, T.dim):
        raise ValueError(f"direction has shape {M.shape}, base point dim {T.dim}")
    return hermitian_part(T.derivative(M))


def frechet2(T: DividedDifferenceTable, H1, H2) -> np.ndarray:
    """D^2[f(A)](H1, H2), symmetric bilinear in the directions, through ``hermitian_part``."""
    M1, M2 = as_matrix(H1), as_matrix(H2)
    if M1.shape != (T.dim, T.dim) or M2.shape != (T.dim, T.dim):
        raise ValueError("direction dimension does not match the base point")
    U = T.eigen.eigenvectors
    A = U.conj().T @ M1 @ U
    B = U.conj().T @ M2 @ U
    core = np.einsum("ikj,ik,kj->ij", T.second, A, B)
    core += np.einsum("ikj,ik,kj->ij", T.second, B, A)
    return hermitian_part(U @ core @ U.conj().T)
