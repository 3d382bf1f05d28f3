"""Multi-hypothesis testing on the quantum relative entropy.

A statistic D_hat = D(rho_hat_n || sigma) is compared against a grid of
entropy thresholds shifted by c/sqrt(n); the threshold c is derived from the
inverse complementary normal CDF so that the test asymptotically achieves a
prescribed level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .operator_core import as_matrix
from .divergences import umegaki
from .pauli_tomography import (
    PauliBasisSet,
    build_pauli_basis,
    estimate,
    qubits_for_dim,
    sample_record,
)

__all__ = [
    "HypothesisGrid",
    "TestOutcome",
    "inverse_q",
    "threshold_c",
    "min_eigenvalue_bound",
    "decide",
    "wilson_interval",
    "simulate_error_rates",
    "derive_seed",
]


def inverse_q(tau: float) -> float:
    """z with Q(z) = tau, Q the complementary standard normal CDF."""
    if not 0 < tau < 1:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    return -float(ndtri(tau))


def threshold_c(tau: float, d: int, b: float) -> float:
    """Minimal admissible decision threshold 2 d Q^-1(tau) |log b|."""
    if not 0 < b < 1:
        raise ValueError(f"b must be in (0, 1), got {b}")
    if d < 1:
        raise ValueError("dimension must be positive")
    return 2 * d * inverse_q(tau) * abs(math.log(b))


def min_eigenvalue_bound(states) -> float:
    """Smallest eigenvalue over all supplied states; all must be strictly positive."""
    lo = math.inf
    for s in states:
        lam = float(np.linalg.eigvalsh(as_matrix(s))[0])
        if lam <= 0:
            raise ValueError(f"state has non-positive eigenvalue {lam:.3e}")
        lo = min(lo, lam)
    return lo


@dataclass(frozen=True)
class HypothesisGrid:
    """Strictly increasing thresholds eps_0 < ... < eps_m bounding m hypothesis buckets."""

    epsilons: tuple[float, ...]

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if len(eps) < 2:
            raise ValueError("need at least two thresholds for one hypothesis")
        if eps[0] < 0:
            raise ValueError("thresholds must be nonnegative")
        if any(hi <= lo for lo, hi in zip(eps, eps[1:])):
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "epsilons", eps)

    @property
    def hypothesis_count(self) -> int:
        return len(self.epsilons) - 1

    def bucket(self, value: float) -> int | None:
        """Index i with eps_i < value <= eps_(i+1), or None outside the grid."""
        eps = self.epsilons
        for i in range(len(eps) - 1):
            if eps[i] < value <= eps[i + 1]:
                return i
        return None


@dataclass(frozen=True)
class TestOutcome:
    decided_index: int | None
    statistic: float
    shifted_intervals: tuple[tuple[float, float], ...] = field(repr=False)


def decide(d_hat: float, n: int, grid: HypothesisGrid, c: float) -> TestOutcome:
    """Assign the statistic to its shifted half-open interval (eps_i + s, eps_(i+1) + s].

    Half-open intervals make outcomes a partition.  Statistics at or below
    the lowest shifted boundary map to index 0 (the lowest bucket); above the
    highest boundary no hypothesis is consistent and the index is None.
    """
    if n < 1:
        raise ValueError("sample size must be positive")
    shift = c / math.sqrt(n)
    bounds = [e + shift for e in grid.epsilons]
    intervals = tuple((lo, hi) for lo, hi in zip(bounds, bounds[1:]))
    if d_hat <= bounds[0]:
        return TestOutcome(0, d_hat, intervals)
    for i, (lo, hi) in enumerate(intervals):
        if lo < d_hat <= hi:
            return TestOutcome(i, d_hat, intervals)
    return TestOutcome(None, d_hat, intervals)


def wilson_interval(errors: int, trials: int, confidence_z: float = 1.959963984540054) -> tuple[float, float]:
    """95% (by default) Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    z2 = confidence_z**2
    center = (errors + z2 / 2) / (trials + z2)
    radius = confidence_z * math.sqrt(errors * (trials - errors) / trials + z2 / 4) / (trials + z2)
    return max(0.0, center - radius), min(1.0, center + radius)


def derive_seed(master: int, *path: int) -> int:
    """Deterministic 64-bit child seed for a (hypothesis, trial, ...) path."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


def simulate_error_rates(states, sigma, grid: HypothesisGrid, tau: float, n: int,
                         trials: int, seed: int, basis: PauliBasisSet | None = None,
                         c: float | None = None, b: float | None = None) -> list[dict]:
    """Monte Carlo error-rate estimates of the threshold test, one row per hypothesis.

    Each trial simulates Pauli tomography of the true state, evaluates
    D(rho_hat_n || sigma) and decides via the shifted grid.  Every state must
    sit strictly inside its hypothesis bucket (validated up front), sigma is
    known.  ``b`` defaults to the smallest eigenvalue over all scenario
    states; ``c`` to the minimal admissible threshold for level ``tau``.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 < tau < 1:
        raise ValueError("tau must be in (0, 1)")
    states = [as_matrix(s) for s in states]
    sig = as_matrix(sigma)
    if len(states) != grid.hypothesis_count:
        raise ValueError(f"{len(states)} states for {grid.hypothesis_count} hypotheses")
    d = sig.shape[0]
    if basis is None:
        basis = build_pauli_basis(qubits_for_dim(d))
    for i, rho in enumerate(states):
        div = umegaki(rho, sig)
        if not div.support_ok or grid.bucket(div.value) != i:
            raise ValueError(f"state {i} has D = {div.value}, outside bucket "
                             f"({grid.epsilons[i]}, {grid.epsilons[i + 1]}]")
    if b is None:
        b = min_eigenvalue_bound(states + [sig])
    if c is None:
        c = threshold_c(tau, d, b)
    copies = n * (d * d - 1)

    rows = []
    for i, rho in enumerate(states):
        errors = 0
        projected = 0
        for t in range(trials):
            record = sample_record(rho, basis, n, derive_seed(seed, i, t))
            rho_hat, branch = estimate(record, basis)
            d_hat = umegaki(rho_hat, sig).value
            outcome = decide(d_hat, n, grid, c)
            if outcome.decided_index != i:
                errors += 1
            projected += branch
        low, high = wilson_interval(errors, trials)
        rate = errors / trials
        radius = (high - low) / 2
        rows.append({
            "hypothesis": i,
            "trials": trials,
            "errors": errors,
            "rate": rate,
            "wilson_low": low,
            "wilson_high": high,
            "copies_used": copies,
            "projection_fraction": projected / trials,
            "threshold_c": c,
            "eigenvalue_bound": b,
            # the level guarantee is asymptotic; a finite-n rate above tau but
            # within three interval radii is flagged, not treated as failure
            "borderline": tau < rate <= tau + 3 * radius,
            "gross_exceedance": rate > tau + 3 * radius,
        })
    return rows
