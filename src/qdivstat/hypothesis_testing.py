"""Multi-hypothesis testing on the quantum relative entropy.

A statistic D_hat = D(rho_hat_n || sigma) is compared against a grid of
entropy thresholds shifted by c/sqrt(n); the threshold c is derived from the
inverse complementary normal CDF so that the test asymptotically achieves a
prescribed level.  The Monte Carlo error rates decide most trials from a
rigorous first-order interval for D_hat, read off their Pauli counts, and
eigensolve only the trials whose bucket it leaves in doubt.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .operator_core import (
    SUPPORT_RTOL,
    SpectralDecomposition,
    as_matrix,
    check_density_spectrum,
    eig_hermitian,
    eigvals_hermitian,
    hermitian_part,
    spectral_map,
    support_mask,
)
from .divergences import log_with_kernel, umegaki_spectral
from .pauli_tomography import (
    BlochVector,
    PauliBasisSet,
    _bloch_rows,
    _worker,
    bloch_coefficients,
    build_pauli_basis,
    estimate_stack,
    qubits_for_dim,
    sample_counts,
    trial_chunks,
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
]

WILSON_Z = 1.959963984540054  # the two-sided 95% standard normal quantile of the Wilson intervals


def inverse_q(tau: float) -> float:
    """z with Q(z) = tau, Q the complementary standard normal CDF (Wichura's AS241, via ``statistics``)."""
    if not 0 < tau < 1:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    return -NormalDist().inv_cdf(tau)


def threshold_c(tau: float, d: int, b: float) -> float:
    """Minimal admissible decision threshold 2 d Q^-1(tau) |log b|."""
    if not 0 < b < 1:
        raise ValueError(f"b must be in (0, 1), got {b}")
    if d < 1:
        raise ValueError("dimension must be positive")
    return 2 * d * inverse_q(tau) * abs(math.log(b))


# Absolute widening of the first-order interval for D_hat before it is
# bucketed: it covers the rounding of D0, of the first-order term and of the
# exact path's D_hat, each about 1e-14 for states, with a wide margin.
_DECISION_SLACK = 1e-9

# Largest |Tr rho - 1| for which the screen takes rho - rho_hat as traceless:
# the identity part it leaves out moves D by at most |Tr rho - 1| times
# 1 + ||log rho - log sigma||, far below the slack.
_UNIT_TRACE_ATOL = 1e-12


def _positive_minimum(lows: dict[str, float]) -> float:
    """The smallest of the named smallest eigenvalues; each must be strictly positive."""
    for name, lo in lows.items():
        if lo <= 0:
            raise ValueError(f"{name} has non-positive eigenvalue {lo:.3e}")
    return min(lows.values())


def min_eigenvalue_bound(states) -> float:
    """Smallest eigenvalue over all supplied states; all must be strictly positive."""
    return _positive_minimum({f"state {i}": float(eigvals_hermitian(s)[0]) for i, s in enumerate(states)})


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


def _shifted_bounds(n: int, grid: HypothesisGrid, c: float) -> np.ndarray:
    """The thresholds eps_i + c/sqrt(n)."""
    if n < 1:
        raise ValueError("sample size must be positive")
    return np.asarray(grid.epsilons) + c / math.sqrt(n)


def _decided_indices(d_hat: np.ndarray, n: int, grid: HypothesisGrid, c: float) -> np.ndarray:
    """The decided index of each statistic, -1 where no hypothesis is consistent.

    Index i + 1 of the left ``searchsorted`` is the half-open interval
    (eps_i + s, eps_(i+1) + s]; index 0 (at or below the lowest boundary)
    joins bucket 0, and index m + 1 (above the grid) is -1.
    """
    bounds = _shifted_bounds(n, grid, c)
    k = np.searchsorted(bounds, d_hat, side="left")
    return np.where(k == len(bounds), -1, np.maximum(k - 1, 0))


def decide(d_hat: float, n: int, grid: HypothesisGrid, c: float) -> TestOutcome:
    """Assign the statistic to its shifted half-open interval (eps_i + s, eps_(i+1) + s].

    Half-open intervals make outcomes a partition.  Statistics at or below
    the lowest shifted boundary map to index 0 (the lowest bucket); above the
    highest boundary no hypothesis is consistent and the index is None.  This
    is the one-statistic case of ``_decided_indices``.
    """
    bounds = _shifted_bounds(n, grid, c).tolist()
    index = int(_decided_indices(d_hat, n, grid, c))
    return TestOutcome(None if index < 0 else index, d_hat, tuple(zip(bounds, bounds[1:])))


def wilson_interval(errors: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    z2 = WILSON_Z**2
    center = (errors + z2 / 2) / (trials + z2)
    radius = WILSON_Z * math.sqrt(errors * (trials - errors) / trials + z2 / 4) / (trials + z2)
    return max(0.0, center - radius), min(1.0, center + radius)


def _first_order_screen(R: SpectralDecomposition, bloch: BlochVector, sig_log: np.ndarray,
                        basis: PauliBasisSet):
    """(lambda_min(rho), s, g) for the first-order screen of rho's trials, or None where it does not apply.

    R is rho's decomposition, s its Bloch vector and
    g = coefficients(log rho - log sigma); ``sig_log`` must be log sigma
    (sigma of full support).  The screen needs rho strictly positive, so
    that log rho exists, and of unit trace to 1e-12, so that
    rho_hat - rho = (1/d) sum_j x_j gamma_j.
    """
    lam = R.eigenvalues
    if lam[0] <= 0 or abs(lam.sum() - 1.0) > _UNIT_TRACE_ATOL:
        return None
    return float(lam[0]), bloch.coeffs, basis.coefficients(spectral_map(R, np.log) - sig_log)


def _first_order_interval(counts: np.ndarray, n: int, screen, d0: float) -> tuple[np.ndarray, np.ndarray]:
    """Rigorous bounds on D_hat = D(rho_hat || sigma) for each record, from its counts alone.

    With x = s_hat - s and delta = rho_hat - rho = (1/d) sum_j x_j gamma_j,
    D_hat lies in [D0 + ell, D0 + ell + ||delta||_F^2 / (2 mu)] when mu > 0:
    ell = x . g / d is the first-order term, ||delta||_F^2 = x . x / d, and
    mu = lambda_min(rho) - ||delta||_F bounds the eigenvalues along the
    segment from rho to rho_hat from below (Tr X log X is convex, and
    Dlog_X <= 1/lambda_min(X) with Tr delta = 0).  Where mu <= 0 the bounds
    are -inf and +inf.
    """
    lam_min, s, g = screen
    d = math.isqrt(len(s) + 1)
    x = _bloch_rows(counts, n) - s
    ell = d0 + x @ g / d
    frob2 = np.einsum("ij,ij->i", x, x) / d
    # Lowered by the support cutoff: it is far above the eigensolver's error
    # in lambda_min(rho), and it keeps rho_hat's eigenvalues above the cutoff
    # below which the exact path masks them.
    mu = lam_min - np.sqrt(frob2) - SUPPORT_RTOL
    ok = mu > 0
    return np.where(ok, ell, -np.inf), np.where(ok, ell + frob2 / (2 * np.where(ok, mu, 1.0)), np.inf)


def simulate_error_rates(states, sigma, grid: HypothesisGrid, tau: float, n: int,
                         trials: int, seed: int, basis: PauliBasisSet | None = None,
                         c: float | None = None, b: float | None = None) -> list[dict]:
    """Monte Carlo error-rate estimates of the threshold test, one row per hypothesis.

    Each trial simulates Pauli tomography of the true state, evaluates
    D_hat = D(rho_hat_n || sigma) and decides via the shifted grid; the
    trials of a hypothesis run as bounded stacks, sigma's log with its kernel
    is built once and each state is eigendecomposed once, for its density
    check, its bucket check, ``b`` and the screen's log rho.  The records of
    hypothesis i are drawn in blocks of ``SEED_BLOCK_ENTRIES`` / d^2 trials
    (16 at d = 64), one substream of (seed, i, block) each; a default stack
    is one block.  The stacks are drawn on one worker thread, in (hypothesis,
    stack) order, started before the eigensolves and Pauli transforms below
    so that those overlap the draws; an exception on the worker is raised
    here unchanged, and the worker is joined before this function returns or
    raises.

    Most trials are decided from their counts alone.  With x = s_hat - s the
    error of the Bloch vector, g = coefficients(log rho - log sigma) and
    D0 = D(rho || sigma), the operator Taylor theorem puts D_hat in
    [D0 + x . g / d, D0 + x . g / d + (x . x / d) / (2 mu)], where
    mu = lambda_min(rho) - sqrt(x . x / d) must be positive (which also makes
    rho_hat a state, so the trial is not projected).  A trial whose interval,
    widened by 1e-9 for rounding, lies in one shifted bucket is settled
    there; only the others are reconstructed and eigensolved.  The screen
    applies when sigma has full support and rho is strictly positive with
    unit trace; otherwise every trial takes the exact path.  Decisions, and
    so every row, are those of the exact path; ``screened_fraction`` is the
    share of trials settled without an eigensolve.

    Every state and sigma must be a density operator (unit trace and PSD,
    to 1e-10) and every state must sit strictly inside its hypothesis bucket
    (both validated up front); sigma is known.  ``b`` defaults to the
    smallest eigenvalue over the states and sigma, which must all be
    strictly positive; ``c`` to the minimal admissible threshold for level
    ``tau``.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 < tau < 1:
        raise ValueError("tau must be in (0, 1)")
    states = [hermitian_part(as_matrix(s)) for s in states]
    sig = as_matrix(sigma)
    if len(states) != grid.hypothesis_count:
        raise ValueError(f"{len(states)} states for {grid.hypothesis_count} hypotheses")
    d = sig.shape[0]
    if basis is None:
        basis = build_pauli_basis(qubits_for_dim(d))
    blochs = [bloch_coefficients(rho, basis) for rho in states]
    chunks = list(trial_chunks(trials, d))
    draws = (functools.partial(sample_counts, bloch, basis, n, chunk, seed, i)
             for i, bloch in enumerate(blochs) for chunk in chunks)
    with _worker(draws) as take:
        sig_eig = eig_hermitian(sig)
        check_density_spectrum(sig_eig.eigenvalues, name="sigma")
        sig_log = log_with_kernel(sig_eig)
        decomps = [eig_hermitian(rho, checked=True) for rho in states]
        for i, R in enumerate(decomps):
            check_density_spectrum(R.eigenvalues, name=f"state {i}")
        divs = [float(umegaki_spectral(rho, R.eigenvalues, sig_log)) for rho, R in zip(states, decomps)]
        for i, div in enumerate(divs):
            if grid.bucket(div) != i:
                raise ValueError(f"state {i} has D = {div}, outside bucket "
                                 f"({grid.epsilons[i]}, {grid.epsilons[i + 1]}]")
        if b is None:
            lows = {f"state {i}": float(R.eigenvalues[0]) for i, R in enumerate(decomps)}
            lows["sigma"] = float(sig_eig.eigenvalues[0])
            b = _positive_minimum(lows)
        if c is None:
            c = threshold_c(tau, d, b)
        copies = n * (d * d - 1)
        sigma_full = bool(support_mask(sig_eig.eigenvalues).all())

        rows = []
        for i, (R, bloch) in enumerate(zip(decomps, blochs)):
            screen = _first_order_screen(R, bloch, sig_log, basis) if sigma_full else None
            errors = screened = projected = 0
            for _ in chunks:
                counts = take()
                if screen is not None:
                    low, high = _first_order_interval(counts, n, screen, divs[i])
                    decided = _decided_indices(low - _DECISION_SLACK, n, grid, c)
                    settled = decided == _decided_indices(high + _DECISION_SLACK, n, grid, c)
                    errors += int(np.count_nonzero(decided[settled] != i))
                    screened += int(settled.sum())
                    counts = counts[~settled]
                if len(counts):
                    rho_hat, lam, branch = estimate_stack(counts, n, basis)
                    decided = _decided_indices(umegaki_spectral(rho_hat, lam, sig_log), n, grid, c)
                    errors += int(np.count_nonzero(decided != i))
                    projected += int(branch.sum())
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
                "screened_fraction": screened / trials,
            })
    return rows
