"""Seeded Monte Carlo experiments verifying the predicted estimator asymptotics.

A convergence experiment simulates tomography at several sample sizes,
collects the scaled estimation-error statistic per trial, and summarizes the
empirical law against the exact limit law of the estimator under the
Gaussian Pauli directions of the tomography CLT, through one CDF.  In the
alternative case the limit functional is linear in the directions, so its law
is a centered normal; in the null case it is a quadratic form, so its law is a
weighted sum of chi-squared(1) variables (``weighted_chi2_cdf``; Imhof 1961).

Outputs are deterministic for a fixed seed: the records of each n and side
(0 for rho, 1 for sigma) are drawn in blocks of ``SEED_BLOCK_ENTRIES`` / d^2
trials, one substream of (seed, n, side, block) each, and rows are written in
(n, trial) order.  The trials of one n run as stacks of at most
``STACK_ENTRIES`` matrix entries: their records are sampled and estimated
together, and by default a stack is one seed block.  The estimates of rho
come as matrices with their eigenvalues, from one stacked ``eigvals_hermitian``; those
of sigma as spectra, from one stacked eigensolve.  Every kind evaluates its
divergence on the whole stack in one call, through its entry in ``_KINDS``.  The
rows come back as one record array with the fields of ``ROW_DTYPE``, filled
from each n's columns of statistics and branch flags, and the CSV is written
from its columns.  One worker thread (``pauli_tomography._worker``) advances
a generator of values a few stacks ahead of the estimates: it makes the
Bloch vectors of rho (and sigma), yields every stack's counts and, last, the
CDF of the limit law; each stack keeps its substream, so the output is the
same.  ``_limit_law`` gives the law of a kind (its v_pred, the center of the
statistic and the function that builds its CDF); it is the one place that
tells an alternative kind from a null kind.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .operator_core import (_named_hermitian_part, _same_shape, as_matrix, check_density_spectrum, eig_hermitian,
                            eigvals_hermitian)
from .divergences import (
    Povm,
    check_petz_alpha,
    check_sandwiched_alpha,
    eigenbasis_povm,
    log_with_kernel,
    measured_relative_entropy,
    measured_relative_entropy_rows,
    petz_renyi_rows,
    sandwiched_renyi_rows,
    umegaki_spectral,
)
from .frechet import build_divided_differences
from .limit_laws import (
    measured_alt_gradient,
    petz_alt_gradient,
    qre_alt_gradient,
    sandwiched_alt_gradient,
)
from .pauli_tomography import (
    PauliBasisSet,
    _integer,
    _seed,
    _worker,
    bernoulli_weights,
    bloch_coefficients,
    build_pauli_basis,
    estimate_sigma_stack,
    estimate_stack,
    linear_law_variance,
    qubits_for_dim,
    sample_counts,
    trial_chunks,
)

__all__ = [
    "ALT_KINDS",
    "NULL_KINDS",
    "KINDS",
    "ExperimentConfig",
    "ROW_DTYPE",
    "run_convergence_experiment",
    "alt_limit_variance",
    "null_law_weights",
    "weighted_chi2_cdf",
    "ks_statistic",
    "write_rows_csv",
    "write_summary_json",
]

# What a kind evaluates: divergence(cfg, rho, lam, sigma) is D per matrix of
# the stack rho (eigenvalues lam) against sigma's decomposition, gradient(cfg)
# the (G_rho, G_sigma) of its alternative-case law (None for a null kind).
_Kind = namedtuple("_Kind", "divergence gradient two_sample check_alpha", defaults=(None,))


def _umegaki(cfg, rho, lam, sigma):
    return umegaki_spectral(rho, lam, sigma)


def _measured_gradient(cfg):
    m_star = cfg.povm_family[measured_relative_entropy(cfg.rho, cfg.sigma, cfg.povm_family)[1]]
    return measured_alt_gradient(cfg.rho, cfg.sigma, m_star)


def _qre_gradient(cfg):
    return qre_alt_gradient(cfg.rho, cfg.sigma)


_KINDS = {
    "one_sample_alt": _Kind(_umegaki, _qre_gradient, False),
    "two_sample_alt": _Kind(_umegaki, _qre_gradient, True),
    "petz": _Kind(lambda cfg, rho, lam, sigma: petz_renyi_rows(rho, sigma, cfg.alpha),
                  lambda cfg: petz_alt_gradient(cfg.rho, cfg.sigma, cfg.alpha), True, check_petz_alpha),
    "sandwiched": _Kind(lambda cfg, rho, lam, sigma: sandwiched_renyi_rows(rho, sigma, cfg.alpha),
                        lambda cfg: sandwiched_alt_gradient(cfg.rho, cfg.sigma, cfg.alpha), True,
                        check_sandwiched_alpha),
    "measured": _Kind(lambda cfg, rho, lam, sigma: measured_relative_entropy_rows(rho, sigma, cfg.povm_family),
                      _measured_gradient, True),
    "one_sample_null": _Kind(_umegaki, None, False),
    "two_sample_null": _Kind(_umegaki, None, True),
}
ALT_KINDS = tuple(k for k, spec in _KINDS.items() if spec.gradient)
NULL_KINDS = tuple(k for k, spec in _KINDS.items() if not spec.gradient)
KINDS = ALT_KINDS + NULL_KINDS

# weighted_chi2_cdf: interpolant degree, and trapezoid nodes (step 1/8) per inversion integral.
CDF_DEGREE, CDF_NODES = 96, 41

# Largest v_pred of a degenerate alternative law: with sigma = rho, v_pred is rounding noise
# (1e-32 to 1e-28 at d <= 8), and it grows as |rho - sigma|^2, so 1e-20 means |rho - sigma| ~ 1e-10.
DEGENERATE_V_PRED = 1e-20

# Largest entrywise difference of a null experiment's sigma from rho: a sigma given to a null kind must equal rho.
_NULL_SIGMA_ATOL = 1e-12

# One record of ``result["rows"]`` per (n, trial).
ROW_DTYPE = np.dtype([("n", np.int64), ("trial_index", np.int64), ("statistic", np.float64),
                      ("branch_taken", np.bool_)])


@dataclass
class ExperimentConfig:
    """Description of one seeded convergence experiment.

    A measured experiment without a POVM family gets the eigenbases of rho,
    sigma and rho - sigma.
    """

    kind: str
    rho: np.ndarray
    sigma: np.ndarray | None = None
    alpha: float | None = None
    n_grid: tuple[int, ...] = (1_000, 10_000, 100_000)
    trials: int = 2_000
    scaling_exponent: float | None = None
    seed: int = 0
    output_path: str | None = None
    povm_family: list[Povm] | None = None
    experiment_id: str = field(default="", compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        self.rho = as_matrix(self.rho)
        if self.sigma is not None:
            self.sigma = as_matrix(self.sigma)
            _same_shape(self.rho, self.sigma)
        if self.kind in NULL_KINDS:
            if self.sigma is not None and np.max(np.abs(self.sigma - self.rho)) > _NULL_SIGMA_ATOL:
                raise ValueError("null experiments require sigma equal to rho")
            self.sigma = self.rho
        elif self.sigma is None:
            raise ValueError(f"{self.kind} requires a sigma state")
        if self.kind == "measured" and not self.povm_family:
            self.povm_family = [eigenbasis_povm(_named_hermitian_part(self.rho, "rho")),
                                eigenbasis_povm(_named_hermitian_part(self.sigma, "sigma")),
                                eigenbasis_povm(self.rho - self.sigma)]
        check_alpha = _KINDS[self.kind].check_alpha
        if check_alpha:
            if not isinstance(self.alpha, numbers.Real):
                raise ValueError(f"{self.kind} requires a numeric alpha, got {self.alpha!r}")
            self.alpha = float(self.alpha)
            check_alpha(self.alpha)
        elif self.alpha is not None:
            raise ValueError(f"{self.kind} takes no alpha, got {self.alpha!r}")
        self.n_grid = tuple(_integer("n_grid entry", n) for n in self.n_grid)
        if any(n < 1 for n in self.n_grid) or any(
                b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be ascending positive integers")
        self.trials, self.seed = _integer("trials", self.trials), _seed(self.seed)
        if self.trials < 100:
            raise ValueError("KS summaries need at least 100 trials")
        if self.scaling_exponent is None:
            self.scaling_exponent = 0.5 if self.kind in ALT_KINDS else 1.0
        if not 0 < self.scaling_exponent < math.inf:
            raise ValueError(f"scaling_exponent must be positive and finite, got {self.scaling_exponent}")
        if not self.experiment_id:
            d = self.rho.shape[0]
            self.experiment_id = f"{self.kind}-d{d}-seed{self.seed}"

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def two_sample(self) -> bool:
        return _KINDS[self.kind].two_sample


def _normal_cdf(var: float):
    """The CDF of N(0, var) as a vectorized F: 0.5 erfc(-x / sqrt(2 var)) point by point, exact in both tails."""
    scale = -math.sqrt(2.0 * var)
    return lambda x: 0.5 * np.fromiter(map(math.erfc, (np.asarray(x) / scale).tolist()), float, np.size(x))


def ks_statistic(sample, cdf) -> float:
    """Kolmogorov-Smirnov distance sup |F_n - F| of the sample's empirical CDF from ``cdf``, a vectorized F."""
    x = np.sort(np.asarray(sample, dtype=float))
    if len(x) < 2:
        raise ValueError("need at least two sample points")
    f = cdf(x)
    grid = np.arange(1, len(x) + 1) / len(x)
    return float(max(np.max(np.abs(f - grid)), np.max(np.abs(f - (grid - 1 / len(x))))))


def alt_limit_variance(cfg: ExperimentConfig, basis: PauliBasisSet) -> float:
    """Variance v of the exact alternative-case law N(0, v).

    The limit functional is Tr[L1 G_rho] + Tr[L2 G_sigma], with L2 = 0 for
    one sample; v is read off the gradient of the kind's divergence.
    """
    gradient = _KINDS[cfg.kind].gradient
    if gradient is None:
        raise ValueError(f"{cfg.kind} has a weighted chi-squared limit law; the variance is for alternative kinds")
    g_rho, g_sigma = gradient(cfg)
    terms = [(cfg.rho, g_rho), (cfg.sigma, g_sigma)] if cfg.two_sample else [(cfg.rho, g_rho)]
    return linear_law_variance(basis, *terms)


def null_law_weights(cfg: ExperimentConfig, basis: PauliBasisSet) -> np.ndarray:
    """Weights lam_k of the exact null law sum_k lam_k Z_k^2, ascending.

    The null functional (1/2) Tr[delta Dlog_rho(delta)] is a quadratic form
    in the Pauli coordinates x_j = sqrt(w_j) Z_j of delta, with Hessian
    H[j, k] = Tr[gamma_j Dlog_rho(gamma_k)].  The weights are the eigenvalues
    of (1/2) S H S with S = diag(sqrt(w)); the two-sample delta = L1 - L2
    doubles w.  Column k of H is the Pauli transform of Dlog_rho(gamma_k),
    with gamma_k combined from its unit coefficient vector; the columns are
    built in stacks bounded as the trial stacks are.  H is symmetric because
    Dlog_rho is self-adjoint, and ``eigvalsh`` reads only its lower triangle.
    """
    table = build_divided_differences(cfg.rho, "log")
    s = np.sqrt(bernoulli_weights(cfg.rho, basis) * (2.0 if cfg.two_sample else 1.0))
    form = np.empty((basis.size, basis.size))
    for chunk in trial_chunks(basis.size, basis.dim):
        paulis = basis.combine(np.eye(len(chunk), basis.size, chunk.start))
        form[:, chunk.start:chunk.stop] = s[:, None] * basis.coefficients(table.derivative(paulis)).T
    form *= 0.5 * s
    return np.linalg.eigvalsh(form)


def weighted_chi2_cdf(weights):
    """The CDF of sum_k lam_k Z_k^2, every lam_k > 0, as a vectorized function: a Chebyshev interpolant in sqrt(x).

    At each node, F(x) = [c > 0] - Im int M(s) e^(-sx) ds / (pi s), M(s) = prod_k (1 - 2 lam_k s)^(-1/2), on half a
    hyperbola vertical at the saddle point c of log M(s) - s x and tending to the ray at pi/3 (Imhof's integral, off the
    real axis): |M e^(-sx)| stays near the Chernoff bound there, so cancellation does not grow with the weight count.
    Beyond [lo, hi], F is 0 or 1 within 1.4e-11 (Laurent and Massart, Ann. Stat. 2000); Newton works in units of max lam.
    """
    top = float(np.max(weights))
    lam = np.asarray(weights, dtype=float) / top
    if not lam.min() > 0:
        raise ValueError("weighted chi-squared weights must be positive")
    mean, spread = lam.sum(), math.sqrt(np.sum(lam**2))
    lo, hi = math.sqrt(max(mean - 10 * spread, 0.0)), math.sqrt(mean + 10 * spread + 50)

    def at_nodes(y):
        x = np.square(y)[:, None]
        v = np.log(mean / x)  # Newton for kappa'(c) = x in v = log(1 - 2c)
        for _ in range(8):
            r = lam / (1 + np.expm1(v) * lam)
            k1, k2 = r.sum(axis=1, keepdims=True), 2 * np.square(r).sum(axis=1, keepdims=True)
            v += 2 * k1 * np.log(k1 / x) / (k2 * np.exp(v))
        c, width = -np.expm1(v) / 2, 1 / np.sqrt(k2)
        c = np.where(np.abs(c) < 2 * width, -2 * width, c)  # keeps the pole at s = 0 off the contour
        mu = np.arange(CDF_NODES) / 8
        s = c + width * (1j * np.sinh(mu) + (np.cosh(mu) - 1) / math.sqrt(3))
        ds = width * (1j * np.cosh(mu) + np.sinh(mu) / math.sqrt(3)) * np.where(mu > 0, 1 / 8, 1 / 16) / s
        # log M(s) = -(1/2) sum_k log(1 - 2 lam_k s), on slices of rows of s with at most 2^16 factors f (1 MB; one
        # row if it has more), and log |f| and arg f on quarters of the slice, in one float buffer.  Each node is its
        # own row, so the slicing leaves every value as it is; it bounds what a law built beside the trials holds.
        log_m, slope = np.empty(s.shape, dtype=complex), (-2 * lam).astype(complex)
        for part, out in zip(*(np.array_split(a, min(len(s), 1 + s.size * lam.size // 2**16)) for a in (s, log_m))):
            f = part[..., None] * slope
            f += 1
            for g, o in zip(np.array_split(f, 4, axis=1), np.array_split(out, 4, axis=1)):
                buf = np.abs(g)
                o[:] = -(np.log(buf, out=buf).sum(-1) + 1j * np.arctan2(g.imag, g.real, out=buf).sum(-1)) / 2
        return (c[:, 0] > 0) - np.sum(np.exp(log_m - s * x) * ds, axis=1).imag / np.pi
    series = np.polynomial.Chebyshev.interpolate(at_nodes, CDF_DEGREE, domain=[lo, hi])

    def cdf(q):
        y = np.sqrt(np.maximum(np.asarray(q, dtype=float), 0.0) / top)
        return np.where(y <= lo, 0.0, np.where(y >= hi, 1.0, np.clip(series(np.clip(y, lo, hi)), 0.0, 1.0)))

    return cdf


def _limit_law(cfg: ExperimentConfig, basis: PauliBasisSet, rho, lam_rho, sigma):
    """The exact limit law of the run's statistic: ``(v_pred, center, build_cdf)``.

    The one place that tells an alternative kind from a null kind.  An
    alternative kind's law is N(0, v_pred) with ``v_pred`` from its gradient,
    checked here so that a degenerate law fails before any draw, and the
    statistic is centered at D(rho || sigma).  A null kind's law is
    ``weighted_chi2_cdf(null_law_weights(...))``, which has no ``v_pred``, and
    its statistic is not centered.  ``build_cdf`` builds the law's CDF with
    no argument; the run's generator calls it for its last value, so a null
    law, which depends on rho alone, is built on the worker after the last
    draw.
    """
    if cfg.kind in NULL_KINDS:
        return None, 0.0, lambda: weighted_chi2_cdf(null_law_weights(cfg, basis))
    v_pred = alt_limit_variance(cfg, basis)
    if not v_pred > DEGENERATE_V_PRED:
        raise ValueError(f"v_pred = {v_pred:.3g}: the alternative law N(0, v_pred) is degenerate, as when "
                         f"sigma = rho; equal states take a null kind ({', '.join(NULL_KINDS)})")
    center = float(_KINDS[cfg.kind].divergence(cfg, rho, lam_rho, sigma))
    return v_pred, center, functools.partial(_normal_cdf, v_pred)


def run_convergence_experiment(cfg: ExperimentConfig) -> dict:
    """Run the experiment and return {"experiment_id": ..., "rows": ..., "summary": [...]}.

    rho and sigma must be density operators (unit trace and PSD, to 1e-10,
    read off the spectra the run computes anyway) and rho strictly positive.
    The rows are a ``numpy.recarray`` of ``ROW_DTYPE`` in (n, trial) order.
    Writes the CSV rows (and a summary JSON next to it) when the config has
    an output path.  The limit law comes from ``_limit_law``, before the
    worker starts.  Then one worker thread runs a generator that makes the
    Bloch vectors of rho (and sigma), yields every stack's counts in
    (n, stack, side) order, rho's before sigma's, and ends with the law's
    CDF, while this thread estimates the stacks as they come.
    An exception on the worker is raised here unchanged, and the worker is
    joined before this function returns or raises; nothing is written after
    an error.
    """
    rho = _named_hermitian_part(cfg.rho, "rho")
    lam_rho = eigvals_hermitian(rho, checked=True)
    check_density_spectrum(lam_rho, name="rho")
    if lam_rho[0] <= 0:
        raise ValueError("experiments require strictly positive states")
    sigma = eig_hermitian(_named_hermitian_part(cfg.sigma, "sigma"), checked=True)
    check_density_spectrum(sigma.eigenvalues, name="sigma")
    basis = build_pauli_basis(qubits_for_dim(cfg.dim))
    v_pred, center, build_cdf = _limit_law(cfg, basis, rho, lam_rho, sigma)

    def draws():
        # each sampled state is transformed to its Bloch vector once, for all of its stacks
        sampled = [cfg.rho, cfg.sigma] if cfg.two_sample else [cfg.rho]
        blochs = [bloch_coefficients(state, basis) for state in sampled]
        for n in cfg.n_grid:
            for chunk in trial_chunks(cfg.trials, cfg.dim):
                for side, bloch in enumerate(blochs):
                    yield sample_counts(bloch, basis, n, chunk, cfg.seed, n, side)
        yield build_cdf()

    statistics = np.empty((len(cfg.n_grid), cfg.trials))
    branches = np.empty(statistics.shape, dtype=bool)
    with _worker(draws()) as take:
        divergence = _KINDS[cfg.kind].divergence
        # the one-sample kinds are relative entropies: a fixed sigma enters as L + iQ, built once
        fixed_sigma = None if cfg.two_sample else log_with_kernel(sigma)
        for n, stats, flags in zip(cfg.n_grid, statistics, branches):
            scale = float(n) ** cfg.scaling_exponent
            for chunk in trial_chunks(cfg.trials, cfg.dim):
                rho_hat, lam, branch = estimate_stack(take(), n, basis)
                if cfg.two_sample:
                    sigma_hat, branch_s = estimate_sigma_stack(take(), n, basis)
                    branch = branch | branch_s
                else:
                    sigma_hat = fixed_sigma
                stats[chunk.start:chunk.stop] = scale * (divergence(cfg, rho_hat, lam, sigma_hat) - center)
                flags[chunk.start:chunk.stop] = branch
                del rho_hat, lam, sigma_hat  # this stack's estimates go before the next is made
        cdf = take()
    summary = [{"kind": cfg.kind, "n": n, "trials": cfg.trials, "mean": float(stats.mean()),
                "var": float(stats.var(ddof=1)), "v_pred": v_pred, "ks": ks_statistic(stats, cdf)}
               for n, stats in zip(cfg.n_grid, statistics)]

    rows = np.rec.fromarrays([np.repeat(cfg.n_grid, cfg.trials), np.tile(np.arange(cfg.trials), len(cfg.n_grid)),
                              statistics.ravel(), branches.ravel()], dtype=ROW_DTYPE)
    result = {"experiment_id": cfg.experiment_id, "rows": rows, "summary": summary}
    if cfg.output_path:
        write_rows_csv(cfg, rows, cfg.output_path)
        write_summary_json(cfg, summary, cfg.output_path + ".summary.json")
    return result


CSV_FIELDS = ("experiment_id", "kind", "d", "alpha", "n", "trial", "statistic", "branch_taken")


def write_rows_csv(cfg: ExperimentConfig, rows, path: str) -> None:
    """Write record rows of ``ROW_DTYPE`` as CSV, with the bytes a ``csv.writer`` row per record would give.

    The fields shared by every row go through ``csv.writer`` once, so an
    experiment id that needs quoting gets it.  The per-row fields (two ints,
    the ``repr`` of a float and 0/1) never need quoting: each row is four
    pieces (shared prefix with ``n,``, ``trial,``, statistic, flag tail),
    filled column by column into one list by slice assignment and joined
    once.  The int pieces come from a table of one string per distinct value.
    """
    shared = io.StringIO()
    csv.writer(shared).writerow([cfg.experiment_id, cfg.kind, cfg.dim,
                                 "" if cfg.alpha is None else repr(cfg.alpha), ""])
    prefix = shared.getvalue().removesuffix("\r\n")
    ns, trials = rows["n"].tolist(), rows["trial_index"].tolist()
    pieces = [""] * (4 * len(rows))
    pieces[0::4] = map({n: f"{prefix}{n}," for n in set(ns)}.__getitem__, ns)
    pieces[1::4] = map({t: f"{t}," for t in set(trials)}.__getitem__, trials)
    pieces[2::4] = map(repr, rows["statistic"].tolist())
    pieces[3::4] = map((",0\r\n", ",1\r\n").__getitem__, rows["branch_taken"].tolist())
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(CSV_FIELDS)
        fh.write("".join(pieces))


def write_summary_json(cfg: ExperimentConfig, summary, path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"experiment_id": cfg.experiment_id, "seed": cfg.seed,
                   "summary": summary}, fh, indent=2)
        fh.write("\n")
