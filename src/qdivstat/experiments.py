"""Seeded Monte Carlo experiments verifying the predicted estimator asymptotics.

A convergence experiment simulates tomography at several sample sizes,
collects the scaled estimation-error statistic per trial, and summarizes the
empirical law against the exact limit law of the estimator under the
Gaussian Pauli directions of the tomography CLT.  In the alternative case
the limit functional is linear in the directions, so its law is a centered
normal; in the null case it is a quadratic form, so its law is a weighted
sum of chi-squared(1) variables (Imhof, Biometrika 1961).

Outputs are deterministic for a fixed seed: every (n, trial) pair draws from
its own seed substream and rows are written in (n, trial) order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .operator_core import as_matrix
from .divergences import (
    Povm,
    eigenbasis_povm,
    measured_relative_entropy,
    petz_renyi,
    sandwiched_renyi,
    umegaki,
)
from .frechet import build_divided_differences, frechet1
from .limit_laws import (
    measured_alt_limit,
    petz_alt_limit,
    qre_alt_limit,
    sandwiched_alt_limit,
)
from .pauli_tomography import (
    PauliBasisSet,
    bernoulli_weights,
    build_pauli_basis,
    estimate,
    qubits_for_dim,
    sample_record,
    substream,
    variance_v1,
    variance_v2,
)
from .hypothesis_testing import derive_seed

__all__ = [
    "ALT_KINDS",
    "NULL_KINDS",
    "KINDS",
    "ExperimentConfig",
    "TrialRecord",
    "run_convergence_experiment",
    "alt_limit_variance",
    "null_law_weights",
    "sample_reference_law",
    "ks_statistic",
    "write_rows_csv",
    "write_summary_json",
]

ALT_KINDS = ("one_sample_alt", "two_sample_alt", "petz", "sandwiched", "measured")
NULL_KINDS = ("one_sample_null", "two_sample_null")
KINDS = ALT_KINDS + NULL_KINDS

# Size of the null reference sample drawn from the exact weighted chi-squared law.
REFERENCE_DRAWS = 10_000


@dataclass(frozen=True)
class TrialRecord:
    n: int
    trial_index: int
    statistic: float
    branch_taken: bool


@dataclass
class ExperimentConfig:
    """Description of one seeded convergence experiment."""

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
        if self.kind in NULL_KINDS:
            if self.sigma is not None and np.max(np.abs(as_matrix(self.sigma) - self.rho)) > 1e-12:
                raise ValueError("null experiments require sigma equal to rho")
            self.sigma = self.rho
        else:
            if self.sigma is None:
                raise ValueError(f"{self.kind} requires a sigma state")
            self.sigma = as_matrix(self.sigma)
        if self.kind in ("petz", "sandwiched") and self.alpha is None:
            raise ValueError(f"{self.kind} requires alpha")
        self.n_grid = tuple(int(n) for n in self.n_grid)
        if any(n < 1 for n in self.n_grid) or any(
                b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be ascending positive integers")
        if self.trials < 100:
            raise ValueError("KS summaries need at least 100 trials")
        if self.scaling_exponent is None:
            self.scaling_exponent = 0.5 if self.kind in ALT_KINDS else 1.0
        if self.scaling_exponent <= 0:
            raise ValueError("scaling exponent must be positive")
        if not self.experiment_id:
            d = self.rho.shape[0]
            self.experiment_id = f"{self.kind}-d{d}-seed{self.seed}"

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def two_sample(self) -> bool:
        return self.kind in ("two_sample_alt", "two_sample_null", "petz", "sandwiched", "measured")


def ks_statistic(sample, reference) -> float:
    """Kolmogorov-Smirnov sup distance of the empirical CDF.

    ``reference`` is either ("gaussian", mean, var) for the one-sample
    statistic against a normal CDF, or a second sample for the standard
    two-sample statistic.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    if len(x) < 2:
        raise ValueError("need at least two sample points")
    if isinstance(reference, tuple) and len(reference) == 3 and reference[0] == "gaussian":
        _, mean, var = reference
        if var <= 0:
            raise ValueError("gaussian reference needs positive variance")
        cdf = ndtr((x - mean) / math.sqrt(var))
        grid = np.arange(1, len(x) + 1) / len(x)
        return float(max(np.max(np.abs(cdf - grid)), np.max(np.abs(cdf - (grid - 1 / len(x))))))
    y = np.sort(np.asarray(reference, dtype=float))
    if len(y) < 2:
        raise ValueError("reference sample needs at least two points")
    both = np.concatenate([x, y])
    f_x = np.searchsorted(x, both, side="right") / len(x)
    f_y = np.searchsorted(y, both, side="right") / len(y)
    return float(np.max(np.abs(f_x - f_y)))


def _divergence_fn(cfg: ExperimentConfig):
    if cfg.kind in ("one_sample_alt", "two_sample_alt", "one_sample_null", "two_sample_null"):
        return lambda r, s: umegaki(r, s).value
    if cfg.kind == "petz":
        return lambda r, s: petz_renyi(r, s, cfg.alpha).value
    if cfg.kind == "sandwiched":
        return lambda r, s: sandwiched_renyi(r, s, cfg.alpha).value
    family = cfg.povm_family
    return lambda r, s: measured_relative_entropy(r, s, family)[0].value


def _limit_fn(cfg: ExperimentConfig):
    """Alternative-case limit functional of (L1, L2), linear in the directions."""
    rho, sigma = cfg.rho, cfg.sigma
    if cfg.kind in ("one_sample_alt", "two_sample_alt"):
        return lambda l1, l2: qre_alt_limit(rho, sigma, l1, l2)
    if cfg.kind == "petz":
        return lambda l1, l2: petz_alt_limit(rho, sigma, cfg.alpha, l1, l2)
    if cfg.kind == "sandwiched":
        return lambda l1, l2: sandwiched_alt_limit(rho, sigma, cfg.alpha, l1, l2)
    m_star = cfg.povm_family[measured_relative_entropy(rho, sigma, cfg.povm_family)[1]]
    return lambda l1, l2: measured_alt_limit(rho, sigma, m_star, l1, l2)


def alt_limit_variance(cfg: ExperimentConfig, basis: PauliBasisSet) -> float:
    """Variance v of the exact alternative-case law N(0, v).

    The directions are L1 = sum_j gamma_j sqrt(w_rho_j) Z_j and, for two
    samples, an independent L2 with the weights of sigma.  The functional f
    is linear, so v = sum_j w_rho_j f(gamma_j, 0)^2 + sum_j w_sigma_j f(0, gamma_j)^2.
    """
    fn = _limit_fn(cfg)
    zero = np.zeros((cfg.dim, cfg.dim))
    v = bernoulli_weights(cfg.rho, basis) @ np.square([fn(g, zero) for g in basis.operators])
    if cfg.two_sample:
        v += bernoulli_weights(cfg.sigma, basis) @ np.square([fn(zero, g) for g in basis.operators])
    return float(v)


def null_law_weights(cfg: ExperimentConfig, basis: PauliBasisSet) -> np.ndarray:
    """Weights lam_k of the exact null law sum_k lam_k Z_k^2, ascending.

    The null functional (1/2) Tr[delta Dlog_rho(delta)] is a quadratic form
    in the Pauli coordinates x_j = sqrt(w_j) Z_j of delta, with Hessian
    H[j, k] = Tr[gamma_j Dlog_rho(gamma_k)].  The weights are the eigenvalues
    of (1/2) S H S with S = diag(sqrt(w)); the two-sample delta = L1 - L2
    doubles w.  H is symmetric because Dlog_rho is self-adjoint, and
    ``eigvalsh`` reads only its lower triangle.
    """
    table = build_divided_differences(cfg.rho, "log")
    s = np.sqrt(bernoulli_weights(cfg.rho, basis) * (2.0 if cfg.two_sample else 1.0))
    form = np.column_stack([s * basis.coefficients(frechet1(table, g).mat) for g in basis.operators])
    form *= 0.5 * s
    return np.linalg.eigvalsh(form)


def sample_reference_law(cfg: ExperimentConfig) -> np.ndarray:
    """REFERENCE_DRAWS seeded draws of the exact null law sum_k lam_k Z_k^2."""
    if cfg.kind not in NULL_KINDS:
        raise ValueError(f"{cfg.kind} has a Gaussian limit law; the reference sample is for null kinds")
    lam = null_law_weights(cfg, build_pauli_basis(qubits_for_dim(cfg.dim)))
    rng = substream(cfg.seed, 10**6)
    out = np.zeros(REFERENCE_DRAWS)
    for weight in lam:
        out += weight * np.square(rng.standard_normal(REFERENCE_DRAWS))
    return out


def run_convergence_experiment(cfg: ExperimentConfig) -> dict:
    """Run the experiment and return {"rows": [...], "summary": [...]}.

    Writes the CSV rows (and a summary JSON next to it) when the config has
    an output path.
    """
    if cfg.kind == "measured" and not cfg.povm_family:
        cfg.povm_family = [eigenbasis_povm(cfg.rho), eigenbasis_povm(cfg.sigma),
                           eigenbasis_povm(cfg.rho - cfg.sigma)]
    lam_rho = float(np.linalg.eigvalsh(cfg.rho)[0])
    if lam_rho <= 0:
        raise ValueError("experiments require strictly positive states")
    basis = build_pauli_basis(qubits_for_dim(cfg.dim))
    divergence = _divergence_fn(cfg)
    center = divergence(cfg.rho, cfg.sigma) if cfg.kind in ALT_KINDS else 0.0

    rows: list[TrialRecord] = []
    summary: list[dict] = []
    reference = None
    v_pred = None
    if cfg.kind == "one_sample_alt":
        v_pred = variance_v1(cfg.rho, cfg.sigma, basis)
    elif cfg.kind == "two_sample_alt":
        v_pred = variance_v2(cfg.rho, cfg.sigma, basis)
    elif cfg.kind in ALT_KINDS:
        v_pred = alt_limit_variance(cfg, basis)
    else:
        reference = sample_reference_law(cfg)

    for n in cfg.n_grid:
        scale = float(n) ** cfg.scaling_exponent
        stats = np.empty(cfg.trials)
        for t in range(cfg.trials):
            rec_r = sample_record(cfg.rho, basis, n, derive_seed(cfg.seed, n, t, 0))
            rho_hat, branch = estimate(rec_r, basis)
            if cfg.two_sample:
                rec_s = sample_record(cfg.sigma, basis, n, derive_seed(cfg.seed, n, t, 1))
                sigma_hat, branch_s = estimate(rec_s, basis, floor=True)
                branch = branch or branch_s
            else:
                sigma_hat = cfg.sigma
            stat = scale * (divergence(rho_hat.mat, as_matrix(sigma_hat)) - center)
            stats[t] = stat
            rows.append(TrialRecord(n=n, trial_index=t, statistic=float(stat), branch_taken=branch))
        entry = {
            "kind": cfg.kind,
            "n": n,
            "trials": cfg.trials,
            "mean": float(stats.mean()),
            "var": float(stats.var(ddof=1)),
            "v_pred": v_pred,
        }
        if v_pred is not None:
            entry["ks"] = ks_statistic(stats, ("gaussian", 0.0, v_pred))
        else:
            entry["ks"] = ks_statistic(stats, reference)
        summary.append(entry)

    result = {"experiment_id": cfg.experiment_id, "rows": rows, "summary": summary}
    if cfg.output_path:
        write_rows_csv(cfg, rows, cfg.output_path)
        write_summary_json(cfg, summary, cfg.output_path + ".summary.json")
    return result


CSV_FIELDS = ("experiment_id", "kind", "d", "alpha", "n", "trial", "statistic", "branch_taken")


def write_rows_csv(cfg: ExperimentConfig, rows, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_FIELDS)
        for r in rows:
            w.writerow([cfg.experiment_id, cfg.kind, cfg.dim,
                        "" if cfg.alpha is None else repr(cfg.alpha),
                        r.n, r.trial_index, repr(r.statistic), int(r.branch_taken)])


def read_rows_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return [dict(row) for row in csv.DictReader(fh)]


def write_summary_json(cfg: ExperimentConfig, summary, path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"experiment_id": cfg.experiment_id, "seed": cfg.seed,
                   "summary": summary}, fh, indent=2)
        fh.write("\n")
