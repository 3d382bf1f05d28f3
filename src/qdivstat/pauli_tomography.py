"""Multi-qubit Pauli basis, measurement simulation, and tomographic estimators.

Measurement outcomes for each basis operator are Bernoulli in its +1/-1
eigenbasis, so a record stores one binomial count per operator.  Sampling is
deterministic given the record seed: all counts of a record are drawn from
one substream of it, which also makes trials embarrassingly parallel without
sharing generator state.

The basis is never stored.  Coefficients Tr[A gamma_j] and combinations
sum_j c_j gamma_j are computed by the tensorized Pauli transform (Hantzko,
Binkowski and Gupta, arXiv:2310.13421): one 4 x 4 map applied per qubit to
the d^2 entries of A, O(N 4^N) work instead of 4^N dense d x d products.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .operator_core import (
    DensityOperator,
    HermitianOperator,
    as_matrix,
    eig_hermitian,
    project_to_simplex,
)
from .frechet import build_divided_differences, frechet1

__all__ = [
    "PAULI_MATRICES",
    "MAX_QUBITS",
    "PauliBasisSet",
    "BlochVector",
    "MeasurementRecord",
    "qubits_for_dim",
    "build_pauli_basis",
    "bloch_coefficients",
    "reconstruct",
    "substream",
    "sample_record",
    "record_bloch_estimate",
    "estimate",
    "estimate_rho",
    "estimate_sigma",
    "was_projected",
    "bernoulli_weights",
    "variance_v1",
    "variance_v2",
    "sample_gaussian_limit",
]

PAULI_MATRICES = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

MAX_QUBITS = 6

# Per-qubit maps between the entries (i, j) of a 2 x 2 block, flattened as
# 2 i + j, and the Pauli index a: _TO_PAULI[a, 2i + j] = P_a[j, i] gives
# Tr[B P_a]; _FROM_PAULI[2i + j, a] = P_a[i, j] gives sum_a c_a P_a.
_FROM_PAULI = np.stack(PAULI_MATRICES).reshape(4, 4).T
_TO_PAULI = _FROM_PAULI.conj().T


def qubits_for_dim(d: int) -> int:
    """Qubit count N with d = 2^N; d must be a power of two in [2, 2^MAX_QUBITS]."""
    d = int(d)
    if not (2 <= d <= 2**MAX_QUBITS) or d & (d - 1):
        raise ValueError(f"dimension {d} is not a power of two in [2, {2**MAX_QUBITS}]")
    return d.bit_length() - 1


def _per_qubit(mat: np.ndarray, x: np.ndarray, qubits: int) -> np.ndarray:
    """(mat kron ... kron mat) @ x with ``qubits`` factors, one qubit axis at a time.

    Each step applies ``mat`` to the leading base-4 digit of the index and
    moves that digit to the end, so after ``qubits`` steps every digit is
    transformed and back in place.
    """
    for _ in range(qubits):
        x = (mat @ x.reshape(4, -1)).T
    return x.reshape(-1)


@dataclass(frozen=True)
class PauliBasisSet:
    """The d^2 - 1 nontrivial N-qubit Pauli operators with base-4 labels.

    Operator j (j = 1 .. 4^N - 1) is P_(a_1) kron ... kron P_(a_N), where
    a_1 ... a_N are the base-4 digits of j, most significant first.  Only the
    qubit count is stored; ``coefficients`` and ``combine`` apply the basis
    without forming it.
    """

    qubits: int

    def __post_init__(self):
        if not (1 <= self.qubits <= MAX_QUBITS):
            raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {self.qubits}")

    @property
    def dim(self) -> int:
        return 2**self.qubits

    @property
    def size(self) -> int:
        return 4**self.qubits - 1

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(np.base_repr(code, base=4).zfill(self.qubits) for code in range(1, self.size + 1))

    @property
    def operators(self) -> Sequence[np.ndarray]:
        """The operators as dense matrices, each built from its label when indexed."""
        return _KroneckerProducts(self.labels)

    def coefficients(self, A: np.ndarray) -> np.ndarray:
        """Tr[A gamma_j] for every operator j; real for Hermitian A."""
        n = self.qubits
        pairs = A.reshape((2,) * (2 * n)).transpose(_interleave(n))
        return _per_qubit(_TO_PAULI, pairs, n)[1:].real

    def combine(self, coeffs: np.ndarray, identity: float = 0.0) -> np.ndarray:
        """identity * I + sum_j coeffs_j gamma_j as a dense matrix."""
        n = self.qubits
        pairs = _per_qubit(_FROM_PAULI, np.concatenate(([identity], coeffs)).astype(complex), n)
        entries = pairs.reshape((2,) * (2 * n)).transpose(np.argsort(_interleave(n)))
        return entries.reshape(self.dim, self.dim)

    def __repr__(self) -> str:
        return f"PauliBasisSet(qubits={self.qubits}, size={self.size})"


class _KroneckerProducts(Sequence):
    """Read-only sequence of Pauli operators that stores only their labels."""

    def __init__(self, labels: tuple[str, ...]):
        self._labels = labels

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, j: int) -> np.ndarray:
        g = np.ones((1, 1), dtype=complex)
        for digit in self._labels[j]:
            g = np.kron(g, PAULI_MATRICES[int(digit)])
        return g


def _interleave(n: int) -> list[int]:
    """Axis order (i_1, j_1, ..., i_n, j_n) of a matrix reshaped to (i_1..i_n, j_1..j_n)."""
    return [axis for q in range(n) for axis in (q, q + n)]


def build_pauli_basis(n_qubits: int) -> PauliBasisSet:
    """Tensor products of the single-qubit Pauli matrices, identity excluded."""
    return PauliBasisSet(qubits=n_qubits)


@dataclass(frozen=True)
class BlochVector:
    """Expansion coefficients s_j = Tr[rho gamma_j]; |s_j| <= 1 for states."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))

    def __len__(self) -> int:
        return len(self.coeffs)


def bloch_coefficients(rho, basis: PauliBasisSet) -> BlochVector:
    mat = as_matrix(rho)
    if mat.shape[0] != basis.dim:
        raise ValueError("state dimension does not match the basis")
    return BlochVector(basis.coefficients(mat))


def reconstruct(s: BlochVector | np.ndarray, basis: PauliBasisSet) -> HermitianOperator:
    """(1/d)(I + sum_j s_j gamma_j): Hermitian, unit trace, not necessarily PSD."""
    coeffs = s.coeffs if isinstance(s, BlochVector) else np.asarray(s, dtype=float)
    if len(coeffs) != basis.size:
        raise ValueError(f"expected {basis.size} coefficients, got {len(coeffs)}")
    return HermitianOperator(basis.combine(coeffs, identity=1.0) / basis.dim)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, path); the splittable-RNG contract."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(path)))


@dataclass(frozen=True)
class MeasurementRecord:
    """Counts of +1 outcomes: plus_counts[j] out of n shots on gamma_j."""

    n: int
    plus_counts: np.ndarray
    seed: int

    def __post_init__(self):
        counts = np.asarray(self.plus_counts, dtype=np.int64)
        if np.any(counts < 0) or np.any(counts > self.n):
            raise ValueError("counts must lie in [0, n]")
        object.__setattr__(self, "plus_counts", counts)


def sample_record(rho, basis: PauliBasisSet, n: int, seed: int) -> MeasurementRecord:
    """Simulate n measurement shots per Pauli operator on independent copies.

    plus_counts[j] ~ Binomial(n, (1 + s_j)/2), independent across j, all
    drawn in operator order from the one substream of ``seed``.
    """
    if n < 1:
        raise ValueError("need at least one shot per operator")
    s = bloch_coefficients(rho, basis).coeffs
    p_plus = np.clip((1.0 + s) / 2.0, 0.0, 1.0)
    return MeasurementRecord(n=n, plus_counts=substream(seed).binomial(n, p_plus), seed=seed)


def record_bloch_estimate(record: MeasurementRecord) -> BlochVector:
    """s_hat_j = (#plus - #minus)/n, in [-1, 1]."""
    return BlochVector((2.0 * record.plus_counts - record.n) / record.n)


def estimate(record: MeasurementRecord, basis: PauliBasisSet, floor: bool = False,
             psd_atol: float = 1e-12) -> tuple[DensityOperator, bool]:
    """Tomographic estimate of a record and whether it took the projection branch.

    The raw reconstruction is kept if PSD, else replaced by the nearest
    density operator.  ``floor`` gives the second-argument estimator, mixed
    with I/(nd) so that it is strictly positive.
    """
    raw = reconstruct(record_bloch_estimate(record), basis)
    S = eig_hermitian(raw)
    projected = float(S.eigenvalues[0]) < -psd_atol
    est = DensityOperator(S.reassemble(project_to_simplex(S.eigenvalues)) if projected else raw)
    if floor:
        n, d = record.n, basis.dim
        est = DensityOperator(np.eye(d) / (n * d) + (1.0 - 1.0 / n) * est.mat)
    return est, projected


def estimate_rho(record: MeasurementRecord, basis: PauliBasisSet,
                 psd_atol: float = 1e-12) -> DensityOperator:
    """Tomographic estimator: raw reconstruction if PSD, nearest density operator otherwise."""
    return estimate(record, basis, psd_atol=psd_atol)[0]


def estimate_sigma(record: MeasurementRecord, basis: PauliBasisSet) -> DensityOperator:
    """Second-argument estimator with the I/(nd) floor that keeps it strictly positive."""
    return estimate(record, basis, floor=True)[0]


def was_projected(record: MeasurementRecord, basis: PauliBasisSet,
                  psd_atol: float = 1e-12) -> bool:
    """Whether the raw reconstruction was infeasible and took the projection branch."""
    return estimate(record, basis, psd_atol=psd_atol)[1]


def bernoulli_weights(rho, basis: PauliBasisSet) -> np.ndarray:
    """4 s_j^+ s_j^- / d^2: the per-operator CLT variances of s_hat_j scaled by 1/d^2."""
    s = bloch_coefficients(rho, basis).coeffs
    sp = (1.0 + s) / 2.0
    sm = (1.0 - s) / 2.0
    return 4.0 * sp * sm / basis.dim**2


def variance_v1(rho, sigma, basis: PauliBasisSet) -> float:
    """One-sample asymptotic variance of the scaled relative-entropy estimation error."""
    _require_full_rank(rho, "rho")
    _require_full_rank(sigma, "sigma")
    weights = bernoulli_weights(rho, basis)
    terms = basis.coefficients(_log_psd(rho) - _log_psd(sigma)) ** 2
    return float(np.sum(weights * terms))


def variance_v2(rho, sigma, basis: PauliBasisSet) -> float:
    """Two-sample asymptotic variance: v1^2 plus the sigma-estimation contribution.

    The contribution weighs Tr[rho Dlog_sigma(gamma_j)]^2.  Dlog_sigma is
    self-adjoint in the trace inner product, so these are the coefficients
    Tr[Dlog_sigma(rho) gamma_j] of a single derivative.
    """
    _require_full_rank(rho, "rho")
    _require_full_rank(sigma, "sigma")
    weights = bernoulli_weights(sigma, basis)
    table = build_divided_differences(as_matrix(sigma), "log")
    terms = basis.coefficients(frechet1(table, rho).mat) ** 2
    return variance_v1(rho, sigma, basis) + float(np.sum(weights * terms))


def sample_gaussian_limit(rho, basis: PauliBasisSet, rng: np.random.Generator) -> np.ndarray:
    """One draw of the Gaussian weak limit sum_j gamma_j Z_j of the scaled estimator error."""
    std = np.sqrt(bernoulli_weights(rho, basis))
    return basis.combine(rng.normal(size=basis.size) * std)


def _require_full_rank(rho, name: str) -> None:
    lo = float(np.linalg.eigvalsh(as_matrix(rho))[0])
    if lo <= 0:
        raise ValueError(f"{name} must be strictly positive definite (min eig {lo:.3e})")


def _log_psd(rho) -> np.ndarray:
    S = eig_hermitian(rho)
    return S.reassemble(np.log(S.eigenvalues))
