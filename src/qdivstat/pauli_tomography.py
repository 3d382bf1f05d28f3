"""Multi-qubit Pauli basis, measurement simulation, and tomographic estimators.

Measurement outcomes for each basis operator are Bernoulli in its +1/-1
eigenbasis, so a record stores one binomial count per operator.  Sampling is
deterministic given a seed and a path: with B = SEED_BLOCK_ENTRIES / d^2
trials per block, trial t is row t % B of the counts of block t // B, drawn by
one call from the substream of (seed, path, block).  Blocks share no generator
state, so they run in any order or in parallel, and a trial's counts depend
neither on how many trials are drawn nor on how they are stacked.  A block
holds as many matrix entries as a default stack, so each stack of a run draws
from one generator: 16384 trials per block at d = 2, 16 at d = 64.  The
runners draw their stacks on one worker thread (``_worker``), which advances
a generator of values a few stacks ahead of the caller, which estimates them
meanwhile: ``binomial`` and the eigensolves release the interpreter lock, so
the two overlap.  Each runner's generator also makes the Bloch vector of
every state it samples, before that state's first draw, so the caller's
eigensolves start at once.

The basis is never stored.  Coefficients Tr[A gamma_j] and combinations
sum_j c_j gamma_j are computed by the tensorized Pauli transform (Hantzko,
Binkowski and Gupta, arXiv:2310.13421): one 4 x 4 map applied per qubit to
the d^2 entries of A, O(N 4^N) work instead of 4^N dense d x d products.

Estimates are made a stack of records at a time.  The first-argument
estimate needs only its eigenvalues, so ``estimate_stack`` solves for them
alone and eigendecomposes just the rows it projects onto the state space; the
floored second-argument estimate, whose log is taken, comes as a spectral
decomposition from ``estimate_sigma_stack``.
"""

from __future__ import annotations

import contextvars
import numbers
import queue
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .operator_core import (
    _HERMITICITY_ATOL,
    SpectralDecomposition,
    as_matrix,
    check_density_spectrum,
    density_spectrum,
    eig_hermitian,
    eigvals_hermitian,
    hermitian_part,
)
from .limit_laws import _require_positive, qre_alt_gradient

__all__ = [
    "PAULI_MATRICES",
    "MAX_QUBITS",
    "STACK_ENTRIES",
    "SEED_BLOCK_ENTRIES",
    "PauliBasisSet",
    "qubits_for_dim",
    "build_pauli_basis",
    "bloch_coefficients",
    "reconstruct",
    "substream",
    "sample_counts",
    "trial_chunks",
    "estimate_stack",
    "estimate_sigma_stack",
    "bernoulli_weights",
    "linear_law_variance",
    "variance_v1",
    "variance_v2",
]

PAULI_MATRICES = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

MAX_QUBITS = 6

# Most complex matrix entries in one stack of trial estimates: every stack of
# d x d matrices holds at most this many, so a batched run needs a bounded
# amount of memory whatever its trial count: 16 trials per stack at d = 64,
# where larger stacks cost memory and gain no speed, and one stack for up to
# 4096 trials at d = 4.
STACK_ENTRIES = 2**16

# Matrix entries of the consecutive trials that draw their counts from one
# substream: a block holds SEED_BLOCK_ENTRIES / d^2 trials, 16 at d = 64.  It
# equals the default STACK_ENTRIES, so a default stack is one whole block, but
# it is kept apart: the seed stream must not move when the stack size does.
SEED_BLOCK_ENTRIES = 2**16

# Most values a worker thread (``_worker``) holds that its caller has not read:
# it makes at most this many ahead.
_WORKER_AHEAD = 4

# Most negative eigenvalue of a raw reconstruction still taken as PSD.
_PSD_ATOL = 1e-12

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
    transformed and back in place.  Columns of a 2-D ``x`` are transformed
    independently and come out as consecutive blocks of the result.
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

    def coefficients(self, A: np.ndarray) -> np.ndarray:
        """Tr[A gamma_j] for every operator j of a Hermitian A, as reals.

        A stack (T, d, d) of matrices gives (T, d^2 - 1), one row per matrix.
        Each coefficient sums d entries of A, so A within ``hermitian_part``'s
        tolerance of Hermitian gives imaginary parts below 1e-12 d max(1,
        max |A_ik|); larger ones mean A is not Hermitian and raise ValueError.
        """
        n = self.qubits
        A = np.asarray(A)
        rows = A.shape[:-2]
        order = list(range(len(rows))) + [len(rows) + a for a in _interleave(n)]
        pairs = A.reshape(rows + (2,) * (2 * n)).transpose(order)
        entries = _per_qubit(_TO_PAULI, pairs.reshape(-1, 4**n).T, n).reshape(rows + (4**n,))
        scale = np.abs(A).reshape(rows + (-1,)).max(axis=-1, initial=1.0)
        imag = np.abs(entries.imag).max(axis=-1)
        bad = imag > _HERMITICITY_ATOL * self.dim * scale
        if bad.any():
            raise ValueError(f"matrix is not Hermitian: Pauli coefficient with imaginary part {imag[bad].max():.3e}")
        return entries[..., 1:].real

    def combine(self, coeffs: np.ndarray, identity: float = 0.0) -> np.ndarray:
        """identity * I + sum_j coeffs_j gamma_j as a dense matrix.

        Coefficients of shape (T, d^2 - 1) give a (T, d, d) stack, one matrix per row.
        """
        n = self.qubits
        coeffs = np.asarray(coeffs)
        rows = coeffs.shape[:-1]
        full = np.concatenate((np.full(rows + (1,), identity), coeffs), axis=-1).astype(complex)
        pairs = _per_qubit(_FROM_PAULI, full.reshape(-1, 4**n).T, n)
        order = list(range(len(rows))) + [len(rows) + a for a in np.argsort(_interleave(n))]
        entries = pairs.reshape(rows + (2,) * (2 * n)).transpose(order)
        return entries.reshape(rows + (self.dim, self.dim))

    def __repr__(self) -> str:
        return f"PauliBasisSet(qubits={self.qubits}, size={self.size})"


def _interleave(n: int) -> list[int]:
    """Axis order (i_1, j_1, ..., i_n, j_n) of a matrix reshaped to (i_1..i_n, j_1..j_n)."""
    return [axis for q in range(n) for axis in (q, q + n)]


def build_pauli_basis(n_qubits: int) -> PauliBasisSet:
    """Tensor products of the single-qubit Pauli matrices, identity excluded."""
    return PauliBasisSet(qubits=n_qubits)


def bloch_coefficients(rho, basis: PauliBasisSet) -> np.ndarray:
    """The Bloch vector s_j = Tr[rho gamma_j] of rho, as reals; |s_j| <= 1 for states."""
    mat = as_matrix(rho)
    if mat.shape[0] != basis.dim:
        raise ValueError("state dimension does not match the basis")
    return basis.coefficients(mat)


def _checked_bloch(s, basis: PauliBasisSet) -> np.ndarray:
    """``s`` as a float array, which must hold one coefficient per operator of ``basis``."""
    s = np.asarray(s, dtype=float)
    if len(s) != basis.size:
        raise ValueError(f"expected {basis.size} coefficients, got {len(s)}")
    return s


def reconstruct(s: np.ndarray, basis: PauliBasisSet) -> np.ndarray:
    """(1/d)(I + sum_j s_j gamma_j): Hermitian, unit trace, not necessarily PSD."""
    return hermitian_part(_reconstruct_rows(_checked_bloch(s, basis), basis))


def _reconstruct_rows(s: np.ndarray, basis: PauliBasisSet) -> np.ndarray:
    """(1/d)(I + sum_j s_j gamma_j) for each row of s (..., d^2 - 1).

    With real s the combination is Hermitian bit for bit, so no check or
    symmetrization is needed (a test pins this at 1 to 6 qubits).
    """
    return basis.combine(s, identity=1.0) / basis.dim


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, path); the splittable-RNG contract.  ``seed`` must be a non-negative int."""
    return np.random.default_rng(np.random.SeedSequence(entropy=_seed(seed), spawn_key=tuple(path)))


def sample_counts(rho, basis: PauliBasisSet, n: int, trials: range, seed: int,
                  *path: int) -> np.ndarray:
    """Plus counts of the records of ``trials``, shape (len(trials), d^2 - 1).

    Each record holds n measurement shots per Pauli operator on independent
    copies: counts[., j] ~ Binomial(n, (1 + s_j)/2), independent across j.
    With B = SEED_BLOCK_ENTRIES / d^2, block b holds trials b * B to
    (b + 1) * B - 1.  Its rows are drawn by one ``binomial`` call on
    ``substream(seed, *path, b)``, which fills them row by row in operator
    order, so a block cut short after the last trial needed gives the same
    rows as the whole block.  ``trials`` is an ascending range.  ``rho`` may
    be given by its Bloch vector (1-D, from ``bloch_coefficients``) instead
    of its matrix (2-D), so that a caller that draws many stacks of one state
    transforms it once.
    """
    if n < 1:
        raise ValueError("need at least one shot per operator")
    s = _checked_bloch(rho, basis) if np.ndim(rho) == 1 else bloch_coefficients(rho, basis)
    p_plus = np.clip((1.0 + s) / 2.0, 0.0, 1.0)
    if not trials:
        return np.empty((0, basis.size), dtype=np.int64)
    block = SEED_BLOCK_ENTRIES // basis.dim**2
    start = trials.start - trials.start % block
    stop = trials[-1] + 1
    blocks = [substream(seed, *path, b // block).binomial(n, p_plus, size=(min(block, stop - b), basis.size))
              for b in range(start, stop, block)]
    return np.concatenate(blocks)[trials.start - start::trials.step]


@contextmanager
def _worker(values: Iterator[object]) -> Iterator[Callable[[], object]]:
    """Advance the iterator ``values`` on one thread; the ``with`` target reads what it yields.

    Each call of the target returns the next value, in order, or re-raises,
    as the same object, what ``next`` raised (``StopIteration`` past the
    end); the thread stops after that.  The thread runs in a copy of the
    caller's context (context variables; ``np.errstate`` in numpy 2) and
    advances ``values`` only while it holds fewer than ``_WORKER_AHEAD``
    values the caller has not read.  It waits for its first slot until
    ``Thread.start`` has returned, so the caller is not held up while the
    new thread holds the interpreter lock.  However the ``with`` block is
    left, the thread stops after the value it is making and is joined.
    """
    slots, done, stop = threading.Semaphore(0), queue.SimpleQueue(), threading.Event()

    def work():
        try:
            while True:
                slots.acquire()
                if stop.is_set():
                    return
                done.put((next(values), None))
        except BaseException as exc:  # raised where the caller reads the next value
            done.put((None, exc))

    def take():
        value, exc = done.get()
        if exc is not None:
            raise exc
        slots.release()
        return value

    thread = threading.Thread(target=contextvars.copy_context().run, args=(work,), name="qdivstat-worker")
    thread.start()
    slots.release(_WORKER_AHEAD)
    try:
        yield take
    finally:
        stop.set()
        slots.release()
        thread.join()


def _bloch_rows(counts: np.ndarray, n: int) -> np.ndarray:
    """s_hat = (#plus - #minus)/n for each row of plus counts (..., d^2 - 1)."""
    return (2.0 * counts - n) / n


def _integer(name: str, value) -> int:
    """``value`` as an int, if it is an integer (numpy's included) other than a bool; else a ValueError naming it."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _seed(value) -> int:
    """``value`` as a seed: a non-negative int, else a ValueError naming the seed."""
    seed = _integer("seed", value)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def trial_chunks(trials: int, dim: int) -> Iterator[range]:
    """Consecutive ranges of trial indices, each with at most STACK_ENTRIES d x d entries."""
    step = max(1, STACK_ENTRIES // dim**2)
    return (range(start, min(start + step, trials)) for start in range(0, trials, step))


def estimate_stack(counts: np.ndarray, n: int, basis: PauliBasisSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-argument tomographic estimates of a stack of records with n shots each.

    Row t of ``counts`` holds the plus counts of record t.  Returns the
    (T, d, d) estimate matrices, their (T, d) ascending eigenvalues and the
    (T,) projection flags.  The eigenvalues come from one stacked
    ``eigvals_hermitian``: a row that is a state keeps its raw reconstruction, and
    only the rows that left the state space are eigendecomposed, to
    reassemble their projection onto the simplex with the same eigenvectors.
    """
    raw = _reconstruct_rows(_bloch_rows(np.asarray(counts), n), basis)
    lam, projected = density_spectrum(eigvals_hermitian(raw, checked=True), _PSD_ATOL)
    check_density_spectrum(lam)
    if projected.any():
        raw[projected] = eig_hermitian(raw[projected], checked=True).reassemble(lam[projected])
    return raw, lam, projected


def estimate_sigma_stack(counts: np.ndarray, n: int, basis: PauliBasisSet) -> tuple[SpectralDecomposition, np.ndarray]:
    """Second-argument estimates of a stack of records, as spectra, and the projection flags.

    Each estimate is the first-argument estimate mixed with I/(nd), so that
    it is strictly positive and has a log.  It shares the eigenvectors of
    the raw reconstruction, from one stacked eigensolve: the projection and
    the floor map ascending eigenvalues to ascending eigenvalues.
    """
    raw = _reconstruct_rows(_bloch_rows(np.asarray(counts), n), basis)
    S = eig_hermitian(raw, checked=True)
    lam, projected = density_spectrum(S.eigenvalues, _PSD_ATOL)
    lam = 1.0 / (n * S.dim) + (1.0 - 1.0 / n) * lam
    check_density_spectrum(lam)
    return S.with_eigenvalues(lam), projected


def bernoulli_weights(rho, basis: PauliBasisSet) -> np.ndarray:
    """4 s_j^+ s_j^- / d^2: the per-operator CLT variances of s_hat_j scaled by 1/d^2."""
    s = bloch_coefficients(rho, basis)
    sp = (1.0 + s) / 2.0
    sm = (1.0 - s) / 2.0
    return 4.0 * sp * sm / basis.dim**2


def linear_law_variance(basis: PauliBasisSet, *terms) -> float:
    """Variance v of the Gaussian law N(0, v) of sum_i Tr[L_i G_i], for pairs ``terms`` (rho_i, G_i).

    The L_i are independent limits sum_j gamma_j sqrt(w_j) Z_j of the scaled
    tomography errors of rho_i, w = ``bernoulli_weights(rho_i)``, so
    v = sum_i w . coefficients(G_i)^2: one Pauli transform per gradient.
    """
    return float(sum(bernoulli_weights(rho, basis) @ basis.coefficients(g) ** 2 for rho, g in terms))


def _umegaki_gradient(rho, sigma) -> tuple[np.ndarray, np.ndarray]:
    """The relative-entropy gradient (log rho - log sigma, -Dlog_sigma(rho)) of two positive definite states."""
    for name, state in (("rho", rho), ("sigma", sigma)):
        _require_positive(name, eigvals_hermitian(state))
    return qre_alt_gradient(rho, sigma)


def variance_v1(rho, sigma, basis: PauliBasisSet) -> float:
    """One-sample asymptotic variance of the scaled relative-entropy estimation error.

    The relative-entropy case of ``linear_law_variance``: w_rho . coefficients(log rho - log sigma)^2.
    """
    g_rho, _ = _umegaki_gradient(rho, sigma)
    return linear_law_variance(basis, (rho, g_rho))


def variance_v2(rho, sigma, basis: PauliBasisSet) -> float:
    """Two-sample asymptotic variance: v1 plus the sigma-estimation contribution.

    The contribution is w_sigma . coefficients(Dlog_sigma(rho))^2, the
    sigma half of the same gradient.
    """
    g_rho, g_sigma = _umegaki_gradient(rho, sigma)
    return linear_law_variance(basis, (rho, g_rho), (sigma, g_sigma))
