import math
from collections.abc import Sequence

import numpy as np
import pytest
from scipy.special import ndtr

from qdivstat.divergences import umegaki
from qdivstat.hypothesis_testing import HypothesisGrid
from qdivstat.pauli_tomography import (
    PAULI_MATRICES,
    SEED_BLOCK_ENTRIES,
    PauliBasisSet,
    bloch_coefficients,
    reconstruct,
    substream,
)
from qdivstat.random_ops import random_density, random_hermitian, random_traceless


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def rand_state(rng, dim, min_eig=0.05):
    return random_density(dim, rng, min_eig=min_eig)


def rand_herm(rng, dim, scale=1.0):
    return random_hermitian(dim, rng, scale)


def rand_direction(rng, dim, scale=1.0):
    return random_traceless(dim, rng, scale)


def normal_cdf(var):
    """The CDF of N(0, var), for ``ks_statistic``."""
    return lambda x: ndtr(np.asarray(x) / math.sqrt(var))


def replay_record(rho, basis, n, t, seed, *path):
    """Plus counts of trial t alone, as a one-row stack for ``estimate_stack`` or ``estimate_sigma_stack``.

    The row is the last of rows 0 .. t % B drawn from the substream of block
    t // B, with B = SEED_BLOCK_ENTRIES / d^2.  Drawing only up to row t relies on the
    prefix property pinned by ``test_counts_do_not_depend_on_trial_count``.
    """
    block = SEED_BLOCK_ENTRIES // basis.dim**2
    p_plus = np.clip((1.0 + bloch_coefficients(rho, basis)) / 2.0, 0.0, 1.0)
    rows = substream(seed, *path, t // block).binomial(n, p_plus, size=(t % block + 1, basis.size))
    return rows[-1:]


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


def pauli_operators(basis: PauliBasisSet) -> Sequence[np.ndarray]:
    """The operators of ``basis`` as dense Kronecker products, each built when indexed.

    The reference for the tensorized transform, which never forms them.
    """
    return _KroneckerProducts(basis.labels)


def two_hypotheses():
    """(states, sigma, grid) of a 1-qubit test whose second state often leaves the Bloch ball at n = 20."""
    basis = PauliBasisSet(1)
    sigma = np.eye(2) / 2
    states = [reconstruct(np.array([0.1, 0.0, s3]), basis) for s3 in (0.3, 0.95)]
    divs = [umegaki(r, sigma).value for r in states]
    return states, sigma, HypothesisGrid((0.0, (divs[0] + divs[1]) / 2, divs[1] + 0.2))
