"""Quantum divergences, limit distributions of their estimators, and seeded Monte Carlo.

The library computes the standard quantum divergences (relative entropy,
Petz and sandwiched Renyi, fidelity, max-divergence, measured relative
entropy over finite POVM families), the deterministic trace functionals
governing the asymptotic distribution of their plug-in estimators, and a
Pauli-tomography simulator with reproducible hypothesis-testing and
convergence experiments on top.
"""

from .operator_core import (
    SpectralDecomposition,
    eig_hermitian,
    project_to_density,
    project_to_simplex,
    schatten_norm,
)
from .frechet import (
    DividedDifferenceTable,
    ScalarFn,
    build_divided_differences,
    frechet1,
    frechet2,
)
from .divergences import (
    DivergenceValue,
    Povm,
    eigenbasis_povm,
    fidelity,
    max_divergence,
    measured_relative_entropy,
    petz_renyi,
    povm_apply,
    sandwiched_renyi,
    trivial_povm,
    umegaki,
    von_neumann_entropy,
)
from .limit_laws import (
    SupportViolation,
    fidelity_limit,
    maxdiv_limit,
    measured_alt_limit,
    petz_alt_limit,
    petz_null_limit,
    qre_alt_limit,
    qre_null_limit,
    sandwiched_alt_limit,
    vn_entropy_limit,
)
from .pauli_tomography import (
    PauliBasisSet,
    bloch_coefficients,
    build_pauli_basis,
    reconstruct,
    variance_v1,
    variance_v2,
)
from .hypothesis_testing import (
    HypothesisGrid,
    decide,
    inverse_q,
    min_eigenvalue_bound,
    simulate_error_rates,
    threshold_c,
    wilson_interval,
)
from .experiments import (
    ExperimentConfig,
    ks_statistic,
    run_convergence_experiment,
)
from .random_ops import (
    haar_unitary,
    random_density,
    random_density_spectrum,
    random_hermitian,
    random_traceless,
)

__version__ = "0.1.0"
