import numpy as np
import pytest

import qdivstat.operator_core as operator_core
from qdivstat.divergences import (
    Povm,
    fidelity,
    max_divergence,
    sandwiched_renyi,
    umegaki_spectral,
)
from qdivstat.experiments import ExperimentConfig, run_convergence_experiment
from qdivstat.hypothesis_testing import min_eigenvalue_bound
from qdivstat.operator_core import (
    _fix_phases,
    EigensolverError,
    check_density_spectrum,
    eig_hermitian,
    eigvals_hermitian,
    hermitian_part,
    project_to_density,
    project_to_simplex,
    schatten_norm,
    spectral_map,
    support_leak,
    support_mask,
)

from qdivstat.random_ops import haar_unitary, random_density, random_density_spectrum

from qdivstat.pauli_tomography import build_pauli_basis, estimate_sigma_stack, estimate_stack, sample_counts

from conftest import rand_herm, rand_state
from frechet_oracles import frechet1_log_quadrature, sandwiched_dual_optimizer
from oracles import loewner_leq, moore_penrose_inverse, support_projector


class TestConstruction:
    def test_symmetrizes_tiny_asymmetry(self):
        A = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]], dtype=complex)
        op = hermitian_part(A)
        assert np.allclose(op, op.conj().T)
        assert np.array_equal(hermitian_part(op), op)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_part(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_part(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="NaN or inf"):
            hermitian_part(np.array([[bad, 0], [0, 1]]))

    def test_density_invariants(self):
        with pytest.raises(ValueError, match="^matrix has trace off 1"):
            check_density_spectrum(eigvals_hermitian(np.diag([0.6, 0.6])))
        with pytest.raises(ValueError, match="^matrix has negative eigenvalue"):
            check_density_spectrum(eigvals_hermitian(np.diag([1.5, -0.5])))
        check_density_spectrum(eigvals_hermitian(np.diag([0.5, 0.5])))


class TestEig:
    def test_diagonal(self):
        S = eig_hermitian(np.diag([2.0, 1.0]))
        assert np.allclose(S.eigenvalues, [1.0, 2.0])
        assert np.allclose(np.abs(S.eigenvectors), [[0, 1], [1, 0]])

    def test_identity(self):
        S = eig_hermitian(np.eye(3))
        assert np.allclose(S.eigenvalues, 1.0)
        assert np.allclose(S.eigenvectors, np.eye(3))

    def test_pauli_x(self):
        # closed-form 2x2 eigensolve: eigenvectors (1, -1)/sqrt2 and (1, 1)/sqrt2
        S = eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(S.eigenvalues, [-1.0, 1.0])
        r = 1 / np.sqrt(2)
        assert np.allclose(S.eigenvectors[:, 0], [r, -r])
        assert np.allclose(S.eigenvectors[:, 1], [r, r])

    def test_reconstruction_and_unitarity(self, rng):
        A = rand_herm(rng, 6)
        S = eig_hermitian(A)
        U = S.eigenvectors
        assert np.max(np.abs(U @ U.conj().T - np.eye(6))) < 1e-10
        assert np.max(np.abs(S.reassemble() - A)) < 1e-10 * max(1, np.max(np.abs(A)))

    def test_phase_convention_and_determinism(self, rng):
        A = rand_herm(rng, 5)
        S1, S2 = eig_hermitian(A), eig_hermitian(A)
        assert np.array_equal(S1.eigenvectors, S2.eigenvectors)
        for k in range(5):
            col = S1.eigenvectors[:, k]
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert lead.real > 0 and abs(lead.imag) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32, 64])
    def test_phase_fix_matches_column_loop(self, rng, d):
        def loop(U):
            U = U.copy()
            for k in range(U.shape[1]):
                col = U[:, k]
                idx = np.flatnonzero(np.abs(col) > 1e-12)
                z = col[idx[0] if len(idx) else 0]
                if z != 0:
                    U[:, k] = col * (z.conjugate() / abs(z))
            return U

        for t in range(20):
            A = rand_herm(rng, d).copy()
            if t % 2:
                # a decoupled first basis vector puts exact zeros at the top of
                # every other column
                A[0, 1:] = A[1:, 0] = 0
            U = np.linalg.eigh(A)[1]
            assert np.array_equal(_fix_phases(U), loop(U))

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_stack_matches_single(self, rng, d):
        stack = np.stack([rand_herm(rng, d) for _ in range(9)])
        S = eig_hermitian(stack)
        assert S.dim == d
        for A, lam, U, M in zip(stack, S.eigenvalues, S.eigenvectors, S.reassemble()):
            single = eig_hermitian(A)
            assert np.array_equal(lam, single.eigenvalues)
            assert np.array_equal(U, single.eigenvectors)
            assert np.array_equal(M, single.reassemble())

    def test_stack_rejects_bad_member(self, rng):
        stack = np.stack([rand_herm(rng, 3) for _ in range(4)])
        stack[2, 0, 1] += 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            eig_hermitian(stack)
        stack[2, 0, 1] = np.nan
        with pytest.raises(ValueError, match="NaN or inf"):
            eig_hermitian(stack)


class TestScalarFunctions:
    def test_exp_of_zero(self):
        S = eig_hermitian(np.zeros((1, 1)))
        assert np.allclose(spectral_map(S, np.exp), [[1.0]])

    def test_log_commuting(self):
        S = eig_hermitian(np.diag([np.e, np.e**2]))
        assert np.allclose(spectral_map(S, np.log), np.diag([1.0, 2.0]))

    def test_sqrt_noncommuting(self):
        # eigenvalues 1/2 and 2, eigenvectors (1, -+1)/sqrt2: closed-form root
        A = np.array([[5.0, 3.0], [3.0, 5.0]]) / 4
        S = eig_hermitian(A)
        got = spectral_map(S, np.sqrt)
        want = np.array([[3.0, 1.0], [1.0, 3.0]]) / (2 * np.sqrt(2))
        assert np.max(np.abs(got @ got - A)) < 1e-12
        assert np.max(np.abs(got - want)) < 1e-12

    def test_identity_map_reproduces(self, rng):
        for _ in range(10):
            A = rand_herm(rng, 4)
            S = eig_hermitian(A)
            got = spectral_map(S, lambda x: x)
            assert np.max(np.abs(got - A)) <= 1e-10 * max(1.0, np.max(np.abs(A)))

    def test_domain_error_names_eigenvalue(self):
        S = eig_hermitian(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="0.0"):
            spectral_map(S, np.log)
        with pytest.raises(ValueError, match="at eigenvalue 0.0$"):
            spectral_map(np.stack([np.eye(2), np.diag([1.0, 0.0])]), np.log)
        # a mask on |lambda| keeps -0.25, where sqrt is not finite
        with pytest.raises(ValueError, match="at eigenvalue -0.25$"):
            spectral_map(np.diag([0.75, -0.25]), np.sqrt, lambda lam: support_mask(np.abs(lam)))

    @pytest.mark.parametrize("f,keep", [
        (np.log, support_mask),
        (lambda lam: lam**-0.5, support_mask),
        (np.exp, None),
    ])
    def test_stack_matches_loop(self, rng, f, keep):
        stack = np.stack([rand_state(rng, 3, min_eig=0.0) for _ in range(6)])
        stack[2] = np.diag([0.5, 0.5, 0.0])
        got = spectral_map(stack, f, keep)
        for A, M in zip(stack, got):
            assert np.array_equal(M, spectral_map(A, f, keep))
        assert np.array_equal(got, spectral_map(eig_hermitian(stack), f, keep))


class TestSchatten:
    @pytest.mark.parametrize("A,p,want", [
        (np.eye(2), 1, 2.0),
        (np.diag([3.0, -4.0]), 2, 5.0),
        (np.diag([3.0, -4.0]), np.inf, 4.0),
    ])
    def test_examples(self, A, p, want):
        assert schatten_norm(A, p) == pytest.approx(want)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 0.5)

    def test_monotone_in_inverse_p(self, rng):
        A = rand_herm(rng, 5)
        ps = [1, 1.5, 2, 3, 7, np.inf]
        norms = [schatten_norm(A, p) for p in ps]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


class TestSupport:
    def test_projector_examples(self):
        assert np.allclose(support_projector(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]))
        assert np.allclose(support_projector(np.eye(3)), np.eye(3))
        got = support_projector(np.diag([1.0, 1e-15]))
        assert np.allclose(got, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("f,kernel_free", [
        (np.log, np.log(4.0)),
        (lambda lam: lam**-0.5, 0.5),
        (np.ones_like, 1.0),
    ])
    def test_kernel_maps_to_zero(self, f, kernel_free):
        for lam in ([4.0, 0.0, 0.0], [4.0, 1e-12, -1e-13]):
            got = spectral_map(np.diag(lam), f, support_mask)
            assert np.allclose(got, np.diag([kernel_free, 0.0, 0.0]))

    def test_projector_idempotent(self, rng):
        P = support_projector(rand_state(rng, 4, min_eig=0.0))
        assert np.max(np.abs(P @ P - P)) < 1e-10

    def test_containment(self):
        assert support_leak(np.diag([1.0, 0.0]), np.diag([0.5, 0.5])) <= 1e-9
        assert support_leak(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])) == pytest.approx(0.5)
        assert support_leak(np.diag([0.0, 1.0]), np.diag([0.0, 1.0])) <= 1e-9
        assert support_leak(np.diag([0.3, 0.7]), np.diag([1.0, 0.0])) == pytest.approx(0.7)


class TestPseudoInverse:
    def test_examples(self):
        assert np.allclose(moore_penrose_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
        assert np.allclose(moore_penrose_inverse(np.eye(2)), np.eye(2))
        assert np.allclose(moore_penrose_inverse(np.diag([4.0, 1e-16])), np.diag([0.25, 0.0]))
        # indefinite: the mask is taken on |lambda|, so -4 is kept and 1e-12 < 1e-10 * 1e3 is not
        assert np.allclose(moore_penrose_inverse(np.diag([2.0, -4.0, 1e-16])), np.diag([0.5, -0.25, 0.0]))
        assert np.allclose(moore_penrose_inverse(np.diag([1e-12, -1e3])), np.diag([0.0, -1e-3]))

    def test_penrose_identity(self, rng):
        U = eig_hermitian(rand_herm(rng, 4)).eigenvectors
        A = (U * np.array([2.0, -1.0, 1e-14, 0.5])) @ U.conj().T
        A = hermitian_part(A)
        pinv = moore_penrose_inverse(A)
        assert np.max(np.abs(A @ pinv @ A - A)) < 1e-8


class TestLoewner:
    def test_examples(self):
        assert loewner_leq(np.zeros((2, 2)), np.eye(2))
        assert not loewner_leq(np.eye(2), np.zeros((2, 2)))
        assert not loewner_leq(np.diag([0.3, 0.7]), np.diag([0.5, 0.5]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            loewner_leq(np.eye(2), np.eye(3))


class TestDensityProjection:
    def test_fixed_point(self):
        rho = np.diag([0.5, 0.5])
        assert np.allclose(project_to_density(rho), rho)

    def test_negative_eigenvalue(self):
        got = project_to_density(np.diag([1.2, -0.2]))
        assert np.allclose(got, np.diag([1.0, 0.0]))

    def test_excess_trace(self):
        got = project_to_density(np.diag([0.8, 0.8]))
        assert np.allclose(got, np.diag([0.5, 0.5]))

    def test_rejects_a_stack(self):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(3, 2, 2\)$"):
            project_to_density(np.stack([np.eye(2) / 2] * 3))

    def test_idempotent(self, rng):
        for _ in range(10):
            A = rand_herm(rng, 4)
            once = project_to_density(A)
            twice = project_to_density(once)
            assert np.max(np.abs(once - twice)) < 1e-12

    def test_nonexpansive(self, rng):
        # projecting cannot move the point further from any density operator
        for _ in range(20):
            A = rand_herm(rng, 3)
            target = rand_state(rng, 3, min_eig=0.0)
            before = np.linalg.norm(A - target)
            after = np.linalg.norm(project_to_density(A) - target)
            assert after <= before + 1e-10

    def test_simplex_projection_row_wise(self, rng):
        def one_row(v):
            # sort-and-shift on a single vector
            u = np.sort(v)[::-1]
            css = np.cumsum(u)
            ks = np.arange(1, len(v) + 1)
            k = int(ks[u + (1.0 - css) / ks > 0][-1])
            return np.maximum(v - (css[k - 1] - 1.0) / k, 0.0)

        for d in (2, 3, 4, 8, 64):
            V = np.concatenate([rng.normal(size=(50, d)), rng.dirichlet(np.ones(d), size=5),
                                np.full((1, d), 1.0 / d), rng.normal(size=(5, d)).round(1)])
            got = project_to_simplex(V)
            assert np.array_equal(got, np.stack([one_row(v) for v in V]))
            assert np.array_equal(project_to_simplex(V[3]), got[3])

    def test_simplex_projection_known_values(self):
        assert np.allclose(project_to_simplex([1.2, -0.2]), [1.0, 0.0])
        assert np.allclose(project_to_simplex([0.8, 0.8]), [0.5, 0.5])
        v = project_to_simplex([0.3, 0.2, 0.1])
        assert v.sum() == pytest.approx(1.0) and np.all(v >= 0)



class TestRandomDensitySpectrum:
    @pytest.mark.parametrize("spectrum", [[0.5, 0.5], [0.7, 0.2, 0.1, 0.0], [1.0, 0.0, 0.0], [1e-9, 0.25, 0.75 - 1e-9]])
    def test_prescribed_spectrum_comes_back(self, rng, spectrum):
        rho = random_density_spectrum(spectrum, rng)
        assert np.allclose(eigvals_hermitian(rho), np.sort(spectrum), atol=1e-12)

    @pytest.mark.parametrize("spectrum", [[0.5, 0.6], [1.2, -0.2], [0.5, 0.5 - 1e-9]])
    def test_non_probability_vector_is_rejected(self, rng, spectrum):
        with pytest.raises(ValueError, match="probability vector"):
            random_density_spectrum(spectrum, rng)


class TestTraceClassLemmas:
    def test_projected_trace_identity(self, rng):
        # A supported inside a projector P: Tr[AB] = Tr[PAPBP]
        for _ in range(10):
            P = np.diag([1.0, 1.0, 0.0, 0.0])
            block = rand_herm(rng, 2)
            A = np.zeros((4, 4), dtype=complex)
            A[:2, :2] = block
            B = rand_herm(rng, 4)
            lhs = np.trace(A @ B)
            rhs = np.trace(P @ A @ P @ B @ P)
            assert abs(lhs - rhs) < 1e-10

    def test_trace_norm_sandwich(self, rng):
        # B <= A <= C built by construction gives ||A||_1 <= ||B||_1 + ||C||_1
        for _ in range(10):
            A = rand_herm(rng, 4)
            D1 = rand_state(rng, 4, min_eig=0.0)
            D2 = rand_state(rng, 4, min_eig=0.0)
            B = A - 3 * D1
            C = A + 3 * D2
            assert schatten_norm(A, 1) <= schatten_norm(B, 1) + schatten_norm(C, 1) + 1e-10


def _hard_2x2(rng) -> np.ndarray:
    """A stack of exactly Hermitian 2x2 matrices with hard spectra, each kind mixed in."""
    def rotated(lam):
        U = haar_unitary(2, rng)
        return (U * lam) @ U.conj().T

    mats = [rand_herm(rng, 2) for _ in range(60)]
    mats += [rotated([x, x + gap]) for x in (1.0, 0.3, -0.7)
             for gap in (1e-16, 1e-15, 1e-14, 1e-12, 1e-9, 1e-6)]
    mats += [rotated(lam) for lam in ([1e-10, 1.0], [1.0, 1e-10], [-1e-10, 1.0], [1e-10, -1.0])]
    mats += [rotated(lam) for lam in ([0.0, 1.0], [0.0, 0.25], [-2.0, 0.0]) for _ in range(4)]
    mats += [np.diag(lam).astype(complex) for lam in ([2.0, 1.0], [1.0, 2.0], [0.0, 1.0], [1.0, 0.0],
                                                      [-3.0, 1e-300], [0.5, 0.5])]
    mats += [np.zeros((2, 2), complex), 3.7 * np.eye(2, dtype=complex), -1e-5 * np.eye(2, dtype=complex)]
    mats += [np.array([[a, np.conj(b)], [b, c]], dtype=complex)
             for a, c in ((0.5, 0.5), (0.3, 0.7), (0.7, 0.3), (1.0, 1.0 + 2e-16))
             for b in (1e-18, 1e-18j, 1e-18 * np.exp(0.3j), 1e-310, 3e-310 * np.exp(2j))]
    A = np.stack(mats)
    return (A + A.conj().swapaxes(-1, -2)) / 2


class TestClosedForm2x2:
    """The closed-form 2x2 eigensolver against 50-digit mpmath and LAPACK, in units of eps * max|A|."""

    EPS = np.finfo(float).eps

    def _errors(self, A, lam, U):
        """Eigenvalue error against mpmath.eighe, and the residual and orthonormality defect in the 1-norm (as
        LAPACK's own eigensolver tests measure them), each evaluated exactly in mpmath."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            M = mpmath.matrix([[mpmath.mpc(z) for z in row] for row in A])
            want = sorted(mpmath.eighe(M, eigvals_only=True))
            V = mpmath.matrix([[mpmath.mpc(z) for z in row] for row in U])
            L = mpmath.diag([mpmath.mpf(x) for x in lam])
            lam_err = max(abs(mpmath.mpf(x) - w) for x, w in zip(lam, want))
            residual = mpmath.mnorm(M * V - V * L, 1)
            orth = mpmath.mnorm(V.H * V - mpmath.eye(2), 1)
        return float(lam_err), float(residual), float(orth)

    def test_oracle_sweep(self, rng):
        A = _hard_2x2(rng)
        S = eig_hermitian(A)
        for k, M in enumerate(A):
            single = eig_hermitian(M)
            assert np.array_equal(single.eigenvalues, S.eigenvalues[k])
            assert np.array_equal(single.eigenvectors, S.eigenvectors[k])
            unit = self.EPS * np.abs(M).max()
            lam_err, residual, orth = self._errors(M, S.eigenvalues[k], S.eigenvectors[k])
            assert lam_err <= 4 * unit, k
            assert residual <= 4 * unit, k
            assert orth <= 4 * self.EPS, k
            assert np.abs(S.eigenvalues[k] - np.linalg.eigvalsh(M)).max() <= 8 * unit, k

    def test_structure(self, rng):
        A = _hard_2x2(rng)[:96].reshape(4, 3, 8, 2, 2)
        S = eig_hermitian(A)
        lam = eigvals_hermitian(A)
        assert lam.shape == (4, 3, 8, 2) and S.eigenvectors.shape == A.shape
        assert np.array_equal(lam, S.eigenvalues)
        assert (np.diff(lam, axis=-1) >= 0).all()
        cols = S.eigenvectors.reshape(-1, 2, 2).swapaxes(-1, -2).reshape(-1, 2)
        for col in cols:
            lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert lead.real > 0 and abs(lead.imag) < 1e-12

    def test_reads_the_lower_triangle(self):
        A = np.array([[1.0 + 5j, 99.0], [0.5 - 0.5j, -2.0 - 3j]])
        H = np.array([[1.0, 0.5 + 0.5j], [0.5 - 0.5j, -2.0]])
        S = eig_hermitian(A, checked=True)
        assert np.allclose(S.eigenvalues, np.linalg.eigvalsh(H), rtol=0, atol=1e-15)
        assert np.allclose(S.reassemble(), H, rtol=0, atol=1e-15)
        lam, U = np.linalg.eigh(H)
        values = np.array([0.3 - 0.4j, -1.2 + 0.5j])
        assert np.allclose(S.reassemble(values), (U * values) @ U.conj().T, rtol=0, atol=1e-15)

    def test_never_calls_lapack(self, rng, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        A = _hard_2x2(rng)
        eig_hermitian(A)
        eigvals_hermitian(A)
        with pytest.raises(EigensolverError):
            eig_hermitian(rand_herm(rng, 4))


def _fail_lapack(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)


# Every function that once called np.linalg.eigvalsh directly, on a state pair
# (rho, sigma) of dimension d.
ROUTED = {
    "random_density": lambda rho, sigma: random_density(len(rho), np.random.default_rng(0)),
    "schatten_norm": lambda rho, sigma: schatten_norm(rho - sigma, 1),
    "loewner_leq": lambda rho, sigma: loewner_leq(rho, sigma),
    "Povm": lambda rho, sigma: Povm([rho, np.eye(len(rho)) - rho]),
    "sandwiched_renyi": lambda rho, sigma: sandwiched_renyi(rho, sigma, 1.5),
    "sandwiched_dual_optimizer": lambda rho, sigma: sandwiched_dual_optimizer(rho, sigma, 1.5),
    "fidelity": fidelity,
    "max_divergence": max_divergence,
    "run_convergence_experiment": lambda rho, sigma: run_convergence_experiment(ExperimentConfig(
        kind="two_sample_alt", rho=rho, sigma=sigma, n_grid=(100,), trials=100, seed=1)),
    "min_eigenvalue_bound": lambda rho, sigma: min_eigenvalue_bound([rho, sigma]),
    "frechet_spectrum_bounds": lambda rho, sigma: frechet1_log_quadrature(rho, sigma - rho),
}


@pytest.mark.parametrize("name", sorted(ROUTED))
def test_eigenvalue_sites_go_through_eigvals_hermitian(rng, monkeypatch, name):
    """At d = 2 no routed site reaches LAPACK; at d = 4 its failure is an EigensolverError."""
    pairs = {d: (rand_state(rng, d, 0.1), rand_state(rng, d, 0.1)) for d in (2, 4)}
    _fail_lapack(monkeypatch)
    ROUTED[name](*pairs[2])
    with pytest.raises(EigensolverError):
        ROUTED[name](*pairs[4])


class TestTwoPoint2x2:
    """2x2 reassembly by the two-point formula, in units of eps * max|v|."""

    EPS = np.finfo(float).eps

    @staticmethod
    def _values(rng, lam):
        """The value arrays the library reassembles, and random complex ones."""
        keep = support_mask(lam)
        with np.errstate(all="ignore"):
            return {"lam": lam,
                    "log with kernel": np.where(keep, np.log(lam), 1j),
                    "masked sqrt": np.where(keep, np.sqrt(np.abs(lam)), 0.0),
                    "support": keep.astype(float),
                    "random": rng.standard_normal(lam.shape) + 1j * rng.standard_normal(lam.shape)}

    @staticmethod
    def _oracle(M, v):
        """U diag(v) U^dagger in 50 digits, with U from mpmath.eighe of the traceless part of M, whose
        entries are of the order of the eigenvalue gap, so that the digits resolve every eigenbasis."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            h = (mpmath.mpf(M[0, 0].real) - mpmath.mpf(M[1, 1].real)) / 2
            b = mpmath.mpc(M[1, 0])
            E, Q = mpmath.eighe(mpmath.matrix([[h, mpmath.conj(b)], [b, -h]]))
            order = sorted(range(2), key=lambda k: E[k])
            return np.array([[complex(sum(Q[i, k] * mpmath.mpc(x) * mpmath.conj(Q[j, k])
                                          for k, x in zip(order, v)))
                              for j in range(2)] for i in range(2)])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_oracle_sweep(self, seed):
        rng = np.random.default_rng(seed)
        A = _hard_2x2(rng)
        S = eig_hermitian(A)
        scalar = (A[:, 1, 0] == 0) & (A[:, 0, 0] == A[:, 1, 1])
        for name, v in self._values(rng, S.eigenvalues).items():
            F = S.reassemble(v)
            for k, M in enumerate(A):
                if name == "random" and scalar[k]:
                    continue  # every basis is an eigenbasis; see test_multiple_of_identity
                err = np.abs(F[k] - self._oracle(M, v[k])).max()
                assert err <= 2 * self.EPS * np.abs(v[k]).max(), (name, k)

    def test_multiple_of_identity(self, rng):
        A = np.stack([np.zeros((2, 2)), 3.7 * np.eye(2), -1e-5 * np.eye(2)]).astype(complex)
        v = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        F = eig_hermitian(A).reassemble(v)
        for Fk, vk in zip(F, v):
            assert np.array_equal(Fk, np.diag(vk))

    def test_stack_matches_single(self, rng):
        A = _hard_2x2(rng)
        S = eig_hermitian(A)
        v = rng.standard_normal((len(A), 2)) + 1j * rng.standard_normal((len(A), 2))
        F = S.reassemble(v)
        for k, M in enumerate(A):
            assert np.array_equal(F[k], eig_hermitian(M).reassemble(v[k]))

    def test_eigenvectors_are_formed_once_on_read(self, rng, monkeypatch):
        A = _hard_2x2(rng)
        calls = []
        fix = operator_core._fix_phases
        monkeypatch.setattr(operator_core, "_fix_phases", lambda U: calls.append(U.shape) or fix(U))
        S = eig_hermitian(A)
        before = S.reassemble()
        assert calls == []
        U = S.eigenvectors
        assert calls == [A.shape] and S.eigenvectors is U and not U.flags.writeable
        assert np.array_equal(S.reassemble(), before)

    @pytest.mark.parametrize("d", [2, 4])
    def test_with_eigenvalues_keeps_the_basis(self, rng, d):
        S = eig_hermitian(np.stack([rand_herm(rng, d) for _ in range(5)]))
        lam = rng.standard_normal((5, d))
        T = S.with_eigenvalues(lam)
        assert T.eigenvalues is lam and np.array_equal(T.eigenvectors, S.eigenvectors)
        assert np.array_equal(T.reassemble(), S.reassemble(lam))

    def test_qubit_trial_stack_forms_no_eigenvectors(self, monkeypatch):
        rng = np.random.default_rng(5)
        U = haar_unitary(2, rng)
        # a nearly pure rho, so that at n = 20 some estimates take the projection branch
        rho, sigma = (U * [0.01, 0.99]) @ U.conj().T, rand_state(rng, 2, 0.1)
        basis, n, chunk = build_pauli_basis(1), 20, range(500)
        calls = []
        monkeypatch.setattr(operator_core, "_fix_phases", lambda U: calls.append(U.shape))
        rho_hat, lam, projected = estimate_stack(sample_counts(rho, basis, n, chunk, 9, n, 0), n, basis)
        sigma_hat, _ = estimate_sigma_stack(sample_counts(sigma, basis, n, chunk, 9, n, 1), n, basis)
        values = umegaki_spectral(rho_hat, lam, sigma_hat)
        assert projected.any() and np.isfinite(values).all()
        assert calls == []
