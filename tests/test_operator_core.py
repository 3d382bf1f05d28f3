import numpy as np
import pytest

from qdivstat.operator_core import (
    _fix_phases,
    DensityOperator,
    HermitianOperator,
    apply_scalar_function,
    eig_hermitian,
    loewner_leq,
    moore_penrose_inverse,
    project_to_density,
    project_to_simplex,
    schatten_norm,
    support_contained,
    support_projector,
)

from conftest import rand_herm, rand_state


class TestConstruction:
    def test_symmetrizes_tiny_asymmetry(self):
        A = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]], dtype=complex)
        op = HermitianOperator(A)
        assert np.allclose(op.mat, op.mat.conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="NaN or inf"):
            HermitianOperator(np.array([[bad, 0], [0, 1]]))

    def test_density_invariants(self):
        with pytest.raises(ValueError):
            DensityOperator(np.diag([0.6, 0.6]))
        with pytest.raises(ValueError):
            DensityOperator(np.diag([1.5, -0.5]))
        DensityOperator(np.diag([0.5, 0.5]))


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


class TestScalarFunctions:
    def test_exp_of_zero(self):
        S = eig_hermitian(np.zeros((1, 1)))
        assert np.allclose(apply_scalar_function(S, np.exp).mat, [[1.0]])

    def test_log_commuting(self):
        S = eig_hermitian(np.diag([np.e, np.e**2]))
        assert np.allclose(apply_scalar_function(S, np.log).mat, np.diag([1.0, 2.0]))

    def test_sqrt_noncommuting(self):
        # eigenvalues 1/2 and 2, eigenvectors (1, -+1)/sqrt2: closed-form root
        A = np.array([[5.0, 3.0], [3.0, 5.0]]) / 4
        S = eig_hermitian(A)
        got = apply_scalar_function(S, np.sqrt).mat
        want = np.array([[3.0, 1.0], [1.0, 3.0]]) / (2 * np.sqrt(2))
        assert np.max(np.abs(got @ got - A)) < 1e-12
        assert np.max(np.abs(got - want)) < 1e-12

    def test_identity_map_reproduces(self, rng):
        for _ in range(10):
            A = rand_herm(rng, 4)
            S = eig_hermitian(A)
            got = apply_scalar_function(S, lambda x: x).mat
            assert np.max(np.abs(got - A)) <= 1e-10 * max(1.0, np.max(np.abs(A)))

    def test_domain_error_names_eigenvalue(self):
        S = eig_hermitian(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError, match="0.0"):
            apply_scalar_function(S, np.log)


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
        assert np.allclose(support_projector(np.diag([1.0, 0.0])).mat, np.diag([1.0, 0.0]))
        assert np.allclose(support_projector(np.eye(3)).mat, np.eye(3))
        got = support_projector(np.diag([1.0, 1e-15]), rel_tol=1e-10).mat
        assert np.allclose(got, np.diag([1.0, 0.0]))

    def test_projector_idempotent(self, rng):
        P = support_projector(rand_state(rng, 4, min_eig=0.0)).mat
        assert np.max(np.abs(P @ P - P)) < 1e-10

    def test_containment(self):
        assert support_contained(np.diag([1.0, 0.0]), np.diag([0.5, 0.5]))
        assert not support_contained(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))
        assert support_contained(np.diag([0.0, 1.0]), np.diag([0.0, 1.0]))


class TestPseudoInverse:
    def test_examples(self):
        assert np.allclose(moore_penrose_inverse(np.diag([2.0, 0.0])).mat, np.diag([0.5, 0.0]))
        assert np.allclose(moore_penrose_inverse(np.eye(2)).mat, np.eye(2))
        assert np.allclose(moore_penrose_inverse(np.diag([4.0, 1e-16])).mat, np.diag([0.25, 0.0]))

    def test_penrose_identity(self, rng):
        U = eig_hermitian(rand_herm(rng, 4)).eigenvectors
        A = (U * np.array([2.0, -1.0, 1e-14, 0.5])) @ U.conj().T
        A = HermitianOperator(A)
        pinv = moore_penrose_inverse(A).mat
        assert np.max(np.abs(A.mat @ pinv @ A.mat - A.mat)) < 1e-8


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
        assert np.allclose(project_to_density(rho).mat, rho)

    def test_negative_eigenvalue(self):
        got = project_to_density(np.diag([1.2, -0.2])).mat
        assert np.allclose(got, np.diag([1.0, 0.0]))

    def test_excess_trace(self):
        got = project_to_density(np.diag([0.8, 0.8])).mat
        assert np.allclose(got, np.diag([0.5, 0.5]))

    def test_idempotent(self, rng):
        for _ in range(10):
            A = rand_herm(rng, 4)
            once = project_to_density(A).mat
            twice = project_to_density(once).mat
            assert np.max(np.abs(once - twice)) < 1e-12

    def test_nonexpansive(self, rng):
        # projecting cannot move the point further from any density operator
        for _ in range(20):
            A = rand_herm(rng, 3)
            target = rand_state(rng, 3, min_eig=0.0)
            before = np.linalg.norm(A - target)
            after = np.linalg.norm(project_to_density(A).mat - target)
            assert after <= before + 1e-10

    def test_simplex_projection_known_values(self):
        assert np.allclose(project_to_simplex([1.2, -0.2]), [1.0, 0.0])
        assert np.allclose(project_to_simplex([0.8, 0.8]), [0.5, 0.5])
        v = project_to_simplex([0.3, 0.2, 0.1])
        assert v.sum() == pytest.approx(1.0) and np.all(v >= 0)


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
