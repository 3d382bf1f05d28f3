import numpy as np
import pytest

from qdivstat.divergences import umegaki
from qdivstat.pauli_tomography import (
    PAULI_MATRICES,
    MeasurementRecord,
    bernoulli_weights,
    bloch_coefficients,
    build_pauli_basis,
    estimate,
    estimate_rho,
    estimate_sigma,
    qubits_for_dim,
    record_bloch_estimate,
    reconstruct,
    sample_gaussian_limit,
    sample_record,
    substream,
    variance_v1,
    variance_v2,
    was_projected,
)
from qdivstat.frechet import build_divided_differences, frechet1
from conftest import rand_herm, rand_state


class TestBasis:
    def test_single_qubit_matrices(self):
        B = build_pauli_basis(1)
        assert B.labels == ("1", "2", "3")
        assert np.allclose(B.operators[0], [[0, 1], [1, 0]])
        assert np.allclose(B.operators[1], [[0, -1j], [1j, 0]])
        assert np.allclose(B.operators[2], [[1, 0], [0, -1]])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orthogonality_exhaustive(self, n):
        B = build_pauli_basis(n)
        d = B.dim
        for j, gj in enumerate(B.operators):
            assert abs(np.trace(gj)) < 1e-12
            for k, gk in enumerate(B.operators):
                want = d if j == k else 0.0
                assert np.trace(gj @ gk).real == pytest.approx(want, abs=1e-12)

    def test_two_qubit_involutions(self):
        B = build_pauli_basis(2)
        assert B.size == 15
        for g in B.operators:
            assert np.allclose(g @ g, np.eye(4))
            lam = np.linalg.eigvalsh(g)
            assert np.allclose(np.sort(np.abs(lam)), 1.0)

    def test_qubit_count_bounds(self):
        with pytest.raises(ValueError):
            build_pauli_basis(0)
        with pytest.raises(ValueError):
            build_pauli_basis(7)

    def test_pauli_matrix_table(self):
        assert np.allclose(PAULI_MATRICES[0], np.eye(2))

    def test_qubits_for_dim(self):
        assert [qubits_for_dim(2**n) for n in range(1, 7)] == [1, 2, 3, 4, 5, 6]
        for d in (0, 1, 3, 6, 12, 128):
            with pytest.raises(ValueError, match=f"dimension {d} "):
                qubits_for_dim(d)


def _loop_coefficients(A, B):
    return np.array([np.trace(A @ g).real for g in B.operators])


def _loop_combination(coeffs, B, identity):
    acc = identity * np.eye(B.dim, dtype=complex)
    for c, g in zip(coeffs, B.operators):
        acc += c * g
    return acc


class TestTransform:
    """The tensorized transform against sums over the explicit operators."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_operator_loop(self, rng, n):
        B = build_pauli_basis(n)
        d = B.dim
        tol = 1e-12 * d
        H = rand_herm(rng, d)
        s = _loop_coefficients(H, B)
        assert np.max(np.abs(bloch_coefficients(H, B).coeffs - s)) < tol
        assert np.max(np.abs(reconstruct(s, B).mat - _loop_combination(s, B, 1.0) / d)) < tol

        rho = rand_state(rng, d, 0.05 / d)
        std = np.sqrt((1 - _loop_coefficients(rho, B) ** 2) / d**2)
        z = np.random.default_rng(n).normal(size=B.size) * std
        got = sample_gaussian_limit(rho, B, np.random.default_rng(n))
        assert np.max(np.abs(got - _loop_combination(z, B, 0.0))) < tol

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_variance_v2_matches_frechet_loop(self, rng, n):
        B = build_pauli_basis(n)
        d = B.dim
        rho, sigma = rand_state(rng, d, 0.05 / d), rand_state(rng, d, 0.05 / d)
        table = build_divided_differences(sigma, "log")
        w = (1 - _loop_coefficients(sigma, B) ** 2) / d**2
        terms = [np.trace(rho @ frechet1(table, g).mat).real ** 2 for g in B.operators]
        want = variance_v1(rho, sigma, B) + float(np.sum(w * terms))
        assert variance_v2(rho, sigma, B) == pytest.approx(want, rel=1e-12 * d)


class TestBloch:
    def test_maximally_mixed_is_zero(self):
        B = build_pauli_basis(2)
        assert np.allclose(bloch_coefficients(np.eye(4) / 4, B).coeffs, 0.0)

    def test_computational_zero_state(self):
        B = build_pauli_basis(1)
        assert np.allclose(bloch_coefficients(np.diag([1.0, 0.0]), B).coeffs, [0, 0, 1])

    def test_plus_state(self):
        B = build_pauli_basis(1)
        plus = np.full((2, 2), 0.5)
        assert np.allclose(bloch_coefficients(plus, B).coeffs, [1, 0, 0])

    def test_round_trip(self, rng):
        B = build_pauli_basis(2)
        rho = rand_state(rng, 4)
        s = bloch_coefficients(rho, B)
        assert np.max(np.abs(reconstruct(s, B).mat - rho)) < 1e-10

    def test_reconstruct_examples(self):
        B = build_pauli_basis(1)
        assert np.allclose(reconstruct(np.zeros(3), B).mat, np.eye(2) / 2)
        assert np.allclose(reconstruct(np.array([0, 0, 1.0]), B).mat, np.diag([1.0, 0.0]))
        out = reconstruct(np.array([0, 0, 2.0]), B).mat
        assert np.allclose(out, np.diag([1.5, -0.5]))  # unit trace, not PSD
        with pytest.raises(ValueError):
            reconstruct(np.zeros(4), B)


class TestSampling:
    def test_degenerate_bernoulli(self):
        B = build_pauli_basis(1)
        rec = sample_record(np.diag([1.0, 0.0]), B, 50, seed=1)
        assert rec.plus_counts[2] == 50  # s_3 = 1: always +1

    def test_deterministic_given_seed(self, rng):
        B = build_pauli_basis(1)
        rho = rand_state(rng, 2)
        a = sample_record(rho, B, 500, seed=9)
        b = sample_record(rho, B, 500, seed=9)
        assert np.array_equal(a.plus_counts, b.plus_counts)
        c = sample_record(rho, B, 500, seed=10)
        assert not np.array_equal(a.plus_counts, c.plus_counts)

    def test_unbiased_mean_within_binomial_ci(self):
        # mean of s_hat over many trials within 4 sigma for the mixed state
        B = build_pauli_basis(1)
        pi = np.eye(2) / 2
        trials, n = 10_000, 16
        totals = np.zeros(3)
        for t in range(trials):
            totals += record_bloch_estimate(sample_record(pi, B, n, seed=t)).coeffs
        mean = totals / trials
        sigma = 1.0 / np.sqrt(n * trials)  # var(s_hat) = (1 - s^2)/n = 1/n here
        assert np.max(np.abs(mean)) < 4 * sigma

    def test_record_validation(self):
        with pytest.raises(ValueError):
            MeasurementRecord(n=5, plus_counts=np.array([6, 0, 0]), seed=0)
        with pytest.raises(ValueError):
            sample_record(np.eye(2) / 2, build_pauli_basis(1), 0, seed=0)

    def test_substream_independence(self):
        a = substream(3, 0).normal(size=4)
        b = substream(3, 1).normal(size=4)
        assert not np.allclose(a, b)
        assert np.allclose(a, substream(3, 0).normal(size=4))


class TestEstimators:
    def test_exact_record_recovers_state(self):
        # s = (0.4, 0, 0.2) is exactly representable with n = 10 shots
        B = build_pauli_basis(1)
        s = np.array([0.4, 0.0, 0.2])
        rho = reconstruct(s, B).mat
        rec = MeasurementRecord(n=10, plus_counts=np.array([7, 5, 6]), seed=0)
        assert np.allclose(record_bloch_estimate(rec).coeffs, s)
        est = estimate_rho(rec, B)
        assert np.max(np.abs(est.mat - rho)) < 1e-12
        assert estimate(rec, B)[1] is False

    def test_projection_branch_yields_state(self):
        B = build_pauli_basis(1)
        rec = MeasurementRecord(n=10, plus_counts=np.array([10, 10, 10]), seed=0)
        # s_hat = (1,1,1) is outside the Bloch ball
        assert was_projected(rec, B)
        est = estimate_rho(rec, B)
        lam = np.linalg.eigvalsh(est.mat)
        assert lam[0] >= -1e-12
        assert np.trace(est.mat).real == pytest.approx(1.0)
        est2, projected = estimate(rec, B)
        assert projected == was_projected(rec, B)
        assert np.array_equal(est2.mat, est.mat)

    def test_consistency_rate(self, rng):
        # median trace-norm error shrinks like n^(-1/2)
        B = build_pauli_basis(1)
        rho = rand_state(rng, 2, min_eig=0.2)
        meds = []
        for n in (1000, 4000):
            errs = []
            for t in range(100):
                est = estimate_rho(sample_record(rho, B, n, seed=1000 * n + t), B)
                errs.append(np.sum(np.abs(np.linalg.eigvalsh(est.mat - rho))))
            meds.append(np.median(errs))
        ratio = meds[0] / meds[1]
        assert 1.5 <= ratio <= 2.7  # ideal sqrt(4) = 2

    def test_sigma_estimator_formula(self):
        B = build_pauli_basis(1)
        s = np.array([0.4, 0.0, 0.2])
        sigma = reconstruct(s, B).mat
        rec = MeasurementRecord(n=10, plus_counts=np.array([7, 5, 6]), seed=0)
        est = estimate_sigma(rec, B)
        want = np.eye(2) / 20 + 0.9 * sigma
        assert np.max(np.abs(est.mat - want)) < 1e-12

    def test_sigma_estimator_floor(self, rng):
        B = build_pauli_basis(1)
        for seed in range(20):
            rec = sample_record(np.diag([1.0, 0.0]), B, 7, seed=seed)
            est = estimate_sigma(rec, B)
            assert np.linalg.eigvalsh(est.mat)[0] >= 1 / (7 * 2) - 1e-12

    def test_relative_entropy_always_finite(self, rng):
        # the sigma floor keeps D(rho_hat || sigma_hat) finite for every seed
        B = build_pauli_basis(1)
        pure = np.diag([1.0, 0.0])
        for seed in range(30):
            rho_hat = estimate_rho(sample_record(pure, B, 5, seed=seed), B)
            sig_hat = estimate_sigma(sample_record(pure, B, 5, seed=seed + 10**6), B)
            val = umegaki(rho_hat.mat, sig_hat.mat)
            assert val.support_ok and np.isfinite(val.value)

    def test_projection_rarity_decreases_with_n(self, rng):
        B = build_pauli_basis(1)
        rho = reconstruct(np.array([0.6, 0.0, 0.6]), B).mat  # min eig ~ 0.076
        fracs = []
        for n in (60, 240, 960):
            hits = sum(was_projected(sample_record(rho, B, n, seed=77 * n + t), B)
                       for t in range(400))
            fracs.append(hits / 400)
        assert fracs[0] > 0  # the projection branch is actually exercised
        assert fracs[0] >= fracs[1] >= fracs[2]


class TestVariances:
    def test_equal_states_vanish(self, rng):
        B = build_pauli_basis(1)
        rho = rand_state(rng, 2)
        assert variance_v1(rho, rho, B) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_weight_for_pure_direction(self):
        B = build_pauli_basis(1)
        w = bernoulli_weights(np.diag([1.0, 0.0]), B)
        assert w[2] == pytest.approx(0.0, abs=1e-15)  # s_3 = 1
        assert w[0] == pytest.approx(0.25, abs=1e-12)

    def test_v2_dominates_v1(self, rng):
        B = build_pauli_basis(1)
        for _ in range(10):
            rho, sigma = rand_state(rng, 2, 0.1), rand_state(rng, 2, 0.1)
            assert variance_v2(rho, sigma, B) >= variance_v1(rho, sigma, B) - 1e-14

    def test_commuting_second_term_closed_form(self, rng):
        # with [rho, sigma] = 0 the derivative term reduces to Tr[gamma_j rho sigma^-1]
        B = build_pauli_basis(1)
        p = np.array([0.7, 0.3])
        q = np.array([0.4, 0.6])
        rho, sigma = np.diag(p), np.diag(q)
        got = variance_v2(rho, sigma, B) - variance_v1(rho, sigma, B)
        w = bernoulli_weights(sigma, B)
        want = sum(wj * np.trace(rho @ np.diag(1 / q) @ g).real ** 2
                   for wj, g in zip(w, B.operators))
        assert got == pytest.approx(want, abs=1e-12)

    def test_v1_formula_against_direct_sum(self, rng):
        B = build_pauli_basis(1)
        rho, sigma = rand_state(rng, 2, 0.1), rand_state(rng, 2, 0.1)
        from qdivstat.operator_core import eig_hermitian

        def logm(M):
            S = eig_hermitian(M)
            return S.reassemble(np.log(S.eigenvalues))

        diff = logm(rho) - logm(sigma)
        s = bloch_coefficients(rho, B).coeffs
        want = sum((1 - sj**2) / 4 * np.trace(g @ diff).real ** 2
                   for sj, g in zip(s, B.operators))
        assert variance_v1(rho, sigma, B) == pytest.approx(want, abs=1e-12)

    def test_singular_state_rejected(self):
        B = build_pauli_basis(1)
        with pytest.raises(ValueError):
            variance_v1(np.diag([1.0, 0.0]), np.eye(2) / 2, B)


class TestGaussianLimit:
    def test_moments(self, rng):
        B = build_pauli_basis(1)
        rho = rand_state(rng, 2, 0.1)
        draws = [sample_gaussian_limit(rho, B, rng) for _ in range(3000)]
        traces = [np.trace(L).real for L in draws]
        assert np.max(np.abs(traces)) < 1e-12  # traceless by construction
        # empirical second moment of Tr[gamma_1 L] matches its weight
        w = bernoulli_weights(rho, B)
        vals = np.array([np.trace(B.operators[0] @ L).real for L in draws])
        # Tr[gamma_j L] = d * Z_j, so var = d^2 w_j
        assert vals.var() == pytest.approx(4 * w[0], rel=0.15)

    def test_clt_shape_of_bloch_estimate(self):
        # sqrt(n) (s_hat - s) is asymptotically N(0, 4 s+ s-) per component
        from qdivstat.experiments import ks_statistic

        B = build_pauli_basis(1)
        rho = reconstruct(np.array([0.3, 0.1, 0.4]), B).mat
        s = bloch_coefficients(rho, B).coeffs
        n, trials = 10_000, 2000
        draws = np.empty(trials)
        for t in range(trials):
            rec = sample_record(rho, B, n, seed=50_000 + t)
            draws[t] = np.sqrt(n) * (record_bloch_estimate(rec).coeffs[0] - s[0])
        var = (1 - s[0] ** 2)  # 4 s+ s- with s+ = (1+s)/2
        ks = ks_statistic(draws, ("gaussian", 0.0, var))
        assert ks < 0.0363  # KS critical value at level 0.01 for 2000 samples
