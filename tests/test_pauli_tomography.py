import hashlib

import numpy as np
import pytest

from qdivstat import pauli_tomography
from qdivstat.divergences import umegaki
from qdivstat.operator_core import density_spectrum, eig_hermitian
from qdivstat.pauli_tomography import (
    PAULI_MATRICES,
    SEED_BLOCK_ENTRIES,
    STACK_ENTRIES,
    bernoulli_weights,
    bloch_coefficients,
    build_pauli_basis,
    estimate_sigma_stack,
    estimate_stack,
    qubits_for_dim,
    reconstruct,
    sample_counts,
    substream,
    trial_chunks,
    variance_v1,
    variance_v2,
)
from qdivstat.frechet import build_divided_differences, frechet1
from conftest import normal_cdf, pauli_operators, rand_herm, rand_state, replay_record
from oracles import sample_gaussian_limit


class TestBasis:
    def test_single_qubit_matrices(self):
        B = build_pauli_basis(1)
        assert B.labels == ("1", "2", "3")
        ops = pauli_operators(B)
        assert np.allclose(ops[0], [[0, 1], [1, 0]])
        assert np.allclose(ops[1], [[0, -1j], [1j, 0]])
        assert np.allclose(ops[2], [[1, 0], [0, -1]])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orthogonality_exhaustive(self, n):
        B = build_pauli_basis(n)
        d = B.dim
        for j, gj in enumerate(pauli_operators(B)):
            assert abs(np.trace(gj)) < 1e-12
            for k, gk in enumerate(pauli_operators(B)):
                want = d if j == k else 0.0
                assert np.trace(gj @ gk).real == pytest.approx(want, abs=1e-12)

    def test_two_qubit_involutions(self):
        B = build_pauli_basis(2)
        assert B.size == 15
        for g in pauli_operators(B):
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
    return np.array([np.trace(A @ g).real for g in pauli_operators(B)])


def _loop_combination(coeffs, B, identity):
    acc = identity * np.eye(B.dim, dtype=complex)
    for c, g in zip(coeffs, pauli_operators(B)):
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
        assert np.max(np.abs(bloch_coefficients(H, B) - s)) < tol
        assert np.max(np.abs(reconstruct(s, B) - _loop_combination(s, B, 1.0) / d)) < tol

        rho = rand_state(rng, d, 0.05 / d)
        std = np.sqrt((1 - _loop_coefficients(rho, B) ** 2) / d**2)
        z = np.random.default_rng(n).normal(size=B.size) * std
        got = sample_gaussian_limit(rho, B, np.random.default_rng(n))
        assert np.max(np.abs(got - _loop_combination(z, B, 0.0))) < tol

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_real_combination_is_hermitian_bitwise(self, rng, n):
        # the trial estimators reconstruct without symmetrizing, which relies on this
        B = build_pauli_basis(n)
        s = rng.uniform(-1, 1, size=(3, B.size))
        s[0] = 2 * rng.integers(0, 1001, size=B.size) / 1000 - 1  # a record's 2 k/n - 1
        A = B.combine(s, identity=1.0)
        AH = A.conj().swapaxes(-1, -2)
        assert np.array_equal(A, AH)
        # symmetrizing the reconstruction would not change a byte
        R = A / B.dim
        assert ((R + R.conj().swapaxes(-1, -2)) / 2).tobytes() == R.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_variance_v2_matches_frechet_loop(self, rng, n):
        B = build_pauli_basis(n)
        d = B.dim
        rho, sigma = rand_state(rng, d, 0.05 / d), rand_state(rng, d, 0.05 / d)
        table = build_divided_differences(sigma, "log")
        w = (1 - _loop_coefficients(sigma, B) ** 2) / d**2
        terms = [np.trace(rho @ frechet1(table, g)).real ** 2 for g in pauli_operators(B)]
        want = variance_v1(rho, sigma, B) + float(np.sum(w * terms))
        assert variance_v2(rho, sigma, B) == pytest.approx(want, rel=1e-12 * d)


    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_coefficients_reject_non_hermitian(self, rng, n):
        # Tr[A gamma_j] of a non-Hermitian A has an imaginary part; it is refused, not dropped
        B = build_pauli_basis(n)
        H = rand_herm(rng, B.dim)
        K = rand_herm(rng, B.dim)
        with pytest.raises(ValueError, match="not Hermitian"):
            B.coefficients(H + 1j * K)
        with pytest.raises(ValueError, match="not Hermitian"):
            B.coefficients(np.stack([H, np.triu(H)]))
        # rounding-level asymmetry, as hermitian_part accepts, passes
        noisy = H + 1e-13 * 1j * K
        assert np.max(np.abs(B.coefficients(noisy) - B.coefficients(H))) < 1e-12


class TestBloch:
    def test_maximally_mixed_is_zero(self):
        B = build_pauli_basis(2)
        assert np.allclose(bloch_coefficients(np.eye(4) / 4, B), 0.0)

    def test_computational_zero_state(self):
        B = build_pauli_basis(1)
        assert np.allclose(bloch_coefficients(np.diag([1.0, 0.0]), B), [0, 0, 1])

    def test_plus_state(self):
        B = build_pauli_basis(1)
        plus = np.full((2, 2), 0.5)
        assert np.allclose(bloch_coefficients(plus, B), [1, 0, 0])

    def test_round_trip(self, rng):
        B = build_pauli_basis(2)
        rho = rand_state(rng, 4)
        s = bloch_coefficients(rho, B)
        assert np.max(np.abs(reconstruct(s, B) - rho)) < 1e-10

    def test_reconstruct_examples(self):
        B = build_pauli_basis(1)
        assert np.allclose(reconstruct(np.zeros(3), B), np.eye(2) / 2)
        assert np.allclose(reconstruct(np.array([0, 0, 1.0]), B), np.diag([1.0, 0.0]))
        out = reconstruct(np.array([0, 0, 2.0]), B)
        assert np.allclose(out, np.diag([1.5, -0.5]))  # unit trace, not PSD
        with pytest.raises(ValueError):
            reconstruct(np.zeros(4), B)


class TestSampling:
    def test_degenerate_bernoulli(self):
        B = build_pauli_basis(1)
        counts = sample_counts(np.diag([1.0, 0.0]), B, 50, range(1), 1)[0]
        assert counts[2] == 50  # s_3 = 1: always +1

    def test_deterministic_given_seed(self, rng):
        B = build_pauli_basis(1)
        rho = rand_state(rng, 2)
        a = sample_counts(rho, B, 500, range(1), 9)
        b = sample_counts(rho, B, 500, range(1), 9)
        assert np.array_equal(a, b)
        c = sample_counts(rho, B, 500, range(1), 10)
        assert not np.array_equal(a, c)

    def test_unbiased_mean_within_binomial_ci(self):
        # mean of s_hat over many trials within 4 sigma for the mixed state
        B = build_pauli_basis(1)
        pi = np.eye(2) / 2
        trials, n = 10_000, 16
        totals = np.zeros(3)
        for t in range(trials):
            totals += (2 * sample_counts(pi, B, n, range(1), t)[0] - n) / n
        mean = totals / trials
        sigma = 1.0 / np.sqrt(n * trials)  # var(s_hat) = (1 - s^2)/n = 1/n here
        assert np.max(np.abs(mean)) < 4 * sigma

    def test_record_validation(self):
        with pytest.raises(ValueError, match="at least one shot"):
            sample_counts(np.eye(2) / 2, build_pauli_basis(1), 0, range(1), 0)

    @pytest.mark.parametrize("d", [2, 8])
    def test_counts_from_bloch_vector(self, rng, d):
        B = build_pauli_basis(d.bit_length() - 1)
        rho = rand_state(rng, d)
        want = sample_counts(rho, B, 1000, range(3, 40), 5, 1)
        assert np.array_equal(sample_counts(bloch_coefficients(rho, B), B, 1000, range(3, 40), 5, 1), want)

    @pytest.mark.parametrize("size", [1, 4, 16])
    def test_bloch_vector_of_wrong_length_rejected(self, size):
        with pytest.raises(ValueError, match=f"expected 3 coefficients, got {size}"):
            sample_counts(np.zeros(size), build_pauli_basis(1), 10, range(4), 0)

    @pytest.mark.parametrize("draw", [lambda seed: substream(seed, 0),
                                      lambda seed: sample_counts(np.eye(2) / 2, build_pauli_basis(1), 10, range(1), seed)],
                             ids=["substream", "sample_counts"])
    def test_negative_seed_is_named(self, draw):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            draw(-1)
        with pytest.raises(ValueError, match="^seed must be an integer, got 1.5$"):
            draw(1.5)

    def test_substream_independence(self):
        a = substream(3, 0).normal(size=4)
        b = substream(3, 1).normal(size=4)
        assert not np.allclose(a, b)
        assert np.allclose(a, substream(3, 0).normal(size=4))

    @pytest.mark.parametrize("n", [100, 10**4, 10**8])
    def test_counts_do_not_depend_on_trial_count(self, rng, n):
        B = build_pauli_basis(2)
        rho = rand_state(rng, 4)
        many = sample_counts(rho, B, n, range(2000), 3, n, 0)
        assert np.array_equal(many[:37], sample_counts(rho, B, n, range(37), 3, n, 0))
        assert np.array_equal(many[1990:], sample_counts(rho, B, n, range(1990, 2000), 3, n, 0))

    @pytest.mark.parametrize("d", [2, 4, 16, 64])
    def test_trial_chunks_bounded(self, d):
        chunks = list(trial_chunks(2000, d))
        assert [t for c in chunks for t in c] == list(range(2000))
        assert max(len(c) for c in chunks) * d * d <= max(STACK_ENTRIES, d * d)
        assert all(c.start % (SEED_BLOCK_ENTRIES // d**2) == 0 for c in chunks)  # stacks start on a seed block


def _fingerprint_state(d):
    """A state with dyadic entries: its Bloch coefficients, and so the binomial p, are exact."""
    rho = np.eye(d, dtype=complex) / d
    rho[0, 0] += 1 / (8 * d)
    rho[-1, -1] -= 1 / (8 * d)
    rho[0, 1] += 1 / (8 * d)
    rho[1, 0] += 1 / (8 * d)
    rho[0, -1] += 1j / (16 * d)
    rho[-1, 0] -= 1j / (16 * d)
    return rho


class TestSeedStream:
    # sha256 of the little-endian int64 counts of the four trials around the
    # first block boundary.  The d = 64 digest is that of the 16-trial blocks
    # used before blocks were sized in entries: the 6-qubit stream is unchanged.
    DIGESTS = {
        2: "b46a1ec06052aa7dc0c90277d519694aa6d04326ef7fb09e1268bf40f24b0c54",
        4: "534eab133e619a210f66e96add446ba109ae3e985fe69a4ab0716c00a83da712",
        64: "268b28bc3fa195c4023126e347ee6cb869fe383b3a19d1ccf9113fffd54df51c",
    }

    @pytest.mark.parametrize("d", [2, 4, 64])
    def test_fingerprint(self, d):
        block = SEED_BLOCK_ENTRIES // d**2
        basis = build_pauli_basis(qubits_for_dim(d))
        counts = sample_counts(_fingerprint_state(d), basis, 1000, range(block - 2, block + 2), 2024, 5, 1)
        assert counts.shape == (4, d * d - 1)
        assert hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest() == self.DIGESTS[d]

    @pytest.mark.parametrize("d", [2, 4, 64])
    def test_rows_replay_across_block_boundary(self, d):
        block = SEED_BLOCK_ENTRIES // d**2
        basis = build_pauli_basis(qubits_for_dim(d))
        rho = _fingerprint_state(d)
        trials = range(block - 2, block + 2)
        counts = sample_counts(rho, basis, 1000, trials, 2024, 5, 1)
        for row, t in zip(counts, trials):
            assert np.array_equal(row, replay_record(rho, basis, 1000, t, 2024, 5, 1)[0])

    @pytest.mark.parametrize("d", [2, 4, 64])
    def test_one_generator_per_default_stack(self, monkeypatch, d):
        calls = []

        def counted(*key):
            calls.append(key)
            return substream(*key)

        monkeypatch.setattr(pauli_tomography, "substream", counted)
        basis = build_pauli_basis(qubits_for_dim(d))
        rho = np.eye(d) / d
        for chunk in trial_chunks(2 * (STACK_ENTRIES // d**2) + 5, d):
            calls.clear()
            assert len(sample_counts(rho, basis, 100, chunk, 3, 0)) == len(chunk)
            assert len(calls) == 1


class TestEstimators:
    def test_exact_record_recovers_state(self):
        # s = (0.4, 0, 0.2) is exactly representable with n = 10 shots
        B = build_pauli_basis(1)
        s = np.array([0.4, 0.0, 0.2])
        rho = reconstruct(s, B)
        counts = np.array([[7, 5, 6]])
        assert np.allclose((2 * counts[0] - 10) / 10, s)
        mats, _, projected = estimate_stack(counts, 10, B)
        assert np.max(np.abs(mats[0] - rho)) < 1e-12
        assert not projected[0]

    def test_projection_branch_yields_state(self):
        B = build_pauli_basis(1)
        # s_hat = (1,1,1) is outside the Bloch ball
        mats, _, projected = estimate_stack(np.array([[10, 10, 10]]), 10, B)
        assert projected[0]
        lam = np.linalg.eigvalsh(mats[0])
        assert lam[0] >= -1e-12
        assert np.trace(mats[0]).real == pytest.approx(1.0)

    def test_consistency_rate(self, rng):
        # median trace-norm error shrinks like n^(-1/2)
        B = build_pauli_basis(1)
        rho = rand_state(rng, 2, min_eig=0.2)
        meds = []
        for n in (1000, 4000):
            errs = []
            for t in range(100):
                est = estimate_stack(sample_counts(rho, B, n, range(1), 1000 * n + t), n, B)[0][0]
                errs.append(np.sum(np.abs(np.linalg.eigvalsh(est - rho))))
            meds.append(np.median(errs))
        ratio = meds[0] / meds[1]
        assert 1.5 <= ratio <= 2.7  # ideal sqrt(4) = 2

    def test_sigma_estimator_formula(self):
        B = build_pauli_basis(1)
        s = np.array([0.4, 0.0, 0.2])
        sigma = reconstruct(s, B)
        est = estimate_sigma_stack(np.array([[7, 5, 6]]), 10, B)[0].reassemble()[0]
        want = np.eye(2) / 20 + 0.9 * sigma
        assert np.max(np.abs(est - want)) < 1e-12

    def test_sigma_estimator_floor(self, rng):
        B = build_pauli_basis(1)
        for seed in range(20):
            S = estimate_sigma_stack(sample_counts(np.diag([1.0, 0.0]), B, 7, range(1), seed), 7, B)[0]
            assert np.linalg.eigvalsh(S.reassemble()[0])[0] >= 1 / (7 * 2) - 1e-12

    def test_relative_entropy_always_finite(self, rng):
        # the sigma floor keeps D(rho_hat || sigma_hat) finite for every seed
        B = build_pauli_basis(1)
        pure = np.diag([1.0, 0.0])
        for seed in range(30):
            rho_hat = estimate_stack(sample_counts(pure, B, 5, range(1), seed), 5, B)[0][0]
            sig_hat = estimate_sigma_stack(sample_counts(pure, B, 5, range(1), seed + 10**6), 5, B)[0].reassemble()[0]
            val = umegaki(rho_hat, sig_hat)
            assert val.support_ok and np.isfinite(val.value)

    def test_projection_rarity_decreases_with_n(self, rng):
        B = build_pauli_basis(1)
        rho = reconstruct(np.array([0.6, 0.0, 0.6]), B)  # min eig ~ 0.076
        fracs = []
        for n in (60, 240, 960):
            hits = sum(estimate_stack(sample_counts(rho, B, n, range(1), 77 * n + t), n, B)[2][0]
                       for t in range(400))
            fracs.append(hits / 400)
        assert fracs[0] > 0  # the projection branch is actually exercised
        assert fracs[0] >= fracs[1] >= fracs[2]

    def test_stack_matches_full_solve(self):
        # nearly every n = 10 record of a pure d = 4 state leaves the state space
        B = build_pauli_basis(2)
        counts = sample_counts(np.diag([1.0, 0.0, 0.0, 0.0]), B, 10, range(64), 3)
        mats, lam, projected = estimate_stack(counts, 10, B)
        raw = np.stack([reconstruct((2 * c - 10) / 10, B) for c in counts])
        S = eig_hermitian(raw)
        want_lam, want_projected = density_spectrum(S.eigenvalues, 1e-12)
        want = np.where(want_projected[:, None, None], S.reassemble(want_lam), raw)
        assert projected.mean() > 0.5
        assert np.array_equal(projected, want_projected)
        assert np.max(np.abs(mats - want)) <= 1e-14
        assert np.max(np.abs(lam - want_lam)) <= 1e-14

    def test_unprojected_stack_solves_no_eigenvectors(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("eigenvectors solved")

        monkeypatch.setattr(pauli_tomography, "eig_hermitian", fail)
        B = build_pauli_basis(2)
        counts = sample_counts(np.eye(4) / 4, B, 10**5, range(32), 5)
        mats, lam, projected = estimate_stack(counts, 10**5, B)
        assert not projected.any()
        assert np.allclose(lam.sum(axis=-1), 1.0)
        pure = sample_counts(np.diag([1.0, 0.0, 0.0, 0.0]), B, 10, range(32), 5)
        with pytest.raises(AssertionError, match="eigenvectors solved"):
            estimate_stack(pure, 10, B)


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
                   for wj, g in zip(w, pauli_operators(B)))
        assert got == pytest.approx(want, abs=1e-12)

    def test_v1_formula_against_direct_sum(self, rng):
        B = build_pauli_basis(1)
        rho, sigma = rand_state(rng, 2, 0.1), rand_state(rng, 2, 0.1)
        from qdivstat.operator_core import eig_hermitian

        def logm(M):
            S = eig_hermitian(M)
            return S.reassemble(np.log(S.eigenvalues))

        diff = logm(rho) - logm(sigma)
        s = bloch_coefficients(rho, B)
        want = sum((1 - sj**2) / 4 * np.trace(g @ diff).real ** 2
                   for sj, g in zip(s, pauli_operators(B)))
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
        vals = np.array([np.trace(pauli_operators(B)[0] @ L).real for L in draws])
        # Tr[gamma_j L] = d * Z_j, so var = d^2 w_j
        assert vals.var() == pytest.approx(4 * w[0], rel=0.15)

    def test_clt_shape_of_bloch_estimate(self):
        # sqrt(n) (s_hat - s) is asymptotically N(0, 4 s+ s-) per component
        from qdivstat.experiments import ks_statistic

        B = build_pauli_basis(1)
        rho = reconstruct(np.array([0.3, 0.1, 0.4]), B)
        s = bloch_coefficients(rho, B)
        n, trials = 10_000, 2000
        draws = np.empty(trials)
        for t in range(trials):
            counts = sample_counts(rho, B, n, range(1), 50_000 + t)[0]
            draws[t] = np.sqrt(n) * ((2 * counts[0] - n) / n - s[0])
        var = (1 - s[0] ** 2)  # 4 s+ s- with s+ = (1+s)/2
        ks = ks_statistic(draws, normal_cdf(var))
        assert ks < 0.0363  # KS critical value at level 0.01 for 2000 samples
