import numpy as np
import pytest

from qdivstat.divergences import (
    DivergenceValue,
    Povm,
    classical_kl,
    eigenbasis_povm,
    fidelity,
    max_divergence,
    measured_relative_entropy,
    measured_relative_entropy_rows,
    petz_renyi,
    petz_renyi_rows,
    povm_apply,
    sandwiched_renyi,
    sandwiched_renyi_rows,
    trivial_povm,
    umegaki,
    umegaki_spectral,
    von_neumann_entropy,
)
from qdivstat.operator_core import eig_hermitian, eigvals_hermitian, loewner_leq, support_mask
from qdivstat.random_ops import haar_unitary

import scalar_divergences as scalar
from conftest import rand_herm, rand_state
from frechet_oracles import sandwiched_dual_optimizer, sandwiched_variational_objective

KL_75_50 = 0.75 * np.log(1.5) + 0.25 * np.log(0.5)  # ~0.130812 nats


def _umegaki_overlap(rho, sigma, tol=1e-9):
    """D(rho || sigma) from both spectral decompositions, via the overlaps |<s_k|r_j>|^2.

    The diagonal of rho in sigma's eigenbasis gives the cross term and the
    leak onto sigma's kernel; an oracle for ``umegaki_spectral``.
    """
    overlap = np.abs(sigma.eigenvectors.conj().swapaxes(-1, -2) @ rho.eigenvectors) ** 2
    diag = (overlap @ rho.eigenvalues[..., None])[..., 0]
    keep_rho = support_mask(rho.eigenvalues)
    keep_sigma = support_mask(sigma.eigenvalues)
    own = np.sum(rho.eigenvalues * np.log(np.where(keep_rho, rho.eigenvalues, 1.0)), axis=-1)
    cross = np.sum(diag * np.log(np.where(keep_sigma, sigma.eigenvalues, 1.0)), axis=-1)
    leak = np.sum(np.where(keep_sigma, 0.0, diag), axis=-1)
    return np.where(leak <= tol, own - cross, np.inf)


def _on_columns(V, p):
    """sum_k p_k v_k v_k^dagger over the orthonormal columns v_k of V."""
    return (V * p) @ V.conj().T


class TestUmegaki:
    def test_zero_at_equal_states(self, rng):
        rho = rand_state(rng, 3)
        assert umegaki(rho, rho).value == pytest.approx(0.0, abs=1e-12)

    def test_commuting_matches_classical(self):
        val = umegaki(np.diag([0.75, 0.25]), np.diag([0.5, 0.5]))
        assert val.value == pytest.approx(KL_75_50, abs=1e-12)
        assert val.value == pytest.approx(0.130812, abs=1e-6)

    def test_disjoint_supports_infinite(self):
        val = umegaki(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert not val.support_ok
        assert val.value == np.inf
        assert not val.is_finite

    def test_spectral_stack_matches_pairs(self, rng):
        sigma = np.diag([0.7, 0.3, 0.0])
        rhos = np.stack([rand_state(rng, 3) for _ in range(4)] + [np.diag([0.5, 0.5, 0.0])])
        got = umegaki_spectral(rhos, eigvals_hermitian(rhos), eig_hermitian(sigma))
        assert got.shape == (5,)
        assert np.all(np.isinf(got[:4]))  # full-rank rho leaks into sigma's kernel
        assert got[4] == pytest.approx(umegaki(rhos[4], sigma).value, abs=1e-14)
        sigmas = [rand_state(rng, 3) for _ in range(5)]
        pairs = umegaki_spectral(rhos, eigvals_hermitian(rhos), eig_hermitian(np.stack(sigmas)))
        for r, s, value in zip(rhos, sigmas, pairs):
            assert value == pytest.approx(umegaki(r, s).value, abs=1e-14)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_spectral_matches_overlap_oracle(self, rng, d):
        # sigma of rank d/2, supported on the first d/2 columns of U; rho full
        # rank (+inf against it) or inside its support, itself of full or lower rank
        U = haar_unitary(d, rng)
        half = d // 2
        deficient = _on_columns(U[:, :half], rng.dirichlet(np.ones(half)))
        inside = [_on_columns(U[:, :half] @ haar_unitary(half, rng), p)
                  for p in (rng.dirichlet(np.ones(half)), np.eye(half)[0])]
        rhos = np.stack([rand_state(rng, d) for _ in range(4)] + inside)
        lam = eigvals_hermitian(rhos)
        for sigma in (rand_state(rng, d), deficient,
                      np.stack([rand_state(rng, d) if t % 2 else deficient for t in range(len(rhos))])):
            got = umegaki_spectral(rhos, lam, eig_hermitian(sigma))
            want = _umegaki_overlap(eig_hermitian(rhos), eig_hermitian(sigma))
            assert np.array_equal(np.isinf(got), np.isinf(want))
            finite = np.isfinite(want)
            assert finite.any()
            assert np.max(np.abs(got[finite] - want[finite])) <= 1e-12
        assert np.isinf(got[0]) and np.isfinite(got[-1])

    def test_value_infinity_tagging_enforced(self):
        with pytest.raises(ValueError):
            DivergenceValue(1.0, support_ok=False)
        with pytest.raises(ValueError):
            DivergenceValue(np.inf, support_ok=True)


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(np.log(4))

    def test_binary_entropy_value(self):
        want = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
        got = von_neumann_entropy(np.diag([0.75, 0.25]))
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.562335, abs=1e-6)

    def test_entropy_relative_entropy_identity(self, rng):
        # H(rho) = log d - D(rho || I/d)
        for d in (2, 3, 4):
            rho = rand_state(rng, d, min_eig=0.0)
            lhs = von_neumann_entropy(rho) + umegaki(rho, np.eye(d) / d).value
            assert abs(lhs - np.log(d)) <= 1e-10


class TestClassicalKL:
    def test_zero_on_equal(self):
        p = np.array([0.2, 0.3, 0.5])
        assert classical_kl(p, p).value == pytest.approx(0.0, abs=1e-14)

    def test_value(self):
        assert classical_kl([0.75, 0.25], [0.5, 0.5]).value == pytest.approx(KL_75_50)

    def test_support_failure(self):
        assert not classical_kl([1.0, 0.0], [0.0, 1.0]).support_ok

    def test_malformed_vectors(self):
        with pytest.raises(ValueError):
            classical_kl([0.9, 0.2], [0.5, 0.5])
        with pytest.raises(ValueError):
            classical_kl([1.2, -0.2], [0.5, 0.5])


class TestPetz:
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.5, 2.0])
    def test_zero_at_equal_states(self, rng, alpha):
        rho = rand_state(rng, 3)
        assert petz_renyi(rho, rho, alpha).value == pytest.approx(0.0, abs=1e-11)

    @pytest.mark.parametrize("alpha", [0.4, 1.3, 2.0])
    def test_commuting_equals_classical_renyi(self, rng, alpha):
        p = np.array([0.6, 0.3, 0.1])
        q = np.array([0.2, 0.5, 0.3])
        want = np.log(np.sum(p**alpha * q ** (1 - alpha))) / (alpha - 1)
        got = petz_renyi(np.diag(p), np.diag(q), alpha).value
        assert got == pytest.approx(want, abs=1e-12)

    def test_alpha_one_continuity(self, rng):
        for _ in range(5):
            rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
            base = umegaki(rho, sigma).value
            for alpha in (1 - 1e-5, 1 + 1e-5):
                assert abs(petz_renyi(rho, sigma, alpha).value - base) <= 1e-3

    def test_alpha_range(self, rng):
        rho = rand_state(rng, 2)
        for bad in (0.0, 1.0, 2.5, -1.0):
            with pytest.raises(ValueError):
                petz_renyi(rho, rho, bad)

    def test_support_rules(self):
        rho = np.diag([1.0, 0.0])
        sigma = np.diag([0.0, 1.0])
        partial = np.diag([0.5, 0.5])
        assert not petz_renyi(rho, sigma, 0.5).support_ok  # orthogonal
        assert not petz_renyi(partial, rho, 1.5).support_ok  # support not contained
        assert petz_renyi(rho, partial, 0.5).support_ok


class TestSandwiched:
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 2.0, 3.0])
    def test_zero_at_equal_states(self, rng, alpha):
        rho = rand_state(rng, 3)
        assert sandwiched_renyi(rho, rho, alpha).value == pytest.approx(0.0, abs=1e-11)

    def test_half_equals_minus_log_fidelity(self, rng):
        for _ in range(10):
            rho, sigma = rand_state(rng, 3), rand_state(rng, 3)
            lhs = sandwiched_renyi(rho, sigma, 0.5).value
            assert abs(lhs + np.log(fidelity(rho, sigma))) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.6, 1.5, 2.0])
    def test_commuting_equals_petz(self, rng, alpha):
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.25, 0.35, 0.4])
        got = sandwiched_renyi(np.diag(p), np.diag(q), alpha).value
        want = petz_renyi(np.diag(p), np.diag(q), alpha).value
        assert abs(got - want) <= 1e-9

    def test_monotone_in_alpha(self, rng):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        grid = [0.5, 0.8, 1.2, 2.0, 3.0, 5.0]
        vals = [sandwiched_renyi(rho, sigma, a).value for a in grid]
        assert all(v2 >= v1 - 1e-10 for v1, v2 in zip(vals, vals[1:]))

    def test_alpha_range(self, rng):
        rho = rand_state(rng, 2)
        for bad in (0.3, 1.0):
            with pytest.raises(ValueError):
                sandwiched_renyi(rho, rho, bad)


class TestDualOptimizer:
    def test_maximally_mixed_objective_zero(self):
        pi = np.eye(2) / 2
        eta = sandwiched_dual_optimizer(pi, pi, 2.0)
        assert sandwiched_variational_objective(pi, pi, 2.0, eta) == pytest.approx(0.0, abs=1e-12)

    def test_objective_rejects_non_positive_overlap(self, rng):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        for eta in (np.zeros((2, 2)), -np.eye(2)):
            with pytest.raises(ValueError, match="overlap"):
                sandwiched_variational_objective(rho, sigma, 2.0, eta)

    @pytest.mark.parametrize("alpha", [0.7, 2.0, 3.0])
    def test_objective_attains_divergence(self, rng, alpha):
        for _ in range(10):
            rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
            eta = sandwiched_dual_optimizer(rho, sigma, alpha)
            obj = sandwiched_variational_objective(rho, sigma, alpha, eta)
            assert abs(obj - sandwiched_renyi(rho, sigma, alpha).value) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.6, 0.9, 1.5, 2.0, 4.0])
    def test_unit_dual_norm(self, rng, alpha):
        # ||eta*||_{alpha/(alpha-1)} = 1, as a (quasi-)power mean of eigenvalues
        for _ in range(20):
            rho, sigma = rand_state(rng, 3), rand_state(rng, 3)
            eta = sandwiched_dual_optimizer(rho, sigma, alpha)
            lam = np.linalg.eigvalsh(eta.mat)
            assert np.all(lam > -1e-12)
            p = alpha / (alpha - 1)
            norm = float(np.sum(np.clip(lam, 1e-300, None) ** p)) ** (1 / p)
            assert norm == pytest.approx(1.0, abs=1e-8)


    @pytest.mark.parametrize("alpha", [0.5, 0.7, 1.5, 2.0])
    def test_orthogonal_pair(self, alpha):
        # T's eigenvalues are rounding noise here; read as overlap, the optimizer had a Frobenius norm of
        # about 14 and the objective at it was 40.65 (alpha = 1/2), where the divergence is +inf
        rhos, sigmas = _oracle_stacks(np.random.default_rng(3), 4, "orthogonal")
        for rho, sigma in zip(rhos, sigmas):
            assert np.isposinf(sandwiched_renyi(rho, sigma, alpha).value)
            with pytest.raises(ValueError, match="degenerate sigma support"):
                sandwiched_dual_optimizer(rho, sigma, alpha)
            for eta in (np.eye(4), 1e6 * rhos[0]):
                with pytest.raises(ValueError, match="positive overlap"):
                    sandwiched_variational_objective(rho, sigma, alpha, eta)


class TestFidelity:
    def test_equal_states(self, rng):
        rho = rand_state(rng, 3)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_zero_vs_plus(self):
        zero = np.diag([1.0, 0.0])
        plus = np.full((2, 2), 0.5)
        assert fidelity(zero, plus) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_orthogonal_in_haar_basis(self, rng, d):
        # T's eigenvalues are rounding noise of about 1e-18 here; read as overlap they gave F ~ 1e-18
        rhos, sigmas = _oracle_stacks(rng, d, "orthogonal")
        assert [fidelity(r, s) for r, s in zip(rhos, sigmas)] == [0.0] * len(rhos)
        assert np.isposinf(sandwiched_renyi_rows(rhos, sigmas, 0.5)).all()

    def test_symmetric(self, rng):
        for _ in range(10):
            rho, sigma = rand_state(rng, 3, min_eig=0.0), rand_state(rng, 3, min_eig=0.0)
            assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) <= 1e-9


class TestMaxDivergence:
    def test_equal_states(self, rng):
        rho = rand_state(rng, 3)
        assert max_divergence(rho, rho).value == pytest.approx(0.0, abs=1e-10)

    def test_commuting_ratio(self):
        got = max_divergence(np.diag([0.75, 0.25]), np.diag([0.5, 0.5]))
        assert got.value == pytest.approx(np.log(1.5), abs=1e-12)

    def test_pure_vs_mixed(self):
        for d in (2, 4):
            got = max_divergence(np.diag([1.0] + [0.0] * (d - 1)), np.eye(d) / d)
            assert got.value == pytest.approx(np.log(d), abs=1e-10)

    def test_support_failure(self):
        assert not max_divergence(np.diag([0.5, 0.5]), np.diag([1.0, 0.0])).support_ok

    def test_against_loewner_bisection(self, rng):
        # cross-check: smallest lambda with rho <= e^lambda sigma
        for _ in range(5):
            rho, sigma = rand_state(rng, 3), rand_state(rng, 3)
            val = max_divergence(rho, sigma).value
            lo, hi = -10.0, 10.0
            for _ in range(60):
                mid = (lo + hi) / 2
                if loewner_leq(rho, np.exp(mid) * sigma, tol=1e-14):
                    hi = mid
                else:
                    lo = mid
            assert val == pytest.approx(hi, abs=1e-9)


class TestPovm:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Povm([np.diag([0.5, 0.5])])  # does not sum to identity
        with pytest.raises(ValueError):
            Povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])  # negative element
        Povm([np.diag([0.7, 0.2]), np.diag([0.3, 0.8])])

    def test_apply_computational_basis(self, rng):
        rho = rand_state(rng, 3)
        M = Povm([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])])
        assert np.allclose(povm_apply(M, rho), np.diag(rho).real)

    def test_apply_trivial(self, rng):
        rho = rand_state(rng, 2)
        assert np.allclose(povm_apply(trivial_povm(2), rho), [1.0])

    def test_apply_traceless(self, rng):
        L = rand_herm(rng, 3)
        L = L - np.trace(L) / 3 * np.eye(3)
        out = povm_apply(eigenbasis_povm(rand_herm(rng, 3)), L)
        assert abs(out.sum()) <= 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            povm_apply(trivial_povm(2), rand_state(rng, 3))


class TestMeasuredRelativeEntropy:
    def test_trivial_family(self, rng):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        val, idx = measured_relative_entropy(rho, sigma, [trivial_povm(2)])
        assert val.value == pytest.approx(0.0, abs=1e-12)
        assert idx == 0

    def test_commuting_eigenbasis_attains_umegaki(self):
        rho, sigma = np.diag([0.7, 0.3]), np.diag([0.4, 0.6])
        family = [trivial_povm(2), eigenbasis_povm(rho)]
        val, idx = measured_relative_entropy(rho, sigma, family)
        assert val.value == pytest.approx(umegaki(rho, sigma).value, abs=1e-10)
        assert idx == 1

    def test_data_processing_bound(self, rng):
        for _ in range(10):
            rho, sigma = rand_state(rng, 3), rand_state(rng, 3)
            family = [eigenbasis_povm(rho), eigenbasis_povm(sigma),
                      eigenbasis_povm(rand_herm(rng, 3)), trivial_povm(3)]
            val, _ = measured_relative_entropy(rho, sigma, family)
            assert val.value <= umegaki(rho, sigma).value + 1e-9

    def test_empty_family(self, rng):
        with pytest.raises(ValueError):
            measured_relative_entropy(rand_state(rng, 2), rand_state(rng, 2), [])

    def test_tie_reporting(self, rng):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        M = eigenbasis_povm(rho)
        val, idx = measured_relative_entropy(rho, sigma, [M, M])
        assert idx == 0
        assert "near-maximal" in (val.diagnostics or "")


class TestSharedProperties:
    def _all_divergences(self, rho, sigma):
        return {
            "umegaki": umegaki(rho, sigma).value,
            "petz_0.6": petz_renyi(rho, sigma, 0.6).value,
            "petz_2": petz_renyi(rho, sigma, 2.0).value,
            "sand_0.5": sandwiched_renyi(rho, sigma, 0.5).value,
            "sand_2": sandwiched_renyi(rho, sigma, 2.0).value,
            "max": max_divergence(rho, sigma).value,
        }

    def test_nonnegative_and_faithful(self, rng):
        for _ in range(10):
            rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
            for name, v in self._all_divergences(rho, sigma).items():
                assert v >= -1e-10, name
            for name, v in self._all_divergences(rho, rho).items():
                assert abs(v) <= 1e-9, name

    def test_unitary_invariance(self, rng):
        for _ in range(5):
            rho, sigma = rand_state(rng, 3), rand_state(rng, 3)
            U = haar_unitary(3, rng)
            before = self._all_divergences(rho, sigma)
            after = self._all_divergences(U @ rho @ U.conj().T, U @ sigma @ U.conj().T)
            for name in before:
                assert abs(before[name] - after[name]) <= 1e-9, name

    def test_ordering_chain(self, rng):
        for _ in range(20):
            rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
            family = [eigenbasis_povm(rho), eigenbasis_povm(sigma), eigenbasis_povm(rho - sigma)]
            measured, _ = measured_relative_entropy(rho, sigma, family)
            mid = umegaki(rho, sigma).value
            assert measured.value <= mid + 1e-9
            assert mid <= max_divergence(rho, sigma).value + 1e-9
            for alpha in (0.7, 1.5, 2.0):
                assert (sandwiched_renyi(rho, sigma, alpha).value
                        <= petz_renyi(rho, sigma, alpha).value + 1e-9)


SIGMA_CASES = ["full_rank", "rank_deficient", "orthogonal"]


def _oracle_stacks(rng, d, case, rows=8):
    """Stacks (rho, sigma) of one sigma case.

    full_rank: independent random states.  rank_deficient: every sigma of
    rank d/2 on one shared subspace, rho full rank on odd rows (leaking out
    of supp(sigma)) and inside that subspace on even rows.  orthogonal: rho
    on the complement of that subspace.
    """
    if case == "full_rank":
        return (np.stack([rand_state(rng, d) for _ in range(rows)]),
                np.stack([rand_state(rng, d) for _ in range(rows)]))
    U = haar_unitary(d, rng)
    half = d // 2
    inside, outside = U[:, :half], U[:, half:]
    sigmas = np.stack([_on_columns(inside, rng.dirichlet(np.ones(half))) for _ in range(rows)])
    if case == "orthogonal":
        rhos = [_on_columns(outside, rng.dirichlet(np.ones(d - half))) for _ in range(rows)]
    else:
        rhos = [rand_state(rng, d) if t % 2 else _on_columns(inside, rng.dirichlet(np.ones(half)))
                for t in range(rows)]
    return np.stack(rhos), sigmas


def _branch(value):
    """The branch a one-pair DivergenceValue reports, in the oracle's terms."""
    if value.support_ok:
        return "finite"
    return "leak" if value.diagnostics.startswith("supp") else "orthogonal"


def _assert_rows_match(got, want):
    """+inf on the same rows, |delta D| <= 1e-12 on the others."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.max(np.abs(got[finite] - want[finite]), initial=0.0) <= 1e-12


class TestStackedAgainstScalarOracle:
    """The stacked bodies against the matrix-by-matrix bodies they replaced (``scalar_divergences``)."""

    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("case", SIGMA_CASES)
    @pytest.mark.parametrize("kind,alpha", [("petz", 0.4), ("petz", 1.5), ("sandwiched", 0.5), ("sandwiched", 2.0)])
    def test_renyi(self, rng, d, case, kind, alpha):
        rows, public, oracle = {"petz": (petz_renyi_rows, petz_renyi, scalar.petz_renyi),
                                "sandwiched": (sandwiched_renyi_rows, sandwiched_renyi, scalar.sandwiched_renyi)}[kind]
        rhos, sigmas = _oracle_stacks(rng, d, case)
        want = [oracle(r, s, alpha) for r, s in zip(rhos, sigmas)]
        pairs = [public(r, s, alpha) for r, s in zip(rhos, sigmas)]
        assert [_branch(v) for v in pairs] == [branch for _, branch in want]
        want_d = [value for value, _ in want]
        _assert_rows_match([v.value for v in pairs], want_d)
        _assert_rows_match(rows(rhos, sigmas, alpha), want_d)
        # a decomposition stands for the matrices it reassembles to
        S = eig_hermitian(sigmas)
        _assert_rows_match(rows(rhos, S, alpha), [oracle(r, s, alpha)[0] for r, s in zip(rhos, S.reassemble())])
        if case == "orthogonal":
            assert np.isinf(want_d).all()
        elif alpha > 1 and case != "full_rank":
            assert np.isinf(want_d).sum() >= len(want) / 2
        elif case == "full_rank":
            assert np.isfinite(want_d).all()

    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("case", SIGMA_CASES)
    @pytest.mark.parametrize("separating", [False, True])
    def test_measured(self, rng, d, case, separating):
        rhos, sigmas = _oracle_stacks(rng, d, case)
        if separating:
            # sigma's eigenbasis puts outcome mass of a leaking rho where every sigma has none
            family = [trivial_povm(d), eigenbasis_povm(sigmas[0])]
        else:
            family = [eigenbasis_povm(rhos[0]), eigenbasis_povm(sigmas[0]), eigenbasis_povm(rhos[0] - sigmas[0])]
        want = [scalar.measured_relative_entropy(r, s, family) for r, s in zip(rhos, sigmas)]
        pairs = [measured_relative_entropy(r, s, family) for r, s in zip(rhos, sigmas)]
        assert [idx for _, idx in pairs] == [idx for _, idx, _ in want]
        for (value, _), (want_value, _, ties) in zip(pairs, want):
            if np.isinf(want_value):
                assert value.diagnostics == f"measurement {ties[0]} separates the supports"
            else:
                assert value.diagnostics == (None if len(ties) == 1 else f"near-maximal indices: {ties}")
        want_d = [value for value, _, _ in want]
        _assert_rows_match([v.value for v, _ in pairs], want_d)
        _assert_rows_match(measured_relative_entropy_rows(rhos, sigmas, family), want_d)
        S = eig_hermitian(sigmas)
        _assert_rows_match(measured_relative_entropy_rows(rhos, S, family),
                           [scalar.measured_relative_entropy(r, s, family)[0] for r, s in zip(rhos, S.reassemble())])
        if separating and case != "full_rank":
            assert np.isinf(want_d).sum() >= len(want) / 2
