import numpy as np
import pytest

from qdivstat.divergences import (
    eigenbasis_povm,
    fidelity,
    max_divergence,
    petz_renyi,
    sandwiched_renyi,
    trivial_povm,
    umegaki,
)
from qdivstat.limit_laws import (
    LimitDirection,
    SupportViolation,
    fidelity_limit,
    maxdiv_limit,
    measured_alt_limit,
    petz_alt_commutative,
    petz_alt_limit,
    petz_null_commutative,
    petz_null_limit,
    qre_alt_commutative,
    qre_alt_limit,
    qre_null_commutative,
    qre_null_limit,
    sandwiched_alt_limit,
    vn_entropy_limit,
)
from qdivstat.divergences import von_neumann_entropy

from conftest import rand_direction, rand_state


def diag_instance(rng, d=3):
    p = rng.dirichlet(np.ones(d)) * 0.8 + 0.2 / d
    q = rng.dirichlet(np.ones(d)) * 0.8 + 0.2 / d
    a = rng.normal(size=d)
    a -= a.mean()
    b = rng.normal(size=d)
    b -= b.mean()
    return p, q, a, b


class TestTypes:
    def test_direction_must_be_traceless(self):
        with pytest.raises(ValueError):
            LimitDirection(np.diag([1.0, 0.0]))
        LimitDirection(np.diag([0.5, -0.5]))

    def test_direction_support_check(self):
        base = np.diag([1.0, 0.0])
        LimitDirection(np.diag([0.0, 0.0]), base=base)
        with pytest.raises(SupportViolation):
            LimitDirection(np.diag([0.5, -0.5]), base=base)


class TestQreAlt:
    def test_zero_directions(self, rng):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        assert qre_alt_limit(rho, sigma, None, None) == 0.0

    def test_commutative_oracle(self, rng):
        for _ in range(10):
            p, q, a, b = diag_instance(rng)
            got = qre_alt_limit(np.diag(p), np.diag(q), np.diag(a), np.diag(b))
            assert got == pytest.approx(qre_alt_commutative(p, q, a, b), abs=1e-9)

    def test_equal_states_consistency(self, rng):
        # the alternative formula evaluated at rho = sigma keeps only the
        # -Tr[rho D[log rho](L2)] term, which vanishes by tracelessness
        rho = rand_state(rng, 2)
        L2 = rand_direction(rng, 2)
        got = qre_alt_limit(rho, rho, None, L2)
        assert got == pytest.approx(0.0, abs=1e-10)

    def test_accepts_limit_direction_wrapper(self, rng):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        L1 = rand_direction(rng, 2)
        a = qre_alt_limit(rho, sigma, LimitDirection(L1), None)
        b = qre_alt_limit(rho, sigma, L1, None)
        assert a == b

    def test_linearity(self, rng):
        rho, sigma = rand_state(rng, 3), rand_state(rng, 3)
        L1, L2 = rand_direction(rng, 3), rand_direction(rng, 3)
        M1, M2 = rand_direction(rng, 3), rand_direction(rng, 3)
        s, t = 0.6, -1.2
        lhs = qre_alt_limit(rho, sigma, s * L1 + t * M1, s * L2 + t * M2)
        rhs = (s * qre_alt_limit(rho, sigma, L1, L2)
               + t * qre_alt_limit(rho, sigma, M1, M2))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_first_order_taylor(self, rng):
        for _ in range(5):
            rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
            L1, L2 = rand_direction(rng, 2, 0.5), rand_direction(rng, 2, 0.5)
            lim = qre_alt_limit(rho, sigma, L1, L2)
            base = umegaki(rho, sigma).value
            errs = []
            for t in (1e-3, 1e-4):
                fd = (umegaki(rho + t * L1, sigma + t * L2).value - base) / t
                errs.append(abs(fd - lim))
            assert errs[1] <= 0.2 * errs[0] + 1e-12  # O(t) error decay

    def test_support_violation(self, rng):
        rho = np.diag([0.5, 0.5, 0.0])
        sigma = np.diag([0.6, 0.4, 0.0])
        bad = np.diag([0.0, 0.5, -0.5])
        with pytest.raises(SupportViolation):
            qre_alt_limit(rho, sigma, None, bad)


class TestQreNull:
    def test_equal_directions_vanish(self, rng):
        rho = rand_state(rng, 3)
        L = rand_direction(rng, 3)
        assert qre_null_limit(rho, L, L) == pytest.approx(0.0, abs=1e-12)

    def test_commutative_oracle(self, rng):
        for _ in range(10):
            p, _, a, b = diag_instance(rng)
            got = qre_null_limit(np.diag(p), np.diag(a), np.diag(b))
            assert got == pytest.approx(qre_null_commutative(p, a, b), abs=1e-9)

    def test_nonnegative(self, rng):
        for _ in range(20):
            rho = rand_state(rng, 3)
            val = qre_null_limit(rho, rand_direction(rng, 3), rand_direction(rng, 3))
            assert val >= -1e-8

    def test_depends_only_on_difference(self, rng):
        rho = rand_state(rng, 3)
        L1, L2, C = (rand_direction(rng, 3) for _ in range(3))
        assert qre_null_limit(rho, L1 + C, L2 + C) == pytest.approx(
            qre_null_limit(rho, L1, L2), abs=1e-12)

    def test_finite_n_extrapolation(self, rng):
        # n D(rho + L1/sqrt(n) || rho + L2/sqrt(n)) approaches the functional
        for _ in range(5):
            rho = rand_state(rng, 2)
            L1, L2 = rand_direction(rng, 2, 0.3), rand_direction(rng, 2, 0.3)
            lim = qre_null_limit(rho, L1, L2)
            errs = []
            for n in (10**4, 10**6):
                r = np.sqrt(n)
                val = n * umegaki(rho + L1 / r, rho + L2 / r).value
                errs.append(abs(val - lim))
            assert errs[1] <= errs[0] / 5 + 1e-10
            assert errs[1] <= 30 / np.sqrt(10**6)


class TestEntropyLimit:
    def test_zero_direction(self, rng):
        assert vn_entropy_limit(rand_state(rng, 2), None) == 0.0

    def test_maximally_mixed(self, rng):
        d = 4
        L = rand_direction(rng, d)
        assert vn_entropy_limit(np.eye(d) / d, L) == pytest.approx(0.0, abs=1e-10)

    def test_diagonal(self, rng):
        p, _, a, _ = diag_instance(rng)
        got = vn_entropy_limit(np.diag(p), np.diag(a))
        assert got == pytest.approx(-np.sum(a * np.log(p)), abs=1e-10)

    def test_first_order_taylor(self, rng):
        rho = rand_state(rng, 3)
        L = rand_direction(rng, 3, 0.5)
        lim = vn_entropy_limit(rho, L)
        base = von_neumann_entropy(rho)
        fd = (von_neumann_entropy(rho + 1e-6 * L) - base) / 1e-6
        assert fd == pytest.approx(lim, abs=1e-4)


class TestPetzLimits:
    @pytest.mark.parametrize("alpha", [0.4, 1.5, 2.0])
    def test_zero_directions(self, rng, alpha):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        assert petz_alt_limit(rho, sigma, alpha, None, None) == 0.0

    @pytest.mark.parametrize("alpha", [0.4, 0.7, 1.5, 2.0])
    def test_alt_commutative_oracle(self, rng, alpha):
        for _ in range(5):
            p, q, a, b = diag_instance(rng)
            got = petz_alt_limit(np.diag(p), np.diag(q), alpha, np.diag(a), np.diag(b))
            assert got == pytest.approx(petz_alt_commutative(p, q, alpha, a, b), abs=1e-9)

    def test_alt_alpha_one_continuity(self, rng):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        L1, L2 = rand_direction(rng, 2), rand_direction(rng, 2)
        base = qre_alt_limit(rho, sigma, L1, L2)
        for alpha in (1 - 1e-4, 1 + 1e-4):
            assert abs(petz_alt_limit(rho, sigma, alpha, L1, L2) - base) <= 1e-3

    @pytest.mark.parametrize("alpha", [0.4, 1.5, 2.0])
    def test_null_equal_directions_vanish(self, rng, alpha):
        rho = rand_state(rng, 2)
        L = rand_direction(rng, 2)
        assert petz_null_limit(rho, alpha, L, L) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.4, 0.7, 1.5, 2.0])
    def test_null_commutative_oracle(self, rng, alpha):
        # the commutative null limit carries an alpha/2 prefactor
        for _ in range(5):
            p, _, a, b = diag_instance(rng)
            got = petz_null_limit(np.diag(p), alpha, np.diag(a), np.diag(b))
            want = petz_null_commutative(p, alpha, a, b)
            assert got == pytest.approx(want, abs=1e-9)
            assert want == pytest.approx(0.5 * alpha * np.sum((a - b) ** 2 / p), abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.6, 1.5, 2.0])
    def test_alt_first_order_taylor(self, rng, alpha):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        L1, L2 = rand_direction(rng, 2, 0.4), rand_direction(rng, 2, 0.4)
        lim = petz_alt_limit(rho, sigma, alpha, L1, L2)
        base = petz_renyi(rho, sigma, alpha).value
        errs = []
        for t in (1e-3, 1e-4):
            fd = (petz_renyi(rho + t * L1, sigma + t * L2, alpha).value - base) / t
            errs.append(abs(fd - lim))
        assert errs[1] <= 0.2 * errs[0] + 1e-11

    @pytest.mark.parametrize("alpha", [0.6, 1.5, 2.0])
    def test_null_second_order_taylor(self, rng, alpha):
        rho = rand_state(rng, 2)
        L1, L2 = rand_direction(rng, 2, 0.3), rand_direction(rng, 2, 0.3)
        lim = petz_null_limit(rho, alpha, L1, L2)
        errs = []
        for t in (1e-3, 1e-4):
            fd = petz_renyi(rho + t * L1, rho + t * L2, alpha).value / t**2
            errs.append(abs(fd - lim))
        assert errs[1] <= 0.2 * errs[0] + 1e-9


class TestSandwichedLimit:
    @pytest.mark.parametrize("alpha", [0.5, 0.8, 2.0, 3.0])
    def test_zero_directions(self, rng, alpha):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        assert sandwiched_alt_limit(rho, sigma, alpha, None, None) == 0.0

    @pytest.mark.parametrize("alpha", [0.6, 1.5, 2.0])
    def test_commutative_equals_petz_commutative(self, rng, alpha):
        for _ in range(5):
            p, q, a, b = diag_instance(rng)
            got = sandwiched_alt_limit(np.diag(p), np.diag(q), alpha, np.diag(a), np.diag(b))
            assert got == pytest.approx(petz_alt_commutative(p, q, alpha, a, b), abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 0.7, 2.0])
    def test_vanishes_at_equal_states(self, rng, alpha):
        rho = rand_state(rng, 3)
        L1, L2 = rand_direction(rng, 3), rand_direction(rng, 3)
        assert sandwiched_alt_limit(rho, rho, alpha, L1, L2) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.7, 3.0])
    def test_first_order_taylor(self, rng, alpha):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        L1, L2 = rand_direction(rng, 2, 0.4), rand_direction(rng, 2, 0.4)
        lim = sandwiched_alt_limit(rho, sigma, alpha, L1, L2)
        base = sandwiched_renyi(rho, sigma, alpha).value
        errs = []
        for t in (1e-3, 1e-4):
            fd = (sandwiched_renyi(rho + t * L1, sigma + t * L2, alpha).value - base) / t
            errs.append(abs(fd - lim))
        assert errs[1] <= 0.2 * errs[0] + 1e-11


class TestFidelityAndMaxLimits:
    def test_zero_directions(self, rng):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        assert fidelity_limit(rho, sigma, None, None) == 0.0
        assert maxdiv_limit(rho, sigma, None, None) == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_chain_rule_vs_sandwiched_half(self, rng):
        # F = exp(-D_1/2), so dF = -F dD_1/2
        for _ in range(10):
            rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
            L1, L2 = rand_direction(rng, 2), rand_direction(rng, 2)
            lhs = fidelity_limit(rho, sigma, L1, L2)
            rhs = -fidelity(rho, sigma) * sandwiched_alt_limit(rho, sigma, 0.5, L1, L2)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_fidelity_first_order_taylor(self, rng):
        rho, sigma = rand_state(rng, 3), rand_state(rng, 3)
        L1, L2 = rand_direction(rng, 3, 0.4), rand_direction(rng, 3, 0.4)
        lim = fidelity_limit(rho, sigma, L1, L2)
        base = fidelity(rho, sigma)
        fd = (fidelity(rho + 1e-5 * L1, sigma + 1e-5 * L2) - base) / 1e-5
        assert fd == pytest.approx(lim, abs=1e-3)

    def test_maxdiv_diagonal_finite_difference(self):
        rho = np.diag([0.75, 0.25])
        sigma = np.diag([0.5, 0.5])
        L1 = np.diag([0.2, -0.2])
        L2 = np.diag([-0.1, 0.1])
        lim = maxdiv_limit(rho, sigma, L1, L2)
        t = 1e-5
        base = max_divergence(rho, sigma).value
        fd = (max_divergence(rho + t * L1, sigma + t * L2).value - base) / t
        assert fd == pytest.approx(lim, abs=1e-5)

    def test_maxdiv_random_finite_difference(self, rng):
        for _ in range(5):
            rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
            L1, L2 = rand_direction(rng, 2, 0.3), rand_direction(rng, 2, 0.3)
            lim = maxdiv_limit(rho, sigma, L1, L2)
            t = 1e-6
            base = max_divergence(rho, sigma).value
            fd = (max_divergence(rho + t * L1, sigma + t * L2).value - base) / t
            assert fd == pytest.approx(lim, abs=1e-4)

    def test_maxdiv_degenerate_top_eigenvalue_rejected(self, rng):
        rho = np.eye(2) / 2
        L1 = rand_direction(rng, 2)
        with pytest.raises(ValueError, match="degenerate"):
            maxdiv_limit(rho, rho, L1, None)


class TestMeasuredLimit:
    def test_zero_directions(self, rng):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        m = eigenbasis_povm(rho)
        assert measured_alt_limit(rho, sigma, m, None, None) == 0.0

    def test_one_outcome_povm_always_zero(self, rng):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        L1, L2 = rand_direction(rng, 2), rand_direction(rng, 2)
        assert measured_alt_limit(rho, sigma, trivial_povm(2), L1, L2) == pytest.approx(0.0, abs=1e-15)

    def test_commuting_classical_reduction(self, rng):
        p, q, a, b = diag_instance(rng)
        m = eigenbasis_povm(np.diag(np.arange(1.0, 4.0)))
        got = measured_alt_limit(np.diag(p), np.diag(q), m, np.diag(a), np.diag(b))
        want = qre_alt_limit(np.diag(p), np.diag(q), np.diag(a), np.diag(b))
        assert got == pytest.approx(want, abs=1e-9)

    def test_support_violation(self):
        rho = np.diag([1.0, 0.0])
        sigma = np.diag([0.0, 1.0])
        m = eigenbasis_povm(np.diag([1.0, 2.0]))
        with pytest.raises(SupportViolation):
            measured_alt_limit(rho, sigma, m, np.diag([0.5, -0.5]), None)
