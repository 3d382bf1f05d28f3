from functools import partial

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
from qdivstat import io as qio
from qdivstat.limit_laws import (
    TRACELESS_ATOL,
    SupportViolation,
    fidelity_limit,
    maxdiv_gradient,
    maxdiv_limit,
    measured_alt_gradient,
    measured_alt_limit,
    petz_alt_commutative,
    petz_alt_gradient,
    petz_alt_limit,
    petz_null_commutative,
    petz_null_limit,
    qre_alt_commutative,
    qre_alt_gradient,
    qre_alt_limit,
    qre_null_commutative,
    qre_null_limit,
    sandwiched_alt_gradient,
    sandwiched_alt_limit,
    vn_entropy_limit,
)
from qdivstat.divergences import von_neumann_entropy

import directional_limits as directional
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
        rho = np.eye(2) / 2
        with pytest.raises(ValueError, match="^L1 has trace 1.000e\\+00; expected traceless$"):
            qre_null_limit(rho, np.diag([1.0, 0.0]))
        assert qre_null_limit(rho, np.diag([0.5, -0.5])) == pytest.approx(0.5)

    def test_null_pair_of_near_traceless_directions(self):
        # each trace is just inside TRACELESS_ATOL, so each direction is valid; their
        # difference has twice that trace, which only the support check reads
        rho, tr = np.eye(2) / 2, 0.9 * TRACELESS_ATOL
        L1, L2 = np.diag([0.5, -0.5]) + tr / 2 * np.eye(2), np.diag([-0.5, 0.5]) - tr / 2 * np.eye(2)
        # at rho = I/2, D[log rho] is multiplication by 2, so the value is Tr[(L1 - L2)^2]
        assert qre_null_limit(rho, L1, L2) == pytest.approx(2.0)
        with pytest.raises(SupportViolation, match="^directions have mass outside the support of rho$"):
            qre_null_limit(np.diag([1.0, 0.0]), L1, L2)

    def test_direction_support_check(self):
        base = np.diag([1.0, 0.0])
        assert vn_entropy_limit(base, np.diag([0.0, 0.0])) == 0.0
        with pytest.raises(SupportViolation, match="^L has mass outside the support of rho$"):
            vn_entropy_limit(base, np.diag([0.5, -0.5]))


_FIELDS = {"rho": np.diag([0.7, 0.3]), "sigma": np.diag([0.4, 0.6]), "alpha": 1.5}


def _evaluate(name, L1, L2):
    """The functional ``name`` at the rho, sigma and alpha of ``_FIELDS`` and the directions (L1, L2).

    ``name`` is a functional a ``limit eval`` bundle can name, or measured_alt,
    which takes the eigenbasis POVM of diag(1, 2).
    """
    if name == "measured_alt":
        return measured_alt_limit(_FIELDS["rho"], _FIELDS["sigma"], eigenbasis_povm(np.diag([1.0, 2.0])), L1, L2)
    function, keys = qio._LIMIT_FUNCTIONALS[name]
    return function(*(dict(_FIELDS, L1=L1, L2=L2)[key] for key in keys))


_BAD_DIRECTIONS = {
    "non-hermitian": (np.array([[0.0, 1.0], [0.0, 0.0]]), r"matrix is not Hermitian \(asymmetry 1.000e\+00\)"),
    "trace-one": (np.diag([1.0, 0.0]), "has trace 1.000e\\+00; expected traceless"),
    "wrong-dimension": (np.diag([0.5, -0.5, 0.0]), r"has shape \(3, 3\), not \(2, 2\)"),
}


@pytest.mark.parametrize("bad", _BAD_DIRECTIONS)
@pytest.mark.parametrize("name", [*qio._LIMIT_FUNCTIONALS, "measured_alt"])
def test_every_functional_rejects_a_bad_direction(name, bad):
    L, message = _BAD_DIRECTIONS[bad]
    good = np.diag([0.1, -0.1])
    assert np.isfinite(_evaluate(name, good, good))
    # vn_entropy_limit takes one direction, L, which a bundle calls L1
    first = "L" if name == "vn_entropy" else "L1"
    for L2 in (None, good):
        with pytest.raises(ValueError, match=f"^{first}:? {message}$"):
            _evaluate(name, L, L2)
    if name != "vn_entropy":
        with pytest.raises(ValueError, match=f"^L2:? {message}$"):
            _evaluate(name, good, L)


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

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_fidelity_matches_separate_fidelity(self, rng, d):
        # F read off the gradient's decomposition of T, against F computed on its own
        for _ in range(5):
            rho, sigma = rand_state(rng, d), rand_state(rng, d)
            L1, L2 = rand_direction(rng, d), rand_direction(rng, d)
            for l1, l2 in ((L1, L2), (L1, None), (None, L2)):
                got = fidelity_limit(rho, sigma, l1, l2)
                want = -fidelity(rho, sigma) * sandwiched_alt_limit(rho, sigma, 0.5, l1, l2)
                assert abs(got - want) <= 1e-12 * abs(want), (got, want)

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


def count_eigensolves(monkeypatch) -> list[str]:
    """Patch the Hermitian eigensolvers to log their calls; returns the log."""
    calls = []

    def counted(solver):
        def solve(*args, **kwargs):
            calls.append(solver.__name__)
            return solver(*args, **kwargs)
        return solve

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
    return calls


def _functionals(rho, sigma):
    """(name, library functional, directional oracle, gradient, distinct matrices) per alternative case.

    The distinct matrices are rho, sigma and T = rho^(1/2) sigma^q rho^(1/2) where there is one.
    """
    m = eigenbasis_povm(rho - sigma)
    cases = [("qre", partial(qre_alt_limit, rho, sigma), partial(directional.qre_alt, rho, sigma),
              partial(qre_alt_gradient, rho, sigma), 2)]
    cases += [(f"petz-{a}", partial(petz_alt_limit, rho, sigma, a), partial(directional.petz_alt, rho, sigma, a),
               partial(petz_alt_gradient, rho, sigma, a), 2) for a in (0.4, 1.5, 2.0)]
    cases += [(f"sandwiched-{a}", partial(sandwiched_alt_limit, rho, sigma, a),
               partial(directional.sandwiched_alt, rho, sigma, a),
               partial(sandwiched_alt_gradient, rho, sigma, a), 3) for a in (0.5, 0.8, 2.0, 3.0)]
    cases += [("fidelity", partial(fidelity_limit, rho, sigma), partial(directional.fidelity_alt, rho, sigma),
               None, None),
              ("maxdiv", partial(maxdiv_limit, rho, sigma), partial(directional.maxdiv_alt, rho, sigma),
               partial(maxdiv_gradient, rho, sigma), 3),
              ("measured", partial(measured_alt_limit, rho, sigma, m), partial(directional.measured_alt, rho, sigma, m),
               partial(measured_alt_gradient, rho, sigma, m), 0)]
    return cases


class TestGradients:
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_pairing_matches_directional_oracle(self, rng, d):
        for _ in range(3):
            rho, sigma = rand_state(rng, d), rand_state(rng, d)
            L1, L2 = rand_direction(rng, d), rand_direction(rng, d)
            for name, fn, oracle, _, _ in _functionals(rho, sigma):
                for l1, l2 in ((L1, L2), (L1, None), (None, L2)):
                    got, want = fn(l1, l2), oracle(l1, l2)
                    assert abs(got - want) <= 1e-12 * abs(want) + 1e-14, (name, got, want)

    def test_one_eigendecomposition_per_matrix(self, rng, monkeypatch):
        rho, sigma = rand_state(rng, 4), rand_state(rng, 4)
        calls = count_eigensolves(monkeypatch)
        for name, _, _, gradient, matrices in _functionals(rho, sigma):
            if gradient is None:
                continue
            calls.clear()
            g_rho, g_sigma = gradient()
            assert len(calls) <= matrices, (name, calls)
            assert g_rho.shape == g_sigma.shape == (4, 4)

    def test_functionals_decompose_each_matrix_once(self, rng, monkeypatch):
        # the direction checks reuse the decompositions of rho and sigma; qre_alt's
        # gradient decomposes rho compressed to supp(sigma), so its L1 check decomposes rho
        rho, sigma = rand_state(rng, 4), rand_state(rng, 4)
        L1, L2 = rand_direction(rng, 4), rand_direction(rng, 4)
        cases = [("qre_alt", partial(qre_alt_limit, rho, sigma, L1, L2), 3),
                 ("qre_alt-L2", partial(qre_alt_limit, rho, sigma, None, L2), 2),
                 ("qre_null", partial(qre_null_limit, rho, L1, L2), 1),
                 ("vn_entropy", partial(vn_entropy_limit, rho, L1), 1)]
        cases += [(f"petz_null-{a}", partial(petz_null_limit, rho, a, L1, L2), 1) for a in (0.4, 1.5, 2.0)]
        # F comes from the decomposition of T that the order-1/2 gradient takes
        cases += [("fidelity", partial(fidelity_limit, rho, sigma, L1, L2), 3)]
        calls = count_eigensolves(monkeypatch)
        for name, fn, matrices in cases:
            calls.clear()
            assert np.isfinite(fn())
            assert len(calls) <= matrices, (name, calls)

    def test_gradients_live_on_the_support_of_sigma(self):
        rho = np.diag([0.5, 0.5, 0.0])
        sigma = np.diag([0.6, 0.3, 0.1])
        sigma_low = np.diag([0.6, 0.4, 0.0])
        for g in qre_alt_gradient(rho, sigma_low):
            assert np.max(np.abs(g[2])) == 0.0 and np.max(np.abs(g[:, 2])) == 0.0
        with pytest.raises(SupportViolation, match="not supported inside sigma"):
            qre_alt_gradient(sigma, sigma_low)
        with pytest.raises(SupportViolation, match="strictly positive"):
            petz_alt_gradient(rho, sigma, 1.5)
