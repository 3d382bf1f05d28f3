import csv

import numpy as np
import pytest

from qdivstat import frechet
from qdivstat.frechet import ScalarFn, build_divided_differences, frechet1, frechet2
from qdivstat.operator_core import eig_hermitian, moore_penrose_inverse
from qdivstat.pauli_tomography import build_pauli_basis, variance_v2

from conftest import rand_herm
from frechet_oracles import (
    QuadratureRule,
    finite_difference_check,
    frechet1_log_quadrature,
    frechet2_log_quadrature,
    frechet_power_quadrature,
)


def positive_matrix(rng, dim, spread=10.0):
    """Random Hermitian with spectrum in [1/spread, 1] and Haar-ish eigenbasis."""
    U = eig_hermitian(rand_herm(rng, dim)).eigenvectors
    lam = np.exp(rng.uniform(np.log(1 / spread), 0.0, size=dim))
    return (U * lam) @ U.conj().T


class TestTables:
    def test_log_at_identity_all_ones(self):
        T = build_divided_differences(np.eye(3), "log")
        assert np.allclose(T.first, 1.0)

    def test_log_pair_value(self):
        T = build_divided_differences(np.diag([1.0, np.e]), "log")
        assert T.first[0, 1] == pytest.approx(1 / (np.e - 1))
        assert T.first[1, 0] == pytest.approx(1 / (np.e - 1))

    def test_coalescing_rule(self):
        T = build_divided_differences(np.diag([1.0, 1.0 + 1e-14]), "log")
        # nearly equal eigenvalues switch to f' at the midpoint
        assert T.first[0, 1] == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_is_derivative(self, rng):
        A = positive_matrix(rng, 4)
        T = build_divided_differences(A, ScalarFn.power(0.7))
        lam = T.eigen.eigenvalues
        assert np.allclose(np.diag(T.first), 0.7 * lam ** (-0.3))

    def test_first_table_symmetric(self, rng):
        T = build_divided_differences(positive_matrix(rng, 5), "log")
        assert np.allclose(T.first, T.first.T)

    def test_second_table_is_lazy(self, rng, monkeypatch):
        A = positive_matrix(rng, 4)
        T = build_divided_differences(A, "log")
        assert "second" not in vars(T)
        # D^2 log(A)(I, I) = -A^-2, read from the table built on first access
        inv = np.linalg.inv(A)
        assert np.max(np.abs(frechet2(T, np.eye(4), np.eye(4)).mat + inv @ inv)) < 1e-10
        assert "second" in vars(T)

        def unbuilt(*args):
            raise AssertionError("second-order table built")

        monkeypatch.setattr(frechet, "_dd2", unbuilt)
        T = build_divided_differences(A, "log")
        frechet1(T, rand_herm(rng, 4))
        frechet1(build_divided_differences(A, 0.5), rand_herm(rng, 4))
        variance_v2(A / np.trace(A).real, np.eye(4) / 4, build_pauli_basis(2))
        assert "second" not in vars(T)

    def test_second_table_permutation_invariant(self, rng):
        T = build_divided_differences(positive_matrix(rng, 4), ScalarFn.power(0.5))
        S = T.second
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            assert np.allclose(S, np.transpose(S, perm))

    def test_domain_error(self):
        with pytest.raises(ValueError, match="domain"):
            build_divided_differences(np.diag([1.0, -1.0]), "log")


def exact_divided_differences(name, alpha):
    """50-digit mpmath first and second divided differences of log or x^alpha at doubles."""
    mpmath = pytest.importorskip("mpmath")
    f = mpmath.log if name == "log" else (lambda x: mpmath.power(x, alpha))

    def dd1(x, y):
        with mpmath.workdps(50):
            x, y = mpmath.mpf(x), mpmath.mpf(y)
            return (f(x) - f(y)) / (x - y)

    def dd2(x, y, z):
        with mpmath.workdps(50):
            return (dd1(x, y) - dd1(y, z)) / (mpmath.mpf(x) - mpmath.mpf(z))

    return dd1, dd2


class TestDividedDifferenceAccuracy:
    FNS = [("log", None), ("power", 0.5), ("power", -0.5), ("power", 1.5)]
    TOL = frechet.COALESCE_TOL

    @pytest.mark.parametrize("name,alpha", FNS)
    def test_close_arguments(self, name, alpha):
        # triples (b, b + g, b + 2g) with relative gaps g/b from 1e-12 to 1e-2
        fn = ScalarFn(name, alpha)
        dd1, dd2 = exact_divided_differences(name, alpha)
        worst1 = worst2 = 0.0
        for b in (1e-3, 0.3, 0.9):
            for g in b * np.logspace(-12, -2, 41):
                x, y, z = b, b + g, b + 2 * g
                ref1, ref2 = dd1(x, y), dd2(x, y, z)
                worst1 = max(worst1, float(abs(float(frechet._dd1(fn, x, y, self.TOL)) - ref1) / ref1))
                worst2 = max(worst2, float(abs(float(frechet._dd2(fn, x, y, z, self.TOL)) - ref2) / abs(ref2)))
        assert worst1 <= 1e-14
        assert worst2 <= 1e-6

    @pytest.mark.parametrize("name,alpha", FNS)
    @pytest.mark.parametrize("x,y", [(1e-10, 0.9), (1e-3, 0.9), (0.2, 0.9), (0.45, 0.9)])
    def test_far_arguments(self, name, alpha, x, y):
        # beyond a factor 2 the plain quotient keeps every digit; atanh would not
        ref = exact_divided_differences(name, alpha)[0](x, y)
        got = float(frechet._dd1(ScalarFn(name, alpha), x, y, self.TOL))
        assert float(abs(got - ref) / ref) <= 1e-14


class TestFrechet1:
    def test_log_at_identity_is_identity_map(self, rng):
        H = rand_herm(rng, 3)
        T = build_divided_differences(np.eye(3), "log")
        assert np.allclose(frechet1(T, H).mat, H)

    def test_square_commuting(self):
        A = np.diag([1.0, 3.0])
        H = np.diag([0.5, -2.0])
        assert np.allclose(frechet1(build_divided_differences(A, 2.0), H).mat, 2 * A @ H)

    def test_log_offdiagonal(self):
        T = build_divided_differences(np.diag([1.0, 2.0]), "log")
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(frechet1(T, H).mat, np.log(2.0) * H)

    def test_linearity(self, rng):
        A = positive_matrix(rng, 4)
        T = build_divided_differences(A, "log")
        H1, H2 = rand_herm(rng, 4), rand_herm(rng, 4)
        a, b = 0.7, -1.3
        lhs = frechet1(T, a * H1 + b * H2).mat
        rhs = a * frechet1(T, H1).mat + b * frechet1(T, H2).mat
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_commuting_reduction(self, rng):
        lam = np.array([0.5, 1.0, 2.0])
        A = np.diag(lam)
        H = np.diag(rng.normal(size=3))
        T = build_divided_differences(A, "log")
        assert np.max(np.abs(frechet1(T, H).mat - np.diag(1 / lam) @ H)) < 1e-10

    def test_dimension_mismatch(self):
        T = build_divided_differences(np.eye(2), "log")
        with pytest.raises(ValueError):
            frechet1(T, np.eye(3))

    def test_inverse_power_formula(self, rng):
        # D[A^-1](H) = -A^-1 H A^-1
        A = positive_matrix(rng, 4)
        H = rand_herm(rng, 4)
        inv = moore_penrose_inverse(A).mat
        got = frechet1(build_divided_differences(A, -1.0), H).mat
        assert np.max(np.abs(got + inv @ H @ inv)) < 1e-9

    def test_product_rule_cubic(self, rng):
        # D[A^3](H) = A D[A^2](H) + H A^2, the product rule with f = x, g = x^2;
        # an indefinite A takes the plain quotient at eigenvalues <= 0
        for A in (positive_matrix(rng, 3), rand_herm(rng, 3)):
            H = rand_herm(rng, 3)
            lhs = frechet1(build_divided_differences(A, 3.0), H).mat
            rhs = A @ frechet1(build_divided_differences(A, 2.0), H).mat + H @ A @ A
            assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestFrechet2:
    def test_log_at_identity(self, rng):
        H = rand_herm(rng, 3)
        T = build_divided_differences(np.eye(3), "log")
        assert np.max(np.abs(frechet2(T, H, H).mat + H @ H)) < 1e-10

    def test_zero_direction(self, rng):
        T = build_divided_differences(positive_matrix(rng, 3), ScalarFn.power(0.5))
        H = rand_herm(rng, 3)
        assert np.allclose(frechet2(T, H, np.zeros((3, 3))).mat, 0.0)

    def test_square_exact(self, rng):
        A = positive_matrix(rng, 4)
        T = build_divided_differences(A, ScalarFn.power(2))
        H1, H2 = rand_herm(rng, 4), rand_herm(rng, 4)
        assert np.max(np.abs(frechet2(T, H1, H2).mat - (H1 @ H2 + H2 @ H1))) < 1e-10

    def test_symmetric_bilinear(self, rng):
        T = build_divided_differences(positive_matrix(rng, 4), "log")
        H1, H2 = rand_herm(rng, 4), rand_herm(rng, 4)
        assert np.allclose(frechet2(T, H1, H2).mat, frechet2(T, H2, H1).mat)


class TestQuadratureOracle:
    def test_rule_invariants(self):
        # window log(0.1) - 40 .. log(1) + 40 in steps of 0.5: ceil(82.30 / 0.5) + 1 nodes
        rule = QuadratureRule.log_trapezoid(0.1, 1.0, step=0.5)
        assert rule.node_count == 166
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)

    def test_log_identity_case(self):
        got = frechet1_log_quadrature(np.eye(2), np.eye(2)).mat
        assert np.max(np.abs(got - np.eye(2))) < 1e-8

    def test_log_diagonal_case(self):
        A = np.diag([1.0, 2.0])
        H = np.diag([3.0, 5.0])
        got = frechet1_log_quadrature(A, H).mat
        assert np.max(np.abs(got - np.diag([3.0, 2.5]))) < 1e-8

    def test_power_identity_case(self):
        got = frechet_power_quadrature(np.eye(2), np.eye(2), 0.5).mat
        assert np.max(np.abs(got - np.eye(2) / 2)) < 1e-9

    def test_power_commuting_case(self, rng):
        lam = np.array([0.4, 1.3, 2.2])
        h = rng.normal(size=3)
        for alpha in (0.3, 0.5, 1.5, -0.5):
            got = frechet_power_quadrature(np.diag(lam), np.diag(h), alpha).mat
            want = np.diag(alpha * lam ** (alpha - 1) * h)
            assert np.max(np.abs(got - want)) < 1e-9, alpha

    def test_error_estimate_reported(self, rng):
        A = positive_matrix(rng, 3)
        H = rand_herm(rng, 3)
        val, est = frechet1_log_quadrature(A, H, return_error_estimate=True)
        T = build_divided_differences(A, "log")
        true_err = np.max(np.abs(val.mat - frechet1(T, H).mat))
        assert true_err < max(est, 1e-9)

    def test_rejects_invalid_inputs(self, rng):
        A = positive_matrix(rng, 2)
        H = rand_herm(rng, 2)
        with pytest.raises(ValueError):
            frechet1_log_quadrature(np.diag([1.0, -0.5]), H)
        with pytest.raises(ValueError):
            frechet_power_quadrature(A, H, 2.5)
        with pytest.raises(ValueError):
            frechet_power_quadrature(A, H, 0.5, order=2)  # H2 missing
        with pytest.raises(ValueError):
            frechet_power_quadrature(A, H, 0.5, order=3, H2=H)

    def test_oracle_agreement_with_csv_log(self, rng, tmp_path):
        # divided differences vs quadrature on random strictly positive inputs,
        # eigenvalue spread up to 1e3; rows are emitted in the exchange format
        path = tmp_path / "oracle_agreement.csv"
        rows = []
        for seed in range(50):
            local = np.random.default_rng(seed)
            d = int(local.choice([2, 3, 4]))
            A = positive_matrix(local, d, spread=1e3)
            H = rand_herm(local, d)
            T = build_divided_differences(A, "log")
            err = float(np.max(np.abs(frechet1(T, H).mat - frechet1_log_quadrature(A, H).mat)))
            rows.append(("log", d, seed, err))
            err2 = float(np.max(np.abs(frechet2(T, H, H).mat - frechet2_log_quadrature(A, H, H).mat)))
            rows.append(("log_second", d, seed, err2))
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("fn", "d", "seed", "max_abs_err"))
            w.writerows(rows)
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 100
        assert all(float(r["max_abs_err"]) <= 1e-6 for r in parsed)
        assert all(float(r["max_abs_err"]) <= 1e-7 for r in parsed if r["fn"] == "log")

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5, -0.5])
    def test_oracle_agreement_powers(self, alpha):
        for seed in range(12):
            local = np.random.default_rng(1000 + seed)
            A = positive_matrix(local, 3, spread=1e3)
            H = rand_herm(local, 3)
            T = build_divided_differences(A, ScalarFn.power(alpha))
            err = np.max(np.abs(frechet1(T, H).mat - frechet_power_quadrature(A, H, alpha).mat))
            assert err <= 1e-6

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5, -0.5])
    def test_oracle_agreement_powers_second_order(self, alpha):
        # second-order power integrands reach magnitude ~1/lam_min^(2.5); at
        # spread 1e3 the 1e-6 absolute target would sit below the double
        # precision floor, so the cross-check runs at spread 1e2
        for seed in range(12):
            local = np.random.default_rng(2000 + seed)
            A = positive_matrix(local, 3, spread=1e2)
            H = rand_herm(local, 3)
            T = build_divided_differences(A, ScalarFn.power(alpha))
            err2 = np.max(np.abs(frechet2(T, H, H).mat
                                 - frechet_power_quadrature(A, H, alpha, order=2, H2=H).mat))
            assert err2 <= 1e-6


class TestFiniteDifference:
    def test_log_at_identity(self):
        err = finite_difference_check("log", np.eye(2), np.eye(2), 1e-4)
        assert err <= 1e-7

    def test_h_squared_scaling(self, rng):
        A = positive_matrix(rng, 3, spread=5.0)
        H = rand_herm(rng, 3)
        e1 = finite_difference_check(ScalarFn.power(0.5), A, H, 2e-3)
        e2 = finite_difference_check(ScalarFn.power(0.5), A, H, 1e-3)
        assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    def test_near_singular_reports_error_value(self):
        A = np.diag([1.0, 1e-9])
        H = np.diag([0.0, 1e-10])
        err = finite_difference_check("log", A, H, 1e-12)
        assert np.isfinite(err)

    def test_domain_violation_raises(self):
        with pytest.raises(ValueError):
            finite_difference_check("log", np.diag([1.0, 1e-6]), np.eye(2), 0.1)
