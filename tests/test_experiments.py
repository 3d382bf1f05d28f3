import contextvars
import csv
import hashlib
import json
import math
import re
import sys
import threading
from functools import lru_cache, partial

import mpmath
import numpy as np
import pytest
from scipy.special import gammainc
from scipy.stats import kstest

from qdivstat import pauli_tomography
from qdivstat.experiments import (
    ALT_KINDS,
    CSV_FIELDS,
    NULL_KINDS,
    ROW_DTYPE,
    ExperimentConfig,
    alt_limit_variance,
    ks_statistic,
    null_law_weights,
    run_convergence_experiment,
    weighted_chi2_cdf,
    write_rows_csv,
)
from qdivstat import divergences
from qdivstat import experiments
from qdivstat.divergences import (
    eigenbasis_povm,
    log_with_kernel,
    measured_relative_entropy,
    umegaki,
)
from qdivstat.frechet import build_divided_differences, frechet1
from qdivstat.operator_core import hermitian_part
from qdivstat.limit_laws import qre_null_limit
from qdivstat.pauli_tomography import (
    bernoulli_weights,
    build_pauli_basis,
    estimate_sigma_stack,
    estimate_stack,
    qubits_for_dim,
    variance_v1,
    variance_v2,
)
from qdivstat.hypothesis_testing import simulate_error_rates
from qdivstat.random_ops import haar_unitary

import directional_limits as directional
import scalar_divergences as scalar
from conftest import normal_cdf, pauli_operators, rand_state, replay_record, two_hypotheses
from oracles import sample_gaussian_limit


def per_record_rows(cfg, divergence):
    """(n, trial, statistic, branch) per (n, trial): each trial replayed alone, the oracle of the batched loop."""
    basis = build_pauli_basis(qubits_for_dim(cfg.dim))
    center = divergence(cfg.rho, cfg.sigma) if cfg.kind in ALT_KINDS else 0.0
    rows = []
    for n in cfg.n_grid:
        for t in range(cfg.trials):
            mats, _, projected = estimate_stack(replay_record(cfg.rho, basis, n, t, cfg.seed, n, 0), n, basis)
            rho_hat, branch, sigma_hat = hermitian_part(mats[0]), bool(projected[0]), cfg.sigma
            if cfg.two_sample:
                S, projected = estimate_sigma_stack(replay_record(cfg.sigma, basis, n, t, cfg.seed, n, 1), n, basis)
                sigma_hat, branch = hermitian_part(S.reassemble()[0]), branch or bool(projected[0])
            rows.append((n, t, n**cfg.scaling_exponent * (divergence(rho_hat, sigma_hat) - center), branch))
    return rows


def write_rows_csv_reference(cfg, rows, path):
    """The row writer that ``write_rows_csv`` must match byte for byte: one csv.writer call per record."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_FIELDS)
        for r in rows:
            w.writerow([cfg.experiment_id, cfg.kind, cfg.dim,
                        "" if cfg.alpha is None else repr(cfg.alpha),
                        r.n, r.trial_index, repr(float(r.statistic)), int(r.branch_taken)])


def assert_csv_matches_row_writer(cfg, rows, tmp_path):
    write_rows_csv(cfg, rows, str(tmp_path / "got.csv"))
    write_rows_csv_reference(cfg, rows, str(tmp_path / "want.csv"))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def near_pure_state(rng, d):
    """Eigenvalues (0.997, 0.001, ...) in a Haar basis: most small-n estimates need projecting."""
    lam = np.full(d, 0.001)
    lam[0] = 1.0 - 0.001 * (d - 1)
    U = haar_unitary(d, rng)
    return (U * lam) @ U.conj().T


def limit_functional(cfg):
    """The kind's limit functional of (L1, L2); the directional form in the alternative case."""
    rho, sigma = cfg.rho, cfg.sigma
    if cfg.kind in NULL_KINDS:
        return partial(qre_null_limit, rho)
    if cfg.kind in ("one_sample_alt", "two_sample_alt"):
        return partial(directional.qre_alt, rho, sigma)
    if cfg.kind == "petz":
        return partial(directional.petz_alt, rho, sigma, cfg.alpha)
    if cfg.kind == "sandwiched":
        return partial(directional.sandwiched_alt, rho, sigma, cfg.alpha)
    m_star = cfg.povm_family[measured_relative_entropy(rho, sigma, cfg.povm_family)[1]]
    return partial(directional.measured_alt, rho, sigma, m_star)


def monte_carlo_limit_sample(cfg, draws, seed):
    """The limit functional at independent draws of the Gaussian Pauli directions.

    The per-draw sampler that the exact laws replace, kept as their oracle.
    """
    basis = build_pauli_basis(qubits_for_dim(cfg.dim))
    fn = limit_functional(cfg)
    rng = np.random.default_rng(seed)
    out = np.empty(draws)
    for k in range(draws):
        l1 = sample_gaussian_limit(cfg.rho, basis, rng)
        l2 = sample_gaussian_limit(cfg.sigma, basis, rng) if cfg.two_sample else None
        out[k] = fn(l1, l2)
    return out


def weighted_sum_sample(weights, draws, rng):
    """Draws of sum_k lam_k Z_k^2 one weight at a time: the per-draw sampler that the exact CDF replaced."""
    out = np.zeros(draws)
    for weight in weights:
        out += weight * np.square(rng.standard_normal(draws))
    return out


def imhof_cdf(weights, xs):
    """P(sum_k lam_k Z_k^2 <= x) by Imhof's integral in 30-digit ``mpmath.quad``: the oracle of ``weighted_chi2_cdf``.

    F(x) = 1/2 - (1/pi) Im int_0^inf (phi(u) e^(-iux/2) - e^(-u)) du / u, phi(u) = prod_k (1 - i lam_k u)^(-1/2),
    taken on the ray u = r e^(-i pi/4): the branch points -i / lam_k lie outside the sector between the ray and the
    real axis, and e^(-u) removes the pole at 0 without changing the imaginary part.  phi is one product and one
    square root per node, whose sign is read off the double-precision phase sum of the factors; the nodes repeat
    across x, so phi is cached.  The quadrature stops at degree 5: on the tested weights degree 6 moves it by 2e-14.
    """
    w = np.asarray(weights, dtype=float)
    with mpmath.workdps(30):
        rot = mpmath.expjpi(mpmath.mpf(-0.25))
        slopes = [-1j * rot * mpmath.mpf(v) for v in w]

        @lru_cache(maxsize=None)
        def terms(r):
            root = mpmath.sqrt(mpmath.fprod(1 + a * r for a in slopes))
            if math.cos(float(mpmath.arg(root)) - np.sum(np.angle(1 - 1j * w * complex(r * rot))) / 2) < 0:
                root = -root
            return 1 / root, mpmath.exp(-r * rot)

        scale = 1 / mpmath.mpf(w.max())
        out = []
        for x in xs:
            b = -0.5j * rot * mpmath.mpf(x)

            def integrand(r):
                phi, pole = terms(r)
                return ((phi * mpmath.exp(b * r) - pole) / r).imag

            out.append(float(0.5 - mpmath.quad(integrand, [0, scale, 10 * scale, mpmath.inf], maxdegree=5) / mpmath.pi))
    return np.array(out)


class TestKsStatistic:
    def test_gaussian_sample_small_distance(self):
        x = np.random.default_rng(1).normal(size=2000)
        assert ks_statistic(x, normal_cdf(1.0)) <= 0.05

    def test_matches_scipy_one_sample(self):
        x = np.random.default_rng(2).normal(loc=0.3, size=500)
        mine = ks_statistic(x, normal_cdf(1.0))
        ref = kstest(x, "norm").statistic
        assert mine == pytest.approx(ref, abs=1e-12)

    def test_constant_sample_far_from_gaussian(self):
        assert ks_statistic(np.zeros(50), normal_cdf(1.0)) >= 0.5

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            ks_statistic([1.0], normal_cdf(1.0))


class TestNormalCdf:
    @pytest.mark.parametrize("var", [1.0, 0.37, 12.5])
    def test_matches_mpmath(self, var):
        # 2000 standardized points of [-37, 9]; bound 5e-16 absolute, set before measuring
        x = np.linspace(-37.0, 9.0, 2000) * math.sqrt(var)
        with mpmath.workdps(40):
            sd = mpmath.sqrt(mpmath.mpf(var))
            ref = np.array([float(mpmath.ncdf(mpmath.mpf(t), sigma=sd)) for t in x])
        assert np.max(np.abs(experiments._normal_cdf(var)(x) - ref)) <= 5e-16

    def test_median_and_limits(self):
        assert experiments._normal_cdf(2.0)(np.array([-np.inf, 0.0, np.inf])).tolist() == [0.0, 0.5, 1.0]


class TestWeightedChi2Cdf:
    @pytest.mark.parametrize("k", [3, 15, 63])
    @pytest.mark.parametrize("weight", [1.0, 0.013])
    def test_equal_weights_are_scaled_chi2(self, k, weight):
        x = weight * np.linspace(0.0, k + 15 * math.sqrt(k) + 60, 4001)
        assert np.max(np.abs(weighted_chi2_cdf(np.full(k, weight))(x) - gammainc(k / 2, x / (2 * weight)))) <= 1e-12

    def test_six_qubit_weight_count(self):
        # 4095 weights: on Imhof's own ray the integrand would reach 2^(4095/4) before cancelling
        x = np.linspace(3000.0, 5200.0, 4001)
        assert np.max(np.abs(weighted_chi2_cdf(np.ones(4095))(x) - gammainc(4095 / 2, x / 2))) <= 1e-9

    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("min_eig", [0.1, 1e-3])
    def test_null_weights_match_mpmath(self, rng, d, min_eig):
        cfg = ExperimentConfig(kind="one_sample_null", rho=rand_state(rng, d, min_eig), trials=100)
        lam = null_law_weights(cfg, build_pauli_basis(qubits_for_dim(d)))
        x = np.concatenate([[1e-3], lam.sum() * np.array([0.5, 1.0, 2.0])])
        assert np.max(np.abs(weighted_chi2_cdf(lam)(x) - imhof_cdf(lam, x))) <= 1e-9

    def test_matches_weighted_sum_sampler(self, rng):
        cfg = ExperimentConfig(kind="two_sample_null", rho=rand_state(rng, 4, 0.1), trials=100)
        lam = null_law_weights(cfg, build_pauli_basis(2))
        # 0.0115: the KS critical value at level 0.01 for 20000 draws
        assert ks_statistic(weighted_sum_sample(lam, 20_000, np.random.default_rng(8)), weighted_chi2_cdf(lam)) <= 0.0115

    @pytest.mark.parametrize("r", [1.0, 1e-2])
    def test_spread_weights_match_mpmath(self, r):
        # two weights (r, 1), from r x 1e-2 to far in the tail; bound 1e-10 set before running.  At r = 1e-3 the
        # degree-96 interpolant in sqrt(x) misses the small-scale feature near 0 (5.9e-7 near x = 3.5e-4, see README)
        w = np.array([r, 1.0])
        x = np.concatenate([np.geomspace(r * 1e-2, 1.0, 15), np.linspace(1.5, 20.0, 8)])
        assert np.max(np.abs(weighted_chi2_cdf(w)(x) - imhof_cdf(w, x))) <= 1e-10

    def test_range_and_bad_weights(self):
        cdf = weighted_chi2_cdf([0.5, 0.2, 0.1])
        assert cdf(-1.0) == 0.0 and cdf(0.0) == 0.0 and cdf(np.inf) == 1.0
        assert np.all(np.diff(cdf(np.linspace(0.0, 20.0, 2001))) >= -1e-13)
        for bad in ([0.5, 0.0], [0.5, -0.1], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="positive"):
                weighted_chi2_cdf(bad)


class TestConfigValidation:
    @pytest.mark.parametrize("kind, role", [("one_sample_alt", "rho"), ("one_sample_alt", "sigma"),
                                            ("two_sample_alt", "sigma"), ("one_sample_null", "rho")])
    def test_run_rejects_non_unit_trace(self, kind, role):
        bad, good = 1.5 * np.diag([0.7, 0.3]), np.diag([0.4, 0.6])
        rho, sigma = (bad, good) if role == "rho" else (good, bad)
        cfg = ExperimentConfig(kind=kind, rho=rho, sigma=None if kind in NULL_KINDS else sigma,
                               n_grid=(100,), trials=100)
        with pytest.raises(ValueError, match=f"^{role} has trace off 1 by 5.000e-01"):
            run_convergence_experiment(cfg)

    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="bogus", rho=rand_state(rng, 2))

    def test_needs_sigma_for_alt(self, rng):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="two_sample_alt", rho=rand_state(rng, 2))

    def test_null_forces_equal_states(self, rng):
        rho = rand_state(rng, 2)
        cfg = ExperimentConfig(kind="one_sample_null", rho=rho)
        assert np.array_equal(cfg.sigma, cfg.rho)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="one_sample_null", rho=rho, sigma=rand_state(rng, 2))

    def test_trials_floor(self, rng):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="one_sample_alt", rho=rho, sigma=sigma, trials=50)

    def test_n_grid_must_ascend(self, rng):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        with pytest.raises(ValueError):
            ExperimentConfig(kind="one_sample_alt", rho=rho, sigma=sigma, n_grid=(100, 100))

    def test_alpha_required(self, rng):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="petz", rho=rand_state(rng, 2), sigma=rand_state(rng, 2))

    @pytest.mark.parametrize("kind,alpha", [("sandwiched", 0.2), ("petz", 2.5), ("petz", 1), ("petz", "1.5"),
                                            ("sandwiched", None)])
    def test_alpha_checked_where_built(self, rng, kind, alpha):
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig(kind=kind, rho=rand_state(rng, 2), sigma=rand_state(rng, 2), alpha=alpha)

    def test_alpha_stored_as_float(self, rng):
        cfg = ExperimentConfig(kind="petz", rho=rand_state(rng, 2), sigma=rand_state(rng, 2), alpha=np.int64(2))
        assert type(cfg.alpha) is float and cfg.alpha == 2.0

    @pytest.mark.parametrize("field, value, name", [("n_grid", (100.8, 1000), "n_grid entry"),
                                                    ("n_grid", (True, 1000), "n_grid entry"),
                                                    ("trials", 150.9, "trials"), ("seed", 1.5, "seed")])
    def test_counts_must_be_integers(self, rng, field, value, name):
        bad = value[0] if field == "n_grid" else value
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            ExperimentConfig(kind="one_sample_null", rho=rand_state(rng, 2), **{field: value})

    def test_numpy_integer_counts_stored_as_int(self, rng, tmp_path):
        out = tmp_path / "rows.csv"
        cfg = ExperimentConfig(kind="one_sample_null", rho=rand_state(rng, 2), n_grid=(np.int64(100),),
                               trials=np.int32(100), seed=np.uint8(3), output_path=str(out))
        assert [type(v) for v in (*cfg.n_grid, cfg.trials, cfg.seed)] == [int] * 3
        run_convergence_experiment(cfg)
        assert json.loads((tmp_path / "rows.csv.summary.json").read_text())["seed"] == 3

    def test_default_exponents(self, rng):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        alt = ExperimentConfig(kind="one_sample_alt", rho=rho, sigma=sigma)
        null = ExperimentConfig(kind="one_sample_null", rho=rho)
        assert alt.scaling_exponent == 0.5
        assert null.scaling_exponent == 1.0

    @pytest.mark.parametrize("exponent", [0.0, -0.5, math.nan, math.inf])
    def test_exponent_must_be_positive_and_finite(self, rng, exponent):
        with pytest.raises(ValueError, match="scaling_exponent must be positive and finite"):
            ExperimentConfig(kind="one_sample_null", rho=rand_state(rng, 2), scaling_exponent=exponent)


class TestRuns:
    def test_one_sample_alt_variance_tracks_prediction(self, rng):
        rho = rand_state(rng, 2, min_eig=0.15)
        sigma = rand_state(rng, 2, min_eig=0.15)
        cfg = ExperimentConfig(kind="one_sample_alt", rho=rho, sigma=sigma,
                               n_grid=(4000,), trials=400, seed=21)
        res = run_convergence_experiment(cfg)
        s = res["summary"][0]
        assert abs(s["var"] - s["v_pred"]) / s["v_pred"] < 0.35
        assert abs(s["mean"]) < 0.3
        assert s["ks"] < 0.12

    def test_null_statistic_stable_in_n(self, rng):
        rho = rand_state(rng, 2, min_eig=0.2)
        cfg = ExperimentConfig(kind="one_sample_null", rho=rho,
                               n_grid=(500, 4000), trials=300, seed=5)
        res = run_convergence_experiment(cfg)
        v = [s["var"] for s in res["summary"]]
        assert 0.4 <= v[1] / v[0] <= 2.5
        assert res["summary"][-1]["ks"] < 0.12

    def test_misspecified_exponent_variance_drifts(self, rng):
        rho = rand_state(rng, 2, min_eig=0.2)
        cfg = ExperimentConfig(kind="one_sample_null", rho=rho, scaling_exponent=0.5,
                               n_grid=(500, 4000), trials=200, seed=5)
        res = run_convergence_experiment(cfg)
        v = [s["var"] for s in res["summary"]]
        assert max(v) / min(v) > 5

    @pytest.mark.parametrize("kind,alpha", [("petz", 1.5), ("sandwiched", 2.0), ("measured", None)])
    def test_other_divergence_kinds_run(self, rng, kind, alpha):
        rho = rand_state(rng, 2, min_eig=0.2)
        sigma = rand_state(rng, 2, min_eig=0.2)
        cfg = ExperimentConfig(kind=kind, rho=rho, sigma=sigma, alpha=alpha,
                               n_grid=(2000,), trials=150, seed=8)
        res = run_convergence_experiment(cfg)
        s = res["summary"][0]
        assert np.isfinite(s["mean"]) and s["var"] > 0
        assert s["ks"] < 0.25

    def test_csv_round_trip_and_determinism(self, rng, tmp_path):
        rho, sigma = rand_state(rng, 2, 0.1), rand_state(rng, 2, 0.1)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            cfg = ExperimentConfig(kind="one_sample_alt", rho=rho, sigma=sigma,
                                   n_grid=(200, 400), trials=120, seed=33,
                                   output_path=str(out))
            run_convergence_experiment(cfg)
        assert out1.read_bytes() == out2.read_bytes()
        with open(out1, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 240
        assert set(rows[0]) == {"experiment_id", "kind", "d", "alpha", "n",
                                "trial", "statistic", "branch_taken"}
        # rows ordered by (n, trial) and values parse back to floats
        keys = [(int(r["n"]), int(r["trial"])) for r in rows]
        assert keys == sorted(keys)
        assert all(np.isfinite(float(r["statistic"])) for r in rows)
        summary = (tmp_path / "a.csv.summary.json").read_bytes()
        assert summary == (tmp_path / "b.csv.summary.json").read_bytes()

    def test_csv_bytes_match_row_writer(self, rng, tmp_path):
        rho, sigma = rand_state(rng, 2, 0.1), rand_state(rng, 2, 0.1)
        cases = [ExperimentConfig(kind="one_sample_alt", rho=rho, sigma=sigma, n_grid=(200, 400),
                                  trials=120, seed=33, experiment_id='run, "quoted" 100%d\r\nnext line'),
                 ExperimentConfig(kind="petz", rho=rho, sigma=sigma, alpha=1.5, n_grid=(300,),
                                  trials=100, seed=34)]
        for cfg in cases:
            rows = run_convergence_experiment(cfg)["rows"]
            assert_csv_matches_row_writer(cfg, rows, tmp_path)
        stats = [math.inf, -math.inf, math.nan, -0.0, 1e-300, 2.5]
        flags = [True, False, True, False, False, True]
        hand_built = np.rec.fromrecords([(n, t, *row) for n in (5, 7) for t, row in enumerate(zip(stats, flags))],
                                        dtype=ROW_DTYPE)
        assert_csv_matches_row_writer(cases[1], hand_built, tmp_path)

    def test_csv_bytes_pinned(self, tmp_path):
        # sha256 of the CSV bytes of these seeded runs: the d = 4 digest is the one
        # the per-record writer wrote; the d = 2 digest is that of the closed-form
        # 2x2 eigensolver and its two-point reassembly of log sigma, whose rows
        # differ from LAPACK's in their last digits
        rng = np.random.default_rng(11)
        rho, sigma, rho4 = rand_state(rng, 2, 0.1), rand_state(rng, 2, 0.1), rand_state(rng, 4, 0.1)
        cases = [(ExperimentConfig(kind="two_sample_alt", rho=rho, sigma=sigma, n_grid=(200, 2000), trials=200,
                                   seed=51, output_path=str(tmp_path / "alt.csv")),
                  "f0b041b09c32b30a58d0bd825e187e7eedde0ba69b52a2cddd603f386aed2881"),
                 (ExperimentConfig(kind="one_sample_null", rho=rho4, n_grid=(200, 2000), trials=200,
                                   seed=52, output_path=str(tmp_path / "null.csv")),
                  "b4c89035a917b0e765b21595060dfa776292d187ff89815b8f89ffb8a1b414aa")]
        for cfg, digest in cases:
            run_convergence_experiment(cfg)
            with open(cfg.output_path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, cfg.kind

    def test_null_ks_decreases_with_n(self, rng):
        rho = rand_state(rng, 2, min_eig=0.2)
        # 4000 trials from n = 20 to 8000: at 600 trials from n = 250 the
        # difference in KS sat below its sampling noise
        cfg = ExperimentConfig(kind="one_sample_null", rho=rho,
                               n_grid=(20, 8000), trials=4000, seed=17)
        res = run_convergence_experiment(cfg)
        ks = [s["ks"] for s in res["summary"]]
        assert ks[1] < ks[0]


class TestExactLaws:
    @pytest.mark.parametrize("kind", NULL_KINDS)
    @pytest.mark.parametrize("d", [2, 4])
    def test_null_law_matches_monte_carlo(self, rng, kind, d):
        cfg = ExperimentConfig(kind=kind, rho=rand_state(rng, d, 0.1), trials=100, seed=d)
        oracle = monte_carlo_limit_sample(cfg, 2000, seed=100 + d)
        lam = null_law_weights(cfg, build_pauli_basis(qubits_for_dim(d)))
        assert ks_statistic(oracle, weighted_chi2_cdf(lam)) <= 0.06

    @pytest.mark.parametrize("kind", NULL_KINDS)
    @pytest.mark.parametrize("d", [2, 4])
    def test_null_weights_sum_to_mean(self, rng, kind, d):
        cfg = ExperimentConfig(kind=kind, rho=rand_state(rng, d, 0.1), trials=100)
        basis = build_pauli_basis(qubits_for_dim(d))
        lam = null_law_weights(cfg, basis)
        w = bernoulli_weights(cfg.rho, basis) * (2 if cfg.two_sample else 1)
        table = build_divided_differences(cfg.rho, "log")
        diag = [np.trace(g @ frechet1(table, g)).real for g in pauli_operators(basis)]
        mean = 0.5 * float(np.dot(w, diag))
        assert abs(lam.sum() - mean) <= 1e-12 * mean
        assert lam[0] > 0

    @pytest.mark.parametrize("d", [2, 4])
    def test_linear_variance_matches_closed_forms(self, rng, d):
        rho, sigma = rand_state(rng, d, 0.1), rand_state(rng, d, 0.1)
        basis = build_pauli_basis(qubits_for_dim(d))
        for kind, closed in (("one_sample_alt", variance_v1), ("two_sample_alt", variance_v2)):
            cfg = ExperimentConfig(kind=kind, rho=rho, sigma=sigma, trials=100)
            v = closed(rho, sigma, basis)
            assert abs(alt_limit_variance(cfg, basis) - v) <= 1e-12 * v

    @pytest.mark.parametrize("kind", NULL_KINDS)
    @pytest.mark.parametrize("d", [2, 4])
    def test_null_weights_match_operator_loop(self, rng, kind, d):
        cfg = ExperimentConfig(kind=kind, rho=rand_state(rng, d, 0.1), trials=100)
        basis = build_pauli_basis(qubits_for_dim(d))
        table = build_divided_differences(cfg.rho, "log")
        s = np.sqrt(bernoulli_weights(cfg.rho, basis) * (2.0 if cfg.two_sample else 1.0))
        form = np.column_stack([s * basis.coefficients(frechet1(table, g)) for g in pauli_operators(basis)])
        want = np.linalg.eigvalsh(form * (0.5 * s))
        assert np.max(np.abs(null_law_weights(cfg, basis) - want) / want) <= 1e-12

    @pytest.mark.parametrize("kind,alpha", [("one_sample_alt", None), ("two_sample_alt", None), ("petz", 0.4),
                                            ("petz", 1.5), ("sandwiched", 0.5), ("sandwiched", 2.0),
                                            ("measured", None)])
    @pytest.mark.parametrize("d", [2, 4])
    def test_alt_variance_matches_operator_loop(self, rng, kind, alpha, d):
        rho, sigma = rand_state(rng, d, 0.1), rand_state(rng, d, 0.1)
        cfg = ExperimentConfig(kind=kind, rho=rho, sigma=sigma, alpha=alpha, trials=100)
        basis = build_pauli_basis(qubits_for_dim(d))
        fn = limit_functional(cfg)
        zero = np.zeros((d, d))
        want = bernoulli_weights(rho, basis) @ np.square([fn(g, zero) for g in pauli_operators(basis)])
        if cfg.two_sample:
            want += bernoulli_weights(sigma, basis) @ np.square([fn(zero, g) for g in pauli_operators(basis)])
        assert abs(alt_limit_variance(cfg, basis) - want) <= 1e-12 * want

    def test_measured_default_family(self, rng):
        rho, sigma = rand_state(rng, 2, 0.1), rand_state(rng, 2, 0.1)
        cfg = ExperimentConfig(kind="measured", rho=rho, sigma=sigma, n_grid=(1000,), trials=100)
        family = cfg.povm_family
        assert len(family) == 3
        assert alt_limit_variance(cfg, build_pauli_basis(1)) > 0
        run_convergence_experiment(cfg)
        assert cfg.povm_family is family

    @pytest.mark.parametrize("kind", ["one_sample_alt", "two_sample_alt"])
    def test_degenerate_alt_law_fails_before_trials(self, rng, monkeypatch, kind):
        rho = rand_state(rng, 2, 0.1)
        cfg = ExperimentConfig(kind=kind, rho=rho, sigma=rho.copy(), n_grid=(100, 1000), trials=100)
        assert alt_limit_variance(cfg, build_pauli_basis(1)) <= experiments.DEGENERATE_V_PRED

        drawn = []
        monkeypatch.setattr(experiments, "sample_counts", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=r"v_pred = .*null kind \(one_sample_null, two_sample_null\)"):
            run_convergence_experiment(cfg)
        assert drawn == []  # recorded, not raised: an exception on the worker thread would not reach this test

    def test_null_kinds_have_no_gaussian_variance(self, rng):
        cfg = ExperimentConfig(kind="one_sample_null", rho=rand_state(rng, 2), trials=100)
        with pytest.raises(ValueError, match="chi-squared"):
            alt_limit_variance(cfg, build_pauli_basis(1))

    @pytest.mark.parametrize("kind,alpha", [("petz", 1.5), ("sandwiched", 2.0), ("measured", None)])
    def test_alt_law_matches_monte_carlo(self, rng, kind, alpha):
        rho, sigma = rand_state(rng, 2, 0.1), rand_state(rng, 2, 0.1)
        cfg = ExperimentConfig(kind=kind, rho=rho, sigma=sigma, alpha=alpha, trials=100)
        cfg.povm_family = [eigenbasis_povm(rho), eigenbasis_povm(sigma)]
        v = alt_limit_variance(cfg, build_pauli_basis(1))
        oracle = monte_carlo_limit_sample(cfg, 2000, seed=7)
        assert ks_statistic(oracle, normal_cdf(v)) <= 0.05


class TestBatchedTrials:
    @pytest.mark.parametrize("kind,d,alpha", [("one_sample_null", 4, None), ("two_sample_alt", 4, None),
                                              ("petz", 2, 1.5), ("petz", 4, 0.4), ("sandwiched", 2, 2.0),
                                              ("measured", 2, None)])
    def test_matches_per_record_oracle(self, rng, kind, d, alpha):
        rho = near_pure_state(rng, d)
        sigma = rand_state(rng, d, 0.1) if kind in ALT_KINDS else None
        cfg = ExperimentConfig(kind=kind, rho=rho, sigma=sigma, alpha=alpha,
                               n_grid=(100, 1000), trials=100, seed=41)
        divergence = {"petz": lambda r, s: scalar.petz_renyi(r, s, alpha)[0],
                      "sandwiched": lambda r, s: scalar.sandwiched_renyi(r, s, alpha)[0],
                      "measured": lambda r, s: scalar.measured_relative_entropy(r, s, cfg.povm_family)[0],
                      }.get(kind, lambda r, s: umegaki(r, s).value)
        oracle = per_record_rows(cfg, divergence)
        rows = run_convergence_experiment(cfg)["rows"]
        assert isinstance(rows, np.recarray)
        assert [rows.dtype[k] for k in range(4)] == [np.dtype(np.int64), np.dtype(np.int64),
                                                     np.dtype(np.float64), np.dtype(bool)]
        assert len(rows) == len(cfg.n_grid) * cfg.trials
        got = rows.tolist()
        # one row per (n, trial) in that order, the oracle's flags exactly, its statistics to rounding
        assert [(n, t, flag) for n, t, _, flag in got] == [(n, t, flag) for n, t, _, flag in oracle]
        for (n, _, stat, _), (_, _, want, _) in zip(got, oracle):
            assert abs(stat - want) / n**cfg.scaling_exponent <= 1e-12
        if d == 4:
            assert rows.branch_taken.sum() > len(rows) / 2

    @pytest.mark.parametrize("kind", ["one_sample_null", "two_sample_alt"])
    def test_chunks_do_not_change_rows(self, rng, monkeypatch, kind):
        rho = near_pure_state(rng, 4)
        sigma = rand_state(rng, 4, 0.1) if kind in ALT_KINDS else None
        cfg = ExperimentConfig(kind=kind, rho=rho, sigma=sigma, n_grid=(100, 1000), trials=100, seed=43)
        whole = run_convergence_experiment(cfg)["rows"]
        monkeypatch.setattr(pauli_tomography, "STACK_ENTRIES", 7 * 4 * 4)
        assert [len(c) for c in pauli_tomography.trial_chunks(100, 4)] == [7] * 14 + [2]
        assert np.array_equal(run_convergence_experiment(cfg)["rows"], whole)

    def test_fixed_sigma_log_built_once(self, rng, monkeypatch):
        cfg = ExperimentConfig(kind="one_sample_alt", rho=rand_state(rng, 4, 0.1), sigma=rand_state(rng, 4, 0.1),
                               n_grid=(100, 1000), trials=100, seed=43)
        builds = []

        def counted(s):
            builds.append(s)
            return log_with_kernel(s)

        for module in (divergences, experiments):
            monkeypatch.setattr(module, "log_with_kernel", counted)
        monkeypatch.setattr(pauli_tomography, "STACK_ENTRIES", 7 * 4 * 4)
        run_convergence_experiment(cfg)
        # one for the centre D(rho || sigma), one shared by the 30 trial stacks
        assert len(builds) == 2


class TestNullLawThread:
    """A run draws its counts, and a null experiment builds its law, on one worker thread (tests/test_worker.py)."""

    @staticmethod
    def config(rng, kind="one_sample_null", **kw):
        return ExperimentConfig(kind=kind, rho=rand_state(rng, 2, 0.1), n_grid=(100, 1000), trials=100, seed=61, **kw)

    def test_law_error_reaches_caller_and_nothing_is_written(self, rng, monkeypatch, tmp_path):
        raised = []

        def failing(cfg, basis):
            raised.append(ValueError("weights failed at 3 qubits"))
            raise raised[-1]

        monkeypatch.setattr(experiments, "null_law_weights", failing)
        out = tmp_path / "rows.csv"
        before = threading.active_count()
        with pytest.raises(ValueError, match=r"^weights failed at 3 qubits$") as info:
            run_convergence_experiment(self.config(rng, output_path=str(out)))
        assert info.value is raised[0]
        assert threading.active_count() == before
        assert list(tmp_path.iterdir()) == []

    def test_caller_context_reaches_the_law(self, rng, monkeypatch):
        var = contextvars.ContextVar("var", default="unset")
        seen = []

        def reading(cfg, basis):
            seen.append((var.get(), np.geterr()["divide"], threading.get_ident()))
            return null_law_weights(cfg, basis)

        monkeypatch.setattr(experiments, "null_law_weights", reading)
        before = threading.active_count()
        token = var.set("caller")
        try:
            with np.errstate(divide="raise"):
                run_convergence_experiment(self.config(rng))
        finally:
            var.reset(token)
        assert seen[0][0] == "caller" and seen[0][2] != threading.get_ident()
        if np.lib.NumpyVersion(np.__version__) >= "2.0.0":  # numpy 2 keeps np.errstate in a context variable
            assert seen[0][1] == "raise"
        assert threading.active_count() == before

    def test_concurrent_runs_match_serial_runs(self, rng, monkeypatch):
        # five callers, each with its own worker, on two cores, switching every microsecond; stacks of 7 trials
        # give every run more stacks than its worker holds values
        monkeypatch.setattr(pauli_tomography, "STACK_ENTRIES", 7 * 2 * 2)
        cfgs = [self.config(rng, kind) for kind in (*NULL_KINDS, "one_sample_null")]
        calls = [partial(run_convergence_experiment, cfg) for cfg in cfgs] + [
            partial(simulate_error_rates, *two_hypotheses(), tau=0.3, n=20, trials=150, seed=seed)
            for seed in (17, 18)]
        serial = [call() for call in calls]
        results = [None] * len(calls)

        def run(i):
            results[i] = calls[i]()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for got, want in zip(results[:len(cfgs)], serial):
            assert np.array_equal(got["rows"], want["rows"]) and got["summary"] == want["summary"]
        assert results[len(cfgs):] == serial[len(cfgs):] and serial[-2] != serial[-1]

    @pytest.mark.parametrize("kind", (*NULL_KINDS, "two_sample_alt", "petz", "measured"))
    def test_ks_equals_inline_law(self, rng, kind):
        alt = {"sigma": rand_state(rng, 2, 0.1), "alpha": 1.5 if kind == "petz" else None} if kind in ALT_KINDS else {}
        cfg = self.config(rng, kind, **alt)
        res = run_convergence_experiment(cfg)
        basis = build_pauli_basis(1)
        if kind in ALT_KINDS:
            v_pred = alt_limit_variance(cfg, basis)
            cdf = experiments._normal_cdf(v_pred)
        else:
            v_pred, cdf = None, weighted_chi2_cdf(null_law_weights(cfg, basis))
        stats = res["rows"].statistic.reshape(len(cfg.n_grid), cfg.trials)
        assert [s["v_pred"] for s in res["summary"]] == [v_pred] * len(cfg.n_grid)
        assert [s["ks"] for s in res["summary"]] == [ks_statistic(row, cdf) for row in stats]

    @pytest.mark.parametrize("kind, states", [("one_sample_null", 1), ("two_sample_alt", 2)])
    def test_each_state_transformed_once(self, rng, monkeypatch, kind, states):
        given, draw = [], experiments.sample_counts

        def recorded(state, *args):
            given.append(state)
            return draw(state, *args)

        monkeypatch.setattr(experiments, "sample_counts", recorded)
        monkeypatch.setattr(pauli_tomography, "STACK_ENTRIES", 7 * 4 * 4)
        sigma = rand_state(rng, 4, 0.1) if kind in ALT_KINDS else None
        cfg = ExperimentConfig(kind=kind, rho=rand_state(rng, 4, 0.1), sigma=sigma, n_grid=(100, 1000), trials=100,
                               seed=63)
        run_convergence_experiment(cfg)
        # every one of the 30 trial stacks per side draws from the one Bloch vector of its state
        assert len(given) == 30 * states
        assert all(b.shape == (15,) for b in given) and len({id(b) for b in given}) == states
