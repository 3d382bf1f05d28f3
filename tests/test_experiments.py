from functools import partial

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp

from qdivstat.experiments import (
    NULL_KINDS,
    REFERENCE_DRAWS,
    ExperimentConfig,
    _limit_fn,
    alt_limit_variance,
    ks_statistic,
    null_law_weights,
    read_rows_csv,
    run_convergence_experiment,
    sample_reference_law,
)
from qdivstat.divergences import eigenbasis_povm
from qdivstat.frechet import d_log
from qdivstat.limit_laws import qre_null_limit
from qdivstat.pauli_tomography import (
    bernoulli_weights,
    build_pauli_basis,
    qubits_for_dim,
    sample_gaussian_limit,
    variance_v1,
    variance_v2,
)

from conftest import rand_state


def monte_carlo_limit_sample(cfg, draws, seed):
    """The limit functional at independent draws of the Gaussian Pauli directions.

    The per-draw sampler that the exact laws replace, kept as their oracle.
    """
    basis = build_pauli_basis(qubits_for_dim(cfg.dim))
    fn = partial(qre_null_limit, cfg.rho) if cfg.kind in NULL_KINDS else _limit_fn(cfg)
    rng = np.random.default_rng(seed)
    out = np.empty(draws)
    for k in range(draws):
        l1 = sample_gaussian_limit(cfg.rho, basis, rng)
        l2 = sample_gaussian_limit(cfg.sigma, basis, rng) if cfg.two_sample else None
        out[k] = fn(l1, l2)
    return out


class TestKsStatistic:
    def test_gaussian_sample_small_distance(self):
        x = np.random.default_rng(1).normal(size=2000)
        assert ks_statistic(x, ("gaussian", 0.0, 1.0)) <= 0.05

    def test_matches_scipy_one_sample(self):
        x = np.random.default_rng(2).normal(loc=0.3, size=500)
        mine = ks_statistic(x, ("gaussian", 0.0, 1.0))
        ref = kstest(x, "norm").statistic
        assert mine == pytest.approx(ref, abs=1e-12)

    def test_two_sample_self_is_zero(self):
        x = np.random.default_rng(3).normal(size=100)
        assert ks_statistic(x, x) == 0.0

    def test_two_sample_matches_scipy(self):
        r = np.random.default_rng(4)
        x, y = r.normal(size=300), r.normal(0.5, size=400)
        assert ks_statistic(x, y) == pytest.approx(ks_2samp(x, y).statistic, abs=1e-12)

    def test_constant_sample_far_from_gaussian(self):
        assert ks_statistic(np.zeros(50), ("gaussian", 0.0, 1.0)) >= 0.5

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            ks_statistic([1.0], ("gaussian", 0.0, 1.0))
        with pytest.raises(ValueError):
            ks_statistic([1.0, 2.0], ("gaussian", 0.0, 0.0))


class TestConfigValidation:
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

    def test_default_exponents(self, rng):
        rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
        alt = ExperimentConfig(kind="one_sample_alt", rho=rho, sigma=sigma)
        null = ExperimentConfig(kind="one_sample_null", rho=rho)
        assert alt.scaling_exponent == 0.5
        assert null.scaling_exponent == 1.0


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
        rows = read_rows_csv(str(out1))
        assert len(rows) == 240
        assert set(rows[0]) == {"experiment_id", "kind", "d", "alpha", "n",
                                "trial", "statistic", "branch_taken"}
        # rows ordered by (n, trial) and values parse back to floats
        keys = [(int(r["n"]), int(r["trial"])) for r in rows]
        assert keys == sorted(keys)
        assert all(np.isfinite(float(r["statistic"])) for r in rows)
        assert (tmp_path / "a.csv.summary.json").exists()

    def test_reference_law_seeded(self, rng):
        rho = rand_state(rng, 2, 0.2)
        cfg = ExperimentConfig(kind="one_sample_null", rho=rho, trials=100, seed=3)
        a = sample_reference_law(cfg)
        b = sample_reference_law(cfg)
        assert np.array_equal(a, b)
        assert len(a) == REFERENCE_DRAWS
        assert np.all(a >= -1e-10)  # null limit functional is nonnegative

    def test_null_ks_decreases_with_n(self, rng):
        rho = rand_state(rng, 2, min_eig=0.2)
        cfg = ExperimentConfig(kind="one_sample_null", rho=rho,
                               n_grid=(250, 8000), trials=600, seed=17)
        res = run_convergence_experiment(cfg)
        ks = [s["ks"] for s in res["summary"]]
        assert ks[1] < ks[0]


class TestExactLaws:
    @pytest.mark.parametrize("kind", NULL_KINDS)
    @pytest.mark.parametrize("d", [2, 4])
    def test_null_law_matches_monte_carlo(self, rng, kind, d):
        cfg = ExperimentConfig(kind=kind, rho=rand_state(rng, d, 0.1), trials=100, seed=d)
        oracle = monte_carlo_limit_sample(cfg, 2000, seed=100 + d)
        assert ks_statistic(sample_reference_law(cfg), oracle) <= 0.06

    @pytest.mark.parametrize("kind", NULL_KINDS)
    @pytest.mark.parametrize("d", [2, 4])
    def test_null_weights_sum_to_mean(self, rng, kind, d):
        cfg = ExperimentConfig(kind=kind, rho=rand_state(rng, d, 0.1), trials=100)
        basis = build_pauli_basis(qubits_for_dim(d))
        lam = null_law_weights(cfg, basis)
        w = bernoulli_weights(cfg.rho, basis) * (2 if cfg.two_sample else 1)
        diag = [np.trace(g @ d_log(cfg.rho, g).mat).real for g in basis.operators]
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

    @pytest.mark.parametrize("kind,alpha", [("petz", 1.5), ("sandwiched", 2.0), ("measured", None)])
    def test_alt_law_matches_monte_carlo(self, rng, kind, alpha):
        rho, sigma = rand_state(rng, 2, 0.1), rand_state(rng, 2, 0.1)
        cfg = ExperimentConfig(kind=kind, rho=rho, sigma=sigma, alpha=alpha, trials=100)
        cfg.povm_family = [eigenbasis_povm(rho), eigenbasis_povm(sigma)]
        v = alt_limit_variance(cfg, build_pauli_basis(1))
        oracle = monte_carlo_limit_sample(cfg, 2000, seed=7)
        assert ks_statistic(oracle, ("gaussian", 0.0, v)) <= 0.05

    def test_alt_kinds_have_no_reference_sample(self, rng):
        cfg = ExperimentConfig(kind="petz", rho=rand_state(rng, 2), sigma=rand_state(rng, 2),
                               alpha=1.5, trials=100)
        with pytest.raises(ValueError):
            sample_reference_law(cfg)
