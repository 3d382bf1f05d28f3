import hashlib
import json
import math
import re

import mpmath
import numpy as np
import pytest
from scipy.stats import norm

from qdivstat import divergences, hypothesis_testing, pauli_tomography
from qdivstat.divergences import log_with_kernel, umegaki, umegaki_spectral
from qdivstat.hypothesis_testing import (
    HypothesisGrid,
    decide,
    inverse_q,
    min_eigenvalue_bound,
    simulate_error_rates,
    threshold_c,
    wilson_interval,
)
from qdivstat.operator_core import eig_hermitian
from qdivstat.pauli_tomography import (
    _WORKER_AHEAD,
    bloch_coefficients,
    build_pauli_basis,
    estimate_stack,
    reconstruct,
    sample_counts,
    variance_v1,
)
from qdivstat.random_ops import haar_unitary, random_density, random_density_spectrum
from conftest import rand_state, replay_record, two_hypotheses


class TestInverseQ:
    def test_median(self):
        assert inverse_q(0.5) == 0.0

    def test_area_values(self):
        assert inverse_q(0.158655) == pytest.approx(1.0, abs=1e-5)
        assert inverse_q(0.022750) == pytest.approx(2.0, abs=1e-5)

    def test_against_scipy_oracle(self):
        for tau in np.concatenate([np.linspace(1e-6, 1 - 1e-6, 41), [1e-9, 1 - 1e-9]]):
            assert abs(inverse_q(tau) - norm.isf(tau)) <= 1e-9, tau

    def test_against_mpmath_root(self):
        # the root z of log Q(z) = log tau at 40 digits; bound 2e-15 max(1, |z|) set before measuring
        taus = np.concatenate([10.0 ** -np.arange(300, 1, -13), np.linspace(0.02, 0.98, 25),
                               1 - 10.0 ** -np.arange(2, 16)])
        with mpmath.workdps(40):
            for tau in taus:
                z = inverse_q(tau)
                log_tau = mpmath.log(mpmath.mpf(tau))
                root = mpmath.findroot(lambda t: mpmath.log(mpmath.ncdf(-t)) - log_tau, mpmath.mpf(z))
                assert abs(z - float(root)) <= 2e-15 * max(1.0, abs(float(root))), tau

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                inverse_q(bad)


class TestThreshold:
    def test_at_half(self):
        assert threshold_c(0.5, 3, 0.1) == 0.0

    def test_worked_example(self):
        # tau = Q(2), d = 2, b = 1/e: threshold 2*2*2*1 = 8
        tau = float(norm.sf(2.0))
        assert threshold_c(tau, 2, math.exp(-1)) == pytest.approx(8.0, abs=1e-8)

    def test_exact_composition(self):
        for tau in (0.01, 0.05, 0.3):
            for d in (2, 4):
                for b in (0.05, 0.4):
                    assert threshold_c(tau, d, b) == 2 * d * inverse_q(tau) * abs(math.log(b))

    def test_monotonicity(self):
        taus = [0.01, 0.05, 0.2, 0.4]
        cs = [threshold_c(t, 2, 0.2) for t in taus]
        assert all(a >= b for a, b in zip(cs, cs[1:]))
        bs = [0.5, 0.2, 0.05, 0.01]
        cs = [threshold_c(0.05, 2, b) for b in bs]
        assert all(a <= b for a, b in zip(cs, cs[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            threshold_c(0.05, 2, 1.5)
        with pytest.raises(ValueError):
            threshold_c(0.05, 0, 0.5)


class TestEigenvalueBound:
    def test_maximally_mixed(self):
        assert min_eigenvalue_bound([np.eye(4) / 4]) == pytest.approx(0.25)

    def test_pairs(self):
        b = min_eigenvalue_bound([np.diag([0.75, 0.25]), np.diag([0.5, 0.5])])
        assert b == pytest.approx(0.25)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            min_eigenvalue_bound([np.diag([1.0, 0.0])])

    def test_names_culprit(self):
        with pytest.raises(ValueError, match="^state 1 has non-positive eigenvalue"):
            min_eigenvalue_bound([np.eye(2) / 2, np.diag([1.0, 0.0])])


def decided_index(x, n, grid, c):
    """The hypothesis that statistic x decides, from the definition of the shifted buckets.

    With s = c/sqrt(n), x decides i when eps_i + s < x <= eps_(i+1) + s; at or
    below eps_0 + s it decides 0, and above the top boundary it decides none (-1).
    """
    s = c / math.sqrt(n)
    eps = grid.epsilons
    if x <= eps[0] + s:
        return 0
    for i in range(len(eps) - 1):
        if eps[i] + s < x <= eps[i + 1] + s:
            return i
    return -1


class TestGridAndDecide:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            HypothesisGrid((0.3, 0.1))
        with pytest.raises(ValueError):
            HypothesisGrid((-0.1, 0.2))
        with pytest.raises(ValueError):
            HypothesisGrid((0.5,))
        for eps in [(0.0, math.nan), (math.nan, 0.5), (0.0, math.nan, 1.0)]:
            with pytest.raises(ValueError, match="NaN"):
                HypothesisGrid(eps)
        g = HypothesisGrid((0.0, 0.1, 0.4))
        assert g.hypothesis_count == 2
        assert g.bucket(0.05) == 0 and g.bucket(0.2) == 1 and g.bucket(0.5) is None

    def test_infinite_top_threshold(self):
        g = HypothesisGrid((0.0, 0.1, math.inf))
        assert g.bucket(1e300) == 1 and g.bucket(math.inf) == 1
        assert decide(np.array([0.05, 1e300]), 100, g, 0.0).tolist() == [0, 1]

    def test_decide_inside_interval(self):
        g = HypothesisGrid((0.0, 0.1, 0.3, 0.6))
        assert decide(0.25, 10**6, g, 1.0) == decided_index(0.25, 10**6, g, 1.0) == 1

    def test_boundary_right_closed(self):
        g = HypothesisGrid((0.0, 0.1, 0.3))
        n, c = 100, 1.0
        x = 0.1 + c / math.sqrt(n)
        assert decide(x, n, g, c) == decided_index(x, n, g, c) == 0
        above = np.nextafter(x, np.inf)
        assert decide(above, n, g, c) == decided_index(above, n, g, c) == 1

    def test_below_bottom_maps_to_zero(self):
        g = HypothesisGrid((0.2, 0.4))
        assert decide(0.0, 100, g, 1.0) == decided_index(0.0, 100, g, 1.0) == 0

    def test_above_top_is_none(self):
        g = HypothesisGrid((0.0, 0.1))
        assert decide(5.0, 100, g, 1.0) == decided_index(5.0, 100, g, 1.0) == -1

    def test_shift_vanishes_with_n(self):
        g = HypothesisGrid((0.0, 0.1, 0.3))
        d_hat = 0.15
        assert decide(d_hat, 10, g, 2.0) == decided_index(d_hat, 10, g, 2.0) != 1
        assert decide(d_hat, 10**8, g, 2.0) == decided_index(d_hat, 10**8, g, 2.0) == 1

    def test_stacked_decisions_match_decide(self, rng):
        g = HypothesisGrid((0.0, 0.1, 0.3, 0.7))
        n, c = 50, 0.8
        bounds = np.array(g.epsilons) + c / math.sqrt(n)
        x = np.concatenate([rng.uniform(-0.5, 1.5, size=200), bounds, np.nextafter(bounds, np.inf),
                            np.nextafter(bounds, -np.inf), [np.inf]])
        expected = [decided_index(float(v), n, g, c) for v in x]
        assert decide(x, n, g, c).tolist() == expected
        assert -1 in expected and expected.count(0) > 2

    def test_partition(self, rng):
        g = HypothesisGrid((0.0, 0.1, 0.3, 0.7))
        n, c = 50, 0.8
        s = c / math.sqrt(n)
        intervals = [(lo + s, hi + s) for lo, hi in zip(g.epsilons, g.epsilons[1:])]
        x = rng.uniform(-0.5, 1.5, size=200)
        for v, got in zip(x, decide(x, n, g, c).tolist()):
            hits = [i for i, (lo, hi) in enumerate(intervals) if lo < v <= hi]
            assert len(hits) <= 1
            if hits:
                assert got == hits[0]
            else:
                assert got == (0 if v <= intervals[0][0] else -1)

    def test_sample_size_must_be_positive(self):
        with pytest.raises(ValueError, match="sample size"):
            decide(0.1, 0, HypothesisGrid((0.0, 1.0)), 1.0)


class TestWilson:
    def test_no_errors(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and 0.0 < hi < 0.05

    def test_all_errors(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo > 0.95

    def test_half(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert hi - 0.5 == pytest.approx(0.5 - lo, abs=1e-12)


class TestSimulation:
    def _scenario(self, rng):
        basis = build_pauli_basis(1)
        sigma = np.eye(2) / 2
        states = [reconstruct(np.array([0.0, 0.0, s3]), basis) for s3 in (0.3, 0.8)]
        divs = [umegaki(r, sigma).value for r in states]
        eps = (0.0, (divs[0] + divs[1]) / 2, divs[1] + 0.2)
        return states, sigma, HypothesisGrid(eps), basis

    def test_validates_bucket_placement(self, rng):
        states, sigma, grid, basis = self._scenario(rng)
        with pytest.raises(ValueError, match="outside bucket"):
            simulate_error_rates([states[1], states[0]], sigma, grid,
                                 tau=0.2, n=100, trials=10, seed=1, basis=basis)

    @pytest.mark.parametrize("state, sigma, culprit", [
        # a zero eigenvalue of the state, or one of sigma with the state's leak below tol
        (np.diag([0.9, 0.1, 0.0, 0.0]), np.eye(4) / 4, "state 0"),
        (np.diag([0.9, 0.1 - 2e-10, 1e-10, 1e-10]), np.diag([0.5, 0.5, 0.0, 0.0]), "sigma"),
    ])
    def test_eigenvalue_bound_names_culprit(self, state, sigma, culprit):
        grid = HypothesisGrid((0.0, 2.0))
        with pytest.raises(ValueError, match=f"^{culprit} has non-positive eigenvalue"):
            simulate_error_rates([state], sigma, grid, tau=0.2, n=100, trials=1, seed=1)
        assert simulate_error_rates([state], sigma, grid, tau=0.2, n=100, trials=1, seed=1, b=0.1)

    @pytest.mark.parametrize("role", ["state", "sigma"])
    def test_rejects_non_unit_trace(self, role):
        # trace 1.5: the bucket check alone would accept it, with D = 0.732 against I/2
        bad, good = 1.5 * np.diag([0.7, 0.3]), np.eye(2) / 2
        states, sigma, culprit = ([bad], good, "state 0") if role == "state" else ([good], bad, "sigma")
        with pytest.raises(ValueError, match=f"^{culprit} has trace off 1 by 5.000e-01"):
            simulate_error_rates(states, sigma, HypothesisGrid((0.0, 1.0)), tau=0.2, n=100, trials=10, seed=1)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="^state 0 has negative eigenvalue"):
            simulate_error_rates([np.diag([1.1, -0.1])], np.eye(2) / 2, HypothesisGrid((0.0, 2.0)),
                                 tau=0.2, n=100, trials=10, seed=1, b=0.1)

    def test_validates_trials(self, rng):
        states, sigma, grid, basis = self._scenario(rng)
        with pytest.raises(ValueError):
            simulate_error_rates(states, sigma, grid, tau=0.2, n=100, trials=0, seed=1)

    @pytest.mark.parametrize("arg, value", [("n", 100.8), ("n", True), ("trials", 150.9), ("seed", 1.5)])
    def test_counts_must_be_integers(self, rng, arg, value):
        states, sigma, grid, basis = self._scenario(rng)
        counts = dict(n=100, trials=10, seed=1) | {arg: value}
        with pytest.raises(ValueError, match=f"^{arg} must be an integer, got {re.escape(repr(value))}$"):
            simulate_error_rates(states, sigma, grid, tau=0.2, basis=basis, **counts)

    def test_numpy_integer_counts(self, rng):
        states, sigma, grid, basis = self._scenario(rng)
        want = simulate_error_rates(states, sigma, grid, tau=0.3, n=200, trials=40, seed=5, basis=basis)
        got = simulate_error_rates(states, sigma, grid, tau=0.3, n=np.int64(200), trials=np.int32(40),
                                   seed=np.uint8(5), basis=basis)
        assert got == want and all(type(r["copies_used"]) is int and type(r["trials"]) is int for r in got)

    def test_deterministic(self, rng):
        states, sigma, grid, basis = self._scenario(rng)
        a = simulate_error_rates(states, sigma, grid, tau=0.3, n=200, trials=40, seed=5, basis=basis)
        b = simulate_error_rates(states, sigma, grid, tau=0.3, n=200, trials=40, seed=5, basis=basis)
        assert a == b

    def test_row_contents(self, rng):
        states, sigma, grid, basis = self._scenario(rng)
        rows = simulate_error_rates(states, sigma, grid, tau=0.3, n=300, trials=50, seed=2, basis=basis)
        assert [r["hypothesis"] for r in rows] == [0, 1]
        for r in rows:
            assert r["copies_used"] == 300 * 3
            assert 0.0 <= r["wilson_low"] <= r["rate"] <= r["wilson_high"] <= 1.0
            assert r["errors"] <= r["trials"]

    def test_variance_bound_from_threshold_proof(self, rng):
        # v1^2(rho_i, sigma) <= 4 d^2 (log b)^2 for all scenario states
        states, sigma, grid, basis = self._scenario(rng)
        b = min_eigenvalue_bound(states + [sigma])
        for r in states:
            assert variance_v1(r, sigma, basis) <= 4 * 4 * math.log(b) ** 2 + 1e-12

    def test_sigma_log_built_once(self, rng, monkeypatch):
        states, sigma, grid, basis = self._scenario(rng)
        builds = []

        def counted(s):
            builds.append(s)
            return log_with_kernel(s)

        for module in (divergences, hypothesis_testing):
            monkeypatch.setattr(module, "log_with_kernel", counted)
        monkeypatch.setattr(pauli_tomography, "STACK_ENTRIES", 7 * 4)
        simulate_error_rates(states, sigma, grid, tau=0.3, n=200, trials=40, seed=5, basis=basis)
        assert len(builds) == 1

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_matches_per_record_oracle(self, monkeypatch, chunk):
        # at n = 20 the estimates of the nearly pure second state often leave the Bloch ball
        basis = build_pauli_basis(1)
        sigma = np.eye(2) / 2
        states = [reconstruct(np.array([0.1, 0.0, s3]), basis) for s3 in (0.3, 0.95)]
        divs = [umegaki(r, sigma).value for r in states]
        grid = HypothesisGrid((0.0, (divs[0] + divs[1]) / 2, divs[1] + 0.2))
        n, trials, c = 20, 150, 0.5
        if chunk:
            monkeypatch.setattr(pauli_tomography, "STACK_ENTRIES", chunk * 4)
        rows = simulate_error_rates(states, sigma, grid, tau=0.3, n=n, trials=trials, seed=17,
                                    basis=basis, c=c)
        for i, rho in enumerate(states):
            errors = projected = 0
            for t in range(trials):
                mats, _, branch = estimate_stack(replay_record(rho, basis, n, t, 17, i), n, basis)
                errors += decided_index(umegaki(mats[0], sigma).value, n, grid, c) != i
                projected += branch[0]
            assert rows[i]["errors"] == errors
            assert rows[i]["projection_fraction"] == projected / trials
        assert rows[1]["projection_fraction"] > 0

    @pytest.mark.parametrize("stack_trials", [None, 7])
    def test_rows_pinned(self, monkeypatch, stack_trials):
        # sha256 of the rows of two seeded runs that reach the exact path with nonzero
        # errors: the screen settles 60% and 0% of the two_hypotheses trials, none of
        # the d = 4 ones; stacks of 7 trials must give the same rows
        if stack_trials:
            monkeypatch.setattr(pauli_tomography, "STACK_ENTRIES", stack_trials * 16)
        runs = [(two_hypotheses(), dict(tau=0.3, n=20, trials=150, seed=17, c=0.5),
                 "0b593822e9558f0736dd2a719fefa6a4230ed712e46dde27f2dd5c3afd9c2dda"),
                (_random_scenario(np.random.default_rng(1), 4), dict(tau=0.2, n=200, trials=300, seed=23, c=0.3),
                 "e1c4497c6f42e3fd5cd14ecb8382dd35e830dd2a2c5b6bc326af63ab09fa5c6f")]
        for scenario, kwargs, digest in runs:
            rows = simulate_error_rates(*scenario, **kwargs)
            assert all(r["errors"] > 0 and r["screened_fraction"] < 1 for r in rows)
            assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == digest

    def test_seed_derivation_stable(self):
        # the stream of one (seed, hypothesis) repeats; its rows and hypotheses differ
        basis, rho = build_pauli_basis(1), np.eye(2) / 2
        counts = sample_counts(rho, basis, 1000, range(32), 7, 1)
        assert np.array_equal(counts, sample_counts(rho, basis, 1000, range(32), 7, 1))
        assert not np.array_equal(counts[:16], counts[16:])
        assert not np.array_equal(counts, sample_counts(rho, basis, 1000, range(32), 7, 2))

    def test_borderline_flagging(self, rng):
        # tiny shift margin at small n: rates may exceed tau, which is flagged
        # as borderline or gross rather than hidden
        states, sigma, grid, basis = self._scenario(rng)
        rows = simulate_error_rates(states, sigma, grid, tau=0.01, n=50,
                                    trials=60, seed=11, basis=basis)
        for r in rows:
            assert r["borderline"] == (r["rate"] > 0.01 and not r["gross_exceedance"])
            assert set(r) >= {"borderline", "gross_exceedance", "projection_fraction"}


def _random_scenario(rng, d):
    """sigma and two random full-rank states, in increasing D, each inside its bucket."""
    sigma = random_density(d, rng, min_eig=0.02)
    states = sorted((random_density(d, rng, min_eig=0.01) for _ in range(2)),
                    key=lambda rho: umegaki(rho, sigma).value)
    divs = [umegaki(rho, sigma).value for rho in states]
    return states, sigma, HypothesisGrid((0.0, (divs[0] + divs[1]) / 2, divs[1] + 0.3))


def _exact_rows(monkeypatch, *args, **kwargs):
    """The rows with every trial on the exact path: an infinite slack settles none."""
    with monkeypatch.context() as m:
        m.setattr(hypothesis_testing, "_DECISION_SLACK", math.inf)
        return simulate_error_rates(*args, **kwargs)


def _without_screened(rows):
    return [{k: v for k, v in r.items() if k != "screened_fraction"} for r in rows]


class TestFirstOrderScreen:
    """Trials settled from their counts by the Taylor remainder bound give the exact path's rows."""

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_interval_contains_statistic(self, rng, d):
        basis = build_pauli_basis(d.bit_length() - 1)
        covered = 0
        for n in (20, 200, 10**4, 10**6):
            rho, sigma = rand_state(rng, d, 0.3 / d), rand_state(rng, d, 0.3 / d)
            sig_log = log_with_kernel(sigma)
            lam = np.linalg.eigvalsh(rho)
            d0 = float(umegaki_spectral(rho, lam, sig_log))
            screen = hypothesis_testing._first_order_screen(eig_hermitian(rho), sig_log, basis)
            counts = sample_counts(rho, basis, n, range(400), 3, n)
            s = bloch_coefficients(rho, basis)
            low, high = hypothesis_testing._first_order_interval(counts, n, s, screen, d0)
            rho_hat, lam_hat, projected = estimate_stack(counts, n, basis)
            d_hat = umegaki_spectral(rho_hat, lam_hat, sig_log)
            finite = np.isfinite(high)
            assert np.all(low[finite] <= d_hat[finite] + 1e-12)
            assert np.all(d_hat[finite] <= high[finite] + 1e-12)
            # a finite interval proves the estimate a state: it is never projected
            assert not projected[finite].any()
            assert np.isneginf(low[~finite]).all()
            covered += int(finite.sum())
        assert covered > 400

    @pytest.mark.parametrize("d", [2, 4, 8])
    @pytest.mark.parametrize("c", [None, 0.0])
    def test_rows_match_exact_path(self, rng, monkeypatch, d, c):
        screened = exact = 0
        for n in (20, 300, 10**4, 10**5, 10**7):
            states, sigma, grid = _random_scenario(rng, d)
            kwargs = dict(tau=0.2, n=n, trials=120, seed=n, c=c)
            rows = simulate_error_rates(states, sigma, grid, **kwargs)
            reference = _exact_rows(monkeypatch, states, sigma, grid, **kwargs)
            assert all(r["screened_fraction"] == 0 for r in reference)
            assert _without_screened(rows) == _without_screened(reference)
            fractions = [r["screened_fraction"] for r in rows]
            screened += sum(fractions)
            exact += sum(1 - f for f in fractions)
        assert screened > 0 and exact > 0

    def test_boundary_inside_remainder_interval(self, monkeypatch):
        # the upper boundary of bucket 0 sits 0.5 standard deviations of D_hat above D(rho || sigma),
        # so trials near it need the exact path and the others are screened
        basis = build_pauli_basis(1)
        sigma = np.eye(2) / 2
        states = [reconstruct(np.array([0.2, 0.0, s3]), basis) for s3 in (0.3, 0.9)]
        divs = [umegaki(r, sigma).value for r in states]
        n = 2000
        edge = divs[0] + 0.5 * math.sqrt(variance_v1(states[0], sigma, basis) / n)
        grid = HypothesisGrid((0.0, edge, divs[1] + 0.2))
        kwargs = dict(tau=0.2, n=n, trials=400, seed=4, basis=basis, c=0.0)
        rows = simulate_error_rates(states, sigma, grid, **kwargs)
        assert 0 < rows[0]["screened_fraction"] < 1
        assert 0 < rows[0]["errors"] < rows[0]["trials"]
        assert _without_screened(rows) == _without_screened(_exact_rows(monkeypatch, states, sigma, grid, **kwargs))

    def test_six_qubits_more_hypotheses_than_worker_slots(self, monkeypatch):
        # six states at d = 64 in three stacks each, more than the worker holds: at n = 1e5 the
        # screen settles no trial and most err, at 1e7 it settles every trial of all states but the last
        rng, d = np.random.default_rng(64), 64
        sigma = np.eye(d) / d
        states = [random_density_spectrum(np.linspace(1 - a, 1 + a, d) / d, rng)
                  for a in np.linspace(0.3, 0.9, 6)]
        divs = [umegaki(rho, sigma).value for rho in states]
        grid = HypothesisGrid((0.0, *((a + b) / 2 for a, b in zip(divs, divs[1:])), 1.0))
        assert len(states) > _WORKER_AHEAD
        for n, screened, erring in ((10**5, 0, True), (10**7, 5, False)):
            kwargs = dict(tau=0.2, n=n, trials=40, seed=6, c=0.0)
            rows = simulate_error_rates(states, sigma, grid, **kwargs)
            assert sum(r["screened_fraction"] for r in rows) == screened
            assert any(r["errors"] for r in rows) == erring
            reference = _exact_rows(monkeypatch, states, sigma, grid, **kwargs)
            assert _without_screened(rows) == _without_screened(reference)

    @pytest.mark.parametrize("state, sigma", [
        (np.diag([0.9, 0.1, 0.0, 0.0]), np.eye(4) / 4),
        (np.diag([0.9, 0.1 - 2e-10, 1e-10, 1e-10]), np.diag([0.5, 0.5, 0.0, 0.0])),
    ])
    def test_singular_state_or_sigma_is_not_screened(self, state, sigma):
        rows = simulate_error_rates([state], sigma, HypothesisGrid((0.0, 2.0)), tau=0.2, n=10**6,
                                    trials=20, seed=1, b=0.1)
        assert rows[0]["screened_fraction"] == 0

    def test_six_qubits_all_screened(self, rng):
        # a Haar-rotated spectrum at the sample size of the 6-qubit benchmark
        d = 64
        lam = np.linspace(0.5, 1.5, d) / d
        U = haar_unitary(d, rng)
        rho = (U * lam) @ U.conj().T
        sigma = np.eye(d) / d
        rows = simulate_error_rates([rho], sigma, HypothesisGrid((0.0, 1.0)), tau=0.05, n=10**8,
                                    trials=20, seed=2)
        assert rows[0]["screened_fraction"] == 1
        assert rows[0]["errors"] == 0 and rows[0]["projection_fraction"] == 0
