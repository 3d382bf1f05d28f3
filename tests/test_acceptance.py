"""Acceptance suite: one test per acceptance criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line per
criterion.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import numpy as np
import pytest

from qdivstat.divergences import (
    eigenbasis_povm,
    fidelity,
    max_divergence,
    measured_relative_entropy,
    petz_renyi,
    sandwiched_renyi,
    trivial_povm,
    umegaki,
    umegaki_spectral,
    von_neumann_entropy,
    Povm,
)
from qdivstat.experiments import ExperimentConfig, ks_statistic, run_convergence_experiment
from qdivstat.frechet import ScalarFn, build_divided_differences, frechet1
from qdivstat.hypothesis_testing import (
    HypothesisGrid,
    min_eigenvalue_bound,
    simulate_error_rates,
    threshold_c,
)
from qdivstat.limit_laws import (
    fidelity_limit,
    maxdiv_limit,
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
from qdivstat.operator_core import (
    eig_hermitian,
    project_to_density,
    schatten_norm,
)
from qdivstat.pauli_tomography import (
    build_pauli_basis,
    estimate_sigma_stack,
    estimate_stack,
    sample_counts,
    variance_v1,
    variance_v2,
)
from qdivstat.random_ops import haar_unitary, random_density, random_hermitian, random_traceless

from conftest import normal_cdf, pauli_operators
from frechet_oracles import frechet1_log_quadrature, frechet_power_quadrature


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def conditioned_positive(rng, dim, cond_max=1e3):
    U = eig_hermitian(random_hermitian(dim, rng).mat).eigenvectors
    cond = np.exp(rng.uniform(0, np.log(cond_max)))
    lam = np.exp(rng.uniform(np.log(1 / cond), 0.0, size=dim))
    lam[0], lam[-1] = 1 / cond, 1.0
    return (U * lam) @ U.conj().T


def test_frechet_correctness():
    """Criterion: finite-difference O(h^2) slope and quadrature agreement <= 1e-6."""
    rng = np.random.default_rng(101)
    fns = [ScalarFn.log(), ScalarFn.power(0.3), ScalarFn.power(0.5), ScalarFn.power(1.5)]
    ratios = []
    quad_errs = []
    for i in range(100):
        d = (2, 4, 8)[i % 3]
        A = conditioned_positive(rng, d)
        H = random_hermitian(d, rng).mat
        H = H / schatten_norm(H, np.inf)
        lam_min = float(np.linalg.eigvalsh(A)[0])
        h0 = lam_min / 8
        for fn in fns:
            T = build_divided_differences(A, fn)
            deriv = frechet1(T, H).mat
            errs = []
            for h in (h0, h0 / 2, h0 / 4):
                fwd = eig_hermitian(A + h * H)
                bwd = eig_hermitian(A - h * H)
                central = (fwd.reassemble(fn.f(fwd.eigenvalues))
                           - bwd.reassemble(fn.f(bwd.eigenvalues))) / (2 * h)
                errs.append(schatten_norm(central - deriv, 1))
            ratios.extend([errs[0] / errs[1], errs[1] / errs[2]])
            if fn.name == "log":
                q = frechet1_log_quadrature(A, H).mat
            else:
                q = frechet_power_quadrature(A, H, fn.alpha).mat
            quad_errs.append(float(np.max(np.abs(deriv - q))))
    ratios = np.array(ratios)
    in_band = np.mean((ratios >= 3.4) & (ratios <= 4.6))
    med = float(np.median(ratios))
    ok = 3.4 <= med <= 4.6 and in_band >= 0.95 and max(quad_errs) <= 1e-6
    report("frechet-correctness", ok,
           f"median halving ratio {med:.3f}, {in_band:.0%} of ratios in [3.4, 4.6], "
           f"max quadrature gap {max(quad_errs):.2e} (<= 1e-6)")


def test_divergence_identities():
    """Criterion: entropy identity, fidelity identity, classical reductions, ordering chains."""
    rng = np.random.default_rng(202)
    worst = {"eq3": 0.0, "fid": 0.0, "comm": 0.0, "order": 0.0}
    for i in range(200):
        d = (2, 3, 4)[i % 3]
        rho = random_density(d, rng, min_eig=0.02).mat
        sigma = random_density(d, rng, min_eig=0.02).mat
        # entropy vs relative entropy to the maximally mixed state
        gap = abs(von_neumann_entropy(rho) + umegaki(rho, np.eye(d) / d).value - np.log(d))
        worst["eq3"] = max(worst["eq3"], gap)
        # order 1/2 sandwiched divergence vs fidelity
        gap = abs(sandwiched_renyi(rho, sigma, 0.5).value + np.log(fidelity(rho, sigma)))
        worst["fid"] = max(worst["fid"], gap)
        # commuting quantum divergences reduce to their classical counterparts
        p = np.sort(np.linalg.eigvalsh(rho))
        q = np.sort(np.linalg.eigvalsh(sigma))
        dp, dq = np.diag(p), np.diag(q)
        gap = abs(umegaki(dp, dq).value - np.sum(p * np.log(p / q)))
        for alpha in (0.6, 1.5, 2.0):
            classical = np.log(np.sum(p**alpha * q ** (1 - alpha))) / (alpha - 1)
            gap = max(gap, abs(petz_renyi(dp, dq, alpha).value - classical))
            gap = max(gap, abs(sandwiched_renyi(dp, dq, alpha).value - classical))
        worst["comm"] = max(worst["comm"], gap)
        # ordering: measured <= umegaki <= max-divergence, sandwiched <= Petz
        family = [eigenbasis_povm(rho), eigenbasis_povm(sigma),
                  eigenbasis_povm(rho - sigma), trivial_povm(d)]
        m_val, _ = measured_relative_entropy(rho, sigma, family)
        u_val = umegaki(rho, sigma).value
        x_val = max_divergence(rho, sigma).value
        viol = max(m_val.value - u_val, u_val - x_val)
        for alpha in (0.6, 0.9, 1.5, 2.0):
            viol = max(viol, sandwiched_renyi(rho, sigma, alpha).value
                       - petz_renyi(rho, sigma, alpha).value)
        worst["order"] = max(worst["order"], viol)
    ok = (worst["eq3"] <= 1e-10 and worst["fid"] <= 1e-9
          and worst["comm"] <= 1e-9 and worst["order"] <= 1e-9)
    report("divergence-identities", ok,
           f"entropy identity {worst['eq3']:.1e} (<=1e-10), fidelity {worst['fid']:.1e} (<=1e-9), "
           f"classical reduction {worst['comm']:.1e} (<=1e-9), ordering violation {worst['order']:.1e} (<=1e-9)")


def _alt_ratios(rng, limit_fn, value_fn, n_inst=50, t0=1e-3):
    """First-order check: one-sided difference quotients, O(t) error, halving ratio ~2."""
    ratios, reproduced = [], True
    for _ in range(n_inst):
        rho = random_density(2, rng, min_eig=0.1).mat
        sigma = random_density(2, rng, min_eig=0.1).mat
        L1 = random_traceless(2, rng, 0.3).mat
        L2 = random_traceless(2, rng, 0.3).mat
        lim = limit_fn(rho, sigma, L1, L2)
        base = value_fn(rho, sigma)
        errs = [abs((value_fn(rho + t * L1, sigma + t * L2) - base) / t - lim)
                for t in (t0, t0 / 2, t0 / 4)]
        ratios.extend([errs[0] / errs[1], errs[1] / errs[2]])
        reproduced &= errs[-1] <= max(40 * t0, 2e-4 * max(1.0, abs(lim)))
    return np.array(ratios), reproduced


def _null_ratios(rng, limit_fn, value_fn, n_inst=50, t0=2e-2):
    """Second-order check: symmetric average kills the odd term, ratio ~4."""
    ratios, reproduced = [], True
    for _ in range(n_inst):
        rho = random_density(2, rng, min_eig=0.15).mat
        L1 = random_traceless(2, rng, 0.3).mat
        L2 = random_traceless(2, rng, 0.3).mat
        lim = limit_fn(rho, L1, L2)
        errs = []
        for t in (t0, t0 / 2, t0 / 4):
            sym = (value_fn(rho + t * L1, rho + t * L2)
                   + value_fn(rho - t * L1, rho - t * L2)) / (2 * t * t)
            errs.append(abs(sym - lim))
        ratios.extend([errs[0] / errs[1], errs[1] / errs[2]])
        reproduced &= errs[-1] <= max(10 * t0 * t0, 1e-4 * max(1.0, abs(lim)))
    return np.array(ratios), reproduced


def test_limit_functional_taylor_consistency():
    """Criterion: every limit functional matches difference quotients at the predicted order."""
    rng = np.random.default_rng(303)
    checks = []

    checks.append(("qre-alt", *_alt_ratios(
        rng, qre_alt_limit, lambda r, s: umegaki(r, s).value), (1.7, 2.3)))
    checks.append(("qre-null", *_null_ratios(
        rng, qre_null_limit, lambda r, s: umegaki(r, s).value), (3.4, 4.6)))
    for alpha in (0.6, 1.5):
        checks.append((f"petz-alt-{alpha}", *_alt_ratios(
            rng, lambda r, s, a, b, al=alpha: petz_alt_limit(r, s, al, a, b),
            lambda r, s, al=alpha: petz_renyi(r, s, al).value), (1.7, 2.3)))
        checks.append((f"petz-null-{alpha}", *_null_ratios(
            rng, lambda r, a, b, al=alpha: petz_null_limit(r, al, a, b),
            lambda r, s, al=alpha: petz_renyi(r, s, al).value), (3.4, 4.6)))
    for alpha in (0.5, 2.0):
        checks.append((f"sandwiched-alt-{alpha}", *_alt_ratios(
            rng, lambda r, s, a, b, al=alpha: sandwiched_alt_limit(r, s, al, a, b),
            lambda r, s, al=alpha: sandwiched_renyi(r, s, al).value), (1.7, 2.3)))
    checks.append(("entropy", *_alt_ratios(
        rng, lambda r, s, a, b: vn_entropy_limit(r, a),
        lambda r, s: von_neumann_entropy(r)), (1.7, 2.3)))
    checks.append(("fidelity", *_alt_ratios(
        rng, fidelity_limit, fidelity), (1.7, 2.3)))
    checks.append(("maxdiv", *_alt_ratios(
        rng, maxdiv_limit, lambda r, s: max_divergence(r, s).value), (1.7, 2.3)))

    fails = []
    for name, ratios, reproduced, band in checks:
        med = float(np.median(ratios))
        frac = float(np.mean((ratios >= band[0]) & (ratios <= band[1])))
        if not (band[0] <= med <= band[1] and frac >= 0.8 and reproduced):
            fails.append(f"{name} (median {med:.2f}, {frac:.0%} in band, reproduced={reproduced})")
    detail = "; ".join(
        f"{name} median {float(np.median(r)):.2f}" for name, r, _, _ in checks)
    report("limit-taylor-consistency", not fails,
           detail if not fails else "failed: " + ", ".join(fails))


def test_commutative_reductions():
    """Criterion: general formulas equal the closed commutative forms on diagonal inputs."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        d = int(rng.choice([2, 3, 4]))
        p = rng.dirichlet(np.ones(d)) * 0.9 + 0.1 / d
        q = rng.dirichlet(np.ones(d)) * 0.9 + 0.1 / d
        a = rng.normal(size=d)
        a -= a.mean()
        b = rng.normal(size=d)
        b -= b.mean()
        dp, dq, da, db = np.diag(p), np.diag(q), np.diag(a), np.diag(b)
        worst = max(worst, abs(qre_alt_limit(dp, dq, da, db) - qre_alt_commutative(p, q, a, b)))
        worst = max(worst, abs(qre_null_limit(dp, da, db) - qre_null_commutative(p, a, b)))
        for alpha in (0.4, 0.7, 1.5, 2.0):
            worst = max(worst, abs(petz_alt_limit(dp, dq, alpha, da, db)
                                   - petz_alt_commutative(p, q, alpha, a, b)))
            worst = max(worst, abs(petz_null_limit(dp, alpha, da, db)
                                   - petz_null_commutative(p, alpha, a, b)))
            if alpha >= 0.5:
                worst = max(worst, abs(sandwiched_alt_limit(dp, dq, alpha, da, db)
                                       - petz_alt_commutative(p, q, alpha, a, b)))
    report("commutative-reductions", worst <= 1e-9,
           f"max gap between general and commutative forms {worst:.2e} (<= 1e-9)")


def test_tomography_gaussian_limit():
    """Criterion: empirical variance within 10% of v1^2/v2^2 and KS <= 0.05 at n = 1e4."""
    rng = np.random.default_rng(505)
    basis = build_pauli_basis(1)
    n, trials = 10_000, 2_000
    rows = []
    ok = True
    for pair in range(5):
        rho = random_density(2, rng, min_eig=0.12).mat
        sigma = random_density(2, rng, min_eig=0.12).mat
        base = umegaki(rho, sigma).value
        v1 = variance_v1(rho, sigma, basis)
        v2 = variance_v2(rho, sigma, basis)
        # all trials as one stack
        counts = sample_counts(rho, basis, n, range(trials), 505, pair, 0)
        rho_hat, lam, _ = estimate_stack(counts, n, basis)
        one = np.sqrt(n) * (umegaki_spectral(rho_hat, lam, eig_hermitian(sigma)) - base)
        counts = sample_counts(sigma, basis, n, range(trials), 505, pair, 1)
        sigma_hat, _ = estimate_sigma_stack(counts, n, basis)
        two = np.sqrt(n) * (umegaki_spectral(rho_hat, lam, sigma_hat) - base)
        dev1 = abs(one.var(ddof=1) - v1) / v1
        dev2 = abs(two.var(ddof=1) - v2) / v2
        ks1 = ks_statistic(one, normal_cdf(v1))
        ks2 = ks_statistic(two, normal_cdf(v2))
        ok &= dev1 <= 0.10 and dev2 <= 0.10 and ks1 <= 0.05 and ks2 <= 0.05
        rows.append(f"pair {pair}: var dev {dev1:.3f}/{dev2:.3f}, KS {ks1:.3f}/{ks2:.3f}")
    report("tomography-gaussian-limit", ok, "; ".join(rows))


def test_null_rate_discrimination():
    """Criterion: n D(rho_hat || rho) stable in n (KS <= 0.08) while sqrt(n) scaling drifts."""
    rho = np.array([[0.65, 0.15 - 0.1j], [0.15 + 0.1j, 0.35]])
    cfg = ExperimentConfig(kind="one_sample_null", rho=rho, n_grid=(1_000, 10_000),
                           trials=2_000, seed=606)
    res = run_convergence_experiment(cfg)
    ks_largest = res["summary"][-1]["ks"]
    cfg_bad = ExperimentConfig(kind="one_sample_null", rho=rho, n_grid=(1_000, 10_000),
                               trials=2_000, seed=606, scaling_exponent=0.5)
    res_bad = run_convergence_experiment(cfg_bad)
    vars_bad = [s["var"] for s in res_bad["summary"]]
    drift = max(vars_bad) / min(vars_bad)
    ok = ks_largest <= 0.08 and drift > 5
    report("null-rate-discrimination", ok,
           f"KS vs limit law at n=1e4: {ks_largest:.3f} (<= 0.08); "
           f"misspecified-scaling variance ratio {drift:.1f} (> 5)")


def test_hypothesis_test_level():
    """Criterion: every estimated error rate <= tau + 3 Wilson radii; proof's variance bound holds."""
    basis = build_pauli_basis(1)
    sigma = np.diag([0.25, 0.75])
    states = [np.diag([0.51, 0.49]), np.diag([0.65, 0.35]), np.diag([0.75, 0.25])]
    grid = HypothesisGrid((0.0, 0.2, 0.4, 1.0))
    tau, n, trials = 0.05, 10_000, 2_000
    divs = [umegaki(r, sigma).value for r in states]
    margins = [d - e for d, e in zip(divs, grid.epsilons)]
    assert min(margins) >= 0.1, f"scenario separation margin {min(margins):.3f} too small"
    b = min_eigenvalue_bound(states + [sigma])
    c = threshold_c(tau, 2, b)
    rows = simulate_error_rates(states, sigma, grid, tau=tau, n=n, trials=trials,
                                seed=707, basis=basis, c=c, b=b)
    level_ok = True
    details = []
    for r in rows:
        radius = (r["wilson_high"] - r["wilson_low"]) / 2
        bound = tau + 3 * radius
        level_ok &= r["rate"] <= bound
        details.append(f"H{r['hypothesis']}: rate {r['rate']:.4f} <= {bound:.4f}")
    var_bound = 4 * 2**2 * np.log(b) ** 2
    var_ok = all(variance_v1(r, sigma, basis) <= var_bound for r in states)
    report("hypothesis-test-level", level_ok and var_ok,
           "; ".join(details) + f"; v1^2 <= 4 d^2 log(b)^2 = {var_bound:.2f}: {var_ok}")


def test_structural_properties():
    """Criterion: trace-class lemmas, projection properties, POVM and Pauli sanity."""
    rng = np.random.default_rng(808)
    ok, notes = True, []

    # trace identity over a projector and the trace-norm sandwich
    lemma_ok = True
    for _ in range(25):
        block = random_hermitian(2, rng).mat
        A = np.zeros((4, 4), dtype=complex)
        A[:2, :2] = block
        P = np.diag([1.0, 1.0, 0.0, 0.0])
        B = random_hermitian(4, rng).mat
        lemma_ok &= abs(np.trace(A @ B) - np.trace(P @ A @ P @ B @ P)) < 1e-10
        D1 = random_density(4, rng).mat
        D2 = random_density(4, rng).mat
        M = random_hermitian(4, rng).mat
        lemma_ok &= schatten_norm(M, 1) <= (schatten_norm(M - 2 * D1, 1)
                                            + schatten_norm(M + 2 * D2, 1) + 1e-10)
    ok &= lemma_ok
    notes.append(f"trace-class lemmas: {lemma_ok}")

    proj_ok = True
    for _ in range(25):
        A = random_hermitian(3, rng).mat
        once = project_to_density(A).mat
        proj_ok &= np.max(np.abs(project_to_density(once).mat - once)) < 1e-12
        target = random_density(3, rng).mat
        proj_ok &= (np.linalg.norm(once - target)
                    <= np.linalg.norm(A - target) + 1e-10)
    ok &= proj_ok
    notes.append(f"density projection idempotent/nonexpansive: {proj_ok}")

    povm_ok = True
    for _ in range(25):
        U = haar_unitary(3, rng)
        M = eigenbasis_povm(U @ np.diag([1.0, 2.0, 3.0]) @ U.conj().T)
        total = sum(E.mat for E in M.elements)
        povm_ok &= np.max(np.abs(total - np.eye(3))) < 1e-10
        povm_ok &= all(np.linalg.eigvalsh(E.mat)[0] > -1e-10 for E in M.elements)
    with pytest.raises(ValueError):
        Povm([np.diag([0.5, 0.5])])
    ok &= povm_ok
    notes.append(f"POVM normalization: {povm_ok}")

    pauli_ok = True
    for n_q in (1, 2, 3):
        B = build_pauli_basis(n_q)
        d = B.dim
        ops = pauli_operators(B)
        for j, gj in enumerate(ops):
            pauli_ok &= abs(np.trace(gj)) < 1e-12
            for k in range(j, B.size):
                want = d if j == k else 0.0
                pauli_ok &= abs(np.trace(gj @ ops[k]).real - want) < 1e-12
    ok &= pauli_ok
    notes.append(f"Pauli orthogonality exhaustive N<=3: {pauli_ok}")

    report("structural-properties", ok, "; ".join(notes))
