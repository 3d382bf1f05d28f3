"""The three benchmark workloads: seeded inputs, the timed main call, output checks.

Each workload builds its inputs from the workload seed with numpy alone, so the
library receives only generated states and configs.  The main call is one call
of a public entry point; its output is checked against the statistical bounds
of the acceptance suite and reduced to a digest that must repeat within a run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

# Salt per workload so that one seed gives unrelated inputs on each workload.
# BENCHMARK.json says why each workload exists.
_SALT = {"exp_alt_1q": 0, "exp_null_2q": 1, "hyp_6q": 2}


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _state(rng: np.random.Generator, d: int, min_eig: float) -> np.ndarray:
    """Full-rank state: every eigenvalue at least ``min_eig``, Haar eigenbasis."""
    lam = min_eig + (1.0 - d * min_eig) * rng.dirichlet(np.ones(d))
    u = _unitary(rng, d)
    m = (u * lam) @ u.conj().T
    return (m + m.conj().T) / 2


def _relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    def logm(m):
        w, v = np.linalg.eigh(m)
        return (v * np.log(w)) @ v.conj().T
    return float(np.trace(rho @ (logm(rho) - logm(sigma))).real)


def _diagonal_at_divergence(g: np.ndarray, target: float) -> np.ndarray:
    """p proportional to exp(beta g) with D(diag p || I/d) = target, beta by bisection."""
    d = len(g)

    def div(beta):
        p = np.exp(beta * g)
        p /= p.sum()
        return float(np.sum(p * np.log(p * d))), p

    lo, hi = 0.0, 50.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if div(mid)[0] < target:
            lo = mid
        else:
            hi = mid
    return np.diag(div((lo + hi) / 2)[1]).astype(complex)


def build_inputs(name: str, seed: int) -> dict:
    """Inputs of workload ``name`` for workload seed ``seed`` (numpy only)."""
    rng = np.random.default_rng([seed, _SALT[name]])
    mc_seed = int(rng.integers(2**31))
    if name == "exp_alt_1q":
        # A floor on D keeps the alternative law in its Gaussian regime at n = 1e4.
        while True:
            rho, sigma = _state(rng, 2, 0.1), _state(rng, 2, 0.1)
            if _relative_entropy(rho, sigma) >= 0.05:
                break
        return {"rho": rho, "sigma": sigma, "mc_seed": mc_seed}
    if name == "exp_null_2q":
        return {"rho": _state(rng, 4, 0.1), "mc_seed": mc_seed}
    if name == "hyp_6q":
        # The same spectrum for every seed, permuted by it: D and the smallest
        # eigenvalue (hence the default threshold c) do not depend on the seed.
        g = np.linspace(-1.0, 1.0, 64)
        states = [_diagonal_at_divergence(rng.permutation(g), target) for target in (0.046, 0.368)]
        return {"states": states, "sigma": np.eye(64, dtype=complex) / 64, "mc_seed": mc_seed}
    raise ValueError(f"unknown workload {name!r}")


class Workload:
    """Config of one workload, built once in set-up and reused by every main call."""

    def __init__(self, name: str, seed: int, out_dir: str):
        import qdivstat

        self.name = name
        inputs = build_inputs(name, seed)
        self.output_path = None
        if name == "exp_alt_1q":
            self.output_path = os.path.join(out_dir, "rows.csv")
            self.cfg = qdivstat.ExperimentConfig(
                kind="two_sample_alt", rho=inputs["rho"], sigma=inputs["sigma"],
                n_grid=(1_000, 10_000), trials=2_000, seed=inputs["mc_seed"],
                output_path=self.output_path)
        elif name == "exp_null_2q":
            self.cfg = qdivstat.ExperimentConfig(
                kind="one_sample_null", rho=inputs["rho"], n_grid=(1_000, 10_000),
                trials=1_000, seed=inputs["mc_seed"])
        else:
            self.states, self.sigma = inputs["states"], inputs["sigma"]
            self.grid = qdivstat.HypothesisGrid((0.0, 0.21, 2.0))
            self.tau, self.n, self.trials = 0.05, 10**8, 3
            self.mc_seed = inputs["mc_seed"]
            self.basis = qdivstat.build_pauli_basis(6)
        if name.startswith("exp_"):
            self.trials_per_call = len(self.cfg.n_grid) * self.cfg.trials
        else:
            self.trials_per_call = len(self.states) * self.trials

    def call(self):
        """The timed main call: one public entry point, fixed costs included."""
        from qdivstat import experiments, hypothesis_testing

        if self.name.startswith("exp_"):
            return experiments.run_convergence_experiment(self.cfg)
        return hypothesis_testing.simulate_error_rates(
            self.states, self.sigma, self.grid, tau=self.tau, n=self.n,
            trials=self.trials, seed=self.mc_seed, basis=self.basis)

    def check(self, out) -> list[str]:
        """Problems with the output of one main call; empty when it is correct."""
        problems = []
        if self.name.startswith("exp_"):
            stats = [r.statistic for r in out["rows"]]
            if len(stats) != self.trials_per_call or not all(map(math.isfinite, stats)):
                problems.append("missing or non-finite statistics")
            last = out["summary"][-1]
            if self.name == "exp_alt_1q":
                ratio = last["var"] / last["v_pred"]
                if not last["ks"] <= 0.05:
                    problems.append(f"KS {last['ks']:.4f} > 0.05 at n={last['n']}")
                if not abs(ratio - 1) <= 0.10:
                    problems.append(f"variance ratio {ratio:.4f} outside 1 +- 0.10")
            elif not last["ks"] <= 0.08:
                problems.append(f"KS vs reference {last['ks']:.4f} > 0.08 at n={last['n']}")
        else:
            if len(out) != len(self.states):
                problems.append(f"{len(out)} rows for {len(self.states)} hypotheses")
            problems += [f"hypothesis {r['hypothesis']} has gross_exceedance"
                         for r in out if r["gross_exceedance"]]
        return problems

    def summary(self, out) -> dict:
        """Statistics that the checks read, for the results file."""
        if self.name.startswith("exp_"):
            return {k: out["summary"][-1].get(k) for k in ("n", "ks", "var", "v_pred")}
        return {"rates": [r["rate"] for r in out],
                "gross_exceedance": [r["gross_exceedance"] for r in out]}

    def bytes_written(self) -> int:
        if self.output_path is None:
            return 0
        return sum(os.path.getsize(p) for p in (self.output_path, self.output_path + ".summary.json"))

    def digest(self, out) -> str:
        rows = out["rows"] if self.name.startswith("exp_") else out
        text = json.dumps(_canon(rows), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def _canon(obj):
    """Plain JSON form of output rows; floats keep every digit."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _canon(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _canon(obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
    return obj
