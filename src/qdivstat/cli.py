"""Command-line interface.

Subcommands: divergence, limit, tomography, experiment, hypothesis.
Exit codes: 0 success, 2 validation error, 1 numeric failure.  Stochastic
subcommands require an explicit --seed (or a seed in the config file);
nothing is ever seeded from the clock.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import divergences as dv
from . import io as qio
from .experiments import run_convergence_experiment
from .hypothesis_testing import simulate_error_rates
from .operator_core import (EigensolverError, _named_hermitian_part, check_density_spectrum, eigvals_hermitian,
                            hermitian_part)
from .pauli_tomography import build_pauli_basis, estimate_sigma_stack, estimate_stack, qubits_for_dim, sample_counts

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_VALIDATION = 2


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qdivstat")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("divergence", help="evaluate a divergence between two states")
    d.add_argument("--kind", required=True,
                   choices=["umegaki", "petz", "sandwiched", "fidelity", "max", "measured"])
    d.add_argument("--rho", required=True)
    d.add_argument("--sigma", required=True)
    d.add_argument("--alpha", type=float)
    d.add_argument("--povm", action="append", default=[],
                   help="POVM JSON file; repeat to supply a family (measured only)")

    lim = sub.add_parser("limit", help="evaluate a limit-distribution functional")
    lim_sub = lim.add_subparsers(dest="limit_command", required=True)
    ev = lim_sub.add_parser("eval", help="evaluate a functional from a JSON bundle")
    ev.add_argument("bundle", help="JSON with rho, sigma, L1, L2, alpha?, functional")

    t = sub.add_parser("tomography", help="simulate Pauli tomography of a state")
    t.add_argument("--state", required=True)
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--sigma-estimator", action="store_true",
                   help="use the strictly positive second-argument estimator")
    t.add_argument("--out", help="write the estimate as matrix JSON")

    e = sub.add_parser("experiment", help="run a seeded convergence experiment")
    e.add_argument("--config", help="JSON config file")
    e.add_argument("--kind")
    e.add_argument("--rho")
    e.add_argument("--sigma")
    e.add_argument("--alpha", type=float)
    e.add_argument("--n", help="comma-separated n grid")
    e.add_argument("--trials", type=int)
    e.add_argument("--seed", type=int)
    e.add_argument("--out")

    h = sub.add_parser("hypothesis", help="estimate error rates of the threshold test")
    h.add_argument("--scenario", required=True, help="scenario JSON file")
    h.add_argument("--out", required=True, help="output CSV path")
    h.add_argument("--seed", type=int, help="override the scenario seed")
    return p


def _run_divergence(args) -> int:
    rho = qio.read_json(args.rho, qio.matrix_from_json)
    sigma = qio.read_json(args.sigma, qio.matrix_from_json)
    result = {"name": args.kind}
    if args.kind == "umegaki":
        val = dv.umegaki(rho, sigma)
    elif args.kind in ("petz", "sandwiched"):
        if args.alpha is None:
            raise ValueError(f"{args.kind} requires --alpha")
        result["alpha"] = args.alpha
        val = (dv.petz_renyi if args.kind == "petz" else dv.sandwiched_renyi)(rho, sigma, args.alpha)
    elif args.kind == "fidelity":
        val = dv.DivergenceValue(dv.fidelity(rho, sigma))
    elif args.kind == "max":
        val = dv.max_divergence(rho, sigma)
    else:
        if not args.povm:
            raise ValueError("measured requires at least one --povm file")
        family = [qio.read_json(path, qio.povm_from_json) for path in args.povm]
        val, idx = dv.measured_relative_entropy(rho, sigma, family)
        result["argmax_index"] = idx
    result["value"] = "inf" if not val.support_ok else val.value
    result["support_ok"] = val.support_ok
    print(json.dumps(result))
    return EXIT_OK


def _run_limit(args) -> int:
    print(repr(qio.read_json(args.bundle, qio.bundle_from_json)()))
    return EXIT_OK


def _run_tomography(args) -> int:
    # the one record is row 0 of a one-row stack, estimated as the runners estimate theirs
    state = qio.read_json(args.state, qio.matrix_from_json)
    basis = build_pauli_basis(qubits_for_dim(state.shape[0]))
    check_density_spectrum(eigvals_hermitian(_named_hermitian_part(state, "state"), checked=True), name="state")
    counts = sample_counts(state, basis, args.n, range(1), args.seed)
    if args.sigma_estimator:
        est = estimate_sigma_stack(counts, args.n, basis)[0].reassemble()[0]
    else:
        est = estimate_stack(counts, args.n, basis)[0][0]
    est = hermitian_part(est)  # a projected row's reassembly is Hermitian only to rounding
    if args.out:
        qio.dump_matrix(est, args.out)
    print(json.dumps({"record": {"n": args.n, "seed": args.seed, "plus_counts": counts[0].tolist()},
                      "estimate": qio.matrix_to_json(est)}))
    return EXIT_OK


def _matrix_json(path: str) -> dict:
    """The matrix in the file at ``path``, as a config file holds it."""
    return qio.matrix_to_json(qio.read_json(path, qio.matrix_from_json))


def _run_experiment(args) -> int:
    # a config file describes the experiment and only --seed and --out override it; without one the flags do
    overrides = {key: value for key, value in (("seed", args.seed), ("output_path", args.out or None))
                 if value is not None}
    if args.config:
        given = [f"--{k}" for k in ("kind", "rho", "sigma", "alpha", "n", "trials") if getattr(args, k) is not None]
        if given:
            raise ValueError(f"{', '.join(given)} cannot be combined with --config; set it in the config file")
        cfg = qio.read_json(args.config, lambda obj: qio.config_from_json(
            {**obj, **overrides} if isinstance(obj, dict) else obj))
    else:
        if args.seed is None:
            raise ValueError("--seed is required (no wall-clock seeding)")
        if not (args.kind and args.rho):
            raise ValueError("inline experiments need at least --kind and --rho")
        flags = {"kind": args.kind, "rho": _matrix_json(args.rho),
                 "sigma": _matrix_json(args.sigma) if args.sigma else None, "alpha": args.alpha,
                 "n_grid": [int(x) for x in args.n.split(",")] if args.n else [1_000, 10_000],
                 "trials": args.trials, **overrides}
        cfg = qio.config_from_json({key: value for key, value in flags.items() if value is not None})
    result = run_convergence_experiment(cfg)
    print(json.dumps({"experiment_id": result["experiment_id"],
                      "summary": result["summary"]}))
    return EXIT_OK


def _run_hypothesis(args) -> int:
    scenario = qio.read_json(args.scenario, qio.scenario_from_json)
    if args.seed is not None:
        scenario["seed"] = args.seed
    rows = simulate_error_rates(**scenario)
    qio.write_error_rate_csv(rows, args.out)
    print(json.dumps(rows))
    return EXIT_OK


_RUNNERS = {
    "divergence": _run_divergence,
    "limit": _run_limit,
    "tomography": _run_tomography,
    "experiment": _run_experiment,
    "hypothesis": _run_hypothesis,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return _RUNNERS[args.command](args)
    except (ValueError, KeyError, OSError) as exc:  # an OSError names the file it could not open
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ArithmeticError, np.linalg.LinAlgError, EigensolverError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
