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
from . import limit_laws as ll
from .experiments import ExperimentConfig, run_convergence_experiment
from .hypothesis_testing import simulate_error_rates
from .operator_core import EigensolverError
from .pauli_tomography import build_pauli_basis, estimate, qubits_for_dim, sample_record

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
    rho = qio.load_matrix(args.rho)
    sigma = qio.load_matrix(args.sigma)
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
        family = []
        for path in args.povm:
            with open(path) as fh:
                family.append(qio.povm_from_json(json.load(fh)))
        val, idx = dv.measured_relative_entropy(rho, sigma, family)
        result["argmax_index"] = idx
    result["value"] = "inf" if not val.support_ok else val.value
    result["support_ok"] = val.support_ok
    print(json.dumps(result))
    return EXIT_OK


# Each functional reads the bundle fields it needs through ``b``, which names the field it rejects.
_LIMIT_FUNCTIONALS = {
    "qre_alt": lambda b: ll.qre_alt_limit(b("rho"), b("sigma"), b("L1"), b("L2")),
    "qre_null": lambda b: ll.qre_null_limit(b("rho"), b("L1"), b("L2")),
    "vn_entropy": lambda b: ll.vn_entropy_limit(b("rho"), b("L1")),
    "petz_alt": lambda b: ll.petz_alt_limit(b("rho"), b("sigma"), b("alpha"), b("L1"), b("L2")),
    "petz_null": lambda b: ll.petz_null_limit(b("rho"), b("alpha"), b("L1"), b("L2")),
    "sandwiched_alt": lambda b: ll.sandwiched_alt_limit(b("rho"), b("sigma"), b("alpha"), b("L1"), b("L2")),
    "fidelity": lambda b: ll.fidelity_limit(b("rho"), b("sigma"), b("L1"), b("L2")),
    "maxdiv": lambda b: ll.maxdiv_limit(b("rho"), b("sigma"), b("L1"), b("L2")),
}


def _run_limit(args) -> int:
    with open(args.bundle) as fh:
        raw = json.load(fh)
    name = raw.get("functional")
    if name not in _LIMIT_FUNCTIONALS:
        raise ValueError(f"unknown functional {name!r}; choose from {sorted(_LIMIT_FUNCTIONALS)}")

    def field(key: str):
        # a missing or null direction is zero; alpha is a number and every other field a matrix
        if key in ("L1", "L2") and raw.get(key) is None:
            return None
        return qio._field(raw, key, qio._number if key == "alpha" else qio.matrix_from_json)

    print(repr(_LIMIT_FUNCTIONALS[name](field)))
    return EXIT_OK


def _run_tomography(args) -> int:
    state = qio.load_matrix(args.state)
    basis = build_pauli_basis(qubits_for_dim(state.shape[0]))
    record = sample_record(state, basis, args.n, args.seed)
    est = estimate(record, basis, floor=args.sigma_estimator)[0]
    if args.out:
        qio.dump_matrix(est.mat, args.out)
    print(json.dumps({"record": qio.record_to_json(record),
                      "estimate": qio.matrix_to_json(est.mat)}))
    return EXIT_OK


def _run_experiment(args) -> int:
    if args.config:
        # the file describes the experiment; only --seed and --out override it
        given = [f"--{k}" for k in ("kind", "rho", "sigma", "alpha", "n", "trials") if getattr(args, k) is not None]
        if given:
            raise ValueError(f"{', '.join(given)} cannot be combined with --config; set it in the config file")
        with open(args.config) as fh:
            obj = json.load(fh)
        if args.seed is not None:
            obj["seed"] = args.seed
        if args.out:
            obj["output_path"] = args.out
        cfg = qio.config_from_json(obj)
    else:
        if args.seed is None:
            raise ValueError("--seed is required (no wall-clock seeding)")
        if not (args.kind and args.rho):
            raise ValueError("inline experiments need at least --kind and --rho")
        cfg = ExperimentConfig(
            kind=args.kind,
            rho=qio.load_matrix(args.rho),
            sigma=qio.load_matrix(args.sigma) if args.sigma else None,
            alpha=args.alpha,
            n_grid=tuple(int(x) for x in args.n.split(",")) if args.n else (1_000, 10_000),
            trials=ExperimentConfig.trials if args.trials is None else args.trials,
            seed=args.seed,
            output_path=args.out,
        )
    result = run_convergence_experiment(cfg)
    print(json.dumps({"experiment_id": result["experiment_id"],
                      "summary": result["summary"]}))
    return EXIT_OK


def _run_hypothesis(args) -> int:
    with open(args.scenario) as fh:
        scenario = qio.scenario_from_json(json.load(fh))
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
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ArithmeticError, np.linalg.LinAlgError, EigensolverError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
