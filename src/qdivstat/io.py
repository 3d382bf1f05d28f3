"""JSON/CSV exchange formats shared by the CLI and the test fixtures.

Matrices travel as {"dim": d, "re": [[...]], "im": [[...]]}; POVMs as lists
of such objects.
The CLI reads each input file with ``read_json(path, parse)``, where ``parse`` is one
of the schemas ``matrix_from_json``, ``povm_from_json``, ``bundle_from_json``
(a limit functional), ``config_from_json`` or ``scenario_from_json``.
"""

from __future__ import annotations

import csv
import functools
import json
import numbers

import numpy as np

from . import limit_laws as ll
from .operator_core import as_matrix
from .divergences import Povm
from .hypothesis_testing import HypothesisGrid
from .experiments import ExperimentConfig

__all__ = [
    "read_json",
    "matrix_to_json",
    "matrix_from_json",
    "dump_matrix",
    "povm_from_json",
    "bundle_from_json",
    "scenario_from_json",
    "config_from_json",
    "write_error_rate_csv",
]


def matrix_to_json(M) -> dict:
    M = as_matrix(M)
    return {"dim": M.shape[0], "re": M.real.tolist(), "im": M.imag.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    """The matrix of ``obj``: a dim x dim ``re`` block of finite reals, plus an optional ``im`` block."""
    obj = _object(obj, ("dim", "re", "im"))
    d = _field(obj, "dim", _integer)

    def block(value):
        value = np.asarray(value, dtype=float)
        if value.shape != (d, d):
            raise ValueError(f"expected a {d} x {d} array, got shape {value.shape}")
        if not np.all(np.isfinite(value)):
            raise ValueError("matrix has NaN or inf entries")
        return value

    re = _field(obj, "re", block)
    im = _field(obj, "im", block) if "im" in obj else 0.0
    return re + 1j * im


def dump_matrix(M, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(M), fh)
        fh.write("\n")


def povm_from_json(objs: list[dict]) -> Povm:
    if not isinstance(objs, list):
        raise TypeError(f"a POVM is a JSON array of matrices, got {type(objs).__name__}")
    return Povm([matrix_from_json(o) for o in objs])


def read_json(path: str, parse):
    """``parse`` of the JSON in the file at ``path``; bad JSON or a value ``parse`` rejects names the file."""
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _object(obj, keys) -> dict:
    """``obj`` if it is a JSON object whose keys are all in ``keys``; else the first unknown key is named."""
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise ValueError(f"unknown field {unknown[0]!r}; the fields are {', '.join(keys)}")
    return obj


def _field(obj: dict, key: str, convert):
    """``convert(obj[key])``; a missing field, or a value that ``convert`` rejects, is a ValueError naming it."""
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    try:
        return convert(obj[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field {key!r}: {exc}") from None


def _instance(name: str, *kinds: type):
    """A converter that passes an instance of ``kinds`` through unchanged and rejects the rest, bools included."""

    def check(value):
        if isinstance(value, kinds) and not isinstance(value, bool):
            return value
        raise TypeError(f"expected {name}, got {value!r}")

    return check


# an integer field takes a JSON integer only: 1.9, "2", true and null are rejected, not converted
_number, _integer = _instance("a number", numbers.Real), _instance("an integer", int)


# Each limit functional a bundle can name, and the bundle fields it takes, in argument order.
_LIMIT_FUNCTIONALS = {
    "qre_alt": (ll.qre_alt_limit, ("rho", "sigma", "L1", "L2")),
    "qre_null": (ll.qre_null_limit, ("rho", "L1", "L2")),
    "vn_entropy": (ll.vn_entropy_limit, ("rho", "L1")),
    "petz_alt": (ll.petz_alt_limit, ("rho", "sigma", "alpha", "L1", "L2")),
    "petz_null": (ll.petz_null_limit, ("rho", "alpha", "L1", "L2")),
    "sandwiched_alt": (ll.sandwiched_alt_limit, ("rho", "sigma", "alpha", "L1", "L2")),
    "fidelity": (ll.fidelity_limit, ("rho", "sigma", "L1", "L2")),
    "maxdiv": (ll.maxdiv_limit, ("rho", "sigma", "L1", "L2")),
}


def bundle_from_json(obj: dict) -> functools.partial:
    """The limit functional a bundle names, bound to the bundle fields it takes; it reads no other field."""
    obj = _object(obj, ("functional", "rho", "sigma", "alpha", "L1", "L2"))
    name = obj.get("functional")
    if not isinstance(name, str) or name not in _LIMIT_FUNCTIONALS:
        raise ValueError(f"unknown functional {name!r}; choose from {sorted(_LIMIT_FUNCTIONALS)}")
    function, keys = _LIMIT_FUNCTIONALS[name]
    # a missing or null direction is zero; alpha is a number and every other field a matrix
    return functools.partial(function, *(None if key in ("L1", "L2") and obj.get(key) is None
                                         else _field(obj, key, _number if key == "alpha" else matrix_from_json)
                                         for key in keys))


def scenario_from_json(obj: dict) -> dict:
    """Hypothesis-test scenario: states, sigma, epsilons, tau, n, trials, seed."""
    obj = _object(obj, ("states", "sigma", "epsilons", "tau", "n", "trials", "seed"))
    return {
        "states": _field(obj, "states", lambda v: [matrix_from_json(o) for o in v]),
        "sigma": _field(obj, "sigma", matrix_from_json),
        "grid": _field(obj, "epsilons", lambda v: HypothesisGrid(tuple(v))),
        "tau": _field(obj, "tau", lambda v: float(_number(v))),
        "n": _field(obj, "n", _integer),
        "trials": _field(obj, "trials", _integer),
        "seed": _field(obj, "seed", _integer),
    }


def config_from_json(obj: dict) -> ExperimentConfig:
    """The experiment config of ``obj``: kind, rho and seed are required; an absent field takes its default."""
    fields = {
        "kind": _instance("a string", str),
        "rho": matrix_from_json,
        "sigma": lambda v: None if v is None else matrix_from_json(v),
        "alpha": _instance("a number or null", numbers.Real, type(None)),
        "n_grid": lambda v: tuple(_integer(n) for n in v),
        "trials": _integer,
        "scaling_exponent": _instance("a number or null", numbers.Real, type(None)),
        "seed": _integer,
        "output_path": _instance("a string or null", str, type(None)),
        "povm_family": lambda v: [povm_from_json(p) for p in v] if v else None,
    }
    obj = _object(obj, tuple(fields))
    if "seed" not in obj:
        raise ValueError("experiment config requires an explicit seed")
    return ExperimentConfig(**{key: _field(obj, key, convert) for key, convert in fields.items()
                               if key in obj or key in ("kind", "rho")})


ERROR_RATE_FIELDS = ("hypothesis", "trials", "errors", "rate",
                     "wilson_low", "wilson_high", "copies_used",
                     "projection_fraction", "borderline", "gross_exceedance")


def write_error_rate_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ERROR_RATE_FIELDS)
        for r in rows:
            w.writerow([r[k] for k in ERROR_RATE_FIELDS])
