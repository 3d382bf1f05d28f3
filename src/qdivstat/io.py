"""JSON/CSV exchange formats shared by the CLI and the test fixtures.

Matrices travel as {"dim": d, "re": [[...]], "im": [[...]]}; POVMs as lists
of such objects; measurement records as {"n": ..., "seed": ..., "plus_counts": [...]}.
"""

from __future__ import annotations

import csv
import json
import numbers

import numpy as np

from .operator_core import as_matrix
from .divergences import Povm
from .pauli_tomography import MeasurementRecord
from .hypothesis_testing import HypothesisGrid
from .experiments import ExperimentConfig

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "load_matrix",
    "dump_matrix",
    "povm_to_json",
    "povm_from_json",
    "record_to_json",
    "record_from_json",
    "scenario_from_json",
    "config_from_json",
    "write_error_rate_csv",
]


def matrix_to_json(M) -> dict:
    M = as_matrix(M)
    return {"dim": M.shape[0], "re": M.real.tolist(), "im": M.imag.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    d = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj.get("im", np.zeros((d, d))), dtype=float)
    if re.shape != (d, d) or im.shape != (d, d):
        raise ValueError(f"matrix blocks do not match dim {d}")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ValueError("matrix has NaN or inf entries")
    return re + 1j * im


def load_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_json(json.load(fh))


def dump_matrix(M, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_json(M), fh)
        fh.write("\n")


def povm_to_json(M: Povm) -> list[dict]:
    return [matrix_to_json(E) for E in M.elements]


def povm_from_json(objs: list[dict]) -> Povm:
    return Povm([matrix_from_json(o) for o in objs])


def record_to_json(rec: MeasurementRecord) -> dict:
    return {"n": rec.n, "seed": rec.seed, "plus_counts": rec.plus_counts.tolist()}


def record_from_json(obj: dict) -> MeasurementRecord:
    return MeasurementRecord(n=int(obj["n"]), seed=int(obj["seed"]),
                             plus_counts=np.asarray(obj["plus_counts"], dtype=np.int64))


def _field(obj: dict, key: str, convert):
    """``convert(obj[key])``.

    A missing field, or a value that ``convert`` rejects with a TypeError,
    ValueError or OverflowError (an infinite count), raises a ValueError that
    names the field.
    """
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    try:
        return convert(obj[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"field {key!r}: {exc}") from None


def _number(value):
    """A real number, passed through unchanged; a string or null is rejected."""
    if isinstance(value, numbers.Real):
        return value
    raise TypeError(f"expected a number, got {value!r}")


def _or_null(kind: type):
    """A converter that passes None or an instance of ``kind`` through unchanged and rejects the rest."""

    def check(value):
        if value is None or isinstance(value, kind):
            return value
        raise TypeError(f"expected {kind.__name__} or null, got {value!r}")

    return check


def scenario_from_json(obj: dict) -> dict:
    """Hypothesis-test scenario: states, sigma, epsilons, tau, n, trials, seed."""
    return {
        "states": _field(obj, "states", lambda v: [matrix_from_json(o) for o in v]),
        "sigma": _field(obj, "sigma", matrix_from_json),
        "grid": _field(obj, "epsilons", lambda v: HypothesisGrid(tuple(v))),
        "tau": _field(obj, "tau", float),
        "n": _field(obj, "n", int),
        "trials": _field(obj, "trials", int),
        "seed": _field(obj, "seed", int),
    }


def config_from_json(obj: dict) -> ExperimentConfig:
    """The experiment config of ``obj``: kind, rho and seed are required; an absent field takes its default."""
    if "seed" not in obj:
        raise ValueError("experiment config requires an explicit seed")
    fields = {
        "kind": str,
        "rho": matrix_from_json,
        "sigma": lambda v: None if v is None else matrix_from_json(v),
        "alpha": lambda v: v,
        "n_grid": lambda v: tuple(int(n) for n in v),
        "trials": int,
        "scaling_exponent": _or_null(numbers.Real),
        "seed": int,
        "output_path": _or_null(str),
        "povm_family": lambda v: [povm_from_json(p) for p in v] if v else None,
    }
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
