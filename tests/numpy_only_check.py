"""Check that the library runs on numpy alone: no scipy module is imported.

Imports ``qdivstat`` and its CLI, runs two small ``qdivstat experiment``s
(``two_sample_alt`` and ``one_sample_null``, d = 2) and one whose sigma is
4 x 4 against a 2 x 2 rho, which must exit 2 with a message naming both;
one ``qdivstat divergence`` (``umegaki``), which must exit 0, and one with a
non-Hermitian rho, which must exit 2 with a message naming rho; two small
``qdivstat hypothesis`` runs (one state, and six, more than the worker's
slots) through ``qdivstat.cli.main``, and feeds it one
malformed config (an unknown key and a float seed), one scenario whose
state has a negative eigenvalue, which the runner finds after its worker has
started, and one whose state 0 is not Hermitian, which it finds before; all
must exit 2, the scenarios with a message naming the state.  It evaluates
one ``qdivstat limit eval`` bundle (``qre_null``), which must exit 0, and
the same bundle with a non-Hermitian ``L1``, which must exit 2; and one
``qdivstat tomography`` run, which must exit 0, and one each of a trace-2
and a non-Hermitian state, which must exit 2 with a message naming the
state.  After each command only the main thread may be
alive: the runners join their worker thread.  It then fails if any module
whose name starts with ``scipy`` is in ``sys.modules``.  It needs no test
dependency, so it also runs in an environment where only the package and
numpy are installed:

    python tests/numpy_only_check.py
"""

import contextlib
import io
import json
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

import qdivstat
import qdivstat.cli
from qdivstat import io as qio


def _run(argv: list[str], expected: int = 0, error: str = "") -> None:
    """``qdivstat argv`` through the console entry point.

    Raises unless it exits with ``expected``, writes ``error`` to standard
    error, and leaves only the main thread alive.
    """
    sys.argv = ["qdivstat", *argv]
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            qdivstat.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    if code != expected:
        raise RuntimeError(f"qdivstat {argv[0]} exited with {code}, not {expected}: {stderr.getvalue()}")
    if error not in stderr.getvalue():
        raise RuntimeError(f"qdivstat {argv[0]} wrote no {error!r} to standard error: {stderr.getvalue()}")
    if threading.enumerate() != [threading.main_thread()]:
        raise RuntimeError(f"qdivstat {argv[0]} left threads alive: {threading.enumerate()}")


def main() -> int:
    rho, sigma = np.diag([0.7, 0.3]), np.diag([0.4, 0.6])
    non_hermitian = np.array([[0.5, 0.3], [0.0, 0.5]])
    with tempfile.TemporaryDirectory() as tmp:
        rp, sp = Path(tmp, "rho.json"), Path(tmp, "sigma.json")
        qio.dump_matrix(rho, str(rp))
        qio.dump_matrix(sigma, str(sp))
        _run(["experiment", "--kind", "two_sample_alt", "--rho", str(rp), "--sigma", str(sp),
              "--n", "300", "--trials", "100", "--seed", "1"])
        _run(["experiment", "--kind", "one_sample_null", "--rho", str(rp), "--n", "300", "--trials", "100",
              "--seed", "1"])
        bad, big = Path(tmp, "non_hermitian.json"), Path(tmp, "sigma4.json")
        qio.dump_matrix(non_hermitian, str(bad))
        qio.dump_matrix(np.eye(4) / 4, str(big))
        _run(["experiment", "--kind", "two_sample_alt", "--rho", str(rp), "--sigma", str(big),
              "--n", "300", "--trials", "100", "--seed", "1"], 2, "sigma has shape (4, 4), but rho has shape (2, 2)")
        for given, expected, error in ((rp, 0, ""), (bad, 2, "rho: matrix is not Hermitian")):
            _run(["divergence", "--kind", "umegaki", "--rho", str(given), "--sigma", str(sp)], expected, error)
        scenario = Path(tmp, "scenario.json")
        # more hypotheses than the worker holds values: diag(1 + z, 1 - z) / 2, each inside its bucket
        many = [np.diag([1 + z, 1 - z]) / 2 for z in np.linspace(0.1, 0.85, 6)]
        divs = [qdivstat.umegaki(state, np.eye(2) / 2).value for state in many]
        for states, epsilons, expected, error in (
                ([rho], [0.0, 1.0], 0, ""),
                (many, [0.0, *((a + b) / 2 for a, b in zip(divs, divs[1:])), 1.0], 0, ""),
                ([np.diag([1.2, -0.2])], [0.0, 1.0], 2, "state 0 has negative eigenvalue"),
                ([non_hermitian], [0.0, 1.0], 2, "state 0: matrix is not Hermitian")):
            scenario.write_text(json.dumps({
                "states": [qio.matrix_to_json(state) for state in states],
                "sigma": qio.matrix_to_json(np.eye(2) / 2), "epsilons": epsilons, "tau": 0.05, "n": 300, "trials": 20, "seed": 2}))
            _run(["hypothesis", "--scenario", str(scenario), "--out", str(Path(tmp, "rates.csv"))], expected, error)
        config = Path(tmp, "config.json")
        config.write_text(json.dumps({"kind": "one_sample_null", "rho": qio.matrix_to_json(rho), "trails": 100,
                                      "seed": 1.5}))
        _run(["experiment", "--config", str(config)], expected=2)
        bundle = Path(tmp, "bundle.json")
        for L1, expected, error in ((np.diag([0.1, -0.1]), 0, ""),
                                    (np.array([[0.0, 1.0], [0.0, 0.0]]), 2, "L1: matrix is not Hermitian")):
            bundle.write_text(json.dumps({"functional": "qre_null", "rho": qio.matrix_to_json(rho),
                                          "L1": qio.matrix_to_json(L1)}))
            _run(["limit", "eval", str(bundle)], expected, error)
        state = Path(tmp, "state.json")
        for matrix, expected, error in ((rho, 0, ""), (np.diag([2.0, 0.0]), 2, "state has trace off 1"),
                                        (non_hermitian, 2, "state: matrix is not Hermitian")):
            qio.dump_matrix(matrix, str(state))
            _run(["tomography", "--state", str(state), "--n", "300", "--seed", "1"], expected, error)
    loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
    if loaded:
        print(f"scipy modules imported: {', '.join(loaded)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
