"""Check that the library runs on numpy alone: no scipy module is imported.

Imports ``qdivstat`` and its CLI, runs two small ``qdivstat experiment``s
(``two_sample_alt`` and ``one_sample_null``, d = 2) and one small
``qdivstat hypothesis`` through ``qdivstat.cli.main``, and feeds it one
malformed config (an unknown key and a float seed), which must exit 2.  After
each command only the main thread may be alive: the runners join their worker
thread.  It then fails if any module whose name starts with ``scipy`` is in
``sys.modules``.  It needs no test dependency, so
it also runs in an environment where only the package and numpy are installed:

    python tests/numpy_only_check.py
"""

import json
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

import qdivstat
import qdivstat.cli
from qdivstat import io as qio


def _run(argv: list[str], expected: int = 0) -> None:
    """``qdivstat argv`` through the console entry point.

    Raises unless it exits with ``expected`` and leaves only the main thread alive.
    """
    sys.argv = ["qdivstat", *argv]
    try:
        qdivstat.cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    if code != expected:
        raise RuntimeError(f"qdivstat {argv[0]} exited with {code}, not {expected}")
    if threading.enumerate() != [threading.main_thread()]:
        raise RuntimeError(f"qdivstat {argv[0]} left threads alive: {threading.enumerate()}")


def main() -> int:
    rho, sigma = np.diag([0.7, 0.3]), np.diag([0.4, 0.6])
    with tempfile.TemporaryDirectory() as tmp:
        rp, sp = Path(tmp, "rho.json"), Path(tmp, "sigma.json")
        qio.dump_matrix(rho, str(rp))
        qio.dump_matrix(sigma, str(sp))
        _run(["experiment", "--kind", "two_sample_alt", "--rho", str(rp), "--sigma", str(sp),
              "--n", "300", "--trials", "100", "--seed", "1"])
        _run(["experiment", "--kind", "one_sample_null", "--rho", str(rp), "--n", "300", "--trials", "100",
              "--seed", "1"])
        scenario = Path(tmp, "scenario.json")
        scenario.write_text(json.dumps({
            "states": [qio.matrix_to_json(rho)], "sigma": qio.matrix_to_json(np.eye(2) / 2),
            "epsilons": [0.0, 1.0], "tau": 0.05, "n": 300, "trials": 20, "seed": 2}))
        _run(["hypothesis", "--scenario", str(scenario), "--out", str(Path(tmp, "rates.csv"))])
        config = Path(tmp, "config.json")
        config.write_text(json.dumps({"kind": "one_sample_null", "rho": qio.matrix_to_json(rho), "trails": 100,
                                      "seed": 1.5}))
        _run(["experiment", "--config", str(config)], expected=2)
    loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
    if loaded:
        print(f"scipy modules imported: {', '.join(loaded)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
