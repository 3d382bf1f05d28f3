"""One fresh benchmark process: set up one workload, then time its main calls.

Run by ``run.py`` with the BLAS thread count pinned in the environment.  Prints
one JSON object as its last line of standard output.

    python3 worker.py --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from time import perf_counter

T_START = perf_counter()


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(numpy)}


def _blas_threads(numpy) -> int | None:
    """Threads the loaded OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _timed_call(wl) -> dict:
    """One main call with its output check; a raised error counts as a failed call."""
    t0 = perf_counter()
    try:
        out = wl.call()
    except Exception as exc:  # a failed main call is reported, not fatal to the run
        return {"wall_s": perf_counter() - t0, "problems": [f"raised {exc!r}"]}
    wall = perf_counter() - t0
    return {"wall_s": wall, "trials_per_s": wl.trials_per_call / wall, "problems": wl.check(out),
            "digest": wl.digest(out), "check": wl.summary(out)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir)
    try:
        from workloads import Workload

        wl = Workload(args.workload, args.seed, scratch)
        setup_s = perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        # An untraced process makes at least one call; run.py compares the
        # output digests of all calls of a run.  A traced process makes
        # untraced and traced calls in turn, at least two of each so that the
        # call counts can be compared, and so that a drift in machine speed
        # does not read as tracing overhead.  No call (or pair) starts that
        # would, at the mean time so far, end after the budget.
        min_rounds = 2 if args.trace else 1
        calls, traced, spans = [], [], []
        tracer = None
        if args.trace:
            from tracer import Tracer, write_spans

            tracer = Tracer()
        t_loop = perf_counter()
        rounds = 0
        while rounds < min_rounds or (perf_counter() - t_loop) * (rounds + 1) / rounds <= args.seconds:
            calls.append(_timed_call(wl))
            if tracer is not None:
                with tracer:
                    call = _timed_call(wl)
                call.update(calls=dict(tracer.calls), self_s=dict(tracer.self_s),
                            total_s=dict(tracer.total_s), projected=tracer.projected)
                traced.append(call)
                spans.append(tracer.spans)
            rounds += 1
        result = {"setup_s": setup_s, "calls": calls, "bytes_written": wl.bytes_written(),
                  "env": _environment()}
        if tracer is not None:
            spans_path = os.path.join(args.out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl")
            write_spans(spans_path, spans)
            result.update(traced=traced, absent=tracer.absent, spans_path=spans_path)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
