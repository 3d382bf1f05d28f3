"""qdivstat benchmark: Monte Carlo trial throughput on three seeded workloads.

    python3 benchmarks/run.py --workload exp_alt_1q --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

Each workload runs in a fresh process with one BLAS thread.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the library's public
functions from outside and reports per-layer calls and self time.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Results, the environment and traced spans are written
under ``.bench_out/``.  The workload seed defaults to 0, the fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# An untraced run splits its main calls over this many fresh workload
# processes, with this many set-up-only processes before, between and after
# them.  Every process is a set-up sample, so the samples spread over the whole
# run instead of falling in one spell of machine speed.
WORKLOAD_PROCESSES = 2
SETUP_ONLY_BETWEEN = 2
# A run (one workload) ends within this many seconds, or fails.
DEADLINE_S = 170
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    src = str(ROOT / "src")
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    """Commit of the checkout, read from its own .git directory, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _median_rate(calls: list[dict]) -> float:
    """Median trials per second over the main calls that returned."""
    rates = [c["trials_per_s"] for c in calls if "trials_per_s" in c]
    if not rates:
        raise BenchError("no main call returned")
    return statistics.median(rates)


def _end_to_end(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    common = ["--workload", name, "--seed", str(seed), "--out-dir", str(OUT_DIR)]
    setups, runs = [], []
    spent = 0.0
    for i in range(WORKLOAD_PROCESSES + 1):
        setups += [_worker(common + ["--seconds", "0", "--setup-only"], deadline)["setup_s"]
                   for _ in range(SETUP_ONLY_BETWEEN)]
        if i < WORKLOAD_PROCESSES:
            # A process gets what is left of its share of --seconds, so that
            # the calls of all processes together fill --seconds as one would.
            budget = seconds * (i + 1) / WORKLOAD_PROCESSES - spent
            runs.append(_worker(common + ["--seconds", str(budget)], deadline))
            setups.append(runs[-1]["setup_s"])
            spent += sum(c["wall_s"] for c in runs[-1]["calls"])
    res = dict(runs[-1], calls=[c for r in runs for c in r["calls"]], setup_samples=setups)
    metrics = {"trials_per_s": _median_rate(res["calls"]), "setup_s": statistics.median(setups),
               "peak_rss_mb": max(r["peak_rss_mb"] for r in runs)}
    return metrics, res


def _per_layer(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    from tracer import KEYS, LAYERS

    res = _worker(["--workload", name, "--seed", str(seed), "--out-dir", str(OUT_DIR),
                   "--seconds", str(seconds), "--trace", "1"], deadline)
    traced = res["traced"]
    main_s = statistics.median(t["wall_s"] for t in traced)
    metrics = {}
    for key in KEYS:
        metrics[f"{key}.calls"] = traced[0]["calls"][key]
        metrics[f"{key}.self_s"] = statistics.median(t["self_s"][key] for t in traced)
    for mod, fns in LAYERS.items():
        metrics[f"{mod}.self_share"] = sum(metrics[f"{mod}.{fn}.self_s"] for fn in fns) / main_s
    metrics["experiments.sample_reference_law.share"] = statistics.median(
        t["total_s"]["experiments.sample_reference_law"] for t in traced) / main_s
    projected = traced[0]["projected"]
    estimates = metrics["pauli_tomography.was_projected.calls"]
    metrics["pauli_tomography.projected_ratio"] = projected / estimates if estimates else 0.0
    metrics["experiments.bytes_written"] = res["bytes_written"]
    metrics["trace.main_call_s"] = main_s
    metrics["trace.overhead_ratio"] = _median_rate(res["calls"]) / _median_rate(traced)
    # Per-trial counts must repeat exactly between the traced calls.
    mismatched = [k for k in KEYS if len({t["calls"][k] for t in traced}) != 1]
    if mismatched:
        for t in traced:
            t["problems"].append(f"call counts differ between traced calls: {mismatched}")
    res["calls"] += traced
    return metrics, res


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    measure = _per_layer if trace else _end_to_end
    metrics, res = measure(name, seed, seconds, deadline)
    # All calls of a run use the same seed, in one process or in several, so
    # they must give the same output.
    digests = [c["digest"] for c in res["calls"] if "digest" in c]
    for c in res["calls"]:
        if "digest" in c and c["digest"] != digests[0]:
            c["problems"].append("output digest differs from the first call with the same seed")
    attempted = len(res["calls"])
    failed = sum(1 for c in res["calls"] if c["problems"])
    env = dict(res["env"], nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
               pinned=PINNED_ENV, commit=_commit())
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
              "metrics": metrics, "failed_frac": failed / attempted, "run": res}
    path = OUT_DIR / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {name}: seed {seed}, {seconds:g} s, trace {trace}; "
          f"{attempted} main calls, {failed} failed")
    for c in res["calls"]:
        for problem in c["problems"]:
            print(f"  FAILED: {problem}")
    for key, value in metrics.items():
        print(f"  {key:<48} {value:>14.6g} {UNITS[key]}")
    print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} ratio")
    if trace and res["absent"]:
        print(f"  absent from the library (reported as 0): {', '.join(res['absent'])}")
    print(f"  environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']} with {env['blas_threads']} thread(s), "
          f"commit {env['commit']}")
    print(f"  results: {path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qdivstat" / "__init__.py").is_file():
        print(f"no qdivstat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    names = WORKLOADS if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{n}.{k}": v for n, r in results.items()
                               for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
