"""Outside-in tracer: wraps public library functions from the benchmark's own code.

``from .x import y`` copies the binding of ``y`` into the importing module, so
a function is replaced in every ``qdivstat`` namespace that binds it, not only
where it is defined.  Every call records a span (id, parent id, name, start,
end) in memory; self time is the span's duration minus the time its traced
children cover, kept on a span stack as calls return.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (module, function) pairs per layer; a name the library no longer has is
# reported as absent.
LAYERS = {
    "operator_core": ("eig_hermitian", "support_contained", "support_projector"),
    "divergences": ("umegaki",),
    "frechet": ("build_divided_differences", "frechet1"),
    "limit_laws": ("qre_null_limit",),
    "pauli_tomography": ("build_pauli_basis", "bloch_coefficients", "reconstruct", "substream",
                         "sample_record", "estimate_rho", "estimate_sigma", "was_projected",
                         "variance_v2", "sample_gaussian_limit"),
    "hypothesis_testing": ("derive_seed", "decide", "simulate_error_rates"),
    "experiments": ("run_convergence_experiment", "sample_reference_law", "ks_statistic",
                    "write_rows_csv"),
}
KEYS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
PACKAGE = "qdivstat"
# The one function whose True returns are counted, for projected_ratio.
PROJECTED = "pauli_tomography.was_projected"


class Tracer:
    """Context manager: installs the wrappers on entry, restores the originals on exit.

    Each entry starts a fresh record of spans and counters.
    """

    def __init__(self):
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._index = {key: i for i, key in enumerate(KEYS)}
        self._bindings: list[tuple] = []
        self.reset()
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for key in KEYS:
            mod, fn = key.split(".")
            try:
                orig = getattr(importlib.import_module(f"{PACKAGE}.{mod}"), fn)
            except (ImportError, AttributeError):
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, orig)
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is orig:
                        self._bindings.append((ns, attr, orig, wrapper))

    def __enter__(self) -> "Tracer":
        self.reset()
        for ns, attr, _, wrapper in self._bindings:
            setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, orig, _ in self._bindings:
            setattr(ns, attr, orig)

    def reset(self) -> None:
        """Drop recorded spans and counters."""
        self.spans: list[tuple] = []
        self.calls = dict.fromkeys(KEYS, 0)
        self.self_s = dict.fromkeys(KEYS, 0.0)
        self.total_s = dict.fromkeys(KEYS, 0.0)
        self.projected = 0

    def _wrap(self, key: str, fn):
        index = self._index[key]
        count_true = key == PROJECTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span_id = len(self.spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.calls[key] += 1
                self.self_s[key] += dur - frame[1]
                self.total_s[key] += dur
                self.spans.append((span_id, parent, index, t0, t1))
            if count_true and out is True:
                self.projected += 1
            return out

        return traced


def write_spans(path: str, calls: list[list[tuple]]) -> None:
    """Write the spans of each traced call as JSON lines, after a header naming the spans.

    A span line is [call, id, parent id, name index, start s, end s], times
    relative to the call's first span; a root span has parent id -1.
    """
    with open(path, "w") as fh:
        fh.write(json.dumps({"names": KEYS}) + "\n")
        for call, spans in enumerate(calls):
            t_base = min((s[3] for s in spans), default=0.0)
            for span_id, parent, index, t0, t1 in sorted(spans):
                fh.write(json.dumps([call, span_id, parent, index, t0 - t_base, t1 - t_base]) + "\n")
