"""Spans around calls into the program's modules, for the traced run.

Each public function listed in ``LAYERS`` is wrapped at every name the
program looks it up by: the wrapper replaces the function object in
every ``qronos`` module namespace that holds it, so ``verify``'s own
``chol_of_inverse`` import is timed as well as ``rounding``'s.  A span
is (function, start, end, parent span, operation id); spans stay in
memory and are written out when the run ends.  A layer's time is the
sum of its spans' self times (duration minus direct child spans), so
the layers of one operation add up to its traced duration.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import qronos.cli  # noqa: F401  (load every module whose namespace gets patched)
import qronos.netsim  # noqa: F401
import qronos.verify  # noqa: F401

# metric -> (defining module, functions whose calls it times)
LAYERS = {
    "cli.self_s": ("qronos.cli", ("main",)),
    "qmx.read_s": ("qronos.qmx", ("read_qmx",)),
    "qmx.write_s": ("qronos.qmx", ("write_qmx",)),
    "calib.accumulate_s": ("qronos.calib", ("accumulate",)),
    "calib.order_s": ("qronos.calib", ("order_by_diag", "permute_weights", "unpermute_result")),
    "linalg.damping_s": ("qronos.linalg", ("apply_damping",)),
    "rounding.factor_s": ("qronos.rounding", ("chol_of_inverse",)),
    "rounding.layer_self_s": ("qronos.rounding", ("quantize_layer",)),
    "rounding.column_s": (
        "qronos.rounding",
        (
            "quantize_optq_column",
            "quantize_optq_column_ref",
            "quantize_gpfq_column",
            "quantize_qronos_base_column",
            "quantize_qronos_column",
        ),
    ),
    "grid.build_s": ("qronos.grid", ("grid_from_minmax",)),
    "grid.per_token_s": ("qronos.grid", ("quantize_per_token",)),
    "netsim.self_s": ("qronos.netsim", ("quantize_network",)),
    "netsim.forward_s": ("qronos.netsim", ("forward_pair",)),
    "netsim.rotate_s": ("qronos.netsim", ("fwht",)),
    "oracle.s": (
        "qronos.oracle",
        ("brute_force_ils", "stepwise_argmin_oracle", "step_objective", "direct_lstsq", "first_step_pinv"),
    ),
    "verify.self_s": ("qronos.verify", ("run_suite",)),
}
LAYER_METRIC = "rounding.layer_self_s"
COLUMN_METRIC = "rounding.column_s"
COUNTS = ("rounding.layers", "rounding.columns", "grid.grids", "netsim.rotations")
MB = float(2**20)


class Tracer:
    """Wraps the program's functions during traced operations and keeps spans."""

    def __init__(self):
        self.names: list[str] = []  # "module.function" per wrapped function
        self.metric_of: list[str] = []
        # [name index, start, end, parent span, op id, output columns, peak bytes]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches = []  # (namespace, attribute, original, wrapper)
        modules = [m for k, m in sys.modules.items() if k == "qronos" or k.startswith("qronos.")]
        for metric, (modname, funcs) in LAYERS.items():
            for fname in funcs:
                original = getattr(sys.modules[modname], fname)
                wrapper = self._wrap(len(self.names), original, metric == LAYER_METRIC)
                self.names.append(f"{modname}.{fname}")
                self.metric_of.append(metric)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, name_idx: int, fn, is_layer: bool):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_idx, 0.0, 0.0, stack[-1] if stack else -1, self._op, 0, 0]
            spans.append(span)
            stack.append(idx)
            if is_layer:
                # peak above the level at entry: tracing starts here, so that level is 0
                span[5] = args[0].weights.shape[1]
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if is_layer:
                    span[6] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()

        return traced

    def begin(self, op_id: int) -> None:
        self._op = op_id
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def end(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)
        self._op = -1

    def op_metrics(self) -> dict[int, dict[str, float]]:
        """Per-layer self times, counts and peak for every traced operation."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[int, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            if s[4] not in out:
                out[s[4]] = dict.fromkeys([*LAYERS, "rounding.layer_peak_mb", *COUNTS], 0.0)
            m = out[s[4]]
            metric = self.metric_of[s[0]]
            m[metric] += (s[2] - s[1]) - child[i]
            if metric == LAYER_METRIC:
                m["rounding.layers"] += 1
                m["rounding.columns"] += s[5]
                m["rounding.layer_peak_mb"] = max(m["rounding.layer_peak_mb"], s[6] / MB)
            elif metric == COLUMN_METRIC and not self._inside_layer(s):
                m["rounding.columns"] += 1
            elif metric == "grid.build_s":
                m["grid.grids"] += 1
            elif metric == "netsim.rotate_s":
                m["netsim.rotations"] += 1
        return out

    def _inside_layer(self, span) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.metric_of[self.spans[parent][0]] == LAYER_METRIC:
                return True
            parent = self.spans[parent][3]
        return False

    def summary(self):
        """Median over traced operations per metric, and whether counts repeat."""
        per_op = list(self.op_metrics().values())
        metrics = {}
        repeat = True
        for name in per_op[0]:
            values = [m[name] for m in per_op]
            if name in COUNTS:
                repeat &= len(set(values)) == 1
                metrics[name] = (values[0], "count")
            else:
                unit = "MB" if name == "rounding.layer_peak_mb" else "s"
                metrics[name] = (statistics.median(values), unit)
        if not repeat:
            print("# CHECK FAILED: per-operation counts differ between traced operations",
                  file=sys.stderr)
        return metrics, repeat

    def write(self, path: Path, config: dict) -> None:
        payload = {
            "config": config,
            "names": self.names,
            "span_fields": ["name", "start", "end", "parent", "op", "columns", "peak_bytes"],
            "spans": self.spans,
            "per_op": {str(k): v for k, v in self.op_metrics().items()},
        }
        path.write_text(json.dumps(payload))
