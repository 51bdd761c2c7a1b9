"""What the benchmark under perfbench/ reads from the package.

The traced benchmark run wraps every function ``perfbench/spans.py``
lists, and the K = 64 check in ``perfbench/workloads.py`` reads the
per-step states of the direct qronos solver.  These tests keep those
names and shapes from going away unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from qronos import grid_from_minmax, rounding

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    layers = _load_spans().LAYERS
    assert layers
    for metric, (modname, funcs) in layers.items():
        module = importlib.import_module(modname)
        for fname in funcs:
            assert callable(getattr(module, fname, None)), f"{metric}: {modname}.{fname}"


def test_direct_solver_trace_has_the_states_the_benchmark_reads():
    rng = np.random.default_rng(0)
    n = 9
    x = rng.standard_normal((40, n))
    xt = x + 0.1 * rng.standard_normal(x.shape)
    hp, gp = xt.T @ xt, xt.T @ x
    col = rng.standard_normal(n)
    tr = rounding.quantize_qronos_base_column(
        col, hp, gp, grid_from_minmax(col, 16), record_trace=True
    )
    assert tr.q.shape == (n,)
    for t in range(n):
        assert len(tr.w_states[t][1:]) == n - t - 1
