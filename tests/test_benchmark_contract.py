"""What the benchmark under perfbench/ reads from the package.

The traced benchmark run wraps every function ``perfbench/spans.py``
lists, the K = 64 check in ``perfbench/workloads.py`` reads the
per-step states of the direct qronos solver, and the ``certify``
workload expects each suite's default trial count.  These tests keep
those names, shapes and counts from going away unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from qronos import grid_from_minmax, rounding, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    layers = _load("spans").LAYERS
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


def test_certify_expects_every_suite_at_its_default_trial_count():
    trials = _load("workloads").Certify.TRIALS
    assert tuple(trials) == verify.SUITE_NAMES
    assert trials == {name: verify._DEFAULTS[name][1] for name in verify.SUITE_NAMES}
