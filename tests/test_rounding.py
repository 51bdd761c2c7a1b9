import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qronos import (
    CalibStats,
    DampingPolicy,
    LayerQuantRequest,
    METHOD_SPECS,
    METHODS,
    NonFiniteInputError,
    NotPositiveDefiniteError,
    QuantGrid,
    ShapeError,
    accumulate,
    grid_from_minmax,
    layer_stats,
    prepare_layer,
    quantize_layer,
    quantize_rtn,
    round_layer,
    unpermute_result,
)
from qronos.linalg import chol_of_inverse
from qronos.rounding import (
    quantize_gpfq_column,
    quantize_optq_column,
    quantize_optq_column_ref,
    quantize_qronos_base_column,
    quantize_qronos_column,
)
from qronos.oracle import TIE_TOL, step_objective, stepwise_argmin_oracle
from qronos.rounding import PHASES, SWEEP_BLOCK
from helpers import column_grid, column_instance, layer_instance, on_grid_weights


def _stats_of(x, xq):
    return accumulate(CalibStats(x.shape[1]), x, xq)


def _orthogonal_activations(rng, m, n):
    q, _ = np.linalg.qr(rng.standard_normal((m, n)))
    return q * rng.uniform(1.0, 3.0, size=n)


# ---------------------------------------------------------------------------
# rtn layer


def test_rtn_layer_fixed_point():
    rng = np.random.default_rng(0)
    w = on_grid_weights(rng, 8, 5)
    grid = grid_from_minmax(w, 4)
    assert np.array_equal(quantize_rtn(w, grid), w)


def test_rtn_layer_matches_per_entry():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((10, 4))
    grid = grid_from_minmax(w, 8)
    q = quantize_rtn(w, grid)
    for j in range(4):
        g = column_grid(grid, j)
        assert np.array_equal(q[:, j], quantize_rtn(w[:, j], g))
        assert np.max(np.abs(q[:, j] - w[:, j])) <= g.step_size / 2 + 1e-12


# ---------------------------------------------------------------------------
# column trajectories


def test_optq_on_grid_passthrough():
    rng = np.random.default_rng(2)
    w = on_grid_weights(rng, 8, 1)[:, 0]
    grid = grid_from_minmax(w, 4)
    x = rng.standard_normal((40, 8))
    tr = quantize_optq_column(w, x.T @ x, grid, record_trace=True)
    assert np.array_equal(tr.q, w)
    assert all(np.allclose(b, a[1:]) for a, b in zip(tr.w_states, tr.w_states[1:]))


def test_optq_single_coordinate():
    grid = grid_from_minmax(np.array([-1.0, 1.0]), 4)
    x = np.random.default_rng(3).standard_normal((10, 1))
    tr = quantize_optq_column(np.array([0.4]), x.T @ x, grid)
    assert tr.q[0] == quantize_rtn(0.4, grid)


def test_optq_matches_lstsq_reference():
    rng = np.random.default_rng(4)
    w, x, _, grid = column_instance(rng, 8, 64, 4, identical=True)
    fast = quantize_optq_column(w, x.T @ x, grid, record_trace=True)
    ref = quantize_optq_column_ref(w, x, grid, record_trace=True)
    assert np.array_equal(fast.q, ref.q)
    for a, b in zip(fast.w_states, ref.w_states):
        assert np.linalg.norm(a - b) <= 1e-8 * max(1.0, np.linalg.norm(b))


def test_optq_ref_orthogonal_columns_decouple():
    rng = np.random.default_rng(5)
    x = _orthogonal_activations(rng, 32, 6)
    w = rng.standard_normal(6)
    grid = grid_from_minmax(w, 4)
    tr = quantize_optq_column_ref(w, x, grid)
    assert np.array_equal(tr.q, quantize_rtn(w, grid))


def test_optq_ref_on_grid_zero_residual():
    rng = np.random.default_rng(6)
    w = on_grid_weights(rng, 6, 1)[:, 0]
    grid = grid_from_minmax(w, 4)
    x = rng.standard_normal((30, 6))
    tr = quantize_optq_column_ref(w, x, grid, record_trace=True)
    assert np.array_equal(tr.q, w)
    resid = x @ w - x @ tr.q
    assert 0.5 * float(resid @ resid) <= 1e-18


def test_gpfq_identical_orthogonal_passthrough():
    rng = np.random.default_rng(7)
    x = _orthogonal_activations(rng, 32, 6)
    w = on_grid_weights(rng, 6, 1)[:, 0]
    grid = grid_from_minmax(w, 4)
    tr = quantize_gpfq_column(w, x, x, grid)
    assert np.array_equal(tr.q, w)


def test_gpfq_single_coordinate_formula():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((16, 1))
    xq = x + 0.1 * rng.standard_normal((16, 1))
    w = np.array([0.7])
    grid = grid_from_minmax(np.array([-1.0, 1.0]), 8)
    tr = quantize_gpfq_column(w, x, xq, grid)
    expect = quantize_rtn(float(xq[:, 0] @ (w[0] * x[:, 0])) / float(xq[:, 0] @ xq[:, 0]), grid)
    assert tr.q[0] == expect


def test_gpfq_steps_match_alphabet_enumeration():
    rng = np.random.default_rng(9)
    w, x, xq, grid = column_instance(rng, 6, 48, 4)
    tr = quantize_gpfq_column(w, x, xq, grid, record_trace=True)
    u = np.zeros(x.shape[0])
    for t in range(6):
        target = u + w[t] * x[:, t]
        best, best_obj = stepwise_argmin_oracle(target, xq[:, t], grid)
        got = step_objective(target, xq[:, t], tr.q[t])
        assert got <= best_obj + 1e-12 * max(1.0, best_obj)
        u = target - tr.q[t] * xq[:, t]


def test_gpfq_zero_column_falls_back_with_warning():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((20, 4))
    xq = x.copy()
    xq[:, 2] = 0.0
    w = rng.standard_normal(4)
    grid = grid_from_minmax(w, 4)
    with pytest.warns(RuntimeWarning):
        tr = quantize_gpfq_column(w, x, xq, grid)
    assert tr.q[2] == quantize_rtn(w[2], grid)


def test_qronos_base_identical_paths_on_grid_passthrough():
    rng = np.random.default_rng(11)
    w = on_grid_weights(rng, 6, 1)[:, 0]
    grid = grid_from_minmax(w, 4)
    x = rng.standard_normal((48, 6))
    h = x.T @ x
    tr = quantize_qronos_base_column(w, h, h.copy(), grid)
    assert np.array_equal(tr.q, w)


def test_qronos_base_single_coordinate():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((16, 1))
    xq = x + 0.2 * rng.standard_normal((16, 1))
    h = xq.T @ xq
    g = xq.T @ x
    w = np.array([0.9])
    grid = grid_from_minmax(np.array([-1.0, 1.0]), 4)
    tr = quantize_qronos_base_column(w, h, g, grid)
    assert tr.q[0] == quantize_rtn(float(g[0, 0]) * w[0] / float(h[0, 0]), grid)


def test_qronos_efficient_equals_base():
    rng = np.random.default_rng(13)
    w, x, xq, grid = column_instance(rng, 16, 128, 4)
    h = xq.T @ xq
    g = xq.T @ x
    base = quantize_qronos_base_column(w, h, g, grid, record_trace=True)
    eff = quantize_qronos_column(w, h, g, grid, record_trace=True)
    assert np.array_equal(base.q, eff.q)
    for a, b in zip(base.w_states, eff.w_states):
        assert np.linalg.norm(a - b) <= 1e-8 * max(1.0, np.linalg.norm(b))


def test_qronos_identical_paths_on_grid_passthrough():
    rng = np.random.default_rng(14)
    w = on_grid_weights(rng, 6, 1)[:, 0]
    grid = grid_from_minmax(w, 4)
    x = rng.standard_normal((48, 6))
    h = x.T @ x
    tr = quantize_qronos_column(w, h, h.copy(), grid)
    assert np.array_equal(tr.q, w)


def test_trace_first_state_is_input_column():
    rng = np.random.default_rng(15)
    w, x, xq, grid = column_instance(rng, 8, 64, 4)
    h, g = xq.T @ xq, xq.T @ x
    for tr in (
        quantize_optq_column(w, h, grid, record_trace=True),
        quantize_qronos_base_column(w, h, g, grid, record_trace=True),
        quantize_qronos_column(w, h, g, grid, record_trace=True),
        quantize_gpfq_column(w, x, xq, grid, record_trace=True),
        quantize_optq_column_ref(w, x, grid, record_trace=True),
    ):
        assert np.array_equal(tr.w_states[0], w)
        assert set(np.round(tr.q, 10)) <= set(np.round(grid.alphabet, 10))


# ---------------------------------------------------------------------------
# layer driver


def test_layer_rtn_dispatch():
    rng = np.random.default_rng(16)
    w = rng.standard_normal((8, 3))
    grid = grid_from_minmax(w, 4)
    req = LayerQuantRequest(weights=w, grids=grid, method="rtn")
    q, report = quantize_layer(req)
    assert np.array_equal(q, quantize_rtn(w, grid))
    assert report.damping_lambda == 0.0
    assert np.all(np.isnan(report.objectives))


@pytest.mark.parametrize("method", [m for m in METHODS if m != "rtn"])
def test_layer_matches_column_ops(method):
    """The vectorized layer path and the traced per-column path agree."""
    rng = np.random.default_rng(17)
    w, x, xq, stats, grid = layer_instance(rng, 10, 80, 6, 4)
    fast, _ = quantize_layer(
        LayerQuantRequest(weights=w, grids=grid, method=method, stats=stats,
                          damping=DampingPolicy("mean_diag_percent"))
    )
    states = []
    traced, rep = quantize_layer(
        LayerQuantRequest(weights=w, grids=grid, method=method, stats=stats,
                          damping=DampingPolicy("mean_diag_percent"), on_state=states.append)
    )
    assert np.array_equal(fast, traced)
    if method == "gpfq":
        assert states == []
    else:
        assert [s.shape for s in states] == [(10 - t, 6) for t in range(10)]


@pytest.mark.parametrize("method", ["optq", "qronos"])
@pytest.mark.parametrize("n", [300, 1])
def test_blocked_layer_matches_column_ops(method, n):
    """The blocked sweep reproduces the unblocked per-column rounding.

    n = 300 spans three blocks, the last one partial.  An entry may only
    differ where the per-column state sat on an exact tie between two
    alphabet values; the first such entry in a column ends the
    comparison, because the trajectories part there.
    """
    assert n == 1 or n > 2 * SWEEP_BLOCK
    rng = np.random.default_rng(30 + n)
    w, x, xq, stats, grid = layer_instance(rng, n, 2 * n + 40, 6, 16)
    policy = DampingPolicy("mean_diag_percent")
    blocked, rep = quantize_layer(
        LayerQuantRequest(weights=w, grids=grid, method=method, stats=stats,
                          damping=policy, order="natural")
    )
    lam = rep.damping_lambda
    h = stats.H + lam * np.eye(n)
    g = stats.G + lam * np.eye(n)
    chol = chol_of_inverse(h)
    for j in range(w.shape[1]):
        if method == "optq":
            tr = quantize_optq_column(w[:, j], h, column_grid(grid, j), record_trace=True)
        else:
            tr = quantize_qronos_column(w[:, j], h, g, column_grid(grid, j), record_trace=True)
        differ = np.flatnonzero(blocked[:, j] != tr.q)
        if differ.size:
            t = int(differ[0])
            assert t > 0
            state = tr.w_states[t][0]
            objs = [0.5 * (state - v) ** 2 / chol[t, t] ** 2 for v in (blocked[t, j], tr.q[t])]
            assert abs(objs[0] - objs[1]) <= TIE_TOL * max(1.0, min(objs))


@pytest.mark.parametrize("method", ["optq", "gpfq", "qronos_base", "qronos"])
def test_trace_does_not_change_layer_results(method):
    """Tracing leaves q and the warnings bit for bit as they were, and no
    state is written after the layer hands it over.

    n = 300 spans three sweep blocks; gpfq meets a zero-norm
    quantized-path column.
    """
    rng = np.random.default_rng(40)
    n = 300
    x = rng.standard_normal((2 * n, n))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    xq[:, 5] = 0.0
    w = rng.standard_normal((n, 3))
    grid = grid_from_minmax(w, 16)
    stats = _stats_of(x, xq if method != "optq" else x)
    policy = DampingPolicy("none" if method == "gpfq" else "mean_diag_percent")
    runs, states, copies = [], [], []

    def take(state):
        states.append(state)
        copies.append(state.copy())

    for on_state in (None, take):
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            runs.append(quantize_layer(
                LayerQuantRequest(weights=w, grids=grid, method=method, stats=stats,
                                  damping=policy, on_state=on_state)
            ))
    (q0, rep0), (q1, rep1) = runs
    assert q0.tobytes() == q1.tobytes()
    assert rep0.warnings == rep1.warnings
    assert len(rep0.warnings) == (1 if method == "gpfq" else 0)
    assert rep0.objectives.tobytes() == rep1.objectives.tobytes()
    if method == "gpfq":
        assert states == []
    else:
        assert np.array_equal(states[0], w[rep1.order])
        assert [s.shape for s in states] == [(n - t, 3) for t in range(n)]
    assert all(np.array_equal(s, c) for s, c in zip(states, copies, strict=True))


@pytest.mark.parametrize("method", ["optq", "qronos_base", "qronos"])
def test_traced_states_match_the_unblocked_recursion(method):
    """Recorded states across block boundaries equal the plain per-step update."""
    rng = np.random.default_rng(41)
    n = 2 * SWEEP_BLOCK + 20
    w, x, xq, grid = column_instance(rng, n, 2 * n, 16)
    h, g = xq.T @ xq, xq.T @ x
    low = chol_of_inverse(h)
    if method == "optq":
        tr = quantize_optq_column(w, h, grid, record_trace=True)
    elif method == "qronos":
        tr = quantize_qronos_column(w, h, g, grid, record_trace=True)
    else:
        tr = quantize_qronos_base_column(w, h, g, grid, record_trace=True)
    for t in range(1, n - 1):
        # one unblocked step from the recorded state before it
        prev = tr.w_states[t]
        expect = prev[1:] - (prev[0] - tr.q[t]) / low[t, t] * low[t + 1 :, t]
        got = tr.w_states[t + 1]
        assert np.linalg.norm(got - expect) <= 1e-9 * max(1.0, np.linalg.norm(expect))


@pytest.mark.parametrize("method", ["optq", "gpfq", "qronos_base", "qronos"])
def test_non_finite_g_raises_in_caller_order(method):
    # descending-diagonal ordering reverses the features; the message
    # names the caller's cell
    h = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    g = np.eye(5)
    g[1, 3] = np.nan
    grid = grid_from_minmax(np.arange(5.0), 4)
    req = LayerQuantRequest(np.ones((5, 2)), grid, method, stats=CalibStats(5, H=h, G=g))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInputError, match="G: non-finite value nan at row 1, col 3"):
            quantize_layer(req)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "route", [quantize_qronos_base_column, quantize_qronos_column], ids=["qronos_base", "qronos"]
)
def test_non_finite_g_raises_in_the_column_routes(route, bad):
    """The per-column routes scan G as the layer does, rather than
    rounding a NaN or failing inside SciPy."""
    h = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    g = np.eye(5)
    g[1, 3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInputError, match=f"G: non-finite value {bad} at row 1, col 3"):
            route(np.ones(5), h, g, grid_from_minmax(np.arange(5.0), 4))


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from qronos import CalibStats, LayerQuantRequest, accumulate, grid_from_minmax, quantize_layer
rng = np.random.default_rng(300)
x = rng.standard_normal((700, 300)) * np.exp(rng.uniform(-1.0, 1.0, 300))
xq = x + 0.1 * rng.standard_normal(x.shape)
w = rng.standard_normal((300, 160))
grid = grid_from_minmax(w, 16)
stats = accumulate(CalibStats(300), x, xq)
q, _ = quantize_layer(LayerQuantRequest(weights=w, grids=grid, method="qronos", stats=stats))
print(hashlib.sha256(q.tobytes()).hexdigest())
"""


def test_layer_q_independent_of_blas_threads():
    """Blocked GEMMs and Lanczos products give the same q on 1 and 2 BLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT], env=env, capture_output=True, text=True,
            check=True, timeout=300,
        )
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_layer_gpfq_moment_identity_matches_residual_recursion():
    rng = np.random.default_rng(18)
    w, x, xq, stats, grid = layer_instance(rng, 8, 64, 5, 4)
    q, report = quantize_layer(
        LayerQuantRequest(weights=w, grids=grid, method="gpfq", stats=stats,
                          damping=DampingPolicy("none"), order="natural")
    )
    for j in range(5):
        tr = quantize_gpfq_column(w[:, j], x, xq, column_grid(grid, j))
        assert np.array_equal(q[:, j], tr.q)


def test_layer_collapse_to_optq_on_identical_paths():
    rng = np.random.default_rng(19)
    w, x, _, stats, grid = layer_instance(rng, 12, 96, 4, 16, identical=True)
    shared = DampingPolicy("mean_diag_percent")
    q_opt, _ = quantize_layer(LayerQuantRequest(weights=w, grids=grid, method="optq",
                                                stats=stats, damping=shared))
    q_qro, _ = quantize_layer(LayerQuantRequest(weights=w, grids=grid, method="qronos",
                                                stats=stats, damping=shared))
    assert np.array_equal(q_opt, q_qro)


def test_layer_determinism():
    rng = np.random.default_rng(20)
    w, _, _, stats, grid = layer_instance(rng, 9, 72, 4, 4)
    req = LayerQuantRequest(weights=w, grids=grid, method="qronos", stats=stats)
    q1, r1 = quantize_layer(req)
    q2, r2 = quantize_layer(req)
    assert q1.tobytes() == q2.tobytes()
    assert np.array_equal(r1.objectives, r2.objectives)


def test_layer_order_is_internal_bijection():
    """Running permuted inputs without ordering equals the ordered run."""
    rng = np.random.default_rng(21)
    w, x, xq, stats, grid = layer_instance(rng, 8, 64, 3, 4)
    from qronos import order_by_diag, permute_weights, unpermute_result

    ordered, _ = quantize_layer(
        LayerQuantRequest(weights=w, grids=grid, method="qronos", stats=stats,
                          damping=DampingPolicy("none"), order="diag")
    )
    order = order_by_diag(stats.H)
    ix = np.ix_(order, order)
    permuted = CalibStats(stats.dim, H=stats.H[ix], G=stats.G[ix])
    manual, _ = quantize_layer(
        LayerQuantRequest(weights=permute_weights(w, order), grids=grid, method="qronos",
                          stats=permuted, damping=DampingPolicy("none"), order="natural")
    )
    assert np.array_equal(ordered, unpermute_result(manual, order))


def test_layer_peak_memory_is_a_few_copies_of_h():
    """A qronos layer holds the permuted pair, the factor and its
    workspace: its tracemalloc peak stays within 6 copies of H."""
    rng = np.random.default_rng(29)
    w, x, xq, stats, grid = layer_instance(rng, 512, 1024, 128, 16)
    req = LayerQuantRequest(weights=w, grids=grid, method="qronos", stats=stats,
                            damping=DampingPolicy("top_singular_fraction"))
    quantize_layer(req)  # first call imports the Lanczos solver
    tracemalloc.start()
    try:
        quantize_layer(req)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * stats.H.nbytes


@pytest.mark.parametrize("method", ["optq", "qronos"])
def test_layer_factors_its_one_copy_of_h_in_place(method):
    """optq and qronos hold one n x n buffer, the reversed copy of H that
    the Cholesky overwrites: a second copy of H or of its factor would
    break the bound."""
    rng = np.random.default_rng(31)
    n, n_out = 512, 8
    x = rng.standard_normal((2 * n, n))
    w = rng.standard_normal((n, n_out))
    grid = grid_from_minmax(w, 16)
    stats = layer_stats(method, w, x, x + 0.1 * rng.standard_normal(x.shape))
    req = LayerQuantRequest(weights=w, grids=grid, method=method, stats=stats,
                            damping=DampingPolicy("top_singular_fraction"))
    quantize_layer(req)  # first call imports the Lanczos solver
    tracemalloc.start()
    try:
        quantize_layer(req)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * stats.H.nbytes + 8 * w.nbytes


@pytest.mark.parametrize("method", ["optq", "qronos"])
def test_layer_peaks_under_two_copies_of_h(method):
    """At n_out = n / 4, the layer holds H's factored copy and three
    weight-sized arrays at a time: qronos forms its first-step right-hand
    side and z in the cross term's buffer (its stats hold G W), optq
    forms G W for its objective after the sweep, the caller's frame drops
    W and the cross term once the sweep is done with them, and the sweep
    turns its own buffer into U^T q and hands back only q^T H q."""
    rng = np.random.default_rng(37)
    n, n_out = 1024, 256
    x = rng.standard_normal((2 * n, n))
    w = rng.standard_normal((n, n_out))
    grid = grid_from_minmax(w, 16)
    stats = layer_stats(method, w, x, x + 0.1 * rng.standard_normal(x.shape))
    req = LayerQuantRequest(weights=w, grids=grid, method=method, stats=stats,
                            damping=METHOD_SPECS[method].damping)
    quantize_layer(req)  # first call imports the Lanczos solver
    tracemalloc.start()
    try:
        quantize_layer(req)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * stats.H.nbytes


@pytest.mark.parametrize("mode", ["none", "mean_diag_percent"])
def test_gpfq_layer_peaks_under_one_copy_of_h(mode):
    """gpfq reads each step's rows of the caller's H and G through the
    order and copies neither: its peak is a few weight-sized arrays."""
    rng = np.random.default_rng(41)
    w, x, xq, stats, grid = layer_instance(rng, 512, 1024, 128, 16)
    req = LayerQuantRequest(weights=w, grids=grid, method="gpfq", stats=stats,
                            damping=DampingPolicy(mode))
    tracemalloc.start()
    try:
        quantize_layer(req)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= stats.H.nbytes


@pytest.mark.parametrize("method", ["optq", "qronos"])
def test_duplicated_feature_is_named_in_caller_order(method):
    """An exactly singular H, feature 4 a copy of feature 1, raises
    naming the caller's feature 2 (1-based): the copy the reversed
    factorization meets second."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 6)) * np.array([1.0, 3.0, 0.5, 2.0, 1.5, 0.7])
    x[:, 4] = x[:, 1]
    w = rng.standard_normal((6, 2))
    grid = grid_from_minmax(w, 4)
    from qronos import NotPositiveDefiniteError

    req = LayerQuantRequest(weights=w, grids=grid, method=method,
                            stats=layer_stats(method, w, x, x.copy()), damping=DampingPolicy("none"))
    with pytest.raises(NotPositiveDefiniteError, match="feature 2,") as exc:
        quantize_layer(req)
    assert exc.value.index == 2


# sha256 of q.tobytes() per (seed, method) from the layer driver with each
# method's default damping, recorded from the inverse-factor driver
_GOLDEN_Q = {
    (0, "rtn"): "a9ef0bf59ec7a3e128ebe0090d2b735ba5b8873e6fe7a59ada566298eea3c936",
    (0, "optq"): "a18ee8f515e564dab8935e8002fa5f543db6b221abc6c68aaa36e644395f4fd6",
    (0, "gpfq"): "bb0e77788b054536e0f0b98cb1df1e0552567328afde0bde52f70f4db3a60834",
    (0, "qronos_base"): "fced84e733cf3a2ad34f1581231f27d6b4a7801252e5e76da87acaf9b45bce62",
    (0, "qronos"): "fced84e733cf3a2ad34f1581231f27d6b4a7801252e5e76da87acaf9b45bce62",
    (1, "rtn"): "a847af89de64c4af7983dbb5694b11a5687ea572c89f90a5a39a83806a7950a1",
    (1, "optq"): "376f218affe0c5faa67b93f5b328c4a8df121fba093966c13926eb971ac20887",
    (1, "gpfq"): "cd9475e04a9f4fd3029098599a471a723090be9ccdd08e8b9f50e00dba25307c",
    (1, "qronos_base"): "268a8feac5addcfadd9cfc3dc04e9e0a744e3df773ad21226069844675693830",
    (1, "qronos"): "268a8feac5addcfadd9cfc3dc04e9e0a744e3df773ad21226069844675693830",
}


# sha256 of the per-column q, columns side by side, per (seed, method) on
# the same instances with undamped moments, recorded from the entry points
# that took the factor of H^-1
_GOLDEN_COLUMN_Q = {
    (0, "optq"): "cb1595740e1a01209cb50c64a93f41b047e9e42727cbfc407e27306f174bdd2f",
    (0, "qronos_base"): "747d4751d3c41267cc85de6fe0715e777df4a46420cd7e8bd158932d32d7261d",
    (0, "qronos"): "747d4751d3c41267cc85de6fe0715e777df4a46420cd7e8bd158932d32d7261d",
    (1, "optq"): "825b3f809a767d464844dc04c2f36bd442d7e438335d625b2ec5b4d3dda33405",
    (1, "qronos_base"): "e79d25ab6f8187e9828679247c041c7f92bb5f129dd968aa079476ee2237e7a7",
    (1, "qronos"): "e79d25ab6f8187e9828679247c041c7f92bb5f129dd968aa079476ee2237e7a7",
}


def _golden_instance(seed, n, n_out):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2 * n, n)) * np.exp(rng.uniform(-1.0, 1.0, n))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    w = rng.standard_normal((n, n_out))
    return x, xq, w, grid_from_minmax(w, 16)


@pytest.mark.parametrize("seed, n, n_out", [(0, 24, 5), (1, 300, 4)])
def test_layer_q_matches_golden_hashes(seed, n, n_out):
    """q is bit for bit what it was; n = 300 spans three sweep blocks."""
    x, xq, w, grid = _golden_instance(seed, n, n_out)
    for method in METHODS:
        stats = None if method == "rtn" else layer_stats(method, w, x, xq)
        q, _ = quantize_layer(LayerQuantRequest(weights=w, grids=grid, method=method, stats=stats,
                                                damping=METHOD_SPECS[method].damping))
        assert hashlib.sha256(q.tobytes()).hexdigest() == _GOLDEN_Q[seed, method], method


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("seed, n, n_out", [(0, 24, 5), (1, 300, 4)])
def test_column_q_matches_golden_hashes(seed, n, n_out, record):
    """Per-column q is bit for bit what it was, traced or not."""
    x, xq, w, layer_grid = _golden_instance(seed, n, n_out)
    hx, h, g = x.T @ x, xq.T @ xq, xq.T @ x
    routes = {
        "optq": lambda col, grid: quantize_optq_column(col, hx, grid, record),
        "qronos_base": lambda col, grid: quantize_qronos_base_column(col, h, g, grid, record),
        "qronos": lambda col, grid: quantize_qronos_column(col, h, g, grid, record),
    }
    for method, route in routes.items():
        q = np.column_stack([route(w[:, j], column_grid(layer_grid, j)).q for j in range(n_out)])
        assert hashlib.sha256(q.tobytes()).hexdigest() == _GOLDEN_COLUMN_Q[seed, method], method


@pytest.mark.parametrize("mode", ["none", "mean_diag_percent", "top_singular_fraction"])
def test_layer_moment_objective_is_shifted_residual(mode):
    """Moment-form objective is 0.5 q^T (H + lam I) q - q^T G w: the
    residual of the ridge-augmented pair, shifted by a q-free constant."""
    rng = np.random.default_rng(23)
    w, x, xq, stats, grid = layer_instance(rng, 6, 48, 3, 4)
    req = LayerQuantRequest(weights=w, grids=grid, method="optq", stats=stats,
                            damping=DampingPolicy(mode, alpha=1e-2))
    q, rep_m = quantize_layer(req)
    assert rep_m.objective_form == "moment_quadratic"
    lam = rep_m.damping_lambda
    assert (lam == 0.0) == (mode == "none")
    h_damped = stats.H + lam * np.eye(6)
    for j in range(3):
        direct = 0.5 * float(q[:, j] @ h_damped @ q[:, j]) - float(q[:, j] @ stats.G @ w[:, j])
        assert rep_m.objectives[j] == pytest.approx(direct, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("mode", ["none", "mean_diag_percent", "top_singular_fraction"])
@pytest.mark.parametrize("method", ["optq", "qronos"])
def test_objective_read_off_the_sweep_is_the_moment_quadratic(method, mode):
    """optq's and qronos's q^T (H + lam I) q comes from the sweep's own
    state, not a product with q: it matches the moment form computed
    directly, and tracing, which moves that state to another buffer,
    leaves the objectives bit for bit.  n = 300 spans three sweep blocks."""
    rng = np.random.default_rng(26)
    n = 300
    w, x, xq, stats, grid = layer_instance(rng, n, 2 * n, 4, 16)
    reports = []
    for on_state in (None, lambda state: None):
        q, report = quantize_layer(LayerQuantRequest(weights=w, grids=grid, method=method, stats=stats,
                                                     damping=DampingPolicy(mode), on_state=on_state))
        reports.append(report)
    assert reports[0].objectives.tobytes() == reports[1].objectives.tobytes()
    h_damped = stats.H + reports[0].damping_lambda * np.eye(n)
    direct = 0.5 * np.einsum("ij,ij->j", q, h_damped @ q) - np.einsum("ij,ij->j", q, stats.G @ w)
    np.testing.assert_allclose(reports[0].objectives, direct, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mode", ["none", "mean_diag_percent", "top_singular_fraction"])
def test_damped_optq_layer_is_the_reference_on_augmented_activations(mode):
    """A ridge lambda on H is sqrt(lambda) I appended to the activations as
    rows: each column of an optq layer is the least-squares reference
    trajectory on [X[:, perm]; sqrt(lambda) I].  An entry may only differ
    on an exact tie under the oracle's step objective, which ends the
    comparison of that column; the states before it agree to 1e-8."""
    rng = np.random.default_rng(35)
    for n, levels in ((4, 3), (9, 4), (16, 16), (32, 4)):
        x = rng.standard_normal((3 * n, n)) * np.exp(rng.uniform(-1.0, 1.0, n))
        w = rng.standard_normal((n, 3))
        grid = grid_from_minmax(w, levels)
        states = []
        q, rep = quantize_layer(
            LayerQuantRequest(weights=w, grids=grid, method="optq", stats=layer_stats("optq", w, x),
                              damping=DampingPolicy(mode, alpha=1e-2), on_state=states.append)
        )
        assert (rep.damping_lambda > 0.0) == (mode != "none")
        perm = np.asarray(rep.order)
        aug = np.vstack([x[:, perm], np.sqrt(rep.damping_lambda) * np.eye(n)])
        target_of = aug @ w[perm]
        for j in range(3):
            qj = q[perm, j]
            ref = quantize_optq_column_ref(w[perm, j], aug, column_grid(grid, j), record_trace=True)
            differ = np.flatnonzero(qj != ref.q)
            stop = int(differ[0]) if differ.size else n
            for t in range(min(stop + 1, n)):
                a, b = states[t][:, j], ref.w_states[t]
                assert np.linalg.norm(a - b) <= 1e-8 * max(1.0, np.linalg.norm(b))
            if differ.size:
                t = stop
                resid = target_of[:, j] - aug[:, :t] @ ref.q[:t] - aug[:, t + 1 :] @ ref.w_states[t][1:]
                objs = [step_objective(resid, aug[:, t], v) for v in (qj[t], ref.q[t])]
                assert abs(objs[0] - objs[1]) <= TIE_TOL * max(1.0, min(objs))


@pytest.mark.parametrize("method", ["optq", "gpfq", "qronos_base", "qronos"])
@pytest.mark.parametrize("order", ["diag", "natural"])
def test_layer_leaves_the_moments_untouched(method, order):
    """The ridge goes on the driver's own copies, never on stats.H or stats.G."""
    rng = np.random.default_rng(27)
    w, x, xq, stats, grid = layer_instance(rng, 7, 56, 3, 4)
    h0, g0 = stats.H.copy(), stats.G.copy()
    _, rep = quantize_layer(LayerQuantRequest(weights=w, grids=grid, method=method, stats=stats,
                                              damping=DampingPolicy("mean_diag_percent"),
                                              order=order))
    assert rep.damping_lambda > 0.0
    assert stats.H.tobytes() == h0.tobytes()
    assert stats.G.tobytes() == g0.tobytes()


def test_layer_validation_errors():
    rng = np.random.default_rng(24)
    w = rng.standard_normal((6, 2))
    grid = grid_from_minmax(w, 4)
    with pytest.raises(ValueError):
        quantize_layer(LayerQuantRequest(weights=w, grids=grid, method="optq"))
    with pytest.raises(ValueError):
        quantize_layer(LayerQuantRequest(weights=w, grids=grid, method="nope"))
    with pytest.raises(ShapeError):
        quantize_layer(LayerQuantRequest(weights=w, grids=grid_from_minmax(w[:, :1], 4), method="rtn"))
    x = rng.standard_normal((10, 6))
    stats = _stats_of(x, x)
    # weights with no output column
    for method in ("rtn", "qronos"):
        with pytest.raises(ShapeError, match="output columns"):
            quantize_layer(LayerQuantRequest(weights=w[:, :0], grids=grid, method=method, stats=stats))


@pytest.mark.parametrize("method", ["rtn", "optq", "gpfq", "qronos"])
def test_layer_takes_one_grid_of_its_columns(method):
    """A grid whose arrays do not match n_out, or a list of per-column
    grids, is a ShapeError; a scalar grid rounds every column alike."""
    rng = np.random.default_rng(25)
    w, _, _, stats, grid = layer_instance(rng, 6, 48, 3, 4)
    for bad in (grid_from_minmax(w[:, :2], 4), grid_from_minmax(np.hstack([w, w]), 4),
                QuantGrid(4, 0.5, np.zeros(2))):
        with pytest.raises(ShapeError, match="do not match 3 output columns"):
            quantize_layer(LayerQuantRequest(weights=w, grids=bad, method=method, stats=stats))
    columns = [column_grid(grid, j) for j in range(3)]
    with pytest.raises(ShapeError, match="expected one QuantGrid"):
        quantize_layer(LayerQuantRequest(weights=w, grids=columns, method=method, stats=stats))
    one = column_grid(grid, 0)
    q, _ = quantize_layer(LayerQuantRequest(weights=w, grids=one, method=method, stats=stats))
    each = QuantGrid(4, np.full(3, one.step_size), np.full(3, one.zero_point))
    q_each, _ = quantize_layer(LayerQuantRequest(weights=w, grids=each, method=method, stats=stats))
    assert q.tobytes() == q_each.tobytes()
    assert np.isin(q, one.alphabet).all()


def test_singular_trailing_block_raises_without_damping():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((12, 5))
    x[:, 4] = x[:, 3]  # exactly dependent columns
    w = rng.standard_normal((5, 2))
    stats = _stats_of(x, x)
    grid = grid_from_minmax(w, 4)
    from qronos import NotPositiveDefiniteError

    with pytest.raises(NotPositiveDefiniteError):
        quantize_layer(LayerQuantRequest(weights=w, grids=grid, method="qronos",
                                         stats=stats, damping=DampingPolicy("none")))


@pytest.mark.parametrize("method", ["optq", "qronos_base", "qronos"])
def test_dead_feature_is_named_in_caller_order(method):
    """Without damping a zero feature makes H singular; the error names
    the caller's 1-based feature, although ordering moves it last."""
    rng = np.random.default_rng(28)
    x = rng.standard_normal((40, 6))
    x[:, 2] = 0.0
    w = rng.standard_normal((6, 2))
    stats = _stats_of(x, x)
    grid = grid_from_minmax(w, 4)
    from qronos import NotPositiveDefiniteError

    req = LayerQuantRequest(weights=w, grids=grid, method=method, stats=stats,
                            damping=DampingPolicy("none"))
    with pytest.raises(NotPositiveDefiniteError, match="feature 3") as exc:
        quantize_layer(req)
    assert exc.value.index == 3


def test_layer_reports_gpfq_zero_column_warning():
    rng = np.random.default_rng(26)
    x = rng.standard_normal((20, 4))
    xq = x.copy()
    xq[:, 1] = 0.0
    w = rng.standard_normal((4, 2))
    stats = _stats_of(x, xq)
    grid = grid_from_minmax(w, 4)
    with pytest.warns(RuntimeWarning):
        q, report = quantize_layer(
            LayerQuantRequest(weights=w, grids=grid, method="gpfq", stats=stats,
                              damping=DampingPolicy("none"), order="natural")
        )
    assert any("zero" in msg for msg in report.warnings)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["optq", "gpfq", "qronos", "qronos_base"]))
def test_layer_outputs_stay_on_grid(seed, method):
    rng = np.random.default_rng(seed)
    w, x, xq, stats, grid = layer_instance(rng, 6, 48, 3, 4)
    q, _ = quantize_layer(LayerQuantRequest(weights=w, grids=grid, method=method, stats=stats))
    for j, alphabet in enumerate(grid.alphabet.T):
        assert set(np.round(q[:, j], 10)) <= set(np.round(alphabet, 10))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("method", ["optq", "qronos_base", "qronos"])
@pytest.mark.parametrize("mode", ["none", "mean_diag_percent", "top_singular_fraction"])
def test_g_path_and_gw_path_agree(seed, method, mode):
    """Stats holding G and stats holding G W (formed as Xq^T (X W)) give
    the same q; the moment objectives agree to rounding."""
    rng = np.random.default_rng([seed, 31])
    n, n_out = (64, 16) if method == "qronos_base" else (300, 64)
    x = rng.standard_normal((4 * n, n)) * np.exp(rng.uniform(-1.0, 1.0, n))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    w = rng.standard_normal((n, n_out))
    grid = grid_from_minmax(w, 16)
    via_g = accumulate(CalibStats(n), x, xq)
    via_gw = accumulate(CalibStats(n), x, xq, weights=w)
    assert via_g.GW is None and via_gw.G is None
    (q_g, rep_g), (q_gw, rep_gw) = (
        quantize_layer(LayerQuantRequest(weights=w, grids=grid, method=method, stats=s,
                                         damping=DampingPolicy(mode)))
        for s in (via_g, via_gw)
    )
    assert q_g.tobytes() == q_gw.tobytes()
    assert rep_g.damping_lambda == rep_gw.damping_lambda
    scale = np.abs(rep_g.objectives)
    assert np.all(np.abs(rep_g.objectives - rep_gw.objectives) <= 1e-14 * scale)


def test_gw_stats_are_refused_where_g_is_read_or_w_differs():
    rng = np.random.default_rng(32)
    n, n_out = 20, 3
    x = rng.standard_normal((60, n))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    w = rng.standard_normal((n, n_out))
    grid = grid_from_minmax(w, 8)
    stats = accumulate(CalibStats(n), x, xq, weights=w)
    with pytest.raises(ValueError, match="entries of G"):
        quantize_layer(LayerQuantRequest(weights=w, grids=grid, method="gpfq", stats=stats))
    with pytest.raises(ValueError, match="other weights"):
        quantize_layer(LayerQuantRequest(weights=w + 1.0, grids=grid, method="qronos", stats=stats))
    with pytest.raises(ValueError, match="no cross moment"):
        quantize_layer(LayerQuantRequest(weights=w, grids=grid, method="qronos", stats=CalibStats(n)))
    with pytest.raises(ValueError, match="no second moment"):
        quantize_layer(LayerQuantRequest(weights=w, grids=grid, method="qronos",
                                         stats=CalibStats(n, G=np.eye(n))))


@pytest.mark.parametrize("method", METHODS)
def test_layer_reports_every_phase(method):
    rng = np.random.default_rng(33)
    w, x, xq, stats, grid = layer_instance(rng, 140, 420, 4, 8)
    _, report = quantize_layer(LayerQuantRequest(weights=w, grids=grid, method=method, stats=stats))
    assert tuple(report.timings) == PHASES
    assert all(v >= 0.0 for v in report.timings.values())
    if method == "qronos":
        assert report.timings["first_step"] > 0.0 and report.timings["factor"] > 0.0
    assert report.timings["sweep"] > 0.0


@pytest.mark.parametrize(
    "method, mode",
    [("qronos", "top_singular_fraction"), ("optq", "mean_diag_percent"),
     ("qronos_base", "top_singular_fraction"), ("gpfq", "none")],
)
def test_layer_scans_h_for_symmetry_once(monkeypatch, method, mode):
    import qronos.linalg as linalg_mod
    import qronos.rounding as rounding_mod

    calls = []
    original = linalg_mod.check_symmetric

    def counting(m, name="matrix"):
        calls.append(m.shape)
        return original(m, name)

    monkeypatch.setattr(linalg_mod, "check_symmetric", counting)
    monkeypatch.setattr(rounding_mod, "check_symmetric", counting, raising=False)
    rng = np.random.default_rng(34)
    w, _, _, stats, grid = layer_instance(rng, 40, 160, 3, 8)
    quantize_layer(LayerQuantRequest(weights=w, grids=grid, method=method, stats=stats,
                                     damping=DampingPolicy(mode)))
    assert calls == [(40, 40)]


@pytest.mark.parametrize("method", ["qronos", "optq", "qronos_base", "gpfq"])
def test_weights_are_matched_to_the_stats_before_any_stats_side_work(monkeypatch, method):
    """Weights with the wrong row count raise ShapeError, and weights other
    than those in the stats' G W raise ValueError, before H is scanned or
    damped: here H holds a NaN that a scan would name first."""
    import qronos.rounding as rounding_mod

    calls = []
    monkeypatch.setattr(rounding_mod, "apply_damping", lambda *a: calls.append(a))
    rng = np.random.default_rng(35)
    w = rng.standard_normal((8, 2))
    grid = grid_from_minmax(w, 4)
    h = np.eye(8)
    h[3, 3] = np.nan
    stats = CalibStats(8, H=h, G=np.eye(8))
    with pytest.raises(ShapeError, match="weight rows 7"):
        quantize_layer(LayerQuantRequest(weights=w[:7], grids=grid, method=method, stats=stats))
    if method != "gpfq":
        gw_stats = CalibStats(8, H=h, GW=np.ones((8, 2)), W=w)
        with pytest.raises(ValueError, match="other weights"):
            quantize_layer(LayerQuantRequest(weights=w + 1.0, grids=grid, method=method, stats=gw_stats))
    assert calls == []


@pytest.mark.parametrize("n, order", [(1, "diag"), (3, "natural")])
def test_direct_form_names_a_zero_leading_pivot(n, order):
    """Processing step 0's pivot lies in no trailing block, so qronos_base
    raises on it as qronos does, rather than rounding 0 / 0."""
    h = np.diag([0.0] + [1.0] * (n - 1))
    w = np.ones((n, 2))
    for method in ("qronos_base", "qronos"):
        req = LayerQuantRequest(w, grid_from_minmax(w * [1.0, 2.0], 4), method, CalibStats(n, H=h, G=h.copy()),
                                DampingPolicy("none"), order)
        with pytest.raises(NotPositiveDefiniteError, match="feature 1,"):
            quantize_layer(req)


def test_round_layer_matches_the_weights_before_the_cross_term(monkeypatch):
    import qronos.calib as calib_mod

    rng = np.random.default_rng(36)
    w, x, xq, _, grid = layer_instance(rng, 12, 48, 2, 8)
    prep = prepare_layer(layer_stats("qronos", w, x, xq), DampingPolicy("none"), "diag", "qronos")
    calls = []
    monkeypatch.setattr(calib_mod, "permute_weights", lambda *a: calls.append(a))
    with pytest.raises(ShapeError, match="weight rows 11"):
        round_layer(prep, w[:11], grid)
    with pytest.raises(ValueError, match="other weights"):
        round_layer(prep, w + 1.0, grid)
    assert calls == []


# the inputs calib.accumulate gets for each method, spelled out by hand:
# (quantized path, weights passed)
_HAND_ROUTE = {
    "optq": ("x", True),
    "gpfq": ("xq", False),
    "qronos_base": ("xq", True),
    "qronos": ("xq", True),
}


@pytest.mark.parametrize("method", sorted(_HAND_ROUTE))
@pytest.mark.parametrize("n_in, n_out", [(24, 5), (12, 12)])
def test_layer_stats_form_and_q_match_hand_built_stats(method, n_in, n_out):
    rng = np.random.default_rng(31)
    x = rng.standard_normal((80, n_in))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    w = rng.standard_normal((n_in, n_out))
    stats = layer_stats(method, w, x, xq)
    if method == "optq":
        form = "shared"
    elif method != "gpfq" and 2 * n_out < n_in:
        form = "GW"
    else:
        form = "G"
    got = "GW" if stats.GW is not None else "shared" if stats.G is stats.H else "G"
    assert got == form
    path, with_w = _HAND_ROUTE[method]
    hand = accumulate(CalibStats(n_in), x, x if path == "x" else xq, weights=w if with_w else None)
    grid = grid_from_minmax(w, 8)
    qs = [
        quantize_layer(
            LayerQuantRequest(weights=w, grids=grid, method=method, stats=st,
                              damping=DampingPolicy("mean_diag_percent"))
        )[0]
        for st in (stats, hand)
    ]
    assert qs[0].tobytes() == qs[1].tobytes()


def test_layer_stats_rejects_unknown_method_and_missing_path():
    rng = np.random.default_rng(32)
    x = rng.standard_normal((10, 4))
    w = rng.standard_normal((4, 1))
    with pytest.raises(ValueError, match="unknown method"):
        layer_stats("sorcery", w, x, x)
    with pytest.raises(ValueError, match="pass xq"):
        layer_stats("qronos", w, x)
    # the optq family never reads xq
    assert layer_stats("optq", w, x).G is not None


@pytest.mark.parametrize("mode", ["none", "mean_diag_percent", "top_singular_fraction"])
def test_no_damping_policy_makes_q_nan(mode):
    """Every alpha a policy accepts gives grid values (the rest are refused
    when the policy is made)."""
    rng = np.random.default_rng(33)
    w, _, _, stats, grid = layer_instance(rng, 16, 48, 3, 8)
    for alpha in (0.0, 1e-6, 1.0, 1e6):
        for method in ("optq", "gpfq", "qronos_base", "qronos"):
            req = LayerQuantRequest(weights=w, grids=grid, method=method, stats=stats,
                                    damping=DampingPolicy(mode, alpha=alpha))
            q, report = quantize_layer(req)
            assert np.isfinite(q).all() and np.isfinite(report.damping_lambda)
            for j, alphabet in enumerate(grid.alphabet.T):
                assert np.isin(q[:, j], alphabet).all()


def _optq_layer(grid, stats, order="diag"):
    return quantize_layer(LayerQuantRequest(np.ones((4, 2)), grid, "optq", stats=stats, order=order))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda grid: quantize_optq_column_ref(np.ones(4), np.ones((6, 3)), grid),
         ShapeError, "activations \\(6, 3\\) do not match column length 4"),
        (lambda grid: quantize_gpfq_column(np.ones(4), np.ones((6, 4)), np.ones((6, 3)), grid),
         ShapeError, "activation pair"),
        (lambda grid: _optq_layer(grid, CalibStats(4, H=np.eye(4), G=np.eye(4)), order="bogus"),
         ValueError, "unknown order mode 'bogus'"),
        (lambda grid: _optq_layer(grid, CalibStats(3, H=np.eye(3), G=np.eye(3))),
         ShapeError, "stats dim 3 does not match weight rows 4"),
        (lambda grid: quantize_optq_column(np.ones((4, 1)), np.eye(4), grid),
         ShapeError, "1-D weight column, got shape \\(4, 1\\)"),
        (lambda grid: quantize_qronos_column(np.ones(0), np.eye(4), np.eye(4), grid),
         ShapeError, "1-D weight column, got shape \\(0,\\)"),
    ],
    ids=["optq_ref-activations", "gpfq-activations", "order", "stats-dim", "2d-column", "empty-column"],
)
def test_malformed_rounding_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call(grid_from_minmax(np.array([-1.0, 1.0]), 4))


# ---------------------------------------------------------------------------
# prepare once, round many


def _column_routes(h, g, hx):
    return {
        "optq": (lambda w, grid, rec: quantize_optq_column(w, hx, grid, rec), hx, hx),
        "qronos_base": (lambda w, grid, rec: quantize_qronos_base_column(w, h, g, grid, rec), h, g),
        "qronos": (lambda w, grid, rec: quantize_qronos_column(w, h, g, grid, rec), h, g),
    }


@pytest.mark.parametrize("method", ["optq", "qronos_base", "qronos"])
def test_column_route_is_a_one_column_layer(method):
    """Each per-column entry point returns quantize_layer's q and states on
    one column, bit for bit, as fresh C-contiguous vectors."""
    x, xq, w, layer_grid = _golden_instance(0, 24, 3)
    route, h, g = _column_routes(xq.T @ xq, xq.T @ x, x.T @ x)[method]
    for j in range(3):
        grid = column_grid(layer_grid, j)
        states = []
        q, _ = quantize_layer(LayerQuantRequest(w[:, j : j + 1], grid, method, stats=CalibStats(24, H=h, G=g),
                                                order="natural", on_state=states.append))
        tr = route(w[:, j], grid, True)
        assert tr.q.tobytes() == q[:, 0].tobytes()
        assert [s.tobytes() for s in tr.w_states] == [s[:, 0].tobytes() for s in states]
        assert route(w[:, j], grid, False).q.tobytes() == tr.q.tobytes()
        for out in (tr.q, *tr.w_states):
            assert out.ndim == 1 and out.flags.c_contiguous and out.flags.owndata


def test_column_routes_never_enter_quantize_layer(monkeypatch):
    import qronos.rounding as rounding_mod

    def refuse(req):
        raise AssertionError("a per-column route built a whole layer report")

    monkeypatch.setattr(rounding_mod, "quantize_layer", refuse)
    x, xq, w, layer_grid = _golden_instance(1, 12, 1)
    for route, _, _ in _column_routes(xq.T @ xq, xq.T @ x, x.T @ x).values():
        for rec in (False, True):
            assert route(w[:, 0], column_grid(layer_grid, 0), rec).q.shape == (12,)


@pytest.mark.parametrize("method", ["optq", "gpfq", "qronos_base", "qronos"])
def test_one_preparation_rounds_two_weight_matrices(method):
    """prepare_layer once, round_layer on two weight matrices: the two
    quantize_layer outputs bit for bit, and the preparation unchanged."""
    rng = np.random.default_rng(43)
    n, n_out = 150, 5
    x = rng.standard_normal((3 * n, n)) * np.exp(rng.uniform(-1.0, 1.0, n))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    stats = accumulate(CalibStats(n), x, x if method == "optq" else xq)  # holds G, which every W shares
    damping = METHOD_SPECS[method].damping
    prep = prepare_layer(stats, damping, "diag", method)
    before = [a.tobytes() for a in (prep.order, prep.h, prep.h0) if a is not None]
    for w in (rng.standard_normal((n, n_out)), rng.standard_normal((n, n_out + 2))):
        grid = grid_from_minmax(w, 16)
        q, _ = quantize_layer(LayerQuantRequest(w, grid, method, stats=stats, damping=damping))
        qp = round_layer(prep, w, grid)
        assert unpermute_result(qp, prep.order).tobytes() == q.tobytes()
        assert [a.tobytes() for a in (prep.order, prep.h, prep.h0) if a is not None] == before
    assert all(not a.flags.writeable for a in (prep.order, prep.h, prep.h0) if a is not None)


@pytest.mark.parametrize("method", ["optq", "qronos_base", "qronos"])
def test_each_half_names_the_failing_feature(method):
    """The factor fails in prepare_layer (optq, qronos), qronos_base's
    per-step solve in round_layer; both name the caller's feature 3."""
    from qronos import NotPositiveDefiniteError

    rng = np.random.default_rng(28)
    x = rng.standard_normal((40, 6))
    x[:, 2] = 0.0
    w = rng.standard_normal((6, 2))
    stats = _stats_of(x, x)
    with pytest.raises(NotPositiveDefiniteError, match="feature 3") as exc:
        round_layer(prepare_layer(stats, DampingPolicy("none"), "diag", method), w, grid_from_minmax(w, 4))
    assert exc.value.index == 3
    if method != "qronos_base":
        with pytest.raises(NotPositiveDefiniteError, match="feature 3"):
            prepare_layer(stats, DampingPolicy("none"), "diag", method)


def test_prepare_layer_refuses_rtn_and_round_layer_other_weights():
    rng = np.random.default_rng(44)
    w, _, _, stats, grid = layer_instance(rng, 6, 48, 2, 4)
    with pytest.raises(ValueError, match="reads no moments"):
        prepare_layer(stats, DampingPolicy("none"), "diag", "rtn")
    prep = prepare_layer(stats, DampingPolicy("none"), "diag", "qronos")
    with pytest.raises(ShapeError, match="stats dim 6 does not match weight rows 5"):
        round_layer(prep, w[:5], grid)


def test_scipy_pool_runs_the_layer_on_one_thread_and_is_restored(monkeypatch):
    """Inside each half and quantize_layer SciPy's OpenBLAS pool has one
    thread; the caller's count comes back on return and on a raise."""
    import qronos.linalg as linalg_mod
    import qronos.rounding as rounding_mod
    from qronos import NotPositiveDefiniteError

    pool = linalg_mod._openblas_pool("scipy")
    if pool is None:
        pytest.skip("SciPy's BLAS exports no thread-count symbols")
    get, put = pool
    seen = []
    original = rounding_mod.reversed_cholesky

    def spy(rev, **kwargs):
        seen.append(get())
        return original(rev, **kwargs)

    monkeypatch.setattr(rounding_mod, "reversed_cholesky", spy)
    rng = np.random.default_rng(45)
    w, x, _, stats, grid = layer_instance(rng, 8, 64, 2, 4)
    dead = x.copy()
    dead[:, 3] = 0.0
    caller = get()
    put(2)
    try:
        quantize_layer(LayerQuantRequest(w, grid, "qronos", stats=stats))
        assert get() == 2
        with pytest.raises(NotPositiveDefiniteError):
            quantize_layer(LayerQuantRequest(w, grid, "optq", stats=_stats_of(dead, dead)))
        assert get() == 2
        prep = prepare_layer(stats, DampingPolicy("none"), "diag", "qronos")
        assert get() == 2
        with pytest.raises(ShapeError):
            round_layer(prep, w[:4], grid)
        assert get() == 2
    finally:
        put(caller)
    assert seen == [1, 1, 1]
