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
    METHODS,
    NonFiniteInputError,
    ShapeError,
    accumulate,
    chol_of_inverse,
    grid_from_minmax,
    quantize_gpfq_column,
    quantize_layer,
    quantize_optq_column,
    quantize_optq_column_ref,
    quantize_qronos_base_column,
    quantize_qronos_column,
    quantize_rtn,
    quantize_rtn_layer,
)
from qronos.oracle import TIE_TOL, step_objective, stepwise_argmin_oracle
from qronos.rounding import PHASES, SWEEP_BLOCK
from helpers import column_instance, layer_instance, on_grid_weights


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
    grids = [grid_from_minmax(w[:, j], 4) for j in range(5)]
    assert np.array_equal(quantize_rtn_layer(w, grids), w)


def test_rtn_layer_matches_per_entry():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((10, 4))
    grids = [grid_from_minmax(w[:, j], 8) for j in range(4)]
    q = quantize_rtn_layer(w, grids)
    for j, g in enumerate(grids):
        assert np.array_equal(q[:, j], quantize_rtn(w[:, j], g))
        assert np.max(np.abs(q[:, j] - w[:, j])) <= g.step_size / 2 + 1e-12


# ---------------------------------------------------------------------------
# column trajectories


def test_optq_on_grid_passthrough():
    rng = np.random.default_rng(2)
    w = on_grid_weights(rng, 8, 1)[:, 0]
    grid = grid_from_minmax(w, 4)
    x = rng.standard_normal((40, 8))
    chol = chol_of_inverse(x.T @ x)
    tr = quantize_optq_column(w, chol, grid, record_trace=True)
    assert np.array_equal(tr.q, w)
    assert all(np.allclose(d, 0.0) for d in tr.deltas)


def test_optq_single_coordinate():
    grid = grid_from_minmax(np.array([-1.0, 1.0]), 4)
    x = np.random.default_rng(3).standard_normal((10, 1))
    chol = chol_of_inverse(x.T @ x)
    tr = quantize_optq_column(np.array([0.4]), chol, grid)
    assert tr.q[0] == quantize_rtn(0.4, grid)


def test_optq_matches_lstsq_reference():
    rng = np.random.default_rng(4)
    w, x, _, grid = column_instance(rng, 8, 64, 4, identical=True)
    chol = chol_of_inverse(x.T @ x)
    fast = quantize_optq_column(w, chol, grid, record_trace=True)
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
    assert tr.objective <= 1e-18


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
    eff = quantize_qronos_column(w, h, g, chol_of_inverse(h), grid, record_trace=True)
    assert np.array_equal(base.q, eff.q)
    for a, b in zip(base.w_states, eff.w_states):
        assert np.linalg.norm(a - b) <= 1e-8 * max(1.0, np.linalg.norm(b))


def test_qronos_identical_paths_on_grid_passthrough():
    rng = np.random.default_rng(14)
    w = on_grid_weights(rng, 6, 1)[:, 0]
    grid = grid_from_minmax(w, 4)
    x = rng.standard_normal((48, 6))
    h = x.T @ x
    tr = quantize_qronos_column(w, h, h.copy(), chol_of_inverse(h), grid)
    assert np.array_equal(tr.q, w)


def test_trace_first_state_is_input_column():
    rng = np.random.default_rng(15)
    w, x, xq, grid = column_instance(rng, 8, 64, 4)
    h, g = xq.T @ xq, xq.T @ x
    for tr in (
        quantize_optq_column(w, chol_of_inverse(h), grid, record_trace=True),
        quantize_qronos_base_column(w, h, g, grid, record_trace=True),
        quantize_qronos_column(w, h, g, chol_of_inverse(h), grid, record_trace=True),
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
    grids = [grid_from_minmax(w[:, j], 4) for j in range(3)]
    req = LayerQuantRequest(weights=w, grids=grids, method="rtn")
    q, report = quantize_layer(req)
    assert np.array_equal(q, quantize_rtn_layer(w, grids))
    assert report.damping_lambda == 0.0
    assert np.all(np.isnan(report.objectives))


@pytest.mark.parametrize("method", [m for m in METHODS if m != "rtn"])
def test_layer_matches_column_ops(method):
    """The vectorized layer path and the traced per-column path agree."""
    rng = np.random.default_rng(17)
    w, x, xq, stats, grids = layer_instance(rng, 10, 80, 6, 4)
    kw = {"x": x} if method == "optq_ref" else {}
    fast, _ = quantize_layer(
        LayerQuantRequest(weights=w, grids=grids, method=method, stats=stats,
                          damping=DampingPolicy("mean_diag_percent")), **kw
    )
    traced, rep = quantize_layer(
        LayerQuantRequest(weights=w, grids=grids, method=method, stats=stats,
                          damping=DampingPolicy("mean_diag_percent"), record_trace=True), **kw
    )
    assert np.array_equal(fast, traced)
    assert len(rep.traces) == 6


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
    w, x, xq, stats, grids = layer_instance(rng, n, 2 * n + 40, 6, 16)
    policy = DampingPolicy("mean_diag_percent")
    blocked, rep = quantize_layer(
        LayerQuantRequest(weights=w, grids=grids, method=method, stats=stats,
                          damping=policy, order="natural")
    )
    lam = rep.damping_lambda
    h = stats.H + lam * np.eye(n)
    g = stats.G + lam * np.eye(n)
    chol = chol_of_inverse(h)
    for j in range(w.shape[1]):
        if method == "optq":
            tr = quantize_optq_column(w[:, j], chol, grids[j], record_trace=True)
        else:
            tr = quantize_qronos_column(w[:, j], h, g, chol, grids[j], record_trace=True)
        differ = np.flatnonzero(blocked[:, j] != tr.q)
        if differ.size:
            t = int(differ[0])
            assert t > 0
            state = tr.w_states[t][0]
            objs = [0.5 * (state - v) ** 2 / chol.L[t, t] ** 2 for v in (blocked[t, j], tr.q[t])]
            assert abs(objs[0] - objs[1]) <= TIE_TOL * max(1.0, min(objs))


@pytest.mark.parametrize("method", ["optq", "gpfq", "qronos_base", "qronos"])
def test_trace_does_not_change_layer_results(method):
    """Recording traces leaves q and the warnings bit for bit as they were.

    n = 300 spans three sweep blocks; gpfq meets a zero-norm
    quantized-path column.
    """
    rng = np.random.default_rng(40)
    n = 300
    x = rng.standard_normal((2 * n, n))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    xq[:, 5] = 0.0
    w = rng.standard_normal((n, 3))
    grids = [grid_from_minmax(w[:, j], 16) for j in range(3)]
    stats = _stats_of(x, xq if method != "optq" else x)
    policy = DampingPolicy("none" if method == "gpfq" else "mean_diag_percent")
    runs = []
    for record in (False, True):
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            runs.append(quantize_layer(
                LayerQuantRequest(weights=w, grids=grids, method=method, stats=stats,
                                  damping=policy, record_trace=record)
            ))
    (q0, rep0), (q1, rep1) = runs
    assert q0.tobytes() == q1.tobytes()
    assert rep0.warnings == rep1.warnings
    assert len(rep0.warnings) == (1 if method == "gpfq" else 0)
    assert rep0.objectives.tobytes() == rep1.objectives.tobytes()
    for j, tr in enumerate(rep1.traces):
        assert np.array_equal(tr.q, q1[rep1.order, j])
        assert [s.size for s in tr.w_states] == list(range(n, 0, -1))
        if method != "gpfq":
            assert [d.size for d in tr.deltas] == list(range(n - 1, 0, -1))


@pytest.mark.parametrize("method", ["optq", "qronos_base", "qronos"])
def test_traced_states_match_the_unblocked_recursion(method):
    """Recorded states across block boundaries equal the plain per-step update."""
    rng = np.random.default_rng(41)
    n = 2 * SWEEP_BLOCK + 20
    w, x, xq, grid = column_instance(rng, n, 2 * n, 16)
    h, g = xq.T @ xq, xq.T @ x
    chol = chol_of_inverse(h)
    if method == "optq":
        tr = quantize_optq_column(w, chol, grid, record_trace=True)
    elif method == "qronos":
        tr = quantize_qronos_column(w, h, g, chol, grid, record_trace=True)
    else:
        tr = quantize_qronos_base_column(w, h, g, grid, record_trace=True)
    low = chol.L
    for t in range(1, n - 1):
        # one unblocked step from the recorded state before it
        prev = tr.w_states[t]
        expect = prev[1:] - (prev[0] - tr.q[t]) / low[t, t] * low[t + 1 :, t]
        got = tr.w_states[t + 1]
        assert np.linalg.norm(got - expect) <= 1e-9 * max(1.0, np.linalg.norm(expect))
        assert np.linalg.norm(tr.deltas[t] - (got - prev[1:])) <= 1e-9 * max(
            1.0, np.linalg.norm(got)
        )


@pytest.mark.parametrize("method", ["optq", "optq_ref", "gpfq", "qronos_base", "qronos"])
def test_non_finite_g_raises_in_caller_order(method):
    # descending-diagonal ordering reverses the features; the message
    # names the caller's cell
    h = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    g = np.eye(5)
    g[1, 3] = np.nan
    grids = [grid_from_minmax(np.arange(5.0), 4)] * 2
    req = LayerQuantRequest(np.ones((5, 2)), grids, method, stats=CalibStats(5, H=h, G=g))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInputError, match="G: non-finite value nan at row 1, col 3"):
            quantize_layer(req, x=np.eye(5))


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from qronos import CalibStats, LayerQuantRequest, accumulate, grid_from_minmax, quantize_layer
rng = np.random.default_rng(300)
x = rng.standard_normal((700, 300)) * np.exp(rng.uniform(-1.0, 1.0, 300))
xq = x + 0.1 * rng.standard_normal(x.shape)
w = rng.standard_normal((300, 160))
grids = [grid_from_minmax(w[:, j], 16) for j in range(w.shape[1])]
stats = accumulate(CalibStats(300), x, xq)
q, _ = quantize_layer(LayerQuantRequest(weights=w, grids=grids, method="qronos", stats=stats))
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
    w, x, xq, stats, grids = layer_instance(rng, 8, 64, 5, 4)
    q, report = quantize_layer(
        LayerQuantRequest(weights=w, grids=grids, method="gpfq", stats=stats,
                          damping=DampingPolicy("none"), order="natural")
    )
    for j in range(5):
        tr = quantize_gpfq_column(w[:, j], x, xq, grids[j])
        assert np.array_equal(q[:, j], tr.q)


def test_layer_collapse_to_optq_on_identical_paths():
    rng = np.random.default_rng(19)
    w, x, _, stats, grids = layer_instance(rng, 12, 96, 4, 16, identical=True)
    shared = DampingPolicy("mean_diag_percent")
    q_opt, _ = quantize_layer(LayerQuantRequest(weights=w, grids=grids, method="optq",
                                                stats=stats, damping=shared))
    q_qro, _ = quantize_layer(LayerQuantRequest(weights=w, grids=grids, method="qronos",
                                                stats=stats, damping=shared))
    assert np.array_equal(q_opt, q_qro)


def test_layer_determinism():
    rng = np.random.default_rng(20)
    w, x, xq, stats, grids = layer_instance(rng, 9, 72, 4, 4)
    req = LayerQuantRequest(weights=w, grids=grids, method="qronos", stats=stats)
    q1, r1 = quantize_layer(req, x=x, xq=xq)
    q2, r2 = quantize_layer(req, x=x, xq=xq)
    assert q1.tobytes() == q2.tobytes()
    assert np.array_equal(r1.objectives, r2.objectives)


def test_layer_order_is_internal_bijection():
    """Running permuted inputs without ordering equals the ordered run."""
    rng = np.random.default_rng(21)
    w, x, xq, stats, grids = layer_instance(rng, 8, 64, 3, 4)
    from qronos import order_by_diag, permute_weights, unpermute_result

    ordered, _ = quantize_layer(
        LayerQuantRequest(weights=w, grids=grids, method="qronos", stats=stats,
                          damping=DampingPolicy("none"), order="diag")
    )
    order = order_by_diag(stats.H)
    ix = np.ix_(order.perm, order.perm)
    permuted = CalibStats(stats.dim, H=stats.H[ix], G=stats.G[ix])
    manual, _ = quantize_layer(
        LayerQuantRequest(weights=permute_weights(w, order), grids=grids, method="qronos",
                          stats=permuted, damping=DampingPolicy("none"), order="natural")
    )
    assert np.array_equal(ordered, unpermute_result(manual, order))


def test_layer_peak_memory_is_a_few_copies_of_h():
    """A qronos layer holds the permuted pair, the factor and its
    workspace: its tracemalloc peak stays within 6 copies of H."""
    rng = np.random.default_rng(29)
    w, x, xq, stats, grids = layer_instance(rng, 512, 1024, 128, 16)
    req = LayerQuantRequest(weights=w, grids=grids, method="qronos", stats=stats,
                            damping=DampingPolicy("top_singular_fraction"))
    quantize_layer(req)  # first call imports the Lanczos solver
    tracemalloc.start()
    try:
        quantize_layer(req)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * stats.H.nbytes


def test_layer_residual_objective_form():
    rng = np.random.default_rng(22)
    w, x, xq, stats, grids = layer_instance(rng, 6, 48, 3, 4)
    q, report = quantize_layer(
        LayerQuantRequest(weights=w, grids=grids, method="qronos", stats=stats), x=x, xq=xq
    )
    assert report.objective_form == "residual"
    resid = x @ w - xq @ q
    assert np.allclose(report.objectives, 0.5 * np.sum(resid**2, axis=0))


@pytest.mark.parametrize("mode", ["none", "mean_diag_percent", "top_singular_fraction"])
def test_layer_moment_objective_is_shifted_residual(mode):
    """Moment-form objective is 0.5 q^T (H + lam I) q - q^T G w: the
    residual of the ridge-augmented pair, shifted by a q-free constant."""
    rng = np.random.default_rng(23)
    w, x, xq, stats, grids = layer_instance(rng, 6, 48, 3, 4)
    req = LayerQuantRequest(weights=w, grids=grids, method="optq", stats=stats,
                            damping=DampingPolicy(mode, alpha=1e-2))
    q, rep_m = quantize_layer(req)
    assert rep_m.objective_form == "moment_quadratic"
    lam = rep_m.damping_lambda
    assert (lam == 0.0) == (mode == "none")
    h_damped = stats.H + lam * np.eye(6)
    for j in range(3):
        direct = 0.5 * float(q[:, j] @ h_damped @ q[:, j]) - float(q[:, j] @ stats.G @ w[:, j])
        assert rep_m.objectives[j] == pytest.approx(direct, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("method", ["optq", "gpfq", "qronos_base", "qronos"])
@pytest.mark.parametrize("order", ["diag", "natural"])
def test_layer_leaves_the_moments_untouched(method, order):
    """The ridge goes on the driver's own copies, never on stats.H or stats.G."""
    rng = np.random.default_rng(27)
    w, x, xq, stats, grids = layer_instance(rng, 7, 56, 3, 4)
    h0, g0 = stats.H.copy(), stats.G.copy()
    _, rep = quantize_layer(LayerQuantRequest(weights=w, grids=grids, method=method, stats=stats,
                                              damping=DampingPolicy("mean_diag_percent"),
                                              order=order))
    assert rep.damping_lambda > 0.0
    assert stats.H.tobytes() == h0.tobytes()
    assert stats.G.tobytes() == g0.tobytes()


def test_layer_validation_errors():
    rng = np.random.default_rng(24)
    w = rng.standard_normal((6, 2))
    grids = [grid_from_minmax(w[:, j], 4) for j in range(2)]
    with pytest.raises(ValueError):
        quantize_layer(LayerQuantRequest(weights=w, grids=grids, method="optq"))
    with pytest.raises(ValueError):
        quantize_layer(LayerQuantRequest(weights=w, grids=grids, method="nope"))
    with pytest.raises(ShapeError):
        quantize_layer(LayerQuantRequest(weights=w, grids=grids[:1], method="rtn"))
    x = rng.standard_normal((10, 6))
    stats = _stats_of(x, x)
    with pytest.raises(ValueError):
        quantize_layer(LayerQuantRequest(weights=w, grids=grids, method="optq_ref", stats=stats))


def test_singular_trailing_block_raises_without_damping():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((12, 5))
    x[:, 4] = x[:, 3]  # exactly dependent columns
    w = rng.standard_normal((5, 2))
    stats = _stats_of(x, x)
    grids = [grid_from_minmax(w[:, j], 4) for j in range(2)]
    from qronos import NotPositiveDefiniteError

    with pytest.raises(NotPositiveDefiniteError):
        quantize_layer(LayerQuantRequest(weights=w, grids=grids, method="qronos",
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
    grids = [grid_from_minmax(w[:, j], 4) for j in range(2)]
    from qronos import NotPositiveDefiniteError

    req = LayerQuantRequest(weights=w, grids=grids, method=method, stats=stats,
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
    grids = [grid_from_minmax(w[:, j], 4) for j in range(2)]
    with pytest.warns(RuntimeWarning):
        q, report = quantize_layer(
            LayerQuantRequest(weights=w, grids=grids, method="gpfq", stats=stats,
                              damping=DampingPolicy("none"), order="natural")
        )
    assert any("zero" in msg for msg in report.warnings)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["optq", "gpfq", "qronos", "qronos_base"]))
def test_layer_outputs_stay_on_grid(seed, method):
    rng = np.random.default_rng(seed)
    w, x, xq, stats, grids = layer_instance(rng, 6, 48, 3, 4)
    q, _ = quantize_layer(LayerQuantRequest(weights=w, grids=grids, method=method, stats=stats))
    for j, g in enumerate(grids):
        assert set(np.round(q[:, j], 10)) <= set(np.round(g.alphabet, 10))


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
    grids = [grid_from_minmax(w[:, j], 16) for j in range(n_out)]
    via_g = accumulate(CalibStats(n), x, xq)
    via_gw = accumulate(CalibStats(n), x, xq, weights=w)
    assert via_g.GW is None and via_gw.G is None
    (q_g, rep_g), (q_gw, rep_gw) = (
        quantize_layer(LayerQuantRequest(weights=w, grids=grids, method=method, stats=s,
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
    grids = [grid_from_minmax(w[:, j], 8) for j in range(n_out)]
    stats = accumulate(CalibStats(n), x, xq, weights=w)
    with pytest.raises(ValueError, match="entries of G"):
        quantize_layer(LayerQuantRequest(weights=w, grids=grids, method="gpfq", stats=stats))
    with pytest.raises(ValueError, match="other weights"):
        quantize_layer(LayerQuantRequest(weights=w + 1.0, grids=grids, method="qronos", stats=stats))
    with pytest.raises(ValueError, match="no cross moment"):
        quantize_layer(LayerQuantRequest(weights=w, grids=grids, method="qronos", stats=CalibStats(n)))


@pytest.mark.parametrize("method", METHODS)
def test_layer_reports_every_phase(method):
    rng = np.random.default_rng(33)
    w, x, xq, stats, grids = layer_instance(rng, 140, 420, 4, 8)
    _, report = quantize_layer(
        LayerQuantRequest(weights=w, grids=grids, method=method, stats=stats),
        x=x if method == "optq_ref" else None,
    )
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
    monkeypatch.setattr(rounding_mod, "check_symmetric", counting)
    rng = np.random.default_rng(34)
    w, _, _, stats, grids = layer_instance(rng, 40, 160, 3, 8)
    quantize_layer(LayerQuantRequest(weights=w, grids=grids, method=method, stats=stats,
                                     damping=DampingPolicy(mode)))
    assert calls == [(40, 40)]
