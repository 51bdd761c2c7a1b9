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
    NonFiniteInputError,
    ShapeError,
    accumulate,
    grid_from_minmax,
    order_by_diag,
    permute_weights,
    quantize_layer,
    unpermute_result,
)


def test_single_batch_equals_direct_products():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 5))
    xq = x + 0.1 * rng.standard_normal((16, 5))
    stats = accumulate(CalibStats(5), x, xq)
    assert np.array_equal(stats.H, xq.T @ xq)
    assert np.array_equal(stats.G, xq.T @ x)
    assert stats.n_samples == 16


def test_identical_paths_make_moments_coincide():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 4))
    stats = accumulate(CalibStats(4), x, x.copy())
    assert np.allclose(stats.H, stats.G, rtol=0, atol=1e-12 * np.abs(stats.H).max())
    assert np.array_equal(stats.H, stats.H.T)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10_000))
def test_streaming_matches_monolithic(n_batches, seed):
    rng = np.random.default_rng(seed)
    n, m = 6, 48
    x = rng.standard_normal((m, n))
    xq = x + 0.2 * rng.standard_normal((m, n))
    cuts = np.sort(rng.integers(0, m + 1, size=n_batches - 1)) if n_batches > 1 else []
    stats = CalibStats(n)
    for lo, hi in zip([0, *cuts], [*cuts, m]):
        stats = accumulate(stats, x[lo:hi], xq[lo:hi])
    scale = max(1.0, np.abs(xq.T @ xq).max())
    assert np.abs(stats.H - xq.T @ xq).max() <= 1e-12 * scale
    assert np.abs(stats.G - xq.T @ x).max() <= 1e-12 * scale
    assert stats.n_samples == m


def test_accumulate_rejects_shape_mismatch():
    stats = CalibStats(4)
    x = np.zeros((8, 4))
    with pytest.raises(ShapeError):
        accumulate(stats, x, np.zeros((8, 3)))
    with pytest.raises(ShapeError):
        accumulate(stats, np.zeros((8, 5)), np.zeros((8, 5)))


def test_order_by_diag_worked_example():
    order = order_by_diag(np.diag([1.0, 3.0, 2.0]))
    assert order.tolist() == [1, 2, 0]
    assert unpermute_result(np.arange(3), order).tolist() == [2, 0, 1]


def test_order_by_diag_ties_are_stable():
    order = order_by_diag(np.eye(5))
    assert order.tolist() == [0, 1, 2, 3, 4]


def test_order_by_diag_sorts_descending():
    rng = np.random.default_rng(3)
    h = np.diag(rng.random(64))
    order = order_by_diag(h)
    through = np.diag(h)[order]
    assert np.all(np.diff(through) <= 0)


def test_undamped_and_damped_diagonals_give_same_order():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((40, 8))
    h = a.T @ a
    lam = 0.01 * np.mean(np.diag(h))
    assert order_by_diag(h).tolist() == order_by_diag(h + lam * np.eye(8)).tolist()


def test_permute_round_trip():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((7, 3))
    order = order_by_diag(np.diag(rng.random(7)))
    assert np.array_equal(unpermute_result(permute_weights(w, order), order), w)


def test_permute_stats_is_congruent():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((20, 5))
    xq = x + 0.1 * rng.standard_normal((20, 5))
    stats = accumulate(CalibStats(5), x, xq)
    order = order_by_diag(stats.H)
    ix = np.ix_(order, order)
    # permuting the activations first must build the same moments
    direct = accumulate(CalibStats(5), x[:, order], xq[:, order])
    assert np.allclose(stats.H[ix], direct.H, atol=1e-12)
    assert np.allclose(stats.G[ix], direct.G, atol=1e-12)


def test_equal_diagonal_makes_ordering_a_no_op():
    rng = np.random.default_rng(8)
    n, m, n_out = 6, 48, 4
    # sign matrix: every column has sum of squares exactly m, so the
    # diagonal of H is exactly constant and the stable sort keeps order
    x = rng.choice([-1.0, 1.0], size=(m, n))
    w = rng.standard_normal((n, n_out))
    stats = accumulate(CalibStats(n), x, x)
    grid = grid_from_minmax(w, 4)
    outs = {}
    for mode in ("diag", "natural"):
        req = LayerQuantRequest(
            weights=w, grids=grid, method="optq", stats=stats,
            damping=DampingPolicy("mean_diag_percent"), order=mode,
        )
        outs[mode], _ = quantize_layer(req)
    assert np.array_equal(outs["diag"], outs["natural"])


def test_one_path_batch_shares_h_and_forms_one_product():
    rng = np.random.default_rng(11)
    n = 64
    x = rng.standard_normal((256, n))
    stats = accumulate(CalibStats(n), x, x)
    assert stats.G is stats.H
    assert np.array_equal(stats.H, x.T @ x)
    # one n x n product besides H itself; two products and G's own array
    # would need two more
    tracemalloc.start()
    try:
        accumulate(CalibStats(n), x, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8
    # a later batch of two distinct paths would add to H through G
    before = stats.H.copy()
    with pytest.raises(ValueError, match="one path"):
        accumulate(stats, x, x.copy())
    assert stats.H.tobytes() == before.tobytes()
    # a one-path batch into stats built from two paths adds to both
    pair = accumulate(CalibStats(n), x, x.copy())
    accumulate(pair, x, x)
    assert pair.G is not pair.H and np.array_equal(pair.G, 2 * (x.T @ x))


def test_shared_moments_leave_optq_unchanged():
    rng = np.random.default_rng(12)
    n, n_out = 40, 6
    x = rng.standard_normal((160, n))
    w = rng.standard_normal((n, n_out))
    grid = grid_from_minmax(w, 8)
    shared = accumulate(CalibStats(n), x, x)
    separate = CalibStats(n, H=x.T @ x, G=x.T @ x)
    outs = [
        quantize_layer(LayerQuantRequest(weights=w, grids=grid, method="optq", stats=s,
                                         damping=DampingPolicy("mean_diag_percent")))
        for s in (shared, separate)
    ]
    assert outs[0][0].tobytes() == outs[1][0].tobytes()
    assert outs[0][1].objectives.tobytes() == outs[1][1].objectives.tobytes()


@pytest.mark.parametrize(
    "one_path, where, name",
    [(False, "x", "x"), (False, "xq", "xq"), (True, "x", "x")],
)
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("with_weights", [False, True])
def test_non_finite_batch_is_named_and_stats_untouched(one_path, where, name, bad, with_weights):
    rng = np.random.default_rng(13)
    x = rng.standard_normal((8, 5))
    xq = x if one_path else x + 0.1 * rng.standard_normal((8, 5))
    (x if where == "x" else xq)[2, 1] = bad
    stats = CalibStats(5)
    weights = rng.standard_normal((5, 2)) if with_weights else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteInputError, match=f"^{name} batch: .* at row 2, feature 1$"):
            accumulate(stats, x, xq, weights=weights)
    assert stats.n_samples == 0 and stats.H is None
    assert stats.G is None and stats.GW is None


def test_shape_rule_picks_the_cross_form():
    rng = np.random.default_rng(14)
    for n_in, n_out, form in [(2048, 512, "GW"), (256, 256, "G"), (10, 5, "G"), (11, 5, "GW")]:
        x = rng.standard_normal((4, n_in))
        xq = x + 0.1 * rng.standard_normal((4, n_in))
        w = rng.standard_normal((n_in, n_out))
        stats = accumulate(CalibStats(n_in), x, xq, weights=w)
        if form == "GW":
            assert stats.G is None and stats.GW.shape == (n_in, n_out) and stats.W is w
            assert np.allclose(stats.GW, (xq.T @ x) @ w, rtol=1e-12, atol=1e-12)
        else:
            assert stats.GW is None and np.array_equal(stats.G, xq.T @ x)
    # without weights, and for one path, the cross moment is never G W
    # (x, xq and w are the (11, 5) case's)
    assert accumulate(CalibStats(11), x, xq).GW is None
    assert accumulate(CalibStats(11), x, x, weights=w).GW is None


def test_gw_batches_stream_and_keep_their_weights():
    rng = np.random.default_rng(15)
    n, n_out, m = 30, 4, 90
    x = rng.standard_normal((m, n))
    xq = x + 0.1 * rng.standard_normal((m, n))
    w = rng.standard_normal((n, n_out))
    stats = CalibStats(n)
    for lo in range(0, m, 30):
        accumulate(stats, x[lo : lo + 30], xq[lo : lo + 30], weights=w)
    assert np.abs(stats.GW - xq.T @ (x @ w)).max() <= 1e-12 * np.abs(xq.T @ (x @ w)).max()
    assert stats.n_samples == m
    with pytest.raises(ValueError, match="same weights"):
        accumulate(stats, x, xq)
    with pytest.raises(ValueError, match="same weights"):
        accumulate(stats, x, xq, weights=w + 1.0)
    assert stats.n_samples == m


def test_first_batch_becomes_h_bit_for_bit():
    """Adopting the first product gives what adding it into zeros gave."""
    rng = np.random.default_rng(16)
    n, n_out = 9, 2
    x = rng.standard_normal((30, n))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    # a dead column against negative ones: its products are zeros of either sign
    xq[:, 0] = 0.0
    x[:, 1] = -np.abs(x[:, 1])
    w = rng.standard_normal((n, n_out))
    for weights in (None, w):
        stats = accumulate(CalibStats(n), x, xq, weights=weights)
        cross = stats.G if weights is None else stats.GW
        ref_cross = xq.T @ x if weights is None else xq.T @ (x @ w)
        assert stats.H.tobytes() == (np.zeros((n, n)) + xq.T @ xq).tobytes()
        assert cross.tobytes() == (np.zeros(ref_cross.shape) + ref_cross).tobytes()
        for m in (stats.H, cross):
            assert not np.signbit(m[m == 0.0]).any()
    shared = accumulate(CalibStats(n), xq, xq)
    assert shared.G is shared.H
    assert shared.H.tobytes() == (np.zeros((n, n)) + xq.T @ xq).tobytes()


def test_a_callers_own_h_is_added_to():
    rng = np.random.default_rng(17)
    n = 6
    x = rng.standard_normal((20, n))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    for own in (np.eye(n), np.zeros((n, n))):
        before = own.copy()
        stats = accumulate(CalibStats(n, H=own), x, xq)
        assert stats.H is own
        assert own.tobytes() == (before + xq.T @ xq).tobytes()


def test_two_path_batch_peak_holds_one_square_product():
    """Fresh stats hold no H: H, X W and the cross term at the peak."""
    rng = np.random.default_rng(18)
    m, n, n_out = 1024, 512, 128
    x = rng.standard_normal((m, n))
    xq = x + 0.1 * rng.standard_normal(x.shape)
    w = rng.standard_normal((n, n_out))
    tracemalloc.start()
    try:
        stats = accumulate(CalibStats(n), x, xq, weights=w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.GW is not None
    # adding into a zero H would hold a second n x n array: 5.5 MB here
    assert peak <= 1.05 * 8 * (n * n + m * n_out + n * n_out)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: CalibStats(0), ShapeError, "dimension must be positive"),
        (lambda: CalibStats(3, H=np.eye(2)), ShapeError, "must be \\(3, 3\\), got H"),
        (lambda: accumulate(CalibStats(4), np.zeros(4), np.zeros(4)), ShapeError, "must be 2-D"),
        (lambda: accumulate(CalibStats(4), np.zeros((8, 4)), np.ones((8, 4)), weights=np.zeros((3, 2))),
         ShapeError, "weights \\(3, 2\\)"),
        (lambda: accumulate(CalibStats(2), np.full((3, 2), 1e200), np.full((3, 2), 1e200)),
         NonFiniteInputError, "^the batch's moments overflow float64$"),
        (lambda: order_by_diag(np.zeros((2, 3))), ShapeError, "must be square"),
        (lambda: permute_weights(np.zeros((3, 2)), np.arange(4)), ShapeError, "permutation size 4"),
        (lambda: unpermute_result(np.zeros((3, 2)), np.arange(4)), ShapeError, "permutation size 4"),
    ],
    ids=["dim-0", "h-shape", "1d-batch", "weight-rows", "overflow", "order-non-square",
         "permute-size", "unpermute-size"],
)
def test_malformed_calibration_input_raises(call, error, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call()


_POOL_SCRIPT = """
import numpy as np
from qronos import CalibStats, NonFiniteInputError, accumulate
from qronos.linalg import _openblas_pool
pool = _openblas_pool("numpy")
if pool is None:
    raise SystemExit("no pool")
x = np.random.default_rng(3).standard_normal((64, 16))
seen = [pool[0]()]
accumulate(CalibStats(16), x, x + 1.0, weights=np.ones((16, 2)))
seen.append(pool[0]())
bad = x.copy()
bad[5, 7] = np.nan
try:
    accumulate(CalibStats(16), x, bad)
except NonFiniteInputError:
    seen.append(pool[0]())
def fail(*args, **kwargs):  # the worker's product, which must reach the caller
    raise MemoryError("cross product")
np.matmul = fail
try:
    accumulate(CalibStats(16), x, x + 1.0)
except MemoryError:
    seen.append(pool[0]())
print(seen)
"""


def test_numpy_pool_count_is_restored():
    """accumulate pins NumPy's OpenBLAS pool to one thread for its products
    and gives the caller's count back, also when it or its worker raises."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _POOL_SCRIPT], env=env, capture_output=True, text=True,
                         timeout=300)
    if out.returncode and "no pool" in out.stderr:
        pytest.skip("NumPy's BLAS exports no thread-count symbols")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[2, 2, 2, 2]"
