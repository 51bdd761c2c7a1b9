import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qronos import (
    CalibStats,
    DampingPolicy,
    LayerQuantRequest,
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
    assert order.perm.tolist() == [1, 2, 0]
    assert order.inverse.tolist() == [2, 0, 1]


def test_order_by_diag_ties_are_stable():
    order = order_by_diag(np.eye(5))
    assert order.perm.tolist() == [0, 1, 2, 3, 4]


def test_order_by_diag_sorts_descending():
    rng = np.random.default_rng(3)
    h = np.diag(rng.random(64))
    order = order_by_diag(h)
    through = np.diag(h)[order.perm]
    assert np.all(np.diff(through) <= 0)


def test_undamped_and_damped_diagonals_give_same_order():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((40, 8))
    h = a.T @ a
    lam = 0.01 * np.mean(np.diag(h))
    assert order_by_diag(h).perm.tolist() == order_by_diag(h + lam * np.eye(8)).perm.tolist()


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
    ix = np.ix_(order.perm, order.perm)
    # permuting the activations first must build the same moments
    direct = accumulate(CalibStats(5), x[:, order.perm], xq[:, order.perm])
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
    grids = [grid_from_minmax(w[:, j], 4) for j in range(n_out)]
    outs = {}
    for mode in ("diag", "natural"):
        req = LayerQuantRequest(
            weights=w, grids=grids, method="optq", stats=stats,
            damping=DampingPolicy("mean_diag_percent"), order=mode,
        )
        outs[mode], _ = quantize_layer(req)
    assert np.array_equal(outs["diag"], outs["natural"])
