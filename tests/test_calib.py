import tracemalloc
import warnings

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
    grids = [grid_from_minmax(w[:, j], 8) for j in range(n_out)]
    shared = accumulate(CalibStats(n), x, x)
    separate = CalibStats(n, H=x.T @ x, G=x.T @ x)
    outs = [
        quantize_layer(LayerQuantRequest(weights=w, grids=grids, method="optq", stats=s,
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
    assert stats.n_samples == 0 and not stats.H.any()
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
