"""Shared instance builders for the test suite."""

import math

import numpy as np

from qronos import CalibStats, QuantGrid, accumulate, grid_from_minmax, quantize_rtn


def column_instance(rng, n, m, levels, noise=0.1, identical=False):
    """One rounding problem: column w, activations x and drifted xq, grid."""
    x = rng.standard_normal((m, n))
    xq = x if identical else x + noise * rng.standard_normal((m, n))
    w = rng.standard_normal(n)
    grid = grid_from_minmax(w, levels)
    return w, x, xq, grid


def layer_instance(rng, n, m, n_out, levels, noise=0.1, identical=False):
    """One layer problem with accumulated moment statistics."""
    x = rng.standard_normal((m, n))
    xq = x if identical else x + noise * rng.standard_normal((m, n))
    w = rng.standard_normal((n, n_out))
    stats = accumulate(CalibStats(n), x, xq)
    return w, x, xq, stats, grid_from_minmax(w, levels)


def column_grid(grid, j):
    """Column j's grid, on its own, out of a layer's grid."""
    return QuantGrid(grid.levels, float(grid.step_size[j]), float(grid.zero_point[j]),
                     bool(grid.degenerate[j]))


def random_spd(rng, n, spread=1.0):
    a = rng.standard_normal((n + 4, n))
    m = a.T @ a + spread * np.eye(n)
    return (m + m.T) / 2.0


def on_grid_weights(rng, n, n_out, levels=4):
    """Weight matrix that is a bit-exact fixed point of its min-max grids.

    Integer codes scaled by powers of two keep every grid computation
    exact, so rebuilding the grid from the weights reproduces them.
    """
    w = np.empty((n, n_out))
    for j in range(n_out):
        lo = float(rng.integers(-3, 3))
        scale = float(2.0 ** rng.integers(-2, 3))
        codes = rng.integers(0, levels, size=n).astype(np.float64)
        codes[0], codes[1] = 0.0, levels - 1.0
        w[:, j] = scale * (lo + codes)
    return w


def fwht_reference(x, axis=-1):
    """Plain butterfly loop: one (a, b) slice pair per block per stage.

    Returns the transform laid out C-contiguous with the transform axis
    last, moved back into place.
    """
    out = np.moveaxis(np.array(x, dtype=np.float64), axis, -1).copy()
    n = out.shape[-1]
    h = 1
    while h < n:
        for i in range(0, n, 2 * h):
            a = out[..., i : i + h].copy()
            b = out[..., i + h : i + 2 * h]
            out[..., i : i + h] = a + b
            out[..., i + h : i + 2 * h] = a - b
        h *= 2
    return np.moveaxis(out, -1, axis)


def symmetric_scale_search_reference(w, levels):
    """Symmetric grid search one candidate at a time: a QuantGrid and a
    quantize_rtn per candidate step, the error as one dot product.

    The grid ``symmetric_scale_search`` must return, bit for bit, on a
    column whose max|w| is nonzero and finite.
    """
    w = np.asarray(w, dtype=np.float64).ravel()
    zero = (levels - 1) / 2.0
    amax = float(np.abs(w).max())
    steps = np.linspace(0.2, 1.0, 100) * (amax / ((levels - 1) / 2.0))
    shift = max(math.frexp(amax)[1], 0)
    ws = np.ldexp(w, -shift)
    errs = []
    for s in np.ldexp(steps, -shift):
        r = ws - quantize_rtn(ws, QuantGrid(levels, float(s), zero))
        errs.append(float(r @ r))
    return QuantGrid(levels, float(steps[int(np.argmin(errs))]), zero)
