"""Uniform quantization grids and the round-to-nearest operator.

A grid is the finite alphabet of values one channel may take: ``levels``
points spaced ``step_size`` apart, positioned by a real-valued
``zero_point`` measured in integer-grid units.  A layer's grid is one
QuantGrid whose step and zero point are arrays, one entry per column.
Quantizing a value maps it to the nearest alphabet point, with the
integer code clipped to ``[0, levels - 1]``:

    code = clip(round(w / step) + zero_point, 0, levels - 1)
    out  = step * (code - zero_point)

Rounding is half away from zero.  The zero point is kept real valued
rather than snapped to an integer, which forces one refinement of the
formula above: the round is taken against the nearest integer to the
zero point (for integer zero points that is exactly ``round(w / step)
+ zero_point``).  Keeping the rounded quantity integer-valued makes
already-quantized values fixed points of the operator bit for bit and
caps the alphabet at exactly ``levels`` elements, while centering the
tie rule on the grid rather than on the shifted axis, so odd-level
symmetric grids negate cleanly even at exact half-step ties.

Asymmetric grids come from the (optionally shrunk) min/max range of the
data: ``step = beta * (max - min) / (levels - 1)`` and
``zero_point = -beta * min / step``, so integer code 0 dequantizes to
``beta * min`` and code ``levels - 1`` to ``beta * max`` exactly.
Symmetric grids center the integer range (``zero_point = (levels-1)/2``)
and pick their step by linear search over 100 candidate scales.  Both
builders take a vector (a grid of Python scalars) or a matrix (a grid
of its columns, from the same code), and raise NonFiniteInputError,
naming the column, rather than return a step that is not finite: data
holding a NaN or an infinity, or a step too wide for float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteInputError, ShapeError

CHUNK = 1 << 15  # values per chunk of a whole-array pass: 256 KB of float64


def _check_levels(levels):
    if levels < 2:
        raise ValueError(f"need at least 2 levels, got {levels}")
    if levels > 2**53:
        raise ValueError("need at most 2**53 levels: float64 codes stop being exact integers beyond that")


@dataclass(frozen=True, eq=False)
class QuantGrid:
    """One channel's quantization alphabet, or with arrays (one entry per
    column) a layer's; a scalar grid rounds every column alike.  Grids
    compare and hash by identity."""

    levels: int
    step_size: float | np.ndarray
    zero_point: float | np.ndarray
    degenerate: bool | np.ndarray = False

    def __post_init__(self):
        _check_levels(self.levels)
        step = self.step_size
        if not (step > 0 if isinstance(step, float) else (np.asarray(step) > 0).all()):
            raise ValueError(f"step_size must be positive, got {step}")

    @cached_property
    def alphabet(self) -> np.ndarray:
        """All representable values, ascending with integer code (a column
        per channel of an array grid); formed once, so read, not written."""
        codes = np.arange(self.levels, dtype=np.float64)
        return self.step_size * np.subtract.outer(codes, self.zero_point)

    @cached_property
    def rounder(self):
        """Round-to-nearest on this grid, its constants formed on first use;
        an array grid rounds each entry of a row on its column's grid."""
        # constants as arrays, scalar ones too: NumPy's per-call cost is
        # lower with arrays alone, and the sweeps round one row per step
        step, zero = np.atleast_1d(self.step_size), np.atleast_1d(self.zero_point)
        anchor = np.floor(zero + 0.5)
        shift, top = zero - anchor, np.full(step.shape, self.levels - 1.0)

        def rtn(values):
            # half away from zero (np.round ties to even): trunc(y +
            # copysign(0.5, y)) is sign(y) floor(|y| + 0.5) bit for bit up to
            # the sign of a zero, which adding the anchor makes +0.0, so
            # maximum/minimum clip as np.clip does; every pass runs in place
            y = np.asarray(values / step)
            y += shift
            y += np.copysign(0.5, y)
            np.add(np.trunc(y, out=y), anchor, out=y)
            return step * (np.minimum(np.maximum(y, 0.0, out=y), top, out=y) - zero)

        return rtn


def levels_from_bits(bits: float) -> int:
    """Level count for a bit width; the 1.58-bit convention means ternary."""
    if abs(bits - 1.58) < 1e-9:
        return 3
    # a width is compared before 2 ** int(bits) is formed: int() of inf or
    # NaN raises, and a huge width would take the power's time and memory
    if not 1 <= bits <= 53 or bits != int(bits):
        raise ValueError(f"unsupported bit width {bits!r} (use an integer from 1 to 53, or 1.58)")
    return 2 ** int(bits)


def _columns(w, levels) -> np.ndarray:
    """``w`` as float64 columns, a vector as one, with rows and 2 levels or more."""
    w = np.asarray(w, dtype=np.float64)
    cols = w.reshape(-1, 1) if w.ndim < 2 else w
    if w.ndim > 2 or not len(cols):
        raise ShapeError(f"cannot build a grid from data of shape {w.shape}: empty, or over 2-D")
    _check_levels(levels)
    return cols


def _build(w, levels, step, zero, degenerate, source) -> QuantGrid:
    """The grid of ``w``'s columns, of Python scalars for a vector.  A step
    that is not finite raises NonFiniteInputError naming the first such
    column j and ``source(j)``, what its step came from."""
    vector = np.ndim(w) < 2
    if not (math.isfinite(step[0]) if vector else np.isfinite(step).all()):
        j = np.flatnonzero(~np.isfinite(step))[0]
        raise NonFiniteInputError(f"column {j}: grid step {step[j]} from {source(j)} is not finite")
    if vector:
        return QuantGrid(levels, float(step[0]), float(zero[0]), bool(degenerate[0]))
    return QuantGrid(levels, step, zero, degenerate)


def grid_from_minmax(w: np.ndarray, levels: int, beta: float = 1.0) -> QuantGrid:
    """Asymmetric grid from the data range of ``w``, per column of a matrix.

    ``beta`` shrinks the covered range toward zero before the step is
    derived; values outside it get clipped by the operator.  A column
    whose step is zero (a constant one, or a range that underflows) gets
    a degenerate grid: step 1 anchored at its minimum, flagged.  A range
    that overflows float64 is divided by ``levels - 1`` end by end.
    A ``beta`` that is not positive and finite raises ValueError.
    """
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    cols = _columns(w, levels)
    # + 0.0 makes a -0.0 minimum +0.0, whichever zero the reduction kept
    lo, hi = np.minimum.reduce(cols) + 0.0, np.maximum.reduce(cols)
    with np.errstate(over="ignore", invalid="ignore"):
        step = beta * (hi - lo) / (levels - 1)
        wide, flat = np.isinf(step), step == 0.0
        # the masked passes only where a column needs them: a vector's grid
        # is a few microseconds of one-entry arrays, which they would double
        if np.count_nonzero(wide):  # the range may overflow where its share per level does not
            step[wide] = beta * (hi[wide] / (levels - 1) - lo[wide] / (levels - 1))
            flat = step == 0.0
        if np.count_nonzero(flat):
            step[flat] = 1.0
            zero = np.where(flat, -lo, -beta * lo / step)
        else:
            zero = -beta * lo / step
    return _build(w, levels, step, zero, flat, lambda j: f"the range [{lo[j]}, {hi[j]}]")


def quantize_rtn(w, grid: QuantGrid):
    """Round ``w`` (scalar or array; a matrix on an array grid by
    columns) to the nearest grid value."""
    arr = np.asarray(w, dtype=np.float64)
    out = grid.rounder(arr)
    return float(out[0]) if arr.ndim == 0 else out


def symmetric_scale_search(w: np.ndarray, levels: int) -> QuantGrid:
    """Symmetric grid whose step minimizes round-trip squared error, per
    column of a matrix.

    100 candidate steps are linearly spaced over ``[0.2, 1.0]`` times the
    max-abs step ``2 * max|w| / (levels - 1)``; the first candidate
    attaining the minimal error wins, so the search is deterministic.
    When the smallest candidate is zero (an all-zero column, or a max|w|
    that underflows) the grid degenerates to step 1 with 0 on it,
    flagged, so the column comes back as zeros.
    """
    cols = _columns(w, levels)
    amax = np.abs(cols).max(axis=0)
    # halving levels - 1 is exact: this is 2 max|w| / (levels - 1) bit for
    # bit wherever 2 max|w| does not overflow
    with np.errstate(over="ignore", invalid="ignore"):
        step = amax / ((levels - 1) / 2.0)
    zero = np.full(step.size, (levels - 1) / 2.0)
    flat = np.zeros(step.size, dtype=bool)
    block = max(1, CHUNK // len(cols))
    for j in np.flatnonzero(np.isfinite(step)):
        steps = np.linspace(0.2, 1.0, 100) * step[j]
        if steps[0] == 0.0:
            # an integer zero point keeps 0 on the grid for even levels too
            step[j], zero[j], flat[j] = 1.0, (levels - 1) // 2, True
            continue
        # the errors are compared on w scaled by a power of two below
        # max|w|, which is exact and keeps the squares of a wide column
        # finite; a block of candidates at a time, each rounded as
        # quantize_rtn rounds and scored by the same dot product
        shift = max(math.frexp(amax[j])[1], 0)
        ws = np.ldexp(cols[:, j], -shift)
        errs = []
        for s in np.split(np.ldexp(steps, -shift)[:, None], range(block, steps.size, block)):
            r = ws - QuantGrid(levels, s, zero[j]).rounder(ws)
            errs += [row @ row for row in r]
        step[j] = steps[int(np.argmin(errs))]
    return _build(w, levels, step, zero, flat, lambda j: f"max|w| = {amax[j]}")


def quantize_per_token(x: np.ndarray, levels: int, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise asymmetric quantization of an activation matrix.

    Each row gets its min/max grid (beta 1), ``grid_from_minmax`` of
    ``x.T``, so a row holding a NaN or an infinity, or whose step
    overflows, raises NonFiniteInputError naming the row.  Rows with a
    degenerate grid are returned unchanged.  ``out``, of x's shape, may
    be x itself.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D activation matrix, got shape {x.shape}")
    try:
        grid = grid_from_minmax(x.T, levels)
    except NonFiniteInputError as exc:
        # column j of x.T is row j of x
        raise NonFiniteInputError(str(exc).replace("column", "row", 1)) from None
    out = np.empty_like(x) if out is None else out
    if out.shape != x.shape:
        raise ShapeError(f"output shape {out.shape} does not match input shape {x.shape}")
    step, zero = grid.step_size[:, None], grid.zero_point[:, None]
    const = x[grid.degenerate]
    rows = max(1, CHUNK // max(x.shape[1], 1))
    for r0 in range(0, len(x), rows):
        # a chunk of rows at a time, every pass over it in cache
        rs = slice(r0, r0 + rows)
        out[rs] = QuantGrid(levels, step[rs], zero[rs]).rounder(x[rs])
    out[grid.degenerate] = const
    return out
