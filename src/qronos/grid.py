"""Uniform quantization grids and the round-to-nearest operator.

A grid is the finite alphabet of values one channel may take: ``levels``
points spaced ``step_size`` apart, positioned by a real-valued
``zero_point`` measured in integer-grid units.  Quantizing a value maps
it to the nearest alphabet point, with the integer code clipped to
``[0, levels - 1]``:

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
builders raise NonFiniteInputError rather than return a grid whose step
is not finite: data holding a NaN or an infinity, or a step too wide
for float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInputError, ShapeError

CHUNK = 1 << 15  # values per chunk of a whole-array pass: 256 KB of float64


def _codes(values, step, shift, anchor, top):
    # np.round ties to even; the alphabet convention here is half away from
    # zero.  trunc(y + copysign(0.5, y)) is sign(y) * floor(|y| + 0.5) bit
    # for bit up to the sign of a zero, which adding the anchor makes +0.0,
    # so maximum/minimum clip exactly as np.clip does, at less cost per call.
    # Every pass after the division runs in place
    y = np.asarray(values / step)
    y += shift
    y += np.copysign(0.5, y)
    np.add(np.trunc(y, out=y), anchor, out=y)
    return np.minimum(np.maximum(y, 0.0, out=y), top, out=y)


def integer_codes(values, step, zero, levels):
    """Clipped integer codes of ``values`` on a grid, tie rule centered.

    The rounding origin is the nearest integer to the zero point, so the
    result is always integer valued and, for integer zero points,
    identical to ``round(values / step) + zero``.
    """
    anchor = np.floor(zero + 0.5)
    return _codes(values, step, zero - anchor, anchor, levels - 1.0)


def row_rounder(grids):
    """Round-to-nearest of one value per grid, as a function of that row.

    The per-grid constants are formed once; every call then rounds each
    entry exactly as ``quantize_rtn`` does on its own grid.
    """
    step, zero, top = np.array([(g.step_size, g.zero_point, g.levels - 1.0) for g in grids]).T
    anchor = np.floor(zero + 0.5)
    shift = zero - anchor
    return lambda values: step * (_codes(values, step, shift, anchor, top) - zero)


def _check_levels(levels):
    if levels < 2:
        raise ValueError(f"need at least 2 levels, got {levels}")


@dataclass(frozen=True)
class QuantGrid:
    """One channel's quantization alphabet."""

    levels: int
    step_size: float
    zero_point: float
    degenerate: bool = False

    def __post_init__(self):
        _check_levels(self.levels)
        if not self.step_size > 0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")

    @property
    def alphabet(self) -> np.ndarray:
        """All representable values, ascending with integer code."""
        codes = np.arange(self.levels, dtype=np.float64)
        return self.step_size * (codes - self.zero_point)


def levels_from_bits(bits: float) -> int:
    """Level count for a bit width; the 1.58-bit convention means ternary."""
    if abs(bits - 1.58) < 1e-9:
        return 3
    if bits < 1 or bits != int(bits):
        raise ValueError(f"unsupported bit width {bits!r} (use an integer >= 1, or 1.58)")
    return 2 ** int(bits)


def grid_from_minmax(w: np.ndarray, levels: int, beta: float = 1.0) -> QuantGrid:
    """Asymmetric grid from the data range of ``w``.

    ``beta`` shrinks the covered range toward zero before the step is
    derived; values outside it get clipped by the operator.  An input
    whose step is zero (a constant one, or a range that underflows) gets
    a degenerate grid: step 1 anchored at its minimum, flagged.  A range
    that overflows float64 is divided by ``levels - 1`` end by end.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.size == 0:
        raise ShapeError("cannot build a grid from an empty vector")
    _check_levels(levels)
    lo = float(w.min())
    hi = float(w.max())
    step = beta * (hi - lo) / (levels - 1)
    if np.isinf(step):
        # the range may overflow where its share per level does not
        step = beta * (hi / (levels - 1) - lo / (levels - 1))
    if not np.isfinite(step):
        raise NonFiniteInputError(f"grid step {step} from the range [{lo}, {hi}] is not finite")
    if step == 0.0:
        return QuantGrid(levels, 1.0, -lo, degenerate=True)
    zero = -beta * lo / step
    return QuantGrid(levels, step, zero)


def quantize_rtn(w, grid: QuantGrid):
    """Round ``w`` (scalar or array) to the nearest grid value."""
    arr = np.asarray(w, dtype=np.float64)
    code = integer_codes(arr, grid.step_size, grid.zero_point, grid.levels)
    out = grid.step_size * (code - grid.zero_point)
    if np.isscalar(w) or arr.ndim == 0:
        return float(out)
    return out


def symmetric_scale_search(w: np.ndarray, levels: int) -> QuantGrid:
    """Symmetric grid whose step minimizes round-trip squared error.

    100 candidate steps are linearly spaced over ``[0.2, 1.0]`` times the
    max-abs step ``2 * max|w| / (levels - 1)``; the first candidate
    attaining the minimal error wins, so the search is deterministic.
    When the smallest candidate is zero (all-zero input, or a max|w|
    that underflows) the grid degenerates to step 1 with 0 on it,
    flagged, so the input comes back as zeros.
    """
    w = np.asarray(w, dtype=np.float64).ravel()
    if w.size == 0:
        raise ShapeError("cannot build a grid from an empty vector")
    zero = (levels - 1) / 2.0
    amax = float(np.abs(w).max())
    # halving levels - 1 is exact: this is 2 max|w| / (levels - 1) bit for
    # bit wherever 2 max|w| does not overflow
    top = amax / ((levels - 1) / 2.0)
    if not np.isfinite(top):
        raise NonFiniteInputError(f"grid step {top} from max|w| = {amax} is not finite")
    steps = np.linspace(0.2, 1.0, 100) * top
    if steps[0] == 0.0:
        # an integer zero point keeps 0 on the grid for even levels too
        return QuantGrid(levels, 1.0, float((levels - 1) // 2), degenerate=True)
    # the errors are compared on w scaled by a power of two below max|w|,
    # which is exact and keeps the squares of a wide column finite
    shift = max(math.frexp(amax)[1], 0)
    ws = np.ldexp(w, -shift)
    errs = []
    # a block of candidates at a time, each rounded as quantize_rtn rounds
    # and scored by the same dot product
    block = max(1, CHUNK // w.size)
    for s in np.split(np.ldexp(steps, -shift)[:, None], range(block, steps.size, block)):
        r = ws - s * (integer_codes(ws, s, zero, levels) - zero)
        errs += [row @ row for row in r]
    best = int(np.argmin(errs))
    return QuantGrid(levels, float(steps[best]), zero)


def quantize_per_token(x: np.ndarray, levels: int, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise asymmetric quantization of an activation matrix.

    Each row gets the min/max grid (beta 1) ``grid_from_minmax`` builds.
    Constant rows are returned unchanged, matching the degenerate-grid
    convention.  ``out``, of x's shape, may be x itself.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D activation matrix, got shape {x.shape}")
    _check_levels(levels)
    out = np.empty_like(x) if out is None else out
    if out.shape != x.shape:
        raise ShapeError(f"output shape {out.shape} does not match input shape {x.shape}")
    lo = x.min(axis=1, keepdims=True)
    hi = x.max(axis=1, keepdims=True)
    flat = (hi == lo)[:, 0]
    const = x[flat]
    with np.errstate(over="ignore"):
        step = np.where(flat[:, None], 1.0, hi - lo) / (levels - 1)
    # a finite range may overflow where its share per level does not
    wide = np.isinf(step)[:, 0]
    step[wide] = hi[wide] / (levels - 1) - lo[wide] / (levels - 1)
    zero = -lo / step
    rows = max(1, CHUNK // max(x.shape[1], 1))
    for r0 in range(0, len(x), rows):
        # a chunk of rows at a time, every pass over it in cache
        rs = slice(r0, r0 + rows)
        out[rs] = step[rs] * (integer_codes(x[rs], step[rs], zero[rs], levels) - zero[rs])
    out[flat] = const
    return out
