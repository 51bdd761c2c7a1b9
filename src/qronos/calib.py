"""Streaming calibration statistics and column ordering.

The rounding algorithms never see raw activations, only the second
moments H = Xq^T Xq and the cross moments G = Xq^T X, where X holds the
reference activations and Xq whatever the quantized network actually
feeds the layer (G[i, j] = <Xq_i, X_j>).  Both are accumulated batch by
batch in 64-bit so a stream of chunks reproduces the monolithic product
to rounding error.

Every method but gpfq reads G only through the product G W with the
layer's weights W (n_in x n_out).  Given those weights, ``accumulate``
folds Xq^T (X W) into ``GW`` instead of forming G whenever
2 n_out < n_in: that association costs 4 m n_in n_out flops against
2 m n_in^2 + 2 n_in^2 n_out for G followed by G W, so it is cheaper on
every such shape.  The first batch fixes the form; the layer forms G W
itself from a G.  When both paths are the same array (one-path methods)
the cross moment is H itself: G shares H's array and one product feeds
both.

Ordering is by descending diagonal of H with stable ties, applied to
rows/columns of H and G and to weight rows, and undone on the way out so
the public API stays order-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteInputError, ShapeError


@dataclass
class CalibStats:
    """Accumulated moments for one layer's input dimension.

    ``H`` is always held.  The cross moment is either ``G`` (n x n) or
    ``GW`` = G W (n x n_out) for the weights ``W`` it was formed with
    (``accumulate`` forms it; ``quantize_layer`` checks W against the
    layer's weights); the other stays None, and both are None until a
    batch or the caller supplies one.  ``G is H`` marks one-path
    moments.
    """

    dim: int
    H: np.ndarray = field(default=None)
    G: np.ndarray | None = None
    n_samples: int = 0
    GW: np.ndarray | None = None
    W: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError(f"stats dimension must be positive, got {self.dim}")
        square = (self.dim, self.dim)
        self.H = np.zeros(square) if self.H is None else np.asarray(self.H, dtype=np.float64)
        if self.G is not None:
            self.G = np.asarray(self.G, dtype=np.float64)
        for name, m in (("H", self.H), ("G", self.G)):
            if m is not None and m.shape != square:
                raise ShapeError(f"stats matrices must be {square}, got {name} {m.shape}")


def accumulate(
    stats: CalibStats,
    x_batch: np.ndarray,
    xq_batch: np.ndarray,
    weights: np.ndarray | None = None,
) -> CalibStats:
    """Fold one batch of (reference, quantized-path) activations into stats.

    Mutates and returns ``stats``.  Accumulation happens in float64
    regardless of the batch dtype.  With ``weights`` (n_in x n_out) and
    2 n_out < n_in, the first batch of two distinct paths starts ``GW``
    instead of G; passing ``xq_batch is x_batch`` makes G share H.
    Later batches follow the form the first one chose: a GW batch needs
    the same weights, and two distinct paths cannot enter one-path
    stats.  A NaN or infinity in either batch raises NonFiniteInputError
    naming the batch, its row and feature, and leaves stats untouched.
    """
    one_path = xq_batch is x_batch
    x = np.asarray(x_batch, dtype=np.float64)
    xq = x if one_path else np.asarray(xq_batch, dtype=np.float64)
    if x.ndim != 2 or xq.ndim != 2:
        raise ShapeError("activation batches must be 2-D (samples by dim)")
    if x.shape != xq.shape:
        raise ShapeError(f"batch shapes differ: {x.shape} vs {xq.shape}")
    if x.shape[1] != stats.dim:
        raise ShapeError(f"batch dim {x.shape[1]} does not match stats dim {stats.dim}")
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    if w is not None and (w.ndim != 2 or w.shape[0] != stats.dim):
        raise ShapeError(f"weights {w.shape} do not match stats dim {stats.dim}")

    fresh = stats.G is None and stats.GW is None
    use_gw = stats.GW is not None or (
        fresh and not one_path and w is not None and 2 * w.shape[1] < w.shape[0]
    )
    if stats.G is stats.H and not one_path:
        raise ValueError("these stats share G with H (one path); a batch of two paths would corrupt both")
    if stats.GW is not None and (w is None or not np.array_equal(w, stats.W)):
        raise ValueError("these stats hold G W; every batch must pass the same weights")

    # an inf or NaN in xq reaches H's diagonal, one in x every entry of
    # its cross column; only then is the batch scanned for the cell
    with np.errstate(invalid="ignore", over="ignore"):
        h_part = xq.T @ xq
        if use_gw:
            cross = xq.T @ (x @ w)
        elif one_path:
            cross = h_part
        else:
            cross = xq.T @ x
    bad = not np.isfinite(h_part.diagonal()).all()
    if cross is not h_part:
        bad |= not (math.isfinite(cross.max(initial=0.0)) and math.isfinite(cross.min(initial=0.0)))
    if bad:
        _raise_non_finite(x, xq, one_path)

    if fresh:
        if use_gw:
            stats.GW, stats.W = np.zeros(w.shape), w
        else:
            stats.G = stats.H if one_path else np.zeros_like(stats.H)
    stats.H += h_part
    if use_gw:
        stats.GW += cross
    elif stats.G is not stats.H:
        stats.G += cross
    stats.n_samples += x.shape[0]
    return stats


def _raise_non_finite(x, xq, one_path):
    for name, a in (("x", x),) if one_path else (("x", x), ("xq", xq)):
        cells = np.argwhere(~np.isfinite(a))
        if cells.size:
            row, col = (int(i) for i in cells[0])
            raise NonFiniteInputError(
                f"{name} batch: non-finite value {a[row, col]} at row {row}, feature {col}"
            )
    raise NonFiniteInputError("the batch's moments overflow float64")


@dataclass(frozen=True)
class ColumnOrder:
    """A processing permutation and its inverse."""

    perm: np.ndarray
    inverse: np.ndarray


def natural_order(dim: int) -> ColumnOrder:
    ident = np.arange(dim)
    return ColumnOrder(ident, ident.copy())


def order_by_diag(h: np.ndarray) -> ColumnOrder:
    """Descending-diagonal processing order with stable ties."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"H must be square, got shape {h.shape}")
    diag = np.diag(h)
    perm = np.argsort(-diag, kind="stable")
    return ColumnOrder(perm, np.argsort(perm))


def permute_weights(w: np.ndarray, order: ColumnOrder) -> np.ndarray:
    """Reorder weight rows (the input dimension) into processing order."""
    w = np.asarray(w)
    if w.shape[0] != order.perm.size:
        raise ShapeError(f"weight rows {w.shape[0]} do not match permutation size {order.perm.size}")
    return w[order.perm]


def unpermute_result(q: np.ndarray, order: ColumnOrder) -> np.ndarray:
    """Undo permute_weights on a result with the same leading axis."""
    q = np.asarray(q)
    if q.shape[0] != order.inverse.size:
        raise ShapeError(f"result rows {q.shape[0]} do not match permutation size {order.inverse.size}")
    return q[order.inverse]
