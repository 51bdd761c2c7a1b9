"""Streaming calibration statistics and column ordering.

The rounding algorithms never see raw activations, only the second
moments H = Xq^T Xq and the cross moments G = Xq^T X, where X holds the
reference activations and Xq whatever the quantized network actually
feeds the layer (G[i, j] = <Xq_i, X_j>).  Both are accumulated batch by
batch in 64-bit so a stream of chunks reproduces the monolithic product
to rounding error.

Ordering is by descending diagonal of H with stable ties, applied to
rows/columns of H and G and to weight rows, and undone on the way out so
the public API stays order-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


@dataclass
class CalibStats:
    """Accumulated (H, G) moments for one layer's input dimension."""

    dim: int
    H: np.ndarray = field(default=None)
    G: np.ndarray = field(default=None)
    n_samples: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError(f"stats dimension must be positive, got {self.dim}")
        if self.H is None:
            self.H = np.zeros((self.dim, self.dim))
        if self.G is None:
            self.G = np.zeros((self.dim, self.dim))
        self.H = np.asarray(self.H, dtype=np.float64)
        self.G = np.asarray(self.G, dtype=np.float64)
        if self.H.shape != (self.dim, self.dim) or self.G.shape != (self.dim, self.dim):
            raise ShapeError(
                f"stats matrices must be {(self.dim, self.dim)}, got H {self.H.shape} and G {self.G.shape}"
            )


def accumulate(stats: CalibStats, x_batch: np.ndarray, xq_batch: np.ndarray) -> CalibStats:
    """Fold one batch of (reference, quantized-path) activations into stats.

    Mutates and returns ``stats``.  Accumulation happens in float64
    regardless of the batch dtype.
    """
    x = np.asarray(x_batch, dtype=np.float64)
    xq = np.asarray(xq_batch, dtype=np.float64)
    if x.ndim != 2 or xq.ndim != 2:
        raise ShapeError("activation batches must be 2-D (samples by dim)")
    if x.shape != xq.shape:
        raise ShapeError(f"batch shapes differ: {x.shape} vs {xq.shape}")
    if x.shape[1] != stats.dim:
        raise ShapeError(f"batch dim {x.shape[1]} does not match stats dim {stats.dim}")
    stats.H += xq.T @ xq
    stats.G += xq.T @ x
    stats.n_samples += x.shape[0]
    return stats


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
