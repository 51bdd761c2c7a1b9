"""Streaming calibration statistics and column ordering.

The rounding algorithms never see raw activations, only the second
moments H = Xq^T Xq and the cross moments G = Xq^T X, where X holds the
reference activations and Xq whatever the quantized network actually
feeds the layer (G[i, j] = <Xq_i, X_j>).  Both are accumulated batch by
batch in 64-bit so a stream of chunks reproduces the monolithic product
to rounding error.  ``rounding.layer_stats`` is the route from one
layer's activations to the moments its method reads: it picks the
paths and whether to pass the weights, and calls ``accumulate``.

Every method but gpfq reads G only through the product G W with the
layer's weights W (n_in x n_out).  Given those weights, ``accumulate``
folds Xq^T (X W) into ``GW`` instead of forming G whenever
2 n_out < n_in: that association costs 4 m n_in n_out flops against
2 m n_in^2 + 2 n_in^2 n_out for G followed by G W, so it is cheaper on
every such shape.  The first batch fixes the form; the layer forms G W
itself from a G.  When both paths are the same array (one-path methods)
the cross moment is H itself: G shares H's array and one product feeds
both.

The moments do not depend on the BLAS thread count.  A threaded product
sums in an order set by the count, so ``accumulate`` runs each product
as one whole call with NumPy's OpenBLAS pool pinned to one thread
(``linalg.one_blas_thread``) and restores the caller's count.  To use a
second core anyway, the cross product runs on a worker thread while the
calling thread forms H; one-path batches have one product and no
worker.  Row or column blocks of one product would split the work too,
but they change its last bits.

The processing order is one permutation array, entry t the caller's
index of step t: by descending diagonal of H with stable ties.  The
layer applies it to weight rows and reads H and G through it, and
scatters the result back on the way out, so the public API stays
order-agnostic.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import linalg as _linalg
from .errors import NonFiniteInputError, ShapeError


@dataclass
class CalibStats:
    """Accumulated moments for one layer's input dimension.

    ``H`` is None until the first batch or the caller supplies it.  The
    cross moment is either ``G`` (n x n) or ``GW`` = G W (n x n_out) for
    the weights ``W`` it was formed with (``accumulate`` forms it;
    ``quantize_layer`` checks W against the layer's weights); the other
    stays None, and both are None until a batch or the caller supplies
    one.  A held ``G is H`` marks one-path moments.
    """

    dim: int
    H: np.ndarray | None = None
    G: np.ndarray | None = None
    n_samples: int = 0
    GW: np.ndarray | None = None
    W: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ShapeError(f"stats dimension must be positive, got {self.dim}")
        square = (self.dim, self.dim)
        if self.H is not None:
            self.H = np.asarray(self.H, dtype=np.float64)
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
    stats.  The first batch into stats without an H takes its product as
    H; an H the caller supplied is added to.  A NaN or infinity in either
    batch raises NonFiniteInputError naming the batch, its row and
    feature, and leaves stats untouched.
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
    if not fresh and stats.G is stats.H and not one_path:
        raise ValueError("these stats share G with H (one path); a batch of two paths would corrupt both")
    if stats.GW is not None and (w is None or not np.array_equal(w, stats.W)):
        raise ValueError("these stats hold G W; every batch must pass the same weights")

    h_part, cross = _products(x, xq, w if use_gw else None, one_path)
    # an inf or NaN in xq reaches H's diagonal, one in x every entry of
    # its cross column; only then is the batch scanned for the cell
    bad = not np.isfinite(h_part.diagonal()).all()
    if cross is not h_part:
        bad |= not (math.isfinite(cross.max(initial=0.0)) and math.isfinite(cross.min(initial=0.0)))
    if bad:
        _raise_non_finite(x, xq, one_path)

    # the first product becomes H as the sum into zeros would, bit for
    # bit: adding 0.0 in place turns -0.0 into +0.0 and changes nothing else
    if stats.H is None:
        h_part += 0.0
        stats.H = h_part
    else:
        stats.H += h_part
    if fresh and one_path:
        stats.G = stats.H
    elif fresh:
        cross += 0.0
        if use_gw:
            stats.GW, stats.W = cross, w
        else:
            stats.G = cross
    elif use_gw:
        stats.GW += cross
    elif stats.G is not stats.H:
        stats.G += cross
    stats.n_samples += x.shape[0]
    return stats


def _products(x, xq, w, one_path):
    """(Xq^T Xq, the cross product) of one batch: Xq^T (X W) with ``w``,
    else Xq^T X, or the first product itself for one path.

    Each product is one call with NumPy's OpenBLAS pool at one thread, so
    its bits do not depend on the caller's thread count.  The cross
    product runs on a worker thread while this one forms H; the worker
    fills arrays allocated here, which keeps them in this thread's heap.
    """
    with _linalg.one_blas_thread("numpy"), np.errstate(invalid="ignore", over="ignore"):
        if one_path:
            h = xq.T @ xq
            return h, h
        xw = None if w is None else np.empty((x.shape[0], w.shape[1]))
        cross = np.empty((x.shape[1], x.shape[1] if w is None else w.shape[1]))
        failed = []

        def work():
            try:
                with np.errstate(invalid="ignore", over="ignore"):  # per thread
                    if xw is None:
                        np.matmul(xq.T, x, out=cross)
                    else:
                        np.matmul(xq.T, np.matmul(x, w, out=xw), out=cross)
            except BaseException as exc:  # re-raised on the calling thread
                failed.append(exc)

        worker = threading.Thread(target=work, name="qronos-cross-moment")
        worker.start()
        try:
            h = xq.T @ xq
        finally:
            worker.join()
    if failed:
        raise failed[0]
    return h, cross


def _raise_non_finite(x, xq, one_path):
    for name, a in (("x", x),) if one_path else (("x", x), ("xq", xq)):
        cells = np.argwhere(~np.isfinite(a))
        if cells.size:
            row, col = (int(i) for i in cells[0])
            raise NonFiniteInputError(
                f"{name} batch: non-finite value {a[row, col]} at row {row}, feature {col}"
            )
    raise NonFiniteInputError("the batch's moments overflow float64")


def order_by_diag(h: np.ndarray) -> np.ndarray:
    """Descending-diagonal processing order with stable ties, as one
    permutation array: entry t is the caller's index of step t."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"H must be square, got shape {h.shape}")
    return np.argsort(-np.diag(h), kind="stable")


def permute_weights(w: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Reorder weight rows (the input dimension) into processing order."""
    w = np.asarray(w)
    if w.shape[0] != perm.size:
        raise ShapeError(f"weight rows {w.shape[0]} do not match permutation size {perm.size}")
    return w[perm]


def permute_moment(m: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """m[np.ix_(perm, perm)] as a fresh C-contiguous array, a block of rows
    at a time: the block's rows, then their columns into the output, in
    half the fancy index's time and with no temporary of m's size."""
    n = perm.size
    out = np.empty((n, n))
    rows = max(1, (1 << 15) // n)  # a 256 KB block
    for r0 in range(0, n, rows):
        # mode "clip" (the indices are in range) lets take write into out unbuffered
        block = m.take(perm[r0 : r0 + rows], axis=0, mode="clip")
        block.take(perm, axis=1, out=out[r0 : r0 + rows], mode="clip")
    return out


def unpermute_result(q: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Undo permute_weights on a result with the same leading axis."""
    q = np.asarray(q)
    if q.shape[0] != perm.size:
        raise ShapeError(f"result rows {q.shape[0]} do not match permutation size {perm.size}")
    out = np.empty(q.shape, q.dtype)
    out[perm] = q
    return out
