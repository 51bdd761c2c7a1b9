"""Greedy layer-wise rounding algorithms.

All methods quantize one weight column w (length n) against a shared
alphabet per output channel, sweeping coordinates t = 1..n in processing
order and emitting one alphabet value q_t per step.  They differ in what
the remaining coordinates do about the error just committed.

rtn          no interaction; every entry rounds independently.
optq         feedback of the errors so far through the factor of the
             (damped) second moment H = U U^T, U upper triangular:
                 q_t = Q(w_t - sum_{j<t} (U[j, t] / U[t, t]) (q_j - w_j)).
             Uses one set of activations only: its H is built from the
             reference input X.
gpfq         path following: q_t chases the running residual
             u_{t-1} + w_t X_t projected on the quantized-path column,
             with no correction of future weights.
qronos_base  explicit error correction on the moment pair (H, G) with
             H from the quantized-path input Xq and G = Xq^T X:
                 q_t  = Q((G[t, :] w - H[t, :t] q_{<t}
                            - H[t, t+1:] s_{>t}) / H[t, t])
                 s_{>t} = H[t+1:, t+1:]^-1 (G[t+1:, :] w
                            - H[t+1:, :t+1] q_{<=t})
             where s is the surviving-weight state, re-solved from
             scratch at every step (one fresh factorization per step).
qronos       the same iterates at O(n^2) per column: step t = 1 solves
             for s_{>1} with U[1:, 1:], which factors H[1:, 1:], and
             every later step is the optq rule on s and U[1:, 1:].

Every method quantizes from its moments alone; the suites' oracle
``quantize_optq_column_ref`` instead refits against raw activations.
The two qronos forms are algebraically identical on one (H, G) pair,
damped or not, and with G = H qronos collapses onto optq exactly, given
the same ridge on H and G.  So the ridge lambda is resolved once, on the
caller's undamped H, and added to the driver's copy of H's diagonal (for
gpfq, to each step's gathered rows) and to the cross term, as if
sqrt(lambda) I were appended to both activation sets as calibration
rows.  The caller's matrices are never written.

The layer driver is two halves.  ``prepare_layer`` reads the stats
alone: the ridge (``apply_damping``, the one scan of H), the order, and
the damped H gathered in processing order, which optq and qronos factor
in place by one Cholesky of its index reversal (``reversed_cholesky``).
``round_layer`` reads one weight matrix and, never writing it, the
preparation: it forms the cross term and runs the first step and the
sweep.  Layers on one input (a block's q/k/v projections; H depends on
the input alone) so pay for the scan, ridge, order and factor once.
``quantize_layer`` is the two halves, then q in the caller's order, the
moment objective (q^T (H + lambda I) q = ||U^T q||^2, read off the sweep)
and the report; both it and ``round_layer`` first match the weights to
the stats.  The per-column entry points run the halves on one channel,
in the caller's order with no ridge of their own, and skip the rest.
Only gpfq reads G's entries; the others hold G W as one n x n_out cross
term, (G W)[perm] + lambda W[perm], from the stats' GW when
calibration folded Xq^T (X W) (``layer_stats``), else from one G @ W.
Each whole array exists once: optq and qronos hold H's factored copy and
three arrays of W's size (W in processing order, then s - q and U^T q;
q; the sweep's z, in the cross term's buffer for qronos); gpfq reads its
rows of the caller's H and G through the order.
At n_out = n / 4 the peak is under 2 H.  All output channels run at
once, step-synchronously, in a sweep blocked on two levels (GPTQ's lazy
batch, read left-looking): a block of SWEEP_BLOCK steps, then each
sub-block of SWEEP_SUB steps in it, takes the q of the (sub-)blocks
before it in one product, then its own step by step.  With ``on_state``
the layer hands each step's state, the least-squares refit of the rows
not yet quantized, to the caller and keeps none; a state is never
written after it is handed over, so tracing never changes q.
"""

from __future__ import annotations

import sys
import time
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import blas, lapack

from . import calib as _calib
from . import grid as _grid
from . import linalg as _linalg
from .errors import NotPositiveDefiniteError, ShapeError
from .linalg import DampingPolicy, apply_damping, check_finite, reversed_cholesky

# L = U^-T, H^-1's factor, named here for perfbench's rounding.factor_s span;
# it runs the layer's own reversed_cholesky, so it is no independent reference
chol_of_inverse = _linalg.chol_of_inverse


@dataclass(frozen=True)
class MethodSpec:
    """One method's defaults: ``damping``, the ridge when the caller names
    none, and for ``layer_stats`` whether it calibrates on the (reference,
    quantized-path) pair or the reference alone (``two_path``) and reads
    G's entries, so its stats must hold G, or G W alone (``reads_g``)."""

    damping: DampingPolicy
    two_path: bool
    reads_g: bool = False


# optq traditionally damps by mean diagonal, the error-corrected methods
# by a small fraction of the spectral norm
_TOPSV = DampingPolicy("top_singular_fraction", alpha=1e-6)
_NO_RIDGE = DampingPolicy("none")
METHOD_SPECS = {
    "rtn": MethodSpec(_NO_RIDGE, two_path=False),
    "optq": MethodSpec(DampingPolicy("mean_diag_percent"), two_path=False),
    "gpfq": MethodSpec(_NO_RIDGE, two_path=True, reads_g=True),
    "qronos_base": MethodSpec(_TOPSV, two_path=True),
    "qronos": MethodSpec(_TOPSV, two_path=True),
}
METHODS = tuple(METHOD_SPECS)
ORDER_MODES = ("diag", "natural")
# steps per block of the layer sweep; a block takes the errors of the
# blocks before it in one matrix product
SWEEP_BLOCK = 128
SWEEP_SUB = 16  # steps per sub-block, whose own rows alone take rank-1 updates
# LayerReport.timings keys, in the order the layer runs them; "damping" also
# scans H, "check" scans the cross moment, and "permute" forms the cross
# term, G @ W included when the stats hold G
PHASES = ("damping", "check", "permute", "factor", "first_step", "sweep", "unpermute", "objective")


@dataclass
class RoundingTrace:
    """One per-column rounding run: the quantized column ``q`` and, when
    recorded, ``w_states[t]``, the weights not yet quantized after step t
    (``w_states[0]`` is the input column itself, bit for bit)."""

    q: np.ndarray
    w_states: list[np.ndarray] | None = None


# ---------------------------------------------------------------------------
# per-column entry points


def quantize_optq_column(w: np.ndarray, h: np.ndarray, grid: _grid.QuantGrid,
                         record_trace: bool = False) -> RoundingTrace:
    """Cholesky-form greedy rounding with error feedback.

    ``h`` is the damped second moment H = U U^T of the layer's own input
    (this method consumes one activation set only); the feedback runs
    through its Cholesky factor U.
    """
    return _round_column("optq", w, h, h, grid, record_trace)


def quantize_optq_column_ref(w: np.ndarray, x: np.ndarray, grid: _grid.QuantGrid,
                             record_trace: bool = False) -> RoundingTrace:
    """Reference trajectory: argmin per step against raw activations.

    Step t picks the alphabet value minimizing the full residual with
    every later coordinate held at its current real value, then re-fits
    those later coordinates by normal equations solved with an LU path
    independent of the Cholesky code.  A ridge lambda is the same
    trajectory on x with sqrt(lambda) I appended as extra rows.
    """
    w = _as_column(w)
    x = np.asarray(x, dtype=np.float64)
    n = w.size
    if x.ndim != 2 or x.shape[1] != n:
        raise ShapeError(f"activations {x.shape} do not match column length {n}")
    target = x @ w
    state = w.copy()
    q = np.empty(n)
    w_states = [state.copy()] if record_trace else None
    for t in range(n):
        resid = target - x[:, :t] @ q[:t] - x[:, t + 1 :] @ state[t + 1 :]
        denom = float(x[:, t] @ x[:, t])
        p = float(x[:, t] @ resid) / denom if denom > 0.0 else state[t]
        q[t] = _grid.quantize_rtn(p, grid)
        if t + 1 < n:
            tail = x[:, t + 1 :]
            new_tail = np.linalg.solve(tail.T @ tail, tail.T @ (target - x[:, : t + 1] @ q[: t + 1]))
            if record_trace:
                w_states.append(new_tail.copy())
            state[t + 1 :] = new_tail
    return RoundingTrace(q=q, w_states=w_states)


def quantize_gpfq_column(w: np.ndarray, x: np.ndarray, xq: np.ndarray, grid: _grid.QuantGrid,
                         record_trace: bool = False) -> RoundingTrace:
    """Path-following rounding on a (reference, quantized-path) pair.

    Maintains the running residual u_t = sum_{j<=t} w_j X_j - q_j Xq_j
    and rounds the projection of u_{t-1} + w_t X_t onto Xq_t.  A
    zero-norm quantized-path column carries no signal; the step falls
    back to plain RTN of w_t and warns.
    """
    w = _as_column(w)
    x = np.asarray(x, dtype=np.float64)
    xq = np.asarray(xq, dtype=np.float64)
    n = w.size
    if x.shape != xq.shape or x.ndim != 2 or x.shape[1] != n:
        raise ShapeError(f"activation pair {x.shape}/{xq.shape} does not match column length {n}")
    u = np.zeros(x.shape[0])
    q = np.empty(n)
    w_states = [w.copy()] if record_trace else None
    for t in range(n):
        col = xq[:, t]
        norm2 = float(col @ col)
        ahead = u + w[t] * x[:, t]
        if norm2 > 0.0:
            q[t] = _grid.quantize_rtn(float(col @ ahead) / norm2, grid)
        else:
            _warn_caller(f"quantized-path column {t} has zero norm; falling back to RTN for that step")
            q[t] = _grid.quantize_rtn(w[t], grid)
        u = ahead - q[t] * col
        if record_trace and t + 1 < n:
            w_states.append(w[t + 1 :].copy())
    return RoundingTrace(q=q, w_states=w_states)


def quantize_qronos_base_column(w: np.ndarray, h: np.ndarray, g: np.ndarray, grid: _grid.QuantGrid,
                                record_trace: bool = False) -> RoundingTrace:
    """Direct-evaluation error-corrected rounding on a moment pair.

    Every step re-solves the trailing normal equations from scratch; a
    non-positive-definite trailing block raises, naming its 1-based
    pivot in the column's order.
    """
    return _round_column("qronos_base", w, h, g, grid, record_trace)


def quantize_qronos_column(w: np.ndarray, h: np.ndarray, g: np.ndarray, grid: _grid.QuantGrid,
                           record_trace: bool = False) -> RoundingTrace:
    """Efficient form of the error-corrected iterates on a moment pair.

    With h = U U^T, step 1 solves for the rest of the column through
    U[1:, 1:]; afterwards the trajectory is the optq rule on the
    corrected column.
    """
    return _round_column("qronos", w, h, g, grid, record_trace)


# ---------------------------------------------------------------------------
# layer driver


def layer_stats(method: str, weights: np.ndarray, x: np.ndarray, xq: np.ndarray | None = None) -> _calib.CalibStats:
    """The moments ``method`` reads, from one batch of a layer's activations.

    The one route from activations to a layer's stats.  Two-path methods
    calibrate on the pair (x, xq), the others on x alone (``xq`` is not
    read).  The weights go to ``calib.accumulate`` unless the method
    reads G's entries, so the stats hold G W whenever 2 n_out < n_in.
    ``accumulate`` forms each product with NumPy's OpenBLAS pool at one
    thread, the cross product on a worker beside H, so the stats have
    the same bits at every BLAS thread count.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} (expected one of {METHODS})")
    spec = METHOD_SPECS[method]
    if spec.two_path and xq is None:
        raise ValueError(f"method {method!r} calibrates on both paths; pass xq")
    stats = _calib.CalibStats(np.shape(weights)[0])
    return _calib.accumulate(stats, x, xq if spec.two_path else x, None if spec.reads_g else weights)


@dataclass
class LayerQuantRequest:
    """Everything needed to quantize one weight matrix.

    ``weights`` is (n_in, n_out); ``grids`` is one QuantGrid for the
    layer, with a step and zero point per output column as the builders
    return for the weight matrix, or scalar ones for every column.
    ``stats`` holds the moments as ``layer_stats`` builds them for the
    method: H from the reference activations for optq, from the quantized
    path for two-path methods (``METHOD_SPECS``), and G, or G W for these
    same weights unless the method reads G's entries (gpfq).  The order
    comes from the undamped diagonal of H ("diag") or is skipped
    ("natural"); q comes back in the caller's row order either way.
    ``on_state``, if set, takes each step's state as it forms, the
    (n_in - t, n_out) rows not yet quantized after step t in processing
    order (the permuted weights first); rtn and gpfq hand over none.
    """

    weights: np.ndarray
    grids: _grid.QuantGrid
    method: str
    stats: _calib.CalibStats | None = None
    damping: DampingPolicy = _NO_RIDGE
    order: str = "diag"
    on_state: Callable[[np.ndarray], None] | None = None


@dataclass
class LayerReport:
    """What one ``quantize_layer`` call did.

    ``objectives`` holds one value per output column.  For every
    calibrated method (``objective_form`` "moment_quadratic") it is
    0.5 q^T (H + lambda I) q - q^T G w on the caller's undamped pair; with
    no ridge that is the residual 0.5 ||X w - Xq q||^2 less the q-free
    0.5 ||X w||^2.  rtn reads no moments and reports NaN ("unavailable").
    """

    damping_lambda: float
    order: list[int]
    objective_form: str
    objectives: np.ndarray
    warnings: list[str] = field(default_factory=list)
    # wall-clock seconds per phase, keyed by PHASES; "damping" includes H's scan
    timings: dict[str, float] = field(default_factory=dict)


class PreparedLayer(NamedTuple):
    """A layer's stats-side work, from ``prepare_layer``.  Its arrays are
    read-only; the stats must not change while it is in use.

    ``order`` is the processing order, entry t the caller's index of step
    t.  ``h`` is the damped H in processing order for qronos_base, its
    reversed factor c (``reversed_cholesky``) for optq and qronos, and
    None for gpfq, which reads the caller's H and G through ``order``;
    ``h0`` is the damped H's row 0 in processing order (qronos).
    ``timings`` holds the damping, check, permute and factor seconds.
    """

    method: str
    stats: _calib.CalibStats
    damping_lambda: float
    order: np.ndarray
    h: np.ndarray | None
    h0: np.ndarray | None
    warnings: tuple[str, ...]
    timings: dict[str, float]


@_linalg.one_lapack_thread
def prepare_layer(stats: _calib.CalibStats, damping: DampingPolicy, order: str, method: str) -> PreparedLayer:
    """The half of ``quantize_layer`` that reads the stats alone: resolve the
    ridge (``apply_damping``, which scans H), scan the cross moment, order,
    and gather the damped H in processing order, which optq and qronos
    factor in place.  Arguments are as in ``LayerQuantRequest``.  Warnings
    and a NotPositiveDefiniteError name the caller's feature."""
    _check_modes(method, order)
    if method == "rtn":
        raise ValueError("method 'rtn' reads no moments; quantize_layer rounds it directly")
    if stats is None:
        raise ValueError(f"method {method!r} requires calibration stats")
    if stats.GW is not None and METHOD_SPECS[method].reads_g:
        raise ValueError(f"method {method!r} reads the entries of G; these stats hold only G W")
    if stats.GW is None and stats.G is None:
        raise ValueError("these stats hold no cross moment")
    if stats.H is None:
        raise ValueError("these stats hold no second moment H")
    clock = time.perf_counter
    t0 = clock()
    # the layer's one scan of H, without which the sweeps carry a NaN or inf into q
    lam = apply_damping(stats.H, damping)
    t1 = clock()
    if stats.GW is not None:
        check_finite(stats.GW, "GW")
    elif stats.G is not stats.H:
        check_finite(stats.G, "G")
    t2 = clock()
    # the ridge shifts every diagonal entry equally, so ordering from the
    # undamped diagonal is the same permutation
    perm = _calib.order_by_diag(stats.H) if order == "diag" else np.arange(stats.dim)
    factored = method in ("optq", "qronos")
    h = h0 = None
    if method != "gpfq":  # optq and qronos hold H reversed, as reversed_cholesky needs
        h = _calib.permute_moment(stats.H, perm[::-1] if factored else perm)
        if lam:  # the one place the ridge is added to H
            h.flat[:: stats.dim + 1] += lam
    t3 = clock()
    if factored:
        h0 = h[-1, ::-1].copy() if method == "qronos" else None
        try:
            h = reversed_cholesky(h)
        except NotPositiveDefiniteError as exc:
            raise _in_caller_order(exc, perm) from None
    dead = perm[stats.H.diagonal()[perm] + lam <= 0.0].tolist() if method == "gpfq" else []
    for feature in dead:
        _warn_caller(f"quantized-path column {feature} has zero norm; falling back to RTN for that step")
    for a in (perm, h, h0):
        if a is not None:
            a.flags.writeable = False
    timings = {"damping": t1 - t0, "check": t2 - t1, "permute": t3 - t2, "factor": clock() - t3 if factored else 0.0}
    return PreparedLayer(method, stats, lam, perm, h, h0,
                         tuple(f"gpfq: zero-norm quantized-path column {f}, RTN fallback" for f in dead), timings)


@_linalg.one_lapack_thread
def round_layer(prepared: PreparedLayer, weights: np.ndarray, grids: _grid.QuantGrid,
                on_state: Callable[[np.ndarray], None] | None = None) -> np.ndarray:
    """The half of ``quantize_layer`` that reads the weights: match them to
    the stats, form the cross term, from the stats' G W if formed with
    these weights, else as G @ W, then run the first step and the sweep.
    Returns q in processing order, row t for the caller's row
    ``prepared.order[t]``.  Arguments are as in ``LayerQuantRequest``.
    ``prepared`` is only read, so it serves every weight matrix on its
    input.  A NotPositiveDefiniteError (qronos_base's per-step solve)
    names the caller's feature."""
    w = _as_weights(weights, grids, prepared.stats)
    return _round(prepared, w, grids, on_state, dict.fromkeys(PHASES, 0.0))[0]


@_linalg.one_lapack_thread
def quantize_layer(req: LayerQuantRequest) -> tuple[np.ndarray, LayerReport]:
    """Quantize all output channels of one layer from its moments alone:
    ``prepare_layer`` and ``round_layer``, then q in the caller's order,
    the moment objective and the ``LayerReport``.  Warnings and a
    NotPositiveDefiniteError name the caller's feature."""
    # the weights matched to the stats before any stats-side work; with no
    # stats, prepare_layer names what is missing
    w = _as_weights(req.weights, req.grids, None if req.method == "rtn" else req.stats)
    n_in, n_out = w.shape
    _check_modes(req.method, req.order)
    timings = dict.fromkeys(PHASES, 0.0)
    clock = time.perf_counter
    if req.method == "rtn":
        t0 = clock()
        q = _grid.quantize_rtn(w, req.grids)
        timings["sweep"] = clock() - t0
        return q, LayerReport(0.0, list(range(n_in)), "unavailable", np.full(n_out, np.nan), timings=timings)
    prep = prepare_layer(req.stats, req.damping, req.order, req.method)
    timings.update(prep.timings)
    qp, qhq, gw = _round(prep, w, req.grids, req.on_state, timings, objective=True)
    t0 = clock()
    q = _calib.unpermute_result(qp, prep.order)
    t1 = clock()
    # 0.5 q^T (H + lam I) q - q^T G w on the caller's undamped pair
    stats, lam = req.stats, prep.damping_lambda
    if qhq is None:  # optq and qronos read it off the sweep
        qhq = np.einsum("ij,ij->j", q, stats.H @ q) + lam * np.einsum("ij,ij->j", q, q)
    objectives = 0.5 * qhq - np.einsum("ij,ij->j", q, stats.G @ w if gw is None else gw)
    timings.update(unpermute=t1 - t0, objective=clock() - t1)
    return q, LayerReport(lam, prep.order.tolist(), "moment_quadratic", objectives, list(prep.warnings), timings)


def _round(prep, w, grid, on_state, timings, objective=False):
    """``round_layer`` on matched weights: q in processing order, optq's
    and qronos's q^T (H + lambda I) q if ``objective`` (else None) and G W
    in the caller's order (None where it formed none).  Adds the cross
    term's seconds to timings["permute"], sets the first step's and the sweep's."""
    stats, method, order, lam = prep.stats, prep.method, prep.order, prep.damping_lambda
    t0 = time.perf_counter()
    wp = _calib.permute_weights(w, order)
    factored = method in ("optq", "qronos")
    swept_gw = method in ("qronos", "qronos_base")
    gw = stats.G @ w if stats.GW is None and swept_gw else stats.GW
    perm, wx = (order[::-1], wp[::-1]) if factored else (order, wp)  # reversed as H
    gwx = gw[perm] if swept_gw else None
    if lam and swept_gw:  # the ridge's lam W, a row block at a time
        for r0 in range(0, len(wx), SWEEP_BLOCK):
            gwx[r0 : r0 + SWEEP_BLOCK] += lam * wx[r0 : r0 + SWEEP_BLOCK]
    t1 = time.perf_counter()
    timings["permute"] += t1 - t0
    try:
        if factored:
            return *_sweep(wp, grid, prep.h, prep.h0, gwx, on_state, timings, objective), gw
        if method == "gpfq":
            qp = _gpfq_sweep(wp, grid, stats.H, stats.G, order, lam)
        else:
            qp = _direct_sweep(wp, grid, prep.h, gwx, on_state)
    except NotPositiveDefiniteError as exc:
        raise _in_caller_order(exc, order) from None
    timings["sweep"] = time.perf_counter() - t1
    return qp, None, gw


def _in_caller_order(exc, order):
    """``exc``, whose 1-based pivot counts processing steps, naming the caller's feature."""
    feature = int(order[exc.index - 1]) + 1
    return NotPositiveDefiniteError(feature, f"H is not positive definite (failing pivot at feature {feature}, 1-based)")


def _gpfq_sweep(wp, grid, h, g, order, lam):
    """gpfq on every column of ``wp`` (n, n_out), as ``_sweep``: step t
    reads row f = order[t] of the caller's undamped pair (h, g) through
    ``order``, adding the ridge lam to the diagonal, and rounds w_t
    itself where h[f, f] + lam is not positive.  Returns q."""
    rtn = grid.rounder
    q = np.empty_like(wp)
    for t, f in enumerate(order):
        denom = h[f, f] + lam
        if denom > 0.0:
            g_row = g[f][order[: t + 1]]  # the row's view, then the gather: faster than g[f, idx]
            if lam:
                g_row[t] += lam
            q[t] = rtn((g_row @ wp[: t + 1] - h[f][order[:t]] @ q[:t]) / denom)
        else:
            q[t] = rtn(wp[t])
    return q


def _direct_sweep(wp, grid, hp, gwp, on_state):
    """qronos_base on every column of ``wp`` (n, n_out), as ``_sweep``:
    every step re-solves the trailing normal equations of the damped,
    permuted H ``hp``, right-hand side from gwp = (G W)[perm], by one
    ``dposv`` (hp was scanned whole, so its trailing blocks need no
    scan), and hands its state to ``on_state``.  A
    NotPositiveDefiniteError names its 1-based pivot in processing
    order.  Returns q."""
    n = wp.shape[0]
    rtn = grid.rounder
    q = np.empty_like(wp)
    tail = wp  # the rows from step t on, refit by the step before
    if not hp[0, 0] > 0.0:  # the one pivot no step's trailing solve factors
        raise NotPositiveDefiniteError(1)
    if on_state is not None:
        on_state(wp)
    for t in range(n):
        num = gwp[t] - hp[t, :t] @ q[:t] - hp[t, t + 1 :] @ tail[1:]
        q[t] = rtn(num / hp[t, t])
        if t + 1 < n:
            rhs = gwp[t + 1 :] - hp[t + 1 :, : t + 1] @ q[: t + 1]
            _, tail, info = lapack.dposv(hp[t + 1 :, t + 1 :], rhs, lower=1)
            if info > 0:
                raise NotPositiveDefiniteError(t + 1 + info)
            if on_state is not None:
                on_state(tail)
    return q


def _sweep(wp, grid, c, h0, gwr, on_state, timings, objective=False):
    """optq, or given hp's row 0 ``h0`` and the reversed cross term ``gwr``
    qronos, on every column of ``wp`` (n, n_out), step-synchronously.

    ``c`` factors the damped H index-reversed (``reversed_cholesky``:
    hp = U U^T, U = J c J).  In reversed coordinates step k rounds s_k =
    w_k - sum_{i>k} (c_ik / c_kk) (q_i - w_i) = (z_k - sum_{i>k} c_ik q_i) /
    c_kk, as the weights solve c^T w = z: optq's z = c^T w is one
    triangular product, and qronos, after q_1, sweeps on U[1:, 1:] and
    z = c^-1 (gw[1:] - hp[1:, 0] q_1), one solve in gwr's buffer.  A block
    of SWEEP_BLOCK steps, then each sub-block of SWEEP_SUB in it, takes
    the q before it in one product with a slab of c, then its own step by
    step.  wp's buffer, unless ``on_state`` took it, holds s - q, then with
    ``objective`` c^T q_r = z - c_kk (s - q) plus qronos's step-0 row.
    ``on_state`` takes the states (``LayerQuantRequest``), the refits, from
    a second solve and c^-1.  Returns q and, with ``objective``, q^T hp q =
    ||c^T q_r||^2; ``timings`` gets the first step's and the sweep's seconds.
    """
    n, n_out = wp.shape
    t0 = time.perf_counter()
    rtn = grid.rounder
    qr = np.empty((n, n_out))  # q in reversed order
    top = n  # the sweep's steps are the reversed rows [0, top)
    refit = wp[::-1]  # the state's rows ahead, reversed
    if on_state is not None:
        on_state(wp)
    if h0 is None:
        z = blas.dtrmm(1.0, c, wp[::-1].T, side=1, lower=1).T
    else:
        qr[-1] = rtn((gwr[-1] - h0[1:] @ wp[1:]) / h0[0])
        top = n - 1
        # hp[1:, 1:] reversed leads c c^T: one solve with all of c (a slice is
        # copied) on a right-hand side formed in gwr a row block at a time;
        # row top, fed by gwr's last row alone, is not z's and is zeroed
        for r0 in range(0, n, SWEEP_BLOCK):
            gwr[r0 : r0 + SWEEP_BLOCK] -= h0[::-1][r0 : r0 + SWEEP_BLOCK, None] * qr[-1]
        z = blas.dtrsm(1.0, c, gwr.T, side=1, lower=1, trans_a=1, overwrite_b=1).T
        z[top] = 0.0
        if on_state is not None and top:  # the refit, by a second solve
            refit = blas.dtrsm(1.0, c, z.T, side=1, lower=1).T[:top]
            on_state(refit[::-1])
        t1 = time.perf_counter()
        timings["first_step"] = t1 - t0
        t0 = t1
    # c is reversed_cholesky's Fortran-ordered view, so ct is C-ordered and
    # every slab below a positive-stride slice
    ct = c.T
    diag = c.diagonal()[:, None]
    e = wp if on_state is None else np.empty((n, n_out))  # s - q, reversed
    if on_state is not None:
        # the refits of the rows ahead move along column t of L = U^-T, the
        # factor of hp^-1, scaled by L[t, t]: row k of c^-1 (scaled in place), reversed
        lrows = lapack.dtrtri(c, lower=1)[0]
        lrows /= lrows.diagonal().copy()[:, None]
    for b1 in range(top, 0, -SWEEP_BLOCK):
        b0 = max(b1 - SWEEP_BLOCK, 0)
        # the block's c_ik / c_kk, and its states after the blocks before it
        scaled = ct[b0:b1, b0:b1] / diag[b0:b1]
        s = (z[b0:b1] - ct[b0:b1, b1:top] @ qr[b1:top]) / diag[b0:b1]
        for u1 in range(b1 - b0, 0, -SWEEP_SUB):
            u0 = max(u1 - SWEEP_SUB, 0)
            s[u0:u1] -= scaled[u0:u1, u1:] @ qr[b0 + u1 : b1]
            for i in range(u1 - 1, u0 - 1, -1):
                k = b0 + i
                qr[k] = rtn(s[i])
                e[k] = s[i] - qr[k]
                s[u0:i] -= scaled[u0:i, i, None] * qr[k]
                if on_state is not None and k:
                    refit = refit[:k] - lrows[k, :k, None] * e[k]
                    on_state(refit[::-1])
    if objective:
        e[top:] = 0.0  # qronos's step 0, where z is 0 too
        e *= -diag
        e += z
        if h0 is not None:  # and qronos's step-0 row c[top, :] q_1, a row block at a time
            for r0 in range(0, n, SWEEP_BLOCK):
                e[r0 : r0 + SWEEP_BLOCK] += c[top, r0 : r0 + SWEEP_BLOCK, None] * qr[top]
    timings["sweep"] = time.perf_counter() - t0
    return qr[::-1], np.einsum("ij,ij->j", e, e) if objective else None


def _round_column(method, w, h, g, grid, record_trace) -> RoundingTrace:
    """One column through ``prepare_layer`` and ``round_layer`` (n_out = 1),
    in the caller's order and with no ridge beyond the one already in
    (h, g); q and the states come back as fresh C-contiguous vectors."""
    w = _as_column(w)
    states = []
    prep = prepare_layer(_calib.CalibStats(w.size, H=h, G=g), _NO_RIDGE, "natural", method)
    q = round_layer(prep, w[:, None], grid, states.append if record_trace else None)
    return RoundingTrace(q=q[:, 0].copy(), w_states=[s[:, 0].copy() for s in states] if record_trace else None)


# ---------------------------------------------------------------------------
# shared helpers


def _warn_caller(message):
    """A RuntimeWarning attributed to the first frame outside this package."""
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and frame.f_globals.get("__name__", "").startswith(__package__ + "."):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)


def _as_column(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ShapeError(f"expected a non-empty 1-D weight column, got shape {w.shape}")
    return w.copy()


def _check_modes(method, order):
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} (expected one of {METHODS})")
    if order not in ORDER_MODES:
        raise ValueError(f"unknown order mode {order!r} (expected one of {ORDER_MODES})")


def _as_weights(w, grid, stats) -> np.ndarray:
    """``w`` as a float64 weight matrix with at least one output column,
    ``grid`` one QuantGrid whose arrays, if any, match its columns, and
    ``stats``, unless None, of w's row count and, if they hold G W,
    formed with w."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] == 0:
        raise ShapeError(f"expected a 2-D weight matrix with output columns, got shape {w.shape}")
    if not isinstance(grid, _grid.QuantGrid):
        raise ShapeError(f"expected one QuantGrid for the layer's columns, got a {type(grid).__name__}")
    shapes = (np.shape(grid.step_size), np.shape(grid.zero_point))
    if set(shapes) - {(), (w.shape[1],)}:
        raise ShapeError(f"grid step and zero point of shapes {shapes} do not match {w.shape[1]} output columns")
    if stats is not None and stats.dim != w.shape[0]:
        raise ShapeError(f"stats dim {stats.dim} does not match weight rows {w.shape[0]}")
    if stats is not None and stats.GW is not None and (stats.GW.shape != w.shape or not np.array_equal(stats.W, w)):
        raise ValueError("these stats hold G W for other weights")
    return w
