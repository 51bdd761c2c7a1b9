"""Greedy layer-wise rounding algorithms.

All methods quantize one weight column w (length n) against a shared
alphabet per output channel, sweeping coordinates t = 1..n in processing
order and emitting one alphabet value q_t per step.  They differ in what
the remaining coordinates do about the error just committed.

rtn          no interaction; every entry rounds independently.
optq         q_t = Q(w_t on the current state); the trailing state moves
             by -(state_t - q_t) * L[t+1:, t] / L[t, t], where L is the
             lower Cholesky factor of the inverse of the (damped) second
             moment of the layer input.  Uses one set of activations
             only: its H is built from the reference input X.
optq_ref     same trajectory, derived the expensive way: each step
             re-solves the trailing least-squares problem against the
             raw activations.  Kept as an executable cross-check.
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
qronos       the same iterates at O(n^2) per column: the interpolation
             step t = 1 is evaluated once via the trailing block of the
             Cholesky factor L of H^-1, and every later step collapses
             onto the optq-style update
                 q_t = Q(s_t),  s_{>t} -= (s_t - q_t) L[t+1:, t] / L[t, t].

The two qronos forms are algebraically identical on the same (H, G)
pair, damped or not, which the verification suites certify numerically.
When the quantized path equals the reference path (G = H) qronos
collapses onto optq exactly, provided the ridge is added to both H and
G; this module therefore damps both (the ridge acts like phantom
calibration rows appended to both activation sets).

The layer driver runs all output channels of a weight matrix at once,
step-synchronously, after applying the calib ordering.  The diffusion
sweep shared by optq and steps t >= 2 of qronos is blocked (the lazy
batch update of GPTQ): rank-1 updates touch only the rows of the
current block of SWEEP_BLOCK steps, the block's scaled errors are kept,
and the rows below the block receive them in one matrix product when
the block ends.  Per-column entry points mirror the math one channel at
a time, unblocked, and can record full per-step traces for verification.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import calib as _calib
from . import grid as _grid
from .errors import NonFiniteInputError, ShapeError
from .linalg import (
    CholeskyFactor,
    DampingPolicy,
    apply_damping,
    check_finite,
    chol_of_inverse,
    solve_spd,
)

METHODS = ("rtn", "optq", "optq_ref", "gpfq", "qronos_base", "qronos")
ORDER_MODES = ("diag", "natural")
# diffusion steps per block of the layer sweep; rows below a block are
# updated once per block by a matrix product
SWEEP_BLOCK = 128


@dataclass
class RoundingTrace:
    """Per-column record of one rounding run.

    ``q`` is the quantized column.  When recorded, ``w_states[t]`` holds
    the surviving weights after step t (``w_states[0]`` is the input
    column itself, bit for bit) and ``deltas[t-1]`` the move applied to
    them at step t.  ``objective`` is 0.5 * ||X w - Xq q||^2 whenever raw
    activations were available to evaluate it.
    """

    q: np.ndarray
    w_states: list[np.ndarray] | None = None
    deltas: list[np.ndarray] | None = None
    objective: float | None = None


# ---------------------------------------------------------------------------
# per-column reference implementations


def quantize_rtn_layer(w: np.ndarray, grids) -> np.ndarray:
    """Independent round-to-nearest of every entry, column grids."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"expected a 2-D weight matrix, got shape {w.shape}")
    _check_grids(grids, w.shape[1])
    out = np.empty_like(w)
    for j, g in enumerate(grids):
        out[:, j] = _grid.quantize_rtn(w[:, j], g)
    return out


def quantize_optq_column(
    w: np.ndarray,
    chol: CholeskyFactor,
    grid: _grid.QuantGrid,
    record_trace: bool = False,
) -> RoundingTrace:
    """Cholesky-form greedy rounding with trailing error diffusion.

    ``chol`` factors the inverse of the damped second moment of the
    layer's own input (this method consumes one activation set only).
    """
    w = _as_column(w)
    n = w.size
    if chol.dim != n:
        raise ShapeError(f"factor dim {chol.dim} does not match column length {n}")
    low = chol.L
    state = w.copy()
    q = np.empty(n)
    w_states = [state.copy()] if record_trace else None
    deltas = [] if record_trace else None
    for t in range(n):
        q[t] = _grid.quantize_rtn(state[t], grid)
        if t + 1 < n:
            move = -((state[t] - q[t]) / low[t, t]) * low[t + 1 :, t]
            state[t + 1 :] += move
            if record_trace:
                deltas.append(move.copy())
                w_states.append(state[t + 1 :].copy())
    return RoundingTrace(q=q, w_states=w_states, deltas=deltas)


def quantize_optq_column_ref(
    w: np.ndarray,
    x: np.ndarray,
    grid: _grid.QuantGrid,
    ridge: float = 0.0,
    record_trace: bool = False,
) -> RoundingTrace:
    """Reference trajectory: argmin per step against raw activations.

    Step t picks the alphabet value minimizing the full residual with
    every later coordinate held at its current real value, then re-fits
    those later coordinates by (optionally ridge-damped) normal
    equations solved with an LU path independent of the Cholesky code.
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
    deltas = [] if record_trace else None
    for t in range(n):
        resid = target - x[:, :t] @ q[:t] - x[:, t + 1 :] @ state[t + 1 :]
        denom = float(x[:, t] @ x[:, t])
        p = float(x[:, t] @ resid) / denom if denom > 0.0 else state[t]
        q[t] = _grid.quantize_rtn(p, grid)
        if t + 1 < n:
            tail = x[:, t + 1 :]
            gram = tail.T @ tail
            if ridge > 0.0:
                gram = gram + ridge * np.eye(gram.shape[0])
            new_tail = np.linalg.solve(gram, tail.T @ (target - x[:, : t + 1] @ q[: t + 1]))
            if record_trace:
                deltas.append(new_tail - state[t + 1 :])
                w_states.append(new_tail.copy())
            state[t + 1 :] = new_tail
    resid = target - x @ q
    return RoundingTrace(q=q, w_states=w_states, deltas=deltas, objective=0.5 * float(resid @ resid))


def quantize_gpfq_column(
    w: np.ndarray,
    x: np.ndarray,
    xq: np.ndarray,
    grid: _grid.QuantGrid,
    record_trace: bool = False,
) -> RoundingTrace:
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
        raise ShapeError(
            f"activation pair {x.shape}/{xq.shape} does not match column length {n}"
        )
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
            warnings.warn(
                f"quantized-path column {t} has zero norm; falling back to RTN for that step",
                RuntimeWarning,
                stacklevel=2,
            )
            q[t] = _grid.quantize_rtn(w[t], grid)
        u = ahead - q[t] * col
        if record_trace and t + 1 < n:
            w_states.append(w[t + 1 :].copy())
    return RoundingTrace(q=q, w_states=w_states, deltas=None, objective=0.5 * float(u @ u))


def quantize_qronos_base_column(
    w: np.ndarray,
    h_damped: np.ndarray,
    g: np.ndarray,
    grid: _grid.QuantGrid,
    record_trace: bool = False,
) -> RoundingTrace:
    """Direct-evaluation error-corrected rounding on a moment pair.

    Every step re-solves the trailing normal equations from scratch; a
    non-positive-definite trailing block raises.
    """
    w = _as_column(w)
    n = w.size
    h_damped, g = _check_moment_pair(h_damped, g, n)
    state = w.copy()
    q = np.empty(n)
    gw = g @ w
    w_states = [state.copy()] if record_trace else None
    deltas = [] if record_trace else None
    for t in range(n):
        num = gw[t] - h_damped[t, :t] @ q[:t] - h_damped[t, t + 1 :] @ state[t + 1 :]
        q[t] = _grid.quantize_rtn(num / h_damped[t, t], grid)
        if t + 1 < n:
            rhs = gw[t + 1 :] - h_damped[t + 1 :, : t + 1] @ q[: t + 1]
            new_tail = solve_spd(h_damped[t + 1 :, t + 1 :], rhs)
            if record_trace:
                deltas.append(new_tail - state[t + 1 :])
                w_states.append(new_tail.copy())
            state[t + 1 :] = new_tail
    return RoundingTrace(q=q, w_states=w_states, deltas=deltas)


def quantize_qronos_column(
    w: np.ndarray,
    h_damped: np.ndarray,
    g: np.ndarray,
    chol: CholeskyFactor,
    grid: _grid.QuantGrid,
    record_trace: bool = False,
) -> RoundingTrace:
    """Efficient form of the error-corrected iterates.

    Step 1 interpolates the unquantized column through the trailing
    block of ``chol`` (the factor of the damped inverse); afterwards the
    trajectory is the optq-style diffusion on the corrected state.
    """
    w = _as_column(w)
    n = w.size
    h_damped, g = _check_moment_pair(h_damped, g, n)
    if chol.dim != n:
        raise ShapeError(f"factor dim {chol.dim} does not match column length {n}")
    low = chol.L
    state = w.copy()
    q = np.empty(n)
    w_states = [state.copy()] if record_trace else None
    deltas = [] if record_trace else None
    num = g[0, :] @ w - h_damped[0, 1:] @ w[1:]
    q[0] = _grid.quantize_rtn(num / h_damped[0, 0], grid)
    if n > 1:
        rhs = g[1:, :] @ w - h_damped[1:, 0] * q[0]
        tail = low[1:, 1:]
        new_tail = tail @ (tail.T @ rhs)
        if record_trace:
            deltas.append(new_tail - state[1:])
            w_states.append(new_tail.copy())
        state[1:] = new_tail
        for t in range(1, n):
            q[t] = _grid.quantize_rtn(state[t], grid)
            if t + 1 < n:
                move = -((state[t] - q[t]) / low[t, t]) * low[t + 1 :, t]
                state[t + 1 :] += move
                if record_trace:
                    deltas.append(move.copy())
                    w_states.append(state[t + 1 :].copy())
    return RoundingTrace(q=q, w_states=w_states, deltas=deltas)


# ---------------------------------------------------------------------------
# layer driver


@dataclass
class LayerQuantRequest:
    """Everything needed to quantize one weight matrix.

    ``weights`` is (n_in, n_out); ``grids`` one QuantGrid per output
    column.  ``stats`` supplies the moment pair: for optq-family methods
    its H must be built from the reference activations alone, for the
    gpfq/qronos family from the (reference, quantized-path) pair.  The
    ordering permutation is derived from the undamped diagonal of H
    ("diag") or skipped ("natural"); results are returned in the
    caller's original row order either way.
    """

    weights: np.ndarray
    grids: list
    method: str
    stats: _calib.CalibStats | None = None
    damping: DampingPolicy = field(default_factory=lambda: DampingPolicy("none"))
    order: str = "diag"
    record_trace: bool = False


@dataclass
class LayerReport:
    method: str
    n_in: int
    n_out: int
    damping_lambda: float
    order: list[int]
    objective_form: str
    objectives: np.ndarray
    warnings: list[str] = field(default_factory=list)
    traces: list[RoundingTrace] | None = None


def quantize_layer(
    req: LayerQuantRequest,
    x: np.ndarray | None = None,
    xq: np.ndarray | None = None,
) -> tuple[np.ndarray, LayerReport]:
    """Quantize all output channels of one layer.

    Raw activations are optional and only used (a) by optq_ref, which
    has no moment-space form, and (b) to report residual objectives
    instead of the moment-space surrogate.
    """
    w = np.asarray(req.weights, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"weights must be 2-D, got shape {w.shape}")
    n_in, n_out = w.shape
    _check_grids(req.grids, n_out)
    if req.method not in METHODS:
        raise ValueError(f"unknown method {req.method!r} (expected one of {METHODS})")
    if req.order not in ORDER_MODES:
        raise ValueError(f"unknown order mode {req.order!r} (expected one of {ORDER_MODES})")

    report_warnings: list[str] = []

    if req.method == "rtn":
        q = quantize_rtn_layer(w, req.grids)
        lam = 0.0
        order = _calib.natural_order(n_in)
        traces = [RoundingTrace(q=q[:, j].copy()) for j in range(n_out)] if req.record_trace else None
    else:
        stats = req.stats
        if stats is None:
            raise ValueError(f"method {req.method!r} requires calibration stats")
        if stats.dim != n_in:
            raise ShapeError(f"stats dim {stats.dim} does not match weight rows {n_in}")
        if req.method == "optq_ref" and x is None:
            raise ValueError("optq_ref re-solves against raw activations; pass x")

        h_damped, resolved = apply_damping(stats.H, req.damping)
        lam = float(resolved.resolved_lambda)
        # the ridge shifts every diagonal entry equally, so ordering from the
        # undamped diagonal is the same permutation
        order = _calib.order_by_diag(stats.H) if req.order == "diag" else _calib.natural_order(n_in)
        hp = h_damped[np.ix_(order.perm, order.perm)]
        gp = stats.G[np.ix_(order.perm, order.perm)]
        if lam:
            # a permutation keeps the diagonal on the diagonal
            gp.flat[:: n_in + 1] += lam
        wp = _calib.permute_weights(w, order)
        xp = x[:, order.perm] if x is not None else None
        try:
            if req.record_trace:
                qp, traces = _run_columns_traced(
                    req.method, wp, hp, gp, xp, req.grids, report_warnings, lam
                )
            else:
                traces = None
                qp = _run_columns_fast(req.method, wp, hp, gp, xp, req.grids, report_warnings, lam)
        except NonFiniteInputError:
            # name the cell in the caller's feature order, not the processing order
            check_finite(stats.H, "H")
            raise
        q = _calib.unpermute_result(qp, order)

    if x is not None:
        xq_eff = xq if xq is not None else x
        resid = x @ w - xq_eff @ q
        objectives = 0.5 * np.einsum("ij,ij->j", resid, resid)
        objective_form = "residual"
    elif req.method != "rtn":
        objectives = 0.5 * (
            np.einsum("ij,ij->j", q, h_damped @ q) - 2.0 * np.einsum("ij,ij->j", q, req.stats.G @ w)
        )
        objective_form = "moment_quadratic"
    else:
        objectives = np.full(n_out, np.nan)
        objective_form = "unavailable"

    report = LayerReport(
        method=req.method,
        n_in=n_in,
        n_out=n_out,
        damping_lambda=lam,
        order=[int(i) for i in order.perm],
        objective_form=objective_form,
        objectives=objectives,
        warnings=report_warnings,
        traces=traces,
    )
    return q, report


def _run_columns_traced(method, wp, hp, gp, xp, grids, report_warnings, ridge):
    """Column-at-a-time path used when per-step traces are requested."""
    n_in, n_out = wp.shape
    qp = np.empty_like(wp)
    traces = []
    chol = chol_of_inverse(hp) if method in ("optq", "qronos") else None
    for j in range(n_out):
        col = wp[:, j]
        if method == "optq":
            tr = quantize_optq_column(col, chol, grids[j], record_trace=True)
        elif method == "optq_ref":
            tr = quantize_optq_column_ref(col, xp, grids[j], ridge=ridge, record_trace=True)
        elif method == "gpfq":
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                tr = _gpfq_column_moments(col, hp, gp, grids[j], record_trace=True)
            report_warnings.extend(str(c.message) for c in caught)
        elif method == "qronos_base":
            tr = quantize_qronos_base_column(col, hp, gp, grids[j], record_trace=True)
        else:
            tr = quantize_qronos_column(col, hp, gp, chol, grids[j], record_trace=True)
        qp[:, j] = tr.q
        traces.append(tr)
    return qp, traces


def _gpfq_column_moments(w, h, g, grid, record_trace=False):
    # same iterates as the residual recursion, read off the moment pair
    n = w.size
    q = np.empty(n)
    w_states = [w.copy()] if record_trace else None
    for t in range(n):
        htt = h[t, t]
        if htt > 0.0:
            num = g[t, : t + 1] @ w[: t + 1] - h[t, :t] @ q[:t]
            q[t] = _grid.quantize_rtn(num / htt, grid)
        else:
            warnings.warn(
                f"quantized-path column {t} has zero norm; falling back to RTN for that step",
                RuntimeWarning,
                stacklevel=2,
            )
            q[t] = _grid.quantize_rtn(w[t], grid)
        if record_trace and t + 1 < n:
            w_states.append(w[t + 1 :].copy())
    return RoundingTrace(q=q, w_states=w_states)


def _run_columns_fast(method, wp, hp, gp, xp, grids, report_warnings, ridge):
    """Step-synchronous drivers, vectorized across output columns.

    optq and qronos share one diffusion sweep, blocked by SWEEP_BLOCK
    steps as the module docstring describes.
    """
    n_in, n_out = wp.shape
    steps, zeros, levels = _grid_arrays(grids)

    def rtn_row(vals):
        code = _grid.integer_codes(vals, steps, zeros, levels)
        return steps * (code - zeros)

    if method == "optq_ref":
        qp = np.empty_like(wp)
        for j in range(n_out):
            qp[:, j] = quantize_optq_column_ref(wp[:, j], xp, grids[j], ridge=ridge).q
        return qp

    if method == "gpfq":
        q = np.empty_like(wp)
        for t in range(n_in):
            htt = hp[t, t]
            if htt > 0.0:
                num = gp[t, : t + 1] @ wp[: t + 1] - hp[t, :t] @ q[:t]
                q[t] = rtn_row(num / htt)
            else:
                warnings.warn(
                    f"quantized-path column {t} has zero norm; falling back to RTN for that step",
                    RuntimeWarning,
                    stacklevel=3,
                )
                report_warnings.append(f"gpfq: zero-norm quantized-path column {t}, RTN fallback")
                q[t] = rtn_row(wp[t])
        return q

    if method == "qronos_base":
        state = wp.copy()
        q = np.zeros_like(wp)
        gw = gp @ wp
        for t in range(n_in):
            num = gw[t] - hp[t, :t] @ q[:t] - hp[t, t + 1 :] @ state[t + 1 :]
            q[t] = rtn_row(num / hp[t, t])
            if t + 1 < n_in:
                rhs = gw[t + 1 :] - hp[t + 1 :, : t + 1] @ q[: t + 1]
                state[t + 1 :] = solve_spd(hp[t + 1 :, t + 1 :], rhs)
        return q

    low = chol_of_inverse(hp).L
    state = wp.copy()
    q = np.empty_like(wp)
    start = 0
    if method == "qronos":
        num = gp[0, :] @ wp - hp[0, 1:] @ wp[1:]
        q[0] = rtn_row(num / hp[0, 0])
        if n_in > 1:
            rhs = gp[1:, :] @ wp - np.outer(hp[1:, 0], q[0])
            tail = low[1:, 1:]
            state[1:] = tail @ (tail.T @ rhs)
        start = 1
    for b0 in range(start, n_in, SWEEP_BLOCK):
        b1 = min(b0 + SWEEP_BLOCK, n_in)
        errs = np.empty((b1 - b0, n_out))
        for t in range(b0, b1):
            q[t] = rtn_row(state[t])
            errs[t - b0] = (state[t] - q[t]) / low[t, t]
            state[t + 1 : b1] -= np.outer(low[t + 1 : b1, t], errs[t - b0])
        if b1 < n_in:
            state[b1:] -= low[b1:, b0:b1] @ errs
    return q


# ---------------------------------------------------------------------------
# shared helpers


def _as_column(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ShapeError(f"expected a non-empty 1-D weight column, got shape {w.shape}")
    return w.copy()


def _check_moment_pair(h, g, n):
    h = np.asarray(h, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if h.shape != (n, n) or g.shape != (n, n):
        raise ShapeError(f"moment matrices must be {(n, n)}, got H {h.shape} and G {g.shape}")
    return h, g


def _check_grids(grids, n_out):
    if len(grids) != n_out:
        raise ShapeError(f"got {len(grids)} grids for {n_out} output columns")


def _grid_arrays(grids):
    steps = np.array([g.step_size for g in grids])
    zeros = np.array([g.zero_point for g in grids])
    levels = np.array([float(g.levels) for g in grids])
    return steps, zeros, levels
