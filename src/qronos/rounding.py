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
G.  The layer driver therefore resolves the ridge lambda once, on the
caller's undamped H, and adds it to the diagonal of its permuted copy of
H and to the cross term, as if sqrt(lambda) I were appended to both
activation sets as phantom calibration rows.  The caller's matrices are
never written.

Only gpfq reads G's entries.  qronos and qronos_base read G through the
product G W alone, and so does the moment objective, so the layer driver
holds the cross term as one n x n_out array, (G W)[perm] + lambda W[perm],
formed once: from the stats' GW when calibration folded Xq^T (X W)
directly (``calib.accumulate`` picks that association from the shape),
else as one product G @ W.  H is checked for finiteness and symmetry
once, at the layer's entry, and the damping and factor calls skip their
own scans.

The layer driver runs all output channels of a weight matrix at once,
step-synchronously, after applying the calib ordering.  The diffusion
sweep shared by optq and steps t >= 2 of qronos is blocked (the lazy
batch update of GPTQ): rank-1 updates touch only the rows of the
current block of SWEEP_BLOCK steps, the block's scaled errors are kept,
and the rows below the block receive them in one matrix product when
the block ends.  The per-column entry points are that same driver on
one channel (n_out = 1).  Either can record full per-step traces for
verification; a recorded state brings the rows below the block up to
date on the side, so recording never changes q.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import calib as _calib
from . import grid as _grid
from .errors import NotPositiveDefiniteError, ShapeError
from .linalg import (
    CholeskyFactor,
    DampingPolicy,
    apply_damping,
    check_finite,
    check_symmetric,
    chol_of_inverse,
    solve_spd,
)


@dataclass(frozen=True)
class MethodSpec:
    """One method's defaults.

    ``damping`` is the ridge used when the caller names none;
    ``two_path`` methods calibrate on the (reference, quantized-path)
    pair, the others on the reference activations alone; ``benchmarkable``
    methods run in the runtime ladder; ``reads_g`` methods read the
    entries of the cross moment G, the others only G W, so only their
    stats must hold G itself.
    """

    damping: DampingPolicy
    two_path: bool
    benchmarkable: bool
    reads_g: bool = False


# optq traditionally damps by mean diagonal, the error-corrected methods
# by a small fraction of the spectral norm
_TOPSV = DampingPolicy("top_singular_fraction", alpha=1e-6)
METHOD_SPECS = {
    "rtn": MethodSpec(DampingPolicy("none"), two_path=False, benchmarkable=False),
    "optq": MethodSpec(DampingPolicy("mean_diag_percent"), two_path=False, benchmarkable=True),
    "optq_ref": MethodSpec(DampingPolicy("mean_diag_percent"), two_path=False, benchmarkable=False),
    "gpfq": MethodSpec(DampingPolicy("none"), two_path=True, benchmarkable=True, reads_g=True),
    "qronos_base": MethodSpec(_TOPSV, two_path=True, benchmarkable=True),
    "qronos": MethodSpec(_TOPSV, two_path=True, benchmarkable=True),
}
METHODS = tuple(METHOD_SPECS)
ORDER_MODES = ("diag", "natural")
# diffusion steps per block of the layer sweep; rows below a block are
# updated once per block by a matrix product
SWEEP_BLOCK = 128
# LayerReport.timings keys, in the order the layer runs them; "permute"
# also forms the cross term, G @ W included when the stats hold G
PHASES = ("check", "damping", "permute", "factor", "first_step", "sweep", "unpermute", "objective")


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
# per-column entry points


def quantize_rtn_layer(w: np.ndarray, grids) -> np.ndarray:
    """Independent round-to-nearest of every entry, column grids."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"expected a 2-D weight matrix, got shape {w.shape}")
    _check_grids(grids, w.shape[1])
    return _grid.row_rounder(grids)(w)


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
    return _round_column("optq", w, grid, record_trace, chol=chol)


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
    h: np.ndarray,
    g: np.ndarray,
    grid: _grid.QuantGrid,
    record_trace: bool = False,
) -> RoundingTrace:
    """Direct-evaluation error-corrected rounding on a moment pair.

    Every step re-solves the trailing normal equations from scratch; a
    non-positive-definite trailing block raises, naming its 1-based
    pivot in the column's order.
    """
    return _round_column("qronos_base", w, grid, record_trace, h, g)


def quantize_qronos_column(
    w: np.ndarray,
    h: np.ndarray,
    g: np.ndarray,
    chol: CholeskyFactor,
    grid: _grid.QuantGrid,
    record_trace: bool = False,
) -> RoundingTrace:
    """Efficient form of the error-corrected iterates.

    Step 1 interpolates the unquantized column through the trailing
    block of ``chol`` (the factor of the inverse of h); afterwards the
    trajectory is the optq-style diffusion on the corrected state.
    """
    return _round_column("qronos", w, grid, record_trace, h, g, chol)


# ---------------------------------------------------------------------------
# layer driver


@dataclass
class LayerQuantRequest:
    """Everything needed to quantize one weight matrix.

    ``weights`` is (n_in, n_out); ``grids`` one QuantGrid per output
    column.  ``stats`` supplies the moment pair: for one-path methods
    (optq family) its H must be built from the reference activations
    alone, for two-path ones (``METHOD_SPECS``) from the pair.  Its
    cross moment may be G, or G W for these same weights unless the
    method reads G's entries (gpfq).  The
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
    # wall-clock seconds per phase, keyed by PHASES
    timings: dict[str, float] = field(default_factory=dict)


def quantize_layer(
    req: LayerQuantRequest,
    x: np.ndarray | None = None,
    xq: np.ndarray | None = None,
) -> tuple[np.ndarray, LayerReport]:
    """Quantize all output channels of one layer.

    Raw activations are optional and only used (a) by optq_ref, which
    has no moment-space form, and (b) to report residual objectives
    instead of the moment-space surrogate.  Warnings and a
    NotPositiveDefiniteError name the caller's feature, not the
    processing step.
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
    timings = dict.fromkeys(PHASES, 0.0)
    clock = time.perf_counter
    gw = None

    if req.method == "rtn":
        t0 = clock()
        q = quantize_rtn_layer(w, req.grids)
        timings["sweep"] = clock() - t0
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
        reads_g = METHOD_SPECS[req.method].reads_g
        if stats.GW is not None:
            if reads_g:
                raise ValueError(f"method {req.method!r} reads the entries of G; these stats hold only G W")
            if stats.GW.shape != w.shape or not np.array_equal(stats.W, w):
                raise ValueError("these stats hold G W for other weights")
        elif stats.G is None:
            raise ValueError("these stats hold no cross moment")

        t0 = clock()
        # the one finiteness and symmetry scan of H: the sweeps would carry
        # a NaN or inf into q without raising, and the damping and factor
        # calls below skip their own scans
        check_symmetric(stats.H, "H")
        if stats.GW is not None:
            check_finite(stats.GW, "GW")
        elif stats.G is not stats.H:
            check_finite(stats.G, "G")
        t1 = clock()
        lam = apply_damping(stats.H, req.damping, checked=True)
        t2 = clock()
        # the ridge shifts every diagonal entry equally, so ordering from the
        # undamped diagonal is the same permutation
        order = _calib.order_by_diag(stats.H) if req.order == "diag" else _calib.natural_order(n_in)
        ix = np.ix_(order.perm, order.perm)
        hp = stats.H[ix]
        wp = _calib.permute_weights(w, order)
        gp = gwp = None
        if reads_g:
            gp = stats.G[ix]
        if req.method in ("qronos", "qronos_base") or x is None:
            gw = stats.GW if stats.GW is not None else stats.G @ w
        if req.method in ("qronos", "qronos_base"):
            gwp = gw[order.perm]
        if lam:
            # the one place the ridge is added; a permutation keeps the
            # diagonal on the diagonal
            hp.flat[:: n_in + 1] += lam
            if gp is not None:
                gp.flat[:: n_in + 1] += lam
            if gwp is not None:
                gwp += lam * wp
        t3 = clock()
        timings.update(check=t1 - t0, damping=t2 - t1, permute=t3 - t2)
        if req.method == "optq_ref":
            xp = x[:, order.perm]
            traces = [
                quantize_optq_column_ref(wp[:, j], xp, req.grids[j], lam, req.record_trace)
                for j in range(n_out)
            ]
            qp = np.stack([tr.q for tr in traces], axis=1)
            traces = traces if req.record_trace else None
            timings["sweep"] = clock() - t3
        else:
            if req.method == "gpfq":
                for t in np.flatnonzero(np.diag(hp) <= 0.0):
                    feature = int(order.perm[t])
                    warnings.warn(
                        f"quantized-path column {feature} has zero norm; falling back to RTN for that step",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    report_warnings.append(f"gpfq: zero-norm quantized-path column {feature}, RTN fallback")
            try:
                low = chol_of_inverse(hp, checked=True).L if req.method in ("optq", "qronos") else None
                timings["factor"] = clock() - t3
                qp, traces = _round_columns(
                    req.method, wp, req.grids, hp, gp, gwp, low, req.record_trace, timings
                )
            except NotPositiveDefiniteError as exc:
                feature = int(order.perm[exc.index - 1]) + 1
                raise NotPositiveDefiniteError(
                    feature, f"H is not positive definite (failing pivot at feature {feature}, 1-based)"
                ) from None
        t0 = clock()
        q = _calib.unpermute_result(qp, order)
        timings["unpermute"] = clock() - t0

    t0 = clock()
    if x is not None:
        xq_eff = xq if xq is not None else x
        resid = x @ w - xq_eff @ q
        objectives = 0.5 * np.einsum("ij,ij->j", resid, resid)
        objective_form = "residual"
    elif req.method != "rtn":
        # 0.5 q^T (H + lam I) q - q^T G w on the caller's undamped pair
        qhq = np.einsum("ij,ij->j", q, stats.H @ q) + lam * np.einsum("ij,ij->j", q, q)
        objectives = 0.5 * qhq - np.einsum("ij,ij->j", q, gw)
        objective_form = "moment_quadratic"
    else:
        objectives = np.full(n_out, np.nan)
        objective_form = "unavailable"
    timings["objective"] = clock() - t0

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
        timings=timings,
    )
    return q, report


def _round_columns(method, wp, grids, hp=None, gp=None, gwp=None, low=None, record=False, timings=None):
    """Round every column of ``wp`` (n, n_out), step-synchronously.

    One loop per method family: gpfq reads each step off the moment pair
    (hp, gp) and rounds w_t itself where hp[t, t] is zero, qronos_base
    re-solves the trailing normal equations at every step, and optq and
    the steps t >= 2 of qronos share the diffusion sweep on ``low``,
    blocked by SWEEP_BLOCK steps.  ``gwp`` is the cross term gp @ wp
    that qronos and qronos_base read.  Returns q and, with ``record``,
    one RoundingTrace per column (else None); ``timings`` receives the
    seconds of qronos's first step and of the sweep.  A recorded state
    brings the rows below the current block up to date on the side, so
    recording never changes q.  A NotPositiveDefiniteError names its
    1-based pivot in processing order.
    """
    n, n_out = wp.shape
    timings = {} if timings is None else timings
    t0 = time.perf_counter()
    rtn = _grid.row_rounder(grids)
    q = np.empty_like(wp)
    # states[k] holds rows k: after step k - 1; moves[k - 1] the step's move
    states = [wp] if record else None
    moves = [] if record and method != "gpfq" else None

    if method == "gpfq":
        for t in range(n):
            if hp[t, t] > 0.0:
                num = gp[t, : t + 1] @ wp[: t + 1] - hp[t, :t] @ q[:t]
                q[t] = rtn(num / hp[t, t])
            else:
                q[t] = rtn(wp[t])
            if record and t + 1 < n:
                states.append(wp[t + 1 :])
    elif method == "qronos_base":
        state = wp.copy()
        for t in range(n):
            num = gwp[t] - hp[t, :t] @ q[:t] - hp[t, t + 1 :] @ state[t + 1 :]
            q[t] = rtn(num / hp[t, t])
            if t + 1 < n:
                rhs = gwp[t + 1 :] - hp[t + 1 :, : t + 1] @ q[: t + 1]
                try:
                    # hp was checked whole; its trailing blocks need no scan
                    tail = solve_spd(hp[t + 1 :, t + 1 :], rhs, checked=True)
                except NotPositiveDefiniteError as exc:
                    raise NotPositiveDefiniteError(t + 1 + exc.index) from None
                if record:
                    states.append(tail)
                    moves.append(tail - state[t + 1 :])
                state[t + 1 :] = tail
    else:
        state = wp.copy()
        start = 0
        if method == "qronos":
            # step 1 interpolates through the trailing block of the factor
            num = gwp[0] - hp[0, 1:] @ wp[1:]
            q[0] = rtn(num / hp[0, 0])
            if n > 1:
                tail = low[1:, 1:] @ (low[1:, 1:].T @ (gwp[1:] - hp[1:, :1] * q[0]))
                if record:
                    states.append(tail)
                    moves.append(tail - state[1:])
                state[1:] = tail
            start = 1
            t1 = time.perf_counter()
            timings["first_step"] = t1 - t0
            t0 = t1
        for b0 in range(start, n, SWEEP_BLOCK):
            b1 = min(b0 + SWEEP_BLOCK, n)
            # the block's scaled errors, negated: each has its move's sign
            errs = np.empty((b1 - b0, n_out))
            for t in range(b0, b1):
                q[t] = rtn(state[t])
                errs[t - b0] = (q[t] - state[t]) / low[t, t]
                if not record:
                    state[t + 1 : b1] += low[t + 1 : b1, t, None] * errs[t - b0]
                elif t + 1 < n:
                    move = low[t + 1 :, t, None] * errs[t - b0]
                    state[t + 1 : b1] += move[: b1 - t - 1]
                    tail = state[t + 1 :].copy()
                    if b1 < n:
                        tail[b1 - t - 1 :] += low[b1:, b0 : t + 1] @ errs[: t + 1 - b0]
                    states.append(tail)
                    moves.append(move)
            if b1 < n:
                state[b1:] += low[b1:, b0:b1] @ errs
    timings["sweep"] = time.perf_counter() - t0

    if not record:
        return q, None
    return q, [
        RoundingTrace(
            q=q[:, j],
            w_states=[s[:, j] for s in states],
            deltas=None if moves is None else [m[:, j] for m in moves],
        )
        for j in range(n_out)
    ]


def _round_column(method, w, grid, record_trace, h=None, g=None, chol=None) -> RoundingTrace:
    """One column through the layer driver (n_out = 1), after shape checks."""
    w = _as_column(w)
    n = w.size
    if h is not None:
        h = np.asarray(h, dtype=np.float64)
        g = np.asarray(g, dtype=np.float64)
        if h.shape != (n, n) or g.shape != (n, n):
            raise ShapeError(f"moment matrices must be {(n, n)}, got H {h.shape} and G {g.shape}")
        # the driver's trailing solves trust h, as they do the layer's checked copy
        check_symmetric(h, "H")
    if chol is not None and chol.dim != n:
        raise ShapeError(f"factor dim {chol.dim} does not match column length {n}")
    low = None if chol is None else chol.L
    wp = w[:, None]
    gwp = None if g is None else g @ wp
    q, traces = _round_columns(method, wp, [grid], h, None, gwp, low, record_trace)
    return traces[0] if record_trace else RoundingTrace(q=q[:, 0])


# ---------------------------------------------------------------------------
# shared helpers


def _as_column(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ShapeError(f"expected a non-empty 1-D weight column, got shape {w.shape}")
    return w.copy()


def _check_grids(grids, n_out):
    if len(grids) != n_out:
        raise ShapeError(f"got {len(grids)} grids for {n_out} output columns")
