"""Numerical certification suites for the rounding identities.

Each suite draws seeded random instances and checks one equivalence the
engine relies on, comparing independent computation paths: the direct
and efficient error-corrected forms, the Cholesky and least-squares
greedy forms, moment-space versus pseudoinverse first steps, inverse
slicing identities, residual orthogonality, and literal enumeration
optima.  Quantized values must match exactly (they are grid points, so
agreement is bit equality); real-valued states match in relative norm.

A suite is a per-trial check ``check(rng, i, tol, detail) -> (passed,
deviation)``, registered in ``_DEFAULTS`` with its default trial count
and tolerance; ``run_suite`` and ``suite_collapse`` run it in the one
seeded loop, which counts failed trials and keeps the largest deviation.

The default instance family: input dim n cycles over {4, 8, 16, 32}
with 8n calibration rows, level counts cycle over {3, 4, 16}, the
quantized-path activations are the reference ones plus 10 percent
Gaussian noise, and no damping is applied unless a suite says so.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import oracle as _oracle
from .calib import CalibStats, accumulate
from .grid import grid_from_minmax, quantize_rtn
from .linalg import DampingPolicy, spd_inverse, cholesky_lower, inverse_hessian_step
from .rounding import (
    LayerQuantRequest,
    RoundingTrace,
    quantize_layer,
    quantize_optq_column,
    quantize_optq_column_ref,
    quantize_qronos_base_column,
    quantize_qronos_column,
    quantize_gpfq_column,
)

_DIMS = (4, 8, 16, 32)
_LEVELS = (3, 4, 16)


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: int
    max_dev: float
    tol: float
    detail: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _instance(rng, n, m, levels, identical=False):
    x = rng.standard_normal((m, n))
    xq = x if identical else x + 0.1 * rng.standard_normal((m, n))
    w = rng.standard_normal(n)
    grid = grid_from_minmax(w, levels, 1.0)
    return x, xq, w, grid


def _cycle(i):
    return _DIMS[i % len(_DIMS)], _LEVELS[(i // len(_DIMS)) % len(_LEVELS)]


def _rel_dev(a, b):
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(a - b)) / scale


def _states_dev(sa, sb):
    if len(sa) != len(sb):
        return np.inf
    return max((_rel_dev(a, b) for a, b in zip(sa, sb)), default=0.0)


def _run(name, check, trials, tol, seed) -> SuiteResult:
    """The one seeded trial loop: count failed trials, keep the largest
    deviation.  ``check(rng, i, tol, detail)`` draws trial ``i`` from
    ``rng`` and returns (passed, deviation); it may add counts to
    ``detail``."""
    rng = np.random.default_rng(seed)
    failures = 0
    max_dev = 0.0
    detail: dict = {}
    for i in range(trials):
        passed, dev = check(rng, i, tol, detail)
        max_dev = max(max_dev, dev)
        if not passed:
            failures += 1
    return SuiteResult(name, trials, failures, max_dev, tol, detail)


def _pair_instance(rng, i):
    """Trial i's two-path instance with its moment pair (H, G)."""
    n, levels = _cycle(i)
    x, xq, w, grid = _instance(rng, n, 8 * n, levels)
    return x, xq, w, grid, xq.T @ xq, xq.T @ x


def _check_theorem1(rng, i, tol, detail):
    """Direct and efficient error-corrected forms produce one trajectory."""
    x, xq, w, grid, h, g = _pair_instance(rng, i)
    base = quantize_qronos_base_column(w, h, g, grid, record_trace=True)
    eff = quantize_qronos_column(w, h, g, grid, record_trace=True)
    dev = _states_dev(base.w_states, eff.w_states)
    return np.array_equal(base.q, eff.q) and dev <= tol, dev


def _one_step_ls_refits(w, x, grid):
    """Least-squares greedy form: each step refits by one projection."""
    state = np.array(w, dtype=np.float64)
    n = state.size
    q = np.empty(n)
    states = [state.copy()]
    for t in range(n):
        q[t] = quantize_rtn(state[t], grid)
        if t + 1 < n:
            coef = _oracle.direct_lstsq(x[:, t + 1 :], x[:, t])
            state[t + 1 :] -= (q[t] - state[t]) * coef
            states.append(state[t + 1 :].copy())
    return RoundingTrace(q=q, w_states=states)


# cumulative argmin form: each step re-solves the trailing least squares
_argmin_refits = partial(quantize_optq_column_ref, record_trace=True)


def _check_cholesky_sweep(reference, rng, i, tol, detail):
    """The Cholesky-form greedy sweep equals ``reference(w, x, grid)``, a
    least-squares form of the same trajectory, state by state."""
    n, levels = _cycle(i)
    x, _, w, grid = _instance(rng, n, 8 * n, levels, identical=True)
    fast = quantize_optq_column(w, x.T @ x, grid, record_trace=True)
    ref = reference(w, x, grid)
    dev = _states_dev(fast.w_states, ref.w_states)
    return np.array_equal(fast.q, ref.q) and dev <= tol, dev


def _check_first_step(rng, i, tol, detail):
    """Moment-space first step equals the pseudoinverse first step."""
    x, xq, w, grid, h, g = _pair_instance(rng, i)
    q1_pinv, tail_pinv = _oracle.first_step_pinv(w, x, xq, grid)
    eff = quantize_qronos_column(w, h, g, grid, record_trace=True)
    base = quantize_qronos_base_column(w, h, g, grid, record_trace=True)
    worst = 0.0
    for tr in (eff, base):
        dev = _rel_dev(tr.w_states[1], tail_pinv)
        worst = max(worst, dev)
        if tr.q[0] != q1_pinv or dev > tol:
            return False, worst
    return True, worst


def _check_inverse_slicing(rng, i, tol, detail):
    """Inverse slicing identities against independently computed inverses.

    Checks both the one-index inverse update chain and the identity
    between trailing-inverse column ratios and Cholesky columns of the
    full inverse.
    """
    n = _DIMS[i % len(_DIMS)]
    a = rng.standard_normal((2 * n, n))
    h = a.T @ a
    cur = spd_inverse(h)
    low = cholesky_lower(cur)
    worst = 0.0
    for t in range(n - 1):
        cur = inverse_hessian_step(cur)
        worst = max(worst, _rel_dev(cur, spd_inverse(h[t + 1 :, t + 1 :])))
        trailing_inv = spd_inverse(h[t:, t:])
        ratio = trailing_inv[1:, 0] / trailing_inv[0, 0]
        worst = max(worst, _rel_dev(ratio, low[t + 1 :, t] / low[t, t]))
    return worst <= tol, worst


def _check_orthogonality(rng, i, tol, detail):
    """After each correction step the residual is orthogonal to the
    surviving quantized-path columns (no damping)."""
    x, xq, w, grid, h, g = _pair_instance(rng, i)
    n = w.size
    tr = quantize_qronos_base_column(w, h, g, grid, record_trace=True)
    target = x @ w
    worst = 0.0
    for t in range(n - 1):
        tail = tr.w_states[t + 1]
        resid = target - xq[:, : t + 1] @ tr.q[: t + 1] - xq[:, t + 1 :] @ tail
        rnorm = float(np.linalg.norm(resid))
        for j in range(t + 1, n):
            col = xq[:, j]
            denom = max(rnorm * float(np.linalg.norm(col)), 1e-300)
            worst = max(worst, abs(float(resid @ col)) / denom)
    return worst <= tol, worst


def _replay_step_residuals(kind, w, q, w_states, x, xq):
    """Yield (residual, column, emitted) triples for each greedy step."""
    target_full = x @ w
    # the optq family reads one activation set: the reference path plays both roles
    a = x if kind in ("optq", "optq_ref") else xq
    for t in range(w.size):
        if kind == "gpfq":
            u_prev = x[:, :t] @ w[:t] - xq[:, :t] @ q[:t]
            yield u_prev + w[t] * x[:, t], xq[:, t], q[t]
        else:
            resid = target_full - a[:, :t] @ q[:t] - a[:, t + 1 :] @ w_states[t][1:]
            yield resid, a[:, t], q[t]


def _check_oracle(rng, i, tol, detail):
    """Enumeration dominance and per-step argmin agreement.

    Small instances (n = 4, 4 levels) so the global integer least
    squares problem enumerates fully.  Every greedy method must be
    dominated by the global optimum and must match the per-step argmin
    either by value or by objective within the tie tolerance; the steps
    checked and agreeing are counted into ``detail``.
    """
    x, xq, w, grid = _instance(rng, 4, 32, 4)
    h = xq.T @ xq
    g = xq.T @ x
    _, best_obj = _oracle.brute_force_ils(w, x, xq, grid)
    target = x @ w
    runs = {
        "optq": quantize_optq_column(w, x.T @ x, grid, record_trace=True),
        "optq_ref": quantize_optq_column_ref(w, x, grid, record_trace=True),
        "gpfq": quantize_gpfq_column(w, x, xq, grid, record_trace=True),
        "qronos_base": quantize_qronos_base_column(w, h, g, grid, record_trace=True),
        "qronos": quantize_qronos_column(w, h, g, grid, record_trace=True),
    }
    ok = True
    worst = 0.0
    steps = agree = 0
    for kind, tr in runs.items():
        resid = target - xq @ tr.q
        slack = best_obj - 0.5 * float(resid @ resid)
        worst = max(worst, slack)
        if slack > tol * max(1.0, best_obj):
            ok = False  # the "global optimum" lost to a greedy method
        for resid_t, col, emitted in _replay_step_residuals(kind, w, tr.q, tr.w_states, x, xq):
            val, obj_star = _oracle.stepwise_argmin_oracle(resid_t, col, grid)
            gap = 0.0 if emitted == val else _oracle.step_objective(resid_t, col, emitted) - obj_star
            steps += 1
            agree += gap <= _oracle.TIE_TOL * max(1.0, obj_star)
    detail["steps_checked"] = detail.get("steps_checked", 0) + steps
    detail["steps_agreeing"] = detail.get("steps_agreeing", 0) + agree
    return ok and agree == steps, worst


def _check_collapse(rng, i, tol, detail):
    n, levels = _cycle(i)
    n_out = max(2, n // 2)
    x = rng.standard_normal((8 * n, n))
    w = rng.standard_normal((n, n_out))
    grid = grid_from_minmax(w, levels, 1.0)
    stats = accumulate(CalibStats(n), x, x)
    policy = DampingPolicy("mean_diag_percent")
    q_a, _ = quantize_layer(
        LayerQuantRequest(weights=w, grids=grid, method="qronos", stats=stats, damping=policy)
    )
    q_b, _ = quantize_layer(
        LayerQuantRequest(weights=w, grids=grid, method="optq", stats=stats, damping=policy)
    )
    dev = float(np.abs(q_a - q_b).max()) if q_a.size else 0.0
    return np.array_equal(q_a, q_b), dev


def suite_collapse(trials: int = 100, seed: int = 0) -> SuiteResult:
    """With identical activation paths and a shared ridge, the
    error-corrected method returns exactly the optq output."""
    return _run("collapse", _check_collapse, trials, 0.0, seed)


# name -> (per-trial check, default trials, default tolerance)
_DEFAULTS = {
    "theorem1": (_check_theorem1, 200, 1e-8),
    "lemma1": (partial(_check_cholesky_sweep, _one_step_ls_refits), 200, 1e-8),
    "corollary1": (partial(_check_cholesky_sweep, _argmin_refits), 100, 1e-8),
    "propE2": (_check_first_step, 100, 1e-8),
    "lemmaC": (_check_inverse_slicing, 100, 1e-8),
    "orthogonality": (_check_orthogonality, 50, 1e-7),
    "oracle": (_check_oracle, 500, 1e-12),
}
SUITE_NAMES = tuple(_DEFAULTS)


def run_suite(name: str, trials: int | None = None, tol: float | None = None, seed: int = 0) -> SuiteResult:
    if name not in _DEFAULTS:
        raise ValueError(f"unknown suite {name!r} (expected one of {SUITE_NAMES})")
    check, default_trials, default_tol = _DEFAULTS[name]
    trials = default_trials if trials is None else trials
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    return _run(name, check, trials, default_tol if tol is None else tol, seed)
