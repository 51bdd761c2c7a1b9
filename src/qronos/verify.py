"""Numerical certification suites for the rounding identities.

Each suite draws seeded random instances and checks one equivalence the
engine relies on, comparing independent computation paths: the direct
and efficient error-corrected forms, the Cholesky and least-squares
greedy forms, moment-space versus pseudoinverse first steps, inverse
slicing identities, residual orthogonality, and literal enumeration
optima.  Quantized values must match exactly (they are grid points, so
agreement is bit equality); real-valued states match in relative norm.

The default instance family: input dim n cycles over {4, 8, 16, 32}
with 8n calibration rows, level counts cycle over {3, 4, 16}, the
quantized-path activations are the reference ones plus 10 percent
Gaussian noise, and no damping is applied unless a suite says so.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import oracle as _oracle
from .calib import CalibStats, accumulate
from .grid import grid_from_minmax, quantize_rtn
from .linalg import DampingPolicy, spd_inverse, cholesky_lower, inverse_hessian_step
from .rounding import (
    LayerQuantRequest,
    chol_of_inverse,
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


def _instance(rng, n, m, levels, noise=0.1, identical=False):
    x = rng.standard_normal((m, n))
    xq = x if identical else x + noise * rng.standard_normal((m, n))
    w = rng.standard_normal(n)
    grid = grid_from_minmax(w, levels, 1.0)
    return x, xq, w, grid


def _cycle(i):
    return _DIMS[i % len(_DIMS)], _LEVELS[(i // len(_DIMS)) % len(_LEVELS)]


def _rel_dev(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-300)
    return float(np.linalg.norm(a - b)) / scale


def _states_dev(sa, sb):
    if len(sa) != len(sb):
        return np.inf
    return max((_rel_dev(a, b) for a, b in zip(sa, sb)), default=0.0)


def suite_theorem1(trials: int = 200, tol: float = 1e-8, seed: int = 0) -> SuiteResult:
    """Direct and efficient error-corrected forms produce one trajectory."""
    rng = np.random.default_rng(seed)
    failures = 0
    max_dev = 0.0
    for i in range(trials):
        n, levels = _cycle(i)
        x, xq, w, grid = _instance(rng, n, 8 * n, levels)
        h = xq.T @ xq
        g = xq.T @ x
        base = quantize_qronos_base_column(w, h, g, grid, record_trace=True)
        eff = quantize_qronos_column(w, h, g, chol_of_inverse(h), grid, record_trace=True)
        dev = _states_dev(base.w_states, eff.w_states)
        max_dev = max(max_dev, dev)
        if not np.array_equal(base.q, eff.q) or dev > tol:
            failures += 1
    return SuiteResult("theorem1", trials, failures, max_dev, tol)


def _optq_one_step_ls_column(w, x, grid):
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
    return q, states


def suite_lemma1(trials: int = 200, tol: float = 1e-8, seed: int = 0) -> SuiteResult:
    """Cholesky-form greedy rounding equals its least-squares form."""
    rng = np.random.default_rng(seed)
    failures = 0
    max_dev = 0.0
    for i in range(trials):
        n, levels = _cycle(i)
        x, _, w, grid = _instance(rng, n, 8 * n, levels, identical=True)
        chol = chol_of_inverse(x.T @ x)
        fast = quantize_optq_column(w, chol, grid, record_trace=True)
        q_ls, states_ls = _optq_one_step_ls_column(w, x, grid)
        dev = _states_dev(fast.w_states, states_ls)
        max_dev = max(max_dev, dev)
        if not np.array_equal(fast.q, q_ls) or dev > tol:
            failures += 1
    return SuiteResult("lemma1", trials, failures, max_dev, tol)


def suite_corollary1(trials: int = 100, tol: float = 1e-8, seed: int = 0) -> SuiteResult:
    """Cholesky-form greedy rounding equals the cumulative argmin trajectory."""
    rng = np.random.default_rng(seed)
    failures = 0
    max_dev = 0.0
    for i in range(trials):
        n, levels = _cycle(i)
        x, _, w, grid = _instance(rng, n, 8 * n, levels, identical=True)
        chol = chol_of_inverse(x.T @ x)
        fast = quantize_optq_column(w, chol, grid, record_trace=True)
        ref = quantize_optq_column_ref(w, x, grid, record_trace=True)
        dev = _states_dev(fast.w_states, ref.w_states)
        max_dev = max(max_dev, dev)
        if not np.array_equal(fast.q, ref.q) or dev > tol:
            failures += 1
    return SuiteResult("corollary1", trials, failures, max_dev, tol)


def suite_prop_first_step(trials: int = 100, tol: float = 1e-8, seed: int = 0) -> SuiteResult:
    """Moment-space first step equals the pseudoinverse first step."""
    rng = np.random.default_rng(seed)
    failures = 0
    max_dev = 0.0
    for i in range(trials):
        n, levels = _cycle(i)
        x, xq, w, grid = _instance(rng, n, 8 * n, levels)
        h = xq.T @ xq
        g = xq.T @ x
        q1_pinv, tail_pinv = _oracle.first_step_pinv(w, x, xq, grid)
        eff = quantize_qronos_column(w, h, g, chol_of_inverse(h), grid, record_trace=True)
        base = quantize_qronos_base_column(w, h, g, grid, record_trace=True)
        for tr in (eff, base):
            dev = _rel_dev(tr.w_states[1], tail_pinv)
            max_dev = max(max_dev, dev)
            if tr.q[0] != q1_pinv or dev > tol:
                failures += 1
                break
    return SuiteResult("propE2", trials, failures, max_dev, tol)


def suite_lemma_chol(trials: int = 100, tol: float = 1e-8, seed: int = 0) -> SuiteResult:
    """Inverse slicing identities against independently computed inverses.

    Checks both the one-index inverse update chain and the identity
    between trailing-inverse column ratios and Cholesky columns of the
    full inverse.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    max_dev = 0.0
    for i in range(trials):
        n = _DIMS[i % len(_DIMS)]
        a = rng.standard_normal((2 * n, n))
        h = a.T @ a
        low = cholesky_lower(spd_inverse(h)).L
        ok = True
        cur = spd_inverse(h)
        for t in range(n - 1):
            direct_next = spd_inverse(h[t + 1 :, t + 1 :])
            cur = inverse_hessian_step(cur)
            dev = _rel_dev(cur, direct_next)
            max_dev = max(max_dev, dev)
            if dev > tol:
                ok = False
            trailing_inv = spd_inverse(h[t:, t:])
            ratio = trailing_inv[1:, 0] / trailing_inv[0, 0]
            dev2 = _rel_dev(ratio, low[t + 1 :, t] / low[t, t])
            max_dev = max(max_dev, dev2)
            if dev2 > tol:
                ok = False
        if not ok:
            failures += 1
    return SuiteResult("lemmaC", trials, failures, max_dev, tol)


def suite_orthogonality(trials: int = 50, tol: float = 1e-7, seed: int = 0) -> SuiteResult:
    """After each correction step the residual is orthogonal to the
    surviving quantized-path columns (no damping)."""
    rng = np.random.default_rng(seed)
    failures = 0
    max_dev = 0.0
    for i in range(trials):
        n, levels = _cycle(i)
        x, xq, w, grid = _instance(rng, n, 8 * n, levels)
        h = xq.T @ xq
        g = xq.T @ x
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
        max_dev = max(max_dev, worst)
        if worst > tol:
            failures += 1
    return SuiteResult("orthogonality", trials, failures, max_dev, tol)


def _replay_step_residuals(kind, w, q, w_states, x, xq):
    """Yield (residual, column, emitted) triples for each greedy step."""
    n = w.size
    target_full = x @ w
    for t in range(n):
        if kind in ("optq", "optq_ref"):
            # one activation set: the reference path plays both roles
            tail = w_states[t][1:] if w_states is not None else w[t + 1 :]
            resid = target_full - x[:, :t] @ q[:t] - x[:, t + 1 :] @ tail
            yield resid, x[:, t], q[t]
        elif kind == "gpfq":
            u_prev = x[:, :t] @ w[:t] - xq[:, :t] @ q[:t]
            yield u_prev + w[t] * x[:, t], xq[:, t], q[t]
        else:
            tail = w_states[t][1:]
            resid = target_full - xq[:, :t] @ q[:t] - xq[:, t + 1 :] @ tail
            yield resid, xq[:, t], q[t]


def suite_oracle(trials: int = 500, tol: float = 1e-12, seed: int = 0) -> SuiteResult:
    """Enumeration dominance and per-step argmin agreement.

    Small instances (n = 4, 4 levels) so the global integer least
    squares problem enumerates fully.  Every greedy method must be
    dominated by the global optimum and must match the per-step argmin
    either by value or by objective within the tie tolerance.
    """
    rng = np.random.default_rng(seed)
    n, levels, m = 4, 4, 32
    failures = 0
    max_dev = 0.0
    agree = 0
    steps_total = 0
    for _ in range(trials):
        x, xq, w, grid = _instance(rng, n, m, levels)
        h = xq.T @ xq
        g = xq.T @ x
        chol = chol_of_inverse(h)
        chol_x = chol_of_inverse(x.T @ x)
        best_q, best_obj = _oracle.brute_force_ils(w, x, xq, grid)
        target = x @ w
        runs = {
            "optq": quantize_optq_column(w, chol_x, grid, record_trace=True),
            "optq_ref": quantize_optq_column_ref(w, x, grid, record_trace=True),
            "gpfq": quantize_gpfq_column(w, x, xq, grid, record_trace=True),
            "qronos_base": quantize_qronos_base_column(w, h, g, grid, record_trace=True),
            "qronos": quantize_qronos_column(w, h, g, chol, grid, record_trace=True),
        }
        ok = True
        for kind, tr in runs.items():
            resid = target - xq @ tr.q
            obj = 0.5 * float(resid @ resid)
            slack = best_obj - obj
            max_dev = max(max_dev, slack)
            if slack > tol * max(1.0, best_obj):
                ok = False  # the "global optimum" lost to a greedy method
            for resid_t, col, emitted in _replay_step_residuals(
                kind, w, tr.q, tr.w_states, x, xq
            ):
                steps_total += 1
                val, obj_star = _oracle.stepwise_argmin_oracle(resid_t, col, grid)
                if emitted == val:
                    agree += 1
                    continue
                gap = _oracle.step_objective(resid_t, col, emitted) - obj_star
                if gap <= _oracle.TIE_TOL * max(1.0, obj_star):
                    agree += 1
                else:
                    ok = False
        if not ok:
            failures += 1
    return SuiteResult(
        "oracle",
        trials,
        failures,
        max_dev,
        tol,
        detail={"steps_checked": steps_total, "steps_agreeing": agree},
    )


def suite_collapse(trials: int = 100, seed: int = 0) -> SuiteResult:
    """With identical activation paths and a shared ridge, the
    error-corrected method returns exactly the optq output."""
    rng = np.random.default_rng(seed)
    failures = 0
    max_dev = 0.0
    for i in range(trials):
        n, levels = _cycle(i)
        m = 8 * n
        n_out = max(2, n // 2)
        x = rng.standard_normal((m, n))
        w = rng.standard_normal((n, n_out))
        grids = [grid_from_minmax(w[:, j], levels, 1.0) for j in range(n_out)]
        stats = accumulate(CalibStats(n), x, x)
        policy = DampingPolicy("mean_diag_percent")
        q_a, _ = quantize_layer(
            LayerQuantRequest(weights=w, grids=grids, method="qronos", stats=stats, damping=policy)
        )
        q_b, _ = quantize_layer(
            LayerQuantRequest(weights=w, grids=grids, method="optq", stats=stats, damping=policy)
        )
        dev = float(np.abs(q_a - q_b).max()) if q_a.size else 0.0
        max_dev = max(max_dev, dev)
        if not np.array_equal(q_a, q_b):
            failures += 1
    return SuiteResult("collapse", trials, failures, max_dev, 0.0)


_DEFAULTS = {
    "theorem1": (suite_theorem1, 200, 1e-8),
    "lemma1": (suite_lemma1, 200, 1e-8),
    "corollary1": (suite_corollary1, 100, 1e-8),
    "propE2": (suite_prop_first_step, 100, 1e-8),
    "lemmaC": (suite_lemma_chol, 100, 1e-8),
    "orthogonality": (suite_orthogonality, 50, 1e-7),
    "oracle": (suite_oracle, 500, 1e-12),
}
SUITE_NAMES = tuple(_DEFAULTS)


def run_suite(name: str, trials: int | None = None, tol: float | None = None, seed: int = 0) -> SuiteResult:
    if name not in _DEFAULTS:
        raise ValueError(f"unknown suite {name!r} (expected one of {SUITE_NAMES})")
    fn, default_trials, default_tol = _DEFAULTS[name]
    return fn(
        trials=default_trials if trials is None else trials,
        tol=default_tol if tol is None else tol,
        seed=seed,
    )
