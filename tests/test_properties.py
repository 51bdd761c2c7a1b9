"""Property tests through the layer and the CLI: every input ends in a
result, a documented exception or a documented exit code.

The draws reach the inputs the hand-written tests name one at a time:
NaN and inf cells, H = 0, fewer calibration rows than features,
asymmetric H, weights that do not match the stats, and activations
scaled toward float64's ends.  An uncaught NumPy, SciPy or ARPACK error
fails the test.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from qronos import (
    CalibStats,
    ConvergenceError,
    DampingPolicy,
    LayerQuantRequest,
    METHODS,
    NonFiniteInputError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SUITE_NAMES,
    ShapeError,
    grid_from_minmax,
    layer_stats,
    quantize_layer,
    write_qmx,
)
from qronos.cli import main
from qronos.linalg import DAMPING_MODES

DOCUMENTED = (ShapeError, NonFiniteInputError, NotSymmetricError, NotPositiveDefiniteError, ConvergenceError)
FAULTS = ("none", "nan", "inf", "zero_h", "asymmetric_h", "short_weights", "other_weights")
SCALES = (1.0, 1e-160, 1e160, 1e300)


def _documented(exc):
    """A documented exception: one of the package's types, or a plain
    ValueError (numpy.linalg.LinAlgError subclasses ValueError)."""
    return isinstance(exc, DOCUMENTED) or type(exc) is ValueError


def _activations(rng, m, n, scale):
    x = rng.standard_normal((m, n)) * scale
    return x, x + 0.1 * scale * rng.standard_normal((m, n))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 12),
    n_out=st.integers(1, 3),
    rows=st.integers(1, 24),
    method=st.sampled_from(METHODS),
    mode=st.sampled_from(DAMPING_MODES),
    order=st.sampled_from(("diag", "natural")),
    fault=st.sampled_from(FAULTS),
    scale=st.sampled_from(SCALES),
    seed=st.integers(0, 2**16),
)
def test_layer_ends_in_a_result_or_a_documented_error(n, n_out, rows, method, mode, order, fault, scale, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, n_out))
    grid = grid_from_minmax(w, 4)
    try:
        x, xq = _activations(rng, rows, n, scale)
        stats = layer_stats(method, w, x, xq)
        if fault in ("nan", "inf", "zero_h", "asymmetric_h"):
            h = stats.H.copy()
            i, j = rng.integers(0, n, size=2)
            if fault == "zero_h":
                h[:] = 0.0
            elif fault == "asymmetric_h":
                h[i, j] += 1e-3 * (1.0 + abs(h[i, j])) if i != j else 0.0
            else:
                h[i, j] = np.nan if fault == "nan" else np.inf
            cross = stats.G if stats.G is not stats.H else h
            stats = CalibStats(n, H=h, G=cross, GW=stats.GW, W=stats.W)
        if fault == "short_weights":
            w = w[:-1] if n > 1 else np.ones((2, n_out))
        elif fault == "other_weights":
            w = w + 1.0
        req = LayerQuantRequest(w, grid, method, stats, DampingPolicy(mode), order)
        q, report = quantize_layer(req)
    except (ValueError, ArithmeticError, RuntimeError) as exc:  # the documented types' bases
        assert _documented(exc), repr(exc)
        return
    assert q.shape == w.shape and np.isfinite(q).all()
    assert len(report.objectives) == n_out


@np.errstate(all="ignore")  # moments of activations near float64's top overflow
def _cli_files(tmp, rng, n, n_out, rows, fault, scale, stats_route):
    """Write the run's input files under tmp; return the flags naming them."""
    w = rng.standard_normal((n, n_out))
    x, xq = _activations(rng, rows, n, scale)
    if stats_route:
        h, g = xq.T @ xq, xq.T @ x
    target = {"nan_w": w, "inf_w": w}.get(fault, h if stats_route else x if fault == "nan" else xq)
    if fault in ("nan", "inf", "nan_w", "inf_w"):
        target[rng.integers(0, target.shape[0]), rng.integers(0, target.shape[1])] = (
            np.nan if fault.startswith("nan") else np.inf)
    elif fault == "zero_h" and stats_route:
        h[:] = 0.0
    elif fault == "zero_h":
        xq[:] = 0.0
    elif fault == "asymmetric_h" and stats_route and n > 1:
        h[0, 1] += 1e-3 * (1.0 + abs(h[0, 1]))
    elif fault == "short_weights":
        w = w[:-1] if n > 1 else np.ones((2, n_out))
    write_qmx(tmp / "w.qmx", w)
    if stats_route:
        write_qmx(tmp / "h.qmx", h)
        write_qmx(tmp / "g.qmx", g)
        return ["--stats-h", tmp / "h.qmx", "--stats-g", tmp / "g.qmx"]
    write_qmx(tmp / "x.qmx", x)
    write_qmx(tmp / "xq.qmx", xq)
    return ["--calib-x", tmp / "x.qmx", "--calib-xt", tmp / "xq.qmx"]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 12),
    n_out=st.integers(1, 3),
    rows=st.integers(1, 24),
    method=st.sampled_from(METHODS),
    damping=st.sampled_from((None, "meandiag", "topsv", "none")),
    levels=st.sampled_from(("2", "3", "16")),
    symmetric=st.booleans(),
    fault=st.sampled_from(("none", "nan", "inf", "nan_w", "inf_w", "zero_h", "asymmetric_h", "short_weights")),
    scale=st.sampled_from(SCALES),
    stats_route=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_cli_quantize_ends_in_a_documented_exit_code(n, n_out, rows, method, damping, levels, symmetric, fault,
                                                     scale, stats_route, seed):
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        argv = ["quantize", "--weights", tmp / "w.qmx", "--out", tmp / "q.qmx", "--report", tmp / "r.json",
                "--method", method.replace("_", "-"), "--levels", levels,
                *_cli_files(tmp, rng, n, n_out, rows, fault, scale, stats_route)]
        argv += ["--damping", damping] if damping else []
        argv += ["--symmetric"] if symmetric else []
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([str(a) for a in argv])
        assert code in (0, 2, 3, 4, 5)
        assert (tmp / "q.qmx").exists() == (code == 0)


@settings(max_examples=100, deadline=None)
@given(
    suite=st.one_of(st.none(), st.sampled_from((*SUITE_NAMES, "all"))),
    trials=st.integers(0, 3),  # the default counts take seconds a suite
    tol=st.one_of(st.none(), st.floats()),
    seed=st.one_of(st.none(), st.integers(-2, 2**64)),
    out=st.booleans(),
)
def test_cli_verify_ends_in_a_documented_exit_code(suite, trials, tol, seed, out):
    """Any suite, tolerance (NaN and infinities included) and seed ends in
    a pass, a usage error or a suite failure, with a report unless the
    flags were refused."""
    flags = {"--suite": suite, "--trials": trials, "--tol": tol, "--seed": seed}
    # "--flag=value" so that a value such as -inf is not taken for a flag
    argv = ["verify", *(f"{k}={v}" for k, v in flags.items() if v is not None)]
    with tempfile.TemporaryDirectory() as d:
        argv += ["--out", str(Path(d) / "r.json")] if out else []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 6)
        assert (Path(d) / "r.json").exists() == (out and code != 2)
