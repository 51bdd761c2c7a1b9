"""Command line front end.

Four subcommands: quantize (one layer from matrix files), bench (the
runtime scaling ladder), verify (numerical certification suites) and
simulate (toy-network error propagation).  Reports are JSON with a
schema marker; wall-clock measurements live only under the "timing"
key so everything else is reproducible byte for byte.

Exit codes: 0 success, 2 usage, 3 file I/O, 4 shape mismatch (weights
with no output column or no row included), 5 numerical failure
(including a NaN or infinity in an input matrix, an asymmetric
--stats-h, a weights column whose grid step overflows float64, or a
ridge that does), 6 verification suite failure.  A report writes
every NaN or infinity as null, so strict JSON parsers read it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import bench as _bench
from . import calib as _calib
from . import grid as _grid
from . import netsim as _netsim
from . import qmx as _qmx
from . import rounding as _rounding
from . import verify as _verify
from .errors import (
    ConvergenceError,
    NonFiniteInputError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    ShapeError,
)
from .linalg import DampingPolicy, check_finite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SHAPE = 4
EXIT_NUMERICAL = 5
EXIT_VERIFY = 6

_DAMPING_TOKENS = {
    "meandiag": "mean_diag_percent",
    "topsv": "top_singular_fraction",
    "none": "none",
}

# --damping token of each mode, for the per-method default
_MODE_TOKENS = {mode: token for token, mode in _DAMPING_TOKENS.items()}


class UsageError(Exception):
    pass


def _flags(args, *names) -> dict:
    """The named flags' values, for a report's config echo."""
    return {name: getattr(args, name) for name in names}


def _json_safe(value):
    """``value`` with every float that is not finite replaced by None:
    RFC 8259 JSON has no NaN or Infinity."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _write_report(path, payload):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _resolve_levels(args) -> int:
    if args.levels is not None:
        return _levels_flag("levels", args.levels)
    bits = 4.0 if args.bits is None else args.bits
    try:
        return _grid.levels_from_bits(bits)
    except ValueError as exc:
        raise UsageError(f"--bits: {exc}") from exc


def _levels_flag(name, value) -> int:
    """A level count flag's value as an int a grid can hold, or a usage error."""
    try:
        levels = int(value)
        _grid._check_levels(levels)
    except ValueError as exc:
        raise UsageError(f"--{name}: {exc}") from exc
    return levels


def _methods_flag(text, allowed) -> list[str]:
    """The --methods list in order; empty, or naming a method outside
    ``allowed``, is a usage error."""
    methods = [tok.strip().replace("-", "_") for tok in text.split(",") if tok.strip()]
    if not methods or set(methods) - set(allowed):
        names = ", ".join(m.replace("_", "-") for m in allowed)
        raise UsageError(f"--methods takes a comma-separated list from {names}, got {text!r}")
    return methods


def _at_least(args, **floors):
    """Reject an integer flag set below its floor, naming the flag."""
    for name, floor in floors.items():
        value = getattr(args, name)
        if value is not None and value < floor:
            raise UsageError(f"--{name.replace('_', '-')} must be at least {floor}, got {value}")


def _read_finite(path) -> np.ndarray:
    """Read a matrix file and reject it if any entry is NaN or infinite."""
    arr = _qmx.read_qmx(path)
    check_finite(arr, path)
    return arr


def _read_shaped(path, rows, cols, finite=True) -> np.ndarray:
    """Read a matrix file as float64, rejecting any shape but (rows, cols)
    and, if ``finite``, non-finite entries; ``rows`` None takes any row
    count."""
    a = np.asarray(_read_finite(path) if finite else _qmx.read_qmx(path), dtype=np.float64)
    if a.shape[1] != cols or rows not in (None, a.shape[0]):
        raise ShapeError(f"{path}: shape {a.shape} must be ({'m' if rows is None else rows}, {cols})")
    return a


def cmd_quantize(args) -> int:
    t_all = time.perf_counter()
    method = args.method.replace("-", "_")
    levels = _resolve_levels(args)
    if args.trace and not args.report:
        raise UsageError("--trace records per-step states for the report; pass --report with it")
    if not (args.beta > 0.0 and np.isfinite(args.beta)):
        raise UsageError(f"--beta must be a positive finite number, got {args.beta}")
    damping_token = args.damping or _MODE_TOKENS[_rounding.METHOD_SPECS[method].damping.mode]
    try:
        policy = DampingPolicy(_DAMPING_TOKENS[damping_token], alpha=args.alpha)
    except ValueError as exc:
        raise UsageError(f"--alpha: {exc}") from exc

    t0 = time.perf_counter()
    weights_raw = _read_finite(args.weights)
    w = np.asarray(weights_raw, dtype=np.float64)
    n_in, n_out = w.shape
    raw_given = args.calib_x is not None or args.calib_xt is not None
    stats_given = args.stats_h is not None or args.stats_g is not None
    if raw_given and stats_given:
        raise UsageError("give raw activations or precomputed stats, not both")
    t_load = time.perf_counter() - t0

    if method != "rtn":
        if not (raw_given or stats_given):
            raise UsageError(
                f"--method {args.method} needs calibration input: "
                "--calib-x/--calib-xt or --stats-h/--stats-g"
            )
        # the reference input, and for two-path methods the quantized path
        needs_pair = _rounding.METHOD_SPECS[method].two_path
        flags = ("calib_x", "calib_xt") if raw_given else ("stats_h", "stats_g")
        for name in flags[: 1 + needs_pair]:
            if getattr(args, name) is None:
                raise UsageError(f"--method {args.method} needs --{name.replace('_', '-')}")

    # the grid before any calibration read, so a bad weights column ends the run first
    try:
        grid = (_grid.symmetric_scale_search(w, levels) if args.symmetric
                else _grid.grid_from_minmax(w, levels, args.beta))
    except (NonFiniteInputError, ShapeError) as exc:
        raise type(exc)(f"{args.weights}: {exc}") from None

    t0 = time.perf_counter()
    if method == "rtn":
        stats = None
    elif raw_given:
        x = _read_shaped(args.calib_x, None, n_in)
        xq = _read_shaped(args.calib_xt, x.shape[0], n_in) if needs_pair else None
        stats = _rounding.layer_stats(method, w, x, xq)
        x = xq = None  # the moments hold everything the layer reads
    else:
        # the layer scans both (its errors name the file below), so no scan here
        h = _read_shaped(args.stats_h, n_in, n_in, finite=False)
        g = _read_shaped(args.stats_g, n_in, n_in, finite=False) if needs_pair else h
        stats = _calib.CalibStats(n_in, H=h, G=g)
    t_stats = time.perf_counter() - t0

    # --trace takes each step's move norm as the next state arrives and keeps
    # only the last state; squaring in place holds the peak near two states
    moves, last = [], [None]

    def take_move(state):
        if last[0] is not None:
            move = state - last[0][1:]
            moves.append(np.sqrt(np.square(move, out=move).sum(axis=0)))
        last[0] = state

    t0 = time.perf_counter()
    req = _rounding.LayerQuantRequest(
        weights=w,
        grids=grid,
        method=method,
        stats=stats,
        damping=policy,
        order=args.order,
        on_state=take_move if args.trace else None,
    )
    try:
        q, layer_report = _rounding.quantize_layer(req)
    except (NonFiniteInputError, NotSymmetricError) as exc:
        if not stats_given:
            raise
        path = args.stats_g if str(exc).startswith("G:") else args.stats_h
        raise type(exc)(f"{path}: {exc}") from None
    t_algo = time.perf_counter() - t0

    out_dtype = "f32" if weights_raw.dtype == np.float32 else "f64"
    _qmx.write_qmx(args.out, q, dtype=out_dtype)

    if args.report:
        result = {
            "n_in": n_in,
            "n_out": n_out,
            "lambda": layer_report.damping_lambda,
            "order_perm": layer_report.order,
            "objective_form": layer_report.objective_form,
            "objectives": [float(v) for v in layer_report.objectives],
            "warnings": layer_report.warnings,
            "out": args.out,
        }
        if args.trace:
            norms = np.array(moves).reshape(-1, n_out)
            result["trace"] = [
                {"column": j, "q": q[:, j].tolist(), "delta_norms": norms[:, j].tolist()}
                for j in range(n_out)
            ]
        payload = {
            "schema": 1,
            "command": "quantize",
            "config": {
                **_flags(args, "weights", "calib_x", "calib_xt", "stats_h", "stats_g", "method",
                         "beta", "symmetric", "alpha", "order"),
                "levels": levels,
                "damping": damping_token,
            },
            "result": result,
            "timing": {
                "load_seconds": t_load,
                "stats_seconds": t_stats,
                "algorithm_seconds": t_algo,
                "phases": layer_report.timings,
                "total_seconds": time.perf_counter() - t_all,
            },
        }
        _write_report(args.report, payload)
    return EXIT_OK


def cmd_bench(args) -> int:
    methods = tuple(_methods_flag(args.methods, _bench.BENCH_METHODS))
    _at_least(args, m=1, seeds=1, reps=1)
    _levels_flag("levels", args.levels)
    try:
        cfg = _bench.BenchConfig(
            k_min=args.k_min,
            k_max=args.k_max,
            m=args.m,
            seeds=args.seeds,
            levels=args.levels,
            methods=methods,
            inner_reps=args.reps,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = _bench.run_bench(cfg)
    payload = {"schema": 1, "command": "bench", **report}
    if args.out:
        _write_report(args.out, payload)
    med = _bench.median_algo_times(payload)
    for k in cfg.ladder:
        parts = [f"K={k}"]
        for method in methods:
            if (method, k) in med:
                parts.append(f"{method}={med[(method, k)] * 1e3:.2f}ms")
        if ("qronos_base", k) in med and ("qronos", k) in med and med[("qronos", k)] > 0:
            parts.append(f"speedup={med[('qronos_base', k)] / med[('qronos', k)]:.1f}x")
        print("  ".join(parts))
    shared = payload["timing"]["shared_input"]
    if shared and "prepare_s" in shared:
        rounds, layers = ("/".join(f"{t * 1e3:.2f}" for t in shared[key]) for key in ("round_s", "quantize_layer_s"))
        print(f"shared input K={shared['k']}: prepare={shared['prepare_s'] * 1e3:.2f}ms once  "
              f"round={rounds}ms  quantize_layer={layers}ms")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = _verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    _at_least(args, trials=0, seed=0)
    t0 = time.perf_counter()
    results = []
    for name in names:
        res = _verify.run_suite(name, trials=args.trials, tol=args.tol, seed=args.seed)
        results.append(res)
        marker = "PASS" if res.passed else "FAIL"
        extra = " (vacuous: 0 trials)" if res.trials == 0 else ""
        print(
            f"{marker} {res.name}: trials={res.trials} failures={res.failures} "
            f"max_dev={res.max_dev:.3e} tol={res.tol:.1e}{extra}"
        )
    if args.out:
        payload = {
            "schema": 1,
            "command": "verify",
            "config": {**_flags(args, "suite", "trials", "tol", "seed"), "dtype": "f64"},
            "suites": [r.to_dict() for r in results],
            "timing": {"total_seconds": time.perf_counter() - t0},
        }
        _write_report(args.out, payload)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def cmd_simulate(args) -> int:
    methods = _methods_flag(args.methods, _rounding.METHODS)
    alevels = None if args.alevels in (None, "off", "none") else _levels_flag("alevels", args.alevels)
    _at_least(args, layers=1, width=1, seeds=1, samples=1, seed=0)
    _levels_flag("wlevels", args.wlevels)
    if args.hadamard and (args.width & (args.width - 1)):
        raise UsageError(f"--hadamard needs a power-of-two width, got {args.width}")
    if args.blocks < 1 or args.blocks > args.layers:
        raise UsageError(f"--blocks must be in 1..{args.layers}, got {args.blocks}")

    t0 = time.perf_counter()
    results: dict = {m: [] for m in methods}
    for i in range(args.seeds):
        seed = args.seed + i
        spec = _netsim.build_random_network(
            n_layers=args.layers,
            width=args.width,
            seed=seed,
            weight_levels=args.wlevels,
            act_levels=alevels,
            n_blocks=args.blocks,
            hadamard=bool(args.hadamard),
        )
        rng = np.random.default_rng(seed + 10_000)
        calib = rng.standard_normal((args.samples, args.width))
        for method in methods:
            _, rep = _netsim.quantize_network(spec, calib, method)
            results[method].append(
                {
                    "seed": seed,
                    "rel_errors": [float(v) for v in rep.rel_errors],
                    "objectives": [float(v) for v in rep.objectives],
                }
            )
    summary = {
        method: {
            "mean_final_rel_error": float(np.mean([r["rel_errors"][-1] for r in rows])),
        }
        for method, rows in results.items()
    }
    payload = {
        "schema": 1,
        "command": "simulate",
        "config": {
            **_flags(args, "layers", "width", "blocks", "wlevels", "seeds", "seed", "samples", "hadamard"),
            "alevels": alevels,
            "methods": methods,
        },
        "results": results,
        "summary": summary,
        "timing": {"total_seconds": time.perf_counter() - t0},
    }
    if args.out:
        _write_report(args.out, payload)
    for method in methods:
        print(f"{method}: mean final-layer rel error {summary[method]['mean_final_rel_error']:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qronos", description="layer-wise post-training quantization toolkit"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("quantize", help="quantize one layer from matrix files")
    p.add_argument("--weights", required=True, help="input weights (n_in x n_out), .qmx")
    p.add_argument("--calib-x", help="reference activations (m x n_in), .qmx")
    p.add_argument("--calib-xt", help="quantized-path activations (m x n_in), .qmx")
    p.add_argument("--stats-h", help="precomputed second moments H, .qmx")
    p.add_argument("--stats-g", help="precomputed cross moments G, .qmx")
    p.add_argument(
        "--method",
        required=True,
        choices=[m.replace("_", "-") for m in _rounding.METHODS],
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument("--bits", type=float, help="bit width (integer, or 1.58 for ternary)")
    group.add_argument("--levels", type=int, help="alphabet size")
    p.add_argument("--beta", type=float, default=1.0, help="range shrink factor")
    p.add_argument("--symmetric", action="store_true", help="symmetric grids via scale search")
    p.add_argument("--damping", choices=sorted(_DAMPING_TOKENS), help="ridge mode (default: per method)")
    p.add_argument("--alpha", type=float, default=1e-6, help="fraction for --damping topsv")
    p.add_argument("--order", choices=["diag", "natural"], default="diag")
    p.add_argument("--out", required=True, help="output quantized weights, .qmx")
    p.add_argument("--report", help="write a JSON report here")
    p.add_argument("--trace", action="store_true", help="add per-column step traces to the --report")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("bench", help="runtime scaling ladder")
    p.add_argument("--k-min", type=int, default=32)
    p.add_argument("--k-max", type=int, default=1024)
    p.add_argument("--m", type=int, default=10000, help="calibration rows")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--levels", type=int, default=16)
    p.add_argument("--methods", default=",".join(m.replace("_", "-") for m in _bench.BENCH_METHODS))
    p.add_argument("--reps", type=int, default=5, help="inner repetitions per cell")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="numerical certification suites")
    p.add_argument(
        "--suite",
        default="all",
        choices=list(_verify.SUITE_NAMES) + ["all"],
    )
    p.add_argument("--trials", type=int, help="override the per-suite trial count")
    p.add_argument("--tol", type=float, help="override the per-suite tolerance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="toy-network error propagation")
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--wlevels", type=int, default=16, help="weight alphabet size")
    p.add_argument("--alevels", default=None, help="per-token activation levels, or 'off'")
    p.add_argument("--methods", default="rtn,optq,gpfq,qronos")
    p.add_argument("--seeds", type=int, default=3, help="number of seeded repetitions")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--samples", type=int, default=512, help="calibration rows")
    p.add_argument("--hadamard", action="store_true", help="rotate every layer")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except (
        NonFiniteInputError,
        NotSymmetricError,
        NotPositiveDefiniteError,
        ConvergenceError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
