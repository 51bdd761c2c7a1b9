"""Command line front end.

Four subcommands: quantize (one layer from matrix files), bench (the
runtime scaling ladder), verify (numerical certification suites) and
simulate (toy-network error propagation).  Reports are JSON with a
schema marker; wall-clock measurements live only under the "timing"
key so everything else is reproducible byte for byte.

Exit codes: 0 success, 2 usage, 3 file I/O, 4 shape mismatch,
5 numerical failure (including a NaN or infinity in an input matrix, or
an asymmetric --stats-h),
6 verification suite failure.
"""

from __future__ import annotations

import argparse
import json
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


def _write_report(path, payload):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_levels(args) -> int:
    if args.levels is not None:
        if args.levels < 2:
            raise UsageError(f"--levels must be at least 2, got {args.levels}")
        return args.levels
    bits = 4.0 if args.bits is None else args.bits
    try:
        return _grid.levels_from_bits(bits)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _read_finite(path) -> np.ndarray:
    """Read a matrix file and reject it if any entry is NaN or infinite."""
    arr = _qmx.read_qmx(path)
    check_finite(arr, path)
    return arr


def cmd_quantize(args) -> int:
    t_all = time.perf_counter()
    method = args.method.replace("-", "_")
    levels = _resolve_levels(args)

    t0 = time.perf_counter()
    weights_raw = _read_finite(args.weights)
    w = np.asarray(weights_raw, dtype=np.float64)
    n_in, n_out = w.shape
    raw_given = args.calib_x is not None or args.calib_xt is not None
    stats_given = args.stats_h is not None or args.stats_g is not None
    if raw_given and stats_given:
        raise UsageError("give raw activations or precomputed stats, not both")

    x = xq = None
    stats = None
    t_load = time.perf_counter() - t0

    t0 = time.perf_counter()
    if method != "rtn":
        spec = _rounding.METHOD_SPECS[method]
        needs_pair = spec.two_path
        if raw_given:
            if args.calib_x is None:
                raise UsageError(f"--method {args.method} needs --calib-x")
            x = np.asarray(_read_finite(args.calib_x), dtype=np.float64)
            if x.ndim != 2 or x.shape[1] != n_in:
                raise ShapeError(
                    f"{args.calib_x}: activations {x.shape} do not match weight rows {n_in}"
                )
            xq = x
            if needs_pair:
                if args.calib_xt is None:
                    raise UsageError(
                        f"--method {args.method} needs the quantized-path activations: "
                        "pass --calib-xt (or precomputed --stats-h/--stats-g)"
                    )
                xq = np.asarray(_read_finite(args.calib_xt), dtype=np.float64)
                if xq.shape != x.shape:
                    raise ShapeError(
                        f"{args.calib_xt}: shape {xq.shape} does not match --calib-x {x.shape}"
                    )
            stats = _calib.accumulate(
                _calib.CalibStats(n_in), x, xq, weights=None if spec.reads_g else w
            )
            if method != "optq_ref":
                # only optq_ref reads the activations again; the moments
                # hold everything the others need
                x = xq = None
        elif stats_given:
            if method == "optq_ref":
                raise UsageError("--method optq-ref re-solves against raw activations; pass --calib-x")
            if args.stats_h is None:
                raise UsageError(f"--method {args.method} needs --stats-h")
            h = np.asarray(_read_finite(args.stats_h), dtype=np.float64)
            if h.shape != (n_in, n_in):
                raise ShapeError(f"{args.stats_h}: H {h.shape} must be {(n_in, n_in)}")
            g = h
            if needs_pair:
                if args.stats_g is None:
                    raise UsageError(
                        f"--method {args.method} needs the cross moments: pass --stats-g "
                        "(or raw --calib-x/--calib-xt)"
                    )
                g = np.asarray(_read_finite(args.stats_g), dtype=np.float64)
                if g.shape != (n_in, n_in):
                    raise ShapeError(f"{args.stats_g}: G {g.shape} must be {(n_in, n_in)}")
            stats = _calib.CalibStats(n_in, H=h, G=g)
        else:
            raise UsageError(
                f"--method {args.method} needs calibration input: "
                "--calib-x/--calib-xt or --stats-h/--stats-g"
            )
    t_stats = time.perf_counter() - t0

    if args.symmetric:
        grids = [_grid.symmetric_scale_search(w[:, j], levels) for j in range(n_out)]
    else:
        grids = [_grid.grid_from_minmax(w[:, j], levels, args.beta) for j in range(n_out)]

    damping_token = args.damping or _MODE_TOKENS[_rounding.METHOD_SPECS[method].damping.mode]
    policy = DampingPolicy(_DAMPING_TOKENS[damping_token], alpha=args.alpha)

    t0 = time.perf_counter()
    req = _rounding.LayerQuantRequest(
        weights=w,
        grids=grids,
        method=method,
        stats=stats,
        damping=policy,
        order=args.order,
        record_trace=args.trace,
    )
    q, layer_report = _rounding.quantize_layer(req, x=x)
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
        if args.trace and layer_report.traces is not None:
            result["trace"] = [
                {
                    "column": j,
                    "q": [float(v) for v in q[:, j]],
                    "delta_norms": [float(np.linalg.norm(d)) for d in tr.deltas]
                    if tr.deltas is not None
                    else [],
                }
                for j, tr in enumerate(layer_report.traces)
            ]
        payload = {
            "schema": 1,
            "command": "quantize",
            "config": {
                "weights": args.weights,
                "calib_x": args.calib_x,
                "calib_xt": args.calib_xt,
                "stats_h": args.stats_h,
                "stats_g": args.stats_g,
                "method": args.method,
                "levels": levels,
                "beta": args.beta,
                "symmetric": bool(args.symmetric),
                "damping": damping_token,
                "alpha": args.alpha,
                "order": args.order,
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
    methods = tuple(tok.strip().replace("-", "_") for tok in args.methods.split(",") if tok.strip())
    try:
        cfg = _bench.BenchConfig(
            k_min=args.k_min,
            k_max=args.k_max,
            m=args.m,
            seeds=args.seeds,
            levels=args.levels,
            methods=methods,
            dtype=args.dtype,
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
    return EXIT_OK


def cmd_verify(args) -> int:
    names = _verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
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
            "config": {
                "suite": args.suite,
                "trials": args.trials,
                "tol": args.tol,
                "seed": args.seed,
                "dtype": "f64",
            },
            "suites": [r.to_dict() for r in results],
            "timing": {"total_seconds": time.perf_counter() - t0},
        }
        _write_report(args.out, payload)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def cmd_simulate(args) -> int:
    methods = [tok.strip().replace("-", "_") for tok in args.methods.split(",") if tok.strip()]
    for method in methods:
        if method not in _rounding.METHODS:
            raise UsageError(f"unknown method {method!r}")
    if args.alevels in (None, "off", "none"):
        alevels = None
    else:
        try:
            alevels = int(args.alevels)
        except ValueError as exc:
            raise UsageError(f"--alevels takes an integer or 'off', got {args.alevels!r}") from exc
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
            "layers": args.layers,
            "width": args.width,
            "blocks": args.blocks,
            "wlevels": args.wlevels,
            "alevels": alevels,
            "methods": methods,
            "seeds": args.seeds,
            "seed": args.seed,
            "samples": args.samples,
            "hadamard": bool(args.hadamard),
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
    p.add_argument("--trace", action="store_true", help="include per-column step traces in the report")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("bench", help="runtime scaling ladder")
    p.add_argument("--k-min", type=int, default=32)
    p.add_argument("--k-max", type=int, default=1024)
    p.add_argument("--m", type=int, default=10000, help="calibration rows")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--levels", type=int, default=16)
    p.add_argument("--methods", default=",".join(m.replace("_", "-") for m in _bench.BENCH_METHODS))
    p.add_argument("--dtype", choices=["f64", "f32"], default="f64")
    p.add_argument("--reps", type=int, default=3, help="inner repetitions per cell")
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
