"""Single-layer runtime scaling benchmark.

One synthetic layer per cell: K Gaussian input features, K/4 output
channels, m calibration rows, quantized-path activations = reference
plus 10 percent noise.  The stats phase is ``rounding.layer_stats``, the
same route and association from activations to moments that
``qronos quantize`` runs, and the algorithm phase is everything from
moments to quantized weights; both are timed separately inside one
execution, and end to end is their sum.  Each (method, K, seed) cell
runs a fixed number of inner repetitions and reports the minimum and
the mean, the minimum of each ``rounding.PHASES`` key, and the layer's
tracemalloc peak in MB (10^6 bytes) from one more, untimed repetition.
The machine record holds both BLAS builds, NumPy's and SciPy's.

The shared-input cell, at the ladder's largest K when qronos is
benchmarked, times three K/4-column weight matrices drawn for one input
(its stats hold G, which all three share): one ``prepare_layer`` and
three ``round_layer`` calls against three ``quantize_layer`` calls,
each the minimum over the inner repetitions.
"""

from __future__ import annotations

import os
import platform
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np
import scipy

from . import rounding as _rounding
from .calib import CalibStats, accumulate
from .grid import grid_from_minmax

BENCH_METHODS = tuple(m for m in _rounding.METHODS if m != "rtn")


@dataclass
class BenchConfig:
    k_min: int = 32
    k_max: int = 1024
    m: int = 10000
    seeds: int = 3
    levels: int = 16
    methods: tuple = BENCH_METHODS
    inner_reps: int = 5

    def __post_init__(self):
        if self.k_min < 4 or self.k_max < self.k_min:
            raise ValueError(f"bad K range [{self.k_min}, {self.k_max}]")
        for m in self.methods:
            if m not in BENCH_METHODS:
                raise ValueError(f"method {m!r} is not benchmarkable")

    @property
    def ladder(self) -> list[int]:
        ks = []
        k = self.k_min
        while k <= self.k_max:
            ks.append(k)
            k *= 2
        return ks


def _time_cell(method, x, xq, w, grid, cfg):
    """Return (stats_time, algo_time, timings) lists over the inner
    repetitions, and the peak bytes of one more layer run.

    Even repetitions run the stats phase, then the layer on those stats;
    odd ones run the layer on the previous stats first, so it starts
    right after the previous layer run rather than after the stats'
    threaded products.  Either start can catch idle BLAS threads waking
    (milliseconds on a small layer), and which one does depends on the
    layer, so the minimum sees both.  The layer never writes its stats.
    """
    stats_times = []
    algo_times = []
    phases = []
    req = None
    for rep in range(cfg.inner_reps):
        if rep % 2 == 0:
            t0 = time.perf_counter()
            stats = _rounding.layer_stats(method, w, x, xq)
            stats_times.append(time.perf_counter() - t0)
            req = _rounding.LayerQuantRequest(
                weights=w,
                grids=grid,
                method=method,
                stats=stats,
                damping=_rounding.METHOD_SPECS[method].damping,
            )
        t0 = time.perf_counter()
        _, report = _rounding.quantize_layer(req)
        algo_times.append(time.perf_counter() - t0)
        phases.append(report.timings)
        if rep % 2 == 1:
            t0 = time.perf_counter()
            _rounding.layer_stats(method, w, x, xq)
            stats_times.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        _rounding.quantize_layer(req)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return stats_times, algo_times, phases, peak


def _shared_input_cell(cfg, x, xq, rng) -> dict:
    """Prepare once, round three weight matrices on one input, against
    three whole layers; a MemoryError marks the cell skipped."""
    k, n_out = x.shape[1], max(1, x.shape[1] // 4)
    cell = {"method": "qronos", "k": k, "matrices": 3}
    stats = accumulate(CalibStats(k), x, xq)
    ws = [rng.standard_normal((k, n_out)) for _ in range(3)]
    grids = [grid_from_minmax(w, cfg.levels, 1.0) for w in ws]
    damping = _rounding.METHOD_SPECS["qronos"].damping
    prepare, rounds, layers = [], [[] for _ in ws], [[] for _ in ws]
    try:
        for _ in range(cfg.inner_reps):
            t0 = time.perf_counter()
            prep = _rounding.prepare_layer(stats, damping, "diag", "qronos")
            prepare.append(time.perf_counter() - t0)
            for times, w, grid in zip(rounds, ws, grids):
                t0 = time.perf_counter()
                _rounding.round_layer(prep, w, grid)
                times.append(time.perf_counter() - t0)
            for times, w, grid in zip(layers, ws, grids):
                req = _rounding.LayerQuantRequest(w, grid, "qronos", stats=stats, damping=damping)
                t0 = time.perf_counter()
                _rounding.quantize_layer(req)
                times.append(time.perf_counter() - t0)
    except MemoryError:
        return {**cell, "skipped": "resource"}
    return {**cell, "prepare_s": min(prepare), "round_s": [min(t) for t in rounds],
            "quantize_layer_s": [min(t) for t in layers]}


def run_bench(cfg: BenchConfig) -> dict:
    """Execute the full ladder and return the report dictionary."""
    rows = []
    shared = None
    for k in cfg.ladder:
        n_out = max(1, k // 4)
        for seed in range(cfg.seeds):
            rng = np.random.default_rng([seed, k])
            x = rng.standard_normal((cfg.m, k))
            xq = x + 0.1 * rng.standard_normal((cfg.m, k))
            w = rng.standard_normal((k, n_out))
            grid = grid_from_minmax(w, cfg.levels, 1.0)
            for method in cfg.methods:
                try:
                    stats_t, algo_t, phases, peak = _time_cell(method, x, xq, w, grid, cfg)
                except MemoryError:
                    rows.append(
                        {"method": method, "k": k, "seed": seed, "skipped": "resource"}
                    )
                    continue
                e2e = [s + a for s, a in zip(stats_t, algo_t)]
                rows.append(
                    {
                        "method": method,
                        "k": k,
                        "seed": seed,
                        "stats": {"min": min(stats_t), "mean": sum(stats_t) / len(stats_t)},
                        "algo": {"min": min(algo_t), "mean": sum(algo_t) / len(algo_t)},
                        "e2e": {"min": min(e2e), "mean": sum(e2e) / len(e2e)},
                        "phases": {key: min(t[key] for t in phases) for key in _rounding.PHASES},
                        "peak_mb": peak / 1e6,
                    }
                )
            if k == cfg.ladder[-1] and seed == 0 and "qronos" in cfg.methods:
                shared = _shared_input_cell(cfg, x, xq, rng)
    return {
        "config": {
            "k_ladder": cfg.ladder,
            "m": cfg.m,
            "seeds": cfg.seeds,
            "levels": cfg.levels,
            "methods": list(cfg.methods),
            "inner_reps": cfg.inner_reps,
        },
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "blas": {m.__name__: m.show_config(mode="dicts")["Build Dependencies"]["blas"] for m in (np, scipy)},
        },
        "timing": {"cells": rows, "shared_input": shared},
    }


def median_algo_times(report: dict) -> dict:
    """{(method, k): median-over-seeds of per-seed min algo time}."""
    acc: dict = {}
    for r in report["timing"]["cells"]:
        if "skipped" in r:
            continue
        acc.setdefault((r["method"], r["k"]), []).append(r["algo"]["min"])
    return {key: float(np.median(vals)) for key, vals in acc.items()}
