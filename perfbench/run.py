"""Benchmark entry point: one workload in one fresh process, one JSON result line.

    python3 perfbench/run.py --workload layer-k2048 --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/``
of the same tree and nothing else.  The run is a closed loop: a single
caller runs operations back to back until the next one would end
past ``--seconds`` of timed work, with at least ``MIN_OPS`` operations.
Every operation's output is checked outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations, prints the per-layer metrics of the
traced ones and writes every span to ``perfbench/out/``.  The last line
of standard output is always the JSON result.
"""

from __future__ import annotations

import os
import sys
import time

# The BLAS pool size must be fixed before NumPy loads.  One thread keeps
# the 2-core machines this runs on steady; see README.md.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORK_DIR = HERE / "work"

MIN_OPS = 3
MIN_OPS_TRACED = 4  # two untraced and two traced
SETUP_REPEATS = 7  # set-up children per run, spread over the timed run


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up, print 'ready' and exit (used to time set-up)",
    )
    return p.parse_args(argv)


def import_program():
    """Import qronos from this tree's src/, or exit 2 if it is not there."""
    if not (SRC / "qronos" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'qronos'}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qronos

    if Path(qronos.__file__).resolve().parent != (SRC / "qronos").resolve():
        print(f"error: imported qronos from {qronos.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def time_setup_in_child(args) -> float:
    """Seconds from spawning a fresh process to the end of its set-up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up child exited {child.returncode} after {line!r}")
    return elapsed


class SetupSampler:
    """Set-up times of fresh child processes, taken between operations.

    The machine's speed drifts over stretches of seconds, so children
    timed back to back all see one stretch.  Taking them in step with
    the share of the run's timed work done spreads them over the run.
    """

    def __init__(self, args):
        self.args = args
        self.times: list[float] = []

    def catch_up(self, share: float) -> None:
        due = 1 + int((SETUP_REPEATS - 1) * min(share, 1.0))
        while len(self.times) < due:
            self.times.append(time_setup_in_child(self.args))


def run_ops(workload, seconds: float, setup: SetupSampler, tracer=None):
    """Closed loop of operations; returns the tallies and timings."""
    min_ops = MIN_OPS if tracer is None else MIN_OPS_TRACED
    op_times: list[float] = []
    ok_times: list[float] = []
    traced_times: list[float] = []
    failed = 0
    correct = True
    while len(op_times) < min_ops or sum(op_times) + statistics.median(op_times) <= seconds:
        op_id = len(op_times)
        traced = tracer is not None and op_id % 2 == 1
        if traced:
            tracer.begin(op_id)
        t0 = time.perf_counter()
        try:
            out = workload.op()
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            out = None
        dt = time.perf_counter() - t0
        if traced:
            tracer.end()
        op_times.append(dt)
        if out is None:
            failed += 1
        else:
            (traced_times if traced else ok_times).append(dt)
            if not workload.check(out):
                correct = False
        setup.catch_up(sum(op_times) / seconds)
    setup.catch_up(1.0)
    return op_times, ok_times, traced_times, failed, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        if args.setup_only:
            make(args.seed, workdir).setup()
            print("ready", flush=True)
            return 0
        setup = SetupSampler(args)
        setup.catch_up(0.0)
        workload = make(args.seed, workdir)
        workload.setup()
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
        op_times, ok_times, traced_times, failed, correct = run_ops(
            workload, args.seconds, setup, tracer
        )
        correct = workload.final_check() and correct
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    config = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "ops": len(op_times),
        "op_s": op_times,
        "setup_s": setup.times,
    }
    if tracer is None:
        metrics = {
            "op_s.p50": (statistics.median(ok_times or op_times), "s"),
            "ops_per_s": (len(ok_times) / sum(op_times), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup.times), "s"),
            "out_rel_err": (workload.out_rel_err, "1"),
        }
    else:
        layer_metrics, counts_repeat = tracer.summary()
        correct = correct and counts_repeat
        metrics = dict(layer_metrics)
        overhead = statistics.median(traced_times or [0.0]) - statistics.median(ok_times or [0.0])
        metrics["trace.overhead_s"] = (overhead, "s")
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-s{args.seed}.json"
        tracer.write(trace_path, config)
        config["trace_file"] = str(trace_path.relative_to(ROOT))
    print("# config " + json.dumps(config))
    result = {
        "correct": bool(correct),
        "attempted": len(op_times),
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
