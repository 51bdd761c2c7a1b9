"""Steadiness check: sets of benchmark runs, compared against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py run A                  # 10 runs per workload, seeds 0..9
    python3 perfbench/steady.py run B --seed-base 100  # a second set, later
    python3 perfbench/steady.py compare A B            # medians, quartiles, verdicts

Run from the repository root.  A set is ``RUNS`` runs of every workload
in ``BENCHMARK.json`` at its ``run_seconds``, stored in
``perfbench/out/steady-<label>.json``.  A set passes when, for every
workload and end-to-end metric, the distance between the quartiles of
its runs is within the metric's bound as a share of their median.  Two
sets agree when both pass, every metric's two medians differ by no more
than its bound as a share of the first, and the share of failed
operations is the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
RUNS = 10


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def set_path(label: str) -> Path:
    return OUT_DIR / f"steady-{label}.json"


def run_set(args) -> None:
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    OUT_DIR.mkdir(exist_ok=True)
    runs: dict[str, list] = {}
    for name in (w["name"] for w in bench["workloads"]):
        runs[name] = []
        for i in range(RUNS):
            seed = args.seed_base + i
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(lines[-1])
            config = next((json.loads(ln[len("# config "):]) for ln in lines
                           if ln.startswith("# config ")), None)
            runs[name].append({"seed": seed, "wall_s": wall, "result": result, "config": config})
            m = result["metrics"]
            print(f"{name} seed={seed} wall={wall:.1f}s correct={result['correct']} "
                  f"ops={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in m.items()), flush=True)
    payload = {"label": args.label, "seconds": seconds, "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
               "runs": runs}
    set_path(args.label).write_text(json.dumps(payload, indent=1))
    print(f"wrote {set_path(args.label).relative_to(ROOT)}")


def stats(values: list[float]):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / abs(statistics.median(values))


def compare(args) -> int:
    bench = load_benchmark()
    sets = [json.loads(set_path(label).read_text()) for label in args.labels]
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        shares = []
        for s in sets:
            rows = s["runs"][name]
            shares.append((sum(r["result"]["failed"] for r in rows),
                           sum(r["result"]["attempted"] for r in rows)))
            ok &= all(r["result"]["correct"] for r in rows)
        walls = [r["wall_s"] for s in sets for r in s["runs"][name]]
        print(f"\n{name}: runs {'/'.join(str(len(s['runs'][name])) for s in sets)}, "
              f"failed/attempted {' vs '.join(f'{f}/{a}' for f, a in shares)}, "
              f"wall per run max {max(walls):.1f}s")
        if shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            print("  FAILED SHARE DIFFERS")
            ok = False
        header = f"  {'metric':<12} {'bound':>5}"
        for label in args.labels:
            header += f" | {label + ' median':>12} {'q1':>11} {'q3':>11} {'spread':>7}"
        header += f" | {'worse by':>8} verdict"
        print(header)
        for metric in bench["end_to_end"]:
            mname, bound = metric["name"], metric["bound"]
            line = f"  {mname:<12} {bound:>5.2f}"
            verdict = True
            meds = []
            for s in sets:
                med, q1, q3, spread = stats([r["result"]["metrics"][mname]["value"]
                                             for r in s["runs"][name]])
                meds.append(med)
                line += f" | {med:>12.6g} {q1:>11.6g} {q3:>11.6g} {spread:>7.4f}"
                verdict &= spread <= bound
            moved = (meds[1] - meds[0]) / abs(meds[0])
            verdict &= abs(moved) <= bound
            worse = -moved if metric["better"] == "higher" else moved
            line += f" | {worse:>+8.4f} {'agree' if verdict else 'DISAGREE'}"
            ok &= verdict
            print(line)
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run one set")
    r.add_argument("label")
    r.add_argument("--seed-base", type=int, default=0)
    c = sub.add_parser("compare", help="compare two sets")
    c.add_argument("labels", nargs=2)
    args = p.parse_args(argv)
    if args.cmd == "run":
        run_set(args)
        return 0
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
