#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs perfbench/run.py once per seed on each workload (untraced), then
reports for every end-to-end metric its median, first and third
quartile (statistics.quantiles, n=4) and the quartile distance as a
share of the median, next to the metric's bound in BENCHMARK.json:

    python3 perfbench/spread.py --workloads sim-bfs,serve-bfs --seeds 5

The values of every run are written to perfbench/_out/spread.json
(or --out).  Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=declared["run_seconds"])
    p.add_argument("--out", default=os.path.join("perfbench", "_out", "spread.json"))
    args = p.parse_args()
    seeds = [args.first_seed + 101 * i for i in range(args.seeds)]
    report = {"seeds": seeds, "seconds": args.seconds, "nproc": os.cpu_count(), "workloads": {}}
    worst = 0.0
    print(f"{'workload':<14} {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for w in args.workloads.split(","):
        runs = [run_once(w, s, args.seconds) for s in seeds]
        if not all(r["correct"] for r in runs):
            raise SystemExit(f"{w}: a run was not correct")
        rows = {}
        for m in declared["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[m["name"]] = {"values": values, "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": m["bound"], "unit": m["unit"]}
            flag = "" if spread < m["bound"] / 3 else "  <-- above a third of the bound"
            worst = max(worst, spread / m["bound"])
            print(f"{w:<14} {m['name']:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {m['bound']:>6}{flag}", flush=True)
        report["workloads"][w] = rows
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"worst spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
