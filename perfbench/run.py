#!/usr/bin/env python3
"""The repository benchmark.

Builds perfbench/bench.exe and the agp CLI with dune, then runs one
workload and passes its output through; the last line of standard
output is the run's JSON result:

    python3 perfbench/run.py --workload sim-bfs --seed 42 --seconds 30 --trace 0

Without --workload it runs every workload named in BENCHMARK.json and
prints every metric by name with its unit, plus fail_frac.  With
--self-test it runs the benchmark's own self-test.  Run it from the
repository root; it reads and writes only inside the repository.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
AGP = os.path.join("_build", "default", "bin", "agp_cli.exe")
# a run must end within 180 s; leave room for the (no-op) build
RUN_TIMEOUT_S = 170


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def build():
    dune = dune_command()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return False
    # the shared dune cache lives outside the repository: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    targets = ["./perfbench/bench.exe", "./bin/agp_cli.exe"]
    result = subprocess.run(
        dune + ["build", "--root", "."] + targets,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return result.returncode == 0


def run_bench(args, capture=False):
    """Run bench.exe in its own session, so that a timeout also stops
    the serve daemon it started.  Returns (exit code, stdout or None)."""
    proc = subprocess.Popen(
        [BENCH, "--agp", AGP] + args,
        cwd=ROOT,
        start_new_session=True,
        stdout=subprocess.PIPE if capture else None,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1, None
    finally:
        # the daemon, if the bench died without reaping it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def run_all(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    catalog = declared["per_layer"] if args.trace else declared["end_to_end"]
    failed = False
    rows = []
    for w in declared["workloads"]:
        code, out = run_bench(
            ["--workload", w["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture=True,
        )
        lines = (out or "").strip().splitlines()
        if code != 0 or not lines:
            failed = True
            print(f"{w['name']}: failed (exit {code})", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        for m in catalog:
            v = result["metrics"][m["name"]]
            rows.append((w["name"], m["name"], v["value"], v["unit"]))
        rows.append((w["name"], "fail_frac", result["failed"] / result["attempted"], "frac"))
    print(f"{'workload':<14} {'metric':<28} {'value':>16} unit")
    for name, metric, value, unit in rows:
        print(f"{name:<14} {metric:<28} {value:>16.6g} {unit}")
    return 1 if failed else 0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        run_seconds = json.load(f)["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return run_bench(["--self-test"])[0]
    if args.workload is None:
        return run_all(args)
    return run_bench(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)]
    )[0]


if __name__ == "__main__":
    sys.exit(main())
