"""Benchmark of the isoflex corrugation engine.

    python3 bench/run.py --workload torus_run --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in fresh single-threaded processes (see
README.md): one that repeats whole rounds of the workload for up to
--seconds and checks every round's outputs, and around it a few that only
time the set-up.  With --trace 1 a further process runs one round with every layer function
wrapped and the per-layer metrics are reported instead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_names

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("torus_run", "metric_add", "clamped_skeleton")

# numpy reads these when it loads, so they are set before the child starts
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# a whole run, all its processes included, ends within this many seconds
DEADLINE_S = 175


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, mode):
    """Run workload.py in a fresh process; returns its parsed last line."""
    timeout = args.deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"no time left for the {mode} process")
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process for {args.workload} exited "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args):
    # set-up is timed in the measuring process and in one process before
    # and one after it, so that one slow spell of the machine does not
    # take all three samples
    before = run_child(args, "setup")["setup_s"]
    res = run_child(args, "measure")
    setups = [before, res["setup_s"], run_child(args, "setup")["setup_s"]]
    if not res["walls"]:
        raise RuntimeError(f"no round of {args.workload} completed")
    defects = res["defect_rel"] or [float("nan")]
    return {
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            "wall_s": metric(statistics.median(res["walls"]), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
            "defect_rel": metric(statistics.median(defects), "1"),
        },
    }


def trace(args):
    plain = run_child(args, "measure")
    traced = run_child(args, "trace")
    if not plain["walls"] or not traced["walls"]:
        raise RuntimeError(f"no round of {args.workload} completed")
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["walls"][0] - statistics.median(plain["walls"])
    layers = {name: metric(values[name], unit) for name, unit in metric_names()}
    return {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": layers,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="isoflex benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced grids, for testing the harness")
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "isoflex" / "__init__.py").is_file():
        print(f"no isoflex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = trace(args) if args.trace else measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
