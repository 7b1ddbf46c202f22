"""One benchmark workload, run in its own process by ``run.py``.

Modes:
  setup    time the set-up alone and exit
  measure  set up, then repeat whole rounds of the workload's main calls
           for up to --seconds (at least one round), checking every round's
           outputs
  trace    set up and run one round with every layer function wrapped

The last line of standard output is one JSON object with the results.
The program's own printing goes to standard error.
"""

import time

_T0 = time.perf_counter()

# every layer is imported here, inside the timed package imports of the
# set-up, and before the tracer looks for the names each module bound
import numpy as np  # noqa: E402

import isoflex.cli  # noqa: E402
import isoflex.corrugation  # noqa: E402
import isoflex.decomposition  # noqa: E402
import isoflex.grid  # noqa: E402
import isoflex.induction  # noqa: E402
import isoflex.io  # noqa: E402
import isoflex.nash_step  # noqa: E402
import isoflex.scenario  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import configparser  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import Callable  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

from isoflex.grid import (  # noqa: E402
    CLAMPED, PERIODIC, GridChart, ImmersionField, MetricField, ScalarField)

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


class CheckFailed(AssertionError):
    """A round's outputs failed a correctness check."""


@dataclass(frozen=True)
class Workload:
    ops: int             # operations per round
    setup: Callable      # (seed, smoke) -> inputs
    run: Callable        # (inputs, table, round index) -> raw outputs (timed)
    check: Callable      # (inputs, raw outputs) -> defect_rel; raises CheckFailed
    uses_table: bool = True  # False: the main calls build their own table


# ---------------------------------------------------------------------------
# torus_run: the CLI on a committed flat-torus scenario


def _torus_setup(seed, smoke):
    path = BENCH / "scenarios" / ("torus_smoke.ini" if smoke else "torus512.ini")
    cp = configparser.ConfigParser()
    cp.read(path)
    res = [int(v) for v in cp.get("chart", "resolution").split()]
    return SimpleNamespace(
        scenario=path, seed=seed, resolution=tuple(res),
        g=[float(v) for v in cp.get("metric", "matrix").split()],
        a_base=cp.getfloat("schedule", "a"))


def _torus_run(inp, table, k):
    out = OUT / f"torus_run-{os.getpid()}-round{k}"
    with contextlib.redirect_stdout(sys.stderr):
        code = isoflex.cli.main(["run", "--scenario", str(inp.scenario),
                                 "--out", str(out), "--seed", str(inp.seed)])
    if code != 0:
        shutil.rmtree(out, ignore_errors=True)
        raise RuntimeError(f"isoflex run exited {code}")
    return out


def _torus_check(inp, out):
    try:
        nx, ny = inp.resolution
        summary = json.loads((out / "summary.json").read_text())
        final = checks.read_mesh_grid(out / "final.obj", nx + 1, ny + 1)
        initial = checks.read_mesh_grid(out / "initial.obj", nx + 1, ny + 1)
        problems, _ = checks.check_torus_run(final, initial, inp.g, summary,
                                             (1.0, 1.0), inp.a_base)
    except (OSError, ValueError, KeyError) as exc:
        raise CheckFailed(f"missing or malformed run output: {exc}") from exc
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if problems:
        raise CheckFailed("; ".join(problems))
    return summary["final"]["defect_relative"]


# ---------------------------------------------------------------------------
# metric_add: three conformal metric additions on a seeded smooth metric

KAPPA = 1.5
DELTA = 0.05


def _smooth_metric(chart, seed):
    """SPD field whose components are sums of four random low cosines."""
    rng = np.random.default_rng(seed)
    x, y = chart.mesh()

    def trig(scale):
        acc = np.zeros_like(x)
        for _ in range(4):
            kx, ky = rng.integers(-3, 4, 2)
            ph = rng.uniform(0, 2 * np.pi)
            acc += rng.uniform(-1, 1) * np.cos(2 * np.pi * (kx * x + ky * y) + ph)
        return scale * acc / max(np.max(np.abs(acc)), 1e-12)

    return MetricField.from_components(chart, 1.0 + trig(0.2), trig(0.1),
                                       1.0 + trig(0.2))


def _metric_setup(seed, smoke):
    n = 128 if smoke else 512
    chart = GridChart((1.0, 1.0), (n, n), PERIODIC)
    return SimpleNamespace(
        chart=chart, lams=(2.0, 3.0, 4.5) if smoke else (3.0, 6.0, 12.0),
        # below lam = 3 the stage's base frequency sits on the lowest torus
        # wave and the lam^(1 - kappa) decay has not set in yet
        slope_tol=np.inf if smoke else 0.3,
        g=_smooth_metric(chart, seed),
        h=MetricField.constant(chart, np.zeros((2, 2))),
        u=ImmersionField.flat(chart, scale=0.9),
        rho=ScalarField.constant(chart, 0.9 * np.sqrt(DELTA)))


def _metric_run(inp, table, k):
    return [isoflex.nash_step.add_metric_2d(
        inp.u, inp.rho, inp.g, inp.h, delta=DELTA, lam=lam, kappa=KAPPA,
        table=table) for lam in inp.lams]


def _metric_check(inp, outs):
    mine = [checks.metric_addition_defect(
        o.v.values, o.v.linear, inp.u.linear, inp.rho.values, inp.g.values,
        inp.h.values, inp.chart.extent) for o in outs]
    reported = [o.defect_sup for o in outs]
    problems, _ = checks.check_metric_addition(mine, reported, inp.lams, KAPPA,
                                                slope_tol=inp.slope_tol)
    if problems:
        raise CheckFailed("; ".join(problems))
    target = (inp.rho.values ** 2)[..., None] * (inp.g.values + inp.h.values)
    return reported[-1] / float(np.max(np.abs(target)))


# ---------------------------------------------------------------------------
# clamped_skeleton: one inductive pass over a triangle skeleton


TRIANGLE = ((0.35, 0.35), (0.65, 0.35), (0.5, 0.62))
C_SQ = 1.21
DELTA_STAR = 0.125


def _skeleton_setup(seed, smoke):
    ind = isoflex.induction
    n = 256 if smoke else 1024
    chart = GridChart((1.0, 1.0), (n, n), CLAMPED)
    g = MetricField.constant(chart, C_SQ * np.eye(2))
    u0 = ImmersionField.flat(chart, scale=np.sqrt(C_SQ * (1.0 - DELTA_STAR)))
    s_set = ind.SkeletonSet(0, points=TRIANGLE)
    sigma = ind.SkeletonSet(1, points=TRIANGLE, segments=(
        (TRIANGLE[0], TRIANGLE[1]), (TRIANGLE[1], TRIANGLE[2]),
        (TRIANGLE[2], TRIANGLE[0])))
    dist = s_set.distance_field(chart)
    rho0 = ScalarField(chart, np.minimum(np.sqrt(DELTA_STAR), 0.9 * np.sqrt(dist)))
    defect = g.values - isoflex.grid.pullback_metric(u0).values
    h0 = defect / np.maximum(rho0.values ** 2, 1e-30)[..., None] - g.values
    h0[rho0.values == 0.0] = 0.0
    state = ind.AdaptedState(u0, rho0, MetricField(chart, h0), s_set,
                             A=4.0, theta=0.15, alpha=0.1)
    theta, alpha = Fraction(3, 20), Fraction(1, 10)
    sched = ind.build_schedule(
        max(4.0, ind.minimal_adequate_a(theta, alpha, DELTA_STAR)),
        theta, alpha, DELTA_STAR)
    ladder = ind.desk_ladder(sched, DELTA_STAR, chart, depth=2,
                             base_frequency=4 * np.pi, tube_radius=0.09)
    return SimpleNamespace(
        chart=chart, g=g, state=state, sigma=sigma, sched=sched, ladder=ladder,
        vertices=[(int(round(x * (n - 1))), int(round(y * (n - 1))))
                  for x, y in TRIANGLE])


def _skeleton_run(inp, table, k):
    ind = isoflex.induction
    new_state, history, truncation = ind.inductive_pass(
        inp.state, inp.sigma, inp.sched, inp.ladder, 2, inp.g,
        ind.PassConfig(table=table))
    _, records = ind.rho_recursion_audit(inp.state.rho, inp.sigma,
                                         inp.state.s_set, inp.ladder, 4)
    return new_state, records


def _skeleton_check(inp, raw):
    new_state, records = raw
    problems, rel = checks.check_clamped_skeleton(
        new_state.u.values, inp.state.u.values, inp.vertices, inp.g.values,
        inp.chart.spacing, DELTA_STAR)
    if len(records) != 4:
        problems.append(f"recursion audit returned {len(records)} of 4 levels")
    if problems:
        raise CheckFailed("; ".join(problems))
    return rel


WORKLOADS = {
    "torus_run": Workload(1, _torus_setup, _torus_run, _torus_check,
                          uses_table=False),
    "metric_add": Workload(3, _metric_setup, _metric_run, _metric_check),
    "clamped_skeleton": Workload(2, _skeleton_setup, _skeleton_run, _skeleton_check),
}


# ---------------------------------------------------------------------------


def setup(workload, seed, smoke):
    """Build the table and the inputs; returns (table, inputs, seconds).

    The table is always built and timed, but handed back only to workloads
    that use it, so that it does not count in the others' peak memory.
    """
    t0 = time.perf_counter()
    table = isoflex.corrugation.build_corrugation()
    inputs = workload.setup(seed, smoke)
    seconds = time.perf_counter() - t0
    return (table if workload.uses_table else None), inputs, seconds


def run_round(workload, table, inputs, k, tally):
    """One timed round plus its checks; returns its wall time or None."""
    t0 = time.perf_counter()
    try:
        raw = workload.run(inputs, table, k)
    except Exception:
        traceback.print_exc()
        tally["failed"] += workload.ops
        return None
    wall = time.perf_counter() - t0
    try:
        tally["defects"].append(workload.check(inputs, raw))
    except CheckFailed as exc:
        print(f"check failed in round {k}: {exc}", file=sys.stderr)
        tally["failed"] += workload.ops
        tally["correct"] = False
    return wall


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), default="measure")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()
    table, inputs, setup_s = setup(workload, args.seed, args.smoke)
    result = {"setup_s": IMPORT_S + setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tally = {"failed": 0, "correct": True, "defects": []}
    walls, rounds = [], 0
    while True:
        wall = run_round(workload, table, inputs, rounds, tally)
        rounds += 1
        if wall is None:
            break  # a crashed round ends the run
        walls.append(wall)
        # start another round only if it should end within --seconds
        if args.mode != "measure" or sum(walls) * (rounds + 1) / rounds > args.seconds:
            break
    result.update({
        "attempted": rounds * workload.ops, "failed": tally["failed"],
        "correct": tally["correct"], "walls": walls,
        "defect_rel": tally["defects"], "peak_rss_mb": peak_rss_mb()})
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
