"""Command-line entry point: scenario runs, benchmarks, and dumps.

Exit codes, one policy for every command: 0 success; 2 assertion failure
inside a run, or the engine refusing its input (a precondition, shortness,
resolution, domain, chart, Beltrami or schedule error); 3 any other
ValueError, a configuration error; 4 any other exception, an internal
error, whose traceback a run writes to summary.json and the other commands
to stderr.  Reports are JSON (summaries), JSON lines (per-stage history)
and CSV (corrugation profiles); meshes are Wavefront-style text.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import induction
from .corrugation import CorrugationDomainError, build_corrugation
from .decomposition import BeltramiError, PhaseField, solve_conformal
from .grid import (CLAMPED, PERIODIC, ChartError, GridChart, ImmersionField, MetricField,
                   ScalarField, ShortnessReport, UnderResolvedError, pullback_metric)
from .io import export_mesh
from .nash_step import ShortnessLostError, StepPreconditionError, step
from .scenario import ScenarioError, depth_problem, parse_scenario

EXIT_OK = 0
EXIT_ASSERTION = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4

# the engine refusing its input: exit EXIT_ASSERTION from every command
REFUSALS = (StepPreconditionError, ShortnessLostError, UnderResolvedError,
            CorrugationDomainError, ChartError, BeltramiError,
            induction.ScheduleError)


def _plain(obj):
    """obj with numpy values as Python ones and inf, -inf, nan as strings."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    return str(obj) if isinstance(obj, float) and not np.isfinite(obj) else obj


def _json(payload, **kwargs):
    """Strict JSON of payload, with str() of anything JSON has no form for."""
    return json.dumps(_plain(payload), allow_nan=False, default=str, **kwargs)


def _dump_json(payload, path):
    Path(path).write_text(_json(payload, indent=2) + "\n")


# Peak RSS of `isoflex run` is a fixed cost (interpreter, numpy and the
# package; a run on a torus loads no scipy) plus a cost per grid node.
# Both are fitted to the VmHWM of runs on the flat 256^2 and 512^2 tori
# with g = 1.44 I: 57.7 and 102.0 MiB (59,036 and 104,480 kB, medians of
# 3), the same at depth 1 and 4 to 0.3% (Linux x86-64, Python 3.11,
# numpy 2.4).
RSS_FIXED_BYTES = 44_900_000
RSS_BYTES_PER_NODE = 237


def _memory_estimate(resolution):
    return RSS_FIXED_BYTES + RSS_BYTES_PER_NODE * resolution[0] * resolution[1]


def cmd_run(args) -> int:
    try:
        scenario = parse_scenario(args.scenario)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG

    depth = args.depth if args.depth is not None else scenario.depth
    problem = depth_problem(depth, scenario.delta_star)
    if problem:
        print(f"--depth {depth} rejected: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else scenario.seed

    resolved = dict(scenario.resolved)
    resolved.update({"depth": depth, "seed": seed})
    print(_json({"scenario": resolved}))

    if args.dry_run:
        a_min = induction.minimal_adequate_a(scenario.theta, scenario.alpha, 0.125)
        sched = induction.build_schedule(max(scenario.a_base, a_min), scenario.theta,
                                         scenario.alpha, 0.125, depth=depth + 2)
        _dump_json({
            "dry_run": True, "scenario": resolved,
            "memory_bytes_estimate": _memory_estimate(scenario.resolution),
            "exact_ladder": {"A": sched.A, "b": str(sched.b),
                             "lam": list(sched.lam), "delta": list(sched.delta)},
        }, out_dir / "summary.json")
        return EXIT_OK

    t0 = time.perf_counter()
    table = build_corrugation()
    g = scenario.metric()
    u0 = scenario.initial_map()
    # written first, so a refused or killed run keeps it; the final mesh,
    # on the same chart, copies its face lines
    export_mesh(u0, out_dir / "initial.obj")

    try:
        state, report = induction.run_global(
            g, u0, scenario.theta, scenario.alpha, scenario.a_base, depth,
            table, skeleta=scenario.skeleta(),
            bootstrap_delta_star=scenario.delta_star)
    except Exception as exc:
        refused = isinstance(exc, REFUSALS)
        record = {"scenario": resolved, "error": str(exc),
                  "wall_time": time.perf_counter() - t0}
        if not refused:
            record["traceback"] = traceback.format_exc()
        _dump_json(record, out_dir / "summary.json")
        if refused:
            print(f"run failed: {exc}", file=sys.stderr)
            return EXIT_ASSERTION
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL

    export_mesh(state.u, out_dir / "final.obj", faces_from=out_dir / "initial.obj")
    cert = report["final"]["certificate"]
    shortness = ShortnessReport.classify(cert["short_min_eig"], cert["strong_band_margin"])

    with open(out_dir / "history.jsonl", "w") as fh:
        for p in report["passes"]:
            for stage in p.get("stages", []):
                fh.write(_json({"level": p["level"], **stage}) + "\n")

    failed = []
    for p in report["passes"]:
        for stage in p.get("stages", []):
            if not stage.get("active"):
                continue
            if stage.get("factorization_residual", 0.0) > 1e-9:
                failed.append(f"(1)_q residual at level {p['level']} q {stage['q']}")
            for key in ("cond3_hess_ok", "cond3_grad_rho_ok"):
                if stage.get(key) is False:
                    failed.append(f"{key} at level {p['level']} q {stage['q']}")
        for lemma in p.get("rho_lemma", []):
            if not lemma["ok"]:
                failed.append(f"rho recursion at level {p['level']} q {lemma['q']}")
    if report["final"]["short_min_eig"] <= 0:
        failed.append("final shortness")

    summary = {
        "scenario": resolved,
        "wall_time": time.perf_counter() - t0,
        "bootstrap": report["bootstrap"],
        "schedules": report["schedules"],
        "passes": [{k: v for k, v in p.items() if k != "stages"}
                   for p in report["passes"]],
        "final": report["final"],
        "shortness": {"classification": shortness.classification,
                      "min_eigenvalue": shortness.min_eigenvalue,
                      "strong_short": shortness.strong_short},
        "failed_assertions": failed,
        "seed": seed,
    }
    _dump_json(summary, out_dir / "summary.json")
    print(_json({"final": report["final"], "failed_assertions": failed}))
    return EXIT_ASSERTION if failed else EXIT_OK


def cmd_step_bench(args) -> int:
    if not 0.0 < args.eps <= 1.0:  # eps is the squared amplitude of the bump
        raise ValueError(f"need 0 < eps <= 1, got eps={args.eps}")
    table = build_corrugation()
    n = args.resolution
    chart = GridChart((1.0, 1.0), (n, n), CLAMPED)
    u = ImmersionField.flat(chart)
    eps = args.eps

    def bump(x, y):
        r2 = ((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.3 ** 2
        return np.sqrt(eps) * np.where(r2 < 1, (1 - r2) ** 3, 0.0)

    pb_u = pullback_metric(u)
    rho = ScalarField.from_function(chart, bump)
    phi = PhaseField.linear_phase(chart, (1.0, 0.0))
    records = []
    for lam in args.lambdas:
        t0 = time.perf_counter()
        out = step(u, rho, phi, lam, table, pb_u)
        rec = {"lam": lam, "sup_defect": out.defect_sup, "c1_defect": out.defect_c1,
               "c2_norm": out.v_norms.c2_norm, "gamma_bar": out.gamma_bar,
               "support_ok": out.support_ok, "wall_time": time.perf_counter() - t0}
        records.append(rec)
        print(_json(rec))
    if len(records) >= 2:
        lams = np.log([r["lam"] for r in records])
        defs = np.log([r["sup_defect"] for r in records])
        slope = float(np.polyfit(lams, defs, 1)[0])
        print(_json({"slope": slope}))
    return EXIT_OK


def cmd_conformal_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    chart = GridChart((1.0, 1.0), (args.resolution, args.resolution), PERIODIC)
    x, y = chart.mesh()

    def trig(scale):
        acc = np.zeros_like(x)
        for _ in range(4):
            kx, ky = rng.integers(-3, 4, 2)
            ph = rng.uniform(0, 2 * np.pi)
            acc += rng.uniform(-1, 1) * np.cos(2 * np.pi * (kx * x + ky * y) + ph)
        return scale * acc / max(np.max(np.abs(acc)), 1e-12)

    h = MetricField.from_components(chart, 1.0 + trig(args.amplitude),
                                    trig(0.5 * args.amplitude),
                                    1.0 + trig(args.amplitude))
    fac = solve_conformal(h, residual_tol=np.inf)
    print(_json({
        "resolution": args.resolution, "amplitude": args.amplitude,
        "residual_sup": fac.residual_sup,
        "residual_mean": float(np.mean(np.abs(fac.residual.values))),
        "iterations": fac.iterations, "contraction": fac.contraction, **fac.stats}))
    return EXIT_OK


def cmd_corrugation_dump(args) -> int:
    table = build_corrugation(s_max=args.s_max)
    t = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    rows = [t]
    header = ["t"]
    for s in args.amplitudes:
        for name in ("g1", "g2", "dt_g1", "dt_g2"):
            rows.append(table.eval(np.full_like(t, s), t, name))
            header.append(f"{name}_s{s:g}")
    out = Path(args.out) if args.out else None
    text = ",".join(header) + "\n"
    body = np.column_stack(rows)
    text += "\n".join(",".join(f"{v:.12g}" for v in row) for row in body) + "\n"
    if out:
        out.write_text(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="isoflex",
                                 description="staged corrugation engine")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario")
    run.add_argument("--scenario", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--depth", type=int, default=None)
    run.add_argument("--seed", type=int, default=None,
                     help="recorded in the reports; nothing in a run is random")
    run.add_argument("--dry-run", action="store_true")
    run.set_defaults(func=cmd_run)

    sb = sub.add_parser("step-bench", help="single-step frequency sweep")
    sb.add_argument("--lambdas", type=float, nargs="+", default=[64.0, 128.0, 256.0])
    sb.add_argument("--resolution", type=int, default=1024)
    sb.add_argument("--eps", type=float, default=0.01)
    sb.set_defaults(func=cmd_step_bench)

    cc = sub.add_parser("conformal-check", help="random SPD Beltrami solve")
    cc.add_argument("--resolution", type=int, default=256)
    cc.add_argument("--amplitude", type=float, default=0.2)
    cc.add_argument("--seed", type=int, default=0)
    cc.set_defaults(func=cmd_conformal_check)

    cd = sub.add_parser("corrugation-dump", help="dump corrugation profiles as CSV")
    cd.add_argument("--amplitudes", type=float, nargs="+", default=[0.25, 0.5, 1.0])
    cd.add_argument("--s-max", type=float, default=1.0)
    cd.add_argument("--out", default=None)
    cd.set_defaults(func=cmd_corrugation_dump)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except REFUSALS as exc:
        print(f"{args.command} refused: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:  # hand the heap the command freed back to the OS (glibc only)
        with contextlib.suppress(AttributeError, OSError, TypeError):
            ctypes.CDLL(None).malloc_trim(0)


if __name__ == "__main__":
    sys.exit(main())
