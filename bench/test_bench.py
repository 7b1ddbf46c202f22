"""Tests of the benchmark harness itself, on small grids.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q

Every output check must reject a deliberately wrong result; the smoke runs
take every workload end to end at reduced size.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
from tracer import Tracer, metric_names  # noqa: E402

from isoflex.corrugation import build_corrugation  # noqa: E402
from isoflex.grid import (  # noqa: E402
    CLAMPED, PERIODIC, GridChart, ImmersionField, MetricField, ScalarField)
from isoflex.io import export_mesh  # noqa: E402
from isoflex.nash_step import add_metric_2d  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_subtracts_direct_children():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    outer()
    # outer spans clock ticks 1..6, each inner call one tick
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.self_times() == [3.0, 1.0, 1.0]


def test_install_wraps_every_binding_and_uninstall_restores():
    import isoflex
    import isoflex.grid
    import isoflex.induction
    import isoflex.nash_step

    original = isoflex.grid.pullback_metric
    tracer = Tracer()
    tracer.install()
    try:
        for module in (isoflex, isoflex.grid, isoflex.induction, isoflex.nash_step):
            assert module.pullback_metric is not original
        chart = GridChart((1.0, 1.0), (16, 16), PERIODIC)
        isoflex.induction.pullback_metric(ImmersionField.flat(chart))
        out = tracer.summary()
    finally:
        tracer.uninstall()
    assert isoflex.grid.pullback_metric is original
    assert isoflex.induction.pullback_metric is original
    assert out["grid.pullback_metric.calls"] == 1
    # pullback_metric -> jacobian (twice, via min_singular_value) -> _diff1
    assert out["grid.ImmersionField.jacobian.calls"] == 2
    assert out["grid._diff1.calls"] == 4
    assert out["grid._diff1.mb"] == pytest.approx(4 * 2 * 16 * 16 * 3 * 8 / 1e6)
    assert set(out) | {"trace.overhead_s"} == {name for name, _ in metric_names()}


def test_spec_lists_every_traced_metric():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == metric_names()


# ---------------------------------------------------------------------------
# output checks reject wrong results


def _torus_mesh(tmp_path, name, u):
    path = tmp_path / name
    export_mesh(u, path)
    n = u.chart.resolution[0]
    return checks.read_mesh_grid(path, n + 1, n + 1)


@pytest.fixture
def torus_case(tmp_path):
    chart = GridChart((1.0, 1.0), (64, 64), PERIODIC)
    g = (1.44, 0.0, 1.44)
    x, y = chart.mesh()
    wave = 0.0005 * np.stack([np.sin(2 * np.pi * x), np.cos(2 * np.pi * y),
                             np.sin(2 * np.pi * (x + y))], axis=-1)
    final = ImmersionField.flat(chart, scale=1.1).displaced(wave)
    initial = ImmersionField.flat(chart)
    fv = _torus_mesh(tmp_path, "final.obj", final)
    iv = _torus_mesh(tmp_path, "initial.obj", initial)
    _, rel = checks.check_torus_run(fv, iv, g, {
        "bootstrap": {"delta_star": 0.125},
        "final": {"defect_relative": 0.0, "displacement_total": 1.0}}, (1.0, 1.0), 4.0)
    moved = float(np.max(np.linalg.norm(fv - iv, axis=-1)))
    summary = {"bootstrap": {"delta_star": 0.125},
               "final": {"defect_relative": rel, "displacement_total": moved + 1e-3}}
    return fv, iv, g, summary


def test_torus_check_accepts_a_short_map(torus_case):
    fv, iv, g, summary = torus_case
    problems, rel = checks.check_torus_run(fv, iv, g, summary, (1.0, 1.0), 4.0)
    assert problems == []
    # flat map of scale 1.1 against g = 1.44 I: defect (1.44 - 1.21) / 1.44
    assert rel == pytest.approx(0.23 / 1.44, rel=0.05)


def test_torus_check_rejects_a_perturbed_immersion(torus_case, tmp_path):
    fv, iv, g, summary = torus_case
    chart = GridChart((1.0, 1.0), (64, 64), PERIODIC)
    x, _ = chart.mesh()
    bump = np.zeros((64, 64, 3))
    bump[..., 2] = 0.02 * np.sin(2 * np.pi * 8 * x)   # slope up to 1.0: not short
    bent = _torus_mesh(tmp_path, "bent.obj",
                       ImmersionField.flat(chart, scale=1.1).displaced(bump))
    problems, _ = checks.check_torus_run(bent, iv, g, summary, (1.0, 1.0), 4.0)
    assert any("not positive definite" in p for p in problems)


def test_torus_check_takes_the_band_from_the_runs_delta_star(torus_case):
    fv, iv, g, summary = torus_case
    # defect 0.16 lies inside (3/2)(1/8) but outside (3/2)(1/16)
    narrower = dict(summary, bootstrap={"delta_star": 0.0625})
    problems, _ = checks.check_torus_run(fv, iv, g, narrower, (1.0, 1.0), 4.0)
    assert any("(3/2) delta* = 0.09375" in p for p in problems)


def test_torus_check_rejects_a_misreported_summary(torus_case):
    fv, iv, g, summary = torus_case
    wrong = dict(summary, final=dict(summary["final"]))
    wrong["final"]["defect_relative"] += 1e-4
    problems, _ = checks.check_torus_run(fv, iv, g, wrong, (1.0, 1.0), 4.0)
    assert any("recomputed" in p for p in problems)
    wrong["final"] = dict(summary["final"], displacement_total=0.6)
    problems, _ = checks.check_torus_run(fv, iv, g, wrong, (1.0, 1.0), 4.0)
    assert any("A^(-1/2)" in p for p in problems)
    wrong["final"] = dict(summary["final"], displacement_total=1e-3)
    problems, _ = checks.check_torus_run(fv, iv, g, wrong, (1.0, 1.0), 4.0)
    assert any("meshes moved" in p for p in problems)


def test_torus_check_fails_on_missing_output(tmp_path):
    import workload

    inp = workload.WORKLOADS["torus_run"].setup(1, True)
    with pytest.raises(workload.CheckFailed, match="missing or malformed"):
        workload.WORKLOADS["torus_run"].check(inp, tmp_path / "no-run")


@pytest.fixture(scope="module")
def metric_case():
    chart = GridChart((1.0, 1.0), (128, 128), PERIODIC)
    g = MetricField.constant(chart, np.eye(2))
    h = MetricField.constant(chart, np.zeros((2, 2)))
    u = ImmersionField.flat(chart, scale=0.9)
    rho = ScalarField.constant(chart, 0.9 * np.sqrt(0.05))
    lams = (3.0, 6.0)
    table = build_corrugation()
    outs = [add_metric_2d(u, rho, g, h, delta=0.05, lam=lam, kappa=1.5, table=table)
            for lam in lams]
    return chart, g, h, u, rho, lams, outs


def _recompute(case, values):
    chart, g, h, u, rho, _, outs = case
    return [checks.metric_addition_defect(v, o.v.linear, u.linear, rho.values,
                                          g.values, h.values, chart.extent)
            for v, o in zip(values, outs)]


def test_metric_check_agrees_with_the_engine(metric_case):
    *_, lams, outs = metric_case
    mine = _recompute(metric_case, [o.v.values for o in outs])
    problems, _ = checks.check_metric_addition(
        mine, [o.defect_sup for o in outs], lams, 1.5, slope_tol=np.inf)
    assert problems == []


def test_metric_check_rejects_a_misreported_defect(metric_case):
    *_, lams, outs = metric_case
    mine = _recompute(metric_case, [o.v.values for o in outs])
    wrong = [o.defect_sup * 1.01 for o in outs]
    problems, _ = checks.check_metric_addition(mine, wrong, lams, 1.5, slope_tol=np.inf)
    assert len(problems) == 2


def test_metric_check_rejects_a_perturbed_immersion(metric_case):
    chart, *_, lams, outs = metric_case
    x, y = chart.mesh()
    kick = 0.01 * np.sin(2 * np.pi * 5 * x)[..., None] * np.array([0.0, 0.0, 1.0])
    mine = _recompute(metric_case, [o.v.values + kick for o in outs])
    problems, _ = checks.check_metric_addition(
        mine, [o.defect_sup for o in outs], lams, 1.5, slope_tol=np.inf)
    assert len(problems) == 2


def test_metric_check_rejects_a_wrong_decay_rate():
    defects = [0.1, 0.1 * 2 ** -0.5, 0.05]        # slope -0.5: accepted
    assert checks.check_metric_addition(defects, defects, (3.0, 6.0, 12.0), 1.5)[0] == []
    flat = [0.1, 0.1, 0.1]                          # slope 0: rejected
    problems, slope = checks.check_metric_addition(flat, flat, (3.0, 6.0, 12.0), 1.5)
    assert slope == pytest.approx(0.0, abs=1e-12) and problems


@pytest.fixture
def clamped_case():
    chart = GridChart((1.0, 1.0), (65, 65), CLAMPED)
    g = MetricField.constant(chart, 1.21 * np.eye(2)).values
    u = ImmersionField.flat(chart, scale=np.sqrt(1.21 * 0.875)).values
    return chart, g, u, [(16, 16), (48, 16), (32, 40)]


def test_clamped_check_accepts_an_untouched_adapted_map(clamped_case):
    chart, g, u, verts = clamped_case
    problems, rel = checks.check_clamped_skeleton(u, u, verts, g, chart.spacing, 0.125)
    assert problems == [] and rel == pytest.approx(0.125)


def test_clamped_check_rejects_a_moved_vertex(clamped_case):
    chart, g, u, verts = clamped_case
    moved = u.copy()
    moved[48, 16, 2] += 1e-9
    problems, _ = checks.check_clamped_skeleton(moved, u, verts, g, chart.spacing, 0.125)
    assert any("vertex moved" in p for p in problems)


def test_clamped_check_rejects_a_stretched_map(clamped_case):
    chart, g, u, verts = clamped_case
    x, y = chart.mesh()
    stretched = u.copy()
    stretched[..., 0] += 0.2 * x * np.where((x > 0.6) & (y > 0.6), 1.0, 0.0) * (x - 0.6)
    problems, _ = checks.check_clamped_skeleton(stretched, u, verts, g,
                                                chart.spacing, 0.125)
    assert any("positive semidefinite" in p for p in problems)
    sagging = 0.8 * u
    problems, _ = checks.check_clamped_skeleton(sagging, sagging, verts, g,
                                                chart.spacing, 0.125)
    assert any("(3/2) delta*" in p for p in problems)


# ---------------------------------------------------------------------------
# end to end


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", "0", "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_trace_reports_every_layer_metric():
    proc = _run(["--workload", "metric_add", "--seed", "3", "--seconds", "0.1",
                 "--trace", "1", "--smoke"])
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: m["unit"] for name, m in metrics.items()}
    assert metrics["nash_step.add_metric_2d.calls"]["value"] == 3
    assert metrics["decomposition.solve_conformal.calls"]["value"] == 3


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "torus_run", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
