import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import isoflex
import isoflex.induction
from isoflex.cli import main
from isoflex.grid import check_short
from isoflex.io import export_mesh
from isoflex.scenario import ScenarioError, depth_problem, parse_scenario

BENCH = Path(__file__).resolve().parents[1] / "bench"

MINIMAL_TORUS = """
[chart]
resolution = 64 64
boundary = periodic

[metric]
kind = constant
matrix = 1.44 0.0 1.44
"""


def write(tmp_path, text, name="s.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParse:
    def test_minimal_with_defaults_echoed(self, tmp_path):
        sc = parse_scenario(write(tmp_path, MINIMAL_TORUS))
        assert sc.resolution == (64, 64)
        assert sc.boundary == "periodic"
        assert sc.theta == 0.15
        assert sc.resolved["depth"] == 4
        g = sc.metric()
        assert np.allclose(g.values[..., 0], 1.44)
        assert sc.initial_map().chart.same_grid(sc.chart())

    def test_theta_band_rejected(self, tmp_path):
        bad = MINIMAL_TORUS + "\n[schedule]\ntheta = 0.25\n"
        with pytest.raises(ScenarioError, match="1/5"):
            parse_scenario(write(tmp_path, bad))

    def test_lambda_budget_is_unknown_key(self, tmp_path):
        bad = MINIMAL_TORUS + "\n[schedule]\nlambda_budget = 128\n"
        with pytest.raises(ScenarioError, match="unknown key 'lambda_budget'"):
            parse_scenario(write(tmp_path, bad))

    def test_only_flat_map_kind(self, tmp_path):
        bad = MINIMAL_TORUS + "\n[map]\nkind = scaled\n"
        with pytest.raises(ScenarioError, match="unknown map kind 'scaled'"):
            parse_scenario(write(tmp_path, bad))

    @pytest.mark.parametrize("factor", [
        "().__class__.__base__.__subclasses__()",
        "x.__class__",
        "__import__('os').getcwd()",
        "open('/dev/null')",
        "sin(x=1)",
        "[1][0]",
        "1 if x else 2",
        "True + 1",
    ])
    def test_factor_outside_grammar_rejected(self, tmp_path, factor):
        text = MINIMAL_TORUS.replace(
            "kind = constant\nmatrix = 1.44 0.0 1.44",
            f"kind = conformal\nfactor = {factor}")
        with pytest.raises(ScenarioError, match="conformal factor does not evaluate"):
            parse_scenario(write(tmp_path, text))

    def test_factor_grammar_matches_numpy(self, tmp_path):
        expr = "1.2 + 0.05 * sin(2 * pi * x) * cos(2*pi*y) - -0.01 * x**2 / 3"
        text = MINIMAL_TORUS.replace(
            "kind = constant\nmatrix = 1.44 0.0 1.44", f"kind = conformal\nfactor = {expr}")
        g = parse_scenario(write(tmp_path, text)).metric()
        x, y = g.chart.mesh()
        ref = 1.2 + 0.05 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) - -0.01 * x ** 2 / 3
        assert np.array_equal(g.values[..., 0], ref ** 2)

    def test_all_problems_reported_at_once(self, tmp_path):
        bad = """
[chart]
resolution = 4 4
boundary = moebius

[metric]
kind = constant
matrix = 1.0 2.0 1.0

[schedule]
theta = 0.5

[mystery]
key = 1
"""
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(write(tmp_path, bad))
        text = str(exc.value)
        for frag in ("resolution", "boundary", "positive definite", "1/5",
                     "unknown section"):
            assert frag in text

    def test_unparsable_seed_and_delta_star_reported(self, tmp_path):
        bad = MINIMAL_TORUS + "\n[scenario]\nseed = x1\n\n[schedule]\ndelta_star = an eighth\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(write(tmp_path, bad))
        assert exc.value.problems == ["cannot parse seed 'x1' in [scenario]",
                                      "cannot parse delta_star 'an eighth' in [schedule]"]

    def test_unknown_key_rejected(self, tmp_path):
        bad = MINIMAL_TORUS + "\n[map]\nwarp = 3\n"
        with pytest.raises(ScenarioError, match="unknown key"):
            parse_scenario(write(tmp_path, bad))

    def test_conformal_factor(self, tmp_path):
        sc = parse_scenario(write(tmp_path, """
[chart]
resolution = 32 32
boundary = periodic

[metric]
kind = conformal
factor = 1.2 + 0.1*cos(2*pi*x)
"""))
        g = sc.metric()
        assert g.values[..., 0].min() >= 1.1 ** 2 - 1e-9
        assert np.allclose(g.values[..., 1], 0.0)

    def test_triangulation_parsing(self, tmp_path):
        sc = parse_scenario(write(tmp_path, """
[chart]
resolution = 64 64
boundary = clamped

[skeleton]
kind = triangulation
vertices = 0.3 0.3; 0.7 0.3; 0.5 0.65
edges = 0-1; 1-2; 2-0
"""))
        levels = sc.skeleta()
        assert levels[0].points == ((0.3, 0.3), (0.7, 0.3), (0.5, 0.65))
        assert len(levels[1].segments) == 3
        assert levels[2].whole

    def test_zero_length_edges_reported(self, tmp_path, capsys):
        # an edge from a vertex to itself, between two equal vertices, or so
        # short that its squared length underflows would give the skeleton
        # NaN distances
        bad = write(tmp_path, """
[chart]
resolution = 64 64
boundary = clamped

[skeleton]
kind = triangulation
vertices = 0.3 0.3; 0.3 0.3; 0.5 0.65; 1e-200 0.5; 2e-200 0.5
edges = 0-0; 0-1; 1-2; 3-4
""")
        with pytest.raises(ScenarioError) as err:
            parse_scenario(bad)
        assert err.value.problems == ["edge (0, 0) has zero length",
                                      "edge (0, 1) has zero length",
                                      "edge (3, 4) has zero length"]
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(bad), "--out", str(out)]) == 3
        assert "edge (0, 1) has zero length" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("chart, problem", [
        ("resolution = 64.9 64", "resolution takes one or two whole numbers, got [64.9, 64.0]"),
        ("resolution = 64 64 99",
         "resolution takes one or two whole numbers, got [64.0, 64.0, 99.0]"),
        ("resolution = 64\nextent = 1 1 5", "extent takes one or two numbers, got [1.0, 1.0, 5.0]"),
    ], ids=["fractional", "three-resolutions", "three-extents"])
    def test_chart_numbers_are_not_dropped(self, tmp_path, chart, problem):
        bad = MINIMAL_TORUS.replace("resolution = 64 64", chart)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, bad))
        assert err.value.problems == [problem]

    def test_one_chart_number_stands_for_both_axes(self, tmp_path):
        sc = parse_scenario(write(tmp_path, MINIMAL_TORUS.replace(
            "resolution = 64 64", "resolution = 48\nextent = 2")))
        assert sc.resolution == (48, 48) and sc.extent == (2.0, 2.0)

    def test_triangulation_needs_vertices(self, tmp_path):
        bad = """
[chart]
resolution = 64 64

[skeleton]
kind = triangulation
vertices =
"""
        with pytest.raises(ScenarioError) as err:
            parse_scenario(write(tmp_path, bad))
        assert err.value.problems == ["a triangulation skeleton needs at least one vertex"]

    def test_skeleton_needs_clamped_chart(self, tmp_path):
        bad = MINIMAL_TORUS + """
[skeleton]
kind = triangulation
vertices = 0.3 0.3
edges =
"""
        with pytest.raises(ScenarioError, match="clamped"):
            parse_scenario(write(tmp_path, bad))


    def test_depth_bound_is_where_the_amplitude_levels_underflow(self):
        # a pass of depth d reads delta_1 4^(-q) up to q = d
        for delta_star in (None, 0.125, 2.0 ** -20):
            delta1 = 0.125 if delta_star is None else delta_star
            deepest = max(d for d in range(1, 600) if delta1 * 0.25 ** d > 0.0)
            assert delta1 * 0.25 ** (deepest + 1) == 0.0
            assert depth_problem(deepest, delta_star) is None
            assert f"at most {deepest}" in depth_problem(deepest + 1, delta_star)
        assert depth_problem(0, None) == "depth must be at least 1"


NON_FINITE = """
[chart]
extent = nan 1
resolution = inf 64
boundary = periodic

[metric]
kind = constant
matrix = 1.44 0.0 inf

[map]
scale = nan

[schedule]
a = nan
delta_star = -inf
depth = 1000000
"""


class TestCli:
    def test_non_finite_numbers_are_config_errors_together(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--scenario", str(write(tmp_path, NON_FINITE)), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        for frag in ("extent 'nan 1' in [chart] is not finite",
                     "resolution 'inf 64' in [chart] is not finite",
                     "matrix '1.44 0.0 inf' in [metric] is not finite",
                     "scale 'nan' in [map] is not finite",
                     "a 'nan' in [schedule] is not finite",
                     "delta_star '-inf' in [schedule] is not finite",
                     "depth must be at most"):
            assert frag in err
        assert not out.exists()

    def test_deep_ladder_truncates_on_the_frequency_ceiling(self, tmp_path):
        # the flat map on a 256^2 torus: lam_q saturates at inf instead of
        # overflowing, and the pass truncates at q = 0 as at depth 1
        p = write(tmp_path, MINIMAL_TORUS.replace("64 64", "256 256"))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(p), "--out", str(out), "--depth", "300"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passes"][-1]["truncation"]["reason"] == "frequency ceiling"
        assert summary["failed_assertions"] == []

    def test_depth_past_amplitude_underflow_refused_at_parse(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--scenario", str(write(tmp_path, MINIMAL_TORUS)),
                   "--out", str(out), "--depth", "1000000"])
        assert rc == 3
        assert "--depth 1000000 rejected: depth must be at most" in capsys.readouterr().err
        assert not out.exists()

    def test_shortness_is_check_short_on_the_final_state(self, tmp_path, monkeypatch):
        # summary.json's shortness comes from the final certificate
        run_global = isoflex.induction.run_global
        seen = {}

        def keeping(g, *args, **kwargs):
            seen["g"] = g
            seen["state"], report = run_global(g, *args, **kwargs)
            return seen["state"], report

        monkeypatch.setattr(isoflex.induction, "run_global", keeping)
        p = write(tmp_path, MINIMAL_TORUS.replace("64 64", "256 256")
                  + "\n[schedule]\ndepth = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(p), "--out", str(out)]) == 0
        state = seen["state"]
        want = check_short(state.u, seen["g"], state.h, pb=state.pullback)
        got = json.loads((out / "summary.json").read_text())["shortness"]
        assert got == {"classification": want.classification,
                       "min_eigenvalue": want.min_eigenvalue,
                       "strong_short": want.strong_short}
    def test_missing_scenario_is_config_error(self, tmp_path, capsys):
        rc = main(["run", "--scenario", str(tmp_path / "absent.ini"),
                   "--out", str(tmp_path / "out")])
        assert rc == 3

    @pytest.mark.parametrize("libc", ["glibc", "other"])
    def test_freed_heap_handed_back_after_a_command(self, tmp_path, monkeypatch, libc):
        # an in-process caller keeps none of the heap a run freed; without
        # glibc's malloc_trim the command's result is unchanged
        import isoflex.cli as cli

        trims = []

        class Lib:
            def __getattr__(self, name):
                if libc == "glibc" and name == "malloc_trim":
                    return trims.append
                raise AttributeError(name)

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Lib())
        out = tmp_path / "out"
        rc = main(["run", "--scenario", str(write(tmp_path, MINIMAL_TORUS)),
                   "--out", str(out), "--dry-run"])
        assert rc == 0 and (out / "summary.json").exists()
        assert trims == ([0] if libc == "glibc" else [])

    @pytest.mark.parametrize("depth", ["0", "-2"])
    def test_depth_below_one_is_config_error(self, tmp_path, capsys, depth):
        out = tmp_path / "out"
        rc = main(["run", "--scenario", str(write(tmp_path, MINIMAL_TORUS)),
                   "--out", str(out), "--depth", depth])
        assert rc == 3
        assert "depth must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_numbers_are_config_errors_together(self, tmp_path, capsys):
        bad = MINIMAL_TORUS + "\n[schedule]\na = four\ndepth = two\ntheta = 0.3\n"
        out = tmp_path / "out"
        rc = main(["run", "--scenario", str(write(tmp_path, bad)), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        for frag in ("cannot parse a 'four' in [schedule]",
                     "cannot parse depth 'two' in [schedule]", "theta = 0.3 rejected"):
            assert frag in err
        assert not out.exists()

    def test_factor_escape_is_config_error(self, tmp_path, capsys):
        p = write(tmp_path, MINIMAL_TORUS.replace(
            "kind = constant\nmatrix = 1.44 0.0 1.44",
            "kind = conformal\nfactor = ().__class__.__base__.__subclasses__()"))
        rc = main(["run", "--scenario", str(p), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "not allowed" in capsys.readouterr().err

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    @pytest.mark.parametrize("factor, first", [
        ("0.5 - x",
         "2048 of 4096 nodes, the first at x = 0.507937, y = 0, where it is -0.00793651"),
        ("sqrt(x - 0.3)", "1216 of 4096 nodes, the first at x = 0, y = 0, where it is nan"),
    ], ids=["negative", "nan"])
    def test_factor_checked_at_every_chart_node(self, tmp_path, capsys, dry_run, factor, first):
        # positive at the origin, or evaluating there, is not enough
        p = write(tmp_path, MINIMAL_TORUS.replace("boundary = periodic", "boundary = clamped")
                  .replace("kind = constant\nmatrix = 1.44 0.0 1.44",
                           f"kind = conformal\nfactor = {factor}"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", "--scenario", str(p), "--out", str(out)] + dry_run)
        assert rc == 3
        assert ("conformal factor must be finite and positive: it is not at " + first
                in capsys.readouterr().err)
        assert not out.exists()

    def test_step_bench_eps_out_of_range_is_config_error(self, capsys):
        assert main(["step-bench", "--lambdas", "24", "--resolution", "64", "--eps", "0"]) == 3
        assert "need 0 < eps <= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["0", "-5", "nan"])
    def test_step_bench_frequency_refused(self, capsys, lam):
        # an engine refusal exits 2 from every command, not only from run
        assert main(["step-bench", "--lambdas", lam, "--resolution", "64"]) == 2
        assert "finite frequency lam > 0" in capsys.readouterr().err

    def test_step_bench_collar_refused(self, capsys):
        # at lam = 1.5 on 64^2 the measuring collar (44 nodes a side) leaves
        # no interior node: an engine refusal, not a configuration error
        assert main(["step-bench", "--lambdas", "1.5", "--resolution", "64"]) == 2
        assert "leaves no interior node of the 64 x 64 chart" in capsys.readouterr().err

    def test_unexpected_exception_is_internal_error(self, monkeypatch, capsys):
        import isoflex.cli

        def broken(args):
            raise RuntimeError("broken command")

        monkeypatch.setattr(isoflex.cli, "cmd_conformal_check", broken)
        assert main(["conformal-check", "--resolution", "64"]) == 4
        assert "internal error: RuntimeError('broken command')" in capsys.readouterr().err

    def test_truncated_pass_leaves_its_record(self, tmp_path):
        # the flat map on a 256^2 torus: the bootstrap takes the whole band,
        # so the pass truncates at q = 0 on the frequency ceiling
        p = write(tmp_path, MINIMAL_TORUS.replace("64 64", "256 256")
                  + "\n[schedule]\ndepth = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(p), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passes"][-1]["truncation"]["reason"] == "frequency ceiling"
        records = [json.loads(line) for line in
                   (out / "history.jsonl").read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["q"] == 0 and records[0]["level"] == 2
        assert records[0]["truncated"] and not records[0]["active"]

    def test_internal_error_is_exit_4_with_traceback(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise IndexError("index 9 is out of bounds")

        monkeypatch.setattr(isoflex.induction, "run_global", broken)
        out = tmp_path / "out"
        rc = main(["run", "--scenario", str(write(tmp_path, MINIMAL_TORUS)), "--out", str(out)])
        assert rc == 4
        assert "internal error" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert "IndexError: index 9 is out of bounds" in summary["traceback"]

    def test_engine_refusal_stays_exit_2(self, tmp_path):
        # the flat map on a 128^2 torus: the bootstrap's error term leaves
        # the strong-short band, a refusal of the engine, not a bug
        p = write(tmp_path, MINIMAL_TORUS.replace("64 64", "128 128"))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(p), "--out", str(out)]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert "|h~| reaches 1.126" in summary["error"]
        assert "traceback" not in summary

    def test_dry_run_memory_estimate_matches_run(self, tmp_path):
        p = write(tmp_path, MINIMAL_TORUS.replace("64 64", "256 256")
                  + "\n[schedule]\ndepth = 1\n")
        assert main(["run", "--scenario", str(p), "--out", str(tmp_path / "dry"),
                     "--dry-run"]) == 0
        estimate = json.loads((tmp_path / "dry" / "summary.json").read_text())[
            "memory_bytes_estimate"]
        # the run in a child process, which reports its own peak RSS in KiB;
        # VmHWM and not ru_maxrss, because Linux carries the high-water mark
        # of the process that spawned it (here, this test run) into a
        # child's ru_maxrss across exec
        child = ("import sys\n"
                 "from isoflex.cli import main\n"
                 "rc = main(sys.argv[1:])\n"
                 "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
                 "print(rc, status.split()[0])\n")
        env = dict(os.environ, PYTHONPATH=str(Path(isoflex.__file__).parents[1]),
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", child, "run", "--scenario", str(p),
                               "--out", str(tmp_path / "run")], env=env,
                              capture_output=True, text=True, timeout=300)
        rc, hwm_kib = proc.stdout.split()[-2:]
        assert rc == "0"
        peak = int(hwm_kib) * 1024
        assert estimate / 1.5 <= peak <= 1.5 * estimate

    def test_dry_run_writes_summary(self, tmp_path):
        p = write(tmp_path, MINIMAL_TORUS)
        out = tmp_path / "out"
        rc = main(["run", "--scenario", str(p), "--out", str(out), "--dry-run"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["dry_run"]
        assert summary["memory_bytes_estimate"] > 0
        assert "exact_ladder" in summary

    def test_dry_run_plans_the_runs_ladder(self, tmp_path):
        # delta* = 1/16 and a trivial bootstrap: the dry run plans the first
        # level's exact ladder from delta*, as the run does, not from 1/8
        p = write(tmp_path, MINIMAL_TORUS + f"""
[map]
kind = flat
scale = {(1.44 * 0.9375) ** 0.5!r}

[schedule]
depth = 2
delta_star = 0.0625
""")
        assert main(["run", "--scenario", str(p), "--out", str(tmp_path / "dry"),
                     "--dry-run"]) == 0
        assert main(["run", "--scenario", str(p), "--out", str(tmp_path / "run")]) == 0
        planned = json.loads((tmp_path / "dry" / "summary.json").read_text())["exact_ladder"]
        run = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert run["bootstrap"]["trivial"]
        first = run["schedules"][0]
        assert planned["A"] == pytest.approx(first["A_exact_ladder"], rel=1e-12)
        assert planned["lam"][0] == pytest.approx(first["lam1_exact"], rel=1e-12)
        assert planned["delta"][0] == pytest.approx(run["bootstrap"]["delta_star"], rel=1e-12)

    def test_dry_run_summary_is_strict_json(self, tmp_path):
        # the exact ladder leaves float range at this depth: its lam entries
        # are written as "inf", never as a bare Infinity
        p = write(tmp_path, MINIMAL_TORUS.replace("64 64", "256 256") + """
[schedule]
theta = 0.15
alpha = 0.1
a = 4.0
""")
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(p), "--out", str(out), "--dry-run",
                     "--depth", "300"]) == 0

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        lam = summary["exact_ladder"]["lam"]
        assert "inf" in lam and all(v == "inf" or np.isfinite(v) for v in lam)

    def test_small_run_end_to_end(self, tmp_path, law_band):
        scenario = """
[chart]
resolution = 128 128
boundary = periodic

[metric]
kind = constant
matrix = 1.44 0.0 1.44

[map]
kind = flat
scale = 1.1224972160321824

[schedule]
theta = 0.15
alpha = 0.1
a = 4.0
depth = 1
delta_star = 0.125
"""
        p = write(tmp_path, scenario)
        out = tmp_path / "out"
        rc = main(["run", "--scenario", str(p), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final"]["short_min_eig"] > 0
        assert summary["failed_assertions"] == []
        assert (out / "final.obj").exists()
        history = [json.loads(line) for line in (out / "history.jsonl").read_text().splitlines()]
        assert law_band(history) == 1  # the q = 0 stage, rolled back

    def test_corrugation_dump(self, tmp_path, capsys):
        rc = main(["corrugation-dump", "--amplitudes", "0.5",
                   "--out", str(tmp_path / "gamma.csv")])
        assert rc == 0
        header = (tmp_path / "gamma.csv").read_text().splitlines()[0]
        assert header.startswith("t,g1_s0.5")

    def test_corrugation_dump_nan_amplitude_refused(self, tmp_path, capsys):
        out = tmp_path / "gamma.csv"
        assert main(["corrugation-dump", "--amplitudes", "0.5", "nan", "--out", str(out)]) == 2
        assert "corrugation amplitude is nan" in capsys.readouterr().err
        assert not out.exists()

    def test_conformal_check_reports_json(self, capsys):
        rc = main(["conformal-check", "--resolution", "64", "--amplitude", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        payload = json.loads(out)
        assert payload["residual_sup"] < 1e-6
        assert payload["min_det_jacobian"] > 0

    def test_step_bench_emits_records(self, capsys):
        rc = main(["step-bench", "--lambdas", "24", "48", "--resolution", "256",
                   "--eps", "0.01"])
        assert rc == 0
        lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert {"lam", "sup_defect", "c2_norm"} <= set(lines[0])
        assert "slope" in lines[-1]


def test_history_deterministic_across_runs(tmp_path, law_band):
    scenario = """
[chart]
resolution = 128 128
boundary = periodic

[metric]
kind = constant
matrix = 1.44 0.0 1.44

[map]
kind = flat
scale = 1.1224972160321824

[schedule]
theta = 0.15
alpha = 0.1
depth = 1
delta_star = 0.125
"""
    p = write(tmp_path, scenario)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--scenario", str(p), "--out", str(out),
                     "--seed", "42"]) == 0
        outs.append((out / "history.jsonl").read_bytes())
        # meshes are part of the deterministic surface too
        outs.append((out / "final.obj").read_bytes())
    assert outs[0] == outs[2]
    assert outs[1] == outs[3]
    assert law_band([json.loads(line) for line in outs[0].decode().splitlines()]) == 1


def test_run_pulls_back_each_immersion_once(tmp_path, monkeypatch):
    # the flat 256^2 torus: the bootstrap's stage makes two immersions from
    # the flat map and the pass keeps no stage; every later reader (the
    # certificates, the final defect, check_short) gets a pullback handed on
    import isoflex.grid
    import isoflex.nash_step

    pullback = isoflex.grid.pullback_metric
    calls = []

    def counting(u):
        calls.append(u)
        return pullback(u)

    for module in (isoflex.grid, isoflex.nash_step, isoflex.induction):
        monkeypatch.setattr(module, "pullback_metric", counting)
    p = write(tmp_path, MINIMAL_TORUS.replace("64 64", "256 256"))
    assert main(["run", "--scenario", str(p), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["bootstrap"]["terms"] == 2 and not summary["bootstrap"]["trivial"]
    assert len(calls) == len({id(u) for u in calls}) == 3



def test_run_reaches_the_clamped_skeleton_pass(tmp_path):
    # a 512^2 clamped chart with a triangle skeleton: the bootstrap's
    # conformal stage passes the strong band, so each skeleton level
    # (vertices, edges, the whole chart) runs its pass, whose q = 0 stage
    # the grid truncates
    p = write(tmp_path, """
[chart]
resolution = 512 512
boundary = clamped

[metric]
kind = constant
matrix = 1.21 0.0 1.21

[schedule]
depth = 2

[skeleton]
kind = triangulation
vertices = 0.35 0.35; 0.65 0.35; 0.5 0.62
edges = 0-1; 1-2; 2-0
""")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(p), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["bootstrap"]["strong_ok"] and summary["bootstrap"]["terms"] == 2
    assert [(q["level"], q["truncation"]["q"], q["truncation"]["reason"])
            for q in summary["passes"]] == [(level, 0, "frequency ceiling") for level in range(3)]
    history = [json.loads(line) for line in (out / "history.jsonl").read_text().splitlines()]
    assert [(r["level"], r["q"], r["truncated"]) for r in history] == [
        (level, 0, True) for level in range(3)]


def test_refused_run_keeps_its_initial_mesh(tmp_path):
    # the flat map on a 64^2 torus: the bootstrap refuses after the
    # initial mesh is written
    p = write(tmp_path, MINIMAL_TORUS)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(p), "--out", str(out)]) == 2
    assert "|h~| reaches 2.304" in json.loads((out / "summary.json").read_text())["error"]
    assert not (out / "final.obj").exists()
    export_mesh(parse_scenario(p).initial_map(), tmp_path / "u0.obj")
    assert (out / "initial.obj").read_bytes() == (tmp_path / "u0.obj").read_bytes()


def test_unchanged_state_is_swept_once(tmp_path, monkeypatch):
    # the flat 256^2 torus, whose pass keeps no stage: the closing
    # certificate reads the node bounds of the initial one, and the final
    # mesh, whose face lines come from the initial mesh, is the one
    # export_mesh writes on its own
    run_global, sweep = isoflex.induction.run_global, isoflex.induction._node_derivatives
    seen, sweeps = {}, []

    def keeping(g, *args, **kwargs):
        seen["g"] = g
        seen["state"], seen["report"] = run_global(g, *args, **kwargs)
        return seen["state"], seen["report"]

    def counting(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(isoflex.induction, "run_global", keeping)
    monkeypatch.setattr(isoflex.induction, "_node_derivatives", counting)
    p = write(tmp_path, MINIMAL_TORUS.replace("64 64", "256 256")
              + "\n[schedule]\ndepth = 1\n")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(p), "--out", str(out)]) == 0
    state, report = seen["state"], seen["report"]
    assert [s for q in report["passes"] for s in q.get("stages", [])
            if s["active"] and not s.get("truncated")] == []
    assert len(sweeps) == 1
    assert report["final"]["certificate"] == isoflex.induction.certify_adapted(state, seen["g"])
    assert len(sweeps) == 2
    export_mesh(state.u, tmp_path / "u.obj")
    assert (out / "final.obj").read_bytes() == (tmp_path / "u.obj").read_bytes()


def test_run_meshes_pass_the_benchmark_checks(tmp_path):
    # the benchmark reads both meshes of a torus run back with its own
    # parser (bench/checks.py, loaded here, not changed); a 128^2 torus
    # whose bootstrap corrugates the flat map, so the final mesh is not flat
    spec = importlib.util.spec_from_file_location("bench_checks", BENCH / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    p = write(tmp_path, MINIMAL_TORUS.replace("64 64", "128 128") + """
[map]
kind = flat
scale = 1.15

[schedule]
a = 4.0
depth = 2
delta_star = 0.05
""")
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(p), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["bootstrap"]["terms"] > 0
    final = checks.read_mesh_grid(out / "final.obj", 129, 129)
    initial = checks.read_mesh_grid(out / "initial.obj", 129, 129)
    assert np.max(np.abs(final - initial)) > 1e-3
    problems, _ = checks.check_torus_run(final, initial, (1.44, 0.0, 1.44), summary,
                                         (1.0, 1.0), 4.0)
    assert problems == []

def _float_options():
    """(command, option, extra arguments) for every type=float option of
    every subcommand, at the cheapest resolution a command takes."""
    import argparse

    from isoflex.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        options = {o for a in parser._actions for o in a.option_strings}
        extra = ["--resolution", "64"] if "--resolution" in options else []
        for action in parser._actions:
            if action.type is float:
                yield command, action.option_strings[-1], extra


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command,option,extra", list(_float_options()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_non_finite_float_options_are_refused(command, option, extra, value):
    # a non-finite number on the command line is the caller's error (exit 2
    # or 3), never an internal one
    assert main([command, option, value, *extra]) in (2, 3)
