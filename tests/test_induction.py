import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from isoflex.corrugation import build_corrugation
from isoflex.grid import (
    CLAMPED,
    PERIODIC,
    GridChart,
    ImmersionField,
    MetricField,
    ScalarField,
    _diff,
    _diff1,
    c1_seminorm,
    holder_seminorm,
    pullback_metric,
)
from isoflex.induction import (
    AdaptedState,
    DeskLadder,
    PassConfig,
    ScheduleError,
    SkeletonSet,
    _certificate,
    _node_derivatives,
    _phi,
    _phi_tilde,
    _psi,
    _psi_tilde,
    _skeleton_distances,
    build_schedule,
    certify_adapted,
    cutoffs,
    desk_ladder,
    growth_exponent,
    inductive_pass,
    minimal_adequate_a,
    rho_recursion_audit,
    run_global,
    smoothstep,
    update_rho,
)
from isoflex.nash_step import add_metric_2d


@pytest.fixture(scope="module")
def table():
    return build_corrugation()


def quarter_ladder(delta1=0.125, base=2 * np.pi, growth=2.0, depth=8,
                   A=4.0, theta=0.15, alpha=0.1):
    b = float(growth_exponent(Fraction(theta).limit_denominator(10**6),
                              Fraction(alpha).limit_denominator(10**6)))
    return DeskLadder(tuple(delta1 * 0.25 ** q for q in range(depth)),
                      tuple(base * growth ** q for q in range(depth)),
                      A, theta, alpha, 1.05, b)


class TestScheduleAlgebra:
    def test_growth_exponent_2d(self):
        b = growth_exponent(Fraction(15, 100), Fraction(1, 10))
        assert b == 1 + Fraction(4, 1) * Fraction(1, 10) * Fraction(15, 100) / Fraction(25, 100)
        assert b == Fraction(31, 25)  # 1.24

    def test_growth_exponent_limit(self):
        # alpha -> 0 pushes b -> 1 and theta' -> theta
        b = growth_exponent(Fraction(19999, 100000), Fraction(1, 10 ** 9))
        assert abs(float(b) - 1.0) < 1e-4

    def test_growth_exponent_3d(self):
        # n = 3: n* = 6, b = 1 + 12 alpha theta / (1 - 13 theta)
        b = growth_exponent(Fraction(5, 100), Fraction(1, 10), n=3)
        assert b == 1 + Fraction(12, 1) * Fraction(1, 10) * Fraction(5, 100) / Fraction(35, 100)

    def test_theta_band_rejected(self):
        with pytest.raises(ScheduleError):
            growth_exponent(Fraction(1, 4), Fraction(1, 10))
        with pytest.raises(ScheduleError):
            growth_exponent(Fraction(1, 10), Fraction(1, 10), n=3)

    def test_exact_exponent_relations(self):
        sched = build_schedule(1e9, Fraction(3, 20), Fraction(1, 10), 0.125)
        assert sched.theta_prime * sched.b ** 2 == sched.theta
        assert sched.alpha_prime * 2 * sched.b ** 2 == sched.alpha

    def test_ordering_violation_names_minimal_a(self):
        with pytest.raises(ScheduleError, match="minimal adequate A"):
            build_schedule(2.0, Fraction(3, 20), Fraction(1, 10), 0.125)
        a_min = minimal_adequate_a(Fraction(3, 20), Fraction(1, 10), 0.125)
        sched = build_schedule(a_min * 1.01, Fraction(3, 20), Fraction(1, 10), 0.125)
        for q in range(1, 4):
            assert sched.delta_q(q + 1) <= sched.delta_q(q) / 4 * (1 + 1e-9)
            assert sched.lam_q(q + 1) >= 2 * sched.lam_q(q) * (1 - 1e-9)

    def test_successor_degrades_exponents(self):
        # the next pass's ladder, built the way run_global builds it: at the
        # degraded exponents, with the base raised to its own adequate value
        sched = build_schedule(1e9, Fraction(3, 20), Fraction(1, 10), 0.125)
        theta_p, alpha_p = sched.theta_prime, sched.alpha_prime
        a_min = minimal_adequate_a(theta_p, alpha_p, 0.125)
        nxt = build_schedule(max(sched.A, a_min), theta_p, alpha_p, 0.125)
        assert nxt.theta == theta_p
        assert nxt.alpha == alpha_p
        assert nxt.theta < sched.theta
        assert nxt.b == growth_exponent(theta_p, alpha_p)
        assert 1 < nxt.b < sched.b


def test_desk_ladder_frequencies_saturate_at_inf():
    # 256^2: the stage growth is 16, and 16^q overflows a float past q = 255
    c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
    sched = build_schedule(1e9, Fraction(3, 20), Fraction(1, 10), 0.125)
    ladder = desk_ladder(sched, 0.125, c, depth=300)
    short = desk_ladder(sched, 0.125, c, depth=200)
    growth = ladder.lam[1] / ladder.lam[0]
    assert growth == 16.0
    assert ladder.lam[:len(short.lam)] == short.lam
    finite = [lam for lam in ladder.lam if math.isfinite(lam)]
    assert len(finite) < len(ladder.lam) == 303
    assert all(lam == math.inf for lam in ladder.lam[len(finite):])
    assert finite == [ladder.lam[0] * growth ** q for q in range(len(finite))]


class TestRhoRecursion:
    def chart(self):
        return GridChart((1.0, 1.0), (64, 64), PERIODIC)

    def test_chi_zero_keeps_rho(self):
        c = self.chart()
        rho = ScalarField.constant(c, 0.3)
        chi = ScalarField.constant(c, 0.0)
        out = update_rho(rho, chi, 0.01)
        assert np.array_equal(out.values, rho.values)

    def test_chi_one_sets_delta_level(self):
        c = self.chart()
        rho = ScalarField.constant(c, 0.3)
        chi = ScalarField.constant(c, 1.0)
        out = update_rho(rho, chi, 0.01)
        assert np.allclose(out.values, 0.1)

    def test_monotone_everywhere(self):
        c = self.chart()
        rng = np.random.default_rng(0)
        ladder = quarter_ladder()
        # random rho inside the lemma band, random partial cut-off
        rho = ScalarField(c, np.sqrt(ladder.delta_q(2)) * rng.uniform(1.5, 2.0,
                                                                      c.resolution))
        chi = ScalarField(c, rng.uniform(0, 1, c.resolution))
        out = update_rho(rho, chi, ladder.delta_q(3))
        assert np.all(out.values <= rho.values + 1e-15)

    def test_depth_five_torus_audit(self):
        c = self.chart()
        ladder = quarter_ladder()
        rho0 = ScalarField.constant(c, np.sqrt(0.125))
        whole = SkeletonSet(dimension_level=2, whole=True)
        seq, recs = rho_recursion_audit(rho0, whole, SkeletonSet.empty(), ladder, 5)
        assert len(recs) == 5
        assert all(r["ok"] for r in recs)
        # saturation: rho halves per level on the full-support torus
        for q, f in enumerate(seq):
            assert np.allclose(f.values, np.sqrt(0.125) * 0.5 ** q)

    def test_vertex_dip_profile_untouched_near_s(self):
        c = GridChart((1.0, 1.0), (128, 128), CLAMPED)
        ladder = quarter_ladder(base=4 * np.pi)
        verts = SkeletonSet(0, points=((0.5, 0.5),))
        d = verts.distance_field(c)
        plateau = np.sqrt(0.125)
        rho0 = ScalarField(c, np.minimum(plateau, 0.9 * np.sqrt(d)))
        seq, recs = rho_recursion_audit(rho0, verts, SkeletonSet.empty(), ladder, 4)
        assert all(r["ok"] for r in recs)
        # the node at the vertex never moves
        i = j = 64
        assert seq[-1].values[i, j] == rho0.values[i, j]

    def test_distance_fields_once_per_audit(self, monkeypatch):
        # one distance field per skeleton set, whatever the depth, and the
        # same cut-offs as when each level computes its own
        c = GridChart((1.0, 1.0), (128, 128), CLAMPED)
        tri = ((0.35, 0.35), (0.65, 0.35), (0.5, 0.62))
        s_set = SkeletonSet(0, points=tri)
        sigma = SkeletonSet(1, points=tri, segments=((tri[0], tri[1]), (tri[1], tri[2]),
                                                     (tri[2], tri[0])))
        ladder = quarter_ladder(base=4 * np.pi)
        rho0 = ScalarField(c, np.minimum(np.sqrt(0.125), 0.9 * np.sqrt(s_set.distance_field(c))))
        calls = []
        field = SkeletonSet.distance_field

        def counting(self, chart):
            calls.append(self)
            return field(self, chart)

        monkeypatch.setattr(SkeletonSet, "distance_field", counting)
        seq, recs = rho_recursion_audit(rho0, sigma, s_set, ladder, 3)
        assert calls == [sigma, s_set]
        assert all(r["ok"] for r in recs)
        for q in range(3):
            own = cutoffs(seq[q], sigma, s_set, q, ladder)
            assert np.array_equal(update_rho(seq[q], own.chi, ladder.delta_q(q + 2)).values,
                                  seq[q + 1].values)


class TestCutoffs:
    def test_saturated_plateau_gives_chi_one(self):
        c = GridChart((1.0, 1.0), (64, 64), PERIODIC)
        ladder = quarter_ladder()
        rho = ScalarField.constant(c, np.sqrt(ladder.delta_q(1)))
        whole = SkeletonSet(dimension_level=2, whole=True)
        cut = cutoffs(rho, whole, SkeletonSet.empty(), 0, ladder)
        assert np.all(cut.chi.values == 1.0)
        assert cut.audit["nesting_ok"]

    def test_small_rho_gives_chi_zero(self):
        c = GridChart((1.0, 1.0), (64, 64), PERIODIC)
        ladder = quarter_ladder()
        rho = ScalarField.constant(c, 1.4 * np.sqrt(ladder.delta_q(2)))
        whole = SkeletonSet(dimension_level=2, whole=True)
        cut = cutoffs(rho, whole, SkeletonSet.empty(), 0, ladder)
        assert np.all(cut.chi.values == 0.0)
        assert np.all(cut.chi_tilde.values == 0.0)

    def test_tube_localization(self):
        c = GridChart((1.0, 1.0), (128, 128), CLAMPED)
        ladder = quarter_ladder(base=2.0)  # r_(q+1) = 1/lam(q+2) decently wide
        rho = ScalarField.constant(c, np.sqrt(ladder.delta_q(1)))
        verts = SkeletonSet(0, points=((0.5, 0.5),))
        cut = cutoffs(rho, verts, SkeletonSet.empty(), 0, ladder)
        assert cut.audit["nesting_ok"]
        assert 0.0 < cut.audit["support_fraction"] < 1.0
        d = verts.distance_field(c)
        assert np.all(cut.chi.values[d > ladder.r_q(1)] == 0.0)
        assert cut.chi.values[64, 64] == 1.0


class TestSkeleton:
    def test_distance_to_segment(self):
        c = GridChart((1.0, 1.0), (64, 64), CLAMPED)
        seg = SkeletonSet(1, segments=(((0.25, 0.5), (0.75, 0.5)),))
        d = seg.distance_field(c)
        x, y = c.mesh()
        inside = (x >= 0.25) & (x <= 0.75)
        assert np.allclose(d[inside], np.abs(y[inside] - 0.5), atol=1e-12)

    def test_feature_separation(self):
        s = SkeletonSet(0, points=((0.2, 0.2), (0.2, 0.6), (0.7, 0.2)))
        assert s.feature_separation() == pytest.approx(0.4)

    def test_empty_and_whole(self):
        c = GridChart((1.0, 1.0), (16, 16), CLAMPED)
        assert np.all(np.isinf(SkeletonSet.empty().distance_field(c)))
        assert np.all(SkeletonSet(2, whole=True).distance_field(c) == 0.0)

    @pytest.mark.parametrize("segment", [((0.3, 0.3), (0.3, 0.3)),
                                         ((1e-200, 0.5), (2e-200, 0.5))])
    def test_zero_length_segment_refused(self, segment):
        # its squared length is 0, so its projection parameter would be 0/0
        # (or +-inf) and make nodes NaN: every node for a point segment
        with pytest.raises(ValueError, match="zero length"):
            SkeletonSet(1, segments=(segment,))

    @pytest.mark.parametrize("boundary", [CLAMPED, PERIODIC])
    def test_distance_field_matches_whole_mesh_reference(self, slab_budget, boundary):
        c = GridChart((1.0, 1.3), (75, 53), boundary)
        tri = ((0.35, 0.35), (0.65, 0.35), (0.5, 0.62))
        for sk in (SkeletonSet(0, points=tri),
                   SkeletonSet(1, segments=((tri[0], tri[1]), (tri[2], tri[1]))),
                   SkeletonSet(1, points=tri, segments=((tri[0], tri[1]), (tri[1], tri[2]),
                                                        (tri[2], tri[0])))):
            got = sk.distance_field(c)
            assert got.tobytes() == _ref_distance_field(sk, c).tobytes()


# The whole-mesh cut-off builders that the broadcast and ramp-only ones
# replaced, kept as references: every node must get the same float.

def _ref_distance_field(sk, chart):
    x, y = chart.mesh()
    best = np.full(chart.resolution, np.inf)
    for px, py in sk.points:
        best = np.minimum(best, np.hypot(x - px, y - py))
    for (ax, ay), (bx, by) in sk.segments:
        vx, vy = bx - ax, by - ay
        vv = vx * vx + vy * vy
        t = np.clip(((x - ax) * vx + (y - ay) * vy) / vv, 0.0, 1.0)
        best = np.minimum(best, np.hypot(x - (ax + t * vx), y - (ay + t * vy)))
    return best


def _ref_cutoffs(rho, sigma, s_set, q, ladder, r_star=0.75):
    """The whole-array cut-offs: (chi, chi~, inner tube, audit)."""
    chart = rho.chart
    d2, r_q1 = ladder.delta_q(q + 2), ladder.r_q(q + 1)
    ratio = rho.values / math.sqrt(d2)
    audit = {"q": q, "r_q1": r_q1}
    if sigma.whole:
        psi_v = psit_v = np.ones(chart.resolution)
        inner = np.ones(chart.resolution, dtype=bool)
    else:
        dist_sigma = _ref_distance_field(sigma, chart)
        psi_v = _psi(dist_sigma / r_q1, r_star, 1.0)
        psit_v = _psi_tilde(dist_sigma / r_q1, r_star, 1.0)
        inner = dist_sigma < r_star * r_q1
    if not (s_set.is_empty or sigma.whole):
        live = ratio > 1.5
        dist_s = _ref_distance_field(s_set, chart)
        r_starstar = 0.9 * float(dist_s[live].min()) / r_q1 if live.any() else np.inf
        sep = s_set.feature_separation()
        r_bar = 0.5 * sep / r_q1 if np.isfinite(sep) else np.inf
        audit.update(r_starstar=r_starstar, r_bar=r_bar,
                     geometric_condition_ok=bool(1.0 <= r_bar * r_starstar + 1e-12))
    chi = ScalarField(chart, _phi(ratio) * psi_v)
    chit = ScalarField(chart, _phi_tilde(ratio) * psit_v)
    supp_chi = chi.values > 0
    grad_chi = max(c1_seminorm(chi), c1_seminorm(chit))
    audit.update({
        "nesting_ok": bool(np.all((chit.values >= 1.0 - 1e-12)[supp_chi])),
        "grad_chi": grad_chi,
        "grad_chi_times_r": grad_chi * r_q1,
        "support_fraction": float(np.mean(chit.values > 0)),
    })
    return chi.values, chit.values, inner, audit


def _ref_smoothstep(s):
    t = np.clip(s, 0.0, 1.0)
    return np.clip(t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t), 0.0, 1.0)


class TestSmoothstep:
    def test_matches_whole_array_reference(self):
        s = np.random.default_rng(5).uniform(-0.5, 1.5, (75, 53))
        s.flat[:9] = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 5e-324, 1.0 - 2 ** -53, -1e-300]
        assert smoothstep(s).tobytes() == _ref_smoothstep(s).tobytes()

    @pytest.mark.parametrize("value", [-0.5, -0.0, 0.0, 0.3, 1.0, 2.0, np.nan])
    def test_zero_d_input(self, value):
        got, want = smoothstep(value), _ref_smoothstep(value)
        assert type(got) is type(want)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert smoothstep(np.asarray(value)).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("boundary", [CLAMPED, PERIODIC])
    def test_cutoffs_of_a_skeleton_distance(self, boundary):
        # the ramps as cutoffs applies them, on a distance field that puts
        # nodes on both flats and the ramp
        c = GridChart((1.0, 1.3), (75, 53), boundary)
        d = SkeletonSet(1, points=((0.5, 0.6),), segments=(((0.2, 0.3), (0.8, 0.4)),)).distance_field(c)
        for s in ((d - 0.05) / 0.1, (d - 0.1) * 2.5, 1.0 - d / 0.2):
            assert 0 < np.count_nonzero((s > 0) & (s < 1)) < s.size
            assert smoothstep(s).tobytes() == _ref_smoothstep(s).tobytes()


class TestCutoffsReference:
    # the slab-resident cut-offs against the whole-array ones, on a chart
    # that the slab budgets cut into slabs on both sides of the outer tube
    TRI = ((0.35, 0.35), (0.65, 0.35), (0.5, 0.62))
    SIGMAS = {
        "whole": SkeletonSet(2, whole=True),
        "empty": SkeletonSet.empty(),
        "triangle": SkeletonSet(1, points=TRI, segments=((TRI[0], TRI[1]), (TRI[1], TRI[2]),
                                                         (TRI[2], TRI[0]))),
    }

    @pytest.mark.parametrize("boundary", [CLAMPED, PERIODIC])
    @pytest.mark.parametrize("kind", sorted(SIGMAS))
    @pytest.mark.parametrize("q", [0, 1])
    def test_bit_identical_to_whole_array(self, slab_budget, monkeypatch, boundary, kind, q):
        import isoflex.induction as induction

        c = GridChart((1.0, 1.3), (75, 53), boundary)
        sigma, s_set = self.SIGMAS[kind], SkeletonSet(0, points=self.TRI)
        rho = ScalarField(c, np.minimum(np.sqrt(0.125), 0.9 * np.sqrt(s_set.distance_field(c))))
        ladder = quarter_ladder(base=4 * np.pi)  # r_1 = 0.04, r_2 = 0.02
        ramps = []
        monkeypatch.setattr(induction, "_psi", lambda *a: ramps.append(1) or _psi(*a))
        cut = cutoffs(rho, sigma, s_set, q, ladder)
        chi, chit, inner, audit = _ref_cutoffs(rho, sigma, s_set, q, ladder)
        assert cut.chi.values.tobytes() == chi.tobytes()
        assert cut.chi_tilde.values.tobytes() == chit.tobytes()
        assert np.array_equal(cut.inner_tube, inner)
        assert cut.audit == audit
        slabs = len(induction._slabs(rho.values))
        if kind == "empty":
            assert ramps == []
        elif kind == "triangle" and slabs > 1:
            # slabs outside the tube skip the ramps, those inside run them
            assert 0 < len(ramps) < slabs
        assert kind != "triangle" or 0.0 < audit["support_fraction"] < 1.0

    def test_memory_above_entry(self, traced_peak):
        # beside chi, chi~ and the inner tube (2.1 fields of nx * ny float64)
        # the cut-offs hold slab temporaries only: 2.6 fields at 1024^2
        # against 9.0 for the whole-array cut-offs
        _, state, sigma, _, ladder = _triangle_state(1024)
        distances = _skeleton_distances(sigma, state.s_set, state.rho.chart)
        cut, peak = traced_peak(lambda: cutoffs(state.rho, sigma, state.s_set, 0, ladder,
                                                distances=distances))
        assert peak <= 3 * 1024 * 1024 * 8
        assert 0.0 < cut.audit["support_fraction"] < 1.0


class TestPipeline:
    def test_trivial_bootstrap_single_stage(self, table, law_band):
        n = 512
        c = GridChart((1.0, 1.0), (n, n), PERIODIC)
        g = MetricField.constant(c, 1.44 * np.eye(2))
        u0 = ImmersionField.flat(c, scale=np.sqrt(1.44 * 0.875))
        state, report = run_global(g, u0, theta0=0.15, alpha0=0.1, a0=4.0,
                                   depth=3, table=table,
                                   bootstrap_delta_star=0.125)
        assert report["bootstrap"]["trivial"]
        main = report["passes"][2]
        active = [s for s in main["stages"] if s.get("active")]
        assert len(active) >= 1
        s0 = active[0]
        assert s0["factorization_residual"] < 1e-9
        assert s0["short_min_eig"] > 0
        assert s0["h_update_consistency"] < 1e-10
        assert law_band(main["stages"]) == 1
        assert all(r["ok"] for r in main["rho_lemma"])
        # truncation carries an explicit reason once the grid is exhausted
        if main["truncation"] is not None:
            assert main["truncation"]["reason"] in (
                "frequency ceiling", "amplitude floor")
        assert report["final"]["defect_relative"] < report["bootstrap"]["delta_star"]
        assert report["final"]["short_min_eig"] > 0

    def test_torus_pass_runs_the_snapped_base(self, table, law_band):
        # a ladder base of 9.5 is snapped to 4 pi on the unit torus before
        # the growth is planned from it, so the planned top fits the grid
        c = GridChart((1.0, 1.0), (512, 512), PERIODIC)
        g = MetricField.constant(c, 1.44 * np.eye(2))
        u0 = ImmersionField.flat(c, scale=math.sqrt(1.44 * 0.875))
        state = AdaptedState(u0, ScalarField.constant(c, math.sqrt(0.125)),
                             MetricField.constant(c, np.zeros((2, 2))), SkeletonSet.empty(),
                             A=4.0, theta=0.15, alpha=0.1)
        theta, alpha = Fraction(3, 20), Fraction(1, 10)
        sched = build_schedule(max(4.0, minimal_adequate_a(theta, alpha, 0.125)),
                               theta, alpha, 0.125)
        ladder = desk_ladder(sched, 0.125, c, depth=1, base_frequency=9.5)
        _, history, truncation = inductive_pass(state, SkeletonSet(2, whole=True), sched,
                                                ladder, 1, g, PassConfig(table=table))
        assert truncation is None
        assert history[0]["active"] and law_band(history) == 1
        assert history[0]["stage_meta"]["base_frequency"] == 4 * np.pi

    def test_literal_flat_start_runs_bootstrap(self, table):
        n = 256
        c = GridChart((1.0, 1.0), (n, n), PERIODIC)
        g = MetricField.constant(c, 1.44 * np.eye(2))
        u0 = ImmersionField.flat(c)
        state, report = run_global(g, u0, theta0=0.15, alpha0=0.1, a0=4.0,
                                   depth=2, table=table)
        assert not report["bootstrap"]["trivial"]
        # the pass keeps no stage: this is the bootstrapped state's residual
        assert report["final"]["certificate"]["factorization_residual"] < 1e-9
        assert report["final"]["short_min_eig"] > 0
        assert report["final"]["displacement_total"] <= 4.0 ** -0.5

    def test_unchanged_immersion_reuses_holder_probe(self, table, monkeypatch):
        # the bootstrap takes the whole frequency band, so the pass keeps no
        # stage and hands back the immersion it was given: one probe serves
        import isoflex.induction as induction

        calls = []

        def counting(f, *args, **kwargs):
            calls.append(f)
            return holder_seminorm(f, *args, **kwargs)

        monkeypatch.setattr(induction, "holder_seminorm", counting)
        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        g = MetricField.constant(c, 1.44 * np.eye(2))
        state, report = run_global(g, ImmersionField.flat(c), theta0=0.15, alpha0=0.1,
                                   a0=4.0, depth=2, table=table)
        assert not any(s.get("active") for s in report["passes"][2]["stages"])
        assert len(calls) == 1 and calls[0] is state.u
        probes = report["final"]["holder_probes"]
        assert len(probes) == 2 and probes[0] == probes[1] > 0

    def test_kept_stage_and_closing_certificate_sweep_once_each(self, table, law_band,
                                                                 monkeypatch):
        # the trivial-bootstrap torus keeps a stage at q = 0: its certificate
        # and the closing one are the run's only node-derivative sweeps
        import isoflex.induction as induction

        certify, sweep = induction.certify_adapted, induction._node_derivatives
        sweeps = []

        def counting(*args):
            sweeps.append(args)
            return sweep(*args)

        monkeypatch.setattr(induction, "_node_derivatives", counting)
        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        g = MetricField.constant(c, 1.44 * np.eye(2))
        state, report = run_global(g, ImmersionField.flat(c, scale=math.sqrt(1.44 * 0.875)),
                                   theta0=0.15, alpha0=0.1, a0=4.0, depth=3, table=table,
                                   bootstrap_delta_star=0.125)
        assert report["passes"][2]["stages"][0]["active"]
        assert law_band(report["passes"][2]["stages"]) == 1
        assert len(sweeps) == 2  # kept stage, closing
        assert report["final"]["certificate"] == certify(state, g)

    def test_refuses_isometric_start(self, table):
        c = GridChart((1.0, 1.0), (128, 128), PERIODIC)
        g = MetricField.constant(c, np.eye(2))
        u0 = ImmersionField.flat(c)
        with pytest.raises(Exception, match="not strictly short"):
            run_global(g, u0, theta0=0.15, alpha0=0.1, a0=4.0, depth=1, table=table)

    def test_synthetic_vertex_state_preserves_s(self, table, law_band):
        # an adapted-by-construction state whose rho dips at the vertices:
        # the pass over the edge skeleton must leave the vertices untouched
        n = 512
        c = GridChart((1.0, 1.0), (n, n), CLAMPED)
        csq = 1.21
        g = MetricField.constant(c, csq * np.eye(2))
        delta_star = 0.125
        u0 = ImmersionField.flat(c, scale=np.sqrt(csq * (1.0 - delta_star)))
        verts = ((0.35, 0.35), (0.65, 0.35), (0.5, 0.62))
        s_set = SkeletonSet(0, points=verts)
        sigma = SkeletonSet(1, points=verts,
                            segments=((verts[0], verts[1]),
                                      (verts[1], verts[2]),
                                      (verts[2], verts[0])))
        d = s_set.distance_field(c)
        plateau = np.sqrt(delta_star)
        rho0 = ScalarField(c, np.minimum(plateau, 0.9 * np.sqrt(d)))
        # scale the map down where rho is positive: u#e = (1 - rho^2) g
        # exactly, via an explicit conformal flattening of the z-graph kind
        # is not available in closed form; instead keep u0 and absorb the
        # factorization into h0 (exact by construction)
        pb = pullback_metric(u0)
        defect = g.values - pb.values
        h0_vals = defect / np.maximum(rho0.values ** 2, 1e-30)[..., None] - g.values
        h0_vals[rho0.values == 0.0] = 0.0
        h0 = MetricField(c, h0_vals)
        state = AdaptedState(u0, rho0, h0, s_set, A=4.0, theta=0.15, alpha=0.1)

        cert = certify_adapted(state, g)
        assert cert["factorization_residual"] < 1e-9
        assert cert["short_min_eig"] > 0

        sched = build_schedule(
            max(4.0, minimal_adequate_a(Fraction(3, 20), Fraction(1, 10), delta_star)),
            Fraction(3, 20), Fraction(1, 10), delta_star)
        ladder = desk_ladder(sched, delta_star, c, depth=2,
                             base_frequency=4 * np.pi, tube_radius=0.1)
        config = PassConfig(table=table)
        new_state, history, truncation = inductive_pass(
            state, sigma, sched, ladder, 2, g, config)
        active = [h for h in history if h.get("active")]
        # at this resolution the stage survives, rolls back or is not run
        # (predicted shortness loss) with a clean certificate; the state
        # stays exact either way
        if not active:
            assert truncation is not None
        law_band(history)
        for rec in active:
            assert rec.get("moved_on_S", 0.0) < 1e-12
            assert rec["factorization_residual"] < 1e-9
            assert rec["short_min_eig"] > 0
        cert = certify_adapted(new_state, g)
        assert cert["factorization_residual"] < 1e-9
        assert cert["short_min_eig"] > 0
        ix = [(int(round(v[0] * (n - 1))), int(round(v[1] * (n - 1)))) for v in verts]
        for i, j in ix:
            assert np.max(np.abs(new_state.u.values[i, j] - u0.values[i, j])) < 1e-12



# The whole-array certificate that the slab certificate replaced, kept as
# the reference: its node bounds must agree boolean for boolean.

def _ref_node_fields(state):
    """max |D^2 u|, |grad rho| and max_c |grad h_c| as whole fields."""
    chart = state.u.chart
    (hx, hy), p, v = chart.spacing, chart.periodic, state.u.values
    hxx, hxy, hyy = (_diff(v, 0, hx, 2, p), _diff1(_diff1(v, 0, hx, p), 1, hy, p),
                     _diff(v, 1, hy, 2, p))
    hess = np.maximum(np.abs(hxx), np.maximum(np.abs(hxy), np.abs(hyy))).max(axis=-1)
    grad_rho = np.linalg.norm(state.rho.gradient(), axis=-1)
    gh = np.stack([np.linalg.norm(
        ScalarField(chart, state.h.values[..., c]).gradient(), axis=-1)
        for c in range(3)], axis=-1).max(axis=-1)
    return hess, grad_rho, gh


def _ref_certify_adapted(state, g, rho_floor):
    chart = state.u.chart
    pb = pullback_metric(state.u)
    resid = g.values - pb.values - (state.rho.values ** 2)[..., None] * (
        g.values + state.h.values)
    short_lo = MetricField(chart, g.values - pb.values).spd_band()[0]
    strong_lo = MetricField(chart, 0.5 * g.values - state.h.values).spd_band()[0]
    strong_hi = MetricField(chart, 0.5 * g.values + state.h.values).spd_band()[0]
    mask = state.rho.values > rho_floor
    out = {
        "factorization_residual": float(np.max(np.abs(resid))),
        "short_min_eig": short_lo,
        "strong_band_ok": bool(min(strong_lo, strong_hi) >= -1e-9),
        "strong_band_margin": min(strong_lo, strong_hi),
    }
    if mask.any() and state.theta > 0:
        rpow = state.rho.values[mask] ** (1.0 - 1.0 / state.theta)
        hess, grad_rho, gh = _ref_node_fields(state)
        out["hess_u_ok"] = bool(np.all(hess[mask] <= state.A * rpow + 1e-9))
        out["grad_rho_ok"] = bool(np.all(grad_rho[mask] <= state.A * rpow + 1e-9))
        out["grad_h_ok"] = bool(np.all(
            gh[mask] <= state.A * state.rho.values[mask] ** (-1.0 / state.theta) + 1e-9))
    return out


# noise amplitudes of (u, rho, h) that let one node bound dominate
_DOMINANT = {"hess_u_ok": (1e-4, 1e-6, 1e-3), "grad_rho_ok": (1e-7, 1e-3, 1e-3),
             "grad_h_ok": (1e-7, 1e-6, 0.1)}


class TestCertificateReference:
    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    @pytest.mark.parametrize("check", sorted(_DOMINANT))
    def test_slab_certificate_matches_whole_array(self, slab_budget, monkeypatch,
                                                   boundary, check):
        # random fields make the largest node ratio unique; A just below it
        # fails the check at exactly one node, A just above it passes every
        # check
        c = GridChart((1.0, 1.3), (75, 53), boundary)
        x, _ = c.mesh()
        rng = np.random.default_rng(29)
        a_u, a_r, a_h = _DOMINANT[check]
        u = ImmersionField.flat(c, scale=1.1).displaced(a_u * rng.standard_normal((75, 53, 3)))
        # nodes with rho at or below the floor 0.29 are left out
        rho = ScalarField(c, 0.3 + 0.02 * np.sin(2 * np.pi * x)
                          + a_r * rng.standard_normal((75, 53)))
        h = MetricField(c, a_h * rng.standard_normal((75, 53, 3)))
        g = MetricField.constant(c, 1.21 * np.eye(2))
        theta, floor = 0.15, 0.29
        monkeypatch.setattr("isoflex.induction.RHO_FLOOR", floor)
        mask = rho.values > floor
        assert 0 < np.count_nonzero(mask) < mask.size
        hess, grad_rho, gh = _ref_node_fields(
            AdaptedState(u, rho, h, SkeletonSet.empty(), A=1.0, theta=theta, alpha=0.1))
        factor = {"hess_u_ok": rho.values ** (1.0 - 1.0 / theta),
                  "grad_rho_ok": rho.values ** (1.0 - 1.0 / theta),
                  "grad_h_ok": rho.values ** (-1.0 / theta)}
        fields = {"hess_u_ok": hess, "grad_rho_ok": grad_rho, "grad_h_ok": gh}
        slabs = [[a.copy() for a in rest] for _, *rest in _node_derivatives(u, rho, h)]
        for got, want in zip(zip(*slabs), (hess, grad_rho, gh)):
            assert np.array_equal(np.concatenate(got), want)
        ratios = {k: np.sort((fields[k] / factor[k])[mask]) for k in fields}
        a_fail, a_pass = ratios[check][-1] * (1 - 1e-6), ratios[check][-1] * (1 + 1e-6)
        assert max(r[-1] for k, r in ratios.items() if k != check) < ratios[check][-2] < a_fail
        for a, want_ok in ((a_fail, False), (a_pass, True)):
            state = AdaptedState(u, rho, h, SkeletonSet.empty(), A=a, theta=theta, alpha=0.1)
            failing = fields[check][mask] > a * factor[check][mask] + 1e-9
            assert np.count_nonzero(failing) == (0 if want_ok else 1)
            got = certify_adapted(state, g)
            want = _ref_certify_adapted(state, g, floor)
            assert got == want
            assert got[check] is want_ok
            assert all(got[k] for k in fields if k != check)


def test_state_pullback_only_from_its_producer():
    # u#e rides on a state only where the bootstrap or a pass formed it: it
    # cannot be handed in, and a state replaced with another u holds none,
    # so the certificate pulls the new u back itself
    import dataclasses

    c = GridChart((1.0, 1.0), (48, 40), PERIODIC)
    x, _ = c.mesh()
    u = ImmersionField.flat(c, scale=0.9)
    rho = ScalarField(c, 0.3 + 0.02 * np.sin(2 * np.pi * x))
    h = MetricField.constant(c, np.zeros((2, 2)))
    g = MetricField.constant(c, np.eye(2))
    with pytest.raises(TypeError):
        AdaptedState(u, rho, h, SkeletonSet.empty(), A=1.0, theta=0.15, alpha=0.1,
                     pullback=pullback_metric(u))
    state = AdaptedState(u, rho, h, SkeletonSet.empty(), A=1.0, theta=0.15, alpha=0.1)
    assert state.pullback is None
    held = dataclasses.replace(state)
    object.__setattr__(held, "pullback", pullback_metric(u))  # as a pass sets it
    other = dataclasses.replace(held, u=ImmersionField.flat(c, scale=0.8))
    assert other.pullback is None
    assert certify_adapted(other, g) == _ref_certify_adapted(other, g, 1e-6)
    assert certify_adapted(held, g) == _ref_certify_adapted(held, g, 1e-6)


# One certificate for every verdict: the pass's kept stages and its rho-lemma
# records are the driver's own checks, made at the pass's exponents.

COND3 = {"cond3_hess_ok": "hess_u_ok", "cond3_grad_rho_ok": "grad_rho_ok",
         "cond3_grad_h_ok": "grad_h_ok"}


@pytest.fixture(scope="module")
def torus512(table):
    """run_global on the 512^2 delta* = 1/8 torus at depth 3, which keeps
    one stage; with the desk ladder its pass ran on."""
    c = GridChart((1.0, 1.0), (512, 512), PERIODIC)
    g = MetricField.constant(c, 1.44 * np.eye(2))
    u0 = ImmersionField.flat(c, scale=np.sqrt(1.44 * 0.875))
    state, report = run_global(g, u0, theta0=0.15, alpha0=0.1, a0=4.0, depth=3,
                               table=table, bootstrap_delta_star=0.125)
    rho0 = ScalarField.constant(c, math.sqrt(0.125))
    sched_rec = report["schedules"][2]
    delta1 = float(np.max(rho0.values) ** 2)
    sched = build_schedule(sched_rec["A_exact_ladder"], Fraction(sched_rec["theta"]),
                           Fraction(sched_rec["alpha"]), delta1, depth=6)
    return g, state, report, rho0, desk_ladder(sched, delta1, c, 3)


def test_kept_stage_record_is_the_certificate_at_pass_exponents(torus512, law_band):
    g, state, report, _, ladder = torus512
    kept = [s for s in report["passes"][2]["stages"] if s.get("active")]
    assert len(kept) == 1 and law_band(kept) == 1
    rec = kept[0]
    # the final state is the kept stage's (v, v#e, rho_(q+1), h_(q+1))
    b2 = ladder.b ** 2
    cert = _certificate(state.u, state.pullback, state.rho, state.h, g,
                        b2 * math.log(ladder.A), ladder.theta / b2)
    for key in ("factorization_residual", "short_min_eig", "strong_band_ok"):
        assert rec[key] == cert[key]
    for key, name in COND3.items():
        assert rec[key] is cert[name]
    keys = list(rec)
    assert keys.index("cond3_grad_h_ok") == keys.index("cond3_grad_rho_ok") + 1
    assert keys.index("cond3_grad_rho_ok") == keys.index("cond3_hess_ok") + 1


def test_certificate_takes_log_a_past_float_range():
    # A = e^800 is no float; the bounds are compared from log A alone
    c = GridChart((1.0, 1.0), (48, 40), PERIODIC)
    x, y = c.mesh()
    rng = np.random.default_rng(3)
    u = ImmersionField.flat(c, scale=0.9).displaced(1e-3 * rng.standard_normal((48, 40, 3)))
    rho = ScalarField(c, 0.3 + 0.02 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y))
    h = MetricField(c, 1e-2 * rng.standard_normal((48, 40, 3)))
    g = MetricField.constant(c, np.eye(2))
    pb = pullback_metric(u)
    with pytest.raises(OverflowError):
        math.exp(800.0)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        big = _certificate(u, pb, rho, h, g, 800.0, 0.15)
        small = _certificate(u, pb, rho, h, g, -800.0, 0.15)
    assert all(big[name] is True for name in COND3.values())
    assert all(small[name] is False for name in COND3.values())


def _triangle_state(n, sigma_kind="edges"):
    """The clamped triangle state of the skeleton benchmark on an n^2 chart:
    (g, state, sigma, schedule, ladder), sigma the edges or one vertex."""
    tri = ((0.35, 0.35), (0.65, 0.35), (0.5, 0.62))
    c = GridChart((1.0, 1.0), (n, n), CLAMPED)
    g = MetricField.constant(c, 1.21 * np.eye(2))
    u0 = ImmersionField.flat(c, scale=np.sqrt(1.21 * 0.875))
    s_set = SkeletonSet(0, points=tri)
    sigma = (SkeletonSet(1, points=tri, segments=((tri[0], tri[1]), (tri[1], tri[2]),
                                                  (tri[2], tri[0])))
             if sigma_kind == "edges" else SkeletonSet(0, points=tri[:1]))
    rho0 = ScalarField(c, np.minimum(np.sqrt(0.125), 0.9 * np.sqrt(s_set.distance_field(c))))
    h0 = (g.values - pullback_metric(u0).values) / np.maximum(
        rho0.values ** 2, 1e-30)[..., None] - g.values
    h0[rho0.values == 0.0] = 0.0
    state = AdaptedState(u0, rho0, MetricField(c, h0), s_set, A=4.0, theta=0.15, alpha=0.1)
    theta, alpha = Fraction(3, 20), Fraction(1, 10)
    sched = build_schedule(max(4.0, minimal_adequate_a(theta, alpha, 0.125)),
                           theta, alpha, 0.125)
    ladder = desk_ladder(sched, 0.125, c, depth=2, base_frequency=4 * np.pi,
                         tube_radius=0.09 if sigma_kind == "edges" else 0.05)
    return g, state, sigma, sched, ladder


def _clamped_triangle_pass(table, sigma_kind):
    """One skeleton pass on the 256^2 clamped triangle state; with the
    ladder and the (rho_0, sigma, S) it ran on."""
    g, state, sigma, sched, ladder = _triangle_state(256, sigma_kind)
    new_state, history, _ = inductive_pass(state, sigma, sched, ladder, 2, g,
                                           PassConfig(table=table))
    return (new_state.certificate["rho_lemma"], history, ladder,
            (state.rho, sigma, state.s_set))


def _completed_levels(history):
    return sum(1 for rec in history if not rec.get("truncated"))


class TestPassRhoLemma:
    def test_whole_chart_torus_is_an_audit_prefix(self, torus512):
        _, _, report, rho0, ladder = torus512
        main = report["passes"][2]
        lemma = main["rho_lemma"]
        _, audit = rho_recursion_audit(rho0, SkeletonSet(2, whole=True),
                                       SkeletonSet.empty(), ladder, 3)
        assert len(lemma) == _completed_levels(main["stages"]) == 1
        assert lemma == audit[:len(lemma)]

    @pytest.mark.parametrize("sigma_kind, levels", [("edges", 0), ("vertex", 1)])
    def test_clamped_skeleton_is_an_audit_prefix(self, table, sigma_kind, levels):
        # edges: cut-offs made at q = 0, then the frequency ceiling truncates,
        # so the level has no record; vertex: q = 0 leaves supp chi~ empty
        # and is recorded, q = 1 stops at the amplitude floor
        lemma, history, ladder, (rho0, sigma, s_set) = _clamped_triangle_pass(table, sigma_kind)
        assert "cutoff_audit" in history[0]
        _, audit = rho_recursion_audit(rho0, sigma, s_set, ladder, 2)
        assert len(lemma) == _completed_levels(history) == levels
        assert lemma == audit[:levels]


class TestStageLaw:
    @pytest.mark.parametrize("n", [512, 1024])
    def test_skipped_stage_would_lose_shortness(self, table, law_band, n, monkeypatch):
        # the skeleton benchmark's q = 0 stage: the law predicts a defect
        # far above the shortness reserve delta_2 g, so the pass does not
        # run it; forced (s = 1/2 makes the rule vacuous), add_metric_2d
        # runs the planned base and K and leaves shortness, as predicted
        import isoflex.induction as induction

        g, state, sigma, sched, ladder = _triangle_state(n)
        calls = []
        monkeypatch.setattr(induction, "add_metric_2d", lambda *a, **k: calls.append(k))
        kept, history, skip = inductive_pass(state, sigma, sched, ladder, 2, g,
                                             PassConfig(table=table))
        assert calls == [] and kept.u is state.u
        assert (skip["q"], skip["reason"]) == (0, "predicted shortness loss")
        skipped = history[-1]
        assert skipped["truncated"] and "defect_sup" not in skipped

        monkeypatch.setattr(induction, "STAGE_LAW_SCATTER", 0.5)
        outs = []

        def forced(*args, **kwargs):
            outs.append((kwargs, add_metric_2d(*args, **kwargs)))
            return outs[-1][1]

        monkeypatch.setattr(induction, "add_metric_2d", forced)
        _, history, truncation = inductive_pass(state, sigma, sched, ladder, 2, g,
                                                PassConfig(table=table))
        (plan, out), = outs
        assert f"at K = {plan['K']:.3g} " in skip["detail"]
        assert history[-1]["predicted_defect"] == skipped["predicted_defect"]
        assert MetricField(g.chart, g.values - out.pullback.values).spd_band()[0] < 0
        assert truncation["reason"] == "shortness would be lost"
        assert law_band(history) == 1
