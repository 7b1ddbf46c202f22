"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, straight from the stated criteria.  Criterion 9
asserts its defect target literally; the staged scheme cannot reach it on
the stated 512^2 grid (the frequency ladder outruns the grid after the
bootstrap; see the analysis in the run report and the project notes), so
that assertion is expected to fail honestly rather than being loosened.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from isoflex.corrugation import build_corrugation
from isoflex.decomposition import (
    PhaseField,
    beltrami_coefficient,
    build_frame,
    solve_conformal,
)
from isoflex.grid import (
    CLAMPED,
    PERIODIC,
    GridChart,
    ImmersionField,
    MetricField,
    ScalarField,
    pullback_metric,
)
from isoflex.induction import (
    AdaptedState,
    PassConfig,
    SkeletonSet,
    build_schedule,
    desk_ladder,
    growth_exponent,
    inductive_pass,
    minimal_adequate_a,
    rho_recursion_audit,
    run_global,
)
from isoflex.nash_step import add_metric_2d, stage, step


@pytest.fixture(scope="module")
def table():
    return build_corrugation()


def report(num, name, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE {num:>2}] {name}: {flag} — {detail}")


def test_criterion_01_corrugation_identity(table):
    rng = np.random.default_rng(1)
    s = rng.uniform(0.0, 1.0, 100_000)
    t = rng.uniform(-20.0, 20.0, 100_000)
    t0 = time.time()
    residual = float(np.max(table.identity_residual(s, t)))
    elapsed = time.time() - t0
    period = table.metadata["period_defect"]
    ok = residual < 1e-8 and period < 1e-10 and elapsed < 5.0
    report(1, "corrugation identity", ok,
           f"residual {residual:.2e} (<1e-8), periodicity {period:.2e} (<1e-10), "
           f"{elapsed:.2f}s (<5s)")
    assert residual < 1e-8
    assert period < 1e-10
    assert elapsed < 5.0


def test_criterion_02_derivative_scalings(table):
    t = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    t0 = time.time()
    worst1 = worst2 = 0.0
    for k in range(1, 11):
        s = 2.0 ** -k
        worst1 = max(worst1, float(np.max(np.abs(
            table.eval(np.full_like(t, s), t, "dt_g1")))) / s ** 2)
        worst2 = max(worst2, float(np.max(np.abs(
            table.eval(np.full_like(t, s), t, "dt_g2")))) / s)
    elapsed = time.time() - t0
    ok = worst1 < 2.0 and worst2 < 2.0 and elapsed < 5.0
    report(2, "derivative scalings", ok,
           f"|dt G1|/s^2 <= {worst1:.3f}, |dt G2|/s <= {worst2:.3f} (both < 2), "
           f"{elapsed:.2f}s (<5s)")
    assert worst1 < 2.0 and worst2 < 2.0
    assert elapsed < 5.0


def test_criterion_03_nash_frame():
    frame = build_frame(2)
    c_id = frame.coefficients(np.eye(2))
    id_err = float(np.max(np.abs(c_id - 2.0 / 3.0)))

    rng = np.random.default_rng(3)
    m = rng.uniform(-1, 1, (10_000, 2, 2))
    sym = 0.5 * (m + np.swapaxes(m, -1, -2))
    recon = float(np.max(np.abs(frame.reconstruct(frame.coefficients(sym)) - sym)))

    d = rng.standard_normal((10_000, 2, 2))
    d = 0.5 * (d + np.swapaxes(d, -1, -2))
    norms = np.linalg.norm(d, ord=2, axis=(-2, -1))
    radii = rng.uniform(0, 1, 10_000) * frame.radius
    ball = frame.base_point + d * (radii / norms)[:, None, None]
    min_l = float(frame.coefficients(ball).min())

    ok = recon < 1e-12 and min_l >= frame.radius - 1e-12 and id_err < 1e-12
    report(3, "Nash frame", ok,
           f"reconstruction {recon:.2e} (<1e-12), min L on ball {min_l:.4f} "
           f">= r={frame.radius:.4f}, L(Id)-2/3 = {id_err:.2e}")
    assert recon < 1e-12
    assert min_l >= frame.radius - 1e-12
    assert id_err < 1e-12


def test_criterion_04_beltrami_solver():
    t0 = time.time()
    c = GridChart((1.0, 1.0), (256, 256), PERIODIC)

    fac_id = solve_conformal(MetricField.constant(c, np.eye(2)))
    id_err = max(fac_id.residual_sup, float(np.max(np.abs(fac_id.theta.values - 1.0))))

    fac = solve_conformal(MetricField.constant(c, np.diag([4.0, 1.0])))
    mu_err = float(np.max(np.abs(fac.mu - 1.0 / 3.0)))
    theta_err = float(np.max(np.abs(fac.theta.values ** 2 - 9.0 / 4.0)))
    grad_err = max(float(np.max(np.abs(fac.grad_phi1[..., 0] - 4.0 / 3.0))),
                   float(np.max(np.abs(fac.grad_phi2[..., 1] - 2.0 / 3.0))))

    rng = np.random.default_rng(4)
    x, y = c.mesh()

    def trig(scale):
        acc = np.zeros_like(x)
        for _ in range(4):
            kx, ky = rng.integers(-3, 4, 2)
            ph = rng.uniform(0, 2 * np.pi)
            acc += rng.uniform(-1, 1) * np.cos(2 * np.pi * (kx * x + ky * y) + ph)
        return scale * acc / np.max(np.abs(acc))

    h = MetricField.from_components(c, 1.0 + trig(0.2), trig(0.1), 1.0 + trig(0.2))
    fac_r = solve_conformal(h, residual_tol=1e-6)
    _, bound_rep = beltrami_coefficient(h)
    elapsed = time.time() - t0

    ok = (id_err < 1e-8 and mu_err < 1e-8 and theta_err < 1e-8 and grad_err < 1e-8
          and fac_r.residual_sup < 1e-6 and bound_rep["min_bound_slack"] >= -1e-12
          and elapsed < 30.0)
    report(4, "Beltrami solver", ok,
           f"Id {id_err:.2e}, diag(4,1): mu-1/3 {mu_err:.2e}, theta^2-9/4 "
           f"{theta_err:.2e} (all <1e-8); random SPD residual "
           f"{fac_r.residual_sup:.2e} (<1e-6); |mu|^2 bound slack "
           f"{bound_rep['min_bound_slack']:.1e} (>=-1e-12); {elapsed:.1f}s (<30s)")
    assert id_err < 1e-8 and mu_err < 1e-8 and theta_err < 1e-8 and grad_err < 1e-8
    assert fac_r.residual_sup < 1e-6
    assert bound_rep["min_bound_slack"] >= -1e-12
    assert elapsed < 30.0


def test_criterion_05_step_scaling(table):
    t0 = time.time()
    n = 1024
    c = GridChart((1.0, 1.0), (n, n), CLAMPED)
    u = ImmersionField.flat(c)
    eps = 0.01

    def bump(x, y):
        r2 = ((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.3 ** 2
        return np.sqrt(eps) * np.where(r2 < 1, (1 - r2) ** 3, 0.0)

    rho = ScalarField.from_function(c, bump)
    phi = PhaseField.linear_phase(c, (1.0, 0.0))
    defects, bands, supports = [], [], []
    for lam in (64.0, 128.0, 256.0):
        out = step(u, rho, phi, lam, table, pullback_metric(u))
        defects.append(out.defect_sup)
        bands.append(out.gamma_bar)
        supports.append(out.meta["moved_outside_support"])
    slope = float(np.polyfit(np.log([64.0, 128.0, 256.0]), np.log(defects), 1)[0])
    elapsed = time.time() - t0
    band_stable = max(bands) / min(bands) < 1.05 and max(bands) < 1.1
    ok = (abs(slope + 1.0) < 0.2 and max(supports) < 1e-14
          and band_stable and elapsed < 120.0)
    report(5, "step frequency scaling", ok,
           f"slope {slope:.3f} (-1 +- 0.2), support leak {max(supports):.1e} "
           f"(<1e-14), band {max(bands):.4f} stable, {elapsed:.1f}s (<120s)")
    assert abs(slope + 1.0) < 0.2
    assert max(supports) < 1e-14
    assert band_stable
    assert elapsed < 120.0


def test_criterion_06_stage_scaling(table):
    n = 1024
    c = GridChart((1.0, 1.0), (n, n), PERIODIC)
    u = ImmersionField.flat(c)
    fac = solve_conformal(MetricField.constant(c, 0.1 * np.eye(2)))
    amp = ScalarField(c, fac.theta.values)
    terms = [(amp, fac.phi1), (amp, fac.phi2)]
    lam1 = 2 * np.pi * 5
    sups = []
    for K in (4.0, 8.0):
        out = stage(u, terms, lam1, K, table, pullback_metric(u))
        sups.append(out.defect_sup)
    ratio = sups[0] / sups[1]
    ok = 2.0 / 1.5 <= ratio <= 2.0 * 1.5
    report(6, "stage growth scaling", ok,
           f"sup E at K=4: {sups[0]:.4f}, K=8: {sups[1]:.4f}, ratio {ratio:.3f} "
           f"in [1.33, 3.0]")
    assert 2.0 / 1.5 <= ratio <= 2.0 * 1.5


def test_criterion_07_metric_addition_scaling(table):
    kappa = 1.5
    sups = []
    lams = (3.0, 6.0, 12.0, 24.0)
    for lam, n in zip(lams, (256, 256, 512, 1536)):
        c = GridChart((1.0, 1.0), (n, n), PERIODIC)
        u = ImmersionField.flat(c, scale=0.9)
        g = MetricField.constant(c, np.eye(2))
        h = MetricField.constant(c, np.zeros((2, 2)))
        delta = 0.05
        rho = ScalarField.constant(c, np.sqrt(delta) * 0.9)
        out = add_metric_2d(u, rho, g, h, delta=delta, lam=lam, kappa=kappa,
                            table=table)
        sups.append(out.defect_sup)
    slope = float(np.polyfit(np.log(lams), np.log(sups), 1)[0])

    # support inflation on a compactly supported amplitude
    n = 768
    c = GridChart((1.0, 1.0), (n, n), CLAMPED)
    u = ImmersionField.flat(c, scale=0.9)
    g = MetricField.constant(c, np.eye(2))
    h = MetricField.constant(c, np.zeros((2, 2)))
    delta = 0.04

    def bump(x, y):
        r2 = ((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.3 ** 2
        return np.sqrt(delta) * 0.9 * np.where(r2 < 1, (1 - r2) ** 3, 0.0)

    rho_b = ScalarField.from_function(c, bump)
    lam_b = 8.0
    out_b = add_metric_2d(u, rho_b, g, h, delta=delta, lam=lam_b, kappa=kappa,
                          table=table)
    inflation = out_b.meta["support_inflation"]
    budget = lam_b ** -kappa + 1.5 * max(c.spacing)

    ok = abs(slope - (1.0 - kappa)) < 0.3 and inflation <= budget
    report(7, "metric addition scaling", ok,
           f"sup E slope {slope:.3f} (1-kappa = -0.5 +- 0.3) over lam 3..24; "
           f"support inflation {inflation:.4f} <= lam^-kappa + cell = {budget:.4f}")
    assert abs(slope - (1.0 - kappa)) < 0.3
    assert inflation <= budget


def test_criterion_08_rho_recursion_depth5(table, law_band):
    # The recursion lemma is certified node-wise to depth 5 on the pure
    # amplitude recursion; the corrugated ladder runs as deep as the grid
    # resolves and must keep the factorization exact and shortness intact,
    # truncating with a certificate when frequencies outrun the grid.
    n = 1024
    c = GridChart((1.0, 1.0), (n, n), PERIODIC)
    g = MetricField.constant(c, 1.44 * np.eye(2))
    u0 = ImmersionField.flat(c, scale=np.sqrt(1.44 * 0.875))
    state, rep = run_global(g, u0, theta0=0.15, alpha0=0.1, a0=4.0, depth=5,
                            table=table, bootstrap_delta_star=0.125)
    main = rep["passes"][2]
    stages = [s for s in main["stages"] if s.get("active")]
    executed = len(stages)
    resid = max((s["factorization_residual"] for s in stages), default=0.0)
    short_ok = all(s["short_min_eig"] > 0 for s in stages) and \
        rep["final"]["short_min_eig"] > 0
    lemma_run = all(r["ok"] for r in main["rho_lemma"])
    truncation = main["truncation"]

    sched = build_schedule(max(4.0, minimal_adequate_a(Fraction(3, 20),
                                                       Fraction(1, 10), 0.125)),
                           Fraction(3, 20), Fraction(1, 10), 0.125)
    ladder = desk_ladder(sched, 0.125, c, depth=5)
    rho0 = ScalarField.constant(c, np.sqrt(0.125))
    _, recs = rho_recursion_audit(rho0, SkeletonSet(2, whole=True),
                                  SkeletonSet.empty(), ladder, 5)
    lemma_depth5 = all(r["ok"] for r in recs) and len(recs) == 5

    ok = lemma_depth5 and lemma_run and resid < 1e-9 and short_ok and executed >= 1
    trunc_note = (f"; corrugated ladder executed {executed}/5 stages then "
                  f"truncated ({truncation['reason']})" if truncation else "")
    report(8, "rho recursion depth 5", ok,
           f"lemma (i)-(iv) node-wise at q=0..4: {lemma_depth5}; executed-stage "
           f"residual {resid:.1e} (<1e-9); shortness kept: {short_ok}{trunc_note}")
    assert lemma_depth5
    assert lemma_run
    assert resid < 1e-9
    assert short_ok
    assert executed >= 1
    assert law_band(main["stages"]) >= executed
    if executed < 5:
        assert truncation is not None and truncation["reason"] in (
            "frequency ceiling", "amplitude floor", "shortness would be lost")


def test_criterion_09_full_pipeline(table):
    t0 = time.time()
    n = 512
    c = GridChart((1.0, 1.0), (n, n), PERIODIC)
    g = MetricField.constant(c, 1.44 * np.eye(2))
    u0 = ImmersionField.flat(c)
    state, rep = run_global(g, u0, theta0=0.15, alpha0=0.1, a0=4.0, depth=4,
                            table=table)
    elapsed = time.time() - t0
    fin = rep["final"]
    probes = [p for p in fin["holder_probes"] if p > 0]
    probe_ok = (max(probes) / min(probes) < 10.0) if len(probes) >= 2 else True
    disp_ok = fin["displacement_total"] <= fin["displacement_budget"]
    defect_ok = fin["defect_relative"] < 1e-2
    ok = defect_ok and disp_ok and probe_ok and elapsed < 900.0
    truncs = [p.get("truncation") for p in rep["passes"] if p.get("truncation")]
    report(9, "full pipeline (512^2, depth 4)", ok,
           f"relative defect {fin['defect_relative']:.4f} (<1e-2: {defect_ok}); "
           f"displacement {fin['displacement_total']:.4f} <= A^-1/2 = "
           f"{fin['displacement_budget']:.4f}: {disp_ok}; Hoelder probe ratio "
           f"within 10x: {probe_ok}; {elapsed:.0f}s (<900s); truncations: "
           f"{[t['reason'] for t in truncs]}")
    assert disp_ok
    assert probe_ok
    assert elapsed < 900.0
    assert rep["final"]["short_min_eig"] > 0
    # The defect target is asserted literally.  The staged scheme cannot
    # reach 1e-2 at 512^2/depth 4: the measured cross-step coupling constant
    # (~4) forces a ~40x frequency ratio per stage, and the 16-node
    # wavelength rule leaves a single ~32x band on this grid, so the ladder
    # truncates after the bootstrap.  See notes/decisions.md.
    assert defect_ok, (
        f"relative defect {fin['defect_relative']:.4f} >= 1e-2: the corrugation "
        f"ladder is grid-limited at 512^2 (truncations: "
        f"{[t['reason'] for t in truncs]}); unattainable as specified")


def test_criterion_10_skeleton_scenario(table, law_band):
    # disc with one triangle: an adapted state whose amplitude vanishes
    # toward the vertices, upgraded over the edge skeleton
    n = 2048
    c = GridChart((1.0, 1.0), (n, n), CLAMPED)
    csq = 1.21
    g = MetricField.constant(c, csq * np.eye(2))
    delta_star = 0.125
    u0 = ImmersionField.flat(c, scale=np.sqrt(csq * (1.0 - delta_star)))
    verts = ((0.35, 0.35), (0.65, 0.35), (0.5, 0.62))
    s_set = SkeletonSet(0, points=verts)
    sigma = SkeletonSet(1, points=verts,
                        segments=((verts[0], verts[1]), (verts[1], verts[2]),
                                  (verts[2], verts[0])))
    d = s_set.distance_field(c)
    rho0 = ScalarField(c, np.minimum(np.sqrt(delta_star), 0.9 * np.sqrt(d)))
    pb = pullback_metric(u0)
    defect = g.values - pb.values
    h0_vals = defect / np.maximum(rho0.values ** 2, 1e-30)[..., None] - g.values
    h0_vals[rho0.values == 0.0] = 0.0
    state = AdaptedState(u0, rho0, MetricField(c, h0_vals), s_set,
                         A=4.0, theta=0.15, alpha=0.1)

    sched = build_schedule(
        max(4.0, minimal_adequate_a(Fraction(3, 20), Fraction(1, 10), delta_star)),
        Fraction(3, 20), Fraction(1, 10), delta_star)
    ladder = desk_ladder(sched, delta_star, c, depth=2,
                         base_frequency=4 * np.pi, tube_radius=0.09)
    new_state, history, truncation = inductive_pass(
        state, sigma, sched, ladder, 2, g, PassConfig(table=table))

    audits_ok = all(
        rec["cutoff_audit"].get("geometric_condition_ok", True)
        and rec["cutoff_audit"]["nesting_ok"]
        for rec in history if "cutoff_audit" in rec)
    moved_on_s = max((rec.get("moved_on_S", 0.0) for rec in history
                      if rec.get("active")), default=0.0)
    ix = [(int(round(v[0] * (n - 1))), int(round(v[1] * (n - 1)))) for v in verts]
    vertex_moves = max(float(np.max(np.abs(new_state.u.values[i, j] - u0.values[i, j])))
                       for i, j in ix)
    executed = sum(1 for rec in history if rec.get("active"))

    # the amplitude recursion on this geometry, deeper than the grid
    # corrugates, also leaves the vertices untouched
    _, recs = rho_recursion_audit(rho0, sigma, s_set, ladder, 4)
    rec_ok = all(r["ok"] for r in recs)
    qs_reached = len([rec for rec in history if "cutoff_audit" in rec])

    ok = vertex_moves < 1e-12 and moved_on_s < 1e-12 and audits_ok and rec_ok
    trunc_note = (f"; stage truncated ({truncation['reason']})"
                  if truncation else "")
    report(10, "skeleton scenario", ok,
           f"u unchanged on S: max move {vertex_moves:.1e} (<1e-12) over "
           f"{executed} executed stage(s); geometric audit ok at {qs_reached} "
           f"reached q(s): {audits_ok}; recursion on the triangle geometry "
           f"ok to depth 4: {rec_ok}{trunc_note}")
    assert vertex_moves < 1e-12
    assert moved_on_s < 1e-12
    assert audits_ok
    assert rec_ok
    law_band(history)
    cert_resid = np.max(np.abs(
        g.values - pullback_metric(new_state.u).values
        - (new_state.rho.values ** 2)[..., None] * (g.values + new_state.h.values)))
    assert cert_resid < 1e-9


def test_criterion_11_schedule_algebra():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        if n == 2:
            theta = Fraction(int(rng.integers(1, 2000)), 10_000)  # < 1/5
        else:
            n_star = n * (n + 1) // 2
            top = Fraction(1, 2 * n_star + 1)
            theta = Fraction(int(rng.integers(1, top.denominator * 100 - 1)),
                             top.denominator * 500)
            if theta >= top:
                theta = top / 2
        alpha = Fraction(int(rng.integers(1, 999)), 1000)
        b = growth_exponent(theta, alpha, n)
        if n == 2:
            assert b == 1 + 4 * alpha * theta / (1 - 5 * theta)
        else:
            n_star = n * (n + 1) // 2
            assert b == 1 + 2 * n_star * alpha * theta / (1 - (2 * n_star + 1) * theta)
        theta_p = theta / b ** 2
        alpha_p = alpha / (2 * b ** 2)
        assert theta_p * b ** 2 == theta
        assert alpha_p * 2 * b ** 2 == alpha
        a_exp = b ** 2
        assert a_exp * theta_p == theta / 1  # exact rational chain
        checked += 1
    report(11, "schedule algebra", checked == 100,
           f"{checked}/100 random admissible (theta, alpha, n) verified exactly "
           f"in rational arithmetic")
    assert checked == 100
