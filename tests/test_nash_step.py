import numpy as np
import pytest

from isoflex.corrugation import CorrugationDomainError, build_corrugation
from isoflex.decomposition import PhaseField, solve_conformal
from isoflex.grid import (
    CLAMPED,
    PERIODIC,
    GridChart,
    ImmersionField,
    MetricField,
    ScalarField,
    UnderResolvedError,
    _gram,
    mollify,
    norm_report,
    pullback_metric,
    sup_norm,
)
from isoflex.nash_step import (
    ShortnessLostError,
    StepPreconditionError,
    _band,
    _displacement,
    _measure_defect,
    _support_inflation,
    add_metric_2d,
    bootstrap_strong,
    commensurate_phase,
    frequency_ceiling,
    stage,
    step,
)


@pytest.fixture(scope="module")
def table():
    return build_corrugation()


def bump_field(chart, eps, radius=0.3):
    def fn(x, y):
        r2 = ((x - 0.5) ** 2 + (y - 0.5) ** 2) / radius ** 2
        return np.sqrt(eps) * np.where(r2 < 1, (1 - r2) ** 3, 0.0)

    return ScalarField.from_function(chart, fn)


class TestStep:
    def test_zero_amplitude_is_identity(self, table):
        c = GridChart((1.0, 1.0), (256, 256), CLAMPED)
        u = ImmersionField.flat(c)
        rho = ScalarField.constant(c, 0.0)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        out = step(u, rho, phi, 64.0, table, pullback_metric(u))
        assert np.array_equal(out.v.values, u.values)
        assert out.support_ok

    def test_resolution_rule(self, table):
        c = GridChart((1.0, 1.0), (64, 64), CLAMPED)
        u = ImmersionField.flat(c)
        rho = bump_field(c, 0.01)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        with pytest.raises(UnderResolvedError, match="wavelength"):
            step(u, rho, phi, 256.0, table, pullback_metric(u))

    def test_support_exact(self, table):
        c = GridChart((1.0, 1.0), (512, 512), CLAMPED)
        u = ImmersionField.flat(c)
        rho = bump_field(c, 0.01)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        out = step(u, rho, phi, 64.0, table, pullback_metric(u))
        assert out.support_ok
        assert out.meta["moved_outside_support"] == 0.0

    def test_adds_primitive_metric(self, table):
        c = GridChart((1.0, 1.0), (512, 512), CLAMPED)
        u = ImmersionField.flat(c)
        rho = bump_field(c, 0.01)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        out = step(u, rho, phi, 96.0, table, pullback_metric(u))
        # defect against pullback(u) + rho^2 grad(phi) (x) grad(phi) is small
        assert out.defect_sup < 5e-4
        assert out.gamma_bar < 1.1

    def test_amplitude_over_table_domain(self, table):
        c = GridChart((1.0, 1.0), (512, 512), CLAMPED)
        u = ImmersionField.flat(c)
        rho = ScalarField.constant(c, 1.2)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        with pytest.raises(CorrugationDomainError, match="s_max"):
            step(u, rho, phi, 64.0, table, pullback_metric(u))

    @pytest.mark.parametrize("lam", [0.0, -5.0, np.nan, np.inf])
    def test_frequency_not_finite_and_positive_refused(self, table, lam):
        c = GridChart((1.0, 1.0), (64, 64), CLAMPED)
        u = ImmersionField.flat(c)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        with pytest.raises(StepPreconditionError, match=r"finite frequency lam > 0, got lam="):
            step(u, bump_field(c, 0.01), phi, lam, table, pullback_metric(u))

    def test_degenerate_input_pullback_refused(self, table):
        # a rank-one map: d_y u = 0, so u#e = dx^2 has min eigenvalue 0
        c = GridChart((1.0, 1.0), (64, 64), CLAMPED)
        x, _ = c.mesh()
        u = ImmersionField(c, np.stack([x, 0 * x, 0 * x], axis=-1))
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        with pytest.raises(StepPreconditionError, match="input pullback degenerate"):
            step(u, bump_field(c, 0.01), phi, 16.0, table, pullback_metric(u))

    def test_incommensurate_phase_rejected_on_torus(self, table):
        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        u = ImmersionField.flat(c)
        rho = ScalarField.constant(c, 0.1)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        with pytest.raises(StepPreconditionError, match="wrap"):
            # 63.7/(2 pi) not integer
            step(u, rho, phi, 63.7, table, pullback_metric(u))


# The whole-array step that the slab-fused step replaced, kept as the
# reference: the fused step gives every node the same floating-point
# operations, so the two must agree bit for bit whatever the slab size.

def _ref_step(u, rho, phi, lam, table):
    """Whole-array step after its precondition checks."""
    chart = u.chart
    pb_u = pullback_metric(u)
    gphi = phi.gradient()
    ell = 1.0 / lam
    u_smooth = mollify(u, ell, clamped_mode="extrapolate") if ell >= 2 * max(chart.spacing) else u
    jx, jy = u_smooth.jacobian()
    gram, det, eig_lo, eig_hi = _gram(jx, jy)
    g11, g12, g22 = gram[..., 0], gram[..., 1], gram[..., 2]
    cond = eig_hi.max() / max(eig_lo.min(), 1e-300)
    if eig_lo.min() <= 0 or cond > 1e6:
        raise StepPreconditionError(
            f"mollified pullback near-singular (condition number {cond:.3g})")

    sol_x = (g22 * gphi[..., 0] - g12 * gphi[..., 1]) / det
    sol_y = (g11 * gphi[..., 1] - g12 * gphi[..., 0]) / det
    xi_t = jx * sol_x[..., None] + jy * sol_y[..., None]
    xi_sq = np.einsum("...k,...k->...", xi_t, xi_t)
    xi = xi_t / xi_sq[..., None]
    zeta_t = np.cross(jx, jy)
    zeta_norm = np.linalg.norm(zeta_t, axis=-1)
    xi_norm = np.sqrt(xi_sq)
    zeta = zeta_t / (zeta_norm * xi_norm)[..., None]

    amplitude = xi_norm * rho.values
    phase = lam * phi.values()
    g1 = table.eval(amplitude, phase, "g1")
    g2 = table.eval(amplitude, phase, "g2")

    v = u.displaced((g1[..., None] * xi + g2[..., None] * zeta) / lam)
    target = pb_u.values + (rho.values ** 2)[..., None] * np.stack(
        [gphi[..., 0] ** 2, gphi[..., 0] * gphi[..., 1], gphi[..., 1] ** 2], axis=-1)
    pb_v = pullback_metric(v)
    collar = 0 if chart.periodic else int(np.ceil(ell / max(chart.spacing))) + 2
    defect_sup, defect_c1 = _measure_defect(pb_v, target, collar)
    outside = rho.values == 0.0
    moved = np.max(np.abs(v.values[outside] - u.values[outside])) if outside.any() else 0.0
    gb_v, lo_v, hi_v = _band(pb_v)
    return {"v": v.values, "defect_sup": defect_sup,
            "defect_c1": defect_c1, "support_ok": bool(moved < 1e-14), "gamma_bar": gb_v,
            "displacement": float(np.max(np.linalg.norm(v.values - u.values, axis=-1))),
            "meta": {"collar": collar, "amplitude_max": float(amplitude.max()),
                     "moved_outside_support": float(moved),
                     "pullback_band": (float(lo_v), float(hi_v)),
                     "mollification_scale": ell}}


def _oblong_step_inputs(boundary, rho0=0.05):
    """A wavy map (with a linear part on the torus) on a (75, 53) chart, rho
    zero on the first rows and growing along x, and a curved phase."""
    chart = GridChart((1.0, 1.3), (75, 53), boundary)
    x, y = chart.mesh()
    wave = 0.02 * np.stack([np.sin(2 * np.pi * (x + 2 * y / 1.3)),
                            np.cos(2 * np.pi * (3 * x - y / 1.3)),
                            np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y / 1.3)], axis=-1)
    u = ImmersionField.flat(chart, scale=1.1).displaced(wave)
    rho = ScalarField(chart, np.where(x < 0.2, 0.0, rho0 + 0.1 * x))
    phi = PhaseField(chart, (1.0, 0.0), 0.05 * np.sin(2 * np.pi * y / 1.3))
    return u, rho, phi, 4 * np.pi


class TestStepReference:
    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    def test_bit_identical_to_whole_array_step(self, table, slab_budget, boundary):
        u, rho, phi, lam = _oblong_step_inputs(boundary)
        assert (u.linear is not None) == (boundary == PERIODIC)
        out = step(u, rho, phi, lam, table, pullback_metric(u))
        ref = _ref_step(u, rho, phi, lam, table)
        assert np.array_equal(out.v.values, ref["v"])
        assert out.v.linear is u.linear
        for name in ("defect_sup", "defect_c1", "support_ok", "gamma_bar", "displacement"):
            assert getattr(out, name) == ref[name], name
        assert out.meta == ref["meta"]
        assert out.meta["moved_outside_support"] == 0.0
        assert 0.0 < out.displacement

    def test_near_singular_gram_refused_before_table(self, table):
        # a ripple at 4 nodes per wavelength carries all of d_y u; the
        # mollifier wipes it out, so the mollified Gram is near-singular
        # while |xi~| rho, and with it the amplitude, leaves the table
        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        _, y = c.mesh()
        k = 2 * np.pi * 64
        u = ImmersionField(c, np.stack([0 * y, np.cos(k * y) / k, np.sin(k * y) / k], axis=-1),
                           np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
        rho = ScalarField.constant(c, 0.5)
        phi = PhaseField.linear_phase(c, (0.0, 1.0))
        lam = 2 * np.pi * 4
        gram, det, _, _ = _gram(*mollify(u, 1.0 / lam, clamped_mode="extrapolate").jacobian())
        assert np.max(rho.values * np.sqrt(gram[..., 0] / det)) > table.s_max
        with pytest.raises(StepPreconditionError, match="near-singular") as got:
            step(u, rho, phi, lam, table, pullback_metric(u))
        with pytest.raises(StepPreconditionError) as want:
            _ref_step(u, rho, phi, lam, table)
        assert str(got.value) == str(want.value)

    def test_domain_error_quotes_global_max_amplitude(self, table, slab_budget):
        # the amplitude leaves the table on the first rows already and peaks
        # on the last ones
        u, rho, phi, lam = _oblong_step_inputs(PERIODIC, rho0=1.2)
        with pytest.raises(CorrugationDomainError, match="s_max") as got:
            step(u, rho, phi, lam, table, pullback_metric(u))
        with pytest.raises(CorrugationDomainError) as want:
            _ref_step(u, rho, phi, lam, table)
        assert str(got.value) == str(want.value)

    def test_degenerate_jacobian_refused_after_the_sweep(self, table, slab_budget):
        # d_y u vanishes on the last rows and the amplitude leaves the table
        # on the first ones: the whole-chart near-singular refusal still
        # comes first, with the whole array's condition number.  pb_u is the
        # flat map's, so that the degenerate-input check lets the sweep run
        c = GridChart((1.0, 1.3), (75, 53), CLAMPED)
        x, y = c.mesh()
        u = ImmersionField(c, np.stack([x, y * np.clip((0.8 - x) / 0.3, 0.0, 1.0) ** 2, 0 * x],
                                       axis=-1))
        rho = ScalarField(c, np.where(x < 0.2, 1.2, 0.05))
        gram, _, lo, _ = _gram(*u.jacobian())
        assert lo[-1].max() <= 0 < lo[0].min()
        assert np.max(rho.values[0] * np.sqrt(1.0 / gram[0, :, 0])) > table.s_max
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        lam = 4 * np.pi
        with pytest.raises(StepPreconditionError, match="near-singular") as got:
            step(u, rho, phi, lam, table, pullback_metric(ImmersionField.flat(c)))
        with pytest.raises(StepPreconditionError) as want:
            _ref_step(u, rho, phi, lam, table)
        assert str(got.value) == str(want.value)

    def test_one_jacobian_sweep_per_corrugation(self, table, monkeypatch):
        # the Gram band, the amplitude range and v come from one sweep of
        # the Jacobian of u~
        import isoflex.nash_step as nash_step

        sweeps = []
        slabs = nash_step.jacobian_slabs

        def counted(u, s):
            sweeps.append(u)
            return slabs(u, s)

        monkeypatch.setattr(nash_step, "jacobian_slabs", counted)
        u, rho, phi, lam = _oblong_step_inputs(CLAMPED)
        step(u, rho, phi, lam, table, pullback_metric(u))
        assert len(sweeps) == 1
        terms = [(rho, phi), (rho, PhaseField(u.chart, (0.0, 1.0), 0 * rho.values))]
        stage(u, terms, lam, 1.2, table, pullback_metric(u))
        assert len(sweeps) == 3

    def test_step_builds_no_whole_jacobian(self, table, monkeypatch):
        # the Jacobian of u~ is formed slab by slab, in one sweep
        calls = []
        jacobian = ImmersionField.jacobian

        def counted(self):
            calls.append(1)
            return jacobian(self)

        monkeypatch.setattr(ImmersionField, "jacobian", counted)
        u, rho, phi, lam = _oblong_step_inputs(PERIODIC)
        step(u, rho, phi, lam, table, pullback_metric(u))
        assert len(calls) == 0

    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    def test_memory_above_entry(self, table, traced_peak, boundary):
        # at 256^2 the fused step peaks 29.3 fields of nx * ny float64 above
        # its entry, u#e handed in (34.0 with u pulled back inside and whole
        # Jacobian columns; the whole-array step: 59.7)
        c = GridChart((1.0, 1.0), (256, 256), boundary)
        x, y = c.mesh()
        wave = 0.02 * np.stack([np.sin(2 * np.pi * (x + y)), np.cos(2 * np.pi * (x - 2 * y)),
                                np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)], axis=-1)
        u = ImmersionField.flat(c, scale=0.9).displaced(wave)
        rho = ScalarField(c, 0.08 * (1.0 + 0.3 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)))
        phi = PhaseField(c, (1.0, 0.0), 0.05 * np.sin(2 * np.pi * y))
        _, peak = traced_peak(step, u, rho, phi, 2 * np.pi * 4, table,
                             pullback_metric(u))
        assert peak <= 42 * 256 * 256 * 8


class TestCommensurate:
    def test_snaps_to_lattice(self):
        c = GridChart((1.0, 1.0), (64, 64), PERIODIC)
        phi = PhaseField.linear_phase(c, (1.013, 0.0))
        lam = 2 * np.pi * 20
        snapped, shift = commensurate_phase(phi, lam)
        turns = snapped.linear[0] * lam / (2 * np.pi)
        assert turns == pytest.approx(round(turns), abs=1e-12)
        assert shift <= np.pi / lam + 1e-12

    def test_clamped_passthrough(self):
        c = GridChart((1.0, 1.0), (64, 64), CLAMPED)
        phi = PhaseField.linear_phase(c, (1.013, 0.0))
        same, shift = commensurate_phase(phi, 10.0)
        assert same is phi and shift == 0.0

    def test_too_low_frequency_rejected(self):
        c = GridChart((1.0, 1.0), (64, 64), PERIODIC)
        phi = PhaseField.linear_phase(c, (0.4, 0.0))
        with pytest.raises(StepPreconditionError, match="periodic"):
            commensurate_phase(phi, 3.0)

    @pytest.mark.parametrize("lam", [0.0, -3.0, float("nan")])
    def test_non_positive_frequency_rejected(self, lam):
        c = GridChart((1.0, 1.0), (64, 64), PERIODIC)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        with pytest.raises(StepPreconditionError, match="finite frequency lam > 0"):
            commensurate_phase(phi, lam)


class TestStage:
    def test_empty_terms_identity(self, table):
        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        u = ImmersionField.flat(c)
        out = stage(u, [], 64.0, 2.0, table, pullback_metric(u))
        assert out.v is u
        assert out.defect_sup == 0.0

    def test_zero_amplitude_terms_skipped(self, table):
        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        u = ImmersionField.flat(c)
        zero = ScalarField.constant(c, 0.0)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        out = stage(u, [(zero, phi), (zero, phi)], 2 * np.pi * 8, 2.0, table,
                    pullback_metric(u))
        assert np.array_equal(out.v.values, u.values)
        assert out.meta["skipped_zero_terms"] == 2

    @pytest.mark.parametrize("base", [0.0, -3.0, float("nan")])
    def test_non_positive_base_rejected(self, table, base):
        # a zero base once reached a bare ZeroDivisionError in the phase
        # snapping, and a negative one was called too low to wrap
        c = GridChart((1.0, 1.0), (64, 64), PERIODIC)
        u = ImmersionField.flat(c)
        terms = [(bump_field(c, 0.01), PhaseField.linear_phase(c, (1.0, 0.0)))]
        with pytest.raises(StepPreconditionError, match="finite frequency lam > 0"):
            stage(u, terms, base, 2.0, table, pullback_metric(u))

    def test_two_term_stage_adds_sum(self, table):
        c = GridChart((1.0, 1.0), (512, 512), PERIODIC)
        u = ImmersionField.flat(c)
        fac = solve_conformal(MetricField.constant(c, 0.05 * np.eye(2)))
        amp = ScalarField(c, fac.theta.values)
        out = stage(u, [(amp, fac.phi1), (amp, fac.phi2)], 2 * np.pi * 2,
                    16.0, table, pullback_metric(u))
        pb = pullback_metric(out.v)
        target = np.eye(2) + 0.05 * np.eye(2)
        err = np.abs(pb.values - np.array([target[0, 0], 0.0, target[1, 1]]))
        assert np.max(err) < 0.02
        assert out.defect_sup < 0.02


def _never(*args, **kwargs):
    raise AssertionError("ran past the collar refusal")


class TestMeasuringCollar:
    # a clamped defect leaves out ceil(ell / h) + 2 rows and columns on each
    # side; where that leaves no interior node the op is refused up front,
    # not by a max over an empty window after its steps ran

    def test_step_refused_before_it_runs(self, table, monkeypatch):
        import isoflex.nash_step as nash_step

        c = GridChart((1.0, 1.0), (64, 64), CLAMPED)
        u = ImmersionField.flat(c)
        pb_u = pullback_metric(u)
        monkeypatch.setattr(nash_step, "_corrugate", _never)
        with pytest.raises(UnderResolvedError,
                           match=r"collar of 44 nodes \(ell = 0\.6667 .* 64 x 64 chart"):
            step(u, bump_field(c, 0.01), PhaseField.linear_phase(c, (1.0, 0.0)), 1.5,
                 table, pb_u)

    def test_stage_refused_before_its_steps(self, table, monkeypatch):
        import isoflex.nash_step as nash_step

        c = GridChart((1.0, 1.0), (64, 64), CLAMPED)
        u = ImmersionField.flat(c)
        terms = [(bump_field(c, 0.01), PhaseField.linear_phase(c, (1.0, 0.0)))]
        monkeypatch.setattr(nash_step, "_chain", _never)
        with pytest.raises(UnderResolvedError, match=r"collar of 44 nodes .* 64 x 64 chart"):
            stage(u, terms, 1.5, 2.0, table, pullback_metric(u))

    @pytest.mark.parametrize("n, lam, kappa, collar", [(16, 2.0, 1.3, 9), (24, 1.5, 2.0, 13),
                                                       (32, 1.2, 3.0, 20)])
    def test_metric_addition_refused_before_any_pullback(self, table, monkeypatch,
                                                         n, lam, kappa, collar):
        import isoflex.nash_step as nash_step

        c = GridChart((1.0, 1.0), (n, n), CLAMPED)
        u = ImmersionField.flat(c)
        g = MetricField.constant(c, 2.0 * np.eye(2))
        h = MetricField.constant(c, np.zeros((2, 2)))
        for name in ("pullback_metric", "mollify", "solve_conformal"):
            monkeypatch.setattr(nash_step, name, _never)
        with pytest.raises(UnderResolvedError,
                           match=rf"collar of {collar} nodes .* {n} x {n} chart"):
            add_metric_2d(u, ScalarField.constant(c, 0.3), g, h, 0.1, lam, kappa, table)

    def test_one_interior_row_is_measured(self, table):
        # 2 * collar = n - 1 (ell / h = 41.5): one interior node per axis is enough
        c = GridChart((1.0, 1.0), (89, 89), CLAMPED)
        u = ImmersionField.flat(c)
        out = step(u, ScalarField.constant(c, 0.0), PhaseField.linear_phase(c, (1.0, 0.0)),
                   88 / 41.5, table, pullback_metric(u))
        assert out.meta["collar"] == 44
        assert out.defect_sup == 0.0


class TestAddMetric2d:
    def test_zero_rho_identity(self, table):
        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        u = ImmersionField.flat(c, scale=0.9)
        g = MetricField.constant(c, np.eye(2))
        h = MetricField.constant(c, np.zeros((2, 2)))
        rho = ScalarField.constant(c, 0.0)
        out = add_metric_2d(u, rho, g, h, delta=0.05, lam=8.0, kappa=1.5,
                            table=table)
        assert np.array_equal(out.v.values, u.values)
        assert out.defect_sup == 0.0

    @pytest.mark.parametrize("name", ["delta", "lam", "kappa"])
    def test_nan_parameter_refused_by_name(self, table, name):
        c = GridChart((1.0, 1.0), (64, 64), PERIODIC)
        u = ImmersionField.flat(c, scale=0.9)
        g = MetricField.constant(c, np.eye(2))
        h = MetricField.constant(c, np.zeros((2, 2)))
        rho = ScalarField.constant(c, 0.9 * np.sqrt(0.05))
        kw = {"delta": 0.05, "lam": 4.0, "kappa": 1.5, name: float("nan")}
        with pytest.raises(StepPreconditionError, match=rf"need [^;]*\b{name}\b[^;]*got nan"):
            add_metric_2d(u, rho, g, h, table=table, **kw)

    def test_no_norm_sweeps_of_the_data(self, table, monkeypatch):
        # a metric addition runs the frequencies its caller planned: it
        # takes no sup, C1 or C2 norm of rho, u or h to check them against
        import isoflex.grid as grid
        import isoflex.nash_step as nash_step

        calls = []
        for name in ("sup_norm", "c1_seminorm", "c2_seminorm"):
            def counting(f, _real=getattr(grid, name), _name=name):
                calls.append(_name)
                return _real(f)

            for module in (grid, nash_step):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        c = GridChart((1.0, 1.0), (128, 128), PERIODIC)
        u = ImmersionField.flat(c, scale=0.9)
        g = MetricField.constant(c, np.eye(2))
        h = MetricField.constant(c, np.zeros((2, 2)))
        rho = ScalarField.constant(c, 0.9 * np.sqrt(0.05))
        out = add_metric_2d(u, rho, g, h, delta=0.05, lam=4.0, kappa=1.5, table=table)
        assert len(out.meta["steps"]) == 2
        assert calls == []

    def test_constant_increment_lands(self, table):
        c = GridChart((1.0, 1.0), (512, 512), PERIODIC)
        u = ImmersionField.flat(c, scale=0.9)
        g = MetricField.constant(c, np.eye(2))
        h = MetricField.constant(c, np.zeros((2, 2)))
        delta = 0.05
        rho = ScalarField.constant(c, np.sqrt(delta) * 0.9)
        out = add_metric_2d(u, rho, g, h, delta=delta, lam=8.0, kappa=1.5,
                            table=table)
        # the measured constant of |E|_0 <= C delta lam^(1-kappa) stays O(1)
        assert out.meta["stage_constant"] < 6.0
        assert out.defect_sup < 6.0 * delta * 8.0 ** (1.0 - 1.5)
        assert out.support_ok

    def test_one_pullback_per_immersion(self, table, monkeypatch):
        # add_metric_2d pulls back u once and each step's output once; the
        # stage and the final defect read the pullbacks handed on to them
        import isoflex.nash_step as nash_step

        calls = []

        def counting(u, *args, **kwargs):
            calls.append(u)
            return pullback_metric(u, *args, **kwargs)

        monkeypatch.setattr(nash_step, "pullback_metric", counting)
        c = GridChart((1.0, 1.0), (128, 128), PERIODIC)
        u = ImmersionField.flat(c, scale=0.9)
        g = MetricField.constant(c, np.eye(2))
        h = MetricField.constant(c, np.zeros((2, 2)))
        rho = ScalarField.constant(c, 0.9 * np.sqrt(0.05))
        args = (u, rho, g, h)
        kw = {"delta": 0.05, "lam": 4.0, "kappa": 1.5, "table": table}
        out = add_metric_2d(*args, **kw)
        assert len(out.meta["steps"]) == 2
        assert len(calls) == 3
        assert calls[0] is u and calls[-1] is out.v
        assert len({id(v) for v in calls}) == 3
        assert np.array_equal(out.pullback.values, pullback_metric(out.v).values)
        # nothing is kept between calls: the same call pays the same again
        again = add_metric_2d(*args, **kw)
        assert len(calls) == 6
        assert np.array_equal(again.v.values, out.v.values)
        assert (again.defect_sup, again.defect_c1) == (out.defect_sup, out.defect_c1)

    def test_held_pullback_is_read(self, table, monkeypatch):
        import isoflex.nash_step as nash_step

        c = GridChart((1.0, 1.0), (128, 128), PERIODIC)
        u = ImmersionField.flat(c, scale=0.9)
        g = MetricField.constant(c, np.eye(2))
        h = MetricField.constant(c, np.zeros((2, 2)))
        rho = ScalarField.constant(c, 0.9 * np.sqrt(0.05))
        kw = {"delta": 0.05, "lam": 4.0, "kappa": 1.5, "table": table}
        want = add_metric_2d(u, rho, g, h, **kw)
        pb_u = pullback_metric(u)
        held = pb_u.values.copy()
        calls = []

        def counting(v, *args, **kwargs):
            calls.append(v)
            return pullback_metric(v, *args, **kwargs)

        monkeypatch.setattr(nash_step, "pullback_metric", counting)
        got = add_metric_2d(u, rho, g, h, pb_u=pb_u, **kw)
        assert len(calls) == 2 and all(v is not u for v in calls)
        assert np.array_equal(pb_u.values, held)  # a shared pullback is never written
        assert np.array_equal(got.v.values, want.v.values)
        assert (got.defect_sup, got.defect_c1) == (want.defect_sup, want.defect_c1)

    def test_norms_computed_only_when_read(self, table, monkeypatch):
        # the outcome carries sup |v - u|; the norms of v cost a
        # norm_report only when v_norms is read
        import isoflex.nash_step as nash_step

        calls = []

        def counting(f, *args, **kwargs):
            calls.append(f)
            return norm_report(f, *args, **kwargs)

        monkeypatch.setattr(nash_step, "norm_report", counting)
        c = GridChart((1.0, 1.0), (128, 128), PERIODIC)
        u = ImmersionField.flat(c, scale=0.9)
        g = MetricField.constant(c, np.eye(2))
        h = MetricField.constant(c, np.zeros((2, 2)))
        rho = ScalarField.constant(c, 0.9 * np.sqrt(0.05))
        out = add_metric_2d(u, rho, g, h, delta=0.05, lam=4.0, kappa=1.5, table=table)
        assert calls == []
        assert out.displacement > 0
        assert out.displacement == sup_norm(ImmersionField(c, out.v.values - u.values))
        assert out.v_norms == norm_report(out.v)
        assert calls == [out.v]

    def test_planned_stage_runs_as_handed_over(self, table):
        # a caller's (base, K) is what runs: no snap, no re-derivation
        c = GridChart((1.0, 1.0), (256, 256), CLAMPED)
        u = ImmersionField.flat(c, scale=0.9)
        g = MetricField.constant(c, np.eye(2))
        h = MetricField.constant(c, np.zeros((2, 2)))
        rho = ScalarField.constant(c, 0.9 * np.sqrt(0.05))
        base, K = 9.5 * np.pi, 3.0 + 1e-7
        out = add_metric_2d(u, rho, g, h, delta=0.05, lam=4.0, kappa=1.5, table=table,
                            base=base, K=K)
        assert out.meta["base_frequency"] == base and out.meta["K"] == K
        assert [st["lam"] for st in out.meta["steps"]] == [base, base * K]
        assert out.meta["top_frequency"] == base * K

    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    def test_slab_reductions_match_whole_array(self, table, slab_budget, boundary):
        # the defect target pb_u + rho^2 (g + h), the moved mask and sup
        # |v - u| are formed slab by slab: each gives the whole array's value
        c = GridChart((1.0, 1.0), (96, 128), boundary)
        u = ImmersionField.flat(c, scale=0.9)
        g = MetricField.constant(c, np.eye(2))
        h = MetricField.constant(c, np.zeros((2, 2)))
        rho = ScalarField(c, 0.9 * np.sqrt(0.05) * bump_field(c, 1.0).values)
        out = add_metric_2d(u, rho, g, h, delta=0.05, lam=4.0, kappa=1.5, table=table)
        target = pullback_metric(u).values + (rho.values ** 2)[..., None] * (g.values + h.values)
        assert _measure_defect(out.pullback, target, out.meta["collar"]) == (
            out.defect_sup, out.defect_c1)
        moved = np.abs(out.v.values - u.values).max(axis=-1) > 1e-14
        assert moved.any() and not moved.all()
        assert _support_inflation(moved, rho.values != 0.0, c) == out.meta["support_inflation"]
        whole = float(np.max(np.linalg.norm(out.v.values - u.values, axis=-1)))
        assert out.displacement == _displacement(out.v.values, u.values) == whole

    def test_chain_drops_each_steps_pullback(self, table, monkeypatch):
        # a step's v#e is read by no later step: it is freed before the next
        # step runs, and the last one is the outcome's
        import weakref

        import isoflex.nash_step as nash_step

        corrugate, made, alive = nash_step._corrugate, [], []

        def tracking(*args):
            alive.append([ref() is not None for ref in made])
            c = corrugate(*args)
            made.append(weakref.ref(c.pullback))
            return c

        monkeypatch.setattr(nash_step, "_corrugate", tracking)
        c = GridChart((1.0, 1.0), (128, 128), PERIODIC)
        u = ImmersionField.flat(c, scale=0.9)
        g = MetricField.constant(c, np.eye(2))
        h = MetricField.constant(c, np.zeros((2, 2)))
        rho = ScalarField.constant(c, 0.9 * np.sqrt(0.05))
        out = add_metric_2d(u, rho, g, h, delta=0.05, lam=4.0, kappa=1.5, table=table)
        assert alive == [[], [False]]
        assert made[-1]() is out.pullback

    def test_support_inflation_bounded(self, table):
        c = GridChart((1.0, 1.0), (768, 768), CLAMPED)
        u = ImmersionField.flat(c, scale=0.9)
        g = MetricField.constant(c, np.eye(2))
        h = MetricField.constant(c, np.zeros((2, 2)))
        delta = 0.04
        rho = ScalarField(c, np.sqrt(delta) * 0.9 * bump_field(c, 1.0).values)
        lam = 8.0
        out = add_metric_2d(u, rho, g, h, delta=delta, lam=lam, kappa=1.5,
                            table=table)
        ell = lam ** -1.5
        assert out.meta["support_inflation"] <= ell + 1.5 * max(c.spacing)
        assert out.support_ok


class TestMeasuredOnce:
    def test_each_layer_measures_only_its_own_defect(self, table, monkeypatch):
        # the steps of a stage are not measured: a two-term metric addition
        # measures against rho^2 (g + h) alone, and the two-term bootstrap
        # stage of a flat torus against the sum of its primitives alone
        import isoflex.nash_step as nash_step

        calls = []

        def counting(pb, target, collar):
            calls.append(pb)
            return _measure_defect(pb, target, collar)

        monkeypatch.setattr(nash_step, "_measure_defect", counting)
        c = GridChart((1.0, 1.0), (128, 128), PERIODIC)
        u = ImmersionField.flat(c, scale=0.9)
        g = MetricField.constant(c, np.eye(2))
        h = MetricField.constant(c, np.zeros((2, 2)))
        rho = ScalarField.constant(c, 0.9 * np.sqrt(0.05))
        out = add_metric_2d(u, rho, g, h, delta=0.05, lam=4.0, kappa=1.5, table=table)
        assert len(out.meta["steps"]) == 2
        assert len(calls) == 1 and calls[0] is out.pullback

        calls.clear()
        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        g = MetricField.constant(c, 1.44 * np.eye(2))
        _, pb_t, _, _, rep = bootstrap_strong(ImmersionField.flat(c), g, 4.0, table)
        assert rep["terms"] == 2 and rep["stage_defect_sup"] > 0.0
        assert len(calls) == 1 and calls[0] is pb_t


def _cap(n, extent):
    """Flat map at scale 0.85 under the spherical-cap metric f^2 I, f = 1.2 /
    (1 + r^2/2) about the centre of a clamped n^2 chart of the given extent."""
    c = GridChart((extent, extent), (n, n), CLAMPED)
    x, y = c.mesh()
    f = 1.2 / (1.0 + 0.5 * ((x - extent / 2) ** 2 + (y - extent / 2) ** 2))
    return (ImmersionField.flat(c, scale=0.85),
            MetricField.from_components(c, f ** 2, 0 * f, f ** 2))


class TestBootstrap:
    def test_not_strictly_short_refused(self, table):
        c = GridChart((1.0, 1.0), (128, 128), PERIODIC)
        u = ImmersionField.flat(c)
        g = MetricField.constant(c, np.eye(2))
        with pytest.raises(StepPreconditionError, match="not strictly short"):
            bootstrap_strong(u, g, 4.0, table)

    def test_exact_margin_is_trivial(self, table):
        c = GridChart((1.0, 1.0), (128, 128), PERIODIC)
        g = MetricField.constant(c, 1.44 * np.eye(2))
        u = ImmersionField.flat(c, scale=np.sqrt(1.44 * 0.875))
        u_t, _, h_t, ds, rep = bootstrap_strong(u, g, 4.0, table, delta_star=0.125)
        assert rep["trivial"]
        assert np.array_equal(u_t.values, u.values)
        assert np.max(np.abs(h_t.values)) == 0.0
        assert ds == 0.125

    def test_largest_dyadic_selection(self, table):
        c = GridChart((1.0, 1.0), (512, 512), PERIODIC)
        g = MetricField.constant(c, np.eye(2))
        u = ImmersionField.flat(c, scale=0.8)  # margin 0.36: delta* = 1/8
        u_t, _, h_t, ds, rep = bootstrap_strong(u, g, 16.0, table)
        assert ds == 0.125
        assert rep["strong_ok"] and rep["half_band_ok"]
        # g - u~#e = delta*(g + h~) holds by construction of h~
        pb = pullback_metric(u_t)
        resid = g.values - pb.values - ds * (g.values + h_t.values)
        assert np.max(np.abs(resid)) < 1e-12

    def test_budgets_reported_against_a0(self, table):
        c = GridChart((1.0, 1.0), (512, 512), PERIODIC)
        g = MetricField.constant(c, np.eye(2))
        u = ImmersionField.flat(c, scale=0.8)
        _, _, _, _, rep = bootstrap_strong(u, g, 16.0, table)
        assert rep["h_sup_budget"] == pytest.approx(16.0 ** -rep["alpha_star"])
        assert rep["u_moved"] <= rep["u_moved_budget"]
        assert rep["h_sup"] <= rep["h_sup_budget"]
        # no verdict on |h~|_C1 or |u~|_C2: nothing read it
        assert not {"budgets_ok", "h_c1", "h_c1_budget", "u_c2", "u_c2_budget"} & set(rep)

    def test_frequency_ceiling_refused_up_front(self, table, monkeypatch):
        # the clamped cap at 64^2: from base 4 pi the stage needs K >= 2,
        # and 4 pi 2 = 8 pi tops the ceiling 24.74; the refusal comes before
        # any step runs and names the resolution (65^2) whose ceiling is
        # exactly 8 pi
        import isoflex.nash_step as nash_step

        calls = []
        monkeypatch.setattr(nash_step, "_corrugate", lambda *a, **k: calls.append(a))
        u, g = _cap(64, 1.0)
        with pytest.raises(UnderResolvedError, match="frequency ceiling") as exc:
            bootstrap_strong(u, g, 4.0, table)
        assert "65x65" in str(exc.value) and calls == []
        monkeypatch.undo()
        u, g = _cap(65, 1.0)
        with pytest.raises(ShortnessLostError):  # the ceiling check passes
            bootstrap_strong(u, g, 4.0, table)

    def test_cap_error_term_follows_one_over_k(self, table):
        # the cap's conformal factorization always exists; what refuses it
        # is the resolution: |h~| falls like 1/K as the grid is refined
        h_sup, growth = [], []
        for n in (128, 256):
            u, g = _cap(n, 1.0)
            with pytest.raises(ShortnessLostError, match="strong-short band") as exc:
                bootstrap_strong(u, g, 4.0, table)
            h_sup.append(float(str(exc.value).split("reaches ")[1]))
            growth.append(0.98 * frequency_ceiling(u.chart) / (4.0 * np.pi))
        assert h_sup[0] / h_sup[1] == pytest.approx(growth[1] / growth[0], rel=0.25)

    def test_off_diagonal_torus(self, table):
        # the conformal phases of an off-diagonal metric are turned onto the
        # torus lattice: a small g12 passes the strong band, and a large one
        # is refused by the band rather than by rounding a phase at the base
        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        g = MetricField.constant(c, np.array([[1.44, 0.05], [0.05, 1.44]]))
        _, _, _, _, rep = bootstrap_strong(ImmersionField.flat(c), g, 4.0, table)
        assert rep["strong_ok"] and rep["terms"] == 2
        g = MetricField.constant(c, np.array([[1.44, 0.2], [0.2, 1.44]]))
        with pytest.raises(ShortnessLostError, match="strong-short band"):
            bootstrap_strong(ImmersionField.flat(c), g, 4.0, table)

    def test_anisotropic_diagonal_torus_passes_the_band(self, table):
        # g = diag(1.44, 1.21) has a constant Beltrami coefficient mu ~ 0.235,
        # so Phi_1 = (1 + mu) x: rounded at the base 2 pi it would lose 19% of
        # its metric, and Phi_2 = (1 - mu) y would run below its frequency
        c = GridChart((1.0, 1.0), (512, 512), PERIODIC)
        g = MetricField.constant(c, np.diag([1.44, 1.21]))
        _, _, _, _, rep = bootstrap_strong(ImmersionField.flat(c), g, 4.0, table)
        assert rep["strong_ok"] and rep["h_sup"] < 0.5

    @pytest.mark.parametrize("m12, wave", [(0.0, 0.0), (0.1, 0.0), (0.1, 0.05)])
    def test_torus_terms_keep_the_metric(self, m12, wave):
        # the turned terms add the metric of the factorization's own terms,
        # the first wraps at the base with no rounding and the second's
        # linear part has unit length
        from isoflex.nash_step import _conformal_terms, _primitive, _torus_terms

        c = GridChart((1.0, 1.0), (64, 64), PERIODIC)
        x, y = c.mesh()
        m11 = 0.35 + wave * np.cos(2.0 * np.pi * (x + 2.0 * y))
        target = MetricField.from_components(c, m11, m12 + 0.0 * x, 0.134 + 0.0 * x)
        phi1, phi2, theta, _, _ = _conformal_terms(target)
        assert commensurate_phase(phi1, 2.0 * np.pi)[1] > 0.1
        terms = _torus_terms(phi1, phi2, theta, 2.0 * np.pi)
        assert commensurate_phase(terms[0][1], 2.0 * np.pi)[1] == 0.0
        assert np.hypot(*terms[1][1].linear) == pytest.approx(1.0, abs=1e-15)
        total = sum(_primitive(r, p.gradient()) for r, p in terms)
        given = sum(_primitive(theta, p.gradient()) for p in (phi1, phi2))
        assert np.max(np.abs(total - given)) < 1e-12
        assert np.max(np.abs(given - target.values)) < 1e-5

    def test_supplied_delta_star_validated(self, table):
        c = GridChart((1.0, 1.0), (128, 128), PERIODIC)
        g = MetricField.constant(c, np.eye(2))
        u = ImmersionField.flat(c, scale=0.99)  # margin 0.02 < 1/8
        with pytest.raises(StepPreconditionError, match="delta"):
            bootstrap_strong(u, g, 4.0, table, delta_star=0.125)

    def test_supplied_delta_star_at_the_margin_refused(self, table):
        # delta* = 1/8 is exactly the margin where f^2 = 8/7: m0 is singular
        # there (min eigenvalue -5.6e-17), which the factorization cannot
        # take, and the bootstrap refuses it by name rather than letting the
        # Beltrami coefficient fail
        c = GridChart((1.0, 1.0), (64, 64), PERIODIC)
        x, _ = c.mesh()
        f2 = 8.0 / 7.0 + 0.1 * (1.0 - np.cos(2.0 * np.pi * x))
        g = MetricField.from_components(c, f2, 0.0 * f2, f2)
        with pytest.raises(StepPreconditionError, match="exceeds the shortness margin"):
            bootstrap_strong(ImmersionField.flat(c), g, 4.0, table, delta_star=0.125)


class TestStepInvariants:
    def test_c2_growth_constant_stable_across_octaves(self, table):
        # |v|_2 <= C eps^(1/2) lam with C stable as lam doubles
        c = GridChart((1.0, 1.0), (768, 768), CLAMPED)
        u = ImmersionField.flat(c)
        eps = 0.01
        rho = bump_field(c, eps)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        consts = []
        for lam in (48.0, 96.0, 192.0):
            out = step(u, rho, phi, lam, table, pullback_metric(u))
            consts.append(out.v_norms.c2_norm / (np.sqrt(eps) * lam))
        assert max(consts) / min(consts) < 1.3
        assert max(consts) < 5.0


class TestEquiangularStage:
    def test_three_term_frame_stage_on_clamped_square(self, table):
        # add 0.1 Id through the three equiangular primitives; the frame
        # coefficients are exactly 2/3 * 0.1 and the measured stage error
        # follows the C eps / K law (C ~ 4, so ~0.08 at K=5, frozen here)
        from isoflex.decomposition import build_frame

        c = GridChart((1.0, 1.0), (512, 512), CLAMPED)
        u = ImmersionField.flat(c)
        frame = build_frame(2)
        coeffs = frame.coefficients(0.1 * np.eye(2))
        assert np.allclose(coeffs, 0.1 * 2.0 / 3.0, atol=1e-15)
        terms = [(ScalarField.constant(c, np.sqrt(co)), PhaseField.linear_phase(c, d))
                 for co, d in zip(coeffs, frame.directions)]
        out = stage(u, terms, 6.2, 5.0, table, pullback_metric(u))
        pb = pullback_metric(out.v)
        collar = out.meta["collar"]
        inner = (slice(collar, -collar),) * 2
        err = np.max(np.abs(pb.values[inner] - np.array([1.1, 0.0, 1.1])))
        assert err < 0.1
        assert out.gamma_bar < 1.35
