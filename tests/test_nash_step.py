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
    norm_report,
    pullback_metric,
    sup_norm,
)
from isoflex.nash_step import (
    ShortnessLostError,
    StageParams,
    StepParams,
    StepPreconditionError,
    add_metric_2d,
    bootstrap_strong,
    commensurate_phase,
    stage,
    step,
    torus_primitive_coefficients,
)


@pytest.fixture(scope="module")
def table():
    return build_corrugation()


def flat_params(lam, eps=0.01, nu=6.0, **kw):
    return StepParams(lam=lam, eps=eps, delta=eps, nu=nu, nu_tilde=nu,
                      M=4.0, gamma=4.0, c0=min(1.0, lam / nu), **kw)


def bump_field(chart, eps, radius=0.3):
    def fn(x, y):
        r2 = ((x - 0.5) ** 2 + (y - 0.5) ** 2) / radius ** 2
        return np.sqrt(eps) * np.where(r2 < 1, (1 - r2) ** 3, 0.0)

    return ScalarField.from_function(chart, fn)


class TestStepParams:
    def test_frequency_floor_enforced(self):
        with pytest.raises(StepPreconditionError, match="frequency"):
            StepParams(lam=1.0, eps=0.01, delta=1.0, nu=10.0, nu_tilde=10.0)

    def test_eps_delta_ordering(self):
        with pytest.raises(StepPreconditionError, match="eps"):
            StepParams(lam=100.0, eps=0.5, delta=0.1, nu=1.0, nu_tilde=1.0)

    def test_nu_ordering(self):
        with pytest.raises(StepPreconditionError, match="nu"):
            StepParams(lam=100.0, eps=0.1, delta=0.1, nu=5.0, nu_tilde=1.0)

    def test_stage_growth_hypothesis(self):
        p = StepParams(lam=100.0, eps=0.1, delta=0.1, nu=1.0, nu_tilde=10.0)
        with pytest.raises(StepPreconditionError, match="growth"):
            StageParams(K=5.0).validate_against(p)
        StageParams(K=11.0).validate_against(p)


class TestStep:
    def test_zero_amplitude_is_identity(self, table):
        c = GridChart((1.0, 1.0), (256, 256), CLAMPED)
        u = ImmersionField.flat(c)
        rho = ScalarField.constant(c, 0.0)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        out = step(u, rho, phi, flat_params(64.0), table)
        assert np.array_equal(out.v.values, u.values)
        assert out.support_ok

    def test_resolution_rule(self, table):
        c = GridChart((1.0, 1.0), (64, 64), CLAMPED)
        u = ImmersionField.flat(c)
        rho = bump_field(c, 0.01)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        with pytest.raises(UnderResolvedError, match="wavelength"):
            step(u, rho, phi, flat_params(256.0), table)

    def test_support_exact(self, table):
        c = GridChart((1.0, 1.0), (512, 512), CLAMPED)
        u = ImmersionField.flat(c)
        rho = bump_field(c, 0.01)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        out = step(u, rho, phi, flat_params(64.0), table)
        assert out.support_ok
        assert out.meta["moved_outside_support"] == 0.0

    def test_adds_primitive_metric(self, table):
        c = GridChart((1.0, 1.0), (512, 512), CLAMPED)
        u = ImmersionField.flat(c)
        rho = bump_field(c, 0.01)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        out = step(u, rho, phi, flat_params(96.0), table)
        # defect against pullback(u) + rho^2 grad(phi) (x) grad(phi) is small
        assert out.defect_sup < 5e-4
        assert out.gamma_bar < 1.1

    def test_amplitude_over_table_domain(self, table):
        c = GridChart((1.0, 1.0), (512, 512), CLAMPED)
        u = ImmersionField.flat(c)
        rho = ScalarField.constant(c, 1.2)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        p = StepParams(lam=64.0, eps=1.0, delta=1.0, nu=1.0, nu_tilde=1.0,
                       M=4.0, gamma=4.0)
        with pytest.raises(CorrugationDomainError, match="eps"):
            step(u, rho, phi, p, table)

    def test_band_violation_named(self, table):
        c = GridChart((1.0, 1.0), (256, 256), CLAMPED)
        u = ImmersionField.flat(c, scale=5.0)  # pullback 25 Id, outside gamma=4
        rho = bump_field(c, 0.01)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        with pytest.raises(StepPreconditionError, match="band"):
            step(u, rho, phi, flat_params(64.0), table)

    def test_incommensurate_phase_rejected_on_torus(self, table):
        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        u = ImmersionField.flat(c)
        rho = ScalarField.constant(c, 0.1)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        with pytest.raises(StepPreconditionError, match="wrap"):
            step(u, rho, phi, flat_params(63.7), table)  # 63.7/(2 pi) not integer


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


class TestStage:
    def test_empty_terms_identity(self, table):
        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        u = ImmersionField.flat(c)
        p = flat_params(64.0)
        out = stage(u, [], p, StageParams(K=2.0), table)
        assert out.v is u
        assert out.defect_sup == 0.0

    def test_zero_amplitude_terms_skipped(self, table):
        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        u = ImmersionField.flat(c)
        zero = ScalarField.constant(c, 0.0)
        phi = PhaseField.linear_phase(c, (1.0, 0.0))
        p = StepParams(lam=2 * np.pi * 8, eps=0.01, delta=0.01, nu=1.0,
                       nu_tilde=1.0, M=2.0, gamma=2.0)
        out = stage(u, [(zero, phi), (zero, phi)], p, StageParams(K=2.0, c1=1.0), table)
        assert np.array_equal(out.v.values, u.values)
        assert out.meta["skipped_zero_terms"] == 2

    def test_two_term_stage_adds_sum(self, table):
        c = GridChart((1.0, 1.0), (512, 512), PERIODIC)
        u = ImmersionField.flat(c)
        fac = solve_conformal(MetricField.constant(c, 0.05 * np.eye(2)))
        amp = ScalarField(c, fac.theta.values)
        p = StepParams(lam=2 * np.pi * 2, eps=0.05, delta=0.05, nu=1.0,
                       nu_tilde=1.0, M=2.0, gamma=2.0)
        out = stage(u, [(amp, fac.phi1), (amp, fac.phi2)], p,
                    StageParams(K=16.0, c1=1.0), table)
        pb = pullback_metric(out.v)
        target = np.eye(2) + 0.05 * np.eye(2)
        err = np.abs(pb.values - np.array([target[0, 0], 0.0, target[1, 1]]))
        assert np.max(err) < 0.02
        assert out.defect_sup < 0.02


class TestTorusCoefficients:
    def test_diagonal_metric_uses_two_terms(self):
        c = GridChart((1.0, 1.0), (32, 32), PERIODIC)
        m = MetricField.constant(c, np.diag([0.3, 0.2]))
        coeffs = torus_primitive_coefficients(m)
        assert np.allclose(coeffs[..., 0], 0.3)
        assert np.allclose(coeffs[..., 1], 0.2)
        assert np.allclose(coeffs[..., 2:], 0.0)

    def test_reconstruction_with_offdiagonal(self):
        c = GridChart((1.0, 1.0), (32, 32), PERIODIC)
        m = MetricField.constant(c, np.array([[0.3, 0.05], [0.05, 0.25]]))
        coeffs = torus_primitive_coefficients(m)
        assert coeffs.min() >= 0
        dirs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
        back = np.einsum("...i,ik,il->...kl", coeffs, dirs, dirs)
        assert np.allclose(back[..., 0, 0], 0.3, atol=1e-12)
        assert np.allclose(back[..., 0, 1], 0.05, atol=1e-12)
        assert np.allclose(back[..., 1, 1], 0.25, atol=1e-12)

    def test_too_strong_offdiagonal_rejected(self):
        c = GridChart((1.0, 1.0), (32, 32), PERIODIC)
        m = MetricField.constant(c, np.array([[1.0, 0.99], [0.99, 1.0]]))
        with pytest.raises(StepPreconditionError, match="off-diagonal"):
            torus_primitive_coefficients(m)


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

    def test_hypotheses_named(self, table):
        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        u = ImmersionField.flat(c, scale=0.9)
        g = MetricField.constant(c, np.eye(2))
        h = MetricField.constant(c, np.zeros((2, 2)))
        rho = ScalarField.constant(c, 0.5)  # exceeds delta^(1/2)
        with pytest.raises(StepPreconditionError, match=r"\|rho\|_0"):
            add_metric_2d(u, rho, g, h, delta=0.05, lam=8.0, kappa=1.5,
                          table=table)

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
        # add_metric_2d pulls back u once, each step's output once, the
        # stage's input and output once each, and the final map once
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
        out = add_metric_2d(u, rho, g, h, delta=0.05, lam=4.0, kappa=1.5, table=table)
        assert len(out.meta["steps"]) == 2
        assert len(calls) == 8

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
        u_t, h_t, ds, rep = bootstrap_strong(u, g, 4.0, table, delta_star=0.125)
        assert rep["trivial"]
        assert np.array_equal(u_t.values, u.values)
        assert np.max(np.abs(h_t.values)) == 0.0
        assert ds == 0.125

    def test_largest_dyadic_selection(self, table):
        c = GridChart((1.0, 1.0), (512, 512), PERIODIC)
        g = MetricField.constant(c, np.eye(2))
        u = ImmersionField.flat(c, scale=0.8)  # margin 0.36: delta* = 1/8
        u_t, h_t, ds, rep = bootstrap_strong(u, g, 16.0, table)
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
        _, _, _, rep = bootstrap_strong(u, g, 16.0, table)
        assert rep["h_sup_budget"] == pytest.approx(16.0 ** -rep["alpha_star"])
        assert rep["u_moved"] <= rep["u_moved_budget"]
        assert rep["h_sup"] <= rep["h_sup_budget"]

    def test_supplied_delta_star_validated(self, table):
        c = GridChart((1.0, 1.0), (128, 128), PERIODIC)
        g = MetricField.constant(c, np.eye(2))
        u = ImmersionField.flat(c, scale=0.99)  # margin 0.02 < 1/8
        with pytest.raises(StepPreconditionError, match="delta"):
            bootstrap_strong(u, g, 4.0, table, delta_star=0.125)


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
            out = step(u, rho, phi, flat_params(lam), table)
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
        p = StepParams(lam=6.2, eps=0.1, delta=0.1, nu=1.0, nu_tilde=1.0,
                       M=2.0, gamma=2.0, c0=1.0)
        out = stage(u, terms, p, StageParams(K=5.0, c1=1.0), table)
        pb = pullback_metric(out.v)
        collar = out.meta["collar"]
        inner = (slice(collar, -collar),) * 2
        err = np.max(np.abs(pb.values[inner] - np.array([1.1, 0.0, 1.1])))
        assert err < 0.1
        assert out.gamma_bar < 1.35
