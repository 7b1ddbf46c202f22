import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoflex.corrugation import (
    J0_FIRST_ZERO,
    CorrugationDomainError,
    CorrugationTable,
    _alpha_prime,
    bessel_j0,
    bessel_j1,
    build_corrugation,
    invert_j0,
)


@pytest.fixture(scope="module")
def table():
    return build_corrugation()


class TestBessel:
    def test_j0_against_mpmath(self):
        import mpmath

        xs = np.linspace(0.0, 2.5, 40)
        ours = bessel_j0(xs)
        ref = np.array([float(mpmath.besselj(0, x)) for x in xs])
        assert np.max(np.abs(ours - ref)) < 1e-14

    def test_j1_against_mpmath(self):
        import mpmath

        xs = np.linspace(0.0, 2.5, 40)
        ours = bessel_j1(xs)
        ref = np.array([float(mpmath.besselj(1, x)) for x in xs])
        assert np.max(np.abs(ours - ref)) < 1e-14

    def test_invert_j0_residual(self):
        targets = np.linspace(0.72, 1.0, 20)
        alpha = invert_j0(targets)
        assert np.max(np.abs(bessel_j0(alpha) - targets)) < 1e-12

    def test_invert_j0_at_one(self):
        assert invert_j0(1.0) == 0.0

    def test_invert_j0_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            invert_j0(-0.1)

    def test_alpha_for_s_half_matches_root_oracle(self, table):
        # independent root oracle at machine precision
        import mpmath

        target = 1.0 / mpmath.sqrt(1.25)
        ref = float(mpmath.findroot(lambda a: mpmath.besselj(0, a) - target, 1.0))
        got = float(invert_j0(float(target)))
        assert abs(got - ref) < 1e-12


class TestBuild:
    def test_zero_amplitude_row_vanishes(self, table):
        assert table.eval(0.0, 1.234, "g2") == 0.0
        assert table.eval(0.0, 0.37, "g1") == 0.0
        assert table.eval(0.0, 2.9, "dt_g1") == 0.0

    def test_identity_residual_at_nodes(self, table):
        assert table.metadata["identity_residual"] < 1e-9

    def test_period_defect(self, table):
        assert table.metadata["period_defect"] < 1e-10

    def test_identity_at_s_half(self, table):
        t = np.linspace(0, 2 * np.pi, 777)
        assert np.max(table.identity_residual(0.5, t)) < 1e-10

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_corrugation(s_max=1.5)
        with pytest.raises(ValueError):
            build_corrugation(s_samples=16)

    def test_quadrature_against_fine_subdivision(self):
        # halving both sample counts should not move Gamma values at shared
        # nodes beyond the Simpson error of the coarse table
        coarse = build_corrugation(s_samples=96, t_samples=256)
        fine = build_corrugation(s_samples=96, t_samples=512)
        s = coarse.s_vals[40]
        t = coarse.t_vals[::8]
        dc = coarse.eval(np.full_like(t, s), t, "g1")
        df = fine.eval(np.full_like(t, s), t, "g1")
        assert np.max(np.abs(dc - df)) < 1e-8


class TestEval:
    def test_periodic_wrap_exact(self, table):
        rng = np.random.default_rng(0)
        s = rng.uniform(0, 1, 50)
        t = rng.uniform(0, 2 * np.pi, 50)
        for name in ("g1", "g2", "dt_g1", "dt_g2"):
            a = table.eval(s, t, name)
            b = table.eval(s, t + 2 * np.pi, name)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_rejects_beyond_s_max(self, table):
        with pytest.raises(CorrugationDomainError):
            table.eval(1.01, 0.0, "g1")

    def test_rejects_unknown_table(self, table):
        with pytest.raises(ValueError):
            table.eval(0.5, 0.0, "g3")

    def test_interpolated_identity_random_points(self, table):
        rng = np.random.default_rng(42)
        s = rng.uniform(0, 1, 1000)
        t = rng.uniform(-10, 10, 1000)
        assert np.max(table.identity_residual(s, t)) < 1e-8

    def test_matches_direct_integrand(self, table):
        # dt tables are analytic; compare the interpolant off-node
        s, t = 0.437, 1.871
        alpha = float(invert_j0(1.0 / np.sqrt(1 + s * s)))
        exact = np.sqrt(1 + s * s) * np.cos(alpha * np.cos(t)) - 1.0
        assert table.eval(s, t, "dt_g1") == pytest.approx(exact, abs=1e-9)

    def test_ds_consistent_with_difference_quotient(self, table):
        # the s-derivative of dt Gamma_1 behind the recorded C_dsdt_g1
        s, t = 0.5, 2.2
        ds = 1e-5
        fd = (table.eval(s + ds, t, "dt_g1") - table.eval(s - ds, t, "dt_g1")) / (2 * ds)
        root = np.sqrt(1 + s * s)
        a = invert_j0(np.array([1.0 / root]))
        ap = float(_alpha_prime(np.array([s]), a)[0])
        c, sn = np.cos(a[0] * np.cos(t)), np.sin(a[0] * np.cos(t))
        assert fd == pytest.approx(s / root * c - root * sn * ap * np.cos(t), abs=1e-6)

    def test_dt_consistent_with_difference_quotient(self, table):
        # the closed-form t-derivatives agree with the tabulated Gamma
        s, t = 0.5, 2.2
        dt = 1e-5
        for name in ("g1", "g2"):
            fd = (table.eval(s, t + dt, name) - table.eval(s, t - dt, name)) / (2 * dt)
            assert table.eval(s, t, "dt_" + name) == pytest.approx(fd, abs=1e-6)

    @settings(deadline=None, max_examples=60)
    @given(s=st.floats(0.0, 1.0), t=st.floats(-10.0, 10.0))
    @example(s=1.0, t=0.3)
    @example(s=1.0, t=0.0)
    def test_whole_certified_range(self, table, s, t):
        # s = s_max is certified: the stencil must stop at the guard row
        for name in ("g1", "g2", "dt_g1"):
            assert np.isfinite(table.eval(s, t, name))
        alpha = float(table._interp_alpha(s))
        assert alpha == pytest.approx(float(invert_j0(1.0 / np.sqrt(1 + s * s))), abs=1e-7)
        assert table.identity_residual(s, t) < 1e-9
        if s == table.s_max:
            row = table.s_samples - 1
            j = int(np.argmin(np.abs(table.t_vals - np.mod(t, 2 * np.pi))))
            t_node = table.t_vals[j]
            assert table.eval(s, t_node, "g1") == pytest.approx(
                table.tables["g1"][row, j], abs=1e-15)
            assert alpha == pytest.approx(table.amplitude_profile[row], abs=1e-15)


class TestScalings:
    def test_derivative_scaling_constants(self, table):
        # |dt G1| <= C s^2, |dt G2| <= C s with C <= 2 down to s = 2^-10
        t = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        for k in range(1, 11):
            s = 2.0 ** -k
            r1 = np.max(np.abs(table.eval(np.full_like(t, s), t, "dt_g1"))) / s ** 2
            r2 = np.max(np.abs(table.eval(np.full_like(t, s), t, "dt_g2"))) / s
            assert r1 < 2.0, f"s=2^-{k}: |dt_g1|/s^2 = {r1}"
            assert r2 < 2.0, f"s=2^-{k}: |dt_g2|/s = {r2}"

    def test_mixed_derivative_scaling(self, table):
        t = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
        ds = 1e-6
        for k in range(1, 9):
            s = 2.0 ** -k
            up = table.eval(np.full_like(t, s + ds), t, "dt_g1")
            dn = table.eval(np.full_like(t, s - ds), t, "dt_g1")
            ratio = np.max(np.abs(up - dn) / (2 * ds)) / s
            assert ratio < 4.0

    def test_zero_mean_in_t(self, table):
        # periodicity of Gamma in integral form: t-averages of dt rows vanish
        s = table.s_vals[:-1, None]
        t = table.t_vals[None, :]
        for name in ("dt_g1", "dt_g2"):
            means = np.abs(np.mean(table.eval(s, t, name), axis=1))
            assert np.max(means) < 1e-10

    def test_recorded_constants(self, table):
        assert table.metadata["C_dt_g1"] < 2.0
        assert table.metadata["C_dt_g2"] < 2.0
        assert table.metadata["C_dsdt_g1"] < 4.0
