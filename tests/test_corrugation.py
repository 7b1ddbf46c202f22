import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, quad
from scipy.special import j0, j1

from isoflex.corrugation import (
    _BLOCK,
    J0_FIRST_ZERO,
    CorrugationDomainError,
    _bessel_coefficients,
    build_corrugation,
    invert_j0,
)


@pytest.fixture(scope="module")
def table():
    return build_corrugation()


class TestBessel:
    # the series coefficients over the amplitudes a(s) of s in [0, 1], the
    # range their fixed top order is certified for
    def test_j0_against_mpmath(self):
        import mpmath

        xs = np.linspace(0.0, float(invert_j0(2 ** -0.5)), 40)
        ours = _bessel_coefficients(xs)[0]
        ref = np.array([float(mpmath.besselj(0, x)) for x in xs])
        assert np.max(np.abs(ours - ref)) < 1e-14

    def test_j1_against_mpmath(self):
        import mpmath

        xs = np.linspace(0.0, float(invert_j0(2 ** -0.5)), 40)
        ours = _bessel_coefficients(xs)[1]
        ref = np.array([float(mpmath.besselj(1, x)) for x in xs])
        assert np.max(np.abs(ours - ref)) < 1e-14

    def test_j0_against_mpmath_on_bisection_bracket(self):
        # invert_j0 bisects with this J0 over all of [0, j_{0,1}]
        import mpmath

        xs = np.linspace(0.0, J0_FIRST_ZERO, 400)
        ours = _bessel_coefficients(xs)[0]
        ref = np.array([float(mpmath.besselj(0, x)) for x in xs])
        assert np.max(np.abs(ours - ref)) < 1e-15

    def test_table_matches_bisection_on_scipy_j0(self, table):
        # the same bisection driven by an independent J0 lands within its
        # 1e-13 stopping width on every amplitude row
        t = 1.0 / np.sqrt(1.0 + table.s_vals ** 2)
        lo, hi = np.zeros_like(t), np.full_like(t, J0_FIRST_ZERO)
        while np.max(hi - lo) >= 1e-13:
            mid = 0.5 * (lo + hi)
            high_side = j0(mid) > t
            lo, hi = np.where(high_side, mid, lo), np.where(high_side, hi, mid)
        ref = np.where(t >= 1.0, 0.0, 0.5 * (lo + hi))
        assert np.max(np.abs(table.amplitude_profile - ref)) < 1e-13

    def test_invert_j0_residual(self):
        targets = np.linspace(0.72, 1.0, 20)
        alpha = invert_j0(targets)
        assert np.max(np.abs(j0(alpha) - targets)) < 1e-12

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
        s = table.s_vals[:-1, None]
        t = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)[None, :]
        assert np.max(table.identity_residual(s, t)) < 1e-9

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

    def test_quadrature_against_fine_subdivision(self, table):
        # composite Simpson integrals of the closed-form dt Gamma over a fine
        # subdivision of [0, 2pi] agree with the series at a profile node
        s = table.s_vals[40]
        t = np.linspace(0.0, 2 * np.pi, 4097)
        for name in ("g1", "g2"):
            ref = cumulative_simpson(table.eval(s, t, "dt_" + name), x=t, initial=0.0)
            got = table.eval(np.full_like(t, s), t, name)
            assert np.max(np.abs(got[::8] - ref[::8])) < 1e-8

    def test_profile_refinement(self):
        # only a(s) is sampled: a coarser profile moves Gamma by no more
        # than the cubic interpolation error of a
        coarse = build_corrugation(s_samples=96)
        t = np.linspace(-20.0, 20.0, 401)
        s = np.full_like(t, 0.437)
        for name in ("g1", "g2"):
            diff = coarse.eval(s, t, name) - build_corrugation().eval(s, t, name)
            assert np.max(np.abs(diff)) < 1e-7


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

    def test_rejects_nan_amplitude(self, table):
        # nan compares false against both ends of [0, s_max]; it must not
        # reach the profile lookup, which casts it to an index
        s = np.array([0.5, np.nan])
        for which in ("g1", ("g1", "g2"), "dt_g1"):
            with pytest.raises(CorrugationDomainError, match="nan"):
                table.eval(s, 0.0, which)

    def test_rejects_unknown_table(self, table):
        with pytest.raises(ValueError):
            table.eval(0.5, 0.0, "g3")
        for which in ((), ("g1", "dt_g2"), ("g1", "g3")):
            with pytest.raises(ValueError):
                table.eval(0.5, 0.0, which)

    def test_pair_bit_identical_to_separate_evals(self, table):
        # s = 0, s = s_max and random s against |t| up to 1e5, over more
        # points than one block of the series evaluation
        rng = np.random.default_rng(23)
        n = _BLOCK + 1000
        s = rng.uniform(0.0, table.s_max, n)
        s[:3], s[-3:] = 0.0, table.s_max
        t = rng.uniform(-1e5, 1e5, n)
        t[1] = 0.0
        g1, g2 = table.eval(s, t, ("g1", "g2"))
        assert np.array_equal(g1, table.eval(s, t, "g1"))
        assert np.array_equal(g2, table.eval(s, t, "g2"))
        grid = (s[:70].reshape(7, 10), t[:70].reshape(7, 10))
        for got, name in zip(table.eval(*grid, ("g1", "g2")), ("g1", "g2")):
            assert np.array_equal(got, table.eval(*grid, name))
        assert table.eval(table.s_max, -3.0, ("g2", "g1")) == (
            table.eval(table.s_max, -3.0, "g2"), table.eval(table.s_max, -3.0, "g1"))
        with pytest.raises(CorrugationDomainError):
            table.eval(s + 0.01, t, ("g1", "g2"))

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
        # the s-derivative of dt Gamma_1, with a'(s) from implicit
        # differentiation of J0(a) = (1+s^2)^(-1/2)
        s, t = 0.5, 2.2
        ds = 1e-5
        fd = (table.eval(s + ds, t, "dt_g1") - table.eval(s - ds, t, "dt_g1")) / (2 * ds)
        root = np.sqrt(1 + s * s)
        a = float(invert_j0(1.0 / root))
        ap = s * root ** -3 / j1(a)
        c, sn = np.cos(a * np.cos(t)), np.sin(a * np.cos(t))
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
            assert alpha == pytest.approx(table.amplitude_profile[row], abs=1e-15)

    # the integrand's own rounding trips QUADPACK's roundoff flag near this
    # tolerance; the bound below is asserted directly
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @settings(deadline=None, max_examples=40)
    @given(s=st.floats(0.0, 1.0), t=st.floats(-20.0, 20.0))
    @example(s=1.0, t=-20.0)
    @example(s=1e-3, t=19.9)
    def test_series_against_quadrature(self, table, s, t):
        # adaptive quadrature of the integrands at the same a, with the
        # t-mean sqrt(1+s^2) J0(a) - 1 of dt Gamma_1 removed
        a = float(table._interp_alpha(s))
        root = np.sqrt(1 + s * s)
        mean = root * j0(a) - 1.0
        opts = dict(epsabs=1e-14, epsrel=0.0, limit=400)
        ref1 = quad(lambda r: root * np.cos(a * np.cos(r)) - 1.0 - mean, 0.0, t, **opts)[0]
        ref2 = quad(lambda r: root * np.sin(a * np.cos(r)), 0.0, t, **opts)[0]
        assert abs(table.eval(s, t, "g1") - ref1) <= 1e-13
        assert abs(table.eval(s, t, "g2") - ref2) <= 1e-13

    def test_blocks_are_invisible(self, table):
        # the series runs in fixed-size blocks; a split input gives the same bits
        rng = np.random.default_rng(5)
        n = 2 * _BLOCK + 3
        s = rng.uniform(0, 1, n)
        t = rng.uniform(-20, 20, n)
        cuts = (0, 7, _BLOCK + 1, n - 1, n)
        for name in ("g1", "g2"):
            whole = table.eval(s, t, name)
            parts = [table.eval(s[a:b], t[a:b], name) for a, b in zip(cuts[:-1], cuts[1:])]
            assert np.array_equal(whole, np.concatenate(parts))


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
        # on the profile nodes, where a(s) is the root itself
        s = np.linspace(0.0, 1.0, 256)[:, None]
        t = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)[None, :]
        for name in ("dt_g1", "dt_g2"):
            means = np.abs(np.mean(table.eval(s, t, name), axis=1))
            assert np.max(means) < 1e-10
