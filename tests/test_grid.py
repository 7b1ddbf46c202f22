import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from isoflex.grid import (
    CLAMPED,
    PERIODIC,
    ChartError,
    GridChart,
    ImmersionField,
    MetricField,
    NormReport,
    ScalarField,
    UnderResolvedError,
    _bump_kernel,
    _diff,
    _diff1,
    _slabs,
    c1_seminorm,
    c2_seminorm,
    check_short,
    holder_seminorm,
    jacobian_slabs,
    mollify,
    norm_report,
    pullback_metric,
    slab_derivatives,
    sup_norm,
)
from isoflex.nash_step import _collar, _measure_defect


def square(n=64, boundary=CLAMPED):
    return GridChart((1.0, 1.0), (n, n), boundary)


class TestChart:
    def test_spacing_clamped(self):
        c = square(65)
        assert c.spacing == (1.0 / 64, 1.0 / 64)

    def test_spacing_periodic(self):
        c = square(64, PERIODIC)
        assert c.spacing == (1.0 / 64, 1.0 / 64)

    def test_resolution_floor(self):
        with pytest.raises(ChartError):
            GridChart((1.0, 1.0), (4, 64))

    def test_bad_boundary(self):
        with pytest.raises(ChartError):
            GridChart((1.0, 1.0), (64, 64), "dirichlet")

    def test_nan_rejected(self):
        c = square(16)
        v = np.zeros((16, 16))
        v[3, 3] = np.nan
        with pytest.raises(ValueError):
            ScalarField(c, v)


class TestPullback:
    def test_flat_plane_gives_identity(self):
        u = ImmersionField.flat(square(64))
        g = pullback_metric(u)
        assert np.allclose(g.values[..., 0], 1.0, atol=1e-12)
        assert np.allclose(g.values[..., 1], 0.0, atol=1e-12)
        assert np.allclose(g.values[..., 2], 1.0, atol=1e-12)

    def test_linear_map(self):
        u = ImmersionField.from_function(square(64), lambda x, y: (2 * x, y, 0 * x))
        g = pullback_metric(u)
        assert np.allclose(g.values[..., 0], 4.0, atol=1e-11)
        assert np.allclose(g.values[..., 2], 1.0, atol=1e-12)

    def test_cylinder_map_isometric_to_stencil_order(self):
        # unit-radius cylinder wrap of the chart: an exact isometry, so the
        # discrete pullback must equal Id up to the 4th-order stencil error
        n = 129
        c = square(n)
        u = ImmersionField.from_function(c, lambda x, y: (np.cos(x), np.sin(x), y))
        g = pullback_metric(u)
        h = c.spacing[0]
        interior = (slice(2, -2), slice(2, -2))
        assert np.max(np.abs(g.values[interior + (0,)] - 1.0)) < 10 * h ** 4
        # rows within two cells of the frame fall back to 2nd-order stencils
        assert np.max(np.abs(g.values[..., 0] - 1.0)) < 10 * h ** 2
        assert np.max(np.abs(g.values[..., 1])) < 10 * h ** 2
        assert np.max(np.abs(g.values[..., 2] - 1.0)) < 1e-12

    def test_degenerate_jacobian_flagged_not_fatal(self):
        u = ImmersionField.from_function(square(32), lambda x, y: (x * 0, y * 0, x * 0))
        g = pullback_metric(u)
        assert g.meta["degenerate_count"] == 32 * 32


# The derivative kernel against reference formulas: np.roll / moveaxis
# stencils and the einsum Gram.  The kernel evaluates the same floating-point
# operations in the same order, so the results must agree bit for bit.

def _ref_diff1(values, axis, h, periodic):
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    if periodic:
        out[:] = (-np.roll(f, -2, 0) + 8 * np.roll(f, -1, 0)
                  - 8 * np.roll(f, 1, 0) + np.roll(f, 2, 0)) / (12 * h)
    else:
        out[2:-2] = (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12 * h)
        out[0] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
        out[1] = (f[2] - f[0]) / (2 * h)
        out[-2] = (f[-1] - f[-3]) / (2 * h)
        out[-1] = (3 * f[-1] - 4 * f[-2] + f[-3]) / (2 * h)
    return np.moveaxis(out, 0, axis)


def _ref_diff2(values, axis, h, periodic):
    f = np.moveaxis(values, axis, 0)
    out = np.empty_like(f)
    h2 = h * h
    if periodic:
        out[:] = (-np.roll(f, -2, 0) + 16 * np.roll(f, -1, 0) - 30 * f
                  + 16 * np.roll(f, 1, 0) - np.roll(f, 2, 0)) / (12 * h2)
    else:
        out[2:-2] = (-f[4:] + 16 * f[3:-1] - 30 * f[2:-2] + 16 * f[1:-3] - f[:-4]) / (12 * h2)
        out[0] = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h2
        out[1] = (f[2] - 2 * f[1] + f[0]) / h2
        out[-2] = (f[-1] - 2 * f[-2] + f[-3]) / h2
        out[-1] = (2 * f[-1] - 5 * f[-2] + 4 * f[-3] - f[-4]) / h2
    return np.moveaxis(out, 0, axis)


def _ref_jacobian(u):
    hx, hy = u.chart.spacing
    p = u.chart.periodic
    jac = np.stack([_ref_diff1(u.values, 0, hx, p), _ref_diff1(u.values, 1, hy, p)], axis=-1)
    return jac if u.linear is None else jac + u.linear


def _ref_pullback(u):
    j = _ref_jacobian(u)
    g11 = np.einsum("...k,...k->...", j[..., 0], j[..., 0])
    g12 = np.einsum("...k,...k->...", j[..., 0], j[..., 1])
    g22 = np.einsum("...k,...k->...", j[..., 1], j[..., 1])
    return np.stack([g11, g12, g22], axis=-1)


def _ref_min_singular_value(u):
    j = _ref_jacobian(u)
    gram = np.einsum("...ki,...kj->...ij", j, j)
    tr = gram[..., 0, 0] + gram[..., 1, 1]
    det = gram[..., 0, 0] * gram[..., 1, 1] - gram[..., 0, 1] ** 2
    rad = np.sqrt(np.maximum((0.5 * tr) ** 2 - det, 0.0))
    return np.sqrt(np.maximum(0.5 * tr - rad, 0.0))


def _oblong(boundary):
    return GridChart((1.0, 1.7), (24, 40), boundary)


def _wavy_map(chart):
    x, y = chart.mesh()
    wave = 0.05 * np.stack([np.sin(2 * np.pi * (x + 2 * y / 1.7)),
                            np.cos(2 * np.pi * (3 * x - y / 1.7)),
                            np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y / 1.7)], axis=-1)
    return ImmersionField.flat(chart, scale=1.1).displaced(wave)


# charts that the slab_budget fixture (conftest.py) cuts into several slabs
# with a ragged last one, and the minimum chart
SLAB_SHAPES = [(75, 53), (8, 8)]


def _diff2(values, axis, h, periodic):
    return _diff(values, axis, h, 2, periodic)


def second_derivatives(values, chart):
    """(d_xx, d_xy, d_yy) assembled from the slabs of slab_derivatives."""
    slabs = [[d.copy() for d in ds]
             for _, ds in slab_derivatives(values, chart, ("xx", "xy", "yy"), _slabs(values))]
    return [np.concatenate(rows) for rows in zip(*slabs)]


def _ref_sup(*fields):
    return max(float(np.max(np.abs(f))) for f in fields)


class TestKernelReference:
    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("components", [(), (3,)])
    def test_stencils_bit_identical(self, boundary, axis, components):
        chart = _oblong(boundary)
        values = np.random.default_rng(7).standard_normal((*chart.resolution, *components))
        h = chart.spacing[axis]
        p = chart.periodic
        assert np.array_equal(_diff1(values, axis, h, p), _ref_diff1(values, axis, h, p))
        assert np.array_equal(_diff2(values, axis, h, p), _ref_diff2(values, axis, h, p))

    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    @pytest.mark.parametrize("components", [(), (3,)])
    def test_second_derivatives_bit_identical(self, boundary, components):
        chart = _oblong(boundary)
        values = np.random.default_rng(8).standard_normal((*chart.resolution, *components))
        hx, hy = chart.spacing
        p = chart.periodic
        ref = (_ref_diff2(values, 0, hx, p),
               _ref_diff1(_ref_diff1(values, 0, hx, p), 1, hy, p),
               _ref_diff2(values, 1, hy, p))
        for got, want in zip(second_derivatives(values, chart), ref):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    def test_pullback_bit_identical(self, boundary):
        u = _wavy_map(_oblong(boundary))
        if boundary == PERIODIC:
            assert u.linear is not None
        g = pullback_metric(u)
        assert np.array_equal(g.values, _ref_pullback(u))
        assert "degenerate_count" not in g.meta

    def test_rank_one_map_degenerate_count(self):
        chart = GridChart((1.0, 1.0), (32, 48), CLAMPED)
        u = ImmersionField.from_function(chart, lambda x, y: (x + y, 2 * (x + y), 0 * x))
        g = pullback_metric(u)
        assert np.array_equal(g.values, _ref_pullback(u))
        count = int(np.count_nonzero(_ref_min_singular_value(u) <= 1e-10))
        assert count > 0
        assert g.meta["degenerate_count"] == count

    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    def test_min_singular_value_against_svd(self, boundary):
        u = _wavy_map(_oblong(boundary))
        svd = np.linalg.svd(_ref_jacobian(u), compute_uv=False)[..., -1]
        sigma = u.min_singular_value()
        assert np.array_equal(sigma, _ref_min_singular_value(u))
        np.testing.assert_allclose(sigma, svd, rtol=1e-10)

    def test_pullback_builds_no_whole_jacobian(self, monkeypatch):
        # the fused pullback forms the Jacobian one slab of rows at a time
        calls = []
        jacobian = ImmersionField.jacobian

        def counted(self):
            calls.append(1)
            return jacobian(self)

        monkeypatch.setattr(ImmersionField, "jacobian", counted)
        pullback_metric(_wavy_map(_oblong(PERIODIC)))
        assert len(calls) == 0

    # Slab evaluation against the same references, on a grid that
    # SLAB_BUDGETS cut into several slabs with a ragged last one, and on the
    # 8 x 8 minimum chart.

    @pytest.mark.parametrize("shape", SLAB_SHAPES + [(75, 8)])
    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    @pytest.mark.parametrize("components", [(), (3,)])
    @pytest.mark.parametrize("layout", ["contiguous", "real_view", "fortran"])
    def test_slab_stencils_bit_identical(self, slab_budget, shape, boundary, components, layout):
        # the axis-1 kernel flattens each slab to (rows * ny, ...): a .real
        # view of a complex field (as PhaseField.periodic_values may be) and
        # an F-ordered field get the reference floats too, on the 8-column
        # chart and with 1-row slabs
        chart = GridChart((1.0, 1.3), shape, boundary)
        rng = np.random.default_rng(11)
        values = rng.standard_normal((*shape, *components))
        if layout == "real_view":
            values = (values + 1j * rng.standard_normal(values.shape)).real
        elif layout == "fortran":
            values = np.asfortranarray(values)
        assert values.flags.c_contiguous == (layout == "contiguous")
        hx, hy = chart.spacing
        p = chart.periodic
        for axis, h in ((0, hx), (1, hy)):
            assert np.array_equal(_diff1(values, axis, h, p), _ref_diff1(values, axis, h, p))
            assert np.array_equal(_diff2(values, axis, h, p), _ref_diff2(values, axis, h, p))
        ref = (_ref_diff2(values, 0, hx, p),
               _ref_diff1(_ref_diff1(values, 0, hx, p), 1, hy, p),
               _ref_diff2(values, 1, hy, p))
        for got, want in zip(second_derivatives(values, chart), ref):
            assert np.array_equal(got, want)
        f = ImmersionField(chart, values) if components else ScalarField(chart, values)
        v = values if components else values[..., None]
        if not components:
            assert np.array_equal(f.gradient(), np.stack([_ref_diff1(values, 0, hx, p),
                                                          _ref_diff1(values, 1, hy, p)], -1))
        assert c1_seminorm(f) == _ref_sup(_ref_diff1(v, 0, hx, p), _ref_diff1(v, 1, hy, p))
        assert c2_seminorm(f) == _ref_sup(_ref_diff2(v, 0, hx, p),
                                          _ref_diff1(_ref_diff1(v, 0, hx, p), 1, hy, p),
                                          _ref_diff2(v, 1, hy, p))

    @pytest.mark.parametrize("shape", SLAB_SHAPES)
    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    def test_slab_jacobian_gram_and_band(self, slab_budget, shape, boundary):
        u = _wavy_map(GridChart((1.0, 1.3), shape, boundary))
        ref = _ref_jacobian(u)
        jx, jy = u.jacobian()
        assert np.array_equal(jx, ref[..., 0]) and np.array_equal(jy, ref[..., 1])
        rows = [(x.copy(), y.copy()) for _, x, y in jacobian_slabs(u, _slabs(u.values))]
        assert np.array_equal(np.concatenate([x for x, _ in rows]), jx)
        assert np.array_equal(np.concatenate([y for _, y in rows]), jy)
        g = pullback_metric(u)
        assert np.array_equal(g.values, _ref_pullback(u))
        assert np.array_equal(u.min_singular_value(), _ref_min_singular_value(u))
        lo, hi = g.eigenvalues()
        assert g.spd_band() == (float(lo.min()), float(hi.max()))

    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    def test_slab_pullback_degenerate_nodes(self, slab_budget, boundary):
        # a rank-one map on the rows x >= 0.5: the degenerate nodes span
        # several slabs, and the first 64 are listed in row-major order
        chart = GridChart((1.0, 1.3), (75, 53), boundary)
        x, y = chart.mesh()
        bend = np.where(x < 0.5, np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y / 1.3), 0.0)
        u = ImmersionField(chart, 0.05 * np.stack([bend, np.zeros_like(x), bend], axis=-1),
                           np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
                           if boundary == PERIODIC else None)
        if boundary == CLAMPED:
            u = u.displaced(np.stack([x, 0 * x, 0 * x], axis=-1))
        g = pullback_metric(u)
        assert np.array_equal(g.values, _ref_pullback(u))
        want = np.argwhere(_ref_min_singular_value(u) <= 1e-10)
        assert want.shape[0] > 64
        assert g.meta["degenerate_count"] == want.shape[0]
        assert g.meta["degenerate_nodes"] == [tuple(ix) for ix in want[:64]]

    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    def test_pullback_memory_above_entry(self, traced_peak, boundary):
        # beside its 3-field result the fused pullback holds a slab's
        # Jacobian rows and Gram product only: at 1024^2 it peaks 3.5 fields
        # of nx * ny float64 above its entry (the whole-Jacobian pullback: 12.2)
        u = _wavy_map(GridChart((1.0, 1.7), (1024, 1024), boundary))
        g, peak = traced_peak(pullback_metric, u)
        assert peak <= 5 * 1024 * 1024 * 8
        assert np.array_equal(g.values, _ref_pullback(u))

    @pytest.mark.parametrize("shape", SLAB_SHAPES)
    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    @pytest.mark.parametrize("ell", [0.0, 0.1])
    def test_slab_measure_defect(self, slab_budget, shape, boundary, ell):
        chart = GridChart((1.0, 1.3), shape, boundary)
        d = MetricField(chart, np.random.default_rng(13).standard_normal((*shape, 3)))
        hx, hy = chart.spacing
        p = chart.periodic
        c = 0 if p else int(np.ceil(ell / max(hx, hy))) + 2
        inner = (slice(c, shape[0] - c), slice(c, shape[1] - c))
        sup = _ref_sup(d.values[inner])
        dc1 = _ref_sup(_ref_diff1(d.values, 0, hx, p)[inner],
                       _ref_diff1(d.values, 1, hy, p)[inner])
        assert _collar(chart, ell) == c
        # the defect pb - 0 is written over the zero target
        assert _measure_defect(d, np.zeros((*shape, 3)), c) == (sup, sup + dc1)


class TestMetricField:
    def test_eigenvalues_closed_form(self):
        c = square(16)
        m = MetricField.constant(c, np.array([[2.0, 1.0], [1.0, 2.0]]))
        lo, hi = m.eigenvalues()
        assert np.allclose(lo, 1.0)
        assert np.allclose(hi, 3.0)


KERNEL_VARIANTS = ["renormalize", "extrapolate"]


class TestMollify:
    @pytest.mark.parametrize("boundary", [CLAMPED, PERIODIC])
    @pytest.mark.parametrize("mode", KERNEL_VARIANTS)
    def test_constant_preserved(self, boundary, mode):
        f = ScalarField.constant(square(64, boundary), 3.25)
        out = mollify(f, 0.1, clamped_mode=mode)
        assert np.max(np.abs(out.values - 3.25)) < 1e-12

    def test_under_resolved_rejected(self):
        f = ScalarField.constant(square(64), 1.0)
        with pytest.raises(UnderResolvedError):
            mollify(f, 1.0 / 64)

    def test_affine_preserved_by_extrapolate(self):
        c = square(64)
        f = ScalarField.from_function(c, lambda x, y: 2 * x - 3 * y + 1)
        out = mollify(f, 0.08, clamped_mode="extrapolate")
        assert np.max(np.abs(out.values - f.values)) < 1e-11

    def test_sinusoid_error_matches_bessel_transform_oracle(self):
        # For f = sin(k x) on the torus, f - f*phi = (1 - F(k ell)) sin(k x)
        # where F(q) = 48 J3(q) / q^3 is the radial quartic bump transform.
        # Halving ell must shrink the error at least first-order (the
        # mollification estimate); the oracle gives the exact factors.
        from scipy.special import jv

        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        k = 2 * np.pi * 4
        f = ScalarField.from_function(c, lambda x, y: np.sin(k * x))
        errs, oracle = [], []
        for ell in (0.1, 0.05, 0.025):
            out = mollify(f, ell)
            errs.append(np.max(np.abs(out.values - f.values)))
            q = k * ell
            oracle.append(abs(1.0 - 48.0 * jv(3, q) / q ** 3))
        for measured, expected in zip(errs, oracle):
            assert measured == pytest.approx(expected, rel=0.02)
        assert errs[0] / errs[1] > 1.8
        assert errs[1] / errs[2] > 1.8

    def test_commutator_second_order(self):
        # ||(f1 f2)*phi - (f1*phi)(f2*phi)|| decays ~ ell^2 for smooth data
        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        k = 2 * np.pi * 2
        f = ScalarField.from_function(c, lambda x, y: np.sin(k * x))
        ells = [0.05, 0.025, 0.0125]
        errs = []
        for ell in ells:
            ff = ScalarField(c, f.values * f.values)
            lhs = mollify(ff, ell).values
            m = mollify(f, ell).values
            errs.append(np.max(np.abs(lhs - m * m)))
        slope = np.polyfit(np.log(ells), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.3

    @settings(max_examples=20, deadline=None)
    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity(self, a, b):
        c = square(32, PERIODIC)
        rng = np.random.default_rng(7)
        f = ScalarField(c, rng.standard_normal(c.resolution))
        g = ScalarField(c, rng.standard_normal(c.resolution))
        combo = ScalarField(c, a * f.values + b * g.values)
        lhs = mollify(combo, 0.2).values
        rhs = a * mollify(f, 0.2).values + b * mollify(g, 0.2).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("boundary", [CLAMPED, PERIODIC])
    def test_sup_contraction(self, boundary):
        rng = np.random.default_rng(3)
        c = square(48, boundary)
        f = ScalarField(c, rng.standard_normal(c.resolution))
        out = mollify(f, 0.15)
        assert np.max(np.abs(out.values)) <= np.max(np.abs(f.values)) + 1e-13

    def test_metric_and_immersion_componentwise(self):
        c = square(32, PERIODIC)
        m = MetricField.constant(c, np.diag([2.0, 3.0]))
        assert np.allclose(mollify(m, 0.2).values, m.values, atol=1e-12)
        u = ImmersionField.flat(c)
        assert np.array_equal(mollify(u, 0.2).linear, u.linear)


def _ref_clamped_mollify(f, ell, mode):
    """The clamped mollifier as scipy.signal.fftconvolve computes it."""
    w = _bump_kernel(f.chart, ell)
    comps = f.values[..., None] if f.values.ndim == 2 else f.values
    out = np.empty_like(comps)
    if mode == "renormalize":
        mass = fftconvolve(np.ones(f.chart.resolution), w, mode="same")
        for c in range(comps.shape[-1]):
            out[..., c] = fftconvolve(comps[..., c], w, mode="same") / mass
    else:
        rx, ry = (w.shape[0] - 1) // 2, (w.shape[1] - 1) // 2
        for c in range(comps.shape[-1]):
            padded = np.pad(comps[..., c], ((rx, rx), (ry, ry)),
                            mode="reflect", reflect_type="odd")
            out[..., c] = fftconvolve(padded, w, mode="valid")
    return out if f.values.ndim == 3 else out[..., 0]


class TestClampedMollifyReference:
    """The clamped mollifier gives the floats of fftconvolve, to the bit."""

    @staticmethod
    def _field(kind, chart, rng):
        if kind == "scalar":
            return ScalarField(chart, rng.standard_normal(chart.resolution))
        values = rng.standard_normal((*chart.resolution, 3))
        if kind == "metric":
            return MetricField(chart, values)
        return ImmersionField(chart, values, rng.standard_normal((3, 2)))

    @pytest.mark.parametrize("mode", KERNEL_VARIANTS)
    @pytest.mark.parametrize("kind", ["scalar", "metric", "immersion"])
    @pytest.mark.parametrize("resolution, ell", [
        ((64, 48), 0.1), ((48, 64), 0.1), ((333, 333), 0.05),
        # kernel radius 30 x 23 nodes on a 64 x 48 chart
        ((64, 48), 0.49),
    ])
    def test_bit_identical_to_fftconvolve(self, mode, kind, resolution, ell):
        chart = GridChart((1.0, 1.0), resolution, CLAMPED)
        f = self._field(kind, chart, np.random.default_rng(11))
        out = mollify(f, ell, clamped_mode=mode)
        assert np.array_equal(out.values, _ref_clamped_mollify(f, ell, mode))
        if kind == "immersion":
            assert np.array_equal(out.linear, f.linear)


def brute_force_holder_1d(vals, xs, theta):
    d = np.abs(vals[:, None] - vals[None, :])
    sep = np.abs(xs[:, None] - xs[None, :])
    mask = sep > 0
    return float(np.max(d[mask] / sep[mask] ** theta))


class TestHolder:
    def test_constant_is_zero(self):
        f = ScalarField.constant(square(32), 5.0)
        assert holder_seminorm(f, 0.5) == 0.0

    def test_linear_lipschitz_constant(self):
        f = ScalarField.from_function(square(33), lambda x, y: x)
        assert holder_seminorm(f, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_half_exponent_approaches_one(self):
        # f = sqrt(x + eps) on [0,1]^2; compare with the all-pairs 1-D oracle
        n = 256
        vals = []
        for eps in (1e-2, 1e-4):
            c = GridChart((1.0, 1.0), (n, n), CLAMPED)
            f = ScalarField.from_function(c, lambda x, y: np.sqrt(x + eps))
            xs = c.axes()[0]
            oracle = brute_force_holder_1d(np.sqrt(xs + eps), xs, 0.5)
            got = holder_seminorm(f, 0.5)
            assert got <= oracle + 1e-12
            assert got >= 0.95 * oracle
            vals.append(got)
        assert vals[1] > vals[0]
        assert vals[1] > 0.97

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_monotone_under_refinement(self, seed):
        rng = np.random.default_rng(seed)
        coef = rng.standard_normal(4)

        def fn(x, y):
            return (coef[0] * np.sin(2 * np.pi * x) + coef[1] * np.cos(2 * np.pi * y)
                    + coef[2] * np.sin(2 * np.pi * (x + y)) + coef[3] * x * y)

        coarse = holder_seminorm(ScalarField.from_function(square(33), fn), 0.5)
        fine = holder_seminorm(ScalarField.from_function(square(65), fn), 0.5)
        assert fine >= coarse - 1e-12

    def test_lipschitz_below_c1_for_smooth_field(self):
        f = ScalarField.from_function(square(65), lambda x, y: np.sin(3 * x) * np.cos(2 * y))
        assert holder_seminorm(f, 1.0) <= sup_norm(f) + c1_seminorm(f) + 1e-12

    def test_first_derivative_order(self):
        f = ScalarField.from_function(square(65), lambda x, y: x * x)
        # d/dx = 2x is 2-Lipschitz in x
        assert holder_seminorm(f, 1.0, deriv_order=1) == pytest.approx(2.0, rel=1e-3)


# The probe that the slab probe replaced, kept as the reference: one
# np.roll (or slice difference) per offset and component, each quotient
# divided by sep^theta before the max.

def _ref_offset_quotient(arr, dx, dy, hx, hy, theta, periodic):
    if periodic:
        d = np.roll(arr, (-dx, -dy), axis=(0, 1)) - arr
    else:
        nx, ny = arr.shape[:2]
        if dy >= 0:
            d = arr[dx:, dy:] - arr[:nx - dx or None, :ny - dy or None]
        else:
            d = arr[dx:, :ny + dy] - arr[:nx - dx or None, -dy:]
        if d.size == 0:
            return 0.0
    sep = np.hypot(dx * hx, dy * hy)
    return float(np.max(np.abs(d))) / sep ** theta


def _ref_holder_seminorm(f, theta, deriv_order, exhaustive):
    from isoflex.grid import _offsets

    chart = f.chart
    hx, hy = chart.spacing
    vals = f.values
    if deriv_order == 1:
        p = chart.periodic
        vals = np.concatenate([_diff1(vals, 0, hx, p)[..., None] if vals.ndim == 2
                               else _diff1(vals, 0, hx, p),
                               _diff1(vals, 1, hy, p)[..., None] if vals.ndim == 2
                               else _diff1(vals, 1, hy, p)], axis=-1)
    arrs = [vals] if vals.ndim == 2 else [vals[..., c] for c in range(vals.shape[-1])]
    best = 0.0
    for dx, dy in _offsets(chart, exhaustive):
        for arr in arrs:
            q = _ref_offset_quotient(arr, dx, dy, hx, hy, theta, chart.periodic)
            if q > best:
                best = q
    return best


class TestHolderReference:
    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    @pytest.mark.parametrize("kind", ["scalar", "immersion"])
    @pytest.mark.parametrize("deriv_order", [0, 1])
    @pytest.mark.parametrize("exhaustive", [True, False])
    def test_slab_probe_bit_identical(self, slab_budget, boundary, kind, deriv_order,
                                      exhaustive):
        # an exhaustive search on a small chart, dyadic offsets above 128 nodes
        shape = (24, 17) if exhaustive else (150, 53)
        chart = GridChart((1.0, 1.3), shape, boundary)
        if kind == "scalar":
            x, y = chart.mesh()
            f = ScalarField(chart, np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y / 1.3)
                            + np.random.default_rng(17).standard_normal(chart.resolution))
        else:
            f = _wavy_map(chart).displaced(
                1e-3 * np.random.default_rng(19).standard_normal((*shape, 3)))
        got = holder_seminorm(f, 0.3, deriv_order=deriv_order)
        assert got == _ref_holder_seminorm(f, 0.3, deriv_order, exhaustive)
        assert got > 0.0

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("exhaustive", [True, False])
    def test_seam_pairs_dominate(self, slab_budget, axis, exhaustive):
        # a ramp along one axis of a torus jumps across the seam, so the
        # largest quotient comes from the pairs whose partner wrapped around
        chart = GridChart((1.0, 1.3), (24, 17) if exhaustive else (150, 53), PERIODIC)
        f = ScalarField(chart, chart.mesh()[axis]
                        + 1e-3 * np.random.default_rng(31).standard_normal(chart.resolution))
        got = holder_seminorm(f, 0.3)
        assert got == _ref_holder_seminorm(f, 0.3, 0, exhaustive)
        assert got > 0.5 / chart.spacing[axis] ** 0.3

    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    def test_default_offsets_at_256(self, boundary):
        # above 128 nodes per axis the default is the dyadic offsets
        f = _wavy_map(GridChart((1.0, 1.0), (256, 256), boundary))
        assert holder_seminorm(f, 0.1, deriv_order=1) == _ref_holder_seminorm(f, 0.1, 1, False)


def _roll_pair_max(a, dx, dy, periodic):
    """The slab probe's pair maximum as it was: periodic partner columns by
    a roll of each slab."""
    from isoflex.grid import SLAB_BYTES

    nx, ny = a.shape[:2]
    if periodic:
        rows = ((0, nx - dx, dx), (nx - dx, nx, dx - nx))
        c0, c1, sc = 0, ny, 0
    else:
        rows = ((0, nx - dx, dx),)
        c0, c1, sc = (0, ny - dy, dy) if dy >= 0 else (-dy, ny, dy)
    step = max(1, SLAB_BYTES // a[0].nbytes)
    best = 0.0
    for r0, r1, sr in rows:
        for i in range(r0, r1, step):
            j = min(i + step, r1)
            partner = a[i + sr:j + sr, c0 + sc:c1 + sc]
            if periodic and dy:
                partner = np.roll(partner, -dy, axis=1)
            best = max(best, float(np.max(np.abs(partner - a[i:j, c0:c1]))))
    return best


@pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
@pytest.mark.parametrize("exhaustive", [True, False])
def test_pair_max_matches_roll(slab_budget, boundary, exhaustive):
    # partner columns as two slices give the maxima the roll gave, bit for
    # bit, at every offset, dy < 0 included
    from isoflex.grid import _offsets, _pair_max

    shape = (24, 17) if exhaustive else (150, 53)
    chart = GridChart((1.0, 1.3), shape, boundary)
    a = np.random.default_rng(23).standard_normal((*shape, 3))
    offsets = list(_offsets(chart, exhaustive))
    assert any(dy < 0 for _, dy in offsets) and any(dy > 0 for _, dy in offsets)
    for dx, dy in offsets:
        assert _pair_max(a, dx, dy, chart.periodic) == _roll_pair_max(a, dx, dy, chart.periodic)


class TestNormReport:
    def test_report_invariants(self):
        f = ScalarField.from_function(square(65), lambda x, y: np.sin(2 * x + y))
        rep = norm_report(f)
        assert rep.c1_norm >= rep.sup_norm
        assert rep.c2_norm >= rep.c1_norm

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NormReport(-1.0, 0.0, 0.0)

    def test_quadratic_norms(self):
        f = ScalarField.from_function(square(65), lambda x, y: x * x)
        rep = norm_report(f)
        assert rep.sup_norm == pytest.approx(1.0, abs=1e-12)
        assert rep.c1_norm == pytest.approx(3.0, rel=1e-10)
        assert rep.c2_norm == pytest.approx(5.0, rel=1e-9)


class TestShortness:
    def test_strictly_short(self):
        c = square(32)
        u = ImmersionField.flat(c, scale=0.7)
        rep = check_short(u, MetricField.constant(c, np.eye(2)), pb=pullback_metric(u))
        assert rep.classification == "strictly_short"
        assert rep.min_eigenvalue == pytest.approx(1 - 0.49, abs=1e-10)

    def test_short_but_not_strict(self):
        c = square(32)
        u = ImmersionField.flat(c)
        rep = check_short(u, MetricField.constant(c, np.eye(2)), pb=pullback_metric(u))
        assert rep.classification == "short"
        assert abs(rep.min_eigenvalue) < 1e-10

    def test_not_short(self):
        c = square(32)
        u = ImmersionField.flat(c, scale=1.1)
        rep = check_short(u, MetricField.constant(c, np.eye(2)), pb=pullback_metric(u))
        assert rep.classification == "not_short"

    def test_strong_short_bound(self):
        c = square(32)
        g = MetricField.constant(c, np.eye(2))
        u = ImmersionField.flat(c, scale=0.7)
        h_ok = MetricField.constant(c, 0.3 * np.eye(2))
        h_bad = MetricField.constant(c, 0.7 * np.eye(2))
        assert check_short(u, g, h_ok, pb=pullback_metric(u)).strong_short
        assert not check_short(u, g, h_bad, pb=pullback_metric(u)).strong_short
        assert check_short(u, g, pb=pullback_metric(u)).strong_short is None

    def test_pullback_on_other_chart_refused(self):
        c = square(32, PERIODIC)
        u = _wavy_map(c)
        g = MetricField.constant(c, 1.5 * np.eye(2))
        with pytest.raises(ChartError):
            check_short(u, g, pb=pullback_metric(ImmersionField.flat(square(16, PERIODIC))))
