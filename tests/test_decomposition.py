import numpy as np
import pytest

from isoflex.decomposition import (
    BELTRAMI_MAX_ITER,
    BELTRAMI_TOL,
    PAD_FRACTION,
    BeltramiError,
    FrameError,
    PhaseField,
    _EQUIANGULAR,
    _taper_window,
    beltrami_coefficient,
    build_frame,
    solve_conformal,
)
from isoflex.grid import CLAMPED, PERIODIC, GridChart, MetricField, ScalarField


def random_symmetric(rng, n, count):
    m = rng.uniform(-1, 1, (count, n, n))
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def smooth_spd_metric(chart, amplitude=0.2, seed=0):
    rng = np.random.default_rng(seed)
    x, y = chart.mesh()
    lx, ly = chart.extent

    def trig(scale):
        acc = np.zeros_like(x)
        for _ in range(4):
            kx, ky = rng.integers(-3, 4, 2)
            ph = rng.uniform(0, 2 * np.pi)
            acc += rng.uniform(-1, 1) * np.cos(2 * np.pi * (kx * x / lx + ky * y / ly) + ph)
        return scale * acc / np.max(np.abs(acc))

    p11, p12, p22 = trig(amplitude), trig(0.5 * amplitude), trig(amplitude)
    return MetricField.from_components(chart, 1.0 + p11, p12, 1.0 + p22)


class TestTightFrames:
    def test_tightness(self):
        s = np.einsum("ik,il->kl", _EQUIANGULAR, _EQUIANGULAR)
        assert np.allclose(s, 1.5 * np.eye(2), atol=1e-12)
        assert np.allclose(np.linalg.norm(_EQUIANGULAR, axis=1), 1.0, atol=1e-12)


class TestBuildFrame:
    def test_equiangular_coefficients_at_identity(self):
        frame = build_frame(2)
        c = frame.coefficients(np.eye(2))
        assert np.max(np.abs(c - 2.0 / 3.0)) < 1e-12
        assert frame.n_star == 3

    def test_spec_directions(self):
        frame = build_frame(2)
        expected = np.array([[1.0, 0.0],
                             [0.5, np.sqrt(3) / 2],
                             [0.5, -np.sqrt(3) / 2]])
        assert np.allclose(frame.directions, expected, atol=1e-12)

    def test_exact_reconstruction(self):
        frame = build_frame(2)
        rng = np.random.default_rng(5)
        g = random_symmetric(rng, 2, 10_000)
        c = frame.coefficients(g)
        back = frame.reconstruct(c)
        assert np.max(np.absolute(back - g)) < 1e-12

    def test_offdiagonal_perturbation_stays_positive(self):
        frame = build_frame(2)
        g = np.eye(2) + 0.1 * (np.ones((2, 2)) - np.eye(2))
        assert frame.coefficients(g).min() > 0

    def test_positivity_on_certified_ball(self):
        frame = build_frame(2)
        rng = np.random.default_rng(11)
        d = random_symmetric(rng, 2, 10_000)
        norms = np.linalg.norm(d, ord=2, axis=(-2, -1))
        radii = rng.uniform(0, 1, 10_000) ** 0.5 * frame.radius
        g = frame.base_point + d * (radii / norms)[:, None, None]
        c = frame.coefficients(g)
        assert c.min() >= frame.radius - 1e-12

    @pytest.mark.parametrize("n", [1, 3])
    def test_surfaces_only(self, n):
        with pytest.raises(FrameError, match="n = 2"):
            build_frame(n)

    def test_anisotropic_base_point(self):
        g0 = np.diag([2.0, 0.5])
        frame = build_frame(2, g0=g0, gamma=2.0)
        c0 = frame.coefficients(g0)
        assert c0.min() > 0
        back = frame.reconstruct(c0)
        assert np.allclose(back, g0, atol=1e-12)

    def test_base_point_outside_band_rejected(self):
        with pytest.raises(FrameError):
            build_frame(2, g0=np.diag([5.0, 1.0]), gamma=2.0)


class TestBeltramiCoefficient:
    def chart(self):
        return GridChart((1.0, 1.0), (32, 32), PERIODIC)

    def test_identity_gives_zero(self):
        mu, rep = beltrami_coefficient(MetricField.constant(self.chart(), np.eye(2)))
        assert np.max(np.abs(mu)) == 0.0
        assert rep["sup_abs_mu"] == 0.0

    def test_diag_4_1(self):
        mu, _ = beltrami_coefficient(MetricField.constant(self.chart(), np.diag([4.0, 1.0])))
        assert np.allclose(mu, 1.0 / 3.0, atol=1e-14)
        assert np.allclose(mu.imag, 0.0)

    def test_conformal_metric_gives_zero(self):
        for a in (0.3, 2.0, 7.5):
            mu, _ = beltrami_coefficient(MetricField.constant(self.chart(), a * np.eye(2)))
            assert np.max(np.abs(mu)) < 1e-15

    def test_proof_bound_holds_pointwise(self):
        h = smooth_spd_metric(self.chart(), amplitude=0.45, seed=3)
        mu, rep = beltrami_coefficient(h)
        assert rep["min_bound_slack"] >= -1e-12

    def test_non_spd_names_node(self):
        vals = np.tile(np.array([1.0, 0.0, 1.0]), (32, 32, 1))
        vals[5, 7] = [1.0, 0.0, -2.0]
        with pytest.raises(ValueError, match=r"\(5,.*7\)|\(np.int64\(5\)"):
            beltrami_coefficient(MetricField(self.chart(), vals))


class TestSolveConformal:
    def test_identity_metric(self):
        c = GridChart((1.0, 1.0), (64, 64), PERIODIC)
        fac = solve_conformal(MetricField.constant(c, np.eye(2)))
        assert fac.residual_sup < 1e-12
        assert np.allclose(fac.theta.values, 1.0, atol=1e-12)
        assert fac.phi1.linear == (1.0, 0.0)
        assert fac.phi2.linear == (0.0, 1.0)
        assert np.max(np.abs(fac.phi1.periodic_values)) < 1e-12

    def test_constant_diag_4_1_matches_analytic_family(self):
        # mu = 1/3, Phi = z + z_bar/3: dPhi1/dx : dPhi2/dy = 2 : 1, theta^2 = 9/4
        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        fac = solve_conformal(MetricField.constant(c, np.diag([4.0, 1.0])))
        assert fac.residual_sup < 1e-8
        assert np.max(np.abs(fac.grad_phi1[..., 0] - 4.0 / 3.0)) < 1e-8
        assert np.max(np.abs(fac.grad_phi1[..., 1])) < 1e-8
        assert np.max(np.abs(fac.grad_phi2[..., 1] - 2.0 / 3.0)) < 1e-8
        ratio = fac.grad_phi1[..., 0] / fac.grad_phi2[..., 1]
        assert np.allclose(ratio, 2.0, atol=1e-8)
        assert np.max(np.abs(fac.theta.values ** 2 - 9.0 / 4.0)) < 1e-8

    def test_smooth_random_spd_on_torus(self):
        c = GridChart((1.0, 1.0), (256, 256), PERIODIC)
        h = smooth_spd_metric(c, amplitude=0.2, seed=1)
        fac = solve_conformal(h, residual_tol=1e-6)
        assert fac.residual_sup < 1e-6
        assert fac.stats["min_det_jacobian"] > 0
        assert fac.stats["min_theta"] > 0

    def test_smooth_random_spd_on_clamped_chart(self):
        c = GridChart((1.0, 1.0), (128, 128), CLAMPED)
        h = smooth_spd_metric(c, amplitude=0.15, seed=4)
        fac = solve_conformal(h, residual_tol=1e-2)
        assert fac.stats["min_det_jacobian"] > 0
        # reflection+taper extension costs accuracy but stays far below the
        # metric scale
        assert fac.residual_sup < 1e-2

    def test_residual_tolerance_violation_carries_field(self):
        c = GridChart((1.0, 1.0), (64, 64), PERIODIC)
        h = smooth_spd_metric(c, amplitude=0.2, seed=2)
        with pytest.raises(BeltramiError) as exc:
            solve_conformal(h, residual_tol=1e-30)
        assert exc.value.residual_field is not None

    def test_normalization(self):
        c = GridChart((1.0, 1.0), (64, 64), PERIODIC)
        h = smooth_spd_metric(c, amplitude=0.1, seed=6)
        fac = solve_conformal(h)
        # principal normalization: Phi = z + b conj(z) + a zero-mean
        # periodic part, so dz Phi averages to 1
        b = complex(*fac.stats["b"])
        p1, p2, th = fac.phi1, fac.phi2, fac.theta
        assert p1.linear == (1.0 + b.real, b.imag)
        assert p2.linear == (b.imag, 1.0 - b.real)
        assert abs(np.mean(p1.periodic_values)) < 1e-12
        assert abs(np.mean(p2.periodic_values)) < 1e-12
        dx = fac.grad_phi1[..., 0] + 1j * fac.grad_phi2[..., 0]
        dy = fac.grad_phi1[..., 1] + 1j * fac.grad_phi2[..., 1]
        assert abs(np.mean(0.5 * (dx - 1j * dy)) - 1.0) < 1e-12
        # the identity holds with the stencil gradients of the phases
        g1 = p1.gradient()
        g2 = p2.gradient()
        fac_vals = th.values[..., None] ** 2 * np.stack([
            g1[..., 0] ** 2 + g2[..., 0] ** 2,
            g1[..., 0] * g1[..., 1] + g2[..., 0] * g2[..., 1],
            g1[..., 1] ** 2 + g2[..., 1] ** 2], axis=-1)
        # stencil gradients of the periodic part carry (kh)^4 error on 64^2
        assert np.max(np.abs(fac_vals - h.values)) < 1e-4


class TestPhaseField:
    def test_values_and_gradient(self):
        c = GridChart((1.0, 1.0), (64, 64), PERIODIC)
        p = PhaseField.linear_phase(c, (2.0, 3.0))
        x, y = c.mesh()
        assert np.allclose(p.values(), 2 * x + 3 * y)
        g = p.gradient()
        assert np.allclose(g[..., 0], 2.0)
        assert np.allclose(g[..., 1], 3.0)

    @pytest.mark.parametrize("boundary", [PERIODIC, CLAMPED])
    def test_values_broadcast_from_axes_equal_the_mesh_form(self, boundary):
        c = GridChart((1.0, 1.3), (75, 53), boundary)
        x, y = c.mesh()
        p = PhaseField(c, (0.7, -1.9), 0.05 * np.sin(2 * np.pi * x) * np.cos(3 * y))
        mesh_form = p.linear[0] * x + p.linear[1] * y + p.periodic_values
        assert p.values().tobytes() == mesh_form.tobytes()
        for rows in (slice(0, 1), slice(7, 30), slice(70, 75)):
            assert p.values(rows).tobytes() == mesh_form[rows].tobytes()


# The whole-array Beltrami solve that the in-place solve replaced, kept as
# the reference.  Complex multiplication is not bitwise commutative (the
# SIMD kernels fuse one product into the other's rounding), and numpy
# computes mu * (1.0 + p) inside the (1 + p) temporary once that reaches
# 256 KiB, as (1 + p) mu; charts on both sides of that size are compared.

def _ref_solve_conformal(h):
    chart = h.chart
    mu_core, _ = beltrami_coefficient(h)
    if chart.periodic:
        mu = mu_core
        nx, ny = chart.resolution
        lx, ly = chart.extent
        crop = (slice(None), slice(None))
    else:
        nx0, ny0 = chart.resolution
        px, py = ((int(round(PAD_FRACTION * nx0)) // 2) * 2,
                  (int(round(PAD_FRACTION * ny0)) // 2) * 2)
        px, py = max(px, 8), max(py, 8)
        mu = np.pad(mu_core, ((px, px), (py, py)), mode="reflect")
        mu = mu * _taper_window(nx0, px)[:, None] * _taper_window(ny0, py)[None, :]
        nx, ny = mu.shape
        hx, hy = chart.spacing
        lx, ly = nx * hx, ny * hy
        crop = (slice(px, px + nx0), slice(py, py + ny0))

    kx = 2.0 * np.pi * np.fft.fftfreq(nx, d=lx / nx)
    ky = 2.0 * np.pi * np.fft.fftfreq(ny, d=ly / ny)
    zeta = kx[:, None] + 1j * ky[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        beurling = np.where(zeta == 0, 0.0, np.conj(zeta) / zeta)
        inv_dzbar = np.where(zeta == 0, 0.0, 1.0 / (0.5j * zeta))

    p = np.zeros((nx, ny), dtype=complex)
    contraction, last_change = 0.0, np.inf
    for it in range(1, BELTRAMI_MAX_ITER + 1):
        w_full = mu * (1.0 + p)
        w_hat = np.fft.fft2(w_full)
        w_hat[0, 0] = 0.0
        p_new = np.fft.ifft2(beurling * w_hat)
        change = float(np.max(np.abs(p_new - p)))
        if np.isfinite(last_change) and last_change > 0:
            contraction = change / last_change
        p = p_new
        if change < BELTRAMI_TOL:
            break
        last_change = change

    w_full = mu * (1.0 + p)
    b = complex(np.mean(w_full))
    w_hat = np.fft.fft2(w_full)
    w_hat[0, 0] = 0.0
    phi_per = np.fft.ifft2(inv_dzbar * w_hat)
    dz, dzbar = 1.0 + p, w_full
    dx, dy = dz + dzbar, 1j * (dz - dzbar)
    pr = phi_per[crop]
    dxc, dyc = dx[crop], dy[crop]
    det_j = (np.abs(dz) ** 2 - np.abs(dzbar) ** 2)[crop]
    grad_phi1 = np.stack([dxc.real, dyc.real], axis=-1)
    grad_phi2 = np.stack([dxc.imag, dyc.imag], axis=-1)
    theta_sq = np.sqrt(h.det()) / det_j
    res = h.values - theta_sq[..., None] * np.stack([
        grad_phi1[..., 0] ** 2 + grad_phi2[..., 0] ** 2,
        grad_phi1[..., 0] * grad_phi1[..., 1] + grad_phi2[..., 0] * grad_phi2[..., 1],
        grad_phi1[..., 1] ** 2 + grad_phi2[..., 1] ** 2,
    ], axis=-1)
    if chart.periodic:
        phi1 = ((1.0 + b.real, b.imag), pr.real)
        phi2 = ((b.imag, 1.0 - b.real), pr.imag)
    else:
        x, y = chart.mesh()
        phi1 = ((0.0, 0.0), (1.0 + b.real) * x + b.imag * y + pr.real)
        phi2 = ((0.0, 0.0), b.imag * x + (1.0 - b.real) * y + pr.imag)
    return {"phi1": phi1, "phi2": phi2, "theta": np.sqrt(theta_sq), "mu": mu_core,
            "residual": res, "grad_phi1": grad_phi1, "grad_phi2": grad_phi2,
            "det_jacobian": det_j, "iterations": it, "contraction": contraction, "b": b}


class TestSolveConformalReference:
    # (64, 48) and its padded (96, 72) stay below 2^14 nodes, (128, 136) and
    # the padded (144, 148) of (96, 100) reach it
    @pytest.mark.parametrize("boundary,shape", [
        (PERIODIC, (64, 48)), (PERIODIC, (128, 136)),
        (CLAMPED, (64, 48)), (CLAMPED, (96, 100))])
    def test_bit_identical_to_whole_array_solve(self, boundary, shape):
        c = GridChart((1.0, 1.3), shape, boundary)
        h = smooth_spd_metric(c, amplitude=0.3, seed=3)
        fac = solve_conformal(h, residual_tol=np.inf)
        ref = _ref_solve_conformal(h)
        for name in ("phi1", "phi2"):
            phase = getattr(fac, name)
            assert phase.linear == ref[name][0]
            assert np.array_equal(phase.periodic_values, ref[name][1])
        assert np.array_equal(fac.theta.values, ref["theta"])
        assert np.array_equal(fac.residual.values, ref["residual"])
        for name in ("mu", "grad_phi1", "grad_phi2", "det_jacobian"):
            assert np.array_equal(getattr(fac, name), ref[name]), name
        assert fac.iterations == ref["iterations"] > 2
        assert fac.contraction == ref["contraction"]
        assert fac.stats["b"] == (ref["b"].real, ref["b"].imag)

    @pytest.mark.parametrize("boundary,fields", [(PERIODIC, 25), (CLAMPED, 20)])
    def test_memory_above_entry(self, traced_peak, boundary, fields):
        # at 256^2 the solve peaks 16.0 (periodic) and 16.5 (clamped, padded
        # to 384^2: three padded complex fields and one slab's multiplier)
        # fields of nx * ny float64 above its entry; with a whole Beurling
        # multiplier and mu held twice it took 20.2 and 22.7, and the
        # whole-array solve 36.2 and 70.8
        c = GridChart((1.0, 1.0), (256, 256), boundary)
        h = smooth_spd_metric(c, amplitude=0.3, seed=3)
        _, peak = traced_peak(solve_conformal, h, np.inf)
        assert peak <= fields * 256 * 256 * 8
