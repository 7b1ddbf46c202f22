"""Decomposition of metric increments into primitive rank-one pieces.

Two routes are provided.  The linear-frame route realizes a symmetric
matrix G as sum_i L_i(G) xi_i (x) xi_i over a fixed set of n* = n(n+1)/2
unit directions, with coefficients positive on a certified ball around a
base point.  The 2-D conformal route factorizes an SPD field H as
theta^2 (grad Phi_1 (x) grad Phi_1 + grad Phi_2 (x) grad Phi_2) by solving
the linear Beltrami equation dz_bar Phi = mu dz Phi spectrally on a torus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridChart, MetricField, ScalarField


class FrameError(ValueError):
    """Frame construction failed (degenerate Gram system or geometry)."""


class BeltramiError(RuntimeError):
    """The conformal solve stalled or missed its residual tolerance."""

    def __init__(self, message, residual_field=None, contraction=None):
        super().__init__(message)
        self.residual_field = residual_field
        self.contraction = contraction


# ---------------------------------------------------------------------------
# symmetric-matrix vectorization helpers (store a11, a12, a22)

def _sym_to_vec(m):
    m = np.asarray(m, dtype=float)
    n = m.shape[-1]
    idx = np.triu_indices(n)
    return m[..., idx[0], idx[1]]


def _unit_tight_directions(n: int, n_star: int) -> np.ndarray:
    """A unit-norm tight frame of n_star directions in R^n.

    n=2 uses the equiangular triple; n=3 the six icosahedral axes; larger n
    the real harmonic frame.  Tightness (sum xi (x) xi proportional to Id)
    is what makes all coefficients equal and positive at the base point.
    """
    if n == 2:
        return np.array([[1.0, 0.0],
                         [0.5, np.sqrt(3.0) / 2.0],
                         [0.5, -np.sqrt(3.0) / 2.0]])
    if n == 3:
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        raw = np.array([[1.0, phi, 0.0], [1.0, -phi, 0.0],
                        [0.0, 1.0, phi], [0.0, 1.0, -phi],
                        [phi, 0.0, 1.0], [-phi, 0.0, 1.0]])
        return raw / np.linalg.norm(raw, axis=1, keepdims=True)
    # real harmonic frame rows: cos/sin pairs per frequency, plus a constant
    # column (weight 1/sqrt(2)) for odd n; rows have equal norm, columns stay
    # orthogonal, so the normalized rows form a unit tight frame
    j = np.arange(n_star)
    cols = []
    for k in range(1, n // 2 + 1):
        ang = 2.0 * np.pi * k * j / n_star
        cols.append(np.cos(ang))
        cols.append(np.sin(ang))
    if n % 2 == 1:
        cols.append(np.full(n_star, 1.0 / np.sqrt(2.0)))
    mat = np.stack(cols[:n], axis=1)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    if n <= 3:
        return mat
    # equally spaced angles alias for n >= 4 and the outer products go
    # dependent; a deterministic perturbation breaks the symmetry and the
    # frame-force flow restores tightness
    rng = np.random.default_rng(123456789 + n)
    mat = mat + 0.08 * rng.standard_normal(mat.shape)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    target = (n_star / n) * np.eye(n)
    for _ in range(4000):
        a = mat.T @ mat
        gap = a - target
        if np.abs(gap).max() < 1e-13:
            break
        mat = mat - (0.45 * n / n_star) * mat @ gap
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    else:
        raise FrameError(f"tight-frame flow failed to converge for n={n}")
    return mat


@dataclass(frozen=True)
class PrimitiveFrame:
    """Directions xi_i and the linear coefficient maps L_i.

    L_i(G) >= radius is certified for all symmetric G with |G - base_point|
    <= radius (spectral norm).
    """

    n: int
    directions: np.ndarray        # (n_star, n)
    base_point: np.ndarray        # (n, n)
    inverse_gram: np.ndarray      # (n_star, n_star): coefficients = inv_gram @ vec(G)
    radius: float
    coefficient_norms: np.ndarray  # nuclear norms of the dual matrices W_i

    @property
    def n_star(self) -> int:
        return self.directions.shape[0]

    def coefficients(self, g) -> np.ndarray:
        """L_i(G) for a single matrix or an (..., n, n) stack; (..., n_star)."""
        return np.einsum("ij,...j->...i", self.inverse_gram, _sym_to_vec(g))

    def reconstruct(self, coeffs) -> np.ndarray:
        outer = np.einsum("ik,il->ikl", self.directions, self.directions)
        return np.einsum("...i,ikl->...kl", coeffs, outer)


def build_frame(n: int, g0=None, gamma: float = 2.0,
                shell_samples: int = 256, seed: int = 0) -> PrimitiveFrame:
    """Frame adapted to the base point G0 (default Id) inside its gamma-band.

    Directions are the tight frame pushed through G0^(1/2), so the
    coefficients at G0 equal (n/n*) |G0^(1/2) xi|^2 > 0.  The certified
    radius starts from the exact linear-functional bound
    min_i L_i(G0) / (1 + |W_i|_nuclear) and is then verified (and shrunk if
    float slop demands) on a sampled shell.
    """
    if n < 2:
        raise FrameError("dimension must be at least 2")
    n_star = n * (n + 1) // 2
    g0 = np.eye(n) if g0 is None else np.asarray(g0, dtype=float)
    evals, evecs = np.linalg.eigh(g0)
    if evals.min() < 1.0 / gamma - 1e-12 or evals.max() > gamma + 1e-12:
        raise FrameError(f"base point eigenvalues {evals} leave the 1/{gamma}..{gamma} band")
    sqrt_g0 = (evecs * np.sqrt(evals)) @ evecs.T

    xi = _unit_tight_directions(n, n_star)
    pushed = xi @ sqrt_g0.T
    directions = pushed / np.linalg.norm(pushed, axis=1, keepdims=True)

    outer = np.einsum("ik,il->ikl", directions, directions)
    cols = _sym_to_vec(outer)  # (n_star, n_star)
    gram = cols.T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e8:
        raise FrameError(f"degenerate frame: outer products nearly dependent (cond={cond:.3g})")
    inv = np.linalg.inv(gram)

    frame = PrimitiveFrame(n, directions, g0, inv, radius=0.0,
                           coefficient_norms=np.zeros(n_star))
    c0 = frame.coefficients(g0)
    if c0.min() <= 0:
        raise FrameError("coefficients at the base point are not positive")

    # dual matrices W_i with L_i(G) = <W_i, G>; their nuclear norm bounds the
    # operator norm of L_i against the spectral norm on symmetric matrices,
    # so min_i L_i(G0) / (1 + |W_i|_*) is an exact positivity radius
    nuc = _dual_nuclear_norms(inv, n)
    radius = float(np.min(c0 / (1.0 + nuc)))

    rng = np.random.default_rng(seed)
    for _ in range(64):
        ok = True
        for _ in range(4):
            d = rng.standard_normal((shell_samples, n, n))
            d = 0.5 * (d + np.swapaxes(d, -1, -2))
            norm = np.linalg.norm(d, ord=2, axis=(-2, -1))
            shell = g0 + radius * d / norm[:, None, None]
            coeffs = frame.coefficients(shell)
            if coeffs.min() < radius - 1e-12:
                ok = False
                break
        if ok:
            break
        radius *= 0.9
    else:
        raise FrameError("could not certify a positivity radius")

    return PrimitiveFrame(n, directions, g0, inv, radius, nuc)


def _dual_nuclear_norms(inv, n):
    """Nuclear norm of each dual matrix W_i (L_i(G) = <W_i, G>_F)."""
    n_star = inv.shape[0]
    idx = np.triu_indices(n)
    out = np.empty(n_star)
    for i in range(n_star):
        w = np.zeros((n, n))
        for k, (a, b) in enumerate(zip(*idx)):
            if a == b:
                w[a, b] = inv[i, k]
            else:
                # the Frobenius pairing counts each off-diagonal entry twice
                w[a, b] = w[b, a] = 0.5 * inv[i, k]
        out[i] = np.sum(np.abs(np.linalg.eigvalsh(w)))
    return out


# ---------------------------------------------------------------------------
# Beltrami coefficient

def beltrami_coefficient(h: MetricField):
    """mu = (H11 - H22 + 2i H12) / (H11 + H22 + 2 sqrt(det H)) per node.

    Returns (mu, report); the report carries sup |mu| and the worst slack in
    the bound |mu|^2 <= 1 - 4 det H / (tr H)^2, which holds algebraically
    for SPD input.
    """
    lo, _ = h.eigenvalues()
    if lo.min() <= 0:
        bad = np.unravel_index(int(np.argmin(lo)), lo.shape)
        raise ValueError(f"metric is not SPD at node {bad} (min eigenvalue {lo.min():.3g})")
    a, b, c = h.values[..., 0], h.values[..., 1], h.values[..., 2]
    det = a * c - b * b
    tr = a + c
    mu = (a - c + 2j * b) / (tr + 2.0 * np.sqrt(det))
    bound = 1.0 - 4.0 * det / tr ** 2
    slack = bound - np.abs(mu) ** 2
    report = {
        "sup_abs_mu": float(np.max(np.abs(mu))),
        "min_bound_slack": float(slack.min()),
    }
    return mu, report


# ---------------------------------------------------------------------------
# phases: linear part + grid samples, so torus phases can wrap exactly

@dataclass(frozen=True)
class PhaseField:
    """A scalar phase w . x + p(x) with p sampled on the chart.

    On periodic charts p is periodic and the linear part is carried
    separately so phase gradients and seam wrapping stay exact; on clamped
    charts everything may live in p with w = 0.
    """

    chart: GridChart
    linear: tuple[float, float]
    periodic_values: np.ndarray

    def values(self) -> np.ndarray:
        x, y = self.chart.mesh()
        return self.linear[0] * x + self.linear[1] * y + self.periodic_values

    def gradient(self) -> np.ndarray:
        g = ScalarField(self.chart, self.periodic_values).gradient()
        return g + np.asarray(self.linear)

    @classmethod
    def linear_phase(cls, chart: GridChart, w) -> "PhaseField":
        return cls(chart, (float(w[0]), float(w[1])), np.zeros(chart.resolution))


# ---------------------------------------------------------------------------
# conformal coordinates via the periodic Beltrami solve

@dataclass(frozen=True)
class ConformalFactorization:
    phi1: PhaseField
    phi2: PhaseField
    theta: ScalarField
    mu: np.ndarray
    residual: MetricField
    grad_phi1: np.ndarray    # spectral gradients, (nx, ny, 2)
    grad_phi2: np.ndarray
    det_jacobian: np.ndarray
    iterations: int
    contraction: float
    stats: dict = field(default_factory=dict)

    @property
    def residual_sup(self) -> float:
        return float(np.max(np.abs(self.residual.values)))

    def min_det(self) -> float:
        return float(self.det_jacobian.min())


def _taper_window(n_core, pad):
    """1 on the core, cosine fall to 0 across the outer half of each pad."""
    n = n_core + 2 * pad
    w = np.ones(n)
    half = pad // 2
    ramp = 0.5 * (1.0 + np.cos(np.linspace(0.0, np.pi, half, endpoint=False)))
    # layout: [outer half | inner half | core | inner half | outer half]
    w[:half] = ramp[::-1]
    w[half:pad] = 1.0
    w[n - half:] = ramp
    return w


def solve_conformal(h: MetricField, residual_tol: float = 1e-6,
                    max_iter: int = 200, tol: float = 1e-12,
                    pad_fraction: float = 0.25) -> ConformalFactorization:
    """Factorize SPD H as theta^2 (grad Phi_1 (x)^2 + grad Phi_2 (x)^2).

    The Beltrami coefficient is extended to a torus (identity on periodic
    charts; clamped charts are embedded in a padded torus with mu reflected
    and cosine-tapered to zero near the frame) and dz_bar Phi = mu dz Phi is
    solved by the contraction p <- B(mu (1 + p)) with B the Fourier
    multiplier conj(zeta)/zeta.  theta comes from
    theta^2 = sqrt(det H) / det DPhi and the defect of the factorization
    identity is returned as a field; exceeding residual_tol is an error
    carrying that field.
    """
    chart = h.chart
    mu_core, mu_report = beltrami_coefficient(h)

    if chart.periodic:
        mu = mu_core
        nx, ny = chart.resolution
        lx, ly = chart.extent
        crop = (slice(None), slice(None))
    else:
        nx0, ny0 = chart.resolution
        px, py = (int(round(pad_fraction * nx0)) // 2) * 2, (int(round(pad_fraction * ny0)) // 2) * 2
        px, py = max(px, 8), max(py, 8)
        mu = np.pad(mu_core, ((px, px), (py, py)), mode="reflect")
        mu = mu * _taper_window(nx0, px)[:, None] * _taper_window(ny0, py)[None, :]
        nx, ny = mu.shape
        hx, hy = chart.spacing
        lx, ly = nx * hx, ny * hy
        crop = (slice(px, px + nx0), slice(py, py + ny0))

    sup_mu = float(np.max(np.abs(mu)))
    if sup_mu >= 1.0:
        raise BeltramiError(f"sup |mu| = {sup_mu:.6f} >= 1: input is not uniformly elliptic")

    kx = 2.0 * np.pi * np.fft.fftfreq(nx, d=lx / nx)
    ky = 2.0 * np.pi * np.fft.fftfreq(ny, d=ly / ny)
    zeta = kx[:, None] + 1j * ky[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        beurling = np.where(zeta == 0, 0.0, np.conj(zeta) / zeta)
        inv_dzbar = np.where(zeta == 0, 0.0, 1.0 / (0.5j * zeta))

    p = np.zeros((nx, ny), dtype=complex)
    contraction = 0.0
    last_change = np.inf
    for it in range(1, max_iter + 1):
        w_full = mu * (1.0 + p)
        w_hat = np.fft.fft2(w_full)
        w_hat[0, 0] = 0.0
        p_new = np.fft.ifft2(beurling * w_hat)
        change = float(np.max(np.abs(p_new - p)))
        if np.isfinite(last_change) and last_change > 0:
            contraction = change / last_change
        p = p_new
        if change < tol:
            break
        if it > 10 and change > 0 and contraction > 0.999:
            raise BeltramiError(
                f"contraction stalled (measured factor {contraction:.4f}, sup|mu|={sup_mu:.4f})",
                contraction=contraction)
        last_change = change
    iterations = it

    w_full = mu * (1.0 + p)
    b = complex(np.mean(w_full))
    w_hat = np.fft.fft2(w_full)
    w_hat[0, 0] = 0.0
    phi_per = np.fft.ifft2(inv_dzbar * w_hat)

    dz = 1.0 + p          # dz Phi
    dzbar = w_full        # dz_bar Phi (mean part is the b z_bar term)
    dx = dz + dzbar
    dy = 1j * (dz - dzbar)

    # crop back to the chart
    pr = phi_per[crop]
    dxc, dyc = dx[crop], dy[crop]
    det_j = (np.abs(dz) ** 2 - np.abs(dzbar) ** 2)[crop]

    grad_phi1 = np.stack([dxc.real, dyc.real], axis=-1)
    grad_phi2 = np.stack([dxc.imag, dyc.imag], axis=-1)

    det_h = h.det()
    if det_j.min() <= 0:
        raise BeltramiError(f"Jacobian determinant hit {det_j.min():.3e}: solve degenerate")
    theta_sq = np.sqrt(det_h) / det_j
    theta = ScalarField(chart, np.sqrt(theta_sq))

    res = h.values - theta_sq[..., None] * np.stack([
        grad_phi1[..., 0] ** 2 + grad_phi2[..., 0] ** 2,
        grad_phi1[..., 0] * grad_phi1[..., 1] + grad_phi2[..., 0] * grad_phi2[..., 1],
        grad_phi1[..., 1] ** 2 + grad_phi2[..., 1] ** 2,
    ], axis=-1)
    residual = MetricField(chart, res)

    if chart.periodic:
        phi1 = PhaseField(chart, (1.0 + b.real, b.imag), pr.real)
        phi2 = PhaseField(chart, (b.imag, 1.0 - b.real), pr.imag)
    else:
        x, y = chart.mesh()
        full1 = (1.0 + b.real) * x + b.imag * y + pr.real
        full2 = b.imag * x + (1.0 - b.real) * y + pr.imag
        phi1 = PhaseField(chart, (0.0, 0.0), full1)
        phi2 = PhaseField(chart, (0.0, 0.0), full2)

    out = ConformalFactorization(
        phi1, phi2, theta, mu_core, residual, grad_phi1, grad_phi2, det_j,
        iterations, contraction,
        stats={"sup_abs_mu": sup_mu, "b": (b.real, b.imag),
               "min_det_jacobian": float(det_j.min()),
               "min_theta": float(theta.values.min()), **mu_report})
    if out.residual_sup > residual_tol:
        raise BeltramiError(
            f"factorization residual {out.residual_sup:.3e} exceeds tolerance {residual_tol:.1e}",
            residual_field=residual, contraction=contraction)
    return out
