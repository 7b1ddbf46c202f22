"""Decomposition of metric increments into primitive rank-one pieces.

The 2-D conformal route, the one every run takes (the bootstrap and each
metric addition), factorizes an SPD field H as
theta^2 (grad Phi_1 (x) grad Phi_1 + grad Phi_2 (x) grad Phi_2) by solving
the linear Beltrami equation dz_bar Phi = mu dz Phi spectrally on a torus.
The linear-frame route realizes a symmetric 2x2 matrix G as
sum_i L_i(G) xi_i (x) xi_i over the three equiangular unit directions
pushed through a base point, with coefficients positive on a certified ball
around it; no run reads it, it is the lemma that acceptance criterion 3
checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridChart, MetricField, ScalarField, _slabs


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


# the equiangular triple: a unit tight frame of R^2 (sum xi (x) xi = 3/2 Id),
# which makes all coefficients equal and positive at the base point
_EQUIANGULAR = np.array([[1.0, 0.0],
                         [0.5, np.sqrt(3.0) / 2.0],
                         [0.5, -np.sqrt(3.0) / 2.0]])

# random symmetric directions per round of the sampled-shell radius check
_SHELL_SAMPLES = 256


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

    @property
    def n_star(self) -> int:
        return self.directions.shape[0]

    def coefficients(self, g) -> np.ndarray:
        """L_i(G) for a single matrix or an (..., n, n) stack; (..., n_star)."""
        return np.einsum("ij,...j->...i", self.inverse_gram, _sym_to_vec(g))

    def reconstruct(self, coeffs) -> np.ndarray:
        outer = np.einsum("ik,il->ikl", self.directions, self.directions)
        return np.einsum("...i,ikl->...kl", coeffs, outer)


def build_frame(n: int, g0=None, gamma: float = 2.0) -> PrimitiveFrame:
    """Frame adapted to the base point G0 (default Id) inside its gamma-band.

    Directions are the tight frame pushed through G0^(1/2), so the
    coefficients at G0 equal (n/n*) |G0^(1/2) xi|^2 > 0.  The certified
    radius starts from the exact linear-functional bound
    min_i L_i(G0) / (1 + |W_i|_nuclear) and is then verified (and shrunk if
    float slop demands) on a sampled shell.
    """
    if n != 2:
        raise FrameError(f"frames are built for surfaces only (n = 2), got n = {n}")
    g0 = np.eye(n) if g0 is None else np.asarray(g0, dtype=float)
    evals, evecs = np.linalg.eigh(g0)
    if evals.min() < 1.0 / gamma - 1e-12 or evals.max() > gamma + 1e-12:
        raise FrameError(f"base point eigenvalues {evals} leave the 1/{gamma}..{gamma} band")
    sqrt_g0 = (evecs * np.sqrt(evals)) @ evecs.T

    pushed = _EQUIANGULAR @ sqrt_g0.T
    directions = pushed / np.linalg.norm(pushed, axis=1, keepdims=True)

    outer = np.einsum("ik,il->ikl", directions, directions)
    cols = _sym_to_vec(outer)  # (n_star, n_star)
    gram = cols.T
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e8:
        raise FrameError(f"degenerate frame: outer products nearly dependent (cond={cond:.3g})")
    inv = np.linalg.inv(gram)

    frame = PrimitiveFrame(n, directions, g0, inv, radius=0.0)
    c0 = frame.coefficients(g0)
    if c0.min() <= 0:
        raise FrameError("coefficients at the base point are not positive")

    # dual matrices W_i with L_i(G) = <W_i, G>; their nuclear norm bounds the
    # operator norm of L_i against the spectral norm on symmetric matrices,
    # so min_i L_i(G0) / (1 + |W_i|_*) is an exact positivity radius
    nuc = _dual_nuclear_norms(inv, n)
    radius = float(np.min(c0 / (1.0 + nuc)))

    rng = np.random.default_rng(0)
    for _ in range(64):
        ok = True
        for _ in range(4):
            d = rng.standard_normal((_SHELL_SAMPLES, n, n))
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

    return PrimitiveFrame(n, directions, g0, inv, radius)


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

    def values(self, rows=slice(None)) -> np.ndarray:
        """w . x + p on the rows `rows` of nodes, broadcast from the axes."""
        ax, ay = self.chart.axes()
        return (self.linear[0] * ax[rows, None] + self.linear[1] * ay[None, :]
                + self.periodic_values[rows])

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
        return _slab_sup_abs(self.residual.values)


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


def _ifft2_in_place(w):
    """np.fft.ifft2 of w, computed in w one axis at a time (same bits)."""
    np.fft.ifft(w, axis=1, out=w)
    np.fft.ifft(w, axis=0, out=w)


def _slab_sup_abs(w):
    """np.max(np.abs(w)) from one row slab at a time (same value, NaN kept)."""
    return float(np.max([np.max(np.abs(w[s])) for s in _slabs(w)]))


def _apply_multiplier(w, kx, ky, multiplier):
    """w <- multiplier(kx + i ky) w, 0 on the mean mode, one row slab at a time."""
    iky = 1j * ky[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in _slabs(w):
            m = multiplier(kx[s, None] + iky)
            if s.start == 0:
                m[0, 0] = 0.0
            np.multiply(m, w[s], out=w[s])


# Beltrami contraction: at most BELTRAMI_MAX_ITER iterations, stopping once
# an iterate moves by less than BELTRAMI_TOL.  A clamped chart is padded on
# each side by PAD_FRACTION of its nodes along that axis (even, at least 8).
BELTRAMI_MAX_ITER = 200
BELTRAMI_TOL = 1e-12
PAD_FRACTION = 0.25


def solve_conformal(h: MetricField, residual_tol: float = 1e-6) -> ConformalFactorization:
    """Factorize SPD H as theta^2 (grad Phi_1 (x)^2 + grad Phi_2 (x)^2).

    The Beltrami coefficient is extended to a torus (identity on periodic
    charts; clamped charts are embedded in a padded torus with mu reflected
    and cosine-tapered to zero near the frame) and dz_bar Phi = mu dz Phi is
    solved by the contraction p <- B(mu (1 + p)) with B the Fourier
    multiplier conj(zeta)/zeta.  theta comes from
    theta^2 = sqrt(det H) / det DPhi and the defect of the factorization
    identity is returned as a field; exceeding residual_tol is an error
    carrying that field.

    The iteration holds three padded complex fields: mu, p and one work
    array, which takes (1 + p) mu, its transform and then p_new, while p
    takes p_new - p for the change.  The Fourier multipliers, sup |mu| and
    the change are formed one row slab at a time.  After the loop dz Phi
    and dz_bar Phi are cropped to the chart, and dz_bar Phi is transformed
    in place into Phi's periodic part.  A 1024^2 clamped chart (padded to
    1536^2, 4.5 fields of nx * ny float64 per padded complex field) peaks
    134 MB, 16.0 fields, above the entry: 13.5 in the loop, the rest in the
    cropped outputs and the residual.  The whole-array solve took 594 MB.
    """
    chart = h.chart
    mu, mu_report = beltrami_coefficient(h)

    if chart.periodic:
        nx, ny = chart.resolution
        lx, ly = chart.extent
        crop = (slice(None), slice(None))
    else:
        nx0, ny0 = chart.resolution
        px, py = ((int(round(PAD_FRACTION * nx0)) // 2) * 2,
                  (int(round(PAD_FRACTION * ny0)) // 2) * 2)
        px, py = max(px, 8), max(py, 8)
        mu = np.pad(mu, ((px, px), (py, py)), mode="reflect")
        mu *= _taper_window(nx0, px)[:, None]
        mu *= _taper_window(ny0, py)[None, :]
        nx, ny = mu.shape
        hx, hy = chart.spacing
        lx, ly = nx * hx, ny * hy
        crop = (slice(px, px + nx0), slice(py, py + ny0))

    sup_mu = _slab_sup_abs(mu)
    if sup_mu >= 1.0:
        raise BeltramiError(f"sup |mu| = {sup_mu:.6f} >= 1: input is not uniformly elliptic")

    kx = 2.0 * np.pi * np.fft.fftfreq(nx, d=lx / nx)
    ky = 2.0 * np.pi * np.fft.fftfreq(ny, d=ly / ny)

    # each iteration works in one array w: (1 + p) mu, its transform, then
    # p_new; p then takes p_new - p for the change and w becomes the next p.
    # mu * (1.0 + p) stays as written: numpy evaluates it inside the (1 + p)
    # temporary, and complex products round differently with swapped operands
    p = np.zeros((nx, ny), dtype=complex)
    contraction = 0.0
    last_change = np.inf
    for it in range(1, BELTRAMI_MAX_ITER + 1):
        w = mu * (1.0 + p)
        np.fft.fft2(w, out=w)
        w[0, 0] = 0.0
        _apply_multiplier(w, kx, ky, lambda z: np.divide(np.conj(z), z, out=z))
        _ifft2_in_place(w)
        np.subtract(w, p, out=p)
        change = _slab_sup_abs(p)
        if np.isfinite(last_change) and last_change > 0:
            contraction = change / last_change
        p = w
        if change < BELTRAMI_TOL:
            break
        if it > 10 and change > 0 and contraction > 0.999:
            raise BeltramiError(
                f"contraction stalled (measured factor {contraction:.4f}, sup|mu|={sup_mu:.4f})",
                contraction=contraction)
        last_change = change
    iterations = it

    phi_per = mu * (1.0 + p)  # dz_bar Phi (mean part is the b z_bar term)
    dz = 1.0 + p[crop]  # dz Phi
    del p, w  # w is p after the loop
    # the taper is 1 on the core, so the cropped mu is the chart's own mu
    mu_core = mu if chart.periodic else mu[crop].copy()
    del mu
    dzbar = phi_per[crop].copy()
    b = complex(np.mean(phi_per))
    np.fft.fft2(phi_per, out=phi_per)
    phi_per[0, 0] = 0.0
    # the dz_bar^-1 multiplier 1/(i zeta/2)
    _apply_multiplier(phi_per, kx, ky, lambda z: np.divide(1.0, 0.5j * z, out=z))
    _ifft2_in_place(phi_per)

    pr = phi_per[crop]
    phi1 = PhaseField(chart, (1.0 + b.real, b.imag), pr.real)
    phi2 = PhaseField(chart, (b.imag, 1.0 - b.real), pr.imag)
    if not chart.periodic:
        # a clamped chart carries the linear part in the samples
        phi1 = PhaseField(chart, (0.0, 0.0), phi1.values())
        phi2 = PhaseField(chart, (0.0, 0.0), phi2.values())
    del pr, phi_per

    dx = dz + dzbar
    dy = 1j * (dz - dzbar)
    det_j = np.abs(dz) ** 2 - np.abs(dzbar) ** 2
    del dz, dzbar
    grad_phi1 = np.stack([dx.real, dy.real], axis=-1)
    grad_phi2 = np.stack([dx.imag, dy.imag], axis=-1)
    del dx, dy

    if det_j.min() <= 0:
        raise BeltramiError(f"Jacobian determinant hit {det_j.min():.3e}: solve degenerate")
    theta_sq = np.sqrt(h.det()) / det_j
    theta = ScalarField(chart, np.sqrt(theta_sq))

    # h - theta^2 (grad Phi_1 (x)^2 + grad Phi_2 (x)^2), one component at a time
    res = np.empty_like(h.values)
    for k, (i, j) in enumerate(((0, 0), (0, 1), (1, 1))):
        np.subtract(h.values[..., k], theta_sq * (grad_phi1[..., i] * grad_phi1[..., j]
                                                  + grad_phi2[..., i] * grad_phi2[..., j]),
                    out=res[..., k])
    residual = MetricField(chart, res)

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
