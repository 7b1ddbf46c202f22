"""One corrugation step, stages of steps, and the 2-D metric-addition ops.

A step perturbs an immersion u by a single high-frequency corrugation

    v = u + (Gamma_1(rho~, lam Phi) xi + Gamma_2(rho~, lam Phi) zeta) / lam

built on the mollification u~ of u at scale 1/lam: xi~ = grad(u~)
(grad(u~)^T grad(u~))^(-1) grad(Phi), xi = xi~/|xi~|^2, zeta the unit
normal of u~ scaled by 1/|xi~|, and rho~ = |xi~| rho.  This adds the
primitive metric rho^2 grad(Phi) (x) grad(Phi) up to a defect that decays
like 1/lam.  A stage applies N steps with geometrically escalating
frequencies; the 2-D metric-addition op feeds a stage with the two phases
of a conformal factorization; the strong-short bootstrap drives the same
two-term factorization through a stage to put a strictly short immersion
into the factorized form g - u#e = delta (g + h).

Each layer measures one defect, against the metric it was asked to add:
a step against pb_u + rho^2 grad(Phi) (x) grad(Phi), a stage against
pb_u + sum_k rho_k^2 grad(Phi_k) (x) grad(Phi_k), and the metric addition
against pb_u + rho^2 (g + h).  A stage and the metric addition chain
unmeasured steps (_corrugate through _chain), so neither measures the
defects of its steps nor, for the metric addition, that of its stage.  All
defect norms quote a boundary collar on clamped charts: the one-sided
stencil rows and the mollifier's reach are excluded from measurement (the
collar width follows from the mollification scale; fields are still
produced everywhere).

Each immersion is pulled back once: step and stage take u#e as pb_u (the
metric addition pulls u back if not handed it), and each unmeasured step
hands v#e on to the next step, the measured defect, the bootstrap and the
inductive pass.  A pullback handed on is never written.

Memory: of a step's intermediates only u~ and grad(Phi) are whole fields;
the Jacobian of u~ (formed once, in one sweep), the Gram product, xi~, xi,
zeta, rho~, the phase lam Phi, Gamma and sup |v - u| are evaluated one slab
of rows at a time (grid._slabs) and written straight into v, every node
getting the floating-point operations of a whole-array evaluation.
Every other whole field of a step, a stage or a metric addition is dropped
after its last reader: the one defect is written over its target, and the
metric addition keeps only the phases and theta rho~ of its factorization.
On a 1024^2 clamped chart a step handed u#e peaks 101 MB (12.0 fields of
nx * ny float64) above its entry, against 496 MB for the whole-array step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .corrugation import CorrugationDomainError, CorrugationTable
from .decomposition import PhaseField, solve_conformal
from .grid import (
    GridChart,
    ImmersionField,
    MetricField,
    NormReport,
    ScalarField,
    UnderResolvedError,
    _gram,
    _slabs,
    derivative_sup,
    jacobian_slabs,
    mollify,
    norm_report,
    pullback_metric,
)

NODES_PER_WAVELENGTH = 16
MAX_PHASE_SHIFT = 0.25
WRAP_TOL = 1e-9


def frequency_ceiling(chart: GridChart) -> float:
    """The highest frequency the chart resolves at NODES_PER_WAVELENGTH
    nodes per wavelength along its coarser axis."""
    return 2.0 * np.pi / (NODES_PER_WAVELENGTH * max(chart.spacing))


class StepPreconditionError(ValueError):
    """A named hypothesis of the step/stage/corollary operations failed."""

    def __init__(self, problems):
        self.problems = list(problems) if isinstance(problems, (list, tuple)) else [problems]
        super().__init__("; ".join(self.problems))


class ShortnessLostError(RuntimeError):
    """A corrugated map degenerated or left the shortness it was to keep."""


@dataclass(frozen=True)
class StepOutcome:
    v: ImmersionField
    pullback: MetricField          # v#e, shared with later readers: never written
    defect_sup: float              # pullback(v) - target, measured away from the collar
    defect_c1: float
    displacement: float            # sup |v - u|, euclidean per node
    support_ok: bool
    gamma_bar: float               # pullback(v) eigenvalue band radius
    meta: dict = field(default_factory=dict)

    @property
    def v_norms(self) -> NormReport:
        """Sup / C1 / C2 norms of v, computed on each read."""
        return norm_report(self.v)


def _displacement(v_vals: np.ndarray, u_vals: np.ndarray) -> float:
    """sup |v - u|, euclidean per node, one slab of rows at a time."""
    return max(float(np.max(np.linalg.norm(v_vals[s] - u_vals[s], axis=-1)))
               for s in _slabs(v_vals))


def _xi_tilde(jx, jy, gram, det, gphi):
    """xi~ = grad(u~) Gram^-1 grad(Phi) and |xi~|^2 on a slab of nodes."""
    g11, g12, g22 = gram[..., 0], gram[..., 1], gram[..., 2]
    sol_x = (g22 * gphi[..., 0] - g12 * gphi[..., 1]) / det
    sol_y = (g11 * gphi[..., 1] - g12 * gphi[..., 0]) / det
    xi_t = jx * sol_x[..., None] + jy * sol_y[..., None]
    return xi_t, np.einsum("...k,...k->...", xi_t, xi_t)


def _band(metric: MetricField):
    lo, hi = metric.spd_band()
    if lo <= 0:
        return np.inf, lo, hi
    return max(hi, 1.0 / lo), lo, hi


def _input_band(pb_u: MetricField) -> float:
    """The band radius of u#e, refusing a degenerate u#e."""
    gb, lo, _ = _band(pb_u)
    if lo <= 0:
        raise StepPreconditionError(f"input pullback degenerate (min eigenvalue {lo:.3g})")
    return gb


def _corrugation(jx, jy, xi_t, xi_sq, amplitude, phase, lam, table):
    """(Gamma_1 xi + Gamma_2 zeta)/lam on a slab, from xi~, |xi~|^2 and |xi~| rho."""
    xi = xi_t / xi_sq[..., None]
    zeta_t = np.cross(jx, jy)
    zeta_norm = np.linalg.norm(zeta_t, axis=-1)
    zeta = zeta_t / (zeta_norm * np.sqrt(xi_sq))[..., None]
    g1, g2 = table.eval(amplitude, phase, ("g1", "g2"))
    return (g1[..., None] * xi + g2[..., None] * zeta) / lam


def _primitive(rho: ScalarField, gphi: np.ndarray) -> np.ndarray:
    """Components of the primitive metric rho^2 grad(Phi) (x) grad(Phi)."""
    r2, gx, gy, out = rho.values ** 2, gphi[..., 0], gphi[..., 1], np.empty(gphi.shape[:2] + (3,))
    for c, (a, b) in enumerate(((gx, gx), (gx, gy), (gy, gy))):  # one component at a time
        np.multiply(a, b, out=out[..., c])
        out[..., c] *= r2
    return out


def _collar(chart: GridChart, ell: float) -> int:
    """The rows and columns a defect measured at mollification scale ell
    leaves out on each side: none on the torus; on a clamped chart the
    mollifier's reach ceil(ell / h) plus the two one-sided stencil rows.  A
    collar that leaves no interior node is refused."""
    if chart.periodic:
        return 0
    collar = int(np.ceil(ell / max(chart.spacing))) + 2
    nx, ny = chart.resolution
    if 2 * collar >= min(nx, ny):
        raise UnderResolvedError(
            f"measuring collar of {collar} nodes (ell = {ell:.4g} plus 2 stencil rows) "
            f"leaves no interior node of the {nx} x {ny} chart")
    return collar


def _measure_defect(pb: MetricField, target: np.ndarray, collar: int):
    """(sup, C1) of the defect pb - target away from the boundary collar of
    collar rows and columns (_collar).  The defect is written over target;
    the C1 part adds first differences.
    """
    chart = pb.chart
    nx, ny = chart.resolution
    vals = MetricField(chart, np.subtract(pb.values, target, out=target)).values
    sup = float(np.max(np.abs(vals[collar:nx - collar, collar:ny - collar])))
    dc1 = derivative_sup(vals, chart, ("x", "y"), collar)
    return sup, sup + dc1


def commensurate_base(chart: GridChart, base: float) -> float:
    """The base frequency a stage runs on this chart: on the torus the nearest
    positive multiple of 2 pi / L (L the longer period), else base itself."""
    if not chart.periodic:
        return base
    quantum = 2.0 * np.pi / max(chart.extent)
    return max(1.0, round(base / quantum)) * quantum


def _check_frequency(lam: float):
    if not (math.isfinite(lam) and lam > 0):
        raise StepPreconditionError(f"need a finite frequency lam > 0, got lam={lam}")


def commensurate_phase(phi: PhaseField, lam: float):
    """Round the linear part so lam * Phi wraps by multiples of 2 pi.

    On the torus a corrugation phase must close up over each period; the
    linear part w is snapped to the lattice 2 pi Z^2 / (lam L).  The metric
    this phase carries shifts by O(|w' - w|), which the stage's measured
    defect absorbs.  Returns (phase, shift) with shift the rounding size;
    a shift above MAX_PHASE_SHIFT of |w| is refused, and so is a lam that
    is not finite and positive.
    """
    _check_frequency(lam)
    chart = phi.chart
    if not chart.periodic:
        return phi, 0.0
    w = np.asarray(phi.linear, dtype=float)
    lx, ly = chart.extent
    quanta = np.array([2.0 * np.pi / (lam * lx), 2.0 * np.pi / (lam * ly)])
    snapped = np.round(w / quanta) * quanta
    shift = float(np.max(np.abs(snapped - w)))
    scale = float(np.max(np.abs(w))) or 1.0
    if shift > MAX_PHASE_SHIFT * scale:
        raise StepPreconditionError(
            f"frequency lam={lam:.6g} too low to make the phase periodic: "
            f"rounding would move grad(Phi) by {shift:.3g} ({shift / scale:.1%})")
    return PhaseField(chart, (snapped[0], snapped[1]), phi.periodic_values), shift


def _phase_is_commensurate(phi: PhaseField, lam: float):
    if not phi.chart.periodic:
        return True
    lx, ly = phi.chart.extent
    turns = np.array([phi.linear[0] * lam * lx, phi.linear[1] * lam * ly]) / (2 * np.pi)
    return bool(np.max(np.abs(turns - np.round(turns))) < WRAP_TOL)


class _Corrugated(NamedTuple):
    """A corrugated map whose defect is not measured: each layer measures
    its own against the target it was asked to add."""

    v: ImmersionField
    pullback: MetricField  # v#e
    gamma_bar: float       # band radius of v#e
    displacement: float    # sup |v - u|
    meta: dict             # carries moved_outside_support


def _check_ranges(eig_lo, eig_hi, amp_lo, amp_hi, table: CorrugationTable):
    """Refuse a step by the mollified Gram spectrum and amplitude ranges."""
    cond = eig_hi / max(eig_lo, 1e-300)
    if eig_lo <= 0 or cond > 1e6:
        raise StepPreconditionError(
            f"mollified pullback near-singular (condition number {cond:.3g})")
    table.check_amplitude(np.array([amp_lo, amp_hi]))


def _corrugate(u: ImmersionField, rho: ScalarField, phi: PhaseField, gphi: np.ndarray,
               lam: float, table: CorrugationTable) -> _Corrugated:
    """One unmeasured step at frequency lam adding rho^2 grad(Phi) (x)
    grad(Phi); gphi is grad(Phi).  u#e is checked by the caller
    (_input_band), once per chain: each step's v#e is checked here, and lam
    is checked finite and positive by the caller (step, or the chain's
    commensurate_phase).  It refuses fewer than NODES_PER_WAVELENGTH nodes
    per wavelength, a torus phase that does not wrap at lam, a
    near-singular mollified Gram matrix and an amplitude outside the
    table."""
    chart = u.chart
    h = max(chart.spacing)

    wavelength_nodes = 2.0 * np.pi / (lam * h)
    if wavelength_nodes < NODES_PER_WAVELENGTH * (1.0 - 1e-9):
        raise UnderResolvedError(
            f"corrugation at lam={lam:.6g} has {wavelength_nodes:.1f} nodes per "
            f"wavelength; need >= {NODES_PER_WAVELENGTH}")

    if not _phase_is_commensurate(phi, lam):
        raise StepPreconditionError("phase does not wrap the torus at this frequency; "
                                    "run commensurate_phase first")

    ell = 1.0 / lam
    u_smooth = mollify(u, ell, clamped_mode="extrapolate") if ell >= 2 * h else u

    # one sweep gathers the Gram band and the range of rho~ = |xi~| rho and,
    # while the ranges so far pass both refusals, writes v = u + (Gamma_1 xi
    # + Gamma_2 zeta)/lam (xi = xi~/|xi~|^2, zeta = n/|xi~|, n the unit normal
    # of u~); the refusals are raised after it, so that they see the whole chart
    v_vals = np.empty_like(u.values)
    eig_lo, eig_hi, amp_lo, amp_hi = np.inf, -np.inf, np.inf, -np.inf
    displacement, live = 0.0, True
    for s, jx, jy in jacobian_slabs(u_smooth, _slabs(u.values)):
        gram, det, lo, hi = _gram(jx, jy)
        eig_lo, eig_hi = min(eig_lo, float(lo.min())), max(eig_hi, float(hi.max()))
        if eig_lo > 0:  # else refused, before det is divided by
            xi_t, xi_sq = _xi_tilde(jx, jy, gram, det, gphi[s])
            amp = np.sqrt(xi_sq) * rho.values[s]
            amp_lo, amp_hi = min(amp_lo, float(amp.min())), max(amp_hi, float(amp.max()))
        if live:
            try:
                _check_ranges(eig_lo, eig_hi, amp_lo, amp_hi, table)
            except (StepPreconditionError, CorrugationDomainError):
                live = False
        if live:
            phase = lam * phi.values(s)
            offset = _corrugation(jx, jy, xi_t, xi_sq, amp, phase, lam, table)
            np.add(u.values[s], offset, out=v_vals[s])
            displacement = max(displacement, _displacement(v_vals[s], u.values[s]))
    del u_smooth
    _check_ranges(eig_lo, eig_hi, amp_lo, amp_hi, table)
    v = ImmersionField(chart, v_vals, u.linear)

    outside = rho.values == 0.0
    moved = np.max(np.abs(v_vals[outside] - u.values[outside]), initial=0.0)

    pb_v = pullback_metric(v)
    gb_v, lo_v, hi_v = _band(pb_v)
    if lo_v <= 0:
        raise ShortnessLostError(
            f"corrugated immersion degenerate (pullback min eigenvalue {lo_v:.3g})")
    return _Corrugated(v, pb_v, gb_v, displacement, {
        "amplitude_max": amp_hi, "moved_outside_support": float(moved),
        "pullback_band": (float(lo_v), float(hi_v)), "mollification_scale": ell})


def _chain(u: ImmersionField, terms, base: float, K: float,
           table: CorrugationTable, pb_u: MetricField):
    """The unmeasured steps of a stage, one per (rho_k, Phi_k) term at
    frequencies base * K^k; returns (the corrugated map, the live terms).

    Zero-amplitude terms corrugate nothing (Gamma(0, .) = 0) and are skipped
    outright rather than spending frequency budget.  Only the caller's u#e
    is checked for degeneracy here: each step checks the v#e it makes, and
    a step's v#e is dropped before the next step runs.
    """
    gb, current = _input_band(pb_u), u
    history = []
    live_terms = [(r, ph) for r, ph in terms if float(np.max(np.abs(r.values))) > 0.0]
    for k, (rho_k, phi_k) in enumerate(live_terms):
        lam_k = base * K ** k
        phi_used, shift = commensurate_phase(phi_k, lam_k)
        c = None  # the previous step's v#e: read by no later step
        try:
            c = _corrugate(current, rho_k, phi_used, phi_used.gradient(), lam_k, table)
        except ShortnessLostError as exc:
            raise ShortnessLostError(f"term {k}: {exc}") from exc
        current = c.v
        history.append({"lam": lam_k, "gamma_bar": c.gamma_bar, "phase_shift": shift,
                        "amplitude_max": c.meta["amplitude_max"]})
    pb, gb = (c.pullback, c.gamma_bar) if live_terms else (pb_u, gb)  # the final pullback

    outside = np.ones(u.chart.resolution, dtype=bool)
    for rho_k, _ in terms:
        outside &= rho_k.values == 0.0
    moved = float(np.max(np.abs(current.values[outside] - u.values[outside]), initial=0.0))
    return _Corrugated(current, pb, gb, _displacement(current.values, u.values), {
        "steps": history, "moved_outside_support": moved,
        "skipped_zero_terms": len(terms) - len(live_terms)}), live_terms


def _measured(c: _Corrugated, target: np.ndarray, collar: int) -> StepOutcome:
    """The outcome of c, its defect measured against target (written over)
    away from the collar."""
    defect_sup, defect_c1 = _measure_defect(c.pullback, target, collar)
    return StepOutcome(c.v, c.pullback, defect_sup, defect_c1, c.displacement,
                       c.meta["moved_outside_support"] < 1e-14, c.gamma_bar,
                       {"collar": collar, **c.meta})


def step(u: ImmersionField, rho: ScalarField, phi: PhaseField, lam: float,
         table: CorrugationTable, pb_u: MetricField) -> StepOutcome:
    """One corrugation step at frequency lam adding rho^2 grad(Phi) (x)
    grad(Phi); pb_u is u#e.  lam is all a step reads besides its data; its
    refusals are, before it runs, a lam that is not finite and positive and
    a measuring collar at 1/lam that leaves no interior node (_collar), and
    then those of _corrugate.

    The defect is measured against pb_u + rho^2 grad(Phi) (x) grad(Phi).
    """
    _input_band(pb_u)
    _check_frequency(lam)
    collar = _collar(u.chart, 1.0 / lam)
    gphi = phi.gradient()
    c = _corrugate(u, rho, phi, gphi, lam, table)
    target = _primitive(rho, gphi)
    del gphi
    target += pb_u.values
    return _measured(c, target, collar)


def stage(u: ImmersionField, terms, base: float, K: float,
          table: CorrugationTable, pb_u: MetricField) -> StepOutcome:
    """Apply one step per (rho_k, Phi_k) term with frequencies base * K^k to
    u, whose pullback u#e is pb_u.

    The defect is measured once, on the final pullback, against
    pullback(u) + sum_k rho_k^2 grad(Phi_k) (x) grad(Phi_k) with the phases
    as given; phase rounding on the torus and every intermediate error land
    in it.  A base that is not finite and positive, or whose measuring
    collar at 1/base leaves no interior node, is refused before any step.
    """
    _check_frequency(base)
    collar = _collar(u.chart, 1.0 / base)
    c, live_terms = _chain(u, terms, base, K, table, pb_u)
    # the target is summed after the steps, which it would outlive
    target = pb_u.values.copy()
    for rho_k, phi_k in live_terms:
        target += _primitive(rho_k, phi_k.gradient())
    return _measured(c, target, collar)


# ---------------------------------------------------------------------------
# 2-D metric addition through conformal coordinates

def _support_inflation(moved_mask, supp_mask, chart):
    """Largest distance from a moved node to the support mask."""
    if not moved_mask.any():
        return 0.0
    if supp_mask.all():
        return 0.0
    from scipy.ndimage import distance_transform_edt

    if chart.periodic:
        tiled = np.tile(supp_mask, (3, 3))
        dist = distance_transform_edt(~tiled, sampling=chart.spacing)
        nx, ny = chart.resolution
        dist = dist[nx:2 * nx, ny:2 * ny]
    else:
        dist = distance_transform_edt(~supp_mask, sampling=chart.spacing)
    return float(dist[moved_mask].max())


def _conformal_terms(target: MetricField):
    """(Phi_1, Phi_2, theta, stats, residual sup) of the conformal
    factorization of target, whose residual may reach 1e-6 on the torus and
    1e-2 max|target| on a clamped chart.  The steps read only the phases and
    theta; the factorization's other fields (mu, residual, gradients, det J)
    are dropped here, before any step runs."""
    tol = 1e-6 if target.chart.periodic else 1e-2 * float(np.max(np.abs(target.values)))
    fac = solve_conformal(target, residual_tol=tol)
    return fac.phi1, fac.phi2, fac.theta, fac.stats, fac.residual_sup


def _torus_terms(phi1: PhaseField, phi2: PhaseField, theta: ScalarField, lam: float):
    """The two stage terms of a conformal factorization, Phi_1 to run at lam.

    On the torus the pair is turned and scaled by the complex constant c
    that puts the linear part of Re(c Phi) on the shortest lattice step at
    lam along the axis nearest to it; with theta / |c| the metric is the
    same, and Phi_1 wraps with no rounding and runs at lam times the
    length of that step.  Im(c Phi) is divided by the length r of its
    linear part and its amplitude multiplied by r, so that it runs at its
    wave's own frequency.  A Phi_1 already on that step is not turned.
    """
    chart = phi1.chart
    if not chart.periodic:
        return [(theta, phi1), (theta, phi2)]
    a, b = np.asarray(phi1.linear), np.asarray(phi2.linear)
    quanta = 2.0 * np.pi / (lam * np.asarray(chart.extent))
    i = int(np.argmax(np.abs(a / quanta)))
    step = np.zeros(2)
    step[i] = math.copysign(quanta[i], a[i])
    if not np.array_equal(a, step):
        # Re(c Phi) = c_r Phi_1 - c_i Phi_2 and Im(c Phi) = c_i Phi_1 + c_r Phi_2
        cr, ci = np.linalg.solve(np.column_stack([a, -b]), step)
        p1, p2 = (s * phi1.periodic_values + t * phi2.periodic_values
                  for s, t in ((cr, -ci), (ci, cr)))
        phi1 = PhaseField(chart, (float(step[0]), float(step[1])), p1)
        phi2 = PhaseField(chart, tuple(float(v) for v in ci * a + cr * b), p2)
        theta = ScalarField(chart, theta.values / math.hypot(cr, ci))
    r = math.hypot(*phi2.linear)
    if r == 1.0:
        return [(theta, phi1), (theta, phi2)]
    return [(theta, phi1), (ScalarField(chart, r * theta.values),
                            PhaseField(chart, (phi2.linear[0] / r, phi2.linear[1] / r),
                                       phi2.periodic_values / r))]


def add_metric_2d(u: ImmersionField, rho: ScalarField, g: MetricField,
                  h: MetricField, delta: float, lam: float, kappa: float,
                  table: CorrugationTable, pb_u: MetricField | None = None, *,
                  base: float | None = None, K: float | None = None) -> StepOutcome:
    """Add rho^2 (g + h) to the pullback metric of u (two conformal terms).

    rho, g, h are mollified at ell = lam^-kappa, the smoothed g~ + h~ is
    conformally factorized, and a two-term stage runs the base and growth K
    its caller planned (by default commensurate_base(lam^kappa) and
    max(2, lam^(kappa-1))) to add (theta rho~)^2 [grad Phi_1 (x)^2 +
    grad Phi_2 (x)^2].  The defect is measured against the unmollified
    rho^2 (g + h); the mollification difference, the conformal residual
    and any torus phase rounding land there.  It refuses delta outside
    (0, 1), lam <= 1, kappa < 1 (each nan included), a g that is not SPD,
    an ell under two grid cells or whose measuring collar leaves no
    interior node (both before any pullback), and a smoothed g + h whose
    least eigenvalue falls below 1/(2 gamma), gamma the band radius of g
    and u#e; the factorization and the stage refuse on their own terms.
    """
    chart = u.chart
    hmax = max(chart.spacing)
    problems = []
    if not (0.0 < delta < 1.0):
        problems.append(f"need 0 < delta < 1, got {delta}")
    if not lam > 1.0:
        problems.append(f"need lam > 1, got {lam}")
    if not kappa >= 1.0:
        problems.append(f"need kappa >= 1, got {kappa}")

    g_lo, g_hi = g.spd_band()
    if g_lo <= 0:
        problems.append("target metric g is not SPD")
    if problems:
        raise StepPreconditionError(problems)
    ell = lam ** -kappa
    if ell < 2 * hmax:
        raise UnderResolvedError(
            f"mollification scale lam^-kappa = {ell:.4g} below 2*spacing = {2 * hmax:.4g}")
    collar = _collar(chart, ell)  # refused before any pullback or solve
    pb_u = pullback_metric(u) if pb_u is None else pb_u
    gamma = max(g_hi, 1.0 / max(g_lo, 1e-300), _band(pb_u)[0])

    target_sm = MetricField(chart, mollify(g, ell).values + mollify(h, ell).values)
    sm_lo, _ = target_sm.spd_band()
    if sm_lo < 1.0 / (2.0 * gamma) * (1 - 1e-9):
        raise StepPreconditionError(
            f"smoothed g + h lost ellipticity (min eigenvalue {sm_lo:.4g})")

    phi1, phi2, theta, conformal_stats, conformal_residual = _conformal_terms(target_sm)
    del target_sm
    amp = ScalarField(chart, theta.values * mollify(rho, ell).values)
    del theta
    terms = [(amp, phi1), (amp, phi2)]

    if base is None:
        base = commensurate_base(chart, lam ** kappa)
    if K is None:
        K = max(2.0, lam ** (kappa - 1.0) * (1 + 1e-9))

    c, _ = _chain(u, terms, base, K, table, pb_u)
    # the target pb_u + rho^2 (g + h) and the moved mask, one slab of rows at a time
    target, moved = np.empty_like(pb_u.values), np.empty(chart.resolution, dtype=bool)
    for s in _slabs(target):
        target[s] = pb_u.values[s] + (rho.values[s] ** 2)[..., None] * (g.values[s] + h.values[s])
        moved[s] = np.abs(c.v.values[s] - u.values[s]).max(axis=-1) > 1e-14
    dsup, dc1 = _measure_defect(c.pullback, target, collar)
    inflation = _support_inflation(moved, rho.values != 0.0, chart)
    support_ok = inflation <= ell + 1.5 * hmax

    return StepOutcome(c.v, c.pullback, dsup, dc1, c.displacement, support_ok, c.gamma_bar, {
        **c.meta,
        "top_frequency": base * K,
        "ell": ell, "base_frequency": base, "K": K,
        "support_inflation": inflation,
        "stage_constant": dsup / (delta * lam ** (1.0 - kappa)),
        "displacement_constant": c.displacement / (math.sqrt(delta) * lam ** -kappa),
        "conformal": conformal_stats, "conformal_residual": conformal_residual,
        "collar": collar,
    })


# ---------------------------------------------------------------------------
# the stage law of a pass

# A pass stage that adds rho~^2 (g + h~) at growth K leaves a defect near
# C D / K, with D = sup |rho~^2 (g + h~)| and the defect sup |E| both taken
# over the components.  C is fitted per chart kind as the midrange of E K / D
# over the stages measured below, rounded; STAGE_LAW_SCATTER, the law's
# relative scatter, is the largest |E K / (C D) - 1| over all of them, rounded
# up.  Measured E K / D (resolution, K):
#   periodic, the flat 1.44 I torus at rho^2 = 1/8 (its kept and rolled-back
#   q = 0 stages): 4.107 (128^2, 7.99), 4.086 (256^2 and 512^2, 15.98),
#   4.074 (512^2, 31.97), 4.068 (1024^2, 63.94);
#   clamped, the triangle skeleton on 1.21 I at delta* = 1/8 (its q = 0
#   stage, rolled back at every size): 6.628 (512^2, 2.73), 6.700 (512^2 with
#   rho dipping at the vertices, 2.87), 8.415 (1024^2, 5.39), 15.705 (2048^2,
#   10.60).
# The clamped defect falls slower than 1/K (0.275, 0.177, 0.168 over those
# sizes), so that kind sets the scatter.
STAGE_CONSTANT_PERIODIC = 4.09
STAGE_CONSTANT_CLAMPED = 11.17
STAGE_LAW_SCATTER = 0.41


def predicted_stage_defect(chart: GridChart, added_sup: float, K: float) -> float:
    """The stage law's defect C D / K for a stage at growth K adding a
    metric of component sup D = added_sup on this chart."""
    c = STAGE_CONSTANT_PERIODIC if chart.periodic else STAGE_CONSTANT_CLAMPED
    return c * added_sup / K


# ---------------------------------------------------------------------------
# strong-short bootstrap

# alpha* of the bootstrap's budgets a0^-alpha* (on |h~|) and delta* a0^-alpha*
# (on |u~ - u|): 1/(8 n) for n = 4 primitive terms.  The stage adds two
# conformal terms, but 1/(8 * 2) would shrink the displacement budget below
# what the flat torus meets (0.111 > 0.105 at a0 = 16); which term count
# the exponent should use is open.
BOOTSTRAP_ALPHA_STAR = 1.0 / 32.0


def bootstrap_strong(u: ImmersionField, g: MetricField, a0: float,
                     table: CorrugationTable, delta_star: float | None = None):
    """Put a strictly short immersion into the form g - u#e = delta*(g + h).

    Factorizes m0 = g - u#e - delta* g in conformal coordinates, as the
    metric addition does, and adds its two terms through one stage (on the
    torus first turned onto the lattice by _torus_terms): from the lowest
    wave the chart carries (2 pi / L on the torus, twice that when
    clamped) with a growth factor K = max(2, 0.98 ceiling / base) that
    takes all remaining frequency budget (the error of the stage shrinks
    like 1/K).  Returns (u~, u~#e, h~, delta*, report); h~ = -E/delta* with
    E the measured stage defect.
    """
    chart = u.chart
    pb = pullback_metric(u)
    defect0 = MetricField(chart, g.values - pb.values)
    lo0 = defect0.spd_band()[0]
    if lo0 <= 0:
        raise StepPreconditionError(
            f"initial map is not strictly short (margin {lo0:.4g})")

    if delta_star is None:
        for k in range(3, 50):
            cand = 2.0 ** -k
            if MetricField(chart, defect0.values - 2.0 * cand * g.values).spd_band()[0] >= 0:
                delta_star = cand
                break
        else:
            raise StepPreconditionError("shortness margin too small to pick delta*")
    else:
        if delta_star > 0.125 or delta_star <= 0:
            raise StepPreconditionError(f"delta* must lie in (0, 1/8], got {delta_star}")

    m0 = MetricField(chart, defect0.values - delta_star * g.values)

    if float(np.max(np.abs(m0.values))) < 1e-13:
        h_t = MetricField(chart, np.zeros_like(g.values))
        report = {"delta_star": delta_star, "terms": 0, "trivial": True,
                  "u_moved": 0.0, "h_sup": 0.0}
        return u, pb, h_t, delta_star, report
    lo_m0 = m0.spd_band()[0]
    if lo_m0 <= 0:  # only a supplied delta* can leave m0 degenerate
        raise StepPreconditionError(
            f"supplied delta* exceeds the shortness margin: g - u#e - delta* g has "
            f"min eigenvalue {lo_m0:.4g}, and its conformal factorization needs it positive")

    hmax = max(chart.spacing)
    ceiling = frequency_ceiling(chart)
    base = 2.0 * np.pi / max(chart.extent) * (1.0 if chart.periodic else 2.0)
    K = max(2.0, 0.98 * ceiling / base)
    top = base * K
    if 2.0 * np.pi / (top * hmax) < NODES_PER_WAVELENGTH * (1.0 - 1e-9):  # as step() tests
        fit = [math.ceil(NODES_PER_WAVELENGTH * top * e / (2.0 * np.pi) - 1e-9)
               + (not chart.periodic) for e in chart.extent]
        raise UnderResolvedError(
            f"bootstrap frequency ceiling: top frequency {top:.6g} (base {base:.6g}, "
            f"K={K:.4g}) exceeds the resolvable {ceiling:.6g}; the smallest "
            f"resolution that fits is {fit[0]}x{fit[1]}")

    terms = _torus_terms(*_conformal_terms(m0)[:3], base)
    out = stage(u, terms, base, K, table, pb)
    u_t, pb_t = out.v, out.pullback
    moved, stage_defect_sup, support_ok = out.displacement, out.defect_sup, out.support_ok
    h_t = MetricField(chart, -(pb_t.values - pb.values - m0.values) / delta_star)
    del out, terms, pb, m0, defect0  # the closing checks below are the peak

    half_band_ok = bool(MetricField(chart, pb_t.values - 0.5 * g.values).spd_band()[0] >= -1e-9
                        and MetricField(chart, g.values - pb_t.values).spd_band()[0] >= -1e-9)
    strong_ok = bool(MetricField(chart, 0.5 * g.values - h_t.values).spd_band()[0] >= -1e-12
                     and MetricField(chart, 0.5 * g.values + h_t.values).spd_band()[0] >= -1e-12)
    if not strong_ok:
        raise ShortnessLostError(
            f"bootstrap error term violates the strong-short band: |h~| reaches "
            f"{np.max(np.abs(h_t.values)):.4g}")

    report = {
        "delta_star": delta_star, "terms": 2, "trivial": False,
        "base_frequency": base, "K": K,
        "top_frequency": top,
        "u_moved": moved,
        "u_moved_budget": delta_star * a0 ** -BOOTSTRAP_ALPHA_STAR,
        "h_sup": float(np.max(np.abs(h_t.values))),
        "h_sup_budget": a0 ** -BOOTSTRAP_ALPHA_STAR,
        "alpha_star": BOOTSTRAP_ALPHA_STAR,
        "half_band_ok": half_band_ok,
        "strong_ok": strong_ok,
        "stage_defect_sup": stage_defect_sup,
        "support_ok": support_ok,
    }
    return u_t, pb_t, h_t, delta_star, report
