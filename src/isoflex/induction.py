"""Parameter schedules, distance cut-offs, the amplitude recursion, and the
inductive driver that upgrades an adapted short immersion from one skeleton
to the next.

The exponent algebra (the growth exponent b, the degraded Hoelder and
auxiliary exponents, the amplitude-base power) is exact rational
arithmetic; the executed frequency ladder is planned against the grid's
resolvable ceiling and the run truncates with a certificate rather than
aliasing when frequencies outrun the grid.  One certificate gives every
verdict on an adapted state: the driver's, and each kept stage's at the
pass exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .corrugation import CorrugationTable
from .grid import (
    GridChart,
    ImmersionField,
    MetricField,
    ScalarField,
    UnderResolvedError,
    _eigenvalues,
    _slabs,
    c1_seminorm,
    c2_seminorm,
    holder_seminorm,
    pullback_metric,
    slab_derivatives,
)
from .nash_step import (
    STAGE_LAW_SCATTER,
    ShortnessLostError,
    StepPreconditionError,
    add_metric_2d,
    bootstrap_strong,
    commensurate_base,
    frequency_ceiling,
    predicted_stage_defect,
)

RHO_FLOOR = 1e-6               # rho-power bounds skip nodes with rho below this
DISPLACEMENT_CONSTANT = 12.0   # C-bar in the displacement budget (5)_q


class ScheduleError(ValueError):
    pass


def growth_exponent(theta: Fraction, alpha: Fraction, n: int = 2) -> Fraction:
    """b = 1 + 4 alpha theta / (1 - 5 theta) in 2-D; the n(n+1)/2-direction
    variant 1 + 2 n* alpha theta / (1 - (2 n* + 1) theta) for n >= 3."""
    theta, alpha = Fraction(theta), Fraction(alpha)
    if n == 2:
        if not 0 < theta < Fraction(1, 5):
            raise ScheduleError(f"theta={theta} outside (0, 1/5)")
        return 1 + 4 * alpha * theta / (1 - 5 * theta)
    n_star = n * (n + 1) // 2
    bound = Fraction(1, 2 * n_star + 1)
    if not 0 < theta < bound:
        raise ScheduleError(f"theta={theta} outside (0, {bound}) for n={n}")
    return 1 + 2 * n_star * alpha * theta / (1 - (2 * n_star + 1) * theta)


@dataclass(frozen=True)
class Schedule:
    """The asymptotic parameter ladder, with exact exponent algebra.

    Exponent relations are kept as exact rationals (theta' b^2 = theta,
    2 b^2 alpha' = alpha; the next pass runs at A' = A^(b^2)); the frequency
    and amplitude ladders lam_(q+1) = lam_q^b, lam_q = A delta_q^(-1/(2
    theta)) are float evaluations of those exact relations.
    """

    A: float
    theta: Fraction
    alpha: Fraction
    n: int
    b: Fraction
    delta: tuple      # delta_1 .. delta_(depth)
    lam: tuple        # lam_1 .. lam_(depth)

    @property
    def theta_prime(self) -> Fraction:
        return self.theta / self.b ** 2

    @property
    def alpha_prime(self) -> Fraction:
        return self.alpha / (2 * self.b ** 2)

    def delta_q(self, q: int) -> float:
        """1-indexed; extends the ladder beyond the generated depth."""
        if q <= len(self.delta):
            return self.delta[q - 1]
        ll = math.log(self.lam[-1]) * float(self.b) ** (q - len(self.lam))
        ld = -2.0 * float(self.theta) * (ll - math.log(self.A))
        return 0.0 if ld < -700.0 else math.exp(ld)

    def lam_q(self, q: int) -> float:
        if q <= len(self.lam):
            return self.lam[q - 1]
        ll = math.log(self.lam[-1]) * float(self.b) ** (q - len(self.lam))
        return math.inf if ll > 700.0 else math.exp(ll)


def minimal_adequate_a(theta: Fraction, alpha: Fraction, delta1: float, n: int = 2) -> float:
    """Smallest A making the ordering delta_(q+1) <= delta_q / 4 and
    lam_(q+1) >= 2 lam_q hold along the ladder (binding at q = 1)."""
    b = growth_exponent(theta, alpha, n)
    bf, tf = float(b), float(theta)
    # delta ratio: A^(-2 theta (b-1)) delta1^(b-1) <= 1/4
    a_delta = (4.0 * delta1 ** (bf - 1.0)) ** (1.0 / (2.0 * tf * (bf - 1.0)))
    # lam doubling: (A delta1^(-1/(2 theta)))^(b-1) >= 2
    a_lam = 2.0 ** (1.0 / (bf - 1.0)) * delta1 ** (1.0 / (2.0 * tf))
    return max(a_delta, a_lam, 1.0)


def build_schedule(A: float, theta, alpha, delta1: float, n: int = 2,
                   depth: int = 6) -> Schedule:
    """Generate the ladder to the requested depth, checking the ordering
    delta_(q+1) <= delta_q/4, lam_(q+1) >= 2 lam_q eagerly."""
    theta = Fraction(theta).limit_denominator(10 ** 12) if not isinstance(theta, Fraction) else theta
    alpha = Fraction(alpha).limit_denominator(10 ** 12) if not isinstance(alpha, Fraction) else alpha
    if not 0 < alpha < 1:
        raise ScheduleError(f"alpha={alpha} outside (0, 1)")
    if not 0 < delta1 < 1:
        raise ScheduleError(f"delta_1={delta1} outside (0, 1)")
    b = growth_exponent(theta, alpha, n)
    if A < 1.0:
        raise ScheduleError("amplitude base A must be >= 1")

    tf, bf = float(theta), float(b)
    log_a = math.log(A)
    # the ladder explodes superexponentially; generate in log space and
    # surface inf/0 floats where float64 gives out
    log_lam = [log_a - math.log(delta1) / (2.0 * tf)]
    log_delta = [math.log(delta1)]
    for q in range(1, depth):
        ll = bf * log_lam[-1]
        ld = -2.0 * tf * (ll - log_a)
        if ld > log_delta[-1] - math.log(4.0) + 1e-12 or ll < log_lam[-1] + math.log(2.0) - 1e-12:
            raise ScheduleError(
                f"ordering failed at q={q + 1}: delta ratio "
                f"{math.exp(ld - log_delta[-1]):.4g}, lam ratio "
                f"{math.exp(min(ll - log_lam[-1], 700.0)):.4g}; "
                f"minimal adequate A = {minimal_adequate_a(theta, alpha, delta1, n):.6g}")
        log_lam.append(ll)
        log_delta.append(ld)

    def _exp(v):
        return math.inf if v > 700.0 else math.exp(v)

    deltas = tuple(_exp(v) for v in log_delta)
    lams = tuple(_exp(v) for v in log_lam)
    return Schedule(A, theta, alpha, n, b, deltas, lams)


def plan_schedule(A: float, theta: Fraction, alpha: Fraction, delta1: float,
                  depth: int) -> Schedule:
    """A pass level's exact schedule, at delta_1 = max rho^2 and A raised to adequacy."""
    return build_schedule(max(A, minimal_adequate_a(theta, alpha, delta1)), theta, alpha,
                          delta1, depth=max(depth + 3, 4))


# ---------------------------------------------------------------------------
# executed desk ladder

@dataclass(frozen=True)
class DeskLadder:
    """The ladder a finite grid actually runs.

    Amplitude levels keep the exact quarter ratio (delta_(q+1) = delta_q /
    4, the boundary case of the ordering); executed frequencies grow by a
    per-stage factor planned against the grid ceiling instead of the
    asymptotic law lam_q = A delta_q^(-1/(2 theta)), which leaves any fixed
    grid after roughly one stage.  A, theta, alpha still drive every
    exponent check; the deviation is certified in the run report.
    """

    delta: tuple
    lam: tuple
    A: float
    theta: float
    alpha: float
    kappa: float
    b: float
    radii: tuple | None = None   # explicit tube radii r_q; 1/lam_(q+1) if None

    def delta_q(self, q: int) -> float:
        return self.delta[q - 1] if q <= len(self.delta) else self.delta[0] * 0.25 ** (q - 1)

    def lam_q(self, q: int) -> float:
        return self.lam[min(q, len(self.lam)) - 1]

    def r_q(self, q: int) -> float:
        """Tube radius for the level-q cut-off (1-indexed like r_(q+1))."""
        if self.radii is not None:
            return self.radii[min(q, len(self.radii)) - 1]
        return 1.0 / self.lam_q(q + 1)


def _power_or_inf(x: float, q: int) -> float:
    """x ** q, saturating at inf where the float power overflows."""
    try:
        return x ** q
    except OverflowError:
        return math.inf


def desk_ladder(schedule: Schedule, delta1: float, chart: GridChart, depth: int,
                base_frequency: float | None = None,
                tube_radius: float | None = None) -> DeskLadder:
    deltas = tuple(delta1 * 0.25 ** q for q in range(depth + 3))
    ceiling = frequency_ceiling(chart)
    if base_frequency is None:
        base_frequency = 2.0 * np.pi / max(chart.extent)
    # greedy: the first stage takes the whole resolvable band (the
    # cross-step coupling makes each stage cost a ~30-50x frequency
    # ratio, so no split of a desk grid's band buys a second stage)
    stage_growth = max(2.0, ceiling / base_frequency)
    lams = tuple(base_frequency * _power_or_inf(stage_growth, q) for q in range(depth + 3))
    kappa = 1.0 + (2.0 * float(schedule.theta) / float(schedule.b)) * (
        float(schedule.b) - 1.0 + float(schedule.alpha))
    radii = None
    if tube_radius is not None:
        # tubes shrink geometrically but stay grid-resolvable, decoupled
        # from the executed frequencies (the 1/lam coupling collapses the
        # tubes below the grid after the first greedy stage)
        radii = tuple(tube_radius * 0.5 ** q for q in range(depth + 3))
    return DeskLadder(deltas, lams, schedule.A, float(schedule.theta),
                      float(schedule.alpha), kappa, float(schedule.b), radii)


# ---------------------------------------------------------------------------
# skeleta and cut-offs

@dataclass(frozen=True)
class SkeletonSet:
    """Vertices / segments / whole-chart flags with exact distance fields."""

    dimension_level: int           # 0 vertices, 1 edges, 2 whole chart
    points: tuple = ()
    segments: tuple = ()           # ((x0,y0),(x1,y1)) pairs
    whole: bool = False

    def __post_init__(self):  # distance_field divides by each segment's vv
        for (ax, ay), (bx, by) in self.segments:
            if (bx - ax) * (bx - ax) + (by - ay) * (by - ay) == 0.0:
                raise ValueError(f"skeleton segment {(ax, ay)} -> {(bx, by)} has zero length")

    @classmethod
    def empty(cls):
        return cls(dimension_level=0)

    @property
    def is_empty(self) -> bool:
        return not self.whole and not self.points and not self.segments

    def distance_field(self, chart: GridChart) -> np.ndarray:
        """Exact euclidean distance per node (inf for the empty set), one
        slab of rows at a time."""
        if self.whole:
            return np.zeros(chart.resolution)
        if self.is_empty:
            return np.full(chart.resolution, np.inf)
        xs, ys = chart.axes()
        y, best = ys[None, :], np.empty(chart.resolution)
        for s in _slabs(best):
            x, near = xs[s, None], best[s]  # node coordinates, broadcast
            near.fill(np.inf)
            for px, py in self.points:
                np.minimum(near, np.hypot(x - px, y - py), out=near)
            for (ax, ay), (bx, by) in self.segments:
                vx, vy = bx - ax, by - ay
                vv = vx * vx + vy * vy
                t = np.clip(((x - ax) * vx + (y - ay) * vy) / vv, 0.0, 1.0)
                np.minimum(near, np.hypot(x - (ax + t * vx), y - (ay + t * vy)), out=near)
        return best

    def feature_separation(self) -> float:
        """Minimum separation between distinct features (basis for r-bar)."""
        feats = [np.asarray(p) for p in self.points]
        feats += [np.asarray(s) for s in self.segments]
        if len(feats) < 2:
            return np.inf
        best = np.inf
        for i in range(len(feats)):
            for j in range(i + 1, len(feats)):
                a, b = feats[i], feats[j]
                pa = a.reshape(-1, 2)
                pb = b.reshape(-1, 2)
                d = np.min(np.linalg.norm(pa[:, None] - pb[None, :], axis=-1))
                if d > 0:
                    best = min(best, d)
        return best


R_STAR = 0.75  # psi's plateau radius r*, as a fraction of the tube radius r_(q+1)


def smoothstep(s):
    """Quintic C^2 ramp: exactly 0 below 0, exactly 1 above 1 (the clip's,
    and NaN kept); the quintic is evaluated only where 0 < s < 1."""
    s = np.asarray(s, dtype=float)
    out = np.clip(s, 0.0, 1.0, out=np.empty_like(s))
    ramp = (s > 0.0) & (s < 1.0)
    t = s[ramp]
    out[ramp] = np.clip(t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t), 0.0, 1.0)
    return out[()]  # a scalar for 0-d input, as from the ufuncs


def _phi(s):        # 0 below 8/5, 1 at 2 and above
    return smoothstep((np.asarray(s, dtype=float) - 1.6) * 2.5)


def _phi_tilde(s):  # 0 below 3/2, 1 at 8/5 and above: equals 1 on supp(phi)
    return smoothstep((np.asarray(s, dtype=float) - 1.5) * 10.0)


def _psi(s, r_star, r_tilde):
    # falls from 1 below r* to 0 at 0.9 r~; psi~ = 1 on its support
    knee = r_star + 0.75 * (r_tilde - r_star)
    return 1.0 - smoothstep((np.asarray(s, dtype=float) - r_star) / (knee - r_star))


def _psi_tilde(s, r_star, r_tilde):
    knee = r_star + 0.75 * (r_tilde - r_star)
    return 1.0 - smoothstep((np.asarray(s, dtype=float) - knee) / (r_tilde - knee))


@dataclass(frozen=True)
class CutoffPair:
    chi: ScalarField
    chi_tilde: ScalarField
    audit: dict
    inner_tube: np.ndarray  # dist(., Sigma) < r* r_(q+1)


def _skeleton_distances(sigma: SkeletonSet, s_set: SkeletonSet, chart: GridChart):
    """(dist(., Sigma), dist(., S)) as cutoffs reads them; None where unread."""
    return (None if sigma.whole else sigma.distance_field(chart),
            None if s_set.is_empty else s_set.distance_field(chart))


def cutoffs(rho: ScalarField, sigma: SkeletonSet, s_set: SkeletonSet, q: int,
            ladder, distances=None) -> CutoffPair:
    """chi_q = phi(rho / delta_(q+2)^(1/2)) psi(dist(., Sigma) / r_(q+1)).

    psi falls from 1 inside r* r_(q+1) (r* = R_STAR) to 0 at r~* = r_(q+1).
    The audit measures the geometric quantities the construction relies on:
    the largest S-tube radius r_** avoided by {rho > (3/2) delta^(1/2)}, the
    feature-separation constant, whether the used tube respects r~* <= r_bar
    r_**, the cut-off gradients, and the profile nesting.  Violated geometry
    raises; everything else is recorded.  `distances` takes
    _skeleton_distances(sigma, s_set, chart) computed once by a caller that
    cuts off repeatedly on one chart.

    chi, chi~, the inner tube and the audit's reductions are formed one slab
    of rows at a time.  A slab whose every node has dist(., Sigma) / r_(q+1)
    >= 1 lies outside the tube: there psi = psi~ = 1 - 1 = +0.0 and, with
    delta_(q+2) > 0, phi is finite and >= 0, so the slab gets chi = chi~ =
    +0.0 and no inner node without evaluating either ramp.
    """
    chart = rho.chart
    d2 = ladder.delta_q(q + 2)
    r_q1 = ladder.r_q(q + 1)
    dist_sigma, dist_s = distances or _skeleton_distances(sigma, s_set, chart)
    root = math.sqrt(d2)
    check_s = not (s_set.is_empty or sigma.whole)

    chi_v, chit_v = np.empty(chart.resolution), np.empty(chart.resolution)
    inner = np.empty(chart.resolution, dtype=bool)
    nearest, nested, support = np.inf, True, 0  # nearest: min dist(., S) where live
    for s in _slabs(chi_v):
        ratio = rho.values[s] / root
        if check_s:
            live = ratio > 1.5
            if live.any():
                nearest = min(nearest, float(dist_s[s][live].min()))
        if sigma.whole:
            chi_v[s], chit_v[s], inner[s] = _phi(ratio), _phi_tilde(ratio), True
        else:
            dist = dist_sigma[s] / r_q1
            if root > 0 and dist.min() >= 1.0:  # outside the tube
                chi_v[s], chit_v[s], inner[s] = 0.0, 0.0, False
                continue
            np.multiply(_phi(ratio), _psi(dist, R_STAR, 1.0), out=chi_v[s])
            np.multiply(_phi_tilde(ratio), _psi_tilde(dist, R_STAR, 1.0), out=chit_v[s])
            inner[s] = dist_sigma[s] < R_STAR * r_q1
        nested &= bool(np.all(chit_v[s][chi_v[s] > 0] >= 1.0 - 1e-12))
        support += int(np.count_nonzero(chit_v[s] > 0))

    audit = {"q": q, "r_q1": r_q1}
    if check_s:
        r_starstar = np.inf if nearest == np.inf else 0.9 * nearest / r_q1
        if r_starstar <= 0:
            raise StepPreconditionError(
                f"q={q}: a node with rho > (3/2) delta^(1/2) sits on S")
        sep = s_set.feature_separation()
        r_bar = 0.5 * sep / r_q1 if np.isfinite(sep) else np.inf
        audit["r_starstar"] = r_starstar
        audit["r_bar"] = r_bar
        audit["geometric_condition_ok"] = bool(1.0 <= r_bar * r_starstar + 1e-12)
        if not audit["geometric_condition_ok"]:
            raise StepPreconditionError(
                f"q={q}: geometric condition violated: used tube radius "
                f"exceeds r_bar x r_** = {r_bar * r_starstar:.4g} x r_(q+1)")

    chi, chit = ScalarField(chart, chi_v), ScalarField(chart, chit_v)
    if not nested:
        raise StepPreconditionError(f"q={q}: supp chi escapes the chi~ plateau")
    grad_chi = max(c1_seminorm(chi), c1_seminorm(chit))
    audit.update({
        "nesting_ok": nested,
        "grad_chi": grad_chi,
        "grad_chi_times_r": grad_chi * r_q1,
        "support_fraction": support / chi.values.size,
    })
    return CutoffPair(chi, chit, audit, inner)


def update_rho(rho_q: ScalarField, chi_q: ScalarField, delta_q2: float) -> ScalarField:
    """rho_(q+1)^2 = rho_q^2 (1 - chi_q^2) + delta_(q+2) chi_q^2."""
    c2 = chi_q.values ** 2
    return ScalarField(rho_q.chart,
                       np.sqrt(rho_q.values ** 2 * (1.0 - c2) + delta_q2 * c2))


def _rho_lemma(q: int, rho_q: ScalarField, rho_next: ScalarField, cut: CutoffPair,
               ladder, rho0: ScalarField) -> dict:
    """Node-wise check of the amplitude-recursion lemma at level q, made
    once rho_(q+1) = update_rho(rho_q, cut.chi, delta_(q+2)) is known.

    (i)   (3/2) delta_(q+2)^(1/2) <= rho_q <= 2 delta_(q+1)^(1/2) on supp chi~_q
    (ii)  rho_(q+1) <= rho_q everywhere
    (iii) rho_q strictly below delta_(q+1)^(1/2) forces rho_q = rho_0
          (strict: the recursion pins rho_q = delta_(q+1)^(1/2) exactly on
          saturated regions, where the implication would be vacuous-false)
    (iv)  rho_q >= delta_(q+1)^(1/2) forces chi_q = 1 or dist > r* r_(q+1)
    """
    r1, r2 = math.sqrt(ladder.delta_q(q + 1)), math.sqrt(ladder.delta_q(q + 2))
    on_supp = rho_q.values[cut.chi_tilde.values > 0]
    small = rho_q.values < r1 * (1 - 1e-9)
    big = rho_q.values >= r1 * (1 - 1e-12)
    saturated = cut.chi.values >= 1.0 - 1e-12
    checks = {
        "i_lower": bool(np.all(on_supp >= 1.5 * r2 * (1 - 1e-9))),
        "i_upper": bool(np.all(on_supp <= 2.0 * r1 * (1 + 1e-9))),
        "ii_monotone": bool(np.all(rho_next.values <= rho_q.values + 1e-12)),
        "iii_untouched": bool(np.all(
            np.abs(rho_q.values[small] - rho0.values[small]) <= 1e-12)),
        "iv_saturated_or_far": bool(np.all(saturated[big] | ~cut.inner_tube[big])),
    }
    return {"q": q, **checks, "ok": all(checks.values())}


# ---------------------------------------------------------------------------
# adapted states and the inductive pass

@dataclass(frozen=True)
class AdaptedState:
    """A strongly short immersion with its factorization g - u#e = rho^2 (g+h)
    and the set S it is adapted to, plus the exponent bookkeeping."""

    u: ImmersionField
    rho: ScalarField
    h: MetricField
    s_set: SkeletonSet
    A: float
    theta: float
    alpha: float
    certificate: dict = field(default_factory=dict)
    # u#e where the bootstrap or a pass formed it (never written), else None
    pullback: MetricField | None = field(default=None, init=False, repr=False, compare=False)


def _node_derivatives(u: ImmersionField, rho: ScalarField, h: MetricField):
    """Yield (s, max |D^2 u|, |grad rho|, max_c |grad h_c|) per slab of rows s."""
    slabs = _slabs(u.values)
    for (s, (uxx, uxy, uyy)), (_, (rx, ry)), (_, (hx, hy)) in zip(
            slab_derivatives(u.values, u.chart, ("xx", "xy", "yy"), slabs),
            slab_derivatives(rho.values, u.chart, ("x", "y"), slabs),
            slab_derivatives(h.values, u.chart, ("x", "y"), slabs)):
        hess = np.maximum(np.abs(uxx), np.maximum(np.abs(uxy), np.abs(uyy))).max(axis=-1)
        yield s, hess, np.sqrt(rx * rx + ry * ry), np.sqrt(hx * hx + hy * hy).max(axis=-1)


def _certificate(u: ImmersionField, pb: MetricField, rho: ScalarField, h: MetricField,
                 g: MetricField, log_A: float, theta: float) -> dict:
    """Node-wise checks of an adapted state at exponents (A, theta); pb is u#e.

    The residual of g - u#e = rho^2 (g + h) and shortness are hard facts;
    the strong band -g/2 <= h <= g/2 and the rho-power bounds on D^2 u,
    grad rho (A rho^(1 - 1/theta)) and grad h (A rho^(-1/theta)) are
    recorded.  The bounds compare logs, since A^(b^2) soon leaves float
    range; nodes with rho at or below RHO_FLOOR are skipped, matching the
    off-Sigma scope of the bounds.
    """
    resid = g.values - pb.values - (rho.values ** 2)[..., None] * (g.values + h.values)
    strong = min(MetricField(u.chart, 0.5 * g.values - h.values).spd_band()[0],
                 MetricField(u.chart, 0.5 * g.values + h.values).spd_band()[0])
    out = {
        "factorization_residual": float(np.max(np.abs(resid))),
        "short_min_eig": MetricField(u.chart, g.values - pb.values).spd_band()[0],
        "strong_band_ok": bool(strong >= -1e-9),
        "strong_band_margin": strong,
    }
    mask = rho.values > RHO_FLOOR
    if mask.any() and theta > 0:
        keys = ("hess_u_ok", "grad_rho_ok", "grad_h_ok")
        powers = (1.0 - 1.0 / theta, 1.0 - 1.0 / theta, -1.0 / theta)
        out.update(dict.fromkeys(keys, True))
        for s, *fields in _node_derivatives(u, rho, h):
            m = mask[s]
            log_rho = np.log(rho.values[s][m])
            for key, d, p in zip(keys, fields, powers):
                out[key] &= bool(np.all(
                    np.log(np.maximum(d[m], 1e-300)) <= log_A + p * log_rho + 1e-9))
    return out


def certify_adapted(state: AdaptedState, g: MetricField) -> dict:
    """The certificate of an adapted state at its own exponents (A, theta)."""
    pb = pullback_metric(state.u) if state.pullback is None else state.pullback
    return _certificate(state.u, pb, state.rho, state.h, g, math.log(state.A), state.theta)


@dataclass
class PassConfig:
    table: CorrugationTable


def _stage_reserve(g: MetricField, pb_u: MetricField, amp_sq: np.ndarray, h_t: MetricField):
    """(D, reserve) of a stage that adds rho~^2 (g + h~), amp_sq = rho~^2, to
    u#e = pb_u: D = sup |rho~^2 (g + h~)| over the components and the
    shortness reserve min eig(g - u#e - rho~^2 (g + h~)), in one slab sweep."""
    added_sup, reserve = 0.0, np.inf
    for s in _slabs(g.values):
        added = amp_sq[s][..., None] * (g.values[s] + h_t.values[s])
        added_sup = max(added_sup, float(np.max(np.abs(added))))
        reserve = min(reserve, float(_eigenvalues(g.values[s] - pb_u.values[s] - added)[0].min()))
    return added_sup, reserve


def inductive_pass(state: AdaptedState, sigma: SkeletonSet, schedule: Schedule,
                   ladder: DeskLadder, depth: int, g: MetricField,
                   config: PassConfig, incoming_top: float = 0.0):
    """Run the cut-off / add-metric / amplitude-update loop for q = 0..depth-1.

    Each stage's base frequency and growth K are planned here, against the
    grid ceiling, and add_metric_2d runs that plan; the new state's
    certificate carries the top frequency of its map as "top_frequency".
    Before a stage runs, the stage law (nash_step.predicted_stage_defect)
    predicts its defect, recorded as "predicted_defect"; a stage whose
    shortness reserve lies below (1 - 2 s) times that prediction, s the
    law's scatter, is not run, and the pass truncates ("predicted
    shortness loss").  Shortness, locality and displacement-budget
    failures of a stage that ran roll the iterate back and truncate the
    pass with an explicit reason instead of delivering an aliased state.
    A kept stage is verified by the driver's certificate at the pass
    exponents A^(b^2), theta / b^2 (factorization, shortness, strong band,
    rho-power bounds) and by its level's rho-lemma record.  Returns (new
    state, history, truncation).
    """
    chart = state.u.chart
    hmax = max(chart.spacing)
    ceiling = frequency_ceiling(chart)
    g_lo, g_hi = g.spd_band()
    gamma_g = max(g_hi, 1.0 / g_lo)
    b2 = ladder.b ** 2
    log_a_pass, theta_pass = b2 * math.log(ladder.A), ladder.theta / b2

    u, rho, h, pb_u = state.u, state.rho, state.h, state.pullback
    history, lemma = [], []
    truncation = None
    distances = _skeleton_distances(sigma, state.s_set, chart)

    for q in range(depth):
        d1 = ladder.delta_q(q + 1)
        d2 = ladder.delta_q(q + 2)
        rec = {"q": q, "delta_q1": d1, "delta_q2": d2}

        if math.sqrt(d2) / ladder.lam_q(q + 1) < 2.0 * hmax:
            truncation = {"q": q, "reason": "amplitude floor",
                          "detail": f"stage displacement delta^(1/2)/lam = "
                                    f"{math.sqrt(d2) / ladder.lam_q(q + 1):.3g} "
                                    f"below 2 grid cells"}
            break

        cut = cutoffs(rho, sigma, state.s_set, q, ladder, distances=distances)
        chi, chit = cut.chi, cut.chi_tilde
        rec["cutoff_audit"] = cut.audit

        live = chit.values > 0
        if not live.any():
            lemma.append(_rho_lemma(q, rho, rho, cut, ladder, state.rho))
            rec["active"] = False
            history.append(rec)
            continue
        rec["active"] = True

        rr = rho.values ** 2 - d2
        if float(rr[live].min()) < 1.25 * d2 * (1 - 1e-9):
            raise StepPreconditionError(
                f"q={q}: rho^2 - delta_(q+2) = {rr[live].min():.4g} under the "
                f"(9/4-1) delta floor on supp chi~ (recursion band broken)")

        amp_sq = np.where(chi.values > 0, np.maximum(rr, 0.0) * chi.values ** 2, 0.0)
        rho_t = ScalarField(chart, np.sqrt(amp_sq))
        ratio = np.where(live, rho.values ** 2 / np.where(live, rr, 1.0), 0.0)
        h_t = MetricField(chart, chit.values[..., None] * ratio[..., None] * h.values)
        del rr, ratio  # not read again, and the stage below is the pass's peak

        added_lo = min(float(_eigenvalues(g.values[s] + h_t.values[s])[0][live[s]].min(
            initial=np.inf)) for s in _slabs(g.values))
        if added_lo <= 0:
            truncation = {"q": q, "reason": "added metric lost ellipticity",
                          "detail": f"min eig(g + h~) = {added_lo:.4g}"}
            break

        # nominal corollary scale from the data norms that feed the
        # corrugation directly (|rho~|_1, |u|_2 <= delta^(1/2) lam_nom); its
        # kappa-th power is the data scale the stage's base must clear.  The
        # h smallness bounds do not drive it: an O(1) factorization error h
        # breaks them at any resolvable frequency, and add_metric_2d's
        # ellipticity floor is the guard on h
        delta_eff = min(4.0 * d1, 0.99)
        sd = math.sqrt(delta_eff)
        lam_nom = 1.02 * max(2.0, c1_seminorm(rho_t) / sd, c2_seminorm(u) / sd,
                             (2.0 * gamma_g) ** (1.0 / 0.9))

        # the new corrugation must ride above whatever the map already
        # carries (else its mollification wipes the inherited oscillations)
        # and above the data scale lam_nom^kappa; the growth is planned from
        # the base the stage runs, snapped on the torus
        base = commensurate_base(chart, max(ladder.lam_q(q + 1), 1.3 * incoming_top,
                                            1.05 * lam_nom ** ladder.kappa))
        growth = 0.999 * ceiling / base
        if growth < 2.0:
            truncation = {"q": q, "reason": "frequency ceiling",
                          "detail": f"base {base:.1f} x growth {growth:.2f} "
                                    f"cannot fit the {ceiling:.1f} grid ceiling "
                                    f"(incoming top {incoming_top:.1f}, data scale "
                                    f"{lam_nom:.1f})"}
            break
        kappa_eff = max(ladder.kappa, math.log(base / 1.02) / math.log(max(lam_nom, 2.0)))

        pb_u = pullback_metric(u) if pb_u is None else pb_u
        added_sup, reserve = _stage_reserve(g, pb_u, amp_sq, h_t)
        rec["predicted_defect"] = predicted = predicted_stage_defect(chart, added_sup, growth)
        if reserve < (1.0 - 2.0 * STAGE_LAW_SCATTER) * predicted:
            keeps = (f"from K = {predicted * growth / reserve:.3g}" if reserve > 0
                     else "at no K")
            truncation = {"q": q, "reason": "predicted shortness loss",
                          "detail": f"predicted stage defect {predicted:.4g} at K = "
                                    f"{growth:.3g} against a shortness reserve "
                                    f"{reserve:.4g}; the stage law keeps shortness {keeps}"}
            break

        try:
            out = add_metric_2d(
                u, rho_t, g, h_t, delta_eff, lam_nom, kappa_eff, config.table,
                pb_u=pb_u, base=base, K=growth)
        except (StepPreconditionError, ShortnessLostError, UnderResolvedError) as exc:
            truncation = {"q": q, "reason": "stage failed", "detail": str(exc)}
            break

        v, pb_v = out.v, out.pullback
        rec["defect_sup"] = out.defect_sup
        short_lo = MetricField(chart, g.values - pb_v.values).spd_band()[0]
        if short_lo <= 0:
            truncation = {
                "q": q, "reason": "shortness would be lost",
                "detail": f"min eig(g - v#e) = {short_lo:.4g} at stage "
                          f"defect {out.defect_sup:.4g}; a larger frequency "
                          f"ratio than {growth:.1f} is needed"}
            break

        disp = out.displacement
        disp_budget = DISPLACEMENT_CONSTANT * math.sqrt(d1) / ladder.lam_q(q + 1)
        if disp > disp_budget:
            truncation = {"q": q, "reason": "displacement budget",
                          "detail": f"|u_(q+1) - u_q| = {disp:.4g} over "
                                    f"C delta^(1/2)/lam = {disp_budget:.4g}"}
            break

        rho_next = update_rho(rho, chi, d2)
        h_next_vals = h.values.copy()
        denom = (rho_next.values[live] ** 2)[:, None]
        h_next_vals[live] = (g.values[live] - pb_v.values[live]
                             - denom * g.values[live]) / denom

        # locality: nothing outside supp chi~ may move
        frozen = ~live
        moved_out = float(np.max(np.abs(v.values[frozen] - u.values[frozen]), initial=0.0))
        if moved_out > 1e-13:
            truncation = {"q": q, "reason": "locality violated",
                          "detail": f"update leaked {moved_out:.2e} outside supp chi~"}
            break

        # consistency of the h update with its closed form
        # h' = ((1 - chi^2) rho^2 (g+h) + delta chi^2 g - E) / rho'^2 - g
        e_vals = pb_v.values - pb_u.values - amp_sq[..., None] * (
            g.values + h_t.values)
        pred = (1.0 - chi.values[live] ** 2)[:, None] * (
            (rho.values[live] ** 2)[:, None] * (g.values[live] + h.values[live])) \
            + d2 * (chi.values[live] ** 2)[:, None] * g.values[live] - e_vals[live]
        pred = pred / denom - g.values[live]
        rec["h_update_consistency"] = float(np.max(np.abs(pred - h_next_vals[live])))

        h_next = MetricField(chart, h_next_vals)
        cert = _certificate(v, pb_v, rho_next, h_next, g, log_a_pass, theta_pass)
        rec.update((k, cert[k]) for k in ("factorization_residual", "short_min_eig",
                                          "strong_band_ok"))
        rec["h_sup"] = float(np.max(np.abs(h_next_vals)))
        rec["stage_meta"] = {k: out.meta[k] for k in
                             ("base_frequency", "K", "ell", "support_inflation",
                              "stage_constant", "conformal_residual")}
        rec["displacement"] = disp
        rec["displacement_constant"] = disp * ladder.lam_q(q + 1) / math.sqrt(d1)
        rec["moved_outside"] = moved_out
        rec["rho_bands"] = {"min": float(rho_next.values.min()),
                            "max": float(rho_next.values.max())}

        # rho-power bounds at the pass exponents ((3)_q / (4)_q analogues)
        for key, name in (("cond3_hess_ok", "hess_u_ok"), ("cond3_grad_rho_ok", "grad_rho_ok"),
                          ("cond3_grad_h_ok", "grad_h_ok")):
            if name in cert:
                rec[key] = cert[name]

        if not state.s_set.is_empty:
            on_s = distances[1] <= hmax
            if on_s.any():
                rec["moved_on_S"] = float(np.max(np.abs(v.values[on_s] - u.values[on_s])))

        lemma.append(_rho_lemma(q, rho, rho_next, cut, ladder, state.rho))
        u, rho, h, pb_u = v, rho_next, h_next, pb_v
        incoming_top = base * growth
        history.append(rec)

    if truncation is not None:
        # the stage that truncated is recorded, rolled back
        rec.update(active=False, truncated=True)
        history.append(rec)
    new_state = AdaptedState(
        u, rho, h, sigma,
        A=state.A ** float(schedule.b ** 2),
        theta=float(schedule.theta_prime),
        alpha=float(schedule.alpha_prime),
        certificate={"rho_lemma": lemma, "top_frequency": incoming_top})
    object.__setattr__(new_state, "pullback", pb_u)
    return new_state, history, truncation


def rho_recursion_audit(rho0: ScalarField, sigma: SkeletonSet, s_set: SkeletonSet,
                        ladder: DeskLadder, depth: int):
    """Run the amplitude recursion alone (no corrugation) to any depth.

    The recursion lemma is a statement about rho, chi and the delta ladder
    only, so its node-wise properties can be certified deeper than a grid
    can corrugate.  Returns (rho sequence, per-q lemma records).
    """
    rho_seq, records = [rho0], []
    distances = _skeleton_distances(sigma, s_set, rho0.chart)
    for q in range(depth):
        rho = rho_seq[-1]
        cut = cutoffs(rho, sigma, s_set, q, ladder, distances=distances)
        rho_seq.append(update_rho(rho, cut.chi, ladder.delta_q(q + 2)))
        records.append(_rho_lemma(q, rho, rho_seq[-1], cut, ladder, rho0))
    return rho_seq, records


# ---------------------------------------------------------------------------
# global driver

def run_global(g: MetricField, u0: ImmersionField, theta0, alpha0, a0: float,
               depth: int, table: CorrugationTable,
               skeleta: list[SkeletonSet] | None = None,
               bootstrap_delta_star: float | None = None):
    """Bootstrap, then a pass per skeleton level, with full reporting.

    Returns (final immersion, report).  The report carries the exact
    schedule chain, the per-stage history of every pass, displacement and
    defect accounting, the Hoelder probes, and any truncation certificates.
    """
    chart = u0.chart
    config = PassConfig(table=table)
    skeleta = skeleta if skeleta is not None else [
        SkeletonSet.empty(), SkeletonSet.empty(),
        SkeletonSet(dimension_level=2, whole=True)]

    report: dict = {"passes": [], "schedules": []}

    u_t, pb_t, h_t, delta_star, boot = bootstrap_strong(
        u0, g, a0, table, delta_star=bootstrap_delta_star)
    report["bootstrap"] = boot
    rho0 = ScalarField.constant(chart, math.sqrt(delta_star))

    theta = Fraction(theta0).limit_denominator(10 ** 9)
    alpha = Fraction(alpha0).limit_denominator(10 ** 9)
    state = AdaptedState(u_t, rho0, h_t, SkeletonSet.empty(),
                         A=a0, theta=float(theta), alpha=float(alpha))
    object.__setattr__(state, "pullback", pb_t)

    # exact exponent chain across the planned passes
    theta_j, alpha_j = theta, alpha
    exponent_chain = []
    for _ in skeleta:
        b_j = growth_exponent(theta_j, alpha_j, 2)
        exponent_chain.append((theta_j, alpha_j))
        theta_j, alpha_j = theta_j / b_j ** 2, alpha_j / (2 * b_j ** 2)
    probe_theta = 0.9 * float(theta_j)

    probes = [holder_seminorm(state.u, probe_theta, deriv_order=1)]

    total_disp = float(boot.get("u_moved", 0.0))
    current_top = float(boot.get("top_frequency", 0.0))
    for level, sigma in enumerate(skeleta):
        theta_p, alpha_p = exponent_chain[level]
        delta1 = float(np.max(state.rho.values) ** 2)
        sched = plan_schedule(state.A, theta_p, alpha_p, delta1, depth)
        report["schedules"].append({
            "level": level, "A_exact_ladder": sched.A, "A_executed": state.A,
            "b": str(sched.b), "theta": str(theta_p), "alpha": str(alpha_p),
            "lam1_exact": sched.lam_q(1),
            "exact_ladder_resolvable": sched.lam_q(1) <= frequency_ceiling(chart),
        })
        if sigma.is_empty:
            report["passes"].append({"level": level, "skipped": "empty skeleton"})
            continue
        ladder = desk_ladder(sched, delta1, chart, depth)
        prev_u = state.u
        state, history, truncation = inductive_pass(
            state, sigma, sched, ladder, depth, g, config,
            incoming_top=current_top)
        current_top = state.certificate["top_frequency"]
        # a pass that kept no stage hands back the same immersion object
        if state.u is prev_u:
            pass_disp = 0.0
            probes.append(probes[-1])
        else:
            pass_disp = float(np.max(np.linalg.norm(state.u.values - prev_u.values, axis=-1)))
            probes.append(holder_seminorm(state.u, probe_theta, deriv_order=1))
        total_disp += pass_disp
        report["passes"].append({
            "level": level, "stages": history, "truncation": truncation,
            "displacement": pass_disp,
            "rho_lemma": state.certificate["rho_lemma"],
        })

    defect = np.abs(g.values - state.pullback.values)
    g_scale = float(np.max(np.abs(g.values)))
    certificate = certify_adapted(state, g)
    report["final"] = {
        "defect_sup": float(defect.max()),
        "defect_relative": float(defect.max()) / g_scale,
        "rho_max": float(state.rho.values.max()),
        "rho_min": float(state.rho.values.min()),
        "displacement_total": total_disp,
        "displacement_budget": a0 ** -0.5,
        "short_min_eig": certificate["short_min_eig"],
        "holder_probe_theta": probe_theta,
        "holder_probes": probes,
        "certificate": certificate,
    }
    return state, report

