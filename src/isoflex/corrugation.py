"""Corrugation pair (Gamma_1, Gamma_2) with certified derivative behavior.

The construction is the classical loop recipe: the oscillation amplitude
a(s) solves J0(a) = (1+s^2)^(-1/2) (J0 the order-zero Bessel function), and

    Gamma_1(s,t) = int_0^t [sqrt(1+s^2) cos(a(s) cos r) - 1] dr
    Gamma_2(s,t) = int_0^t  sqrt(1+s^2) sin(a(s) cos r)      dr

Then (1 + dt Gamma_1)^2 + (dt Gamma_2)^2 = 1 + s^2 holds pointwise by
construction, Gamma_2 is 2pi-periodic in t because sin(a cos r) integrates
to zero over a period by symmetry, and Gamma_1 is periodic by the J0
normalization (the t-average of its integrand vanishes).

Bessel functions are evaluated by their power series; only arguments below
the first J0 zero (~2.405) ever occur, where the series is exact to machine
precision in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_simpson

J0_FIRST_ZERO = 2.404825557695773
_SERIES_TERMS = 40
_SERIES_DOMAIN = 12.0

_WHICH = ("g1", "g2", "dt_g1", "dt_g2")


class CorrugationDomainError(ValueError):
    """Amplitude argument outside the table's certified s-range."""


def bessel_j0(x):
    """Power-series J0; valid to machine precision for |x| <= 12."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > _SERIES_DOMAIN):
        raise ValueError("bessel_j0 series evaluated outside |x| <= 12")
    q = -0.25 * x * x
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for k in range(1, _SERIES_TERMS):
        term = term * q / (k * k)
        acc = acc + term
    return acc


def bessel_j1(x):
    """Power-series J1; valid to machine precision for |x| <= 12."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > _SERIES_DOMAIN):
        raise ValueError("bessel_j1 series evaluated outside |x| <= 12")
    q = -0.25 * x * x
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for k in range(1, _SERIES_TERMS):
        term = term * q / (k * (k + 1))
        acc = acc + term
    return 0.5 * x * acc


def invert_j0(target, tol: float = 1e-13):
    """Solve J0(a) = target on [0, first zero] by bisection.

    J0 decreases from 1 to 0 there, so any target in (0, 1] brackets.
    """
    t = np.asarray(target, dtype=float)
    if np.any(t > 1.0 + 1e-15) or np.any(t <= 0.0):
        raise ValueError("invert_j0 target must lie in (0, 1]")
    lo = np.zeros_like(t)
    hi = np.full_like(t, J0_FIRST_ZERO)
    # ~46 halvings push the bracket width below 1e-13
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        high_side = bessel_j0(mid) > t
        lo = np.where(high_side, mid, lo)
        hi = np.where(high_side, hi, mid)
        if np.max(hi - lo) < tol:
            break
    out = 0.5 * (lo + hi)
    return np.where(t >= 1.0, 0.0, out)


def _alpha_prime(s, alpha):
    """da/ds from implicit differentiation of J0(a) = (1+s^2)^(-1/2)."""
    s = np.asarray(s, dtype=float)
    out = np.full_like(s, np.sqrt(2.0))
    big = s > 1e-6
    if np.any(big):
        sb = s[big]
        out[big] = sb * (1.0 + sb * sb) ** -1.5 / bessel_j1(alpha[big])
    return out


def _catmull_rom_weights(u):
    u2 = u * u
    u3 = u2 * u
    return (0.5 * (-u3 + 2 * u2 - u),
            0.5 * (3 * u3 - 5 * u2 + 2),
            0.5 * (-3 * u3 + 4 * u2 + u),
            0.5 * (u3 - u2))


@dataclass(frozen=True)
class CorrugationTable:
    """Sampled corrugation pair with analytic t-derivatives.

    Only Gamma_1 and Gamma_2 are tabulated; their t-derivatives are closed
    forms in the amplitude profile.  Arrays carry one hidden guard row above
    s_max so cubic interpolation keeps full order on the whole certified
    range [0, s_max]; below s = 0 the even/odd symmetry of the construction
    supplies exact ghost rows.
    """

    s_max: float
    s_vals: np.ndarray          # (S+1,), last row is the hidden guard
    t_vals: np.ndarray          # (T,), [0, 2pi) uniform
    tables: dict                # "g1", "g2" -> (S+1, T) array
    amplitude_profile: np.ndarray  # alpha(s), (S+1,), last row is the guard
    metadata: dict = field(default_factory=dict)

    @property
    def s_samples(self) -> int:
        return len(self.s_vals) - 1

    @property
    def t_samples(self) -> int:
        return len(self.t_vals)

    def _interp_alpha(self, s):
        """Cubic interpolation of the (odd) amplitude profile."""
        hs = self.s_vals[1] - self.s_vals[0]
        ps = np.asarray(s, dtype=float) / hs
        i0 = np.minimum(ps.astype(int), self.s_samples - 2)
        ws = _catmull_rom_weights(ps - i0)
        out = np.zeros_like(ps)
        for a in range(4):
            si = i0 + (a - 1)
            sign = np.where(si < 0, -1.0, 1.0)
            out = out + ws[a] * sign * self.amplitude_profile[np.abs(si)]
        return out

    def eval(self, s, t, which: str):
        """Bicubic (Catmull-Rom) interpolation; t wraps mod 2pi.

        s must lie in [0, s_max] (tiny negative rounding is clamped);
        anything above s_max is outside the certified construction and is
        rejected rather than clamped.
        """
        if which not in _WHICH:
            raise ValueError(f"unknown table {which!r}; expected one of {_WHICH}")
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        if np.any(s > self.s_max * (1 + 1e-12) + 1e-300):
            raise CorrugationDomainError(
                f"amplitude {float(np.max(s)):.6g} exceeds table s_max={self.s_max:.6g}; "
                "build a larger table or lower the step amplitude")
        if np.any(s < -1e-12):
            raise CorrugationDomainError("negative corrugation amplitude")
        s = np.clip(s, 0.0, self.s_max)
        if which in ("dt_g1", "dt_g2"):
            # these are closed forms in t given the amplitude profile; going
            # through alpha keeps the defining identity exact to rounding at
            # every query point (it holds for any alpha value)
            alpha = self._interp_alpha(s)
            root = np.sqrt(1.0 + s * s)
            phase = alpha * np.cos(t)
            out = root * np.cos(phase) - 1.0 if which == "dt_g1" else root * np.sin(phase)
            return out if np.ndim(out) else float(out)
        tab = self.tables[which]
        # alpha(s) continues smoothly through 0 as an odd function, fixing
        # the parity of every table in s
        odd_in_s = which == "g2"

        hs = self.s_vals[1] - self.s_vals[0]
        ps = s / hs
        # s = s_max sits on the last certified row: step back one interval
        # (weight 1 on that row) so the stencil stops at the guard row
        i0 = np.minimum(ps.astype(int), self.s_samples - 2)
        fs = ps - i0
        ws = _catmull_rom_weights(fs)

        ht = self.t_vals[1] - self.t_vals[0]
        pt = np.mod(t, 2.0 * np.pi) / ht
        j0 = pt.astype(int) % self.t_samples
        ft = pt - pt.astype(int)
        wt = _catmull_rom_weights(ft)

        out = np.zeros(np.broadcast(s, t).shape)
        for a in range(4):
            si = i0 + (a - 1)
            sign = np.where(si < 0, -1.0, 1.0) if odd_in_s else 1.0
            si = np.abs(si)  # even/odd reflection below s=0 is exact
            row = np.zeros_like(out)
            for b in range(4):
                tj = (j0 + (b - 1)) % self.t_samples
                row = row + wt[b] * tab[si, tj]
            out = out + ws[a] * sign * row
        return out if out.shape else float(out)

    def identity_residual(self, s, t):
        """|(1 + dt G1)^2 + (dt G2)^2 - (1 + s^2)| at interpolated points."""
        d1 = self.eval(s, t, "dt_g1")
        d2 = self.eval(s, t, "dt_g2")
        return np.abs((1.0 + d1) ** 2 + d2 ** 2 - (1.0 + np.asarray(s) ** 2))


def build_corrugation(s_max: float = 1.0, s_samples: int = 256,
                      t_samples: int = 2048) -> CorrugationTable:
    """Build the corrugation table on [0, s_max] x [0, 2pi)."""
    if not (0.0 < s_max <= 1.0):
        raise ValueError("s_max must lie in (0, 1]")
    if min(s_samples, t_samples) < 64:
        raise ValueError("need at least 64 samples per axis")

    hs = s_max / (s_samples - 1)
    s_all = np.arange(s_samples + 1) * hs  # one hidden guard row
    t = np.linspace(0.0, 2.0 * np.pi, t_samples, endpoint=False)
    t_ext = np.append(t, 2.0 * np.pi)  # quadrature runs over the closed period

    root = np.sqrt(1.0 + s_all ** 2)
    alpha = invert_j0(1.0 / root)
    alpha[0] = 0.0
    aprime = _alpha_prime(s_all, alpha)

    ct = np.cos(t_ext)[None, :]
    a = alpha[:, None]
    rt = root[:, None]
    cosc = np.cos(a * ct)
    sinc = np.sin(a * ct)

    f1 = rt * cosc - 1.0          # dt Gamma_1
    f2 = rt * sinc                # dt Gamma_2
    g1 = cumulative_simpson(f1, x=t_ext, axis=1, initial=0.0)
    g2 = cumulative_simpson(f2, x=t_ext, axis=1, initial=0.0)

    period_defect = float(max(np.max(np.abs(g1[:, -1])), np.max(np.abs(g2[:, -1]))))
    tables = {"g1": g1[:, :-1], "g2": g2[:, :-1]}
    # the s=0 row vanishes identically in exact arithmetic; pin it
    for tab in tables.values():
        tab[0, :] = 0.0

    vis = slice(1, s_samples)  # rows with s > 0, excluding the guard
    svis = s_all[vis, None]
    # ds dt Gamma_1, the integrand of the s-derivative of Gamma_1
    dsdt1 = (s_all / root)[:, None] * cosc - rt * sinc * aprime[:, None] * ct
    metadata = {
        "period_defect": period_defect,
        "identity_residual": float(np.max(np.abs(
            (1.0 + f1) ** 2 + f2 ** 2 - (1.0 + s_all[:, None] ** 2)))),
        "C_dt_g1": float(np.max(np.abs(f1[vis, :-1]) / svis ** 2)),
        "C_dt_g2": float(np.max(np.abs(f2[vis, :-1]) / svis)),
        "C_dsdt_g1": float(np.max(np.abs(dsdt1[vis, :-1]) / svis)),
    }
    return CorrugationTable(s_max, s_all, t, tables, alpha, metadata)
