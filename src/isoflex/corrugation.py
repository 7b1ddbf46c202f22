"""Corrugation pair (Gamma_1, Gamma_2) with certified derivative behavior.

The construction is the classical loop recipe: the oscillation amplitude
a(s) solves J0(a) = (1+s^2)^(-1/2) (J0 the order-zero Bessel function), and

    Gamma_1(s,t) = int_0^t [sqrt(1+s^2) cos(a(s) cos r) - 1] dr
    Gamma_2(s,t) = int_0^t  sqrt(1+s^2) sin(a(s) cos r)      dr

Then (1 + dt Gamma_1)^2 + (dt Gamma_2)^2 = 1 + s^2 holds pointwise by
construction.  By Jacobi-Anger both integrals are sine series in t with
Bessel coefficients J_k(a):

    Gamma_1 = sqrt(1+s^2) sum_{k even >= 2} 2 (-1)^(k/2)     J_k(a) sin(kt)/k
    Gamma_2 = sqrt(1+s^2) sum_{k odd}       2 (-1)^((k-1)/2) J_k(a) sin(kt)/k

so both are 2pi-periodic in t.  The series for Gamma_1 leaves out its
secular term (sqrt(1+s^2) J0(a) - 1) t, which the J0 normalization makes
vanish up to the rounding of the root-solve (the recorded period defect).

Only a(s) is sampled, as a 1-D profile read back by cubic interpolation.
At each query point the J_k(a) come from a downward ratio recurrence
normalized by J0 + 2 sum J_2m = 1, and sin(kt) from the Chebyshev
recurrence.  For s <= 1, a < 1.13, where J_k decays faster than
geometrically, so a fixed top order of 16 is exact in float64.  The
root-solve for a(s) and the period defect read the J0 of that same
recurrence, so the table needs no other Bessel function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

J0_FIRST_ZERO = 2.404825557695773
_TOP_ORDER = 16      # J_16(a) < 1e-17 for every a(s) with s <= 1 (a < 1.13)
_BLOCK = 1 << 15     # points per block of the series evaluation

_WHICH = ("g1", "g2", "dt_g1", "dt_g2")


class CorrugationDomainError(ValueError):
    """Amplitude argument outside the table's certified s-range."""


def invert_j0(target, tol: float = 1e-13):
    """Solve J0(a) = target on [0, first zero] by bisection.

    J0 decreases from 1 to 0 there, so any target in (0, 1] brackets.  J0
    is the row of the series' ratio recurrence, within 6e-16 of the true
    J0 on the whole bracket.
    """
    # at least 1-D: _bessel_coefficients writes its rows through out=
    t = np.atleast_1d(np.asarray(target, dtype=float))
    if np.any(t > 1.0 + 1e-15) or np.any(t <= 0.0):
        raise ValueError("invert_j0 target must lie in (0, 1]")
    lo = np.zeros_like(t)
    hi = np.full_like(t, J0_FIRST_ZERO)
    # ~46 halvings push the bracket width below 1e-13
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        high_side = _bessel_coefficients(mid)[0] > t
        lo = np.where(high_side, mid, lo)
        hi = np.where(high_side, hi, mid)
        if np.max(hi - lo) < tol:
            break
    out = 0.5 * (lo + hi)
    return np.where(t >= 1.0, 0.0, out).reshape(np.shape(target))


def _bessel_coefficients(alpha):
    """J_0(alpha), ..., J_top(alpha), stacked along a new first axis."""
    # ratios J_k/J_{k-1} = a/(2k - a J_{k+1}/J_k), downward from J_{top+1} = 0;
    # their running products are J_k/J_0, scaled by J_0 + 2 sum J_2m = 1
    out = np.empty((_TOP_ORDER + 1,) + alpha.shape)
    r = 0.0
    for k in range(_TOP_ORDER, 0, -1):
        r = np.divide(alpha, 2 * k - alpha * r, out=out[k])
    out[0] = 1.0
    for k in range(1, _TOP_ORDER + 1):
        out[k] *= out[k - 1]
    out *= 1.0 / (1.0 + 2.0 * out[2::2].sum(axis=0))
    return out


def _sine_series(alpha, t, parities):
    """Per flag in parities, sum over odd (else even) k >= 1 of
    2 (-1)^(k//2) J_k(alpha) sin(kt)/k, sharing J_k and the sines of t."""
    jk = _bessel_coefficients(alpha)
    # sin(kt) of one parity by the Chebyshev recurrence in 2t,
    # sin((k+2)t) = 2cos(2t) sin(kt) - sin((k-2)t), with sin t and cos t
    # from one transcendental call through the half-angle tangent
    tan_half = np.tan(0.5 * t)
    inv = 1.0 / (1.0 + tan_half * tan_half)
    sin_t = 2.0 * tan_half * inv
    two_cos_2t = 2.0 - 4.0 * sin_t * sin_t
    for odd in parities:
        sin_prev, sin_k = ((-sin_t, sin_t) if odd else
                           (np.zeros_like(t), 2.0 * sin_t * (1.0 - tan_half * tan_half) * inv))
        acc = np.zeros_like(alpha)
        for k in range(2 - odd, _TOP_ORDER + 1, 2):
            acc += (2.0 * (-1) ** (k // 2) / k) * jk[k] * sin_k
            sin_prev, sin_k = sin_k, two_cos_2t * sin_k - sin_prev
        yield acc


@dataclass(frozen=True)
class CorrugationTable:
    """Corrugation pair from its sine series over a sampled amplitude profile.

    The profile carries one hidden guard row above s_max so cubic
    interpolation keeps full order on the whole certified range [0, s_max];
    below s = 0 the odd symmetry of a(s) supplies exact ghost rows.
    """

    s_max: float
    s_vals: np.ndarray          # (S+1,), last row is the hidden guard
    amplitude_profile: np.ndarray  # alpha(s), (S+1,), last row is the guard
    metadata: dict = field(default_factory=dict)

    @property
    def s_samples(self) -> int:
        return len(self.s_vals) - 1

    def _interp_alpha(self, s):
        """Cubic (Catmull-Rom) interpolation of the (odd) amplitude profile."""
        hs = self.s_vals[1] - self.s_vals[0]
        ps = np.asarray(s, dtype=float) / hs
        # s = s_max sits on the last certified row: step back one interval
        # (u = 1 on that row) so the stencil stops at the guard row
        i0 = np.minimum(ps.astype(int), self.s_samples - 2)
        u = ps - i0
        # a(s) is odd, so the ghost node below s = 0 is -a(hs)
        p = np.concatenate(([-self.amplitude_profile[1]], self.amplitude_profile))
        p0, p1, p2, p3 = p[:-3], p[1:-2], p[2:-1], p[3:]
        c1 = 0.5 * (p2 - p0)
        c2 = p0 - 2.5 * p1 + 2.0 * p2 - 0.5 * p3
        c3 = 1.5 * (p1 - p2) + 0.5 * (p3 - p0)
        return p1[i0] + u * (c1[i0] + u * (c2[i0] + u * c3[i0]))

    def check_amplitude(self, s):
        """Raise CorrugationDomainError unless every s lies in [0, s_max].

        Tiny negative rounding passes (eval clamps it); nan is refused; the
        message quotes the largest s.
        """
        if not np.all(s <= self.s_max * (1 + 1e-12) + 1e-300):
            if np.isnan(s).any():
                raise CorrugationDomainError("corrugation amplitude is nan")
            raise CorrugationDomainError(
                f"amplitude {float(np.max(s)):.6g} exceeds table s_max={self.s_max:.6g}; "
                "build a larger table or lower the step amplitude")
        if np.any(s < -1e-12):
            raise CorrugationDomainError("negative corrugation amplitude")

    def eval(self, s, t, which):
        """Gamma or its t-derivative at (s, t), broadcast; t is any real.

        s must lie in [0, s_max] (tiny negative rounding is clamped);
        anything above s_max is outside the certified construction and is
        rejected rather than clamped.  which = ("g1", "g2") returns both
        from one evaluation of a(s), the Bessel rows and the sines of t.
        """
        pair = not isinstance(which, str)
        names = tuple(which) if pair else (which,)
        if not names or not set(names) <= set(_WHICH[:2] if pair else _WHICH):
            raise ValueError(f"unknown table {which!r}; expected one of {_WHICH}")
        s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
        self.check_amplitude(s)
        s = np.clip(s, 0.0, self.s_max)
        if names[0] in ("dt_g1", "dt_g2"):
            # these are closed forms in t given the amplitude profile; going
            # through alpha keeps the defining identity exact to rounding at
            # every query point (it holds for any alpha value)
            alpha = self._interp_alpha(s)
            root = np.sqrt(1.0 + s * s)
            phase = alpha * np.cos(t)
            out = root * np.cos(phase) - 1.0 if which == "dt_g1" else root * np.sin(phase)
            return out if np.ndim(out) else float(out)
        shape = np.broadcast(s, t).shape
        s, t = (np.broadcast_to(a, shape).ravel() for a in (s, t))
        outs = [np.empty(s.size) for _ in names]
        for i in range(0, s.size, _BLOCK):
            sb, tb = s[i:i + _BLOCK], t[i:i + _BLOCK]
            root = np.sqrt(1.0 + sb * sb)
            sums = _sine_series(self._interp_alpha(sb), tb, [n == "g2" for n in names])
            for out, acc in zip(outs, sums):
                out[i:i + _BLOCK] = root * acc
        outs = [out.reshape(shape) if shape else float(out[0]) for out in outs]
        return tuple(outs) if pair else outs[0]

    def identity_residual(self, s, t):
        """|(1 + dt G1)^2 + (dt G2)^2 - (1 + s^2)| at interpolated points."""
        d1 = self.eval(s, t, "dt_g1")
        d2 = self.eval(s, t, "dt_g2")
        return np.abs((1.0 + d1) ** 2 + d2 ** 2 - (1.0 + np.asarray(s) ** 2))


def build_corrugation(s_max: float = 1.0, s_samples: int = 256) -> CorrugationTable:
    """Sample the amplitude profile a(s) on [0, s_max] plus one guard row."""
    if not (0.0 < s_max <= 1.0):
        raise ValueError("s_max must lie in (0, 1]")
    if s_samples < 64:
        raise ValueError("need at least 64 amplitude samples")

    hs = s_max / (s_samples - 1)
    s_all = np.arange(s_samples + 1) * hs  # one hidden guard row
    root = np.sqrt(1.0 + s_all ** 2)
    alpha = invert_j0(1.0 / root)
    alpha[0] = 0.0
    # the secular drift of Gamma_1 over one period, which the series omits
    j0 = _bessel_coefficients(alpha)[0]
    period_defect = float(2.0 * np.pi * np.max(np.abs(root * j0 - 1.0)))
    return CorrugationTable(s_max, s_all, alpha, {"period_defect": period_defect})
