"""Radial multiplier weights with analytic derivative stacks through order 4.

Two families ship:

* soft-abs: psi(r) = sqrt(eps^2 + r^2), the smoothed |x| multiplier.
* bump-weight: psi''(r) = h_k(r) where h_k = 1 on [0, 1], drops to 0 across
  the band [1, 1+1/k] through a fixed smooth transition, and psi is the
  second antiderivative with psi(0) = psi'(0) = 0.  The weight is exactly
  r^2/2 in the core and exactly affine past the band, so its slope at
  infinity is 1 + (1/k) int_0^1 q.

The transition profile is q(s) = B(1-s)/(B(s)+B(1-s)) with B(s)=exp(-1/s)
for s > 0 and 0 otherwise: all derivatives vanish at both band endpoints,
making h_k genuinely smooth.  The antiderivatives of q over the band are
precomputed data: q is interpolated by a Chebyshev series on each of 32
panels of [0, 1], and each series is integrated twice exactly, once at
import (Trefethen, Approximation Theory and Approximation Practice).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .errors import InvalidParameterError, OriginError
from .model import RadialWeight


# ---------------------------------------------------------------------------
# the transition bump q and its derivatives
# ---------------------------------------------------------------------------

def bump_transition(s, order: int = 0):
    """q(s) = B(1-s)/(B(s)+B(1-s)) for order 0, q'(s) for 1, q''(s) for 2.

    q is 1 for s <= 0 and 0 for s >= 1, so q' and q'' vanish there.  With
    D = B(s)+B(1-s), P = B'(1-s)B(s) + B(1-s)B'(s) and D' = B'(s) - B'(1-s):

        q'  = -P/D^2,
        q'' = (B''(1-s)B(s) - B(1-s)B''(s))/D^2 + 2 P D'/D^3,

    where B' = B/s^2 and B'' = B(1-2s)/s^4 on s > 0.  Where B underflows
    to 0, so do B' and B'', even when the power of s underflows too.  A NaN
    argument gives NaN.
    """
    s = np.asarray(s, dtype=float)
    sv = np.atleast_1d(s)
    out = np.where(np.isnan(sv), np.nan, 0.0)
    if order == 0:
        out[sv <= 0.0] = 1.0
    mid = (sv > 0.0) & (sv < 1.0)
    x, u = sv[mid], 1.0 - sv[mid]

    def scaled(B, t, num, power):
        return np.divide(B * num, t**power, out=np.zeros_like(t), where=B > 0.0)

    with np.errstate(over="ignore", under="ignore"):
        Bs, Bu = np.exp(-1.0 / x), np.exp(-1.0 / u)
        D = Bs + Bu  # >= 2 e^{-2} on (0, 1)
        if order == 0:
            out[mid] = Bu / D
        else:
            B1s, B1u = scaled(Bs, x, 1.0, 2), scaled(Bu, u, 1.0, 2)
            P = B1u * Bs + Bu * B1s
            if order == 1:
                out[mid] = -P / D**2
            else:
                B2s = scaled(Bs, x, 1.0 - 2.0 * x, 4)
                B2u = scaled(Bu, u, 1.0 - 2.0 * u, 4)
                out[mid] = (B2u * Bs - Bu * B2s) / D**2 + 2.0 * P * (B1s - B1u) / D**3
    return out.reshape(s.shape)


# ---------------------------------------------------------------------------
# antiderivatives of q over [0, 1], tabulated at import
# ---------------------------------------------------------------------------

_PANELS = 32
_DEGREE = 40


@dataclass(frozen=True, eq=False)
class BumpAntiderivatives:
    """Q(s) = int_0^s q and Q2(s) = int_0^s Q as piecewise Chebyshev series.

    Column p of Q_coef and Q2_coef holds the series on panel
    [p, p+1]/_PANELS in the local variable x = 2(_PANELS s - p) - 1.  Both
    extend naturally outside [0, 1]: q = 1 to the left and 0 to the right,
    so Q(s) = s for s <= 0, Q(s) = Q(1) for s >= 1, and Q2 follows.  With
    that extension the band formulas for the weight are valid on all of
    [0, inf) and match the exact core/tail closed forms.
    """

    Q_coef: np.ndarray
    Q2_coef: np.ndarray
    q_total: float  # Q(1)
    Q2_total: float  # Q2(1)

    @staticmethod
    def build() -> "BumpAntiderivatives":
        half = 0.5 / _PANELS
        mids = (np.arange(_PANELS) + 0.5) / _PANELS
        coef = np.stack([
            chebyshev.chebinterpolate(lambda x, m=m: bump_transition(m + half * x),
                                      _DEGREE)
            for m in mids
        ], axis=1)

        def integrate(c):
            # each panel's exact integral from its left edge, plus the
            # integral over all panels to its left
            c = chebyshev.chebint(c, lbnd=-1.0, scl=half)
            ends = np.cumsum(chebyshev.chebval(1.0, c))
            c[0] += np.concatenate([[0.0], ends[:-1]])
            c.setflags(write=False)
            return c, float(ends[-1])

        Q_coef, q_total = integrate(coef)
        Q2_coef, Q2_total = integrate(Q_coef)
        return BumpAntiderivatives(Q_coef, Q2_coef, q_total, Q2_total)

    @staticmethod
    def _eval(coef, s):
        t = np.clip(s, 0.0, 1.0) * _PANELS
        # a NaN s reads panel 0 and stays NaN
        p = np.minimum(np.nan_to_num(t).astype(int), _PANELS - 1)
        return chebyshev.chebval(2.0 * (t - p) - 1.0, coef[:, p], tensor=False)

    def Q(self, s):
        """int_0^s q with the natural extension outside [0, 1]."""
        s = np.asarray(s, dtype=float)
        return np.where(s <= 0.0, s, np.where(s >= 1.0, self.q_total,
                                              self._eval(self.Q_coef, s)))

    def Q2(self, s):
        """int_0^s Q with the natural extension outside [0, 1]."""
        s = np.asarray(s, dtype=float)
        return np.where(s <= 0.0, 0.5 * s**2,
                        np.where(s >= 1.0, self.Q2_total + self.q_total * (s - 1.0),
                                 self._eval(self.Q2_coef, s)))


_BUMP_TABLES = BumpAntiderivatives.build()


# ---------------------------------------------------------------------------
# shipped weight families
# ---------------------------------------------------------------------------

def make_psi_eps(eps: float) -> RadialWeight:
    """psi(r) = sqrt(eps^2 + r^2): smooth |x| with curvature scale eps."""
    eps = float(eps)
    if not eps > 0:
        raise InvalidParameterError(f"eps must be positive, got {eps}")
    e2 = eps * eps

    def d0(r):
        r = np.asarray(r, dtype=float)
        return np.sqrt(e2 + r * r)

    def d1(r):
        r = np.asarray(r, dtype=float)
        return r / np.sqrt(e2 + r * r)

    def d2(r):
        r = np.asarray(r, dtype=float)
        return e2 / (e2 + r * r) ** 1.5

    def d3(r):
        r = np.asarray(r, dtype=float)
        return -3.0 * e2 * r / (e2 + r * r) ** 2.5

    def d4(r):
        r = np.asarray(r, dtype=float)
        return 3.0 * e2 * (4.0 * r * r - e2) / (e2 + r * r) ** 3.5

    return RadialWeight(d0, d1, d2, d3, d4, slope_inf=1.0,
                        label=f"soft-abs-eps{eps:g}", knots=(eps, 3.0 * eps))


def make_psi_k(k: int) -> RadialWeight:
    """Second antiderivative of the bump h_k, quadratic core, affine tail.

    psi'' = h_k is 1 on [0, 1], drops smoothly across [1, 1+1/k] and is 0
    beyond; every derivative accepts any real r and uses |r| (h_k is even).
    """
    if int(k) < 1:
        raise InvalidParameterError(f"bump steepness k must be >= 1, got {k}")
    k = int(k)
    tab = _BUMP_TABLES
    kk = float(k)
    outer = (k + 1.0) / k
    slope = 1.0 + tab.q_total / kk
    # psi(r >= outer) = slope*r - offset: the band formula with
    # Q2(s) = Q2(1) + Q(1)(s - 1)
    offset = 0.5 + tab.q_total / kk + (tab.q_total - tab.Q2_total) / kk**2

    def d0(r):
        r = np.asarray(r, dtype=float)
        a = np.atleast_1d(np.abs(r))
        out = np.empty_like(a)
        core = a <= 1.0
        tail = a >= outer
        band = ~core & ~tail
        out[core] = 0.5 * a[core] ** 2
        out[tail] = slope * a[tail] - offset
        ab = a[band]
        out[band] = 0.5 + (ab - 1.0) + tab.Q2(kk * (ab - 1.0)) / kk**2
        return out.reshape(r.shape)

    def d1(r):
        r = np.asarray(r, dtype=float)
        a = np.atleast_1d(np.abs(r))
        out = np.empty_like(a)
        core = a <= 1.0
        tail = a >= outer
        band = ~core & ~tail
        out[core] = a[core]
        out[tail] = slope
        out[band] = 1.0 + tab.Q(kk * (a[band] - 1.0)) / kk
        # psi' is odd; sign(0) = 0 gives the correct psi'(0) = 0
        return (out * np.sign(np.atleast_1d(r))).reshape(r.shape)

    def d2(r):
        return bump_transition(k * (np.abs(np.asarray(r, dtype=float)) - 1.0))

    def d3(r):
        r = np.asarray(r, dtype=float)
        return k * bump_transition(k * (np.abs(r) - 1.0), 1) * np.sign(r)

    def d4(r):
        r = np.asarray(r, dtype=float)
        return k**2 * bump_transition(k * (np.abs(r) - 1.0), 2)

    return RadialWeight(d0, d1, d2, d3, d4, slope_inf=slope,
                        label=f"bump-k{k}", knots=(1.0, outer))


def constant_weight(value: float = 1.0) -> RadialWeight:
    """psi = const: every derivative term vanishes; slope at infinity 0."""
    value = float(value)

    def d0(r):
        return np.full_like(np.asarray(r, dtype=float), value)

    def zero(r):
        return np.zeros_like(np.asarray(r, dtype=float))

    return RadialWeight(d0, zero, zero, zero, zero, slope_inf=0.0,
                        label=f"constant{value:g}")


def rescale(w: RadialWeight, R: float) -> RadialWeight:
    """psi_R(r) = R psi(r/R): derivative orders j scale by R^(1-j)."""
    R = float(R)
    if not R > 0:
        raise InvalidParameterError(f"rescale factor must be positive, got {R}")

    def make(j, base):
        scale = R ** (1 - j)

        def dj(r):
            return scale * base(np.asarray(r, dtype=float) / R)

        return dj

    return RadialWeight(
        make(0, w.d0), make(1, w.d1), make(2, w.d2), make(3, w.d3), make(4, w.d4),
        slope_inf=w.slope_inf,
        label=f"{w.label}-R{R:g}",
        knots=tuple(R * kn for kn in w.knots),
    )


# ---------------------------------------------------------------------------
# radial Laplacians
# ---------------------------------------------------------------------------

def radial_laplacians(w: RadialWeight, r, n: int):
    """(Lap psi, Lap^2 psi) at radii r > 0 in dimension n.

    Lap psi = psi'' + (n-1) psi'/r and

    Lap^2 psi = psi'''' + 2(n-1) psi'''/r + (n-1)(n-3)(psi'' - psi'/r)/r^2.

    The grouped difference (psi'' - psi'/r) is O(r^2) near the origin, so
    this form avoids the cancellation the split 1/r^2, 1/r^3 terms suffer.
    An affine tail (psi'' = 0, psi' = slope) gives Lap^2 =
    -(n-1)(n-3) slope/r^3: zero for n = 1 and 3, slope/r^3 for n = 2.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise OriginError("radial Laplacians are singular at r = 0")
    d1, d2, d3, d4 = w.d1(r), w.d2(r), w.d3(r), w.d4(r)
    lap = d2 + (n - 1) * d1 / r
    bilap = d4 + 2.0 * (n - 1) * d3 / r + (n - 1) * (n - 3) * (d2 - d1 / r) / r**2
    return lap, bilap


def derivative_stack_check(w: RadialWeight) -> dict:
    """Scale-relative central-difference error of d^j vs d^(j-1), j = 1..4.

    The differences use step h = 1e-4 at 200 log-spaced radii in
    [0.01, 50].  Error for order j is max_r |fd - d^j(r)| / max_r |d^j(r)|:
    relative to the lattice-wide scale of that derivative order, since
    pointwise relative error is ill-posed where d^j vanishes identically
    (weight tails) or underflows at flat transition endpoints.
    """
    radii = np.geomspace(0.01, 50.0, 200)
    h = 1e-4
    errs = {}
    stack = [w.d0, w.d1, w.d2, w.d3, w.d4]
    for j in range(1, 5):
        fd = (stack[j - 1](radii + h) - stack[j - 1](radii - h)) / (2.0 * h)
        exact = stack[j](radii)
        scale = np.max(np.abs(exact))
        if scale == 0.0:
            scale = max(np.max(np.abs(fd)), 1.0)
        errs[j] = float(np.max(np.abs(fd - exact)) / scale)
    return errs
