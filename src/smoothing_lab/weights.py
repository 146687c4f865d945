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
precomputed data: q is interpolated by a Chebyshev series of degree 40 on
each of 32 panels of [0, 1], and each series is integrated twice exactly,
once at import (Trefethen, Approximation Theory and Approximation
Practice).  The trailing coefficients below eps/8 of each table's largest
are then dropped, which leaves Q of degree 12 and Q2 of degree 9 on every
panel, within 2 ulp of the untrimmed series.  The tables serve the band
alone; the core and the tail take their exact closed forms.
"""

from __future__ import annotations

import numbers
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
# a table keeps its Chebyshev rows up to the last one that reaches this
# share of its largest coefficient
_TRIM = np.finfo(float).eps / 8.0


@dataclass(frozen=True, eq=False)
class BumpAntiderivatives:
    """Q(s) = int_0^s q and Q2(s) = int_0^s Q as piecewise Chebyshev series.

    Column p of Q_coef and Q2_coef holds the series on panel
    [p, p+1]/_PANELS in the local variable x = 2(_PANELS s - p) - 1.  Q and
    Q2 read the band alone, 0 < s < 1: make_psi_k takes the core and the
    tail from their exact closed forms.  An s outside [0, 1] reads the
    nearer end of the table, and a NaN s gives NaN.
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
            return c, float(ends[-1])

        def trimmed(c):
            size = np.abs(c).max(axis=1)
            c = c[:np.flatnonzero(size >= _TRIM * size.max())[-1] + 1]
            c.setflags(write=False)
            return c

        Q_coef, q_total = integrate(coef)
        Q2_coef, Q2_total = integrate(Q_coef)
        return BumpAntiderivatives(trimmed(Q_coef), trimmed(Q2_coef), q_total, Q2_total)

    @staticmethod
    def _eval(coef, s):
        t = np.clip(s, 0.0, 1.0) * _PANELS
        # a NaN s reads panel 0 and stays NaN
        p = np.minimum(np.nan_to_num(t).astype(int), _PANELS - 1)
        return chebyshev.chebval(2.0 * (t - p) - 1.0, coef[:, p], tensor=False)

    def Q(self, s):
        """int_0^s q on [0, 1]."""
        return self._eval(self.Q_coef, s)

    def Q2(self, s):
        """int_0^s Q on [0, 1]."""
        return self._eval(self.Q2_coef, s)


_BUMP_TABLES = BumpAntiderivatives.build()


# ---------------------------------------------------------------------------
# shipped weight families
# ---------------------------------------------------------------------------

# the range of eps where every derivative of psi_eps is finite at r = 0.
# Below it (eps^2 + r^2)^(7/2), d4's denominator, underflows there (an eps^2
# that underflows turns d1..d4 into 0/0); above it d4's numerator at r = 0,
# -3 eps^4, overflows and d4 becomes -inf/inf.  An eps^7 that overflows
# only flushes d4(0) = -3/eps^3 to -0.
_EPS_RANGE = (np.finfo(float).tiny ** (1.0 / 7.0), (np.finfo(float).max / 3.0) ** 0.25)


def make_psi_eps(eps: float) -> RadialWeight:
    """psi(r) = sqrt(eps^2 + r^2): smooth |x| with curvature scale eps.

    eps must lie in _EPS_RANGE, about [1.1e-44, 8.8e76], where all five
    derivatives stay finite at the origin.
    """
    eps = float(eps)
    lo, hi = _EPS_RANGE
    if not lo <= eps <= hi:  # False for NaN too
        raise InvalidParameterError(
            f"eps must be finite and positive, within [{lo:.3g}, {hi:.3g}] "
            f"where psi_eps's derivatives stay finite at r = 0, got {eps}")
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
    The plateau index k must be an integer >= 1.
    """
    if not (isinstance(k, numbers.Real) and np.isfinite(k) and k == int(k) >= 1):
        raise InvalidParameterError(f"bump steepness k must be an integer >= 1, got {k!r}")
    k = int(k)
    tab = _BUMP_TABLES
    kk = float(k)
    outer = (k + 1.0) / k
    slope = 1.0 + tab.q_total / kk
    # psi(r >= outer) = slope*r - offset: the band formula with
    # Q2(s) = Q2(1) + Q(1)(s - 1)
    offset = 0.5 + tab.q_total / kk + (tab.q_total - tab.Q2_total) / kk**2

    def by_piece(r, core, band, tail):
        # core(|r|) on |r| <= 1, tail(|r|) on |r| >= outer and band(|r|)
        # between; a NaN fails both tests and the band formulas keep it NaN
        a = np.atleast_1d(np.abs(r))
        out = np.empty_like(a)
        inner, beyond = a <= 1.0, a >= outer
        mid = ~inner & ~beyond
        out[inner], out[beyond], out[mid] = core(a[inner]), tail(a[beyond]), band(a[mid])
        return out

    def d0(r):
        r = np.asarray(r, dtype=float)
        return by_piece(r, lambda a: 0.5 * a**2,
                        lambda a: 0.5 + (a - 1.0) + tab.Q2(kk * (a - 1.0)) / kk**2,
                        lambda a: slope * a - offset).reshape(r.shape)

    def d1(r):
        r = np.asarray(r, dtype=float)
        out = by_piece(r, lambda a: a, lambda a: 1.0 + tab.Q(kk * (a - 1.0)) / kk,
                       lambda a: slope)
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
    if not np.isfinite(value):
        raise InvalidParameterError(f"constant weight value must be finite, got {value}")

    def d0(r):
        return np.full_like(np.asarray(r, dtype=float), value)

    def zero(r):
        return np.zeros_like(np.asarray(r, dtype=float))

    return RadialWeight(d0, zero, zero, zero, zero, slope_inf=0.0,
                        label=f"constant{value:g}")


def rescale(w: RadialWeight, R: float) -> RadialWeight:
    """psi_R(r) = R psi(r/R): derivative orders j scale by R^(1-j)."""
    R = float(R)
    if not 0.0 < R < np.inf:
        raise InvalidParameterError(
            f"rescale factor must be finite and positive, got {R}")

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
    Only the derivatives the dimension reads are evaluated: n = 1 returns
    (psi'', psi'''') and calls neither d1 nor d3, and n = 3 skips the
    grouped term, whose factor (n-1)(n-3) is 0.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise OriginError("radial Laplacians are singular at r = 0")
    d2, d4 = w.d2(r), w.d4(r)
    if n == 1:
        return d2, d4
    d1, d3 = w.d1(r), w.d3(r)
    lap = d2 + (n - 1) * d1 / r
    bilap = d4 + 2.0 * (n - 1) * d3 / r
    if n != 3:
        bilap = bilap + (n - 1) * (n - 3) * (d2 - d1 / r) / r**2
    return lap, bilap
