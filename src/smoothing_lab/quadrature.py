"""Adaptive radial-shell quadrature for Gaussian packet states.

Every spatial integral in the laboratory has the form

    int_0^inf r^(n-1) [ oint_{S^{n-1}} F(r w) dw ] dr,

with F built from |u|^2, |du/dr|^2, |grad_tau u|^2 and Im(conj(u) du/dr)
times radial coefficient functions.  Shells make ball truncations exact
(panel edges sit on the ball boundary) and keep weight seams aligned with
panel edges.

One radial integral can serve a batch of states with the same packets,
such as the 21 Gauss-Kronrod nodes of a time panel: states whose
truncation radii agree within _SHARE_RATIO share one radial panel set,
each coefficient function is evaluated once per radius of that set, and
every state is one component of the result with its own error target.

On the shell of radius r a packet is
b_i = B_i exp(-alpha_i (r^2 + |c_i|^2)) exp(r w.G_i) with
G_i = 2 alpha_i c_i + 2 pi i v_i, so each term of the integrand is a
Hermitian sum over packet pairs of exp(z.w), z = r (conj(G_i) + G_j),
times a polynomial of degree at most two in w.  In n = 2 and 3 their
angular integrals have closed forms in zeta = z.z (Funk-Hecke; Watson
section 11.41; DLMF 10.25 and 16.2): 2 pi I_0(sqrt(zeta)) and
4 pi sinh(sqrt(zeta))/sqrt(zeta) and their derivatives in zeta.  The
kernel's cost per radius therefore follows the number of packet pairs,
whatever the angular band |z|.  n = 1 sums its two directions {+1, -1}.
The product rules of _sphere_rule, sized from |z| by _bucket_band, are
the reference the tests hold the closed forms against.

One refinement loop serves both layers: it works on vector panels and
splits the panel with the largest relative error estimate until every
component meets its target.  A radial panel's estimate is the difference
of its 16- and 32-node Gauss-Legendre values; a time panel's is the
difference of its 21-point Gauss-Kronrod value and the embedded 10-point
Gauss value (Kronrod 1965; QUADPACK qk21).  The time integrals take a
vectorised integrand, which maps an array of times to an array of values
and is called once per time panel with all 21 nodes, as
scipy.integrate.fixed_quad calls its function.  Infinite horizons run
through the substitution t = s/(1 - s^2).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from scipy.special import i0e, i1e, ive, roots_legendre

from .errors import InvalidParameterError, ToleranceNotMetError

_SAFETY_LOG = 16.0  # extra e-foldings kept beyond the tail-mass radius
_ANGULAR_PAD = 18.0
# complex elements (states x radii x angles x packets, or states x radii x
# packet pairs) of one kernel block: the kernels walk a batch of states in
# blocks of this size, which bounds their working set
_KERNEL_BLOCK = 2**15
# the angular moments come from the 0F1 series below this |z.z|, where the
# closed forms cancel; 12 terms reach 1e-16 there
_SERIES_BELOW = 4.0
_SERIES_TERMS = 12
# |sqrt(z.z)| past which scipy's complex Bessel functions return NaN
_BESSEL_RANGE = 1e9
# states share one radial panel set when their truncation radii agree
# within this factor; a wider batch would put every state on the union of
# the panels its narrowest and its widest member need
_SHARE_RATIO = 1.5
# panel budget of one radial panel set or one time integral; read when a
# refinement runs
_MAX_PANELS = 4000
# the lab's fixed accuracy: every functional works to the relative
# tolerance REL_TOL, and a spatial integral stops where the relative tail
# mass of every term falls below _TAU_SPACE
REL_TOL = 1e-8
_TAU_SPACE = 1e-10


@dataclass(frozen=True)
class ShellCoefficients:
    """Radial coefficient functions for the generic shell integrand.

    integrand = w_rr |du/dr|^2 + w_tau |grad_tau u|^2 + w_mass |u|^2
              + w_flux Im(conj(u) du/dr)

    None means the term is absent (and its field values are never built).
    knots lists radii where a coefficient changes analytic piece.
    """

    w_rr: Callable | None = None
    w_tau: Callable | None = None
    w_mass: Callable | None = None
    w_flux: Callable | None = None
    knots: tuple = ()

    def needs_gradient(self) -> bool:
        return self.w_rr is not None or self.w_tau is not None \
            or self.w_flux is not None


@lru_cache(maxsize=64)
def _gl(m: int):
    x, w = roots_legendre(m)
    return x, w


@lru_cache(maxsize=256)
def _sphere_rule(n: int, band: int):
    """Angular nodes and weights integrating modes up to `band` exactly.

    n=1: the two-point set {+1, -1} with unit weights (counting measure),
         which is S^0 itself: the n = 1 kernel sums over it.
    n=2, 3 are the reference rules of the exact angular moments:
    n=2: band+1 equispaced angles (trapezoid is exact through mode band).
    n=3: Gauss-Legendre in cos(theta) x trapezoid in phi, exact for
         spherical harmonics through degree band.
    """
    if n == 1:
        omega = np.array([[1.0], [-1.0]])
        wts = np.array([1.0, 1.0])
    elif n == 2:
        M = max(band + 1, 4)
        theta = 2.0 * np.pi * np.arange(M) / M
        omega = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        wts = np.full(M, 2.0 * np.pi / M)
    elif n == 3:
        K = band // 2 + 2
        M = band + 2
        ct, cw = roots_legendre(K)
        st = np.sqrt(1.0 - ct**2)
        phi = 2.0 * np.pi * np.arange(M) / M
        omega = np.empty((K * M, 3))
        omega[:, 0] = np.outer(st, np.cos(phi)).ravel()
        omega[:, 1] = np.outer(st, np.sin(phi)).ravel()
        omega[:, 2] = np.repeat(ct, M)
        wts = np.repeat(cw, M) * (2.0 * np.pi / M)
    else:
        raise InvalidParameterError(f"shell quadrature supports n <= 3, got {n}")
    omega.setflags(write=False)
    wts.setflags(write=False)
    return omega, wts


def _bucket_band(band: float) -> int:
    """Round the bandwidth up a geometric ladder so rules get cache hits.

    Angular mode amplitudes of exp(z.w) turn over at mode |z| and then die
    at the Airy rate; 9 |z|^(1/3) extra modes push the truncated tail below
    1e-12 of the total.
    """
    need = band + 9.0 * band ** (1.0 / 3.0) + _ANGULAR_PAD
    m = 8
    while m < need:
        m = int(m * 1.3) + 1
    return m


# ---------------------------------------------------------------------------
# state geometry helpers
# ---------------------------------------------------------------------------

class _StateGeometry:
    """Envelope and packet-pair data of a batch of T states with m packets each.

    The packet parameters are stacked into arrays of shape (T, m, ...), one
    row per state.  The support radius is per state.
    """

    def __init__(self, states):
        self.n = states[0].n
        self.m = len(states[0])
        self.B = np.stack([s.B for s in states])  # (T, m)
        self.alpha = np.stack([s.alpha for s in states])  # (T, m)
        self.c = np.stack([s.c for s in states])  # (T, m, n)
        self.v = np.stack([s.v for s in states])  # (T, m, n)
        self.A = self.alpha.real  # > 0
        self.rho = np.sqrt((self.c**2).sum(axis=-1))  # (T, m)
        self.peak = np.abs(self.B)
        # angular growth vector per packet
        self.G = 2.0 * self.alpha[..., None] * self.c + 2j * np.pi * self.v
        self.peak_max = (self.peak**2).max(axis=1, initial=0.0)  # (T,)
        # the state at the median time places the packet-centre knots
        times = [s.t for s in states]
        self.middle = int(np.argsort(times, kind="stable")[len(states) // 2])

    @cached_property
    def pairs(self):
        """Per state and packet pair i <= j, the (T, P) factors of the pair sum.

        On the shell of radius r, conj(b_i) b_j is
        conj(B_i) B_j exp(log0 - a r^2) exp(z.w) with z = r S and
        S = conj(G_i) + G_j.  weight is conj(B_i) B_j, doubled off the
        diagonal to count the pair (j, i) too.  The bilinear products
        ss = S.S, si = S.conj(G_i), sj = S.G_j and gg = conj(G_i).G_j give
        z.z, z.conj(G_i) and z.G_j by powers of r; ai and aj are
        conj(alpha_i) and alpha_j.
        """
        i, j = np.triu_indices(self.m)
        ai, aj = np.conj(self.alpha[:, i]), self.alpha[:, j]
        gi, gj = np.conj(self.G[:, i]), self.G[:, j]
        S = gi + gj
        csq = (self.c**2).sum(axis=-1)
        return {
            "weight": np.where(i == j, 1.0, 2.0) * np.conj(self.B[:, i]) * self.B[:, j],
            "log0": -ai * csq[:, i] - aj * csq[:, j],
            "a": ai + aj, "ai": ai, "aj": aj,
            "ss": (S * S).sum(axis=-1), "si": (S * gi).sum(axis=-1),
            "sj": (S * gj).sum(axis=-1), "gg": (gi * gj).sum(axis=-1),
        }

    def support_radii(self, tau: float) -> np.ndarray:
        """Per state, the radius past which the relative tail of every term
        is below tau."""
        ref = self.peak.max(axis=1, keepdims=True)
        logs = np.log(np.maximum(self.peak**2, 1e-300) / (tau * ref**2))
        d = np.sqrt(np.maximum(logs + _SAFETY_LOG, 1.0) / (2.0 * self.A))
        return (self.rho + d).max(axis=1)

    def min_sigma(self) -> float:
        return float((1.0 / np.sqrt(2.0 * self.A)).min())


def _shell_values(geom: _StateGeometry, r: np.ndarray, omega: np.ndarray,
                  wts: np.ndarray, coeffs: ShellCoefficients) -> np.ndarray:
    """Angularly reduced integrand at radii r, one row per state: (T, Q).

    Sums the integrand over the directions omega with weights wts: S^0 in
    n = 1, a reference rule in n = 2, 3.  Each coefficient function is evaluated once on r and shared by every
    state; the states are walked in blocks of at most _KERNEL_BLOCK complex
    elements.  No r^{n-1} factor yet.
    """
    n = geom.n
    w_mass = None if coeffs.w_mass is None else coeffs.w_mass(r)[:, None]
    w_rr = None if coeffs.w_rr is None else coeffs.w_rr(r)[:, None]
    w_flux = None if coeffs.w_flux is None else coeffs.w_flux(r)[:, None]
    w_tau = None if coeffs.w_tau is None or n == 1 else coeffs.w_tau(r)[:, None]
    R = r[:, None, None]  # radius axis of the (Q, A, m) field arrays
    rsq = r * r
    # sums over packets as matrix products, faster than sum(axis=-1) over
    # the short packet axis
    ones = np.ones(geom.m)
    count = len(geom.B)
    out = np.empty((count, r.size))
    step = max(1, _KERNEL_BLOCK // (r.size * len(wts) * geom.m))
    for lo in range(0, count, step):
        rows = slice(lo, lo + step)
        B, alpha, c, v = geom.B[rows], geom.alpha[rows], geom.c[rows], geom.v[rows]
        # points x = r * omega, evaluated packet by packet without forming x
        oc = (omega @ c.transpose(0, 2, 1))[:, None]  # (t, 1, A, m)
        ov = (omega @ v.transpose(0, 2, 1))[:, None]
        al = alpha[:, None, None, :]
        # exponent: -alpha (r^2 - 2 r oc + |c|^2) + 2 pi i r ov
        csq = (c**2).sum(axis=-1)[:, None, None, :]
        expo = -al * (rsq[:, None, None] - 2.0 * R * oc + csq) + 2j * np.pi * R * ov
        vals = B[:, None, None, :] * np.exp(expo)  # (t, Q, A, m)
        u = vals @ ones
        pieces = np.zeros(u.shape, dtype=float)
        if w_mass is not None:
            pieces += w_mass * (u.real**2 + u.imag**2)
        if coeffs.needs_gradient():
            # du/dr = sum_i vals_i (-2 alpha_i (r - oc_i) + 2 pi i ov_i)
            ur = (vals * (-2.0 * al * (R - oc) + 2j * np.pi * ov)) @ ones
            ursq = ur.real**2 + ur.imag**2
            if w_rr is not None:
                pieces += w_rr * ursq
            if w_flux is not None:
                pieces += w_flux * (np.conj(u) * ur).imag
            if w_tau is not None:
                # grad u = -2 (sum_i alpha_i vals_i) x + sum_i vals_i G_i,
                # built one axis at a time
                s0 = (vals @ alpha[:, None, :, None])[..., 0]  # (t, Q, A)
                gsq = np.zeros(u.shape, dtype=float)
                for k in range(n):
                    Gk = geom.G[rows, None, :, k, None]  # (t, 1, m, 1)
                    g = -2.0 * s0 * (r[:, None] * omega[:, k]) + (vals @ Gk)[..., 0]
                    gsq += g.real**2 + g.imag**2
                pieces += w_tau * np.maximum(gsq - ursq, 0.0)
        out[rows] = pieces @ wts
    return out


def _angular_moments(n, zeta):
    """(Re s, moments) at zeta = z.z for n = 2, 3, where s = sqrt(zeta)
    with Re s >= 0 and moments stacks F, F', F'' scaled by exp(-Re s).

    F(zeta) = |S^{n-1}| 0F1(; n/2; zeta/4) is the integral of exp(z.w)
    over the unit sphere, and F', F'' are its derivatives in zeta: F is
    2 pi I_0(s) in n = 2 and 4 pi sinh(s)/s in n = 3.  Below |zeta| =
    _SERIES_BELOW the three come from one Horner pass of the series.
    Raises InvalidParameterError past the range of the complex Bessel
    functions, where they would return NaN.
    """
    root = np.sqrt(zeta)
    grow = root.real
    moments = np.empty((3,) + zeta.shape, dtype=complex)
    small = np.abs(zeta) < _SERIES_BELOW
    if small.any():
        x, b = 0.25 * zeta[small], 0.5 * n
        h0 = h1 = h2 = 1.0
        for k in range(_SERIES_TERMS - 1, 0, -1):
            h0 = 1.0 + h0 * x / (k * (b + k - 1))
            h1 = 1.0 + h1 * x / (k * (b + k))
            h2 = 1.0 + h2 * x / (k * (b + k + 1))
        area = (2.0 * np.pi if n == 2 else 4.0 * np.pi) * np.exp(-grow[small])
        moments[:, small] = (area * h0, area * h1 / (4.0 * b),
                             area * h2 / (16.0 * b * (b + 1.0)))
    big = ~small
    if big.any():
        z2, s = zeta[big], root[big]
        if n == 2:
            # i0e/i1e where zeta > 0, which every diagonal pair has
            real = (z2.imag == 0.0) & (z2.real > 0.0)
            e0, e1 = np.empty_like(s), np.empty_like(s)
            e0[real], e1[real] = i0e(s[real].real), i1e(s[real].real)
            sc = s[~real]
            if sc.size and np.abs(sc).max() > _BESSEL_RANGE:
                raise InvalidParameterError(
                    f"angular frequency {np.abs(sc).max():.3g} is past the "
                    f"range {_BESSEL_RANGE:.0e} of the complex Bessel functions")
            e0[~real], e1[~real] = ive(0, sc), ive(1, sc)
            # F' = pi I_1(s)/s, F'' = (pi/2) I_2(s)/s^2 = (pi/2)(I_0(s) - 2 I_1(s)/s)/s^2
            ratio = e1 / s
            moments[:, big] = (2.0 * np.pi * e0, np.pi * ratio,
                               0.5 * np.pi * (e0 - 2.0 * ratio) / z2)
        else:
            # sinh(s) and cosh(s) times exp(-Re s)
            p = np.exp(1j * s.imag)
            q = np.exp(-2.0 * s.real - 1j * s.imag)
            sh, ch = 0.5 * (p - q), 0.5 * (p + q)
            moments[:, big] = (4.0 * np.pi * sh / s,
                               2.0 * np.pi * (s * ch - sh) / (s * z2),
                               np.pi * ((z2 + 3.0) * sh - 3.0 * s * ch) / (s * z2 * z2))
    return grow, moments


def _pair_sum(*terms):
    """Sum over (coef, moment) terms of sum_p coef[t, p] moment[t, p, q]."""
    return sum((coef[:, None, :] @ moment)[:, 0] for coef, moment in terms)


def _moment_values(geom: _StateGeometry, r: np.ndarray,
                   coeffs: ShellCoefficients) -> np.ndarray:
    """Angularly integrated integrand at radii r in n = 2, 3: (T, Q).

    The exact angular integral of what _shell_values sums on a rule.  With
    z = r (conj(G_i) + G_j), every term is a Hermitian sum over packet
    pairs i <= j of the moments of exp(z.w):
    oint exp(z.w) = F, oint w exp(z.w) = 2 z F' and
    oint w w^T exp(z.w) = 2 F' I + 4 z z^T F''.  Per pair:

        |u|^2           F
        |du/dr|^2       4 conj(alpha_i) alpha_j r^2 F + 2 (conj(G_i).G_j) F'
                        - 4 F' (conj(alpha_i) z.G_j + alpha_j z.conj(G_i))
                        + 4 F'' (z.conj(G_i)) (z.G_j)
        |grad_tau u|^2  (conj(G_i).G_j) (F - 2 F') - 4 F'' (z.conj(G_i)) (z.G_j)
        Im(conj(u) du/dr), the pairs (i, j) and (j, i) together:
                        Im(r (conj(alpha_i) - alpha_j) F + F' z.(G_j - conj(G_i)))

    each times conj(b_i) b_j without its angular factor exp(z.w).  The
    growth exp(Re s) of the moments joins the exponent of that envelope,
    which the Gaussians keep at most 0, so neither overflows alone.  The
    cost per radius is that of the m(m+1)/2 pairs, whatever the angular
    band.
    """
    w_mass = None if coeffs.w_mass is None else coeffs.w_mass(r)
    w_rr = None if coeffs.w_rr is None else coeffs.w_rr(r)
    w_flux = None if coeffs.w_flux is None else coeffs.w_flux(r)
    w_tau = None if coeffs.w_tau is None else coeffs.w_tau(r)
    rsq = r * r
    count, size = geom.pairs["ss"].shape
    out = np.zeros((count, r.size))
    step = max(1, _KERNEL_BLOCK // (r.size * size))
    for lo in range(0, count, step):
        p = {key: val[lo:lo + step] for key, val in geom.pairs.items()}
        grow, moments = _angular_moments(geom.n, p["ss"][..., None] * rsq)
        env = p["weight"][..., None] * np.exp(
            p["log0"][..., None] - p["a"][..., None] * rsq + grow)
        f0, f1, f2 = env * moments  # (t, P, Q) each
        rows = out[lo:lo + step]
        if w_mass is not None:
            rows += w_mass * f0.sum(axis=1).real
        if w_rr is not None:
            rows += w_rr * (rsq * _pair_sum(
                (4.0 * p["ai"] * p["aj"], f0),
                (-4.0 * (p["ai"] * p["sj"] + p["aj"] * p["si"]), f1),
                (4.0 * p["si"] * p["sj"], f2)).real
                + 2.0 * _pair_sum((p["gg"], f1)).real)
        if w_tau is not None:
            tau = _pair_sum((p["gg"], f0 - 2.0 * f1)).real \
                - 4.0 * rsq * _pair_sum((p["si"] * p["sj"], f2)).real
            rows += w_tau * np.maximum(tau, 0.0)
        if w_flux is not None:
            rows += w_flux * r * _pair_sum(
                (p["ai"] - p["aj"], f0), (p["sj"] - p["si"], f1)).imag
    return out


def _panel_value(geom, a, b, coeffs, n):
    """(value_32, |value_32 - value_16|) per state on the radial panel [a, b].

    Both rules' 48 radii go to one kernel call: the two-point rule of S^0
    in n = 1, the pair sums of exact angular moments in n = 2, 3.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    (x16, w16), (x32, w32) = _gl(16), _gl(32)
    r = mid + half * np.concatenate([x16, x32])
    if n == 1:
        shell = _shell_values(geom, r, *_sphere_rule(1, 0), coeffs)
    else:
        shell = _moment_values(geom, r, coeffs)
    coarse, fine = (half * (shell[:, cut] * r[cut] ** (n - 1) * w).sum(axis=-1)
                    for cut, w in ((slice(16), w16), (slice(16, None), w32)))
    return fine, np.abs(fine - coarse)


def _column_fsums(rows):
    """Correctly rounded sum of each column, so row order does not matter."""
    return np.array([math.fsum(col) for col in np.array(rows).T])


def _adaptive(panel, edges, rel_tol, floor):
    """Worst-first refinement of a vector integral over edges.

    panel(a, b) -> (values, errors) with one entry per component (a scalar
    integral is the one-component case).  Component c meets its target when
    its summed error is at most rel_tol * max(|value_c|, floor_c), floor_c
    being |floor_c| if given and nonzero, else the component's first total.
    The loop splits the panel with the largest max_c err_c/floor_c until
    every component meets its target.  It decides on running totals and
    confirms with one fsum per component, which also gives the returned
    value and error.  Returns (values, errors, panels); raises
    ToleranceNotMetError for the worst component when the budget of
    _MAX_PANELS panels runs out or a panel under 2^-40 of the interval
    would have to split.
    """
    first = [(a, b, *map(np.atleast_1d, panel(a, b)))
             for a, b in zip(edges[:-1], edges[1:])]
    value, err = (_column_fsums([item[2] for item in first]),
                  _column_fsums([item[3] for item in first]))
    floor = np.abs(value if floor is None else np.where(floor, floor, value))
    weight = np.divide(1.0, floor, out=np.ones_like(floor), where=floor > 0.0)
    heap = [(-float((e * weight).max()), i, a, b, v, e)
            for i, (a, b, v, e) in enumerate(first)]
    heapq.heapify(heap)
    counter = len(heap)
    length = edges[-1] - edges[0]

    def totals():
        return (_column_fsums([item[4] for item in heap]),
                _column_fsums([item[5] for item in heap]))

    def target(value):
        return np.maximum(rel_tol * np.maximum(np.abs(value), floor), 1e-300)

    run_value, run_err = value, err
    while True:
        if np.all(run_err <= target(run_value)):
            value, err = totals()
            if np.all(err <= target(value)):
                return value, err, len(heap)
            run_value, run_err = value, err  # the running totals drifted
        _, _, a, b, v, e = heap[0]
        if len(heap) >= _MAX_PANELS or b - a < 2.0**-40 * length:
            value, err = totals()
            worst = int(np.argmax(err / target(value)))
            raise ToleranceNotMetError(float(value[worst]), float(err[worst]),
                                       float(target(value)[worst]))
        heapq.heappop(heap)
        run_value, run_err = run_value - v, run_err - e
        mid = 0.5 * (a + b)
        for aa, bb in ((a, mid), (mid, b)):
            vv, ee = map(np.atleast_1d, panel(aa, bb))
            heapq.heappush(heap, (-float((ee * weight).max()), counter, aa, bb, vv, ee))
            counter += 1
            run_value, run_err = run_value + vv, run_err + ee


def _share_groups(reach):
    """Index arrays of states that share one radial panel set: sorted by
    truncation radius, a group closes before the first state that reaches
    more than _SHARE_RATIO times as far as the group's first."""
    order = np.argsort(reach, kind="stable")
    groups, start = [], 0
    for i in range(1, len(order) + 1):
        if i == len(order) or reach[order[i]] > _SHARE_RATIO * reach[order[start]]:
            groups.append(order[start:i])
            start = i
    return groups


def _batch_integral(geom, coeffs, end, rel_tol, floor):
    """(values, errors, panels) of a batch on one radial panel set over [0, end]."""
    centres = geom.rho[geom.middle]
    inner = {float(x) for x in (*coeffs.knots, *centres) if 0.0 < x < end}
    edges = sorted({0.0, end} | inner)

    # cap initial panel width by the sharpest packet scale
    cap = max(2.0 * geom.min_sigma(), end / 64.0)
    refined = []
    for a, b in zip(edges[:-1], edges[1:]):
        pieces = max(1, math.ceil((b - a) / cap))
        step = (b - a) / pieces
        refined.extend(a + i * step for i in range(pieces))
    refined.append(end)

    return _adaptive(lambda a, b: _panel_value(geom, a, b, coeffs, geom.n),
                     refined, rel_tol, floor)


def shell_integrals(states, coeffs: ShellCoefficients,
                    r_max: float | None = None, scales=None,
                    rel_tol: float = REL_TOL):
    """Integrate the shell integrand of each of a batch of states.

    states share their packet count and dimension.  Each state's integral
    runs over r in [0, r_max] or its own envelope, the radius past which
    the relative tail mass is below _TAU_SPACE, whichever is shorter, and
    is refined until it meets its own target rel_tol * max(|value|, scale);
    a missing scale is the state's first total.  States whose truncation
    radii agree within a factor _SHARE_RATIO share one radial panel set,
    starting from the weight knots and the packet centres of their state
    at the median time.  Returns (values, info), one value per state,
    where info carries the error estimates and the panel count.  Raises
    ToleranceNotMetError when one panel set runs out of its _MAX_PANELS
    budget.
    """
    count = len(states)
    if states[0].n > 3:
        raise InvalidParameterError("shell quadrature supports n <= 3")
    values, errors, panels = np.zeros(count), np.zeros(count), 0
    geom = _StateGeometry(states)
    if geom.m and geom.peak_max.any():
        reach = geom.support_radii(_TAU_SPACE)
        if r_max is not None:
            reach = np.minimum(reach, r_max)
        floor = None if scales is None else np.asarray(scales, dtype=float)
        for rows in _share_groups(reach):
            end = float(reach[rows].max())
            if end <= 0.0:
                continue
            part = _StateGeometry([states[i] for i in rows])
            values[rows], errors[rows], used = _batch_integral(
                part, coeffs, end, rel_tol,
                None if floor is None else floor[rows])
            panels += used
    return values, {"abs_error": errors, "panels": panels}


def shell_integral(state, coeffs: ShellCoefficients,
                   scale: float | None = None):
    """Integrate the shell integrand of one state over its envelope.

    The one-state case of shell_integrals at rel_tol REL_TOL, with scale
    as the magnitude floor of the target.  Returns (value, info) where
    info carries the error estimate and panel count.  Raises
    ToleranceNotMetError when the panel budget runs out.
    """
    values, info = shell_integrals([state], coeffs,
                                   scales=None if scale is None else [scale])
    return float(values[0]), {"abs_error": float(info["abs_error"][0]),
                              "panels": info["panels"]}


# ---------------------------------------------------------------------------
# adaptive time integration
# ---------------------------------------------------------------------------

# QUADPACK qk21 (Kronrod 1965) by increasing |x|: the abscissae the Kronrod
# extension adds to the 10-point Gauss rule, their weights, and the 21-point
# weights at the Gauss abscissae.
_KRONROD_X = (0.0, 0.2943928627014602, 0.5627571346686047, 0.7808177265864169,
              0.9301574913557082, 0.9956571630258081)
_KRONROD_W = (0.1494455540029169, 0.14277593857706009, 0.12349197626206584,
              0.0931254545836976, 0.054755896574351995, 0.011694638867371874)
_KRONROD_W_GAUSS = (0.14773910490133849, 0.13470921731147334, 0.10938715880229764,
                    0.07503967481091996, 0.032558162307964725)


def _gauss_kronrod_21():
    """(nodes, Kronrod weights, Gauss weights); the Gauss nodes come first."""
    xg, wg = _gl(10)  # ascending, so |x| falls, then rises
    xk, wk, wkg = map(np.array, (_KRONROD_X, _KRONROD_W, _KRONROD_W_GAUSS))
    return (np.concatenate([xg, -xk[:0:-1], xk]),
            np.concatenate([wkg[::-1], wkg, wk[:0:-1], wk]), wg)


_GK21 = _gauss_kronrod_21()


def _kronrod_panel(fn, a, b):
    """(K21 value, |K21 - G10|) of fn on [a, b], fn called once on all nodes."""
    nodes, wk, wg = _GK21
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = np.asarray(fn(mid + half * nodes), dtype=float)
    kronrod = half * math.fsum(wk * vals)
    gauss = half * math.fsum(wg * vals[:10])
    return kronrod, abs(kronrod - gauss)


def adaptive_time_integral(fn, a: float, b: float, rel_tol: float,
                           scale: float, panels: int = 2):
    """(int_a^b fn(t) dt, error estimate) by Gauss-Kronrod panels.

    fn is vectorised: it maps an array of times to the array of values at
    those times, and is called once per panel with its 21 nodes.  The
    absolute target is rel_tol * max(|total|, |scale|): the scale floor
    keeps near-cancelling integrals from demanding impossible relative
    accuracy.  Raises ToleranceNotMetError when the _MAX_PANELS budget
    runs out.
    """
    edges = np.linspace(a, b, panels + 1).tolist()
    value, err, _ = _adaptive(lambda lo, hi: _kronrod_panel(fn, lo, hi),
                              edges, rel_tol, scale)
    return float(value[0]), float(err[0])


def _on_compact_line(fn):
    """The integrand g(s) = fn(s/(1 - s^2)) (1 + s^2)/(1 - s^2)^2 of the
    whole-line substitution, vectorised like fn.

    A node may round to exactly +-1; the continuous extension vanishes
    there for every integrable fn, so g is 0 at such nodes element by
    element and fn sees only the others.
    """

    def g(s):
        om = (1.0 - s) * (1.0 + s)
        inside = om > 0.0
        si, omi = s[inside], om[inside]
        out = np.zeros_like(s)
        out[inside] = fn(si / omi) * ((1.0 + si * si) / omi**2)
        return out

    return g


def _compact_line_rate(t):
    """ds/dt of the whole-line substitution t = s/(1 - s^2) at the times t.

    The closed form 2/(q (q + 1)), q = sqrt(1 + 4 t^2), equals
    (1 - s^2)^2/(1 + s^2) but forms no 1 - s^2, which cancels at large |t|,
    so it keeps full relative accuracy at every finite t, 0 included.
    """
    q = np.sqrt(1.0 + 4.0 * np.square(t))
    return 2.0 / (q * (q + 1.0))


def real_line_time_integral(fn, rel_tol: float, scale: float):
    """int_{-inf}^{inf} fn(t) dt via t = s/(1 - s^2), s in (-1, 1).

    fn is vectorised as for adaptive_time_integral.  The substitution maps
    polynomial dispersive decay to a bounded smooth integrand;
    Gauss-Kronrod nodes are interior so the endpoints are never evaluated.
    The panel budget is _MAX_PANELS, as for adaptive_time_integral.
    """
    return adaptive_time_integral(_on_compact_line(fn), -1.0, 1.0, rel_tol,
                                  scale, panels=4)
