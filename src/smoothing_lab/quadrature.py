"""Adaptive radial-shell quadrature for Gaussian packet states.

Every spatial integral in the laboratory has the form

    int_0^inf r^(n-1) [ oint_{S^{n-1}} F(r w) dw ] dr,

with F built from |u|^2, |du/dr|^2, |grad_tau u|^2 and Im(conj(u) du/dr)
times radial coefficient functions.  Shells make ball truncations exact
(panel edges sit on the ball boundary) and keep weight seams aligned with
panel edges.

The angular factor of one packet pair at radius r is exp(z.w) with
z = r (conj(G_i) + G_j), G_i = 2 alpha_i c_i + 2 pi i v_i.  Its angular
modes decay like Bessel coefficients once the order exceeds |z|, so the
trapezoid (n=2) or product Gauss-Legendre x trapezoid (n=3) rule sizes
itself from the largest active pair bandwidth; as t grows, 2 alpha c
collapses onto -2 pi i v and same-momentum pairs become angularly cheap.

Radial panels are refined adaptively, worst first, with the error of a
panel estimated by comparing its m-node and 2m-node Gauss-Legendre values.
Time integrals reuse the same bisection idea; infinite horizons run
through the substitution t = s/(1 - s^2).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import roots_legendre

from .errors import InvalidParameterError, ToleranceNotMetError
from .model import QuadraturePlan

_SAFETY_LOG = 16.0  # extra e-foldings kept beyond the tail-mass radius
_ANGULAR_PAD = 18.0
_PRUNE = 1e-26  # pair envelope products below this never steer bandwidth


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

    n=1: the two-point set {+1, -1} with unit weights (counting measure).
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
    """Envelope and bandwidth data extracted once per state."""

    def __init__(self, state):
        self.state = state
        self.m = len(state)
        self.A = state.alpha.real  # > 0
        self.rho = np.sqrt((state.c**2).sum(axis=1))
        self.peak = np.abs(state.B)
        # angular growth vector per packet
        self.G = 2.0 * state.alpha[:, None] * state.c + 2j * np.pi * state.v
        Gc = np.conj(self.G)
        pair = Gc[:, None, :] + self.G[None, :, :]
        self.Z = np.sqrt((np.abs(pair) ** 2).sum(axis=-1))  # (m, m)
        self.peak_pair = np.outer(self.peak, self.peak)
        self.peak_max = self.peak_pair.max() if self.m else 0.0

    def envelope(self, r):
        """Per-packet radial envelope bound |B_i| e^{-A_i (r - rho_i)^2}."""
        d = r[None, :] - self.rho[:, None]
        return self.peak[:, None] * np.exp(-self.A[:, None] * d * d)

    def bandwidth(self, r) -> float:
        """Largest |z| = r |conj(G_i)+G_j| over envelope-active pairs."""
        if self.m == 0:
            return 0.0
        env = self.envelope(r)  # (m, Q)
        prod = env[:, None, :] * env[None, :, :]  # (m, m, Q)
        active = prod > _PRUNE * self.peak_max
        zmax = 0.0
        if np.any(active):
            z = self.Z[:, :, None] * r[None, None, :]
            zmax = float(np.where(active, z, 0.0).max())
        return zmax

    def support_radius(self, tau: float) -> float:
        """Radius past which the relative tail of every term is below tau."""
        if self.m == 0:
            return 0.0
        ref = self.peak.max()
        logs = np.log(np.maximum(self.peak**2, 1e-300) / (tau * ref**2))
        d = np.sqrt(np.maximum(logs + _SAFETY_LOG, 1.0) / (2.0 * self.A))
        return float((self.rho + d).max())

    def min_sigma(self) -> float:
        return float((1.0 / np.sqrt(2.0 * self.A)).min()) if self.m else 1.0


def _shell_values(geom: _StateGeometry, r: np.ndarray, omega: np.ndarray,
                  wts: np.ndarray, coeffs: ShellCoefficients) -> np.ndarray:
    """Angularly reduced integrand at radii r (no r^{n-1} factor yet)."""
    state = geom.state
    n = state.n
    # points x = r * omega, evaluated packet by packet without forming x
    oc = omega @ state.c.T  # (A, m)
    ov = omega @ state.v.T  # (A, m)
    rsq = r * r
    # exponent: -alpha (r^2 - 2 r oc + |c|^2) + 2 pi i r ov
    csq = (state.c**2).sum(axis=1)
    expo = (
        -state.alpha[None, None, :] * (
            rsq[:, None, None]
            - 2.0 * r[:, None, None] * oc[None, :, :]
            + csq[None, None, :]
        )
        + 2j * np.pi * r[:, None, None] * ov[None, :, :]
    )
    vals = state.B * np.exp(expo)  # (Q, A, m)
    u = vals.sum(axis=-1)
    out = np.zeros(r.shape, dtype=float)

    pieces = np.zeros(u.shape, dtype=float)
    if coeffs.w_mass is not None:
        pieces += coeffs.w_mass(r)[:, None] * (u.real**2 + u.imag**2)
    if coeffs.needs_gradient():
        # du/dr = sum_i vals_i (-2 alpha_i (r - oc_i) + 2 pi i ov_i)
        lin = (
            -2.0 * state.alpha[None, None, :]
            * (r[:, None, None] - oc[None, :, :])
            + 2j * np.pi * ov[None, :, :]
        )
        ur = (vals * lin).sum(axis=-1)
        if coeffs.w_rr is not None:
            pieces += coeffs.w_rr(r)[:, None] * (ur.real**2 + ur.imag**2)
        if coeffs.w_flux is not None:
            pieces += coeffs.w_flux(r)[:, None] * (np.conj(u) * ur).imag
        if coeffs.w_tau is not None and n > 1:
            # grad u = -2 (sum_i alpha_i vals_i) x + 2 sum_i vals_i alpha_i c_i
            #          + 2 pi i sum_i vals_i v_i
            s0 = (vals * state.alpha).sum(axis=-1)  # (Q, A)
            s1 = vals @ (state.alpha[:, None] * state.c)  # (Q, A, n)
            s2 = vals @ state.v.astype(complex)  # (Q, A, n)
            x = r[:, None, None] * omega[None, :, :]
            grad = -2.0 * s0[..., None] * x + 2.0 * s1 + 2j * np.pi * s2
            gsq = (grad.real**2 + grad.imag**2).sum(axis=-1)
            tau_sq = np.maximum(gsq - (ur.real**2 + ur.imag**2), 0.0)
            pieces += coeffs.w_tau(r)[:, None] * tau_sq
    out = pieces @ wts
    return out


def _panel_value(geom, a, b, m, coeffs, n):
    """(value_2m, |value_2m - value_m|) on the radial panel [a, b]."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    results = []
    for mm in (m, 2 * m):
        x, w = _gl(mm)
        r = mid + half * x
        band = _bucket_band(geom.bandwidth(r))
        omega, wts = _sphere_rule(n, band)
        shell = _shell_values(geom, r, omega, wts, coeffs)
        results.append(half * float((shell * r ** (n - 1) * w).sum()))
    return results[1], abs(results[1] - results[0])


def shell_integral(state, coeffs: ShellCoefficients, plan: QuadraturePlan,
                   r_max: float | None = None, scale: float | None = None,
                   rel_tol: float | None = None):
    """Integrate the shell integrand over r in [0, r_max] (or the envelope).

    Returns (value, info) where info carries the error estimate and panel
    count.  Raises ToleranceNotMetError when the panel budget runs out.
    """
    n = state.n
    if n > 3:
        raise InvalidParameterError("shell quadrature supports n <= 3")
    rel_tol = plan.rel_tol if rel_tol is None else rel_tol
    geom = _StateGeometry(state)
    if geom.m == 0 or geom.peak_max == 0.0:
        return 0.0, {"abs_error": 0.0, "panels": 0}

    end = geom.support_radius(plan.tau_space)
    if r_max is not None:
        end = min(end, r_max)
    if end <= 0.0:
        return 0.0, {"abs_error": 0.0, "panels": 0}

    knots = {0.0, end}
    for kn in coeffs.knots:
        if 0.0 < kn < end:
            knots.add(float(kn))
    for rho in geom.rho:
        if 0.0 < rho < end:
            knots.add(float(rho))
    edges = sorted(knots)

    # cap initial panel width by the sharpest packet scale
    cap = max(2.0 * geom.min_sigma(), end / 64.0)
    refined = []
    for a, b in zip(edges[:-1], edges[1:]):
        pieces = max(1, math.ceil((b - a) / cap))
        step = (b - a) / pieces
        refined.extend(a + i * step for i in range(pieces))
    refined.append(end)

    m = 16
    heap = []
    counter = 0
    for a, b in zip(refined[:-1], refined[1:]):
        v, e = _panel_value(geom, a, b, m, coeffs, n)
        heap.append((-e, counter, a, b, v, e))
        counter += 1
    heapq.heapify(heap)

    def totals():
        # fsum is correctly rounded, so the heap order does not matter
        return (math.fsum(item[4] for item in heap),
                math.fsum(item[5] for item in heap))

    value, err = totals()
    floor = abs(scale) if scale else abs(value)
    while err > rel_tol * max(abs(value), floor) and err > 1e-300:
        if len(heap) >= plan.max_panels:
            raise ToleranceNotMetError(value, err, rel_tol * max(abs(value), floor))
        _, _, a, b, _, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        for aa, bb in ((a, mid), (mid, b)):
            v, e = _panel_value(geom, aa, bb, m, coeffs, n)
            heapq.heappush(heap, (-e, counter, aa, bb, v, e))
            counter += 1
        value, err = totals()
    return value, {"abs_error": err, "panels": len(heap)}


# ---------------------------------------------------------------------------
# adaptive time integration
# ---------------------------------------------------------------------------

def _gl_interval(fn, a, b, m):
    x, w = _gl(m)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * math.fsum(wi * fn(mid + half * xi) for xi, wi in zip(x, w))


def _bisect(fn, a, b, parent, tol, m, depth, noise):
    mid = 0.5 * (a + b)
    left = _gl_interval(fn, a, mid, m)
    right = _gl_interval(fn, mid, b, m)
    err = abs(parent - left - right)
    # refining below the evaluation noise of this stretch is meaningless
    floor = max(tol, noise * (b - a))
    if err <= floor or depth <= 0:
        if err > floor:
            raise ToleranceNotMetError(left + right, err, floor)
        return left + right, err
    lv, le = _bisect(fn, a, mid, left, 0.5 * tol, m, depth - 1, noise)
    rv, re_ = _bisect(fn, mid, b, right, 0.5 * tol, m, depth - 1, noise)
    return lv + rv, le + re_


def adaptive_time_integral(fn, a: float, b: float, rel_tol: float,
                           scale: float, m: int = 12, panels: int = 2,
                           max_depth: int = 40, noise: float = 0.0):
    """int_a^b fn(t) dt with bisection refinement, fn evaluated pointwise.

    The absolute target is rel_tol * max(first sweep, scale): the scale
    floor keeps near-cancelling integrals from demanding impossible
    relative accuracy.  `noise` bounds fn's own absolute error per unit
    length; a stretch is accepted once the bisection difference drops
    under noise * length, so evaluation noise never triggers runaway
    refinement.  Noise acceptance adds at most noise * (b - a) overall.
    """
    edges = np.linspace(a, b, panels + 1)
    first = [_gl_interval(fn, lo, hi, m)
             for lo, hi in zip(edges[:-1], edges[1:])]
    rough = math.fsum(first)
    tol_abs = rel_tol * max(abs(rough), abs(scale))
    if tol_abs == 0.0:
        tol_abs = rel_tol
    total, err = 0.0, 0.0
    for (lo, hi), v in zip(zip(edges[:-1], edges[1:]), first):
        tv, te = _bisect(fn, lo, hi, v, tol_abs / panels, m, max_depth, noise)
        total += tv
        err += te
    return total, err


def real_line_time_integral(fn, rel_tol: float, scale: float, m: int = 12,
                            max_depth: int = 48, noise: float = 0.0):
    """int_{-inf}^{inf} fn(t) dt via t = s/(1 - s^2), s in (-1, 1).

    The substitution maps polynomial dispersive decay to a bounded smooth
    integrand; Gauss-Legendre nodes are interior so the endpoints are
    never evaluated.
    """

    def g(s):
        om = (1.0 - s) * (1.0 + s)
        if om <= 0.0:
            # deep bisection can round s to exactly +-1; the continuous
            # extension vanishes there for every integrable fn, and a
            # divergent fn still blows up on the interior nodes
            return 0.0
        t = s / om
        jac = (1.0 + s * s) / om**2
        return fn(t) * jac

    return adaptive_time_integral(g, -1.0, 1.0, rel_tol, scale, m=m,
                                  panels=4, max_depth=max_depth, noise=noise)
