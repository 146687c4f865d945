"""Adaptive radial-shell quadrature for Gaussian packet states.

Every spatial integral in the laboratory has the form

    int_0^inf r^(n-1) [ oint_{S^{n-1}} F(r w) dw ] dr,

with F built from |u|^2, |du/dr|^2, |grad_tau u|^2 and Im(conj(u) du/dr)
times radial coefficient functions.  Shells make ball truncations exact
(panel edges sit on the ball boundary) and keep weight seams aligned with
panel edges.

One call integrates a batch of states with the same packets, such as
the Gauss-Kronrod nodes of a sweep of time panels.  Every state has its
own radial panel set over [0, its own truncation radius], and every
panel carries the index of its state.  All the sets refine in the same
rounds: _panel_value takes the flat arrays (P,) of a sweep of P panels,
the state and the edges of each, and runs the kernel once on their
(P, 33) radii, which gathers each panel's state geometry once, so a
batch costs one kernel call for its initial panels and one more per
refinement round, however far apart its states' truncation radii are.

On the shell of radius r a packet is
b_i = B_i exp(-alpha_i (r^2 + |c_i|^2)) exp(r w.G_i) with
G_i = 2 alpha_i c_i + 2 pi i v_i, so each term of the integrand is a
Hermitian sum over packet pairs of exp(z.w), z = r (conj(G_i) + G_j),
times a polynomial of degree at most two in w.  In n = 2 and 3 their
angular integrals have closed forms in zeta = z.z (Funk-Hecke; Watson
section 11.41; DLMF 10.25 and 16.2): 2 pi I_0(sqrt(zeta)) and
4 pi sinh(sqrt(zeta))/sqrt(zeta) and their derivatives in zeta.  The
kernel's cost per radius therefore follows the number of packet pairs,
whatever the angular band |z|.  A diagonal pair i = j has real factors
and a real zeta >= 0, so it runs in real arithmetic throughout, and
one-packet data take no complex exp at all.  n = 1 sums its two
directions {+1, -1} on field arrays laid out (packet, direction, panel,
radius), radius last, with every packet's phase taken relative to packet
0's at the same point: a shared phase cancels in every quadratic term,
so packet 0 costs a real exp and only the others a complex one.  The
product rules of _sphere_rule, sized from |z| by _bucket_band, are the
reference the tests hold the closed forms against.

One refinement loop serves both layers: each panel belongs to one
component of the result, a state of the radial layer or the one time
integral of the time layer, and carries one value and one error per
column of that component.  A column is one point of a schedule that
shares the component's panels: a ball radius R_j, whose column sums the
panels inside R_j, or a horizon T_j, whose column is the integrand times
the indicator of [-T_j, T_j].  The panels are cut at every R_j or +-T_j,
so no panel straddles one and each column is exactly its own integral.
The loop refines in rounds until every column meets its own target.
Each round splits, in every column over its target, the fewest of its
worst panels that leave at most half of that target on the others, as
scipy.integrate.quad_vec does, and hands its panel rule the sweep of the
halves of all the panels any column picked.
One sweep routine, _kronrod_sweep, serves both layers: it calls the
integrand once on the nodes of every panel of the sweep and takes the
distance of a Gauss-Kronrod rule to its embedded Gauss value as the
error estimate (Kronrod 1965): K33 over G16 on a radial panel, whose 33
radii include the 16 Gauss radii (Laurie, Math. Comp. 66, 1997), and
K21 over G10 on a time panel (QUADPACK qk21).  The time integrals take
a vectorised integrand, which maps an array of k times to an array of
values, (k,) or (k, J) for J columns, as scipy.integrate.fixed_quad
calls its function, and is called once per refinement round on the 21
nodes of each panel of that round's sweep.  Their initial panels are cut
at the breakpoints the caller gives, as scipy.integrate.quad takes its
points.  Infinite horizons run through the substitution t = s/(1 - s^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from scipy.special import i0e, i1e, ive, roots_legendre

from .errors import InvalidParameterError, ToleranceNotMetError

_SAFETY_LOG = 16.0  # extra e-foldings kept beyond the tail-mass radius
_ANGULAR_PAD = 18.0
# complex elements (radii x angles x packets, or radii x packet pairs) of
# one kernel block: the kernels walk the panels of a sweep in blocks of at
# most this size, one panel when a panel alone exceeds it, and evaluate the
# weight coefficients a block at a time, which bounds their working set
_KERNEL_BLOCK = 2**14
# the angular moments come from the 0F1 series below this |z.z|, where the
# closed forms cancel; 12 terms reach 1e-16 there
_SERIES_BELOW = 4.0
_SERIES_TERMS = 12
# |sqrt(z.z)| past which scipy's complex Bessel functions return NaN
_BESSEL_RANGE = 1e9
# panel budget of one state's radial panel set or one time integral; read
# when a refinement runs
_MAX_PANELS = 4000
_KEEP = 0.5  # share of each target a refinement round leaves unsplit
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

    None means the term is absent (and its field values are never built);
    the n = 1 kernel drops w_tau, as the line has no tangential directions.
    knots lists radii where a coefficient changes analytic piece; a
    coefficient that is the absolute value of a function changes piece
    where that function changes sign, so its knots include those zeros.
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


# Gauss-Kronrod rules by increasing |x|: the abscissae the Kronrod extension
# adds to the Gauss rule, their weights, and the Kronrod weights at the
# Gauss abscissae.  QUADPACK qk21 (Kronrod 1965) extends G10 for the time
# panels; K33 extends G16 for the radial panels, as tools/kronrod_nodes.py
# derives it (Laurie, Math. Comp. 66, 1997).
_KRONROD_X = (0.0, 0.2943928627014602, 0.5627571346686047, 0.7808177265864169,
              0.9301574913557082, 0.9956571630258081)
_KRONROD_W = (0.1494455540029169, 0.14277593857706009, 0.12349197626206584,
              0.0931254545836976, 0.054755896574351995, 0.011694638867371874)
_KRONROD_W_GAUSS = (0.14773910490133849, 0.13470921731147334, 0.10938715880229764,
                    0.07503967481091996, 0.032558162307964725)
_K33_X = (0.0, 0.18916857901808373, 0.37148378087841627, 0.5404076763521397,
          0.6897411066817623, 0.8142402870624444, 0.9091576670123429,
          0.9715059509693926, 0.9982392741454446)
_K33_W = (0.0951542160804983, 0.09343867406092123, 0.08833750257911273,
          0.08005394126371929, 0.06886299519153125, 0.055205633095422174,
          0.039512951202421966, 0.022498859440049444, 0.004742777049247318)
_K33_W_GAUSS = (0.09472840124723005, 0.09129203282819166, 0.08459580379259064,
                0.07476982388559955, 0.062358806011834855, 0.047506215976407015,
                0.031260543647380526, 0.013257930688091158)


def _gauss_kronrod(gauss, x, w, w_gauss):
    """(nodes, Kronrod weights, Gauss weights) of the Kronrod extension of
    the gauss-point Gauss-Legendre rule; the Gauss nodes come first."""
    xg, wg = _gl(gauss)  # ascending, so |x| falls, then rises
    xk, wk, wkg = map(np.array, (x, w, w_gauss))
    return (np.concatenate([xg, -xk[:0:-1], xk]),
            np.concatenate([wkg[::-1], wkg, wk[:0:-1], wk]), wg)


_GK21 = _gauss_kronrod(10, _KRONROD_X, _KRONROD_W, _KRONROD_W_GAUSS)
_GK33 = _gauss_kronrod(16, _K33_X, _K33_W, _K33_W_GAUSS)


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
    row per state: B and alpha (T, m), c and v (T, m, n), t (T,).  The
    support radius is per state.
    """

    def __init__(self, B, alpha, c, v, t):
        self.B, self.alpha, self.c, self.v, self.t = B, alpha, c, v, t
        self.m, self.n = c.shape[1:]
        self.A = alpha.real  # > 0
        self.csq = (c**2).sum(axis=-1)  # (T, m)
        self.rho = np.sqrt(self.csq)
        self.peak = np.abs(B)
        # angular growth vector per packet
        self.G = 2.0 * alpha[..., None] * c + 2j * np.pi * v
        self.peak_max = (self.peak**2).max(axis=1, initial=0.0)  # (T,)

    @cached_property
    def pairs(self):
        """Per state and packet pair i <= j, the (T, J) factors of the pair sum.

        On the shell of radius r, conj(b_i) b_j is
        conj(B_i) B_j exp(log0 - a r^2) exp(z.w) with z = r S and
        S = conj(G_i) + G_j.  weight is conj(B_i) B_j, doubled off the
        diagonal to count the pair (j, i) too.  ss = S.S and
        gg = conj(G_i).G_j; with ai = conj(alpha_i), aj = alpha_j,
        si = S.conj(G_i) and sj = S.G_j, the products that _moment_values
        takes the real part of are rr0 = 4 ai aj, rr1 = -4 (ai sj + aj si),
        sisj = si sj, fl0 = -i (ai - aj) and fl1 = -i (sj - si).
        """
        i, j = np.triu_indices(self.m)
        ai, aj = np.conj(self.alpha[:, i]), self.alpha[:, j]
        gi, gj = np.conj(self.G[:, i]), self.G[:, j]
        S = gi + gj
        si, sj = (S * gi).sum(axis=-1), (S * gj).sum(axis=-1)
        return {
            "weight": np.where(i == j, 1.0, 2.0) * np.conj(self.B[:, i]) * self.B[:, j],
            "log0": -ai * self.csq[:, i] - aj * self.csq[:, j], "a": ai + aj,
            "ss": (S * S).sum(axis=-1), "gg": (gi * gj).sum(axis=-1),
            "rr0": 4.0 * ai * aj, "rr1": -4.0 * (ai * sj + aj * si), "sisj": si * sj,
            "fl0": -1j * (ai - aj), "fl1": -1j * (sj - si),
        }

    @cached_property
    def pair_groups(self):
        """pairs split in two: the diagonal pairs i = j, as real arrays, and
        the others.  For i = j every factor is real (S = 2 Re G_i, so
        zeta = z.z >= 0), and so are their angular moments."""
        i, j = np.triu_indices(self.m)
        groups = [{key: val[:, i == j].real for key, val in self.pairs.items()}]
        if self.m > 1:
            groups.append({key: val[:, i != j] for key, val in self.pairs.items()})
        return groups

    def support_radii(self, tau: float) -> np.ndarray:
        """Per state, the radius past which the relative tail of every term
        is below tau."""
        ref = self.peak.max(axis=1, keepdims=True)
        logs = np.log(np.maximum(self.peak**2, 1e-300) / (tau * ref**2))
        d = np.sqrt(np.maximum(logs + _SAFETY_LOG, 1.0) / (2.0 * self.A))
        return (self.rho + d).max(axis=1)


def _coefficients(coeffs: ShellCoefficients, r, tangential=True):
    """w_mass, w_rr, w_flux and w_tau, each evaluated once on the radii r
    of a kernel block, in the shape of r; None where a term is absent."""
    return [None if fn is None else fn(r.ravel()).reshape(r.shape)
            for fn in (coeffs.w_mass, coeffs.w_rr, coeffs.w_flux,
                       coeffs.w_tau if tangential else None)]


def _panel_blocks(r, per_point):
    """Slices that walk the panels (rows) of the radii r in blocks of at
    most _KERNEL_BLOCK complex elements, per_point of them per radius."""
    step = max(1, _KERNEL_BLOCK // (r.shape[1] * per_point))
    return (slice(lo, lo + step) for lo in range(0, len(r), step))


def _shell_values(geom: _StateGeometry, r: np.ndarray, omega: np.ndarray,
                  wts: np.ndarray, coeffs: ShellCoefficients,
                  rows: np.ndarray) -> np.ndarray:
    """Angularly reduced integrand of state rows[p] at the radii r[p], for
    each row p of the (P, K) radii of a sweep of panels: (P, K).

    Sums the integrand over the directions omega with weights wts: S^0 in
    n = 1, a reference rule in n = 2, 3.  At x = r w packet i is
    B_i exp(E_i), E_i = -alpha_i (r^2 + |c_i|^2) + r w.G_i, so its envelope
    exponent is built once per packet and radius, and each direction adds
    the one product r w.G_i; its radial derivative is that value times
    w.G_i - 2 alpha_i r.  The field arrays run packet first and radius
    last, (m, A, P, K), so the packet sums are sums over the leading axis
    and every elementwise loop runs along the radii.  Every packet is taken
    relative to the phase of packet 0 at the same point, B_i exp(E_i - i
    Im E_0): a phase shared by all packets cancels in every quadratic term,
    since du/dr and grad u are sums over the same packets, so packet 0
    costs a real exp, and only the others a complex one.  The geometry is
    gathered once per panel, and the panels are walked in blocks of at
    most _KERNEL_BLOCK complex elements, each of which evaluates every
    coefficient function once on its radii.  No r^{n-1} factor yet.
    """
    n = geom.n
    out = np.empty(r.shape)
    for block in _panel_blocks(r, len(wts) * geom.m):
        state = rows[block]
        q = r[block]  # (P, K), the trailing axes of the (m, A, P, K) fields
        w_mass, w_rr, w_flux, w_tau = _coefficients(coeffs, q, n > 1)
        alpha = geom.alpha[state].T[:, None, :, None]  # (m, 1, P, 1)
        G = geom.G[state].transpose(1, 0, 2)  # (m, P, n)
        og = (omega @ G.transpose(0, 2, 1))[..., None]  # w.G_i: (m, A, P, 1)
        envelope = -alpha[:, 0] * (q * q + geom.csq[state].T[..., None])  # (m, P, K)
        exponent = envelope[:, None] + q * og
        vals = np.empty(exponent.shape, dtype=complex)
        vals[0] = np.exp(exponent[0].real)
        exponent.imag[1:] -= exponent[0].imag
        np.exp(exponent[1:], out=vals[1:])
        vals *= geom.B[state].T[:, None, :, None]
        u = vals.sum(axis=0)  # (A, P, K)
        pieces = np.zeros(u.shape, dtype=float)
        if w_mass is not None:
            pieces += w_mass * (u.real**2 + u.imag**2)
        if coeffs.needs_gradient():
            ur = (vals * (og - 2.0 * alpha * q)).sum(axis=0)
            ursq = ur.real**2 + ur.imag**2
            if w_rr is not None:
                pieces += w_rr * ursq
            if w_flux is not None:
                pieces += w_flux * (u.real * ur.imag - u.imag * ur.real)
            if w_tau is not None:
                # grad u = sum_i vals_i (G_i - 2 alpha_i x), one axis at a time
                s0 = (alpha * vals).sum(axis=0)
                gsq = np.zeros(u.shape, dtype=float)
                for k in range(n):
                    g = (vals * G[:, None, :, None, k]).sum(axis=0) \
                        - 2.0 * s0 * (q * omega[:, k, None, None])
                    gsq += g.real**2 + g.imag**2
                pieces += w_tau * np.maximum(gsq - ursq, 0.0)
        out[block] = np.einsum("a,a...->...", wts, pieces)
    return out


def _angular_moments(n, zeta):
    """(Re s, moments) at zeta = z.z for n = 2, 3, where s = sqrt(zeta)
    with Re s >= 0 and moments stacks F, F', F'' scaled by exp(-Re s).

    F(zeta) = |S^{n-1}| 0F1(; n/2; zeta/4) is the integral of exp(z.w)
    over the unit sphere, and F', F'' are its derivatives in zeta: F is
    2 pi I_0(s) in n = 2 and 4 pi sinh(s)/s in n = 3.  Below |zeta| =
    _SERIES_BELOW the three come from one Horner pass of the series.  A
    real zeta, which must be >= 0, gives real moments by real arithmetic
    throughout.  Raises InvalidParameterError past the range of the
    complex Bessel functions, where they would return NaN.
    """
    root = np.sqrt(zeta)
    grow = root.real
    moments = np.empty((3,) + zeta.shape, dtype=zeta.dtype)
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
            # i0e/i1e where zeta > 0: all of a real zeta (the diagonal
            # pairs), and any real positive zeta of the other pairs
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
            if np.iscomplexobj(s):
                p, q = np.exp(1j * s.imag), np.exp(-2.0 * s.real - 1j * s.imag)
            else:
                p, q = 1.0, np.exp(-2.0 * s)
            sh, ch = 0.5 * (p - q), 0.5 * (p + q)
            moments[:, big] = (4.0 * np.pi * sh / s,
                               2.0 * np.pi * (s * ch - sh) / (s * z2),
                               np.pi * ((z2 + 3.0) * sh - 3.0 * s * ch) / (s * z2 * z2))
    return grow, moments


def _pair_sum(*terms):
    """Sum over (coef, moment) terms of sum_j coef[p, j] moment[p, j, k]."""
    return sum((coef[:, None, :] @ moment)[:, 0] for coef, moment in terms)


def _moment_values(geom: _StateGeometry, r: np.ndarray,
                   coeffs: ShellCoefficients, rows: np.ndarray) -> np.ndarray:
    """Angularly integrated integrand in n = 2, 3 of state rows[p] at the
    radii r[p], for each row p of the (P, K) radii of a sweep: (P, K).

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
    diagonal pairs i = j run as real arrays, exp and moments included
    (_StateGeometry.pair_groups), so one-packet data use no complex
    arithmetic; the tangential term is clamped at 0 once, on the sum over
    all pairs.  The cost per radius is that of the m(m+1)/2 pairs, whatever
    the angular band.  The panels are walked in blocks, as in _shell_values.
    """
    out = np.zeros(r.shape)
    for block in _panel_blocks(r, geom.pairs["ss"].shape[1]):
        q = r[block]
        w_mass, w_rr, w_flux, w_tau = _coefficients(coeffs, q)
        rsq = q * q
        part, tau = out[block], 0.0
        for group in geom.pair_groups:
            p = {key: val[rows[block]] for key, val in group.items()}  # (P, J)
            grow, moments = _angular_moments(geom.n, p["ss"][..., None] * rsq[:, None])
            env = p["weight"][..., None] * np.exp(
                p["log0"][..., None] - p["a"][..., None] * rsq[:, None] + grow)
            f0, f1, f2 = env * moments  # (P, J, K) each
            if w_mass is not None:
                part += w_mass * f0.sum(axis=1).real
            if w_rr is not None:
                part += w_rr * (rsq * _pair_sum(
                    (p["rr0"], f0), (p["rr1"], f1), (4.0 * p["sisj"], f2)).real
                    + 2.0 * _pair_sum((p["gg"], f1)).real)
            if w_tau is not None:
                tau = tau + _pair_sum((p["gg"], f0 - 2.0 * f1)).real \
                    - 4.0 * rsq * _pair_sum((p["sisj"], f2)).real
            if w_flux is not None:
                part += w_flux * q * _pair_sum((p["fl0"], f0), (p["fl1"], f1)).real
        if w_tau is not None:
            part += w_tau * np.maximum(tau, 0.0)
    return out


def _kronrod_sweep(rule, a, b, integrand):
    """(Kronrod value, |Kronrod - Gauss value|) on each panel [a_p, b_p] of
    a sweep, a and b being edge arrays of shape (P,): both of shape (P,),
    or (P, J) for an integrand of J columns.

    rule is a (nodes, Kronrod weights, Gauss weights) triple of
    _gauss_kronrod, Gauss nodes first.  integrand is called once, on the
    (P, K) nodes of every panel, and returns their values as (P, K), or
    as (P, J, K) for J columns.
    """
    nodes, wk, wg = rule
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    values = integrand(mid[:, None] + half[:, None] * nodes)
    half = half.reshape(half.shape + (1,) * (values.ndim - 2))
    coarse = half * (values[..., :len(wg)] * wg).sum(axis=-1)
    fine = half * (values * wk).sum(axis=-1)
    return fine, np.abs(fine - coarse)


def _panel_value(geom, rows, a, b, coeffs):
    """(value_33, |value_33 - value_16|) of state rows[p] on each radial
    panel [a_p, b_p] of a sweep, by _kronrod_sweep on K33; rows, a, b and
    both results have shape (P,).

    The 33 radii of all P panels go to one kernel call, which evaluates
    each weight coefficient once: the two-point rule of S^0 in n = 1, the
    pair sums of exact angular moments in n = 2, 3.
    """
    def integrand(r):  # (P, 33) radii -> (P, 33)
        if geom.n == 1:
            return _shell_values(geom, r, *_sphere_rule(1, 0), coeffs, rows)
        return _moment_values(geom, r, coeffs, rows) * r ** (geom.n - 1)

    return _kronrod_sweep(_GK33, a, b, integrand)


def _adaptive(panel, rows, a, b, rel_tol, floor):
    """Refinement of C integrals of J columns each in rounds of batched splits.

    The panels [a_p, b_p] are kept as flat arrays (P,), and panel p
    belongs to component rows[p] < C.  panel(rows, a, b) evaluates a sweep
    of panels and returns their (values, errors), both of shape (P,) for
    one column, or (P, J): one value and one error per column.  Column j
    of component c meets its target when the sum of its errors is at most
    rel_tol * max(|value_cj|, floor_cj); floor is (C,) or (C, J), and
    floor_cj is its magnitude if nonzero, else the column's first total.
    All initial panels go to one call.  Each round splits, in every column
    over its target, the fewest of its component's worst panels, by that
    column's errors, that leave at most _KEEP of the target on the rest,
    and sends the halves of every panel some column picked to one more
    call, as scipy.integrate.quad_vec does.  Returns (values, errors,
    panels) with values and errors of shape (C,), or (C, J) as panel
    gives them; raises ToleranceNotMetError for the worst column when a
    round would take a component past _MAX_PANELS or split a panel under
    2^-40 of its component's interval.
    """
    count = len(floor)
    values, errors = panel(rows, a, b)
    shape = (count,) + values.shape[1:]
    width = values.size // len(a)  # the columns J
    values, errors = values.reshape(-1, width), errors.reshape(-1, width)
    length = np.bincount(rows, b - a, count)

    def columns():  # the flat index c * J + j of each value's column
        return (rows[:, None] * width + np.arange(width)).ravel()

    def totals(x):  # (P, J) panel values -> (C, J) column sums
        return np.bincount(col, x.ravel(), count * width).reshape(count, width)

    col = columns()
    floor = np.asarray(floor, dtype=float).reshape(count, -1)
    floor = np.abs(np.where(floor, floor, totals(values)))
    while True:
        value, err = totals(values), totals(errors)
        target = np.maximum(rel_tol * np.maximum(np.abs(value), floor), 1e-300)
        if np.all(err <= target):
            return value.reshape(shape), err.reshape(shape), len(a)
        # each column's panels, worst first, and the rank of each there
        flat = errors.ravel()
        order = np.lexsort((-flat, col))
        owner = col[order]
        rank = np.arange(len(order)) - np.searchsorted(owner, owner)
        # left[k, i]: the error left on column k's panels after its i worst
        left = np.zeros((count * width, rank.max() + 2))
        left[owner, rank] = flat[order]
        left = np.cumsum(left[:, ::-1], axis=1)[:, ::-1]
        goal = target.ravel()
        take = np.where(err.ravel() > goal, 1 + np.count_nonzero(
            left[:, 1:] > _KEEP * goal[:, None], axis=1), 0)
        split = np.zeros(len(a), dtype=bool)
        split[order[rank < take[owner]] // width] = True
        if np.any(np.bincount(rows, minlength=count)
                  + np.bincount(rows[split], minlength=count) > _MAX_PANELS) \
                or np.any((b - a)[split] < 2.0**-40 * length[rows[split]]):
            c = np.unravel_index(np.argmax(err / target), err.shape)
            raise ToleranceNotMetError(float(value[c]), float(err[c]),
                                       float(target[c]))
        mid = 0.5 * (a[split] + b[split])
        halves = (np.tile(rows[split], 2), np.concatenate([a[split], mid]),
                  np.concatenate([mid, b[split]]))
        new_values, new_errors = panel(*halves)
        rows, a, b, values, errors = (
            np.concatenate([old[~split], new]) for old, new in
            zip((rows, a, b, values, errors),
                halves + (new_values.reshape(-1, width), new_errors.reshape(-1, width))))
        col = columns()


def _initial_panels(geom, knots, reach):
    """(rows, a, b) of the starting panel sets of all states at once.

    State s's set runs over [0, reach[s]], cut at the weight knots and at
    its own packet centres, and each piece is split evenly into panels no
    wider than twice the width of its sharpest packet, or reach[s]/64 if
    that is wider.
    """
    T = len(reach)
    cuts = np.concatenate([np.zeros((T, 1)), np.broadcast_to(
        np.asarray(knots, dtype=float), (T, len(knots))), geom.rho, reach[:, None]],
        axis=1)
    cuts = np.sort(np.minimum(cuts, reach[:, None]), axis=1)  # past reach: empty
    width = np.diff(cuts, axis=1)
    cap = np.maximum(2.0 / np.sqrt(2.0 * geom.A.max(axis=1)), reach / 64.0)
    pieces = np.ceil(width / cap[:, None]).astype(int).ravel()
    step = np.repeat((width.ravel() / np.maximum(pieces, 1)), pieces)
    k = np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    a = np.repeat(cuts[:, :-1].ravel(), pieces) + k * step
    # each panel ends where the next begins, a state's last at its reach
    rows = np.repeat(np.arange(T), pieces.reshape(T, -1).sum(axis=1))
    last = np.append(rows[1:] != rows[:-1], True)
    b = np.where(last, reach[rows], np.append(a[1:], 0.0))
    return rows, a, b


def shell_integrals(batch, coeffs: ShellCoefficients, radii=(np.inf,),
                    scales=None, rel_tol: float = REL_TOL):
    """Integrate the shell integrand of each state of a batch over the
    balls of radii R_j: (values, info), values of shape (T, J).

    batch is the tuple (B, alpha, c, v, t) of the states' packet arrays,
    stacked one row per state, as _StateGeometry takes them.  radii (J,)
    strictly increase from R_1 > 0, and column j integrates over [0, R_j],
    or over the state's envelope, past which the relative tail mass is
    below _TAU_SPACE, if that is shorter: R_j = inf is no cut-off, so the
    default (inf,) is the one column of the whole space.  Each state's
    panel set runs to min(envelope, R_J), cut at every R_j, column j
    summing the panels inside R_j, and all the sets refine in the same
    rounds of _adaptive until each column meets rel_tol * max(|value|,
    scale), scales being (T,) or (T, J); a missing scale is the column's
    first total.  info carries the (T, J) errors and the panel count.
    Raises InvalidParameterError for other radii, and ToleranceNotMetError
    when a state's panel set runs out of its _MAX_PANELS budget.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or not radii.size or not np.all(radii > 0.0) \
            or np.any(np.diff(radii) <= 0.0):
        raise InvalidParameterError(
            f"radii must be positive and strictly increase, got {radii}")
    geom = _StateGeometry(*batch)
    if geom.n > 3:
        raise InvalidParameterError("shell quadrature supports n <= 3")
    shape = (len(geom.t), len(radii))
    if not (geom.m and geom.peak_max.any()):
        return np.zeros(shape), {"abs_error": np.zeros(shape), "panels": 0}

    def panel(rows, a, b):
        inside = b[:, None] <= radii  # no panel straddles an R_j
        return tuple(np.where(inside, x[:, None], 0.0)
                     for x in _panel_value(geom, rows, a, b, coeffs))

    reach = np.minimum(geom.support_radii(_TAU_SPACE), radii[-1])
    values, errors, panels = _adaptive(
        panel, *_initial_panels(geom, (*coeffs.knots, *radii), reach), rel_tol,
        np.zeros(shape[0]) if scales is None else np.asarray(scales, dtype=float))
    return values, {"abs_error": errors, "panels": panels}


def _states_batch(states):
    """The batch (B, alpha, c, v, t) of states with equal packet counts,
    their packet arrays stacked one row per state, for shell_integrals."""
    return tuple(np.stack([getattr(st, name) for st in states])
                 for name in ("B", "alpha", "c", "v")) + (
        np.array([st.t for st in states]),)


def shell_integral(state, coeffs: ShellCoefficients,
                   scale: float | None = None):
    """Integrate the shell integrand of one state over its envelope.

    The one-state case of shell_integrals at rel_tol REL_TOL, with scale
    as the magnitude floor of the target.  Returns (value, info) where
    info carries the error estimate and panel count.  Raises
    ToleranceNotMetError when the panel budget runs out.
    """
    values, info = shell_integrals(_states_batch([state]), coeffs,
                                   scales=None if scale is None else [scale])
    return float(values[0, 0]), {"abs_error": float(info["abs_error"][0, 0]),
                                 "panels": info["panels"]}


# ---------------------------------------------------------------------------
# adaptive time integration
# ---------------------------------------------------------------------------

def adaptive_time_integral(fn, a: float, b: float, rel_tol: float,
                           scale, points=()):
    """(int_a^b fn(t) dt, error estimate) by K21 panels, each with
    |K21 - G10| as its error, through _kronrod_sweep.

    fn maps a 1-D array of k times to its values there, shape (k,), or
    (k, J) for J columns, each integrated on its own, and is called once
    per refinement round on the 21 nodes of each panel of that round's
    sweep: 21 per initial panel first, then 42 per panel split.  The
    initial panels are [a, b] cut at points, breakpoints that strictly
    increase inside (a, b), as scipy.integrate.quad takes its points.
    Each column's absolute target is rel_tol * max(|total|, |scale|),
    scale being a float or one per column: the scale floor keeps
    near-cancelling integrals from demanding impossible relative accuracy.
    Returns floats for an fn of shape (k,), arrays (J,) for (k, J).
    Raises InvalidParameterError before any call unless a, b and the
    points are finite and increase, and when fn returns another shape;
    ToleranceNotMetError when the _MAX_PANELS budget runs out.
    """
    edges = np.array([a, *points, b], dtype=float)
    if not np.all(np.isfinite(edges)):
        raise InvalidParameterError(f"time bounds must be finite, got [{a}, {b}] "
                                    f"with breakpoints {list(points)}")
    if np.any(np.diff(edges) <= 0.0):
        raise InvalidParameterError(f"breakpoints {list(points)} must strictly "
                                    f"increase inside [{a}, {b}]")

    def integrand(t):  # (P, 21) nodes -> (P, 21), or (P, J, 21)
        values = _time_values(fn, t.ravel())
        if values.ndim == 1:
            return values.reshape(t.shape)
        return np.ascontiguousarray(
            values.reshape(t.shape + values.shape[1:]).transpose(0, 2, 1))

    value, err, _ = _adaptive(
        lambda _, lo, hi: _kronrod_sweep(_GK21, lo, hi, integrand),
        np.zeros(len(edges) - 1, dtype=int), edges[:-1], edges[1:], rel_tol,
        np.asarray(scale, dtype=float).reshape(1, -1))
    if value.ndim == 1:
        return float(value[0]), float(err[0])
    return value[0], err[0]


def _time_values(fn, t):
    """fn at the 1-D times t; InvalidParameterError unless of shape (k,) or
    (k, J) for the k times."""
    values = np.asarray(fn(t), dtype=float)
    if values.ndim not in (1, 2) or values.shape[0] != t.size:
        raise InvalidParameterError(
            f"the time integrand fn must return shape (k,) or (k, J) for k "
            f"times, got {values.shape} for {t.size}")
    return values


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
        values = _time_values(fn, si / omi)
        jac = (1.0 + si * si) / omi**2
        out = np.zeros(s.shape + values.shape[1:])
        out[inside] = values * jac.reshape(jac.shape + (1,) * (values.ndim - 1))
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

    fn is vectorised as for adaptive_time_integral, of shape (k,) or
    (k, J), and scale and the result are as there.  The substitution maps
    polynomial dispersive decay to a bounded smooth integrand, integrated
    on four initial panels cut at s = -1/2, 0 and 1/2; Gauss-Kronrod nodes
    are interior so the endpoints are never evaluated.  The panel budget
    is _MAX_PANELS, as for adaptive_time_integral.
    """
    return adaptive_time_integral(_on_compact_line(fn), -1.0, 1.0, rel_tol,
                                  scale, points=(-0.5, 0.0, 0.5))
