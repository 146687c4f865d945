"""Space-time functionals of the free evolution.

Everything here reduces to one pattern: a radial-shell spatial integral of
quadratic expressions in (u, du/dr, grad_tau u) with radial coefficients
drawn from a weight's derivative stack, integrated in time either over a
finite window [-T, T] or over the whole line through the compactifying
substitution t = s/(1 - s^2).

Error budget: every functional works to the fixed relative tolerance
REL_TOL of the quadrature module.  The time integrator works toward an
absolute target REL_TOL * max(|integral|, mass floor).  A time sweep
evolves the datum's packet arrays to the nodes of all its panels in one
call and integrates them, one row per node, in one shell_integrals call;
each node's spatial integral works to a quarter of REL_TOL, with an
absolute floor of the mass floor divided by the time-domain width: summed
over the window, the floors allow at most a quarter of the time layer's
least target, REL_TOL * mass floor.  Without the division the spatial
error would swamp the panel error estimates on long windows.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from .errors import InvalidParameterError, InvalidWeightError
from .model import RadialWeight, WavePacketSum, l2_norm_sq
from .propagator import (_evolve_times, difference_state, dispersive_approx,
                         evolve_analytic)
from .quadrature import (REL_TOL, ShellCoefficients, _compact_line_rate,
                         adaptive_time_integral, real_line_time_integral,
                         shell_integral, shell_integrals)
from .weights import radial_laplacians, rescale

_SPACE_FACTOR = 0.25  # spatial tolerance tightening inside time integrals


def _weight_scale(w: RadialWeight) -> float:
    return 1.0 + abs(w.slope_inf)


def _time_integrated(f: WavePacketSum, coeffs: ShellCoefficients,
                     horizon: float | None, scale: float,
                     r_max: float | None = None) -> float:
    """Integrate a shell functional of u(t) over time.

    horizon = T integrates [-T, T]; None integrates the whole line through
    the s-substitution.  scale is the magnitude floor for both layers.
    """
    width = 2.0 * horizon if horizon is not None else 2.0
    space_tol = _SPACE_FACTOR * REL_TOL
    space_scale = scale / max(width, 1.0)

    def fn(ts):
        # the nodes of a whole time sweep in one batch, each to its own floor;
        # on the whole line the floor shrinks by ds/dt so that the jacobian-
        # multiplied values carry uniform error per unit s.  Either way the
        # accepted spatial error stays <= space_tol * scale in total.
        floors = (np.full(len(ts), space_scale) if horizon is not None
                  else space_scale * _compact_line_rate(ts))
        values, _ = shell_integrals(_evolve_times(f, ts), coeffs, r_max=r_max,
                                    scales=floors, rel_tol=space_tol)
        return values

    if horizon is None:
        return real_line_time_integral(fn, REL_TOL, scale)[0]
    return adaptive_time_integral(fn, -horizon, horizon, REL_TOL, scale)[0]


# ---------------------------------------------------------------------------
# profiles over balls
# ---------------------------------------------------------------------------

def _ball_profile(f: WavePacketSum, R: float, tangential: bool) -> float:
    R = float(R)
    if not 0.0 < R < np.inf:  # False for NaN too
        raise InvalidParameterError(f"ball radius must be finite and positive, got {R}")
    one = lambda r: np.ones_like(r)
    coeffs = ShellCoefficients(w_rr=one, w_tau=one if tangential else None)
    scale = l2_norm_sq(f) * R
    return _time_integrated(f, coeffs, None, scale, r_max=R) / R


def smoothing_profile(f: WavePacketSum, R: float) -> float:
    """(1/R) int_t int_{B_R} |grad u|^2 dx dt over the whole time line."""
    return _ball_profile(f, R, tangential=True)


def radial_profile(f: WavePacketSum, R: float) -> float:
    """(1/R) int_t int_{B_R} |du/dr|^2 dx dt over the whole time line."""
    return _ball_profile(f, R, tangential=False)


# ---------------------------------------------------------------------------
# weighted identity sides
# ---------------------------------------------------------------------------

def _morawetz_coeffs(w: RadialWeight, n: int) -> ShellCoefficients:
    def w_mass(r):
        _, bilap = radial_laplacians(w, r, n)
        return -0.25 * bilap

    def w_tau(r):
        return w.d1(r) / r

    return ShellCoefficients(w_rr=w.d2, w_tau=w_tau, w_mass=w_mass, knots=w.knots)


def morawetz_lhs(f: WavePacketSum, w: RadialWeight, T: float) -> float:
    """int_{-T}^{T} int [psi''|du/dr|^2 + (psi'/r)|grad_tau u|^2
    - (1/4)|u|^2 Lap^2 psi] dx dt.

    The Hessian form contracts to the radial/tangential split because psi
    is radial.
    """
    scale = l2_norm_sq(f) * _weight_scale(w)
    return _time_integrated(f, _morawetz_coeffs(w, f.n), float(T), scale)


def flux(f: WavePacketSum, w: RadialWeight, t: float) -> float:
    """Im int conj(u) psi'(r) du/dr dx at time t."""
    state = evolve_analytic(f, float(t))
    coeffs = ShellCoefficients(w_flux=w.d1, knots=w.knots)
    scale = l2_norm_sq(f) * _weight_scale(w)
    value, _ = shell_integral(state, coeffs, scale=scale)
    return value


def boundary_term(f: WavePacketSum, w: RadialWeight, T: float) -> float:
    """Difference of radiation fluxes at the two endpoints of [-T, T].

    Equals (flux(T) - flux(-T))/2, the time-boundary contribution that the
    weighted space-time identity produces after integrating by parts.
    """
    T = float(T)
    return 0.5 * (flux(f, w, T) - flux(f, w, -T))


# ---------------------------------------------------------------------------
# remainder terms of the rescaled-weight identity
# ---------------------------------------------------------------------------

_HYPOTHESIS_CAP = 1e3
# reaches far enough out that linear slope growth overtakes the cap
_HYPOTHESIS_LATTICE = np.geomspace(0.01, 1e6, 200)
_HYPOTHESIS_LATTICE.setflags(write=False)


def check_remainder_hypotheses(w: RadialWeight, n: int) -> None:
    """Reject weights that flagrantly violate the remainder-decay bounds.

    Required: a bounded slope |psi'| <= C and cubic decay
    |Lap^2 psi| <= C/(1+r)^3, both probed on a log lattice.
    """
    r = _HYPOTHESIS_LATTICE
    slope = np.abs(w.d1(r))
    _, bilap = radial_laplacians(w, r, n)
    decay = np.abs(bilap) * (1.0 + r) ** 3
    if not np.all(np.isfinite(slope)) or slope.max() > _HYPOTHESIS_CAP:
        raise InvalidWeightError(
            f"weight {w.label!r}: |psi'| exceeds {_HYPOTHESIS_CAP:g} on the check lattice"
        )
    if not np.all(np.isfinite(decay)) or decay.max() > _HYPOTHESIS_CAP:
        raise InvalidWeightError(
            f"weight {w.label!r}: |Lap^2 psi| (1+r)^3 exceeds {_HYPOTHESIS_CAP:g} "
            "on the check lattice"
        )


# _sign_changes samples a lattice that spans a weight's knots by
# _KINK_DECADES either way, at _KINK_PER_DECADE radii a decade and as many
# equal steps between neighbouring knots, then each bracket of a sign
# change at _KINK_STEPS equal steps; brentq locates the root of the local
# cubic to _KINK_XTOL of a step, well under an ulp of the radius
_KINK_DECADES = 3
_KINK_PER_DECADE = 64
_KINK_STEPS = 256
_KINK_XTOL = 1e-13


def _flips(values):
    """Index arrays (a, b) of the neighbouring nonzero values of opposite
    sign, a < b."""
    nonzero = np.flatnonzero(values)
    k = np.flatnonzero(np.sign(values[nonzero[:-1]]) != np.sign(values[nonzero[1:]]))
    return nonzero[k], nonzero[k + 1]


def _sign_changes(g, knots) -> tuple:
    """The radii where g changes sign, each to a few ulp, in two calls of g.

    |g| changes analytic piece at a sign change of g, so these radii are
    knots of the coefficient |g|.  g is sampled on a lattice: a geometric
    one from 10^-_KINK_DECADES of the least positive knot to
    10^_KINK_DECADES times the largest (about 1 if there are none), plus _KINK_PER_DECADE equal
    steps between neighbouring knots.  Neighbouring nonzero samples of
    opposite sign bracket a zero.  Each bracket is sampled again at
    _KINK_STEPS equal steps, all brackets in one call, and its zero is the
    root of the cubic through the four samples around the first change,
    which a step h leaves off by order h^4.
    """
    edges = sorted(k for k in knots if k > 0.0) or [1.0]  # g is read on r > 0
    lo, hi = edges[0] * 10.0**-_KINK_DECADES, edges[-1] * 10.0**_KINK_DECADES
    r = np.unique(np.concatenate(
        [np.geomspace(lo, hi, int(_KINK_PER_DECADE * np.log10(hi / lo)) + 1)]
        + [np.linspace(a, b, _KINK_PER_DECADE + 1) for a, b in zip(edges, edges[1:])]))
    a, b = _flips(g(r))
    if not a.size:
        return ()
    grid = np.linspace(r[a], r[b], _KINK_STEPS + 1, axis=1)
    values = g(grid.ravel()).reshape(grid.shape)
    zeros = []
    for x, y in zip(grid, values):
        i = _flips(y)[0][0]  # y[i + 1] is 0 or of the other sign
        # the cubic through the four samples around i in Lagrange form, in
        # steps from x[i]: it takes each sample's sign exactly at its node,
        # so it changes sign on [0, 1] as the samples do
        start = min(max(i - 1, 0), len(x) - 4)
        nodes = [float(k) for k in range(start - i, start - i + 4)]
        scaled = [float(yk) / math.prod(sk - sm for sm in nodes if sm != sk)
                  for sk, yk in zip(nodes, y[start:start + 4])]

        def cubic(s):
            return sum(wk * math.prod(s - sm for sm in nodes if sm != sk)
                       for sk, wk in zip(nodes, scaled))

        t = brentq(cubic, 0.0, 1.0, xtol=_KINK_XTOL)
        zeros.append(float(x[i] + t * (x[i + 1] - x[i])))
    return tuple(zeros)


def _remainder_pair(f: WavePacketSum, w: RadialWeight, signed: bool):
    """(tangential, bilaplacian) whole-line integrals with coefficients
    psi'(r)/r and Lap^2 psi(r), or their absolute values unless signed.
    An absolute value changes analytic piece where its argument changes
    sign, so its coefficient's knots add those radii (_sign_changes)."""
    scale = l2_norm_sq(f) * _weight_scale(w)

    def bilap(r):
        return radial_laplacians(w, r, f.n)[1]

    def w_mass(r):
        return bilap(r) if signed else np.abs(bilap(r))

    knots = w.knots if signed else w.knots + _sign_changes(bilap, w.knots)
    bilaplacian = _time_integrated(
        f, ShellCoefficients(w_mass=w_mass, knots=knots), None, scale
    )
    if f.n == 1:
        # the line has no tangential directions: skip a whole-line integral of 0
        return 0.0, bilaplacian

    def w_tau(r):
        return (w.d1(r) if signed else np.abs(w.d1(r))) / r

    knots = w.knots if signed else w.knots + _sign_changes(w.d1, w.knots)
    tangential = _time_integrated(
        f, ShellCoefficients(w_tau=w_tau, knots=knots), None, scale
    )
    return tangential, bilaplacian


def remainder_terms(f: WavePacketSum, w_base: RadialWeight, R: float):
    """Absolute-value remainders of the identity under the rescaled weight.

    Returns (tangential, bilaplacian):

        tangential   = int_t int (|grad_tau u|^2 / r) |psi_R'(r)| dx dt
        bilaplacian  = int_t int |u|^2 |Lap^2 psi_R(r)| dx dt

    with psi_R(r) = R psi(r/R).  Both shrink as R grows when the base
    weight has a bounded slope and a cubically decaying bilaplacian.

    Caveat for n = 1: the absolute-value bilaplacian integrand decays only
    like 1/|t| when the datum's transform is nonzero at the origin, so the
    whole-line integral is infinite and the quadrature reports
    non-convergence.  Use data with fhat(0) = 0 (odd packet combinations)
    there; in n >= 2 the dispersive decay is strong enough for any datum.
    """
    check_remainder_hypotheses(w_base, f.n)
    # rescaling keeps slope_inf, so the magnitude floor is the base weight's
    tangential, bilaplacian = _remainder_pair(
        f, rescale(w_base, float(R)), signed=False)
    return max(tangential, 0.0), max(bilaplacian, 0.0)


def morawetz_remainder_split(f: WavePacketSum, w: RadialWeight):
    """Signed tangential and bilaplacian parts of the whole-line identity.

    Returns (tangential, bilaplacian) where the identity reads

        int_t int psi''|du/dr|^2 + tangential - (1/4) bilaplacian
            = 2 pi psi'(inf) ||f||^2_{H^{1/2}}.

    Unlike remainder_terms, the bilaplacian here is signed; oscillation in
    time makes it converge in n = 1 even when the absolute version does
    not.
    """
    return _remainder_pair(f, w, signed=True)


def weighted_radial_energy(f: WavePacketSum, w: RadialWeight) -> float:
    """Whole-line integral int_t int psi''(r) |du/dr|^2 dx dt."""
    coeffs = ShellCoefficients(w_rr=w.d2, knots=w.knots)
    scale = l2_norm_sq(f) * _weight_scale(w)
    return _time_integrated(f, coeffs, None, scale)


# ---------------------------------------------------------------------------
# dispersive approximation error
# ---------------------------------------------------------------------------

def dispersive_l2_error(f: WavePacketSum, t: float) -> float:
    """||u(t) - approximant(t)||_L2 by shell quadrature of the difference.

    The difference of the exact state and the far-field approximant is
    itself a Gaussian family, so the same spatial engine integrates its
    square density; the closed-form Gram sum serves as the test oracle.
    """
    diff = difference_state(evolve_analytic(f, t), dispersive_approx(f, t))
    coeffs = ShellCoefficients(w_mass=lambda r: np.ones_like(r))
    value, _ = shell_integral(diff, coeffs)
    return math.sqrt(max(value, 0.0))
