"""Space-time functionals of the free evolution.

Everything here reduces to one pattern: a radial-shell spatial integral of
quadratic expressions in (u, du/dr, grad_tau u) with radial coefficients
drawn from a weight's derivative stack, integrated in time over a window
[-T, T]: a finite one, or the window of horizon inf, the whole line,
through the compactifying substitution t = s/(1 - s^2).

Schedules: the public functions take one time, horizon or radius and
return a float, or a 1-D schedule of them and return one value per
point, computed as the columns of one integral (the quadrature module's
columns).  flux, boundary_term and dispersive_l2_error integrate the
states of all their times in one shell_integrals batch.  morawetz_lhs
integrates over the widest window [-T_J, T_J] once, with initial time
panels cut at 0 and at every +-T_j, and horizon j's column is the density
times the indicator of [-T_j, T_j].  The ball profiles integrate each time
node out to the largest radius once, with radial panels cut at every R_j,
and ball j's column sums the panels inside R_j.  Every schedule point
keeps the error target it has on its own.

Error budget: every functional works to the fixed relative tolerance
REL_TOL of the quadrature module.  The time integrator works toward an
absolute target REL_TOL * max(|integral|, mass floor) per column.  A time
sweep evolves the datum's packet arrays to the nodes of all its panels in
one call and integrates them, one row per node, in one shell_integrals
call; each node's spatial integral works to a quarter of REL_TOL, with an
absolute floor of the mass floor divided by the time-domain width, the
widest window's: summed over the window, the floors allow at most a
quarter of the time layer's least target, REL_TOL * mass floor.  Without
the division the spatial error would swamp the panel error estimates on
long windows.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, InvalidWeightError
from .model import RadialWeight, WavePacketSum, l2_norm_sq
from .propagator import (_evolve_times, difference_state, dispersive_approx,
                         evolve_analytic)
from .quadrature import (REL_TOL, ShellCoefficients, _compact_line_rate,
                         _states_batch, adaptive_time_integral,
                         real_line_time_integral, shell_integrals)
from .weights import radial_laplacians, rescale

_SPACE_FACTOR = 0.25  # spatial tolerance tightening inside time integrals


def _weight_scale(w: RadialWeight) -> float:
    return 1.0 + abs(w.slope_inf)


def _schedule(points, what: str, ordered: bool = True, least: int = 1):
    """(points as a new 1-D float array, whether one scalar was given).

    The one check of a schedule: a functional's points, a driver's
    schedule and the limit fit's parameters.  InvalidParameterError unless
    points is a scalar or a 1-D array of at least least values, all
    finite; an ordered schedule must also be positive and strictly
    increase.
    """
    pts = np.array(points, dtype=float)
    scalar = pts.ndim == 0
    pts = pts.reshape(1) if scalar else pts
    if pts.ndim != 1:
        raise InvalidParameterError(f"a {what} schedule must be 1-D, got shape {pts.shape}")
    if pts.size < least:
        raise InvalidParameterError(
            f"{what} needs at least {least} schedule points, got {pts.size}")
    for rule, ok in (("be finite", np.all(np.isfinite(pts))),
                     ("be positive", not ordered or np.all(pts > 0.0)),
                     ("strictly increase", not ordered or np.all(np.diff(pts) > 0.0))):
        if not ok:
            raise InvalidParameterError(
                f"{what} schedule points must {rule}, got {pts.tolist()}")
    return pts, scalar


def _per_point(values, scalar: bool):
    """A float for a scalar argument, else the array of one value per point."""
    return float(values[0]) if scalar else values


def _time_integrated(f: WavePacketSum, coeffs: ShellCoefficients, scale,
                     horizons=(np.inf,), radii=(np.inf,)):
    """Integrate a shell functional of u(t) over time: the columns (J,).

    Column j is the integral over the window [-T_j, T_j] of horizons, an
    increasing array (J,), of the integral over the ball of radius R_j of
    radii (J,); the other schedule stays at its default (inf,).  A finite
    widest window [-T_J, T_J] has initial panels cut at 0 and at every
    +-T_j, and column j is the density times the indicator of [-T_j, T_j]:
    no panel straddles a cut, so column j is the integral over [-T_j, T_j].
    The window of horizon inf is the whole line, through the
    s-substitution.  scale is the magnitude floor for both layers, a float
    or one per column.
    """
    space_tol = _SPACE_FACTOR * REL_TOL
    widest = horizons[-1]
    whole = np.isinf(widest)
    # s runs over (-1, 1) on the whole line, and s = t on a window
    space_scale = np.asarray(scale, dtype=float) / (2.0 if whole else max(2.0 * widest, 1.0))

    def fn(ts):
        # the nodes of a whole time sweep in one batch, each column to its
        # own floor, shrunk by ds/dt so that the values, which the whole
        # line multiplies by dt/ds, carry uniform error per unit s: the
        # accepted spatial error stays <= space_tol * scale in total
        rate = _compact_line_rate(ts) if whole else np.ones(len(ts))
        values, _ = shell_integrals(_evolve_times(f, ts), coeffs, radii=radii,
                                    scales=np.multiply.outer(rate, space_scale),
                                    rel_tol=space_tol)
        return np.where(np.abs(ts)[:, None] <= horizons, values, 0.0)

    if whole:
        return real_line_time_integral(fn, REL_TOL, scale)[0]
    points = np.concatenate([-horizons[-2::-1], [0.0], horizons[:-1]])
    return adaptive_time_integral(fn, -widest, widest, REL_TOL, scale, points)[0]


# ---------------------------------------------------------------------------
# profiles over balls
# ---------------------------------------------------------------------------

def _ball_profile(f: WavePacketSum, R, tangential: bool):
    Rs, scalar = _schedule(R, "ball radius")
    one = lambda r: np.ones_like(r)
    coeffs = ShellCoefficients(w_rr=one, w_tau=one if tangential else None)
    scales = l2_norm_sq(f) * Rs
    return _per_point(_time_integrated(f, coeffs, scales, radii=Rs) / Rs, scalar)


def smoothing_profile(f: WavePacketSum, R):
    """(1/R) int_t int_{B_R} |grad u|^2 dx dt over the whole time line, at
    one radius R or at each of an increasing schedule of radii."""
    return _ball_profile(f, R, tangential=True)


def radial_profile(f: WavePacketSum, R):
    """(1/R) int_t int_{B_R} |du/dr|^2 dx dt over the whole time line, at
    one radius R or at each of an increasing schedule of radii."""
    return _ball_profile(f, R, tangential=False)


# ---------------------------------------------------------------------------
# weighted identity sides
# ---------------------------------------------------------------------------

def _bilaplacian(w: RadialWeight, r, n: int):
    """Lap^2 psi at the radii r in dimension n: on the line it is psi''''
    alone, so psi'' is not evaluated only to be dropped."""
    return w.d4(r) if n == 1 else radial_laplacians(w, r, n)[1]


def _morawetz_coeffs(w: RadialWeight, n: int) -> ShellCoefficients:
    def w_mass(r):
        return -0.25 * _bilaplacian(w, r, n)

    def w_tau(r):
        return w.d1(r) / r

    return ShellCoefficients(w_rr=w.d2, w_tau=w_tau, w_mass=w_mass, knots=w.knots)


def morawetz_lhs(f: WavePacketSum, w: RadialWeight, T):
    """int_{-T}^{T} int [psi''|du/dr|^2 + (psi'/r)|grad_tau u|^2
    - (1/4)|u|^2 Lap^2 psi] dx dt, at one horizon T or at each of an
    increasing schedule of horizons.

    The Hessian form contracts to the radial/tangential split because psi
    is radial.
    """
    Ts, scalar = _schedule(T, "horizon")
    scale = l2_norm_sq(f) * _weight_scale(w)
    return _per_point(_time_integrated(f, _morawetz_coeffs(w, f.n), scale,
                                       horizons=Ts), scalar)


def flux(f: WavePacketSum, w: RadialWeight, t):
    """Im int conj(u) psi'(r) du/dr dx at time t, or at each of a 1-D
    schedule of times, whose states are integrated in one batch."""
    ts, scalar = _schedule(t, "flux time", ordered=False)
    coeffs = ShellCoefficients(w_flux=w.d1, knots=w.knots)
    scale = l2_norm_sq(f) * _weight_scale(w)
    states = [evolve_analytic(f, ti) for ti in ts]
    values, _ = shell_integrals(_states_batch(states), coeffs,
                                scales=np.full(len(ts), scale))
    return _per_point(values[:, 0], scalar)


def boundary_term(f: WavePacketSum, w: RadialWeight, T):
    """Difference of radiation fluxes at the two endpoints of [-T, T], at
    one horizon T or at each of an increasing schedule of horizons.

    Equals (flux(T) - flux(-T))/2, the time-boundary contribution that the
    weighted space-time identity produces after integrating by parts.  The
    fluxes at every T and -T are one batch.
    """
    Ts, scalar = _schedule(T, "horizon")
    both = flux(f, w, np.concatenate([Ts, -Ts]))
    return _per_point(0.5 * (both[:len(Ts)] - both[len(Ts):]), scalar)


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
    decay = np.abs(_bilaplacian(w, r, n)) * (1.0 + r) ** 3
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
# equal steps between neighbouring knots; _zeros narrows each bracket of a
# sign change _KINK_ROUNDS times at _KINK_STEPS equal steps: the last
# bracket is about 2e-9 of the radius wide, so the linear interpolation
# across it is off by about 1e-18 of the radius, well under an ulp
_KINK_DECADES = 3
_KINK_PER_DECADE = 64
_KINK_STEPS = 256
_KINK_ROUNDS = 3


def _flips(values):
    """Index arrays (a, b) of the neighbouring nonzero values of opposite
    sign, a < b."""
    nonzero = np.flatnonzero(values)
    k = np.flatnonzero(np.sign(values[nonzero[:-1]]) != np.sign(values[nonzero[1:]]))
    return nonzero[k], nonzero[k + 1]


def _zeros(g, r) -> tuple:
    """The zeros of g bracketed on the 1-D lattice r, in lattice order, in
    at most 1 + _KINK_ROUNDS calls of g on 1-D arrays.

    Neighbouring nonzero samples of opposite sign bracket a zero; r may
    rise or fall.  Each round samples the inside of every bracket at
    _KINK_STEPS equal steps, all brackets in one call, and keeps the step
    of its first sign change: the first sample whose sign differs from the
    left end's, which is 0 or of the other sign, and the one before it.
    The zero is the linear interpolation across the last bracket.
    """
    y = g(r)
    a, b = _flips(y)
    if not a.size:
        return ()
    lo, hi, ylo, yhi = r[a], r[b], y[a], y[b]
    rows = np.arange(a.size)
    for _ in range(_KINK_ROUNDS):
        x = np.linspace(lo, hi, _KINK_STEPS + 1, axis=1)
        # the ends keep their values, so each row still changes sign
        inner = g(x[:, 1:-1].ravel()).reshape(a.size, -1)
        y = np.column_stack([ylo, inner, yhi])
        i = np.argmax(np.sign(y) != np.sign(ylo)[:, None], axis=1)
        lo, hi, ylo, yhi = x[rows, i - 1], x[rows, i], y[rows, i - 1], y[rows, i]
    return tuple((lo + (hi - lo) * (ylo / (ylo - yhi))).tolist())


def _sign_changes(g, knots) -> tuple:
    """The radii where g changes sign, each within an ulp, by _zeros.

    |g| changes analytic piece at a sign change of g, so these radii are
    knots of the coefficient |g|.  g is sampled on a lattice: a geometric
    one from 10^-_KINK_DECADES of the least positive knot to
    10^_KINK_DECADES times the largest (about 1 if there are none), plus
    _KINK_PER_DECADE equal steps between neighbouring knots.
    """
    edges = sorted(k for k in knots if k > 0.0) or [1.0]  # g is read on r > 0
    first, last = edges[0] * 10.0**-_KINK_DECADES, edges[-1] * 10.0**_KINK_DECADES
    return _zeros(g, np.unique(np.concatenate(
        [np.geomspace(first, last, int(_KINK_PER_DECADE * np.log10(last / first)) + 1)]
        + [np.linspace(a, b, _KINK_PER_DECADE + 1) for a, b in zip(edges, edges[1:])])))


def _remainder_pair(f: WavePacketSum, w: RadialWeight, kinks=None):
    """(tangential, bilaplacian) whole-line integrals with coefficients
    psi'(r)/r and Lap^2 psi(r), signed, or their absolute values when kinks
    is given: the pair (zeros of Lap^2 psi, zeros of psi') of w.  An
    absolute value changes analytic piece where its argument changes sign,
    so those radii are knots of its coefficient."""
    scale = l2_norm_sq(f) * _weight_scale(w)

    def w_mass(r):
        bilap = _bilaplacian(w, r, f.n)
        return bilap if kinks is None else np.abs(bilap)

    knots = w.knots if kinks is None else w.knots + kinks[0]
    bilaplacian = _time_integrated(
        f, ShellCoefficients(w_mass=w_mass, knots=knots), scale
    )[0]
    if f.n == 1:
        # the line has no tangential directions: skip a whole-line integral of 0
        return 0.0, bilaplacian

    def w_tau(r):
        return (w.d1(r) if kinks is None else np.abs(w.d1(r))) / r

    knots = w.knots if kinks is None else w.knots + kinks[1]
    tangential = _time_integrated(
        f, ShellCoefficients(w_tau=w_tau, knots=knots), scale
    )[0]
    return tangential, bilaplacian


def remainder_terms(f: WavePacketSum, w_base: RadialWeight, R):
    """Absolute-value remainders of the identity under the rescaled weight.

    Returns (tangential, bilaplacian):

        tangential   = int_t int (|grad_tau u|^2 / r) |psi_R'(r)| dx dt
        bilaplacian  = int_t int |u|^2 |Lap^2 psi_R(r)| dx dt

    with psi_R(r) = R psi(r/R), as floats for one R, or as arrays with one
    value per point of an increasing schedule of R.  Both shrink as R grows
    when the base weight has a bounded slope and a cubically decaying
    bilaplacian.  The hypotheses are checked once per call, and the sign
    changes of Lap^2 psi and psi' are found once, on the base weight, and
    scaled by each R, since Lap^2 psi_R(r) = R^-3 Lap^2 psi(r/R) and
    psi_R'(r) = psi'(r/R).

    Caveat for n = 1: the absolute-value bilaplacian integrand decays only
    like 1/|t| when the datum's transform is nonzero at the origin, so the
    whole-line integral is infinite and the quadrature reports
    non-convergence.  Use data with fhat(0) = 0 (odd packet combinations)
    there; in n >= 2 the dispersive decay is strong enough for any datum.
    """
    Rs, scalar = _schedule(R, "rescale radius")
    check_remainder_hypotheses(w_base, f.n)
    zeros = (_sign_changes(lambda r: _bilaplacian(w_base, r, f.n), w_base.knots),
             _sign_changes(w_base.d1, w_base.knots) if f.n > 1 else ())
    # rescaling keeps slope_inf, so the magnitude floor is the base weight's
    pairs = np.array([_remainder_pair(f, rescale(w_base, Rj),
                                      tuple(tuple(Rj * z for z in zs) for zs in zeros))
                      for Rj in Rs])
    tangential, bilaplacian = np.maximum(pairs, 0.0).T
    return _per_point(tangential, scalar), _per_point(bilaplacian, scalar)


def morawetz_remainder_split(f: WavePacketSum, w: RadialWeight):
    """Signed tangential and bilaplacian parts of the whole-line identity.

    Returns (tangential, bilaplacian) where the identity reads

        int_t int psi''|du/dr|^2 + tangential - (1/4) bilaplacian
            = 2 pi psi'(inf) ||f||^2_{H^{1/2}}.

    Unlike remainder_terms, the bilaplacian here is signed; oscillation in
    time makes it converge in n = 1 even when the absolute version does
    not.
    """
    return _remainder_pair(f, w)


def weighted_radial_energy(f: WavePacketSum, w: RadialWeight) -> float:
    """Whole-line integral int_t int psi''(r) |du/dr|^2 dx dt."""
    coeffs = ShellCoefficients(w_rr=w.d2, knots=w.knots)
    scale = l2_norm_sq(f) * _weight_scale(w)
    return float(_time_integrated(f, coeffs, scale)[0])


# ---------------------------------------------------------------------------
# dispersive approximation error
# ---------------------------------------------------------------------------

def dispersive_l2_error(f: WavePacketSum, t):
    """||u(t) - approximant(t)||_L2 by shell quadrature of the difference,
    at time t, or at each of a 1-D schedule of times in one batch.

    The difference of the exact state and the far-field approximant is
    itself a Gaussian family, so the same spatial engine integrates its
    square density; the closed-form Gram sum serves as the test oracle.
    """
    ts, scalar = _schedule(t, "approximant time", ordered=False)
    diffs = [difference_state(evolve_analytic(f, ti), dispersive_approx(f, ti))
             for ti in ts]
    coeffs = ShellCoefficients(w_mass=lambda r: np.ones_like(r))
    values, _ = shell_integrals(_states_batch(diffs), coeffs)
    return _per_point(np.sqrt(np.maximum(values[:, 0], 0.0)), scalar)
