"""Space-time functionals of the free evolution.

Everything here reduces to one pattern: a radial-shell spatial integral of
quadratic expressions in (u, du/dr, grad_tau u) with radial coefficients
drawn from a weight's derivative stack, integrated in time either over a
finite window [-T, T] or over the whole line through the compactifying
substitution t = s/(1 - s^2).

Error budget: every functional works to the fixed relative tolerance
REL_TOL of the quadrature module.  The time integrator works toward an
absolute target REL_TOL * max(|integral|, mass floor).  A time panel
evolves the datum to its 21 Gauss-Kronrod nodes and integrates all 21
states over one shared radial panel set; each node's spatial integral
works to a quarter of REL_TOL, with an absolute floor of the mass floor
divided by the time-domain width: summed over the window, the floors
allow at most a quarter of the time layer's least target,
REL_TOL * mass floor.  Without the division the spatial error would swamp
the panel error estimates on long windows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidWeightError
from .model import RadialWeight, WavePacketSum, l2_norm_sq
from .propagator import difference_state, dispersive_approx, evolve_analytic
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
        # one radial panel set for every node, each node to its own floor;
        # on the whole line the floor shrinks by ds/dt so that the jacobian-
        # multiplied values carry uniform error per unit s.  Either way the
        # accepted spatial error stays <= space_tol * scale in total.
        states = [evolve_analytic(f, t) for t in ts]
        floors = (np.full(len(ts), space_scale) if horizon is not None
                  else space_scale * _compact_line_rate(ts))
        values, _ = shell_integrals(states, coeffs, r_max=r_max,
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
    one = lambda r: np.ones_like(r)
    coeffs = ShellCoefficients(w_rr=one,
                               w_tau=one if tangential and f.n > 1 else None)
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

    return ShellCoefficients(
        w_rr=w.d2,
        w_tau=w_tau if n > 1 else None,
        w_mass=w_mass,
        knots=w.knots,
    )


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


def _remainder_pair(f: WavePacketSum, w: RadialWeight, signed: bool):
    """(tangential, bilaplacian) whole-line integrals with coefficients
    psi'(r)/r and Lap^2 psi(r), or their absolute values unless signed."""
    scale = l2_norm_sq(f) * _weight_scale(w)

    def w_mass(r):
        _, bilap = radial_laplacians(w, r, f.n)
        return bilap if signed else np.abs(bilap)

    bilaplacian = _time_integrated(
        f, ShellCoefficients(w_mass=w_mass, knots=w.knots), None, scale
    )
    if f.n == 1:
        return 0.0, bilaplacian

    def w_tau(r):
        return (w.d1(r) if signed else np.abs(w.d1(r))) / r

    tangential = _time_integrated(
        f, ShellCoefficients(w_tau=w_tau, knots=w.knots), None, scale
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
