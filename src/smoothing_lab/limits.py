"""Limit extrapolation and the verification experiments.

Convergence rates in the horizon T and the radius R are not known a
priori, so the extrapolator fits a constant-plus-power model
v(p) = L + c p^(-alpha) with the exponent a free parameter, seeded from
the increment ratio of the last three points.  A non-monotone tail is
flagged as non-convergent rather than extrapolated, and reported by its
final value with the last increment as the error bar.

The verify_* drivers run one experiment each and return a
VerificationReport; they are the layer the harness schedules.  Each
checks its schedule with _points before computing anything, and takes its
tolerance explicitly: the defaults live in harness.REGISTRY.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from .errors import InvalidParameterError
from .functionals import (boundary_term, dispersive_l2_error, flux,
                          morawetz_lhs, radial_profile, remainder_terms,
                          smoothing_profile, weighted_radial_energy)
from .model import (RadialWeight, VerificationReport, WavePacketSum,
                    relative_residual)
from .quadrature import REL_TOL
from .spectral import hs_norm_sq
from .weights import make_psi_k, rescale

TWO_PI = 2.0 * np.pi
# the power model has three parameters, so a fit needs three points
_FIT_POINTS = 3
# smoothing-bound: the profile must stay above this fraction of
# 2 pi ||f||^2_{H^1/2} from some schedule radius onward
_LIMINF_FRACTION = 0.9

# each kind's shortest schedule: the limit kinds extrapolate, and
# asymptotics and remainder-decay compare the last point with the first
MIN_POINTS = {"identity": 1, "sandwich": 1, "smoothing-bound": 1,
              "asymptotics": 2, "remainder-decay": 2,
              "theorem-limit": _FIT_POINTS, "corollary-limit": _FIT_POINTS,
              "flux-limit": _FIT_POINTS}


def _points(kind: str, schedule) -> list:
    """The schedule as floats; InvalidParameterError below MIN_POINTS[kind]."""
    pts = [float(p) for p in schedule]
    if len(pts) < MIN_POINTS[kind]:
        raise InvalidParameterError(
            f"{kind} needs at least {MIN_POINTS[kind]} schedule points, "
            f"got {len(pts)}")
    return pts


@dataclass(frozen=True)
class LimitEstimate:
    value: float
    error: float
    converged: bool
    note: str = ""


def _power_model(p, L, c, alpha):
    return L + c * np.power(p, -alpha)


def estimate_limit(values) -> LimitEstimate:
    """Extrapolate an ordered (parameter, value) schedule to its limit.

    Fits v = L + c p^(-alpha) over the tail (up to the last 5 points).  A
    tail whose increments alternate in sign above the noise floor is
    reported as non-convergent with the final value and the last increment
    as the error bar, never as a fitted limit.
    """
    pts = [(float(p), float(v)) for p, v in values]
    if len(pts) < _FIT_POINTS:
        raise InvalidParameterError(
            f"limit estimation needs at least {_FIT_POINTS} points")
    params = np.array([p for p, _ in pts])
    vals = np.array([v for _, v in pts])
    if np.any(np.diff(params) <= 0):
        raise InvalidParameterError("schedule parameters must strictly increase")

    scale = float(np.max(np.abs(vals)))
    noise = max(1e-9 * scale, 1e-300)
    incs = np.diff(vals)
    if np.all(np.abs(incs) <= noise):
        return LimitEstimate(vals[-1], 0.0, True, "constant sequence")

    tail_incs = incs[-3:]
    big = tail_incs[np.abs(tail_incs) > noise]
    if big.size >= 2 and np.any(big[:-1] * big[1:] < 0):
        return LimitEstimate(
            vals[-1], float(np.abs(incs[-1])), False,
            "non-convergent: tail increments alternate in sign",
        )

    m = min(len(pts), 5)
    p_t, v_t = params[-m:], vals[-m:]

    # increment-ratio seed for the exponent, assuming geometric spacing
    alpha0 = 1.0
    d1, d2 = vals[-2] - vals[-3], vals[-1] - vals[-2]
    g = params[-1] / params[-2]
    if g > 1.0 and d1 * d2 > 0 and abs(d2) > 0:
        alpha0 = float(np.clip(np.log(abs(d1 / d2)) / np.log(g), 0.1, 10.0))
    denom = params[-2] ** (-alpha0) - params[-1] ** (-alpha0)
    c0 = d2 / denom if denom != 0 else 0.0
    L0 = vals[-1] - c0 * params[-1] ** (-alpha0)

    try:
        with warnings.catch_warnings():
            # a 3-point fit has no degrees of freedom: pcov comes back inf
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, pcov = curve_fit(
                _power_model, p_t, v_t,
                p0=[L0, c0, alpha0],
                bounds=([-np.inf, -np.inf, 0.05], [np.inf, np.inf, 20.0]),
                maxfev=20000,
            )
    except (RuntimeError, ValueError) as exc:
        return LimitEstimate(
            vals[-1], float(np.abs(incs[-1])), False, f"fit failure: {exc}"
        )
    resid = _power_model(p_t, *popt) - v_t
    rms = float(np.sqrt(np.mean(resid**2)))
    note = f"power fit alpha={popt[2]:.3g}"
    if np.isfinite(pcov[0, 0]):
        perr = float(np.sqrt(pcov[0, 0]))
    else:
        # an exact fit's rms says nothing about the limit's error
        perr = float(np.abs(incs[-1]))
        note += ", covariance not estimated"
    return LimitEstimate(float(popt[0]), max(rms, perr), True, note)


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def verify_identity(f: WavePacketSum, w: RadialWeight, T_schedule,
                    tolerance: float) -> VerificationReport:
    """Exact finite-horizon check: bulk integral vs endpoint flux difference.

    The two sides are computed by unrelated quadratures (space-time vs two
    time slices), so agreement at tolerance is a real statement about both.
    """
    Ts = _points("identity", T_schedule)
    floor = hs_norm_sq(f, 0.5)
    lhs = np.array([morawetz_lhs(f, w, T) for T in Ts])
    rhs = np.array([boundary_term(f, w, T) for T in Ts])
    rel = relative_residual(lhs, rhs, floor)
    return VerificationReport(
        experiment="identity", n=f.n, weight_id=w.label,
        params=np.array(Ts), lhs=lhs, rhs=rhs,
        tolerance=tolerance, floor=floor,
        passed=bool(np.all(rel <= tolerance)),
        notes=f"max relative residual {rel.max():.3e}",
    )


def verify_theorem_main(f: WavePacketSum, w: RadialWeight, T_schedule,
                        tolerance: float) -> VerificationReport:
    """Horizon limit of the weighted identity vs 2 pi psi'(inf) ||f||^2_{H^1/2}."""
    Ts = _points("theorem-limit", T_schedule)
    floor = hs_norm_sq(f, 0.5)
    target = TWO_PI * w.slope_inf * floor
    lhs = np.array([morawetz_lhs(f, w, T) for T in Ts])
    est = estimate_limit(zip(Ts, lhs))
    limit_rel = relative_residual(est.value, target, floor)
    return VerificationReport(
        experiment="theorem-limit", n=f.n, weight_id=w.label,
        params=np.array(Ts), lhs=lhs, rhs=np.full(len(Ts), target),
        tolerance=tolerance, floor=floor,
        extrapolated_limit=est.value, limit_error=est.error,
        passed=bool(est.converged and limit_rel <= tolerance),
        notes=est.note,
        extra={"target": target},
    )


def verify_corollary(f: WavePacketSum, R_schedule,
                     tolerance: float) -> VerificationReport:
    """Radius limit of the ball profile vs 2 pi ||f||^2_{H^1/2}.

    Also checks the one-sided bound: the full-gradient profile must reach
    (1 - tolerance) of the target somewhere on the schedule.
    """
    Rs = _points("corollary-limit", R_schedule)
    floor = hs_norm_sq(f, 0.5)
    target = TWO_PI * floor
    lhs = np.array([radial_profile(f, R) for R in Rs])
    if f.n == 1:
        smoothing = lhs.copy()  # no tangential directions on the line
    else:
        smoothing = np.array([smoothing_profile(f, R) for R in Rs])
    est = estimate_limit(zip(Rs, lhs))
    limit_rel = relative_residual(est.value, target, floor)
    sup_ok = bool(smoothing.max() >= (1.0 - tolerance) * target)
    return VerificationReport(
        experiment="corollary-limit", n=f.n, weight_id="none",
        params=np.array(Rs), lhs=lhs, rhs=np.full(len(Rs), target),
        tolerance=tolerance, floor=floor,
        extrapolated_limit=est.value, limit_error=est.error,
        passed=bool(est.converged and limit_rel <= tolerance and sup_ok),
        notes=est.note,
        extra={
            "target": target,
            "smoothing_profile": smoothing.tolist(),
            "smoothing_sup_ok": sup_ok,
        },
    )


def verify_flux(f: WavePacketSum, w: RadialWeight, t_schedule,
                tolerance: float) -> VerificationReport:
    """Radiation flux at +-t vs the signed limits +-2 pi psi'(inf) ||f||^2."""
    ts = sorted(_points("flux-limit", t_schedule))
    if any(t <= 0 for t in ts):
        raise InvalidParameterError("flux schedule must list positive times")
    floor = hs_norm_sq(f, 0.5)
    target = TWO_PI * w.slope_inf * floor
    plus = np.array([flux(f, w, t) for t in ts])
    minus = np.array([flux(f, w, -t) for t in ts])
    est_p = estimate_limit(zip(ts, plus))
    est_m = estimate_limit(zip(ts, minus))
    rel_p = relative_residual(est_p.value, target, floor)
    rel_m = relative_residual(est_m.value, -target, floor)
    params = np.concatenate([[-t for t in ts[::-1]], ts])
    lhs = np.concatenate([minus[::-1], plus])
    rhs = np.concatenate([np.full(len(ts), -target), np.full(len(ts), target)])
    return VerificationReport(
        experiment="flux-limit", n=f.n, weight_id=w.label,
        params=params, lhs=lhs, rhs=rhs,
        tolerance=tolerance, floor=floor,
        extrapolated_limit=est_p.value, limit_error=est_p.error,
        passed=bool(est_p.converged and est_m.converged
                    and rel_p <= tolerance and rel_m <= tolerance),
        notes=f"+: {est_p.note}; -: {est_m.note}",
        extra={"target": target, "minus_limit": est_m.value,
               "minus_limit_error": est_m.error},
    )


def verify_sandwich(f: WavePacketSum, k: int, R_schedule,
                    tolerance: float) -> VerificationReport:
    """Three-term squeeze around the ball profile for the plateau weight.

    At every R:  profile(R) <= int int psi_k,R''|du/dr|^2
                            <= (k+1)/k * profile((k+1)R/k),
    and the spread of the profile tail must stay within the factor
    (k+1)/k + tolerance.  A schedule too short to fit reports its last
    profile value as the limit, with a NaN error.
    """
    Rs = _points("sandwich", R_schedule)
    k = int(k)
    if k < 1:
        raise InvalidParameterError(f"plateau index must be >= 1, got {k}")
    w = make_psi_k(k)
    outer = (k + 1.0) / k
    floor = hs_norm_sq(f, 0.5)

    profile_cache: dict = {}

    def prof(R: float) -> float:
        if R not in profile_cache:
            profile_cache[R] = radial_profile(f, R)
        return profile_cache[R]

    low = np.array([prof(R) for R in Rs])
    mid = np.array([weighted_radial_energy(f, rescale(w, R)) for R in Rs])
    high = np.array([outer * prof(outer * R) for R in Rs])

    mag = max(float(np.max(np.abs(high))), floor)
    slack = 10.0 * REL_TOL * mag
    bracket_ok = bool(np.all(low <= mid + slack) and np.all(high >= mid - slack))

    tail = low[-max(2, len(low) // 2):]
    lim_sup, lim_inf = float(tail.max()), float(tail.min())
    # a zero profile (the zero datum) has no spread
    ratio = 1.0 if lim_sup == 0.0 else lim_sup / lim_inf if lim_inf > 0 else np.inf
    ratio_ok = bool(ratio <= outer + tolerance)

    est = estimate_limit(zip(Rs, low)) if len(Rs) >= _FIT_POINTS else \
        LimitEstimate(low[-1], np.nan, False, "short schedule")

    return VerificationReport(
        experiment="sandwich", n=f.n, weight_id=w.label,
        params=np.array(Rs), lhs=low, rhs=high,
        tolerance=tolerance, floor=floor,
        extrapolated_limit=est.value, limit_error=est.error,
        passed=bool(bracket_ok and ratio_ok),
        notes=f"tail spread ratio {ratio:.6f} vs bound {outer + tolerance:.6f}",
        extra={
            "mid": mid.tolist(),
            "ratio": ratio,
            "ratio_bound": outer + tolerance,
            "bracket_ok": bracket_ok,
        },
    )


def verify_asymptotics(f: WavePacketSum, t_schedule,
                       final_ratio: float) -> VerificationReport:
    """Far-field approximant error along a growing time schedule.

    Passes when the L2 error strictly decreases at every step and the last
    value is at most final_ratio of the first.  No rate is asserted.  A
    series that starts at 0 (the zero datum) is absent, not a failure to
    decay.  A schedule shorter than MIN_POINTS["asymptotics"] raises
    InvalidParameterError before any error is computed.
    """
    ts = _points("asymptotics", t_schedule)
    floor = hs_norm_sq(f, 0.5)
    errs = np.array([dispersive_l2_error(f, t) for t in ts])
    passed = bool(errs[0] == 0.0
                  or (np.all(np.diff(errs) < 0) and errs[-1] <= final_ratio * errs[0]))
    return VerificationReport(
        experiment="asymptotics", n=f.n, weight_id="none",
        params=np.array(ts), lhs=errs, rhs=np.zeros(len(ts)),
        tolerance=final_ratio, floor=floor,
        passed=passed,
        notes=f"error fell by {errs[-1] / errs[0]:.3e}" if errs[0] > 0 else "",
    )


def verify_smoothing_bound(f: WavePacketSum, R_schedule,
                           tolerance: float) -> VerificationReport:
    """Boundedness and non-degeneracy of the gradient profile.

    Records the observed sup of profile/||f||^2_{H^1/2}; requires the
    profile to reach (1 - tolerance) of 2 pi ||f||^2 somewhere, and to stay
    above _LIMINF_FRACTION of that level from some schedule radius
    onward (the contrapositive of 'profile vanishing forces f = 0').  An
    empty schedule raises InvalidParameterError.
    """
    Rs = _points("smoothing-bound", R_schedule)
    floor = hs_norm_sq(f, 0.5)
    target = TWO_PI * floor
    vals = np.array([smoothing_profile(f, R) for R in Rs])
    sup_ok = bool(vals.max() >= (1.0 - tolerance) * target)
    threshold_R = float("nan")
    for i in range(len(Rs)):
        if np.all(vals[i:] >= _LIMINF_FRACTION * target):
            threshold_R = Rs[i]
            break
    observed = float(vals.max() / floor) if floor > 0 else 0.0
    return VerificationReport(
        experiment="smoothing-bound", n=f.n, weight_id="none",
        params=np.array(Rs), lhs=vals, rhs=np.full(len(Rs), target),
        tolerance=tolerance, floor=floor,
        passed=bool(sup_ok and np.isfinite(threshold_R)),
        notes=f"observed sup/norm ratio {observed:.6f}",
        extra={"target": target, "threshold_radius": threshold_R,
               "observed_constant": observed},
    )


def verify_remainder_decay(f: WavePacketSum, w_base: RadialWeight, R_schedule,
                           decay_ratio: float) -> VerificationReport:
    """Both remainder terms must shrink to decay_ratio of their first value.

    lhs carries the tangential series, rhs the bilaplacian series; the gate
    compares last against first for each, so a schedule shorter than
    MIN_POINTS["remainder-decay"] raises InvalidParameterError before any
    remainder is computed.  n = 1 has no tangential term.
    """
    Rs = _points("remainder-decay", R_schedule)
    floor = hs_norm_sq(f, 0.5)
    pairs = [remainder_terms(f, w_base, R) for R in Rs]
    tans = np.array([p[0] for p in pairs])
    bils = np.array([p[1] for p in pairs])
    # a series that starts at roundoff level (the tangential term of a
    # radially symmetric datum) is absent, not a failure to decay
    absent = REL_TOL * floor
    tan_ok = tans[0] <= absent or tans[-1] <= decay_ratio * tans[0]
    bil_ok = bils[0] <= absent or bils[-1] <= decay_ratio * bils[0]
    return VerificationReport(
        experiment="remainder-decay", n=f.n, weight_id=w_base.label,
        params=np.array(Rs), lhs=tans, rhs=bils,
        tolerance=decay_ratio, floor=floor,
        passed=bool(tan_ok and bil_ok),
        notes="series are (tangential, bilaplacian), not two identity sides",
    )
