"""Limit extrapolation and the verification experiments.

Convergence rates in the horizon T and the radius R are not known a
priori, so the extrapolator fits a constant-plus-power model
v(p) = L + c p^(-alpha) with the exponent a free parameter, seeded from
the increment ratio of the last three points.  The fit is a variable
projection (Golub and Pereyra, SIAM J. Numer. Anal. 10, 1973): at fixed
alpha, L and c are linear and have a closed-form least-squares solution,
so the fit searches the one variable log alpha, and solves it to
roundoff.  A non-monotone tail is flagged as non-convergent rather than
extrapolated, and reported by its final value with the last increment as
the error bar.

The verify_* drivers run one experiment each and return a
VerificationReport; they are the layer the harness schedules.  Each
checks its schedule's length and order with _points before computing
anything, and takes its tolerance explicitly: the defaults live in
harness.REGISTRY.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# the fitted exponent alpha stays in these bounds
_ALPHA_BOUNDS = (0.05, 20.0)
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
    """The schedule as floats; InvalidParameterError below MIN_POINTS[kind]
    points, at a point that is not finite, or where the points do not
    strictly increase."""
    pts = [float(p) for p in schedule]
    if not all(np.isfinite(pts)):
        raise InvalidParameterError(f"{kind} schedule points must be finite, got {pts}")
    if len(pts) < MIN_POINTS[kind]:
        raise InvalidParameterError(
            f"{kind} needs at least {MIN_POINTS[kind]} schedule points, "
            f"got {len(pts)}")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise InvalidParameterError(
            f"{kind} schedule points must strictly increase, got {pts}")
    return pts


@dataclass(frozen=True)
class LimitEstimate:
    value: float
    error: float
    converged: bool
    note: str = ""


def _projected_fit(p, v, alpha: float):
    """(L, c, residuals v - L - c q, q) of the least-squares fit of
    L + c q to v with q = p^(-alpha) at a fixed alpha, in closed form; the
    sums run on values centred at their means, which keeps the residuals
    clear of the cancellation of v against L."""
    q = np.power(p, -alpha)
    q_mean, v_mean = q.sum() / len(q), v.sum() / len(v)
    dq, dv = q - q_mean, v - v_mean
    c = float((dq @ dv) / (dq @ dq))
    return float(v_mean - c * q_mean), c, dv - c * dq, q


def _fit_exponent(p, v, alpha0: float) -> float:
    """The exponent alpha in _ALPHA_BOUNDS of the least-squares fit of
    v = L + c p^(-alpha), the local minimum of the residual sum of squares
    that lies downhill of alpha0.

    With L and c at their optimum for each alpha, d(RSS)/d(alpha) is
    2 c sum_i r_i q_i log p_i (the variable projection).  From alpha0 the
    search steps downhill in x = log alpha, doubling its step, until that
    slope changes sign or a bound is reached, and then closes the bracket
    by false position until it is 2 eps wide in x, so to roundoff in
    alpha.
    """
    logp = np.log(p)

    def slope(x):
        _, c, r, q = _projected_fit(p, v, math.exp(x))
        return c * float(r @ (q * logp))

    lo, hi = (math.log(b) for b in _ALPHA_BOUNDS)
    a = math.log(alpha0)
    ga = slope(a)
    if ga == 0.0:
        return alpha0
    step = 0.125 if ga < 0.0 else -0.125
    while True:
        b = min(max(a + step, lo), hi)
        gb = slope(b)
        if gb == 0.0 or (gb > 0.0) != (ga > 0.0):
            break
        if b in (lo, hi):
            return math.exp(b)  # the residual falls all the way to the bound
        a, ga, step = b, gb, 2.0 * step
    # a and b bracket the sign change, ga and gb of opposite signs: false
    # position with the Illinois rule, which halves the slope of an end
    # kept twice running, and bisection where a step would leave (a, b)
    kept = 0
    while gb != 0.0 and abs(b - a) > 2.0 * np.finfo(float).eps:
        x = (a * gb - b * ga) / (gb - ga)
        if not min(a, b) < x < max(a, b):
            x = 0.5 * (a + b)
        gx = slope(x)
        if gx != 0.0 and (gx > 0.0) == (ga > 0.0):
            a, ga = x, gx
            gb, kept = (0.5 * gb if kept == 1 else gb), 1
        else:
            b, gb = x, gx
            ga, kept = (0.5 * ga if kept == -1 else ga), -1
    return math.exp(b)


def estimate_limit(values) -> LimitEstimate:
    """Extrapolate an ordered (parameter, value) schedule to its limit.

    Fits v = L + c p^(-alpha) over the tail (up to the last 5 points) by
    _fit_exponent.  The error bar is the larger of the fit's rms residual
    and the standard error of L, from the covariance inv(J^T J) RSS/(m - 3)
    of the m tail points with the Jacobian J at the optimum; three points
    fix the model exactly, and then the last increment stands in for the
    standard error.  A tail whose increments alternate in sign above the
    noise floor, or a schedule with a value that is not finite, is
    reported as non-convergent with the final value and the last
    increment as the error bar, never as a fitted limit, and so is a fit
    that comes out not finite.  Raises InvalidParameterError for fewer
    than _FIT_POINTS points, or parameters that are not finite or do not
    strictly increase.
    """
    pts = [(float(p), float(v)) for p, v in values]
    if len(pts) < _FIT_POINTS:
        raise InvalidParameterError(
            f"limit estimation needs at least {_FIT_POINTS} points")
    params = np.array([p for p, _ in pts])
    vals = np.array([v for _, v in pts])
    if not np.all(np.isfinite(params)):
        raise InvalidParameterError(f"schedule parameters must be finite, got {params}")
    if np.any(np.diff(params) <= 0):
        raise InvalidParameterError("schedule parameters must strictly increase")

    incs = np.diff(vals)
    if not np.all(np.isfinite(vals)):
        return LimitEstimate(vals[-1], float(np.abs(incs[-1])), False,
                             "non-finite value in the schedule")
    scale = float(np.max(np.abs(vals)))
    noise = max(1e-9 * scale, 1e-300)
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

    with np.errstate(all="ignore"):
        alpha = _fit_exponent(p_t, v_t, alpha0)
        L, c, resid, q = _projected_fit(p_t, v_t, alpha)
        jac = np.column_stack([np.ones(m), q, -c * q * np.log(p_t)])
    if not (np.isfinite(L) and np.all(np.isfinite(jac))):
        return LimitEstimate(vals[-1], float(np.abs(incs[-1])), False,
                             "fit failure: the power fit is not finite")
    rms = float(np.sqrt(np.mean(resid**2)))
    note = f"power fit alpha={alpha:.3g}"
    if m > _FIT_POINTS:
        # row 0 of the pseudo-inverse of J: inv(J^T J)[0, 0] is its norm squared
        row = np.linalg.pinv(jac, rcond=np.finfo(float).eps * m)[0]
        perr = float(np.sqrt(row @ row * (resid @ resid) / (m - _FIT_POINTS)))
    else:
        # an exact fit's rms says nothing about the limit's error
        perr = float(np.abs(incs[-1]))
        note += ", covariance not estimated"
    return LimitEstimate(L, max(rms, perr), True, note)


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def _limit_verdict(params, values, target: float, floor: float,
                   tolerance: float):
    """The schedule's limit estimate, and whether it converged to target
    within tolerance relative to max(|limit|, |target|, floor)."""
    est = estimate_limit(zip(params, values))
    within = relative_residual(est.value, target, floor) <= tolerance
    return est, bool(est.converged and within)


def _missed(floor: float, *profiles) -> str:
    """The note that opens a failed report when a ball profile of a nonzero
    datum (floor > 0) reads exactly 0, else "": u is real-analytic in x for
    t != 0, so such a profile is positive at every R > 0."""
    if floor > 0.0 and not all(np.all(p) for p in profiles):
        return "profile is 0 for a nonzero datum; "
    return ""


def verify_identity(f: WavePacketSum, w: RadialWeight, T_schedule,
                    tolerance: float) -> VerificationReport:
    """Exact finite-horizon check: bulk integral vs endpoint flux difference.

    The two sides are computed by unrelated quadratures (space-time vs two
    time slices), so agreement at tolerance is a real statement about both.
    """
    Ts = _points("identity", T_schedule)
    floor = hs_norm_sq(f, 0.5)
    lhs = morawetz_lhs(f, w, Ts)
    rhs = boundary_term(f, w, Ts)
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
    lhs = morawetz_lhs(f, w, Ts)
    est, passed = _limit_verdict(Ts, lhs, target, floor, tolerance)
    return VerificationReport(
        experiment="theorem-limit", n=f.n, weight_id=w.label,
        params=np.array(Ts), lhs=lhs, rhs=np.full(len(Ts), target),
        tolerance=tolerance, floor=floor,
        extrapolated_limit=est.value, limit_error=est.error,
        passed=passed,
        notes=est.note,
    )


def verify_corollary(f: WavePacketSum, R_schedule,
                     tolerance: float) -> VerificationReport:
    """Radius limit of the ball profile vs 2 pi ||f||^2_{H^1/2}.

    Also checks the one-sided bound: the full-gradient profile must reach
    (1 - tolerance) of the target somewhere on the schedule.  A value of 0
    in either profile of a nonzero datum fails.
    """
    Rs = _points("corollary-limit", R_schedule)
    floor = hs_norm_sq(f, 0.5)
    target = TWO_PI * floor
    lhs = radial_profile(f, Rs)
    # no tangential directions on the line: skip a whole-line integral that
    # would repeat lhs
    smoothing = lhs.copy() if f.n == 1 else smoothing_profile(f, Rs)
    est, limit_ok = _limit_verdict(Rs, lhs, target, floor, tolerance)
    sup_ok = bool(smoothing.max() >= (1.0 - tolerance) * target)
    missed = _missed(floor, lhs, smoothing)
    return VerificationReport(
        experiment="corollary-limit", n=f.n, weight_id="none",
        params=np.array(Rs), lhs=lhs, rhs=np.full(len(Rs), target),
        tolerance=tolerance, floor=floor,
        extrapolated_limit=est.value, limit_error=est.error,
        passed=limit_ok and sup_ok and not missed,
        notes=missed + est.note,
        extra={
            "smoothing_profile": smoothing.tolist(),
            "smoothing_sup_ok": sup_ok,
        },
    )


def verify_flux(f: WavePacketSum, w: RadialWeight, t_schedule,
                tolerance: float) -> VerificationReport:
    """Radiation flux at +-t vs the signed limits +-2 pi psi'(inf) ||f||^2."""
    ts = _points("flux-limit", t_schedule)
    if any(t <= 0 for t in ts):
        raise InvalidParameterError("flux schedule must list positive times")
    floor = hs_norm_sq(f, 0.5)
    target = TWO_PI * w.slope_inf * floor
    params = np.concatenate([[-t for t in ts[::-1]], ts])
    lhs = flux(f, w, params)  # every time in one batch
    plus, minus = lhs[len(ts):], lhs[:len(ts)][::-1]
    est_p, ok_p = _limit_verdict(ts, plus, target, floor, tolerance)
    est_m, ok_m = _limit_verdict(ts, minus, -target, floor, tolerance)
    rhs = np.concatenate([np.full(len(ts), -target), np.full(len(ts), target)])
    return VerificationReport(
        experiment="flux-limit", n=f.n, weight_id=w.label,
        params=params, lhs=lhs, rhs=rhs,
        tolerance=tolerance, floor=floor,
        extrapolated_limit=est_p.value, limit_error=est_p.error,
        passed=ok_p and ok_m,
        notes=f"+: {est_p.note}; -: {est_m.note}",
        extra={"minus_limit": est_m.value,
               "minus_limit_error": est_m.error},
    )


def verify_sandwich(f: WavePacketSum, k: int, R_schedule,
                    tolerance: float) -> VerificationReport:
    """Three-term squeeze around the ball profile for the plateau weight.

    At every R:  profile(R) <= int int psi_k,R''|du/dr|^2
                            <= (k+1)/k * profile((k+1)R/k),
    and the spread of the profile tail must stay within the factor
    (k+1)/k + tolerance; a profile value of 0 for a nonzero datum fails.  A
    schedule too short to fit reports its last profile value as the
    limit, with a NaN error.  make_psi_k judges k.
    """
    Rs = _points("sandwich", R_schedule)
    w = make_psi_k(k)
    outer = (k + 1.0) / k
    floor = hs_norm_sq(f, 0.5)

    # the profile at every R and (k+1)R/k as one schedule
    radii = np.unique(np.concatenate([Rs, outer * np.array(Rs)]))
    profile = radial_profile(f, radii)
    low = profile[np.searchsorted(radii, Rs)]
    mid = np.array([weighted_radial_energy(f, rescale(w, R)) for R in Rs])
    high = outer * profile[np.searchsorted(radii, outer * np.array(Rs))]

    mag = max(float(np.max(np.abs(high))), floor)
    slack = 10.0 * REL_TOL * mag
    bracket_ok = bool(np.all(low <= mid + slack) and np.all(high >= mid - slack))

    tail = low[-max(2, len(low) // 2):]
    lim_sup, lim_inf = float(tail.max()), float(tail.min())
    missed = _missed(floor, profile)
    if floor == 0.0:  # the zero datum's profile is 0 and has no spread
        ratio = 1.0
    else:
        ratio = lim_sup / lim_inf if lim_inf > 0.0 else np.inf
    ratio_ok = bool(ratio <= outer + tolerance)

    est = estimate_limit(zip(Rs, low)) if len(Rs) >= _FIT_POINTS else \
        LimitEstimate(low[-1], np.nan, False, "short schedule")

    return VerificationReport(
        experiment="sandwich", n=f.n, weight_id=w.label,
        params=np.array(Rs), lhs=low, rhs=high,
        tolerance=tolerance, floor=floor,
        extrapolated_limit=est.value, limit_error=est.error,
        passed=bool(bracket_ok and ratio_ok and not missed),
        notes=f"{missed}tail spread ratio {ratio:.6f} vs bound {outer + tolerance:.6f}",
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
    errs = dispersive_l2_error(f, ts)
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
    onward (the contrapositive of 'profile vanishing forces f = 0'); a
    profile value of 0 for a nonzero datum fails.  An empty schedule
    raises InvalidParameterError.
    """
    Rs = _points("smoothing-bound", R_schedule)
    floor = hs_norm_sq(f, 0.5)
    target = TWO_PI * floor
    vals = smoothing_profile(f, Rs)
    sup_ok = bool(vals.max() >= (1.0 - tolerance) * target)
    threshold_R = float("nan")
    for i in range(len(Rs)):
        if np.all(vals[i:] >= _LIMINF_FRACTION * target):
            threshold_R = Rs[i]
            break
    observed = float(vals.max() / floor) if floor > 0 else 0.0
    missed = _missed(floor, vals)
    return VerificationReport(
        experiment="smoothing-bound", n=f.n, weight_id="none",
        params=np.array(Rs), lhs=vals, rhs=np.full(len(Rs), target),
        tolerance=tolerance, floor=floor,
        passed=bool(sup_ok and np.isfinite(threshold_R) and not missed),
        notes=f"{missed}observed sup/norm ratio {observed:.6f}",
        extra={"threshold_radius": threshold_R,
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
    tans, bils = remainder_terms(f, w_base, Rs)
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
