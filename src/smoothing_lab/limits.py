"""Limit extrapolation and the verification experiments.

Convergence rates in the horizon T and the radius R are not known a
priori, so the extrapolator fits a constant-plus-power model
v(p) = L + c p^(-alpha) with the exponent a free parameter.  The fit is a
variable projection (Golub and Pereyra, SIAM J. Numer. Anal. 10, 1973):
at fixed alpha, L and c are linear and have a closed-form least-squares
solution, so the fit searches the one variable log alpha: the kink
finder's root search, functionals._zeros, solves every stationary point
it brackets on one lattice across the whole range to roundoff, and the
least residual among them and the two bounds decides.  The
parameters follow the ordered schedule rule, so they are positive, and
the fit runs on the tail scaled by its first parameter.  A non-monotone
tail is flagged as non-convergent rather than extrapolated, and reported
by its final value with the last increment as the error bar.

The verify_* drivers run one experiment each and return a
VerificationReport; they are the layer the harness schedules.  Each
checks its schedule with _points, the one schedule rule of
functionals._schedule at the kind's MIN_POINTS, before computing
anything, and takes its tolerance explicitly: the defaults live in
harness.REGISTRY.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import (_KINK_STEPS, _schedule, _zeros, boundary_term,
                          dispersive_l2_error, flux, morawetz_lhs,
                          radial_profile, remainder_terms, smoothing_profile,
                          weighted_radial_energy)
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


def _points(kind: str, schedule) -> np.ndarray:
    """The schedule as a new 1-D float array, by functionals._schedule with
    at least MIN_POINTS[kind] points."""
    return _schedule(schedule, kind, least=MIN_POINTS[kind])[0]


@dataclass(frozen=True)
class LimitEstimate:
    value: float
    error: float
    converged: bool
    note: str = ""


def _projected_fit(p, v, alpha):
    """(L, c, residuals v - L - c q, q) of the least-squares fit of
    L + c q to v with q = p^(-alpha) at a fixed alpha, in closed form, or
    for an array (A,) of exponents one fit per row: L and c (A,), the
    residuals and q (A, m).  The sums run on values centred at their
    means, which keeps the residuals clear of the cancellation of v
    against L."""
    q = np.power(p, -np.asarray(alpha)[..., None])
    q_mean, v_mean = q.sum(axis=-1) / len(v), v.sum() / len(v)
    dq, dv = q - q_mean[..., None], v - v_mean
    c = (dq @ dv) / (dq * dq).sum(axis=-1)
    return v_mean - c * q_mean, c, dv - c[..., None] * dq, q


def _fit_exponent(p, v):
    """(alpha, L, c, residuals, q) of the least-squares fit of
    v = L + c p^(-alpha) with alpha in _ALPHA_BOUNDS, as _projected_fit
    gives them at that alpha.

    With L and c at their optimum for each alpha, d(RSS)/d(alpha) is
    2 c sum_i r_i q_i log p_i (the variable projection).  The root search
    is the kink finder's, functionals._zeros, on _KINK_STEPS equal steps in
    x = log alpha across _ALPHA_BOUNDS, which finds every sign change of
    the derivative on that lattice, each to roundoff in alpha.  The
    residual's least value on the range is at one of those zeros or at a
    bound, so alpha is whichever of them, the bounds exactly, has the
    least residual sum of squares.
    """
    logp = np.log(p)

    def slope(x):
        _, c, r, q = _projected_fit(p, v, np.exp(x))
        return c * ((r * q) @ logp)

    lo, hi = _ALPHA_BOUNDS
    zeros = _zeros(slope, np.linspace(np.log(lo), np.log(hi), _KINK_STEPS + 1))
    alphas = np.array([lo, *np.exp(zeros), hi])
    L, c, resid, q = _projected_fit(p, v, alphas)
    best = np.argmin(np.sum(resid * resid, axis=1))
    return alphas[best], L[best], c[best], resid[best], q[best]


def estimate_limit(values) -> LimitEstimate:
    """Extrapolate an ordered (parameter, value) schedule to its limit.

    Fits v = L + c p^(-alpha) over the tail (up to the last 5 points) by
    _fit_exponent, the least residual sum of squares over every alpha in
    _ALPHA_BOUNDS, on the tail's parameters divided by its first, p_0: the
    model is the same with c scaled by p_0^(-alpha), and neither the fit's
    sums nor L and its error bar depend on the parameters' scale.  The
    error bar is the larger of the fit's rms residual and the standard
    error of L, from the covariance inv(J^T J) RSS/(m - 3) of the m tail
    points with the Jacobian J at the optimum; three points fix the model
    exactly, and then the last increment stands in for the standard error.
    A tail whose increments alternate in sign above the noise floor, or a
    schedule with a value that is not finite, is reported as
    non-convergent with the final value and the last increment as the
    error bar, never as a fitted limit, and so is a fit that comes out not
    finite.  The parameters follow the ordered schedule rule of
    functionals._schedule with at least _FIT_POINTS points:
    InvalidParameterError unless they are finite, positive and strictly
    increase.
    """
    pts = [(float(p), float(v)) for p, v in values]
    params = _schedule([p for p, _ in pts], "limit estimation", least=_FIT_POINTS)[0]
    vals = np.array([v for _, v in pts])

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
    p_t, v_t = params[-m:] / params[-m], vals[-m:]

    with np.errstate(all="ignore"):
        alpha, L, c, resid, q = _fit_exponent(p_t, v_t)
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
    return LimitEstimate(float(L), max(rms, perr), True, note)


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
        params=Ts, lhs=lhs, rhs=rhs,
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
        params=Ts, lhs=lhs, rhs=np.full(len(Ts), target),
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
        params=Rs, lhs=lhs, rhs=np.full(len(Rs), target),
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
    floor = hs_norm_sq(f, 0.5)
    target = TWO_PI * w.slope_inf * floor
    params = np.concatenate([-ts[::-1], ts])
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
    radii = np.unique(np.concatenate([Rs, outer * Rs]))
    profile = radial_profile(f, radii)
    low = profile[np.searchsorted(radii, Rs)]
    mid = np.array([weighted_radial_energy(f, rescale(w, R)) for R in Rs])
    high = outer * profile[np.searchsorted(radii, outer * Rs)]

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
        params=Rs, lhs=low, rhs=high,
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
        params=ts, lhs=errs, rhs=np.zeros(len(ts)),
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
            threshold_R = float(Rs[i])
            break
    observed = float(vals.max() / floor) if floor > 0 else 0.0
    missed = _missed(floor, vals)
    return VerificationReport(
        experiment="smoothing-bound", n=f.n, weight_id="none",
        params=Rs, lhs=vals, rhs=np.full(len(Rs), target),
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
        params=Rs, lhs=tans, rhs=bils,
        tolerance=decay_ratio, floor=floor,
        passed=bool(tan_ok and bil_ok),
        notes="series are (tangential, bilaplacian), not two identity sides",
    )
