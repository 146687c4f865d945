"""Limit extrapolation and the verification experiments.

Convergence rates in the horizon T and the radius R are not known a
priori, so the extrapolator fits a constant-plus-power model
v(p) = L + c p^(-alpha) with the exponent a free parameter, seeded from
the increment ratio of the last three points.  A raw-last mode (final
value, last increment as error) stays available as a fit-free fallback,
and any non-monotone tail is flagged as non-convergent rather than
extrapolated.

The verify_* drivers run one experiment each and return a
VerificationReport; they are the layer the harness schedules.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from .errors import InvalidParameterError
from .functionals import (boundary_term, dispersive_l2_error, flux,
                          morawetz_lhs, morawetz_remainder_split,
                          radial_profile, remainder_terms, smoothing_profile,
                          weighted_radial_energy)
from .model import (QuadraturePlan, RadialWeight, VerificationReport,
                    WavePacketSum, relative_residual)
from .spectral import hs_norm_sq
from .weights import make_psi_k, rescale

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class LimitEstimate:
    value: float
    error: float
    converged: bool
    note: str = ""


def _power_model(p, L, c, alpha):
    return L + c * np.power(p, -alpha)


def estimate_limit(values, model: str = "constant-plus-power") -> LimitEstimate:
    """Extrapolate an ordered (parameter, value) schedule to its limit.

    model 'constant-plus-power' fits v = L + c p^(-alpha) over the tail
    (up to the last 5 points); 'raw-last' returns the final value with the
    last increment as the error bar.  A tail whose increments alternate in
    sign above the noise floor is reported as non-convergent with the
    raw-last value, never as a fitted limit.
    """
    pts = [(float(p), float(v)) for p, v in values]
    if len(pts) < 3:
        raise InvalidParameterError("limit estimation needs at least 3 points")
    params = np.array([p for p, _ in pts])
    vals = np.array([v for _, v in pts])
    if np.any(np.diff(params) <= 0):
        raise InvalidParameterError("schedule parameters must strictly increase")
    if model not in ("constant-plus-power", "raw-last"):
        raise InvalidParameterError(f"unknown extrapolation model {model!r}")

    if model == "raw-last":
        return LimitEstimate(vals[-1], abs(vals[-1] - vals[-2]), True, "raw-last")

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

def _floor(f: WavePacketSum, plan: QuadraturePlan) -> float:
    return hs_norm_sq(f, 0.5, plan)


def verify_identity(f: WavePacketSum, w: RadialWeight, T_schedule,
                    plan: QuadraturePlan | None = None,
                    tolerance: float = 1e-6,
                    datum_id: str = "datum") -> VerificationReport:
    """Exact finite-horizon check: bulk integral vs endpoint flux difference.

    The two sides are computed by unrelated quadratures (space-time vs two
    time slices), so agreement at tolerance is a real statement about both.
    """
    plan = plan or QuadraturePlan()
    Ts = [float(T) for T in T_schedule]
    floor = _floor(f, plan)
    lhs = np.array([morawetz_lhs(f, w, T, plan) for T in Ts])
    rhs = np.array([boundary_term(f, w, T, plan) for T in Ts])
    rel = relative_residual(lhs, rhs, floor)
    report = VerificationReport(
        experiment="identity", n=f.n, datum_id=datum_id, weight_id=w.label,
        params=np.array(Ts), lhs=lhs, rhs=rhs,
        tolerance=tolerance, floor=floor,
        passed=bool(np.all(rel <= tolerance)),
        notes=f"max relative residual {rel.max():.3e}" if len(Ts) else "",
    )
    return report


def verify_theorem_main(f: WavePacketSum, w: RadialWeight, T_schedule,
                        plan: QuadraturePlan | None = None,
                        tolerance: float = 0.02,
                        datum_id: str = "datum") -> VerificationReport:
    """Horizon limit of the weighted identity vs 2 pi psi'(inf) ||f||^2_{H^1/2}."""
    plan = plan or QuadraturePlan()
    Ts = [float(T) for T in T_schedule]
    floor = _floor(f, plan)
    target = TWO_PI * w.slope_inf * floor
    lhs = np.array([morawetz_lhs(f, w, T, plan) for T in Ts])
    rhs = np.array([boundary_term(f, w, T, plan) for T in Ts])
    est = estimate_limit(zip(Ts, lhs))
    limit_rel = relative_residual(est.value, target, floor)
    identity_rel = relative_residual(lhs, rhs, floor)
    return VerificationReport(
        experiment="theorem-limit", n=f.n, datum_id=datum_id, weight_id=w.label,
        params=np.array(Ts), lhs=lhs, rhs=np.full(len(Ts), target),
        tolerance=tolerance, floor=floor,
        extrapolated_limit=est.value, limit_error=est.error,
        passed=bool(est.converged and limit_rel <= tolerance),
        notes=est.note,
        extra={
            "target": target,
            "identity_rel_residual": identity_rel.tolist(),
        },
    )


def verify_corollary(f: WavePacketSum, R_schedule,
                     plan: QuadraturePlan | None = None,
                     tolerance: float = 0.02,
                     datum_id: str = "datum") -> VerificationReport:
    """Radius limit of the ball profile vs 2 pi ||f||^2_{H^1/2}.

    Also checks the one-sided bound: the full-gradient profile must reach
    (1 - tolerance) of the target somewhere on the schedule.
    """
    plan = plan or QuadraturePlan()
    Rs = [float(R) for R in R_schedule]
    floor = _floor(f, plan)
    target = TWO_PI * floor
    lhs = np.array([radial_profile(f, R, plan) for R in Rs])
    if f.n == 1:
        smoothing = lhs.copy()  # no tangential directions on the line
    else:
        smoothing = np.array([smoothing_profile(f, R, plan) for R in Rs])
    est = estimate_limit(zip(Rs, lhs))
    limit_rel = relative_residual(est.value, target, floor)
    sup_ok = bool(smoothing.size == 0 or
                  smoothing.max() >= (1.0 - tolerance) * target)
    return VerificationReport(
        experiment="corollary-limit", n=f.n, datum_id=datum_id, weight_id="none",
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
                plan: QuadraturePlan | None = None,
                tolerance: float = 0.02,
                datum_id: str = "datum") -> VerificationReport:
    """Radiation flux at +-t vs the signed limits +-2 pi psi'(inf) ||f||^2."""
    plan = plan or QuadraturePlan()
    ts = sorted(float(t) for t in t_schedule)
    if any(t <= 0 for t in ts):
        raise InvalidParameterError("flux schedule must list positive times")
    floor = _floor(f, plan)
    target = TWO_PI * w.slope_inf * floor
    plus = np.array([flux(f, w, t, plan) for t in ts])
    minus = np.array([flux(f, w, -t, plan) for t in ts])
    est_p = estimate_limit(zip(ts, plus))
    est_m = estimate_limit(zip(ts, minus))
    rel_p = relative_residual(est_p.value, target, floor)
    rel_m = relative_residual(est_m.value, -target, floor)
    params = np.concatenate([[-t for t in ts[::-1]], ts])
    lhs = np.concatenate([minus[::-1], plus])
    rhs = np.concatenate([np.full(len(ts), -target), np.full(len(ts), target)])
    return VerificationReport(
        experiment="flux-limit", n=f.n, datum_id=datum_id, weight_id=w.label,
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
                    plan: QuadraturePlan | None = None,
                    tolerance: float = 1e-3,
                    datum_id: str = "datum",
                    identity_check: bool = False) -> VerificationReport:
    """Three-term squeeze around the ball profile for the plateau weight.

    At every R:  profile(R) <= int int psi_k,R''|du/dr|^2
                            <= (k+1)/k * profile((k+1)R/k),
    and the spread of the profile tail must stay within the factor
    (k+1)/k + tolerance.  With identity_check, the signed tangential and
    bilaplacian parts are added to the middle term and compared against
    2 pi psi'(inf) ||f||^2 at each R (recorded, not gated).
    """
    plan = plan or QuadraturePlan()
    k = int(k)
    if k < 1:
        raise InvalidParameterError(f"plateau index must be >= 1, got {k}")
    Rs = [float(R) for R in R_schedule]
    w = make_psi_k(k)
    outer = (k + 1.0) / k
    floor = _floor(f, plan)

    profile_cache: dict = {}

    def prof(R: float) -> float:
        if R not in profile_cache:
            profile_cache[R] = radial_profile(f, R, plan)
        return profile_cache[R]

    low = np.array([prof(R) for R in Rs])
    mid = np.array([weighted_radial_energy(f, rescale(w, R), plan) for R in Rs])
    high = np.array([outer * prof(outer * R) for R in Rs])

    mag = max(float(np.max(np.abs(high))) if len(Rs) else 0.0, floor)
    slack = 10.0 * plan.rel_tol * mag
    bracket_ok = bool(np.all(low <= mid + slack) and np.all(high >= mid - slack))

    tail = low[-max(2, len(low) // 2):]
    lim_sup, lim_inf = float(tail.max()), float(tail.min())
    ratio = lim_sup / lim_inf if lim_inf > 0 else np.inf
    ratio_ok = bool(ratio <= outer + tolerance)

    est = estimate_limit(zip(Rs, low)) if len(Rs) >= 3 else \
        LimitEstimate(low[-1] if len(Rs) else 0.0, np.nan, False, "short schedule")

    extra = {
        "mid": mid.tolist(),
        "ratio": ratio,
        "ratio_bound": outer + tolerance,
        "bracket_ok": bracket_ok,
    }
    if identity_check:
        target = TWO_PI * w.slope_inf * floor
        gaps = []
        for R, m_val in zip(Rs, mid):
            tan, bil = morawetz_remainder_split(f, rescale(w, R), plan)
            gaps.append(abs(m_val + tan - 0.25 * bil - target))
        extra["identity_target"] = target
        extra["identity_gap"] = gaps

    return VerificationReport(
        experiment="sandwich", n=f.n, datum_id=datum_id, weight_id=w.label,
        params=np.array(Rs), lhs=low, rhs=high,
        tolerance=tolerance, floor=floor,
        extrapolated_limit=est.value, limit_error=est.error,
        passed=bool(bracket_ok and ratio_ok),
        notes=f"tail spread ratio {ratio:.6f} vs bound {outer + tolerance:.6f}",
        extra=extra,
    )


def verify_asymptotics(f: WavePacketSum, t_schedule,
                       plan: QuadraturePlan | None = None,
                       final_ratio: float = 0.1,
                       datum_id: str = "datum") -> VerificationReport:
    """Far-field approximant error along a growing time schedule.

    Passes when the L2 error strictly decreases at every step and the last
    value is at most final_ratio of the first.  No rate is asserted.
    """
    plan = plan or QuadraturePlan()
    ts = [float(t) for t in t_schedule]
    floor = _floor(f, plan)
    errs = np.array([dispersive_l2_error(f, t, plan) for t in ts])
    decreasing = bool(np.all(np.diff(errs) < 0)) if len(ts) > 1 else True
    ratio_ok = bool(len(ts) < 2 or errs[0] == 0.0
                    or errs[-1] <= final_ratio * errs[0])
    return VerificationReport(
        experiment="asymptotics", n=f.n, datum_id=datum_id, weight_id="none",
        params=np.array(ts), lhs=errs, rhs=np.zeros(len(ts)),
        tolerance=final_ratio, floor=floor,
        passed=decreasing and ratio_ok,
        notes=f"error fell by {errs[-1] / errs[0]:.3e}" if len(ts) > 1
              and errs[0] > 0 else "",
    )


def verify_smoothing_bound(f: WavePacketSum, R_schedule,
                           plan: QuadraturePlan | None = None,
                           tolerance: float = 0.02,
                           liminf_fraction: float = 0.9,
                           datum_id: str = "datum") -> VerificationReport:
    """Boundedness and non-degeneracy of the gradient profile.

    Records the observed sup of profile/||f||^2_{H^1/2}; requires the
    profile to reach (1 - tolerance) of 2 pi ||f||^2 somewhere, and to stay
    above liminf_fraction of that level from some schedule radius onward
    (the contrapositive of 'profile vanishing forces f = 0').
    """
    plan = plan or QuadraturePlan()
    Rs = [float(R) for R in R_schedule]
    floor = _floor(f, plan)
    target = TWO_PI * floor
    vals = np.array([smoothing_profile(f, R, plan) for R in Rs])
    sup_ok = bool(len(Rs) and vals.max() >= (1.0 - tolerance) * target)
    threshold_R = float("nan")
    for i in range(len(Rs)):
        if np.all(vals[i:] >= liminf_fraction * target):
            threshold_R = Rs[i]
            break
    observed = float(vals.max() / floor) if floor > 0 else 0.0
    if len(f) == 0:
        sup_ok = True
        threshold_R = Rs[0] if Rs else float("nan")
    return VerificationReport(
        experiment="smoothing-bound", n=f.n, datum_id=datum_id, weight_id="none",
        params=np.array(Rs), lhs=vals, rhs=np.full(len(Rs), target),
        tolerance=tolerance, floor=floor,
        passed=bool(sup_ok and np.isfinite(threshold_R)) if len(f) else True,
        notes=f"observed sup/norm ratio {observed:.6f}",
        extra={"target": target, "threshold_radius": threshold_R,
               "observed_constant": observed},
    )


def verify_remainder_decay(f: WavePacketSum, w_base: RadialWeight, R_schedule,
                           plan: QuadraturePlan | None = None,
                           decay_ratio: float = 0.25,
                           datum_id: str = "datum") -> VerificationReport:
    """Both remainder terms must shrink to decay_ratio of their first value.

    lhs carries the tangential series, rhs the bilaplacian series; the gate
    compares last against first for each.  n = 1 has no tangential term.
    """
    plan = plan or QuadraturePlan()
    Rs = [float(R) for R in R_schedule]
    floor = _floor(f, plan)
    pairs = [remainder_terms(f, w_base, R, plan) for R in Rs]
    tans = np.array([p[0] for p in pairs])
    bils = np.array([p[1] for p in pairs])
    # a series that starts at roundoff level (the tangential term of a
    # radially symmetric datum) is absent, not a failure to decay
    absent = plan.rel_tol * floor
    if len(Rs) < 2 or len(f) == 0:
        ok = True
    else:
        tan_ok = tans[0] <= absent or tans[-1] <= decay_ratio * tans[0]
        bil_ok = bils[0] <= absent or bils[-1] <= decay_ratio * bils[0]
        ok = bool(tan_ok and bil_ok)
    return VerificationReport(
        experiment="remainder-decay", n=f.n, datum_id=datum_id,
        weight_id=w_base.label,
        params=np.array(Rs), lhs=tans, rhs=bils,
        tolerance=decay_ratio, floor=floor,
        passed=ok,
        notes="series are (tangential, bilaplacian), not two identity sides",
    )
