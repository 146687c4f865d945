"""Extrapolation and experiment-driver tests.

The extrapolator is probed with synthetic sequences whose limits are known
exactly; the drivers get one cheap real run each plus their argument
guards.  The heavy multi-datum sweeps live in the acceptance suite.
"""

import functools
import warnings

import numpy as np
import pytest

from smoothing_lab import functionals, limits
from smoothing_lab.errors import InvalidParameterError
from smoothing_lab.limits import (
    estimate_limit,
    verify_asymptotics,
    verify_corollary,
    verify_flux,
    verify_identity,
    verify_remainder_decay,
    verify_sandwich,
    verify_smoothing_bound,
    verify_theorem_main,
)
from smoothing_lab.model import packet, packet_sum
from smoothing_lab.weights import make_psi_eps

F_1D = packet_sum([packet(1.0, 1.0, [0.2], [0.3])])


# ---------------------------------------------------------------------------
# extrapolation on synthetic schedules
# ---------------------------------------------------------------------------

def test_power_law_limit_recovered():
    ps = 2.0 ** np.arange(7)
    vals = 3.7 + 2.1 * ps**-1.5
    est = estimate_limit(zip(ps, vals))
    assert est.converged
    assert est.value == pytest.approx(3.7, abs=1e-6)
    assert "alpha" in est.note


def test_three_point_fit_reports_raw_last_error_bar():
    # three points fix the three model parameters exactly, so the fit has
    # no spare point to estimate a covariance from; the error bar must
    # still cover the 1e-9 ripple's effect on the limit
    ps = np.array([4.0, 8.0, 16.0])
    vals = 1.0 + 2.0 * ps**-1.3 + 1e-9 * np.array([1.0, -1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_limit(zip(ps, vals))
    assert est.converged
    assert "covariance not estimated" in est.note
    assert est.error >= abs(est.value - 1.0)


def test_power_law_with_negative_amplitude():
    ps = np.geomspace(1.0, 64.0, 7)
    vals = -0.8 - 5.0 * ps**-0.7
    est = estimate_limit(zip(ps, vals))
    assert est.converged
    assert est.value == pytest.approx(-0.8, abs=1e-5)


def test_constant_sequence_short_circuits():
    est = estimate_limit([(1, 4.2), (2, 4.2), (4, 4.2)])
    assert est.converged
    assert est.value == 4.2
    assert est.error == 0.0
    assert "constant" in est.note


def test_alternating_tail_flagged():
    ps = 2.0 ** np.arange(6)
    vals = 1.0 + 0.1 * (-1.0) ** np.arange(6)
    est = estimate_limit(zip(ps, vals))
    assert not est.converged
    assert "alternate" in est.note
    assert est.value == vals[-1]


def test_schedule_guards():
    with pytest.raises(InvalidParameterError):
        estimate_limit([(1, 1.0), (2, 1.1)])
    with pytest.raises(InvalidParameterError):
        estimate_limit([(2, 1.0), (1, 1.1), (4, 1.2)])
    # the power model reads p^-alpha
    for params in ((0.0, 1.0, 2.0), (-1.0, 1.0, 2.0)):
        with pytest.raises(InvalidParameterError, match="must be positive"):
            estimate_limit(zip(params, (1.0, 1.1, 1.15)))


@pytest.mark.parametrize("params", [(1.0, np.nan, 3.0), (1.0, 2.0, np.inf),
                                    (np.nan, 2.0, 3.0)])
def test_schedule_parameters_must_be_finite(params):
    # both passed the increase check, NaN because every comparison with it
    # is False, and reached the fit
    with pytest.raises(InvalidParameterError, match="must be finite"):
        estimate_limit(zip(params, (1.0, 1.1, 1.15)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_value_is_not_a_converged_limit(bad):
    # an infinite value made the noise floor infinite, so every increment
    # counted as noise and the schedule passed as a converged constant
    est = estimate_limit([(1, 1.0), (2, bad), (3, 1.2)])
    assert not est.converged
    assert est.note == "non-finite value in the schedule"
    assert est.value == 1.2


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_schedule_points_must_be_finite(bad):
    with pytest.raises(InvalidParameterError, match="must be finite"):
        limits._points("identity", [1.0, bad])


def test_limit_moves_at_roundoff_when_an_input_moves_one_ulp():
    # the exponent is solved to roundoff, not to a fit tolerance, so the
    # limit is a smooth function of the schedule: moving any one parameter
    # or value by 1 ulp either way moves it by roundoff only
    for count in (3, 4, 5):
        ps = 4.0 * 2.0 ** np.arange(count)
        vals = 1.3 + 0.7 * ps**-1.7 + 1e-7 * np.cos(np.arange(count))
        base = estimate_limit(zip(ps, vals)).value
        for which in (ps, vals):
            for i in range(count):
                for toward in (-np.inf, np.inf):
                    moved = which.copy()
                    moved[i] = np.nextafter(moved[i], toward)
                    pair = (moved, vals) if which is ps else (ps, moved)
                    value = estimate_limit(zip(*pair)).value
                    assert abs(value - base) <= 1e-12 * abs(base), (count, i)


def test_fit_brackets_a_seed_that_is_the_root():
    # an exact power law (L = 1.45248, alpha = 2.7003) whose increment
    # ratio gives alpha exactly, where d(RSS)/d(alpha) reads roundoff: a
    # search that starts there must still bracket the root
    ps = [0.84444639918897, 2.53333919756691, 7.6000175927007305]
    vals = [-1.3487629167129, 1.3082790582251573, 1.4450576329352784]
    est = estimate_limit(zip(ps, vals))
    assert est.converged
    assert est.value == pytest.approx(1.45248, rel=1e-5)
    assert est.note.startswith("power fit alpha=2.7")


def test_exact_power_laws_give_their_limit():
    rng = np.random.default_rng(20061)
    for case in range(400):
        count = 3 + case % 4
        p0, ratio = 10.0 ** rng.uniform(-1.0, 2.0), rng.choice([1.5, 2.0, 3.0, 4.0])
        L, alpha = rng.uniform(-2.0, 2.0), rng.uniform(0.3, 5.0)
        c = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)
        ps = p0 * ratio ** np.arange(count)
        est = estimate_limit(zip(ps, L + c * ps**-alpha))
        assert abs(est.value - L) <= 1e-8 * max(1.0, abs(L)), (case, est)


def test_steep_tail_at_large_parameters_is_fitted():
    # p^-9 at p = 1e20 underflowed the centred sums of the unscaled fit
    k = np.arange(4)
    ps = 1e20 * 2.0**k
    est = estimate_limit(zip(ps, 1.0 + (ps / 1e20) ** -9 + 1e-9 * np.cos(k)))
    assert est.converged
    assert est.note.startswith("power fit alpha=9")
    assert est.value == pytest.approx(1.0, abs=1e-8)


def test_limit_does_not_depend_on_the_parameter_scale():
    # L + c p^-alpha = L + c' (p/s)^-alpha: scaling the parameters moves
    # neither the limit nor its error bar
    base = 2.0 ** np.arange(5)
    ests = [estimate_limit(zip(s * base, 1.0 + base**-1.5))
            for s in (1e-20, 1.0, 1e20, 1e100)]
    for est in ests:
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=1e-14)
        assert est.error == ests[0].error


def test_scalar_schedule_is_one_point():
    w = make_psi_eps(1.0)
    Ts = np.array([0.5])
    report = verify_identity(F_1D, w, 0.5, tolerance=1e-6)
    listed = verify_identity(F_1D, w, Ts, tolerance=1e-6)
    np.testing.assert_array_equal(report.params, [0.5])
    np.testing.assert_array_equal(report.lhs, listed.lhs)
    assert not np.shares_memory(listed.params, Ts)
    # MIN_POINTS still applies to the one point
    with pytest.raises(InvalidParameterError,
                       match="theorem-limit needs at least 3 schedule points, got 1"):
        verify_theorem_main(F_1D, w, 2.0, tolerance=0.02)


def test_limit_is_the_least_squares_optimum():
    # the exponent where d(RSS)/d(alpha) = 0, found at 40 digits from the
    # closed-form L and c at each alpha, gives the limit to roundoff
    mp = pytest.importorskip("mpmath").mp
    ps = 8.0 * 2.0 ** np.arange(4)
    vals = 1.3 - 0.9 * ps**-1.6 + 2e-6 * np.array([1.0, -0.5, 0.3, 0.1])
    est = estimate_limit(zip(ps, vals))
    with mp.workdps(40):
        P, V = [mp.mpf(float(p)) for p in ps], [mp.mpf(float(v)) for v in vals]

        def fit(alpha):
            q = [p**-alpha for p in P]
            qm, vm = sum(q) / len(q), sum(V) / len(V)
            c = (sum((a - qm) * (b - vm) for a, b in zip(q, V))
                 / sum((a - qm) ** 2 for a in q))
            return vm - c * qm, c, [b - vm - c * (a - qm) for a, b in zip(q, V)], q

        def slope(alpha):
            _, c, r, q = fit(alpha)
            return c * sum(ri * qi * mp.log(p) for ri, qi, p in zip(r, q, P))

        exact = fit(mp.findroot(slope, mp.mpf(1.6)))[0]
    assert est.converged
    assert abs(est.value - float(exact)) <= 1e-14 * abs(float(exact))


def mp_optimum(mp, ps, vals, alpha):
    """The limit L of the least-squares fit at 40 digits: the closed-form
    L and c at each alpha, and the zero of d(RSS)/d(alpha) near alpha."""
    with mp.workdps(40):
        P, V = [mp.mpf(float(p)) for p in ps], [mp.mpf(float(v)) for v in vals]

        def fit(alpha):
            q = [p**-alpha for p in P]
            qm, vm = sum(q) / len(q), sum(V) / len(V)
            c = (sum((a - qm) * (b - vm) for a, b in zip(q, V))
                 / sum((a - qm) ** 2 for a in q))
            return vm - c * qm, c, [b - vm - c * (a - qm) for a, b in zip(q, V)], q

        def slope(alpha):
            _, c, r, q = fit(alpha)
            return c * sum(ri * qi * mp.log(p) for ri, qi, p in zip(r, q, P))

        return float(fit(mp.findroot(slope, mp.mpf(alpha)))[0])


def test_limit_is_the_optimum_far_from_the_seed():
    # two power laws: the increment ratio reads 1.44, 0.55 in log alpha
    # from the least-squares exponent near 2.5
    mp = pytest.importorskip("mpmath").mp
    ps = 2.0 ** np.arange(5)
    vals = 1.0 + ps**-1.0 + 5.0 * ps**-3.0
    est = estimate_limit(zip(ps, vals))
    exact = mp_optimum(mp, ps, vals, 2.5)
    assert est.converged and "alpha=2.5" in est.note
    assert abs(est.value - exact) <= 1e-14 * abs(exact)


def test_fit_without_a_minimum_stops_at_the_bound():
    # the residual falls all the way to alpha = 20, where the fit stops
    ps = 2.0 ** np.arange(5)
    est = estimate_limit(zip(ps, [2.0, 1.0, 1.0, 1.0, 1.0 + 1e-6]))
    assert est.converged
    assert est.note == "power fit alpha=20"


def test_fit_takes_the_bound_over_a_residual_maximum():
    # d(RSS)/d(alpha) has one zero on [0.05, 20], at alpha = 1.03685, and
    # it is the residual's maximum: 0.146705 there, against 0.133373 at
    # alpha = 0.05 and 0.119615 at alpha = 20
    ps = [1.0509371955332547, 2.1018743910665094, 4.203748782133019,
          8.407497564266038, 16.814995128532075]
    vals = [1.1375082719836616, 0.6852238369311117, 0.9239691350532178,
            1.06749154707989, 1.137284762003074]
    est = estimate_limit(zip(ps, vals))
    assert est.converged and est.note == "power fit alpha=20"
    assert est.value == pytest.approx(0.95349, rel=1e-5)


def test_fit_takes_the_better_bound():
    # the residual falls from a maximum at alpha = 0.762 to both bounds,
    # to 0.52397 at alpha = 0.05 and 0.54420 at alpha = 20; the large error
    # bar reports an ill-posed fit
    ps = [0.5992556934183696, 2.3970227736734784, 9.588091094693914,
          38.352364378775654, 153.40945751510262]
    vals = [0.44579508748705177, -0.44281848305658184, 0.19997820793701224,
            0.420384897403183, 0.4941535113417654]
    est = estimate_limit(zip(ps, vals))
    assert est.converged and est.note == "power fit alpha=0.05"
    assert est.error > 10.0


@functools.lru_cache(maxsize=None)
def lattice_basis(ratio, count):
    """Orthonormal bases, by Householder QR, of the design matrices
    [1, ratio^(-alpha k)], k < count, at each alpha of a 4,001-point log
    lattice over the fit's range: one stack per geometric schedule shape."""
    alphas = np.geomspace(*limits._ALPHA_BOUNDS, 4001)
    q = float(ratio) ** -(alphas[:, None] * np.arange(count))
    return np.linalg.qr(np.stack([np.ones_like(q), q], axis=-1))[0]


def sweep_schedules():
    """(ratio, ps, vals) of 200 noisy power laws and 200 sums of two, 3 to
    5 points each: p_0 = 10^U(-1, 2), ratio 1.5, 2, 3 or 4."""
    for seed in (99, 100):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            count = int(rng.integers(3, 6))
            p0, ratio = 10.0 ** rng.uniform(-1.0, 2.0), float(rng.choice([1.5, 2.0, 3.0, 4.0]))
            ps = p0 * ratio ** np.arange(count)
            if seed == 99:
                L, c, alpha = rng.uniform(-2.0, 2.0, 2).tolist() + [rng.uniform(0.3, 5.0)]
                noise = 10.0 ** rng.uniform(-8.0, -1.0) * rng.standard_normal(count)
                yield ratio, ps, L + c * ps**-alpha + noise
            else:
                L, c1, c2 = rng.uniform(-2.0, 2.0, 3)
                a1, a2 = rng.uniform(0.3, 2.0), rng.uniform(2.0, 6.0)
                yield ratio, ps, L + c1 * ps**-a1 + c2 * ps**-a2


def test_fit_has_the_least_residual_on_the_whole_range():
    # every power fit's residual sum of squares, by lstsq at its exponent,
    # is at most that of the best exponent of the lattice, each the
    # residual of the values off the span of the lattice's QR basis
    fits = 0
    for ratio, ps, vals in sweep_schedules():
        est = estimate_limit(zip(ps, vals))
        if not est.note.startswith("power fit"):
            continue
        alpha, L = limits._fit_exponent(ps / ps[0], vals)[:2]
        assert est.value == L
        design = np.column_stack([np.ones_like(ps), (ps / ps[0]) ** -alpha])
        resid = vals - design @ np.linalg.lstsq(design, vals, rcond=None)[0]
        basis = lattice_basis(ratio, len(ps))
        off = vals - np.matmul(basis, np.matmul(vals, basis)[..., None])[..., 0]
        assert resid @ resid <= (1.0 + 1e-9) * np.min(np.sum(off * off, axis=1)), (ps, vals)
        fits += 1
    assert fits >= 300


def test_root_search_returns_zeros_in_lattice_order():
    # the kink finder's routine, which the fit runs on a rising lattice,
    # on a falling one: the zeros come in the lattice's order
    zeros = functionals._zeros(np.sin, np.linspace(10.0, 0.5, 40))
    expected = (3.0 * np.pi, 2.0 * np.pi, np.pi)
    assert len(zeros) == 3
    for z, root in zip(zeros, expected):
        assert abs(z - root) <= np.spacing(root)


# ---------------------------------------------------------------------------
# drivers: one cheap live run each, plus guards
# ---------------------------------------------------------------------------

def test_identity_report_fields():
    report = verify_identity(F_1D, make_psi_eps(1.0), [0.5], tolerance=1e-6)
    assert report.experiment == "identity"
    assert report.n == 1
    assert report.weight_id == "soft-abs-eps1"
    assert report.params.shape == report.lhs.shape == report.rhs.shape == (1,)
    assert report.floor > 0
    assert report.passed
    assert np.all(report.rel_residual <= report.tolerance)
    assert report.abs_residual.shape == (1,)


def test_identity_holds_off_centre_in_3d():
    # the acceptance matrix covers n = 1 and 2; here a moving packet away
    # from the origin gives the n = 3 angular rule a non-trivial band
    f = packet_sum([packet(1.0, 1.0, [0.3, -0.2, 0.1], [0.2, 0.0, -0.1])])
    report = verify_identity(f, make_psi_eps(1.0), [0.25], tolerance=1e-6)
    assert report.n == 3
    assert report.rel_residual[0] <= 1e-6
    assert report.passed


def test_asymptotics_smoke():
    report = verify_asymptotics(F_1D, [1.0, 4.0], final_ratio=0.5)
    assert report.passed
    assert report.lhs[1] < report.lhs[0]


def test_decay_drivers_reject_one_point_schedules():
    # each verdict compares the last point with the first
    with pytest.raises(InvalidParameterError):
        verify_asymptotics(F_1D, [1.0], final_ratio=0.1)
    with pytest.raises(InvalidParameterError):
        verify_remainder_decay(F_1D, make_psi_eps(1.0), [4.0], decay_ratio=0.25)


def test_flux_rejects_nonpositive_times():
    # three points pass the schedule-length check, so the positivity
    # rule is what raises
    with pytest.raises(InvalidParameterError, match="must be positive"):
        verify_flux(F_1D, make_psi_eps(1.0), [-1.0, 1.0, 2.0], tolerance=0.02)


@pytest.mark.parametrize("T", [np.nan, np.inf])
def test_identity_rejects_horizon_that_is_not_finite(T):
    with pytest.raises(InvalidParameterError, match="finite"):
        verify_identity(F_1D, make_psi_eps(1.0), [T], 1e-6)


def test_theorem_rejects_horizon_that_is_not_finite(monkeypatch):
    def computed(*args):
        raise AssertionError("an integral ran before the schedule was checked")

    monkeypatch.setattr(limits, "hs_norm_sq", computed)
    monkeypatch.setattr(limits, "morawetz_lhs", computed)
    with pytest.raises(InvalidParameterError, match="finite"):
        verify_theorem_main(F_1D, make_psi_eps(1.0), [1.0, 2.0, np.inf], 0.02)


def test_sandwich_rejects_bad_plateau_index():
    with pytest.raises(InvalidParameterError):
        verify_sandwich(F_1D, 0, [4.0, 8.0], tolerance=1e-3)


def test_sandwich_rejects_fractional_plateau_index(monkeypatch):
    # make_psi_k judges k before any integral, so 2.5 cannot run as 2
    def computed(*args):
        raise AssertionError("an integral ran before k was checked")

    monkeypatch.setattr(limits, "hs_norm_sq", computed)
    monkeypatch.setattr(limits, "radial_profile", computed)
    with pytest.raises(InvalidParameterError, match="integer >= 1"):
        verify_sandwich(F_1D, 2.5, [4.0, 8.0], tolerance=1e-3)


# a fast packet, packet(amplitude, width, centre, momentum), that crosses
# the balls R <= 4 in a time window far shorter than an initial time panel:
# no time node falls inside it, so every profile integral misses it and
# reads 0 (ROADMAP, "No silent misses").  Once time knots come from the
# packet's kinematics the profile is positive and these tests change.
FAST_1D = packet_sum([packet(1.0, 1.0, [-500.0], [300.0])])


def test_sandwich_fails_zero_profile_of_nonzero_datum():
    # a nonzero datum's profile is positive, so zeros are a miss, not a
    # profile without spread
    report = verify_sandwich(FAST_1D, 2, [1.0, 2.0, 4.0], tolerance=1e-3)
    assert report.floor > 0.0
    assert not report.passed
    assert report.extra["ratio"] == np.inf
    assert report.notes.startswith("profile is 0 for a nonzero datum")


@pytest.mark.parametrize("verify", [verify_corollary, verify_smoothing_bound])
def test_ball_verifiers_fail_zero_profile_of_nonzero_datum(verify):
    # the same miss as the sandwich's: FAIL, and the note says why
    report = verify(FAST_1D, [1.0, 2.0, 4.0], tolerance=0.02)
    assert report.floor > 0.0 and np.all(report.lhs == 0.0)
    assert not report.passed
    assert report.notes.startswith("profile is 0 for a nonzero datum; ")


@pytest.mark.parametrize("verify", [verify_corollary, verify_smoothing_bound])
def test_ball_verifiers_pass_zero_datum(verify):
    # the zero datum's profile is 0 without a miss
    report = verify(packet_sum([], n=1), [1.0, 2.0, 4.0], tolerance=0.02)
    assert report.floor == 0.0 and np.all(report.lhs == 0.0)
    assert report.passed
    assert not report.notes.startswith("profile is 0")


def test_zero_datum_sandwich_passes():
    report = verify_sandwich(packet_sum([], n=1), 2, [1.0, 2.0, 4.0], tolerance=1e-3)
    assert report.passed
    assert report.floor == 0.0 and report.extra["ratio"] == 1.0


def test_zero_datum_smoothing_bound_passes():
    empty = packet_sum([], n=1)
    report = verify_smoothing_bound(empty, [1.0, 2.0, 4.0], tolerance=0.02)
    assert report.passed
    assert np.all(report.lhs == 0.0)
    assert report.floor == 0.0


def test_remainder_decay_ignores_roundoff_tangential_series():
    # a radially symmetric datum has no tangential gradient: its tangential
    # series is roundoff and must count as absent, not as failing to decay
    centred = packet_sum([packet(1.0, 1.0, [0.0, 0.0])])
    report = verify_remainder_decay(centred, make_psi_eps(1.0), [4.0, 16.0],
                                    decay_ratio=0.25)
    assert np.all(report.lhs < 1e-12)
    assert report.rhs[1] <= 0.25 * report.rhs[0]
    assert report.passed


@pytest.mark.parametrize("driver", ["theorem", "corollary", "flux", "asymptotics"])
def test_driver_makes_one_quadrature_call_per_schedule(monkeypatch, driver):
    # the functionals hand each schedule to the quadrature layer whole:
    # one time integral for the horizons or the radii, one batch for the
    # times; hs_norm_sq's own call goes through the spectral module and is
    # not counted here
    calls = []
    inside = []

    def spy(name):
        inner = getattr(functionals, name)

        def counted(*args, **kwargs):
            if not inside:
                calls.append(name)
            inside.append(name)
            try:
                return inner(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(functionals, name, counted)

    for name in ("shell_integrals", "adaptive_time_integral", "real_line_time_integral"):
        spy(name)
    w = make_psi_eps(1.0)
    if driver == "theorem":
        verify_theorem_main(F_1D, w, [1.0, 2.0, 4.0, 8.0], tolerance=0.02)
        assert calls == ["adaptive_time_integral"]
    elif driver == "corollary":
        verify_corollary(F_1D, [4.0, 8.0, 16.0], tolerance=0.02)
        assert calls == ["real_line_time_integral"]
    elif driver == "flux":
        verify_flux(F_1D, w, [8.0, 16.0, 32.0], tolerance=0.02)
        assert calls == ["shell_integrals"]
    else:
        verify_asymptotics(F_1D, [1.0, 2.0, 4.0], final_ratio=0.5)
        assert calls == ["shell_integrals"]
