"""Shell and time quadrature against closed forms and special functions."""

import numpy as np
import pytest
from scipy.special import ive

from smoothing_lab.errors import (InvalidParameterError,
                                  ToleranceNotMetError)
from smoothing_lab.model import QuadraturePlan, WavePacket, l2_norm_sq, packet_sum
from smoothing_lab.propagator import evolve_analytic, state_from_datum
from smoothing_lab.quadrature import (ShellCoefficients, _bucket_band,
                                      _sphere_rule, adaptive_time_integral,
                                      real_line_time_integral, shell_integral)

PLAN = QuadraturePlan()


def single(n, A=1.0, a=1.0, c=None, v=None):
    c = np.zeros(n) if c is None else c
    v = np.zeros(n) if v is None else v
    return packet_sum([WavePacket(A, a, c, v)])


# ---------------------------------------------------------------------------
# angular rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("z", [50.0, 300.0, 900.0])
def test_circle_rule_resolves_exponential_bandwidth(z):
    # int_{S^1} e^{z cos(theta)} dtheta = 2 pi I_0(z); work scaled by e^{-z}
    omega, wts = _sphere_rule(2, _bucket_band(z))
    got = np.sum(wts * np.exp(z * (omega[:, 0] - 1.0)))
    expect = 2.0 * np.pi * ive(0, z)
    assert abs(got - expect) <= 1e-12 * expect
    # the rule chosen for 4x the band agrees, so the band estimate saturates
    omega4, wts4 = _sphere_rule(2, _bucket_band(4 * z))
    refined = np.sum(wts4 * np.exp(z * (omega4[:, 0] - 1.0)))
    assert abs(got - refined) <= 1e-13 * expect


@pytest.mark.parametrize("z,tol", [(50.0, 1e-12), (300.0, 1e-11)])
def test_sphere_rule_resolves_exponential_bandwidth(z, tol):
    # int_{S^2} e^{z cos(theta)} dsigma = 4 pi sinh(z)/z, scaled by e^{-z}.
    # At z=300 the sum is rounding-bound near 5e-12: the integral is
    # exponentially concentrated, so ~200 node roundings dominate.
    omega, wts = _sphere_rule(3, _bucket_band(z))
    got = np.sum(wts * np.exp(z * (omega[:, 2] - 1.0)))
    expect = 2.0 * np.pi * (1.0 - np.exp(-2.0 * z)) / z
    assert abs(got - expect) <= tol * expect


def test_line_rule_is_two_rays():
    omega, wts = _sphere_rule(1, 0.0)
    np.testing.assert_allclose(np.sort(omega[:, 0]), [-1.0, 1.0])
    np.testing.assert_allclose(wts, [1.0, 1.0])


def test_sphere_rule_rejects_high_dimension():
    with pytest.raises(InvalidParameterError):
        _sphere_rule(4, 10.0)


def test_bucket_band_covers_requirement():
    for band in (0.0, 3.0, 57.0, 412.0, 2000.0):
        m = _bucket_band(band)
        assert m >= band + 9.0 * band ** (1.0 / 3.0) + 18.0
    assert _bucket_band(100.0) <= _bucket_band(101.0)


# ---------------------------------------------------------------------------
# shell integrals against closed forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("t", [0.0, 2.0])
def test_mass_conserved_any_dimension(n, t):
    f = single(n, A=1.3 - 0.4j, a=0.8, c=0.3 * np.ones(n), v=0.25 * np.ones(n))
    st = evolve_analytic(f, t)
    val, info = shell_integral(st, ShellCoefficients(w_mass=np.ones_like), PLAN)
    assert val == pytest.approx(l2_norm_sq(f), rel=1e-10)
    assert info["abs_error"] <= 1e-8 * val


def test_two_packet_interference_mass():
    f = packet_sum([WavePacket(1.0, 1.0, [0.3], [0.4]),
                    WavePacket(0.6j, 1.4, [-0.5], [-0.2])])
    st = evolve_analytic(f, 0.7)
    val, _ = shell_integral(st, ShellCoefficients(w_mass=np.ones_like), PLAN)
    assert val == pytest.approx(l2_norm_sq(f), rel=1e-10)


def test_ball_truncated_mass_matches_erf():
    from scipy.special import erf
    a, R = 0.9, 1.7
    st = state_from_datum(single(1, a=a))
    val, _ = shell_integral(st, ShellCoefficients(w_mass=np.ones_like),
                            PLAN, r_max=R)
    expect = np.sqrt(np.pi / (2 * a)) * erf(np.sqrt(2 * a) * R)
    assert val == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gradient_energy_closed_form(n):
    # int |grad u|^2 = |A|^2 (pi/2a)^{n/2} (a n + 4 pi^2 |v|^2) at any time
    A, a = 0.9 + 0.2j, 1.1
    v = 0.3 * np.arange(1, n + 1)
    f = single(n, A=A, a=a, v=v)
    expect = abs(A) ** 2 * (np.pi / (2 * a)) ** (n / 2) * (
        a * n + 4 * np.pi**2 * float(v @ v))
    one = np.ones_like
    coeffs = ShellCoefficients(w_rr=one, w_tau=one if n > 1 else None)
    for t in (0.0, 1.5):
        st = evolve_analytic(f, t)
        val, _ = shell_integral(st, coeffs, PLAN)
        assert val == pytest.approx(expect, rel=1e-9)


def test_flux_odd_symmetry_cancels():
    # centered packet: radial momentum flux through opposite rays cancels
    st = state_from_datum(single(1, v=np.array([0.7])))
    val, _ = shell_integral(
        st, ShellCoefficients(w_flux=np.ones_like), PLAN, scale=1.0)
    assert abs(val) <= 1e-10


def test_shell_weight_knots_are_honored():
    # integrating the indicator-like jump 1_{r<=1.7} exactly needs the seam
    a = 0.8
    from scipy.special import erf
    st = state_from_datum(single(1, a=a))

    def w(r):
        return np.where(r <= 1.7, 1.0, 0.0)

    val, _ = shell_integral(st, ShellCoefficients(w_mass=w, knots=(1.7,)), PLAN)
    expect = np.sqrt(np.pi / (2 * a)) * erf(np.sqrt(2 * a) * 1.7)
    assert val == pytest.approx(expect, rel=1e-10)


def test_shell_integral_reports_nonconvergence():
    # demands accuracy below machine precision so refinement must give up
    plan = QuadraturePlan(rel_tol=1e-18, max_panels=8)
    f = single(2, a=1.0, v=np.array([0.4, -0.3]))
    st = evolve_analytic(f, 2.0)
    with pytest.raises(ToleranceNotMetError) as exc:
        shell_integral(st, ShellCoefficients(w_mass=np.ones_like), plan)
    assert exc.value.achieved > exc.value.requested
    assert np.isfinite(exc.value.estimate)


def test_needs_gradient_flag():
    assert not ShellCoefficients(w_mass=np.ones_like).needs_gradient()
    assert ShellCoefficients(w_rr=np.ones_like).needs_gradient()
    assert ShellCoefficients(w_flux=np.ones_like).needs_gradient()


# ---------------------------------------------------------------------------
# time integration
# ---------------------------------------------------------------------------

def test_adaptive_time_integral_polynomial():
    val, err = adaptive_time_integral(lambda t: t**3 - t, 0.0, 2.0,
                                      rel_tol=1e-12, scale=1.0)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_adaptive_time_integral_gaussian():
    val, _ = adaptive_time_integral(lambda t: np.exp(-t * t), -6.0, 6.0,
                                    rel_tol=1e-12, scale=1.0)
    assert val == pytest.approx(np.sqrt(np.pi), rel=1e-12)


def test_real_line_integral_lorentzian():
    # 1/(1+t^2) has the same tail order as the smoothing profiles
    val, _ = real_line_time_integral(lambda t: 1.0 / (1.0 + t * t),
                                     rel_tol=1e-10, scale=1.0)
    assert val == pytest.approx(np.pi, rel=1e-10)


def test_real_line_integral_gaussian():
    val, _ = real_line_time_integral(lambda t: np.exp(-t * t),
                                     rel_tol=1e-10, scale=1.0)
    assert val == pytest.approx(np.sqrt(np.pi), rel=1e-10)


def test_noise_floor_stops_runaway_refinement():
    # deterministic jitter at the 1e-9 level models spatial quadrature noise
    def fn(t):
        return np.exp(-t * t) + 1e-9 * np.sin(1e6 * t)

    val, err = adaptive_time_integral(fn, -6.0, 6.0, rel_tol=1e-13, scale=1.0,
                                      noise=1e-8)
    assert val == pytest.approx(np.sqrt(np.pi), abs=1e-7)
    # without the floor the halving tolerance chases the jitter instead
    with pytest.raises(ToleranceNotMetError):
        adaptive_time_integral(fn, -6.0, 6.0, rel_tol=1e-13, scale=1.0,
                               max_depth=12)
