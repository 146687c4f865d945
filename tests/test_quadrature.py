"""Shell and time quadrature against closed forms and special functions."""

import math

import numpy as np
import pytest
from scipy.special import erf, ive

from smoothing_lab.errors import (InvalidParameterError,
                                  ToleranceNotMetError)
from smoothing_lab.model import (WavePacket, l2_norm_sq, packet_sum,
                                 random_packet_suite)
from smoothing_lab.propagator import evolve_analytic, fourier_state
from smoothing_lab import quadrature
from smoothing_lab.quadrature import (_GK21, _SERIES_BELOW, _TAU_SPACE,
                                      ShellCoefficients, _adaptive,
                                      _angular_moments, _bucket_band,
                                      _compact_line_rate, _moment_values,
                                      _on_compact_line,
                                      _share_groups, _shell_values,
                                      _sphere_rule, _StateGeometry,
                                      adaptive_time_integral,
                                      real_line_time_integral, shell_integral,
                                      shell_integrals)

EPS = np.finfo(float).eps


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
    val, info = shell_integral(st, ShellCoefficients(w_mass=np.ones_like))
    assert val == pytest.approx(l2_norm_sq(f), rel=1e-10)
    assert info["abs_error"] <= 1e-8 * val


def test_two_packet_interference_mass():
    f = packet_sum([WavePacket(1.0, 1.0, [0.3], [0.4]),
                    WavePacket(0.6j, 1.4, [-0.5], [-0.2])])
    st = evolve_analytic(f, 0.7)
    val, _ = shell_integral(st, ShellCoefficients(w_mass=np.ones_like))
    assert val == pytest.approx(l2_norm_sq(f), rel=1e-10)


def test_ball_truncated_mass_matches_erf():
    a, R = 0.9, 1.7
    st = evolve_analytic(single(1, a=a), 0.0)
    vals, _ = shell_integrals([st], ShellCoefficients(w_mass=np.ones_like),
                              r_max=R)
    expect = np.sqrt(np.pi / (2 * a)) * erf(np.sqrt(2 * a) * R)
    assert vals[0] == pytest.approx(expect, rel=1e-10)


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
        val, _ = shell_integral(st, coeffs)
        assert val == pytest.approx(expect, rel=1e-9)


def test_flux_odd_symmetry_cancels():
    # centered packet: radial momentum flux through opposite rays cancels
    st = evolve_analytic(single(1, v=np.array([0.7])), 0.0)
    val, _ = shell_integral(
        st, ShellCoefficients(w_flux=np.ones_like), scale=1.0)
    assert abs(val) <= 1e-10


def test_shell_weight_knots_are_honored():
    # integrating the indicator-like jump 1_{r<=1.7} exactly needs the seam
    a = 0.8
    st = evolve_analytic(single(1, a=a), 0.0)

    def w(r):
        return np.where(r <= 1.7, 1.0, 0.0)

    val, _ = shell_integral(st, ShellCoefficients(w_mass=w, knots=(1.7,)))
    expect = np.sqrt(np.pi / (2 * a)) * erf(np.sqrt(2 * a) * 1.7)
    assert val == pytest.approx(expect, rel=1e-10)


def test_shell_integral_reports_nonconvergence():
    # demands accuracy below machine precision so refinement must give up
    f = single(2, a=1.0, v=np.array([0.4, -0.3]))
    st = evolve_analytic(f, 2.0)
    with pytest.raises(ToleranceNotMetError) as exc:
        shell_integrals([st], ShellCoefficients(w_mass=np.ones_like),
                        rel_tol=1e-18)
    assert exc.value.achieved > exc.value.requested
    assert np.isfinite(exc.value.estimate)


def test_needs_gradient_flag():
    assert not ShellCoefficients(w_mass=np.ones_like).needs_gradient()
    assert ShellCoefficients(w_rr=np.ones_like).needs_gradient()
    assert ShellCoefficients(w_flux=np.ones_like).needs_gradient()


# ---------------------------------------------------------------------------
# exact angular moments against the reference rule
# ---------------------------------------------------------------------------

TERMS = {name: ShellCoefficients(**{name: np.ones_like})
         for name in ("w_mass", "w_rr", "w_tau", "w_flux")}
ALL_TERMS = ShellCoefficients(
    w_rr=lambda r: 1.0 / (1.0 + r * r), w_tau=lambda r: r / (1.0 + r),
    w_mass=lambda r: np.exp(-r), w_flux=np.cos)


def reference_band(geom, r):
    """r max |conj(G_i) + G_j| over every packet pair of every state."""
    S = np.conj(geom.G)[:, :, None] + geom.G[:, None, :]
    return float(r.max() * np.sqrt((np.abs(S) ** 2).sum(axis=-1)).max())


def reference_values(geom, r, coeffs, chunk=2**14):
    """_shell_values on the angular rule that resolves that band, summed a
    chunk of nodes at a time so that large rules stay small in memory."""
    omega, wts = _sphere_rule.__wrapped__(geom.n, _bucket_band(reference_band(geom, r)))
    return sum(_shell_values(geom, r, omega[k:k + chunk], wts[k:k + chunk], coeffs)
               for k in range(0, len(wts), chunk))


def odd_pair(n):
    # packets at +-c of one width: conj(G_1) + G_2 is purely imaginary at
    # t = 0, so that pair's z.z is negative real
    c = 0.5 * np.ones(n)
    return packet_sum([WavePacket(1.0, 1.2, c, 0.3 * np.ones(n)),
                       WavePacket(0.7j, 1.2, -c, -0.4 * np.ones(n))])


MOMENT_CASES = {
    "centred": lambda n: single(n),  # z.z = 0 exactly at every t
    "odd pair": odd_pair,
    "1 packet": lambda n: random_packet_suite(n, 1, 1, seed=21)[0],
    "2 packets": lambda n: random_packet_suite(n, 1, 2, seed=22)[0],
    "3 packets": lambda n: random_packet_suite(n, 1, 3, seed=23)[0],
}


@pytest.mark.parametrize("n", [2, 3])
def test_angular_moments_match_hypergeometric_series(n):
    # F^(k)(zeta) = |S^{n-1}| 0F1(; n/2 + k; zeta/4) / (4^k (n/2)_k) at 30
    # digits, on rings of |zeta| either side of the series switch and far
    # out, at angles that include the positive and the negative real axis
    mp = pytest.importorskip("mpmath").mp
    moduli = [1e-8, 0.5, 0.99 * _SERIES_BELOW, 1.01 * _SERIES_BELOW, 30.0, 900.0]
    units = np.array([1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    zeta = np.outer(moduli, units / np.abs(units)).ravel()
    grow, moments = _angular_moments(n, zeta)
    with mp.workdps(30):
        area, b = (2 if n == 2 else 4) * mp.pi, mp.mpf(n) / 2
        for k in range(3):
            norm = area / (4**k * mp.rf(b, k))
            for z, g, got in zip(zeta, grow, moments[k]):
                exact = norm * mp.hyp0f1(b + k, mp.mpc(z) / 4) * mp.exp(-g)
                # |F^(k)(zeta)| <= F^(k)(|zeta|): the series has positive terms
                bound = norm * mp.hyp0f1(b + k, abs(z) / 4) * mp.exp(-g)
                assert abs(complex(exact) - got) <= 1e-14 * float(bound), (k, z)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("case", list(MOMENT_CASES))
def test_moment_kernel_matches_reference_rule(n, case):
    rng = np.random.default_rng(n)
    f = MOMENT_CASES[case](n)
    for t in (-2.0, 0.0, 0.7, 5.0):
        geom = _StateGeometry([evolve_analytic(f, t)])
        # random radii and radii on both sides of each pair's series switch
        size = np.sqrt(np.abs(geom.pairs["ss"][0]))
        switch = np.sqrt(_SERIES_BELOW) / size[size > 0.0]
        r = np.sort(np.concatenate([rng.uniform(0.02, 4.0, 12),
                                    np.outer(switch, [0.9, 1.1]).ravel()]))
        zeta = geom.pairs["ss"][0][:, None] * r * r
        if case == "odd pair" and t == 0.0:
            assert zeta[1].real.max() < 0.0 and np.all(zeta[1].imag == 0.0)
        if case != "centred":
            assert np.any(np.abs(zeta) < _SERIES_BELOW)
            assert np.any(np.abs(zeta) >= _SERIES_BELOW)
        for name, coeffs in TERMS.items():
            got = _moment_values(geom, r, coeffs)[0]
            ref = reference_values(geom, r, coeffs)[0]
            if case == "centred" and name == "w_tau":
                # radially symmetric at every t; the rule leaves roundoff
                assert np.all(got == 0.0)
                continue
            # a row that is 0 in exact arithmetic (the flux of a centred
            # packet at t = 0) must come out exactly 0
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (t, name)


@pytest.mark.parametrize("n", [2, 3])
def test_far_off_centre_packet_stays_finite(n):
    # 30 widths sigma = 1/sqrt(2a) off centre: at the packet, the moments'
    # growth exp(Re sqrt(z.z)) overflows on its own and the envelope
    # underflows on its own
    a = 1.0
    sigma = 1.0 / np.sqrt(2.0 * a)
    rho = 30.0 * sigma
    c = rho * np.eye(n)[0]
    f = packet_sum([WavePacket(0.9 - 0.2j, a, c, 0.3 * np.eye(n)[-1])])
    geom = _StateGeometry([evolve_analytic(f, 0.0)])
    r = rho + sigma * np.array([-0.7, 0.0, 1.0])
    grow = np.sqrt(geom.pairs["ss"][0, 0].real) * r
    assert np.all(grow > np.log(np.finfo(float).max))
    assert np.all(-2.0 * a * (r * r + rho * rho) < np.log(np.finfo(float).tiny))
    got = _moment_values(geom, r, ALL_TERMS)[0]
    assert np.all(np.isfinite(got))
    ref = reference_values(geom, r, ALL_TERMS)[0]
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_moment_kernel_rejects_frequencies_past_bessel_range():
    # a pair whose momenta differ by 3e8 has |z| near 2e9 at r = 1; the
    # complex Bessel functions return NaN there, the kernel must not
    f = packet_sum([WavePacket(1.0, 1.0, [0.3, 0.0], [0.0, 0.0]),
                    WavePacket(1.0, 1.0, [0.0, 0.0], [3e8, 0.0])])
    geom = _StateGeometry([evolve_analytic(f, 0.0)])
    with pytest.raises(InvalidParameterError, match="Bessel"):
        _moment_values(geom, np.array([1.0]), ShellCoefficients(w_mass=np.ones_like))


# ---------------------------------------------------------------------------
# batches of states on one radial panel set
# ---------------------------------------------------------------------------

def moving_pair(n):
    return packet_sum([
        WavePacket(1.0 - 0.3j, 0.9, 0.4 * np.ones(n), 0.2 * np.ones(n)),
        WavePacket(0.5j, 1.3, -0.3 * np.ones(n), -0.25 * np.ones(n))])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("blocked", [False, True])
def test_batched_kernel_rows_match_single_states(n, blocked, monkeypatch):
    # the rule kernel in n = 1, 2, 3 and the moment kernel in n = 2, 3
    states = [evolve_analytic(moving_pair(n), t) for t in (-0.4, 0.0, 0.3, 1.1)]
    geom = _StateGeometry(states)
    r = np.linspace(0.05, 3.0, 16)
    omega, wts = _sphere_rule(n, _bucket_band(reference_band(geom, r)))
    pairs = geom.m * (geom.m + 1) // 2
    kernels = [(lambda g: _shell_values(g, r, omega, wts, ALL_TERMS),
                r.size * len(wts) * geom.m)]
    if n > 1:
        kernels.append((lambda g: _moment_values(g, r, ALL_TERMS), r.size * pairs))
    for kernel, per_state in kernels:
        if blocked:  # blocks of 3 states: one boundary inside the batch
            monkeypatch.setattr(quadrature, "_KERNEL_BLOCK", 3 * per_state)
        batch = kernel(geom)
        assert batch.shape == (len(states), r.size)
        for row, state in zip(batch, states):
            single = kernel(_StateGeometry([state]))[0]
            scale = np.abs(single).max()
            assert scale > 0.0
            np.testing.assert_allclose(row, single, rtol=1e-14, atol=1e-14 * scale)


@pytest.mark.parametrize("n", [1, 2])
def test_batched_integral_matches_single_state_calls(n):
    # two of the three states share a panel set, in an order the grouping
    # has to sort; each value meets its own floor and agrees with its
    # one-state integral within the two targets
    coeffs = ShellCoefficients(w_mass=lambda r: np.exp(-r))
    states = [evolve_analytic(moving_pair(n), t) for t in (0.9, 0.1, -0.1)]
    reach = _StateGeometry(states).support_radii(_TAU_SPACE)
    assert sorted(map(len, _share_groups(reach))) == [1, 2]
    scales = [1.0, 1e-3, 1e-6]
    values, info = shell_integrals(states, coeffs, scales=scales, rel_tol=1e-9)
    for state, value, error, scale in zip(states, values, info["abs_error"], scales):
        target = 1e-9 * max(abs(value), scale)
        assert error <= target
        single, _ = shell_integrals([state], coeffs, scales=[scale], rel_tol=1e-9)
        assert abs(value - single[0]) <= 2.0 * target


def test_vector_refinement_meets_every_component_target():
    # a smooth and an oscillatory component on one panel set: refinement
    # goes on until the harder one meets its own target too
    x5, w5 = np.polynomial.legendre.leggauss(5)
    x10, w10 = np.polynomial.legendre.leggauss(10)
    fns = (np.exp, lambda x: np.cos(40.0 * x))

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        coarse = np.array([half * w5 @ f(mid + half * x5) for f in fns])
        fine = np.array([half * w10 @ f(mid + half * x10) for f in fns])
        return fine, np.abs(fine - coarse)

    floors = np.array([1.0, 1e-3])
    values, errors, _ = _adaptive(panel, [0.0, 1.0], 1e-10, floors)
    assert np.all(errors <= 1e-10 * np.maximum(np.abs(values), floors))
    for value, error, exact in zip(values, errors, (np.e - 1.0, np.sin(40.0) / 40.0)):
        assert_bounded(value, error, exact)


def test_compact_line_wrapper_zeroes_rounded_endpoints():
    seen = []

    def fn(t):
        seen.append(t.copy())
        return 1.0 / (1.0 + t * t)

    s = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    out = _on_compact_line(fn)(s)
    assert out[0] == 0.0 and out[-1] == 0.0
    inner = s[1:-1]
    t = inner / (1.0 - inner**2)
    jac = (1.0 + inner**2) / (1.0 - inner**2) ** 2
    np.testing.assert_array_equal(out[1:-1], jac / (1.0 + t * t))
    assert len(seen) == 1 and np.all(np.isfinite(seen[0]))
    np.testing.assert_array_equal(seen[0], t)


def test_compact_line_rate_matches_mpmath():
    # ds/dt = (1 - s^2)^2/(1 + s^2) at s = (sqrt(1 + 4t^2) - 1)/(2t), at 40
    # digits, from t = 0 to past the largest whole-line node t (4.5e15)
    mp = pytest.importorskip("mpmath").mp
    t = np.concatenate([[0.0], np.geomspace(1e-9, 5e15, 49)])
    t = np.concatenate([t, -t[1:]])
    got = _compact_line_rate(t)
    with mp.workdps(40):
        for ti, gi in zip(t, got):
            T = mp.mpf(ti)
            s = (mp.sqrt(1 + 4 * T * T) - 1) / (2 * T) if ti else mp.mpf(0)
            exact = (1 - s * s) ** 2 / (1 + s * s)
            assert abs(gi - exact) <= 2 * EPS * exact, ti


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


def test_runaway_refinement_stops_at_panel_budget():
    # deterministic jitter at the 1e-9 level models spatial quadrature
    # error that no time refinement can resolve below rel_tol = 1e-13
    def fn(t):
        return np.exp(-t * t) + 1e-9 * np.sin(1e6 * t)

    with pytest.raises(ToleranceNotMetError):
        adaptive_time_integral(fn, -6.0, 6.0, rel_tol=1e-13, scale=1.0)


def test_divergent_real_line_integral_is_reported():
    # the endpoint panels of a log-divergent integrand never converge; the
    # depth cap stops them before their nodes round to s = +-1, where the
    # integrand is set to 0 and the sum would settle on a finite number
    with pytest.raises(ToleranceNotMetError):
        real_line_time_integral(lambda t: 1.0 / (1.0 + abs(t)),
                                rel_tol=1e-8, scale=1.0)


def test_gauss_kronrod_table_is_exact_to_degree_31():
    nodes, wk, wg = _GK21
    assert len(set(nodes.tolist())) == 21
    for k in range(32):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(wk @ nodes**k - exact) <= 4 * EPS
        if k < 20:  # the embedded 10-point Gauss rule
            assert abs(wg @ nodes[:10] ** k - exact) <= 16 * EPS


# ---------------------------------------------------------------------------
# calibration: reported error bars bound the true error on closed forms
# ---------------------------------------------------------------------------

def assert_bounded(value, error, exact):
    # the roundoff term covers sums whose estimate differences cancel below
    # the rounding of the panel values themselves
    assert abs(value - exact) <= error + 64 * EPS * abs(exact)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("t", [0.0, 2.0])
def test_mass_error_bar_bounds_gram_sum(n, t):
    f = single(n, A=1.3 - 0.4j, a=0.8, c=0.3 * np.ones(n), v=0.25 * np.ones(n))
    val, info = shell_integral(evolve_analytic(f, t),
                               ShellCoefficients(w_mass=np.ones_like))
    assert_bounded(val, info["abs_error"], l2_norm_sq(f))


def test_ball_mass_error_bar_bounds_erf():
    a, R = 0.9, 1.7
    vals, info = shell_integrals([evolve_analytic(single(1, a=a), 0.0)],
                                 ShellCoefficients(w_mass=np.ones_like), r_max=R)
    assert_bounded(vals[0], info["abs_error"][0],
                   np.sqrt(np.pi / (2 * a)) * erf(np.sqrt(2 * a) * R))


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
def test_half_derivative_error_bar_bounds_closed_form(a):
    # int |xi| |fhat|^2 = 1/(2 pi) for exp(-a x^2) at every width a
    ghat = fourier_state(single(1, a=a))
    val, info = shell_integral(ghat, ShellCoefficients(w_mass=lambda r: r))
    assert_bounded(val, info["abs_error"], 1.0 / (2.0 * np.pi))


@pytest.mark.parametrize("rel_tol", [1e-4, 1e-8])
@pytest.mark.parametrize("fn,a,b,exact", [
    (lambda t: np.exp(-t * t), -6.0, 6.0, math.sqrt(math.pi) * math.erf(6.0)),
    (lambda t: 1.0 / (1.0 + 25.0 * t * t), -1.0, 1.0, 0.4 * math.atan(5.0)),
])
def test_time_error_bar_bounds_closed_form(rel_tol, fn, a, b, exact):
    val, err = adaptive_time_integral(fn, a, b, rel_tol=rel_tol, scale=1.0)
    assert_bounded(val, err, exact)


@pytest.mark.parametrize("rel_tol", [1e-4, 1e-8])
@pytest.mark.parametrize("fn,exact", [
    (lambda t: 1.0 / (1.0 + t * t), math.pi),
    (lambda t: 1.0 / (1.0 + t * t) ** 2, 0.5 * math.pi),
])
def test_real_line_error_bar_bounds_closed_form(rel_tol, fn, exact):
    val, err = real_line_time_integral(fn, rel_tol=rel_tol, scale=1.0)
    assert_bounded(val, err, exact)
