"""Shell and time quadrature against closed forms and special functions."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import erf, ive

from smoothing_lab.errors import (InvalidParameterError,
                                  ToleranceNotMetError)
from smoothing_lab.model import (WavePacket, l2_norm_sq, packet_sum,
                                 random_packet_suite)
from smoothing_lab.propagator import _evolve_times, evolve_analytic, fourier_state
from smoothing_lab import quadrature
from smoothing_lab.quadrature import (_GK21, _GK33, _SERIES_BELOW, _TAU_SPACE,
                                      ShellCoefficients, _adaptive,
                                      _angular_moments, _bucket_band,
                                      _compact_line_rate, _gl, _moment_values,
                                      _on_compact_line, _panel_value,
                                      _shell_values, _sphere_rule,
                                      _StateGeometry,
                                      adaptive_time_integral,
                                      real_line_time_integral, shell_integral,
                                      shell_integrals)

EPS = np.finfo(float).eps


def single(n, A=1.0, a=1.0, c=None, v=None):
    c = np.zeros(n) if c is None else c
    v = np.zeros(n) if v is None else v
    return packet_sum([WavePacket(A, a, c, v)])


def geometry(f, times):
    """The stacked geometry of the datum f evolved to each of times."""
    return _StateGeometry(*_evolve_times(f, times))


def on_grid(kernel, geom, r, *args):
    """A kernel at each of the radii r for every state of geom, one radius
    per panel row: (T, Q)."""
    count = len(geom.t)
    rows = np.repeat(np.arange(count), r.size)
    return kernel(geom, np.tile(r, count)[:, None], *args, rows).reshape(count, r.size)


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
    batch = _evolve_times(single(1, a=a), [0.0])
    vals, _ = shell_integrals(batch, ShellCoefficients(w_mass=np.ones_like),
                              radii=[R])
    expect = np.sqrt(np.pi / (2 * a)) * erf(np.sqrt(2 * a) * R)
    assert vals.shape == (1, 1)
    assert vals[0, 0] == pytest.approx(expect, rel=1e-10)


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


@pytest.mark.parametrize("radius", [-1.0, 0.0, np.nan])
def test_shell_integrals_reject_radius_that_is_not_positive(radius):
    batch = _evolve_times(single(1), [0.0])
    coeffs = ShellCoefficients(w_mass=np.ones_like)
    with pytest.raises(InvalidParameterError, match="radii"):
        shell_integrals(batch, coeffs, radii=[radius])
    with pytest.raises(InvalidParameterError, match="radii"):
        shell_integrals(batch, coeffs, radii=[1.0, 2.0, radius])
    # inf is no cut-off at all
    np.testing.assert_array_equal(shell_integrals(batch, coeffs, radii=[np.inf])[0][:, 0],
                                  shell_integrals(batch, coeffs)[0])


def test_shell_integral_reports_nonconvergence():
    # demands accuracy below machine precision so refinement must give up
    f = single(2, a=1.0, v=np.array([0.4, -0.3]))
    batch = _evolve_times(f, [2.0])
    with pytest.raises(ToleranceNotMetError) as exc:
        shell_integrals(batch, ShellCoefficients(w_mass=np.ones_like),
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
    return sum(on_grid(_shell_values, geom, r, omega[k:k + chunk], wts[k:k + chunk],
                       coeffs) for k in range(0, len(wts), chunk))


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
        geom = geometry(f, [t])
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
            got = on_grid(_moment_values, geom, r, coeffs)[0]
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
    geom = geometry(f, [0.0])
    r = rho + sigma * np.array([-0.7, 0.0, 1.0])
    grow = np.sqrt(geom.pairs["ss"][0, 0].real) * r
    assert np.all(grow > np.log(np.finfo(float).max))
    assert np.all(-2.0 * a * (r * r + rho * rho) < np.log(np.finfo(float).tiny))
    got = on_grid(_moment_values, geom, r, ALL_TERMS)[0]
    assert np.all(np.isfinite(got))
    ref = reference_values(geom, r, ALL_TERMS)[0]
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def direct_line_values(f, t, r, coeffs):
    """The n = 1 integrand at x = r and x = -r, summed over both rays, from
    each packet's own exp(-alpha (x - c)^2 + 2 pi i v x): (Q,)."""
    B, alpha, c, v, _ = (arr[0] for arr in _evolve_times(f, [t]))
    total = np.zeros(r.shape)
    for ray in (1.0, -1.0):
        x = ray * r[:, None]  # (Q, 1) against the packets (m,)
        vals = B * np.exp(-alpha * (x - c[:, 0]) ** 2 + 2j * np.pi * v[:, 0] * x)
        u = vals.sum(axis=1)
        ur = ray * (vals * (-2.0 * alpha * (x - c[:, 0]) + 2j * np.pi * v[:, 0])).sum(axis=1)
        total += (coeffs.w_mass(r) * np.abs(u) ** 2 + coeffs.w_rr(r) * np.abs(ur) ** 2
                  + coeffs.w_flux(r) * (np.conj(u) * ur).imag)
    return total


LINE_CASES = {
    "1 packet": [WavePacket(0.9 - 0.4j, 1.1, [0.3], [0.45])],
    "odd pair": [WavePacket(1.0, 1.2, [0.5], [0.3]), WavePacket(-1.0, 1.2, [-0.5], [-0.3])],
    # momenta 12 apart: the phase of packet 1 relative to packet 0 turns
    # by 2 pi 12 r, about 450 radians at r = 6
    "far phases": [WavePacket(0.8, 0.9, [0.2], [5.0]), WavePacket(0.6j, 1.3, [-0.4], [-7.0])],
    # momenta near 40: a phase of about 1500 radians at r = 6 that packets
    # 0 and 1 share
    "3 packets": [WavePacket(1.0 + 0.2j, 0.8, [0.6], [40.0]),
                  WavePacket(-0.5j, 1.5, [-0.3], [38.5]),
                  WavePacket(0.7, 1.0, [0.1], [-3.0])],
}


@pytest.mark.parametrize("case", list(LINE_CASES))
def test_line_kernel_matches_direct_sum_of_exponentials(case):
    # packets taken relative to packet 0's phase leave every quadratic term
    # as the packets' own complex exponentials give it, at t = 0 and after
    f = packet_sum(LINE_CASES[case])
    r = np.linspace(0.0, 6.0, 97)
    for t in (0.0, 0.37, -1.6):
        got = on_grid(_shell_values, geometry(f, [t]), r, *_sphere_rule(1, 0), ALL_TERMS)[0]
        ref = direct_line_values(f, t, r, ALL_TERMS)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), t


def test_moment_kernel_rejects_frequencies_past_bessel_range():
    # a pair whose momenta differ by 3e8 has |z| near 2e9 at r = 1; the
    # complex Bessel functions return NaN there, the kernel must not
    f = packet_sum([WavePacket(1.0, 1.0, [0.3, 0.0], [0.0, 0.0]),
                    WavePacket(1.0, 1.0, [0.0, 0.0], [3e8, 0.0])])
    geom = geometry(f, [0.0])
    with pytest.raises(InvalidParameterError, match="Bessel"):
        _moment_values(geom, np.array([[1.0]]), ShellCoefficients(w_mass=np.ones_like),
                       np.array([0]))


# ---------------------------------------------------------------------------
# batches of states, each on its own radial panel set
# ---------------------------------------------------------------------------

def moving_pair(n):
    return packet_sum([
        WavePacket(1.0 - 0.3j, 0.9, 0.4 * np.ones(n), 0.2 * np.ones(n)),
        WavePacket(0.5j, 1.3, -0.3 * np.ones(n), -0.25 * np.ones(n))])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("blocked", [False, True])
def test_batched_kernel_rows_match_single_states(n, blocked, monkeypatch):
    # the rule kernel in n = 1, 2, 3 and the moment kernel in n = 2, 3, on
    # panels of states in no order, some states on several panels
    times = (-0.4, 0.0, 0.3, 1.1)
    geom = geometry(moving_pair(n), times)
    rows = np.array([2, 0, 3, 1, 0, 2, 3])
    r = np.linspace(0.05, 3.0, 16) + 0.1 * np.arange(len(rows))[:, None]
    omega, wts = _sphere_rule(n, _bucket_band(reference_band(geom, r)))
    pairs = geom.m * (geom.m + 1) // 2
    kernels = [(lambda g, rr, k: _shell_values(g, rr, omega, wts, ALL_TERMS, k),
                r.shape[1] * len(wts) * geom.m)]
    if n > 1:
        kernels.append((lambda g, rr, k: _moment_values(g, rr, ALL_TERMS, k),
                        r.shape[1] * pairs))
    for kernel, per_panel in kernels:
        if blocked:  # blocks of 3 panels: two boundaries inside the sweep
            monkeypatch.setattr(quadrature, "_KERNEL_BLOCK", 3 * per_panel)
        batch = kernel(geom, r, rows)
        assert batch.shape == r.shape
        for row, radii, state in zip(batch, r, rows):
            single = kernel(geometry(moving_pair(n), [times[state]]), radii[None],
                            np.array([0]))[0]
            scale = np.abs(single).max()
            assert scale > 0.0
            np.testing.assert_allclose(row, single, rtol=1e-14, atol=1e-14 * scale)


@pytest.mark.parametrize("n", [1, 2])
def test_states_of_any_reach_refine_in_one_kernel_call_per_round(n, monkeypatch):
    # truncation radii more than 1.5 times apart, in no order: every state
    # refines its own panel set, all in the same rounds, so the batch makes
    # as many kernel calls as its slowest state alone, 1 + (rounds); each
    # value meets its own floor and agrees with its one-state integral.
    # The kink off every knot makes each state refine
    coeffs = ShellCoefficients(w_mass=lambda r: np.abs(r - 1.3))
    f, times = moving_pair(n), (0.9, 0.1, -0.1, 4.0)
    reach = geometry(f, times).support_radii(_TAU_SPACE)
    assert reach.max() > 1.5 * reach.min()
    scales = [1.0, 1e-3, 1e-6, 1e-2]
    kernel = count_calls(monkeypatch, "_shell_values" if n == 1 else "_moment_values")
    values, info = shell_integrals(_evolve_times(f, times), coeffs, scales=scales,
                                   rel_tol=1e-9)
    calls, alone_calls, alone_panels = len(kernel), [], 0
    for t, value, error, scale in zip(times, values, info["abs_error"], scales):
        target = 1e-9 * max(abs(value), scale)
        assert error <= target
        kernel.clear()
        single, alone = shell_integrals(_evolve_times(f, [t]), coeffs, scales=[scale],
                                        rel_tol=1e-9)
        assert abs(value - single[0]) <= 2.0 * target
        alone_calls.append(len(kernel))
        alone_panels += alone["panels"]
    assert calls == max(alone_calls) > 1
    assert info["panels"] == alone_panels


def test_initial_panels_match_a_loop_over_states():
    # each state's starting set, built one state at a time as a list: cut
    # [0, reach] at the knots inside it and at the state's packet centres,
    # then split each piece into ceil(width / cap) equal panels
    f = random_packet_suite(2, 1, 3, seed=24)[0]
    geom = geometry(f, (-2.0, 0.0, 0.5, 6.0))
    reach = np.minimum(geom.support_radii(_TAU_SPACE), 9.0)
    knots = (0.5, 1.7, 30.0)
    rows, a, b = quadrature._initial_panels(geom, knots, reach)
    expect = []
    for s, end in enumerate(reach):
        cuts = sorted({0.0, end} | {x for x in (*knots, *geom.rho[s]) if 0.0 < x < end})
        cap = max(2.0 / np.sqrt(2.0 * geom.A[s].max()), end / 64.0)
        edges = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            pieces = math.ceil((hi - lo) / cap)
            step = (hi - lo) / pieces
            edges.extend(lo + k * step for k in range(pieces))
        edges.append(end)
        expect.extend((s, lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))
    assert reach.min() < 9.0 and np.any(reach == 9.0)
    np.testing.assert_array_equal(rows, [e[0] for e in expect])
    np.testing.assert_array_equal(a, [e[1] for e in expect])
    np.testing.assert_array_equal(b, [e[2] for e in expect])


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("packets", [1, 2])
@pytest.mark.parametrize("blocked", [False, True])
def test_panel_sweep_matches_one_panel_calls(n, packets, blocked, monkeypatch):
    # one sweep over P panels of three states gives, to 4 ulp, what P
    # one-panel calls give, also when the kernel walks the sweep in blocks
    f = random_packet_suite(n, 1, packets, seed=20 + packets)[0]
    geom = geometry(f, (-0.6, 0.0, 0.8))
    if blocked:  # fewer than the 33 radii of one panel per block, so one
        # panel a block: 6 (m + 1) radii for _shell_values in n = 1, 24 for
        # _moment_values in n = 2, 3
        monkeypatch.setattr(quadrature, "_KERNEL_BLOCK", 12 * geom.m * (geom.m + 1))
    edges = np.array([0.0, 0.3, 0.7, 1.1, 1.6, 2.4, 3.5, 5.0])
    a, b = edges[:-1], edges[1:]
    rows = np.array([0, 1, 2, 0, 2, 1, 0])
    values, errors = _panel_value(geom, rows, a, b, ALL_TERMS)
    assert values.shape == errors.shape == (len(a),)
    for p in range(len(a)):
        value, error = _panel_value(geom, rows[p:p + 1], a[p:p + 1], b[p:p + 1],
                                    ALL_TERMS)
        assert np.abs(values[p] - value[0]) <= 4 * EPS * np.abs(value[0]), p
        assert np.abs(errors[p] - error[0]) <= 4 * EPS * np.abs(value[0]), p


def count_calls(monkeypatch, name, sizes=None):
    """Wrap quadrature.<name> to count its calls; a list sizes also records
    the length of each call's third argument."""
    calls = []
    inner = getattr(quadrature, name)

    def wrapper(*args):
        calls.append(len(args[2]) if sizes else 1)
        return inner(*args)

    monkeypatch.setattr(quadrature, name, wrapper)
    return calls


@pytest.mark.parametrize("n", [1, 2])
def test_batch_integral_makes_one_kernel_call_per_sweep(n, monkeypatch):
    # the initial panels in one kernel call, then one call per refinement
    # round on the two halves of each panel that round splits; the kink off
    # every knot makes the refinement split
    coeffs = ShellCoefficients(w_mass=lambda r: np.abs(r - 1.3))
    f = random_packet_suite(n, 1, 2, seed=22)[0]
    kernel = count_calls(monkeypatch, "_shell_values" if n == 1 else "_moment_values")
    sweeps = count_calls(monkeypatch, "_panel_value", sizes=True)
    _, info = shell_integrals(_evolve_times(f, (0.0, 0.5)), coeffs, rel_tol=1e-10)
    splits = info["panels"] - sweeps[0]
    assert splits > 0 and len(sweeps) > 1
    assert len(kernel) == len(sweeps)
    assert all(size > 0 and size % 2 == 0 for size in sweeps[1:])
    assert sum(sweeps[1:]) == 2 * splits


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sweeps_accept_the_panels_of_one_panel_calls(n, monkeypatch):
    # refinement over sweeps keeps every panel that refinement panel by
    # panel keeps, on a seed-11 suite, and the values agree to roundoff
    coeffs = ShellCoefficients(w_rr=lambda r: 1.0 / (1.0 + r * r),
                               w_mass=lambda r: np.exp(-r), w_flux=np.cos)
    suite = random_packet_suite(n, 3, 2, seed=11)
    times = (-1.0, -0.2, 0.0, 0.4, 1.5)
    swept = [shell_integrals(_evolve_times(f, times), coeffs) for f in suite]
    inner = quadrature._panel_value

    def one_at_a_time(geom, rows, a, b, coeffs):
        panels = [inner(geom, rows[p:p + 1], a[p:p + 1], b[p:p + 1], coeffs)
                  for p in range(len(a))]
        return tuple(np.concatenate(part) for part in zip(*panels))

    monkeypatch.setattr(quadrature, "_panel_value", one_at_a_time)
    for f, (values, info) in zip(suite, swept):
        single, ref = shell_integrals(_evolve_times(f, times), coeffs)
        assert info["panels"] == ref["panels"]
        np.testing.assert_allclose(values, single, rtol=1e-14)


def test_vector_refinement_meets_every_component_target():
    # a smooth and an oscillatory component, each on its own panel set over
    # [0, 1]: the smooth one stops splitting first, and refinement goes on
    # until the harder one meets its own target too
    x5, w5 = np.polynomial.legendre.leggauss(5)
    x10, w10 = np.polynomial.legendre.leggauss(10)
    fns = (np.exp, lambda x: np.cos(40.0 * x))
    swept = []

    def panel(rows, a, b):
        # a sweep of P panels: component and edge arrays (P,) in, (P,) out
        swept.append(rows)
        mid, half = 0.5 * (a + b), 0.5 * (b - a)

        def rule(x, w):
            nodes = mid[:, None] + half[:, None] * x
            return half * (np.where(rows[:, None] == 0, fns[0](nodes), fns[1](nodes)) @ w)

        coarse, fine = rule(x5, w5), rule(x10, w10)
        return fine, np.abs(fine - coarse)

    floors = np.array([1.0, 1e-3])
    values, errors, _ = _adaptive(panel, np.array([0, 1]), np.zeros(2), np.ones(2),
                                  1e-10, floors)
    assert values.shape == errors.shape == (2,)
    assert np.all(errors <= 1e-10 * np.maximum(np.abs(values), floors))
    assert len(swept) > 2 and np.all(swept[-1] == 1)
    for value, error, exact in zip(values, errors, (np.e - 1.0, np.sin(40.0) / 40.0)):
        assert_bounded(value, error, exact)


def test_column_refinement_meets_every_column_target():
    # one component whose panels over [0, 1] carry two columns, a smooth
    # one and an oscillatory one: a round splits the union of what each
    # column over its target picks, and every column meets its own target
    x5, w5 = np.polynomial.legendre.leggauss(5)
    x10, w10 = np.polynomial.legendre.leggauss(10)
    swept = []

    def panel(rows, a, b):
        swept.append(len(a))
        mid, half = 0.5 * (a + b), 0.5 * (b - a)

        def rule(x, w):
            nodes = mid[:, None] + half[:, None] * x
            return np.stack([half * (np.exp(nodes) @ w),
                             half * (np.cos(40.0 * nodes) @ w)], axis=1)

        coarse, fine = rule(x5, w5), rule(x10, w10)
        return fine, np.abs(fine - coarse)

    floors = np.array([[1.0, 1e-3]])
    values, errors, panels = _adaptive(panel, np.zeros(1, dtype=int), np.zeros(1),
                                       np.ones(1), 1e-10, floors)
    assert values.shape == errors.shape == (1, 2)
    assert np.all(errors <= 1e-10 * np.maximum(np.abs(values), floors))
    assert len(swept) > 2 and panels > 1
    expected = (np.e - 1.0, np.sin(40.0) / 40.0)
    for value, error, exact in zip(values[0], errors[0], expected):
        assert_bounded(value, error, exact)


def test_ball_columns_match_erf_and_one_radius_calls():
    # each column of a radius schedule is the ball mass of its own radius,
    # and agrees with a call on that radius alone within its target
    a, radii = 0.9, np.array([0.5, 1.7, 3.0])
    batch = _evolve_times(single(1, a=a), [0.0, 0.4])
    coeffs = ShellCoefficients(w_mass=np.ones_like)
    vals, info = shell_integrals(batch, coeffs, radii=radii)
    assert vals.shape == info["abs_error"].shape == (2, 3)
    expect = np.sqrt(np.pi / (2 * a)) * erf(np.sqrt(2 * a) * radii)
    for j, R in enumerate(radii):
        assert_bounded(vals[0, j], info["abs_error"][0, j], expect[j])
        alone, _ = shell_integrals(batch, coeffs, radii=[R])
        assert np.all(np.abs(vals[:, j] - alone[:, 0]) <= 1e-8 * np.abs(alone[:, 0]))
    # the empty datum returns zero columns
    empty = _evolve_times(packet_sum([], n=1), [0.0])
    np.testing.assert_array_equal(shell_integrals(empty, coeffs, radii=radii)[0],
                                  np.zeros((1, 3)))


def test_refinement_splits_the_fewest_worst_panels():
    # two components, each of eight unit panels on [0, 8] with known
    # errors; a half panel reports none, so one round of splits converges.
    # Each component's target is 8 rel_tol = 10 units, and each ranks its
    # own panels.  Component 0 goes 0 (8), 2 (4), 6 (3), 3 (2), ...: after
    # splitting 0 and 2 it keeps 6.85 units, more than half its target, and
    # after 6 too it keeps 3.85.  Component 1 holds 12.5 units, 12 on panel
    # 1, and keeps 0.5 after splitting that one.  A component under its
    # target would split none
    unit = 1e-3
    table = unit * np.array([[8.0, 1.0, 4.0, 2.0, 0.5, 0.25, 3.0, 0.1],
                             [0.0, 12.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5],
                             [0.0, 9.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    calls = []

    def panel(rows, a, b):
        calls.append(sorted(zip(rows.tolist(), a.tolist(), b.tolist())))
        width = b - a
        lo = np.minimum(a.astype(int) - 8 * rows, 7)
        return width, np.where(width == 1.0, table[rows, lo], 0.0)

    rows = np.repeat(np.arange(3), 8)
    a = np.arange(24.0)  # component c's panels span [8c, 8c + 8]
    values, errors, panels = _adaptive(panel, rows, a, a + 1.0, 10 * unit / 8.0,
                                       np.zeros(3))
    split = ((0, 0), (0, 2), (0, 6), (1, 1))
    assert len(calls) == 2 and panels == 24 + len(split)
    assert calls[1] == sorted((c, 8 * c + lo + h, 8 * c + lo + h + 0.5)
                              for c, lo in split for h in (0.0, 0.5))
    np.testing.assert_array_equal(values, [8.0, 8.0, 8.0])
    np.testing.assert_allclose(errors, [3.85 * unit, 0.5 * unit, 9.0 * unit],
                               rtol=1e-12)


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


def test_time_integrand_is_called_once_per_round():
    # one call evaluates the 21 nodes of every panel of a sweep: the two
    # initial panels of a window cut at its midpoint, then, once per
    # refinement round, the two halves of each panel that round splits,
    # here more than one in a round
    sizes = []

    def fn(t):
        sizes.append(t.size)
        return 1.0 / (1.0 + 25.0 * t * t)

    adaptive_time_integral(fn, -1.0, 1.0, rel_tol=1e-10, scale=1.0, points=[0.0])
    assert sizes[0] == 42 and len(sizes) > 1
    assert all(size > 0 and size % 42 == 0 for size in sizes[1:])
    assert max(sizes[1:]) > 42
    sizes.clear()
    real_line_time_integral(fn, rel_tol=1e-12, scale=1.0)
    # four initial panels, less the nodes that round to s = +-1
    assert 21 < sizes[0] <= 84 and len(sizes) > 1
    assert all(size > 0 for size in sizes[1:])


@pytest.mark.parametrize("integrate", [
    lambda fn: adaptive_time_integral(fn, 0.0, 1.5, 1e-8, 1.0),
    lambda fn: real_line_time_integral(fn, 1e-8, 1.0),
], ids=["window", "whole-line"])
@pytest.mark.parametrize("fn", [lambda t: 2.0, lambda t: np.exp(-t * t)[1:],
                                lambda t: np.exp(-t * t)[None, :],
                                lambda t: np.exp(-t * t)[:, None, None]],
                         ids=["scalar", "short", "row", "three-axis"])
def test_time_integrand_of_wrong_shape_is_rejected(integrate, fn):
    with pytest.raises(InvalidParameterError, match=r"fn must return shape \(k,\)"):
        integrate(fn)


@pytest.mark.parametrize("integrate", [
    lambda fn, scale: adaptive_time_integral(fn, -6.0, 6.0, 1e-10, scale, points=[0.0]),
    lambda fn, scale: real_line_time_integral(fn, 1e-10, scale),
], ids=["window", "whole-line"])
def test_time_integrand_columns_meet_their_own_targets(integrate):
    # an integrand of shape (k, J) is J integrals on shared panels; each
    # column agrees with its own one-column call within its own target
    easy = lambda t: np.exp(-t * t)
    hard = lambda t: 1.0 / (1.0 + 25.0 * t * t)
    scales = np.array([1.0, 1e-3])
    values, errors = integrate(lambda t: np.stack([easy(t), hard(t)], axis=1), scales)
    assert values.shape == errors.shape == (2,)
    for j, fn in enumerate((easy, hard)):
        alone, _ = integrate(fn, scales[j])
        assert abs(values[j] - alone) <= 1e-10 * max(abs(alone), scales[j])
        assert errors[j] <= 1e-10 * max(abs(values[j]), scales[j])


@pytest.mark.parametrize("points", [[1.0, 0.5], [-6.0], [7.0], [np.nan]],
                         ids=["decreasing", "at-a", "past-b", "nan"])
def test_time_integral_rejects_breakpoints_outside_or_unordered(points):
    def fn(t):
        raise AssertionError("the integrand ran before the breakpoints were checked")

    with pytest.raises(InvalidParameterError):
        adaptive_time_integral(fn, -6.0, 6.0, rel_tol=1e-8, scale=1.0, points=points)


@pytest.mark.parametrize("a,b", [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf),
                                 (-np.inf, np.inf)])
def test_time_integral_rejects_bound_that_is_not_finite(a, b):
    def fn(t):
        raise AssertionError("the integrand ran before the bounds were checked")

    with pytest.raises(InvalidParameterError, match="finite"):
        adaptive_time_integral(fn, a, b, rel_tol=1e-8, scale=1.0)


def test_time_panel_estimate_is_k21_minus_g10():
    # t^31 is of the degree K21 integrates exactly and G10 does not; the
    # loose target accepts the first sweep, so the value is the exact
    # integral and the error the summed distance of the two initial
    # panels to the 10-point Gauss value
    a, b = 0.2, 3.0
    value, err = adaptive_time_integral(lambda t: t**31, a, b, rel_tol=1.0,
                                        scale=1e30, points=[1.6])
    exact = lambda lo, hi: (hi**32 - lo**32) / 32.0
    np.testing.assert_allclose(value, exact(a, b), rtol=1e-13)
    x10, w10 = _gl(10)
    distance = 0.0
    for lo, hi in ((a, 1.6), (1.6, b)):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        gauss = half * (w10 @ (mid + half * x10) ** 31)
        assert abs(exact(lo, hi) - gauss) > 1e-12 * exact(lo, hi)
        distance += abs(exact(lo, hi) - gauss)
    # the second panel's distance, 2.6e-11 of its value, is about 1e4 times
    # the roundoff of its K21 and G10 sums
    np.testing.assert_allclose(err, distance, rtol=1e-3)


def test_gauss_kronrod_table_is_exact_to_degree_31():
    nodes, wk, wg = _GK21
    assert len(set(nodes.tolist())) == 21
    for k in range(32):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(wk @ nodes**k - exact) <= 4 * EPS
        if k < 20:  # the embedded 10-point Gauss rule
            assert abs(wg @ nodes[:10] ** k - exact) <= 16 * EPS


def test_kronrod_33_table_is_exact_to_degree_49():
    nodes, wk, wg = _GK33
    x16, w16 = _gl(16)
    np.testing.assert_array_equal(nodes[:16], x16)
    np.testing.assert_array_equal(wg, w16)
    assert len(set(nodes.tolist())) == 33
    assert np.all(wk > 0.0) and abs(wk.sum() - 2.0) <= 4 * EPS
    for k in range(50):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(wk @ nodes**k - exact) <= 4 * EPS, k


def test_radial_panel_estimate_is_k33_minus_g16(monkeypatch):
    # with the kernel replaced by r^49, of the degree K33 integrates
    # exactly and G16 does not, each panel's value is the integral and its
    # error the distance to the 16-point Gauss value
    monkeypatch.setattr(quadrature, "_shell_values",
                        lambda geom, r, omega, wts, coeffs, rows: r**49)
    a, b = np.array([0.0, 0.2]), np.array([1.0, 3.0])
    values, errors = _panel_value(SimpleNamespace(n=1), np.zeros(2, dtype=int), a, b,
                                  None)
    x16, w16 = _gl(16)
    for p in range(len(a)):
        mid, half = 0.5 * (a[p] + b[p]), 0.5 * (b[p] - a[p])
        gauss = half * (w16 @ (mid + half * x16) ** 49)
        exact = (b[p] ** 50 - a[p] ** 50) / 50.0
        np.testing.assert_allclose(values[p], exact, rtol=1e-13)
        assert abs(exact - gauss) > 1e-10 * exact  # G16 is not exact here
        np.testing.assert_allclose(errors[p], abs(exact - gauss), rtol=1e-4)


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
    vals, info = shell_integrals(_evolve_times(single(1, a=a), [0.0]),
                                 ShellCoefficients(w_mass=np.ones_like), radii=[R])
    assert_bounded(vals[0, 0], info["abs_error"][0, 0],
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
