"""Space-time functional tests.

Oracles: a centered zero-momentum Gaussian evolves to B(t) e^{-alpha(t) x^2}
with alpha(t) = a/(1 + 4iat), so the truncated gradient integral has an erf
closed form and the profile reduces to one scipy quad call in time.  The
flux oracles are a trapezoid sum of the spectral representation on a wide
grid and the grid route: sampled fields with an FFT gradient, which with
a Gauss-Legendre rule in time also checks the windowed Morawetz
integral.  The whole-line identity ties the three signed pieces to
2 pi psi'(inf) ||f||^2_{H^{1/2}}, which exercises every coefficient slot at
once.
"""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf, j1, roots_legendre

from smoothing_lab import functionals
from smoothing_lab.errors import (InvalidParameterError, InvalidWeightError,
                                  ToleranceNotMetError)
from smoothing_lab.functionals import (
    boundary_term,
    dispersive_l2_error,
    flux,
    morawetz_lhs,
    morawetz_remainder_split,
    radial_profile,
    remainder_terms,
    smoothing_profile,
    weighted_radial_energy,
)
from smoothing_lab.model import (RadialWeight, gaussian_inner, l2_norm_sq, packet,
                                 packet_sum, random_packet_suite)
from smoothing_lab.propagator import (difference_state, dispersive_approx,
                                      evolve_analytic, fourier_state)
from smoothing_lab.quadrature import REL_TOL, ShellCoefficients, shell_integral
from smoothing_lab.spectral import (boundary_mass_fraction, hs_norm_sq,
                                    sample_datum)
from smoothing_lab.weights import make_psi_eps, make_psi_k

F_1D = packet_sum([
    packet(1.0, 1.0, [0.2], [0.3]),
    packet(0.5j, 1.5, [-0.4], [-0.2]),
])

ODD_1D = packet_sum([
    packet(1.0, 1.0, [0.8]),
    packet(-1.0, 1.0, [-0.8]),
])


# ---------------------------------------------------------------------------
# profiles against the closed-form-in-space, quad-in-time oracle
# ---------------------------------------------------------------------------

def truncated_second_moment(c, R):
    # int_{-R}^{R} x^2 exp(-c x^2) dx
    return (np.sqrt(np.pi) * erf(np.sqrt(c) * R) / (2.0 * c**1.5)
            - R * np.exp(-c * R * R) / c)


def profile_oracle(a, R):
    def gradient_mass(t):
        alpha = a / (1.0 + 4j * a * t)
        mod = 1.0 + 16.0 * a * a * t * t
        amp_sq = 1.0 / np.sqrt(mod)       # |B(t)|^2 for unit amplitude
        return 4.0 * abs(alpha) ** 2 * amp_sq * truncated_second_moment(
            2.0 * alpha.real, R)

    val, _ = quad(gradient_mass, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12,
                  limit=400)
    return 2.0 * val / R                  # even integrand in t


@pytest.mark.parametrize("R", [0.5, 2.0])
def test_radial_profile_matches_quad_oracle(R):
    f = packet_sum([packet(1.0, 1.0, [0.0])])
    assert radial_profile(f, R) == pytest.approx(profile_oracle(1.0, R),
                                                 rel=1e-6)


def packet_transform(f, xi):
    """fhat(xi) of an n = 1 packet sum from its packet parameters: packet
    A exp(-a (x - x0)^2 + 2 pi i v x) transforms (kernel exp(-2 pi i x xi))
    to A sqrt(pi/a) exp(-pi^2 (xi - v)^2 / a) exp(-2 pi i x0 (xi - v))."""
    return sum(p.amplitude * np.sqrt(np.pi / p.width)
               * np.exp(-np.pi**2 * (xi - p.momentum[0]) ** 2 / p.width)
               * np.exp(-2j * np.pi * p.center[0] * (xi - p.momentum[0]))
               for p in f.packets)


def fourier_radial_profile(f, R):
    """The time-collapsed Fourier form of the n = 1 radial profile,
    2 pi ||f||^2_{H^1/2} - (1/2R) int sgn(xi) sin(4 pi R xi) fhat(xi)
    conj(fhat(-xi)) dxi: the time integral puts the two frequencies of
    |u_x|^2 on |xi| = |eta|, and the ball's transform sin(2 pi R k)/(pi k)
    couples eta = xi and eta = -xi.  Both integrands are even in xi, so
    each is twice its half-line integral; beyond |xi| = 12 the Gaussians
    are below 1e-100."""
    half_norm, _ = quad(lambda xi: xi * (abs(packet_transform(f, xi)) ** 2
                                         + abs(packet_transform(f, -xi)) ** 2),
                        0.0, 12.0, epsabs=0.0, epsrel=1e-13, limit=200)
    cross, _ = quad(lambda xi: (packet_transform(f, xi)
                                * np.conj(packet_transform(f, -xi))).real,
                    0.0, 12.0, weight="sin", wvar=4.0 * np.pi * R,
                    epsabs=1e-15, epsrel=1e-12, limit=200)
    return 2.0 * np.pi * half_norm - cross / R


@pytest.mark.parametrize("R", [0.5, 2.0, 8.0])
@pytest.mark.parametrize("datum", [0, 1])
def test_radial_profile_matches_fourier_oracle(datum, R):
    # an oracle that shares no code with the shell kernels or their
    # refinement; the coupling term is 9e-2 to 2e-1 of the profile at
    # R = 0.5 and 2e-5 at R = 8
    f = random_packet_suite(1, 2, seed=5)[datum]
    expect = fourier_radial_profile(f, R)
    assert abs(radial_profile(f, R) - expect) <= 1e-10 * abs(expect)


def fourier_smoothing_profile_2d(f, R):
    """The time-collapsed Fourier form of the n = 2 smoothing profile,
    (pi/R) int_0^inf rho^3 oint oint w.w' ahat(rho (w' - w)) fhat(rho w)
    conj(fhat(rho w')) dw dw' drho: the time integral puts the two
    frequencies of |grad u|^2 on |xi| = |eta| = rho, and the disc's
    transform ahat(k) = R J_1(2 pi R |k|)/|k|, with ahat(0) = pi R^2,
    couples them.  48 trapezoid angles for each of w and w', and 300
    Gauss-Legendre radii on [0, 8], past which the data's transforms are
    negligible."""
    theta = 2.0 * np.pi * np.arange(48) / 48
    x, wx = roots_legendre(300)
    rho, wrho = 4.0 * (x + 1.0), 4.0 * wx
    omega = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    fhat = fourier_state(f).values(rho[:, None, None] * omega)  # (rho, angle)
    gap = 2.0 * np.abs(np.sin(0.5 * np.subtract.outer(theta, theta)))  # |w' - w|
    k = rho[:, None, None] * gap
    with np.errstate(invalid="ignore", divide="ignore"):
        ahat = np.where(k > 0.0, R * j1(2.0 * np.pi * R * k) / k, np.pi * R * R)
    kernel = np.cos(np.subtract.outer(theta, theta)) * ahat  # w.w' ahat
    pairs = np.einsum("pi,pij,pj->p", fhat, kernel, np.conj(fhat)).real
    return np.pi / R * (2.0 * np.pi / 48) ** 2 * (wrho * rho**3 * pairs).sum()


@pytest.mark.parametrize("R", [0.5, 2.0])
def test_smoothing_profile_matches_fourier_oracle_2d(R):
    # an oracle with no time nodes and no radial panels, sharing no code
    # with the shell kernels or their refinement.  ROADMAP item 16's fast
    # packet, which the time panels miss, is not among its data: a uniform
    # angle rule cannot resolve |xi| = 300 at R = 4 (48, 96 and 192 angles
    # read 24,000, 6,100 and 1,500 times the profile)
    f = random_packet_suite(2, 2, seed=5)[0]
    expect = fourier_smoothing_profile_2d(f, R)
    assert abs(smoothing_profile(f, R) - expect) <= 1e-8 * abs(expect)


@pytest.mark.parametrize("R", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("profile", [radial_profile, smoothing_profile])
def test_profile_rejects_radius_that_is_not_finite_and_positive(profile, R):
    # the ball profile divides by R, and a negative or infinite R would
    # return 0 instead of failing
    f = packet_sum([packet(1.0, 1.0, [0.3])])
    with pytest.raises(InvalidParameterError, match="ball radius"):
        profile(f, R)


@pytest.mark.parametrize("T", [np.nan, np.inf])
def test_morawetz_lhs_rejects_horizon_that_is_not_finite(T):
    # the time integral checks its bounds before any sweep runs
    with pytest.raises(InvalidParameterError, match="finite"):
        morawetz_lhs(F_1D, make_psi_eps(1.0), T)


def test_smoothing_profile_equals_radial_in_1d():
    f = packet_sum([packet(1.0, 1.0, [0.0])])
    assert smoothing_profile(f, 2.0) == pytest.approx(radial_profile(f, 2.0),
                                                      rel=1e-9)


# ---------------------------------------------------------------------------
# flux against a trapezoid sum of the spectral representation
# ---------------------------------------------------------------------------

_HX = 1.0 / 64.0
_X = np.arange(-16.0, 16.0, _HX)
_XI = np.arange(-12.0, 12.0, _HX)


def flux_oracle(f, w, t):
    datum = evolve_analytic(f, 0.0).values(_X[:, None])
    fhat = np.exp(-2j * np.pi * np.outer(_XI, _X)) @ datum * _HX
    mover = fhat * np.exp(-4j * np.pi**2 * _XI**2 * t)
    kernel = np.exp(2j * np.pi * np.outer(_X, _XI))
    u = kernel @ mover * _HX
    ux = kernel @ (2j * np.pi * _XI * mover) * _HX
    integrand = (np.conj(u) * w.d1(np.abs(_X)) * np.sign(_X) * ux).imag
    return float(integrand.sum() * _HX)


def test_flux_matches_trapezoid_oracle():
    w = make_psi_eps(1.0)
    val = flux(F_1D, w, 0.4)
    assert val == pytest.approx(flux_oracle(F_1D, w, 0.4), rel=1e-7)
    assert abs(val) > 1e-3                # the check is not vacuous


def grid_coordinates(g):
    """(coordinates, radius) of a sampled field's grid, the coordinates one
    array per axis."""
    xs = np.meshgrid(*([g.axis()] * g.n), indexing="ij")
    return xs, np.sqrt(sum(x * x for x in xs))


def grid_gradient(g):
    """The gradient of a sampled field, one array per axis, taken
    spectrally."""
    xi = np.fft.fftfreq(g.N, d=g.dx)
    xi[g.N // 2] = 0.0  # the Nyquist mode has no odd derivative
    uhat = np.fft.fftn(g.samples)
    grads = []
    for d in range(g.n):
        shape = [1] * g.n
        shape[d] = g.N
        grads.append(np.fft.ifftn(2j * np.pi * xi.reshape(shape) * uhat))
    return grads


def grid_flux(f, w, t, L, N):
    """Im sum conj(u) psi'(r)/r (x . grad u) dx^n on the sampled field, with
    the gradient taken spectrally; the second value is the field's
    boundary mass fraction."""
    g = sample_datum(f, L, N, t)
    (xs, r), grads = grid_coordinates(g), grid_gradient(g)
    radial = sum(x * grad for x, grad in zip(xs, grads))
    rate = np.divide(w.d1(r), r, out=np.zeros_like(r), where=r > 0.0)
    value = float(np.sum(np.conj(g.samples) * rate * radial).imag) * g.dx**f.n
    return value, boundary_mass_fraction(g)


@pytest.mark.parametrize("n,L,N", [(1, 40.0, 2048), (2, 32.0, 512)])
def test_flux_matches_grid_route(n, L, N):
    # the grid route shares nothing with the shell quadrature but the
    # closed-form evolution it samples
    w = make_psi_eps(1.0)
    for f in random_packet_suite(n, count=2, seed=5):
        for t in (0.0, 0.7):
            grid, edge = grid_flux(f, w, t, L, N)
            assert edge <= 1e-8
            assert flux(f, w, t) == pytest.approx(grid, rel=1e-8), (n, t)


def grid_shell_term(f, w, t, L, N, term):
    """The grid sum of one shell term at time t with the coefficients of
    test_shell_term_matches_grid_route, and the boundary mass fraction.
    With x.grad u = r du/dr and r^2 |grad_tau u|^2 = r^2 |grad u|^2 -
    |x.grad u|^2 every density is smooth at the origin."""
    g = sample_datum(f, L, N, t)
    (xs, r), grads = grid_coordinates(g), grid_gradient(g)
    xgrad = np.abs(sum(x * grad for x, grad in zip(xs, grads))) ** 2
    if term == "w_rr":  # r^2 psi'' |du/dr|^2
        density = w.d2(r) * xgrad
    elif term == "w_tau":  # r psi' |grad_tau u|^2
        rate = np.divide(w.d1(r), r, out=np.zeros_like(r), where=r > 0.0)
        density = rate * (r * r * sum(np.abs(grad) ** 2 for grad in grads) - xgrad)
    else:  # psi'' |u|^2
        density = w.d2(r) * np.abs(g.samples) ** 2
    return float(density.sum()) * g.dx**f.n, boundary_mass_fraction(g)


SHELL_TERMS = {"w_rr": lambda w: lambda r: r * r * w.d2(r),
               "w_tau": lambda w: lambda r: r * w.d1(r),
               "w_mass": lambda w: w.d2}


@pytest.mark.parametrize("n,L,N,term", [
    *((1, 40.0, 2048, term) for term in ("w_rr", "w_mass")),  # no tangent on the line
    *((2, 32.0, 512, term) for term in SHELL_TERMS)])
def test_shell_term_matches_grid_route(n, L, N, term):
    # the radial-shell kernel and rule at fixed t, one term at a time,
    # against grid sums of the same evolved field
    w = make_psi_eps(1.0)
    coeffs = ShellCoefficients(**{term: SHELL_TERMS[term](w)}, knots=w.knots)
    for f in random_packet_suite(n, count=2, seed=5):
        for t in (0.0, 0.7):
            grid, edge = grid_shell_term(f, w, t, L, N, term)
            assert edge <= 1e-8
            value, _ = shell_integral(evolve_analytic(f, t), coeffs)
            assert value == pytest.approx(grid, rel=1e-8), (n, t)


def grid_morawetz_sums(f, w, times, L, N):
    """sum [psi''|du/dr|^2 + (psi'/r)|grad_tau u|^2 - (1/4) Lap^2 psi |u|^2]
    dx^n on the field sampled at each of the times, and the largest of the
    fields' boundary mass fractions.  The samples share one grid, so the
    coefficients are evaluated once, outside the loop over times.  Lap^2
    psi is expanded here from the derivatives d1 to d4; the origin sample
    takes the limits psi'/r -> psi''(0) and
    Lap^2 psi(0) = psi''''(0) n (n + 2)/3."""
    n = f.n
    xs, r = grid_coordinates(sample_datum(f, L, N, times[0]))
    origin = r == 0.0
    rs = np.where(origin, 1.0, r)
    d1, d2, d3, d4 = w.d1(r), w.d2(r), w.d3(r), w.d4(r)
    rate = np.where(origin, d2, d1 / rs)
    bilap = np.where(origin, d4 * n * (n + 2) / 3.0,
                     d4 + 2.0 * (n - 1) * d3 / rs
                     + (n - 1) * (n - 3) * (d2 / rs**2 - d1 / rs**3))
    # psi''|du/dr|^2 + (psi'/r)(|grad u|^2 - |du/dr|^2); x = 0 at the
    # origin, so du/dr is 0 there and psi''(0)|grad u|^2 remains
    radial, units = d2 - rate, [x / rs for x in xs]
    sums, edges = [], []
    for t in times:
        g = sample_datum(f, L, N, t)
        grads = grid_gradient(g)
        ursq = np.abs(sum(e * grad for e, grad in zip(units, grads))) ** 2
        gsq = sum(np.abs(grad) ** 2 for grad in grads)
        density = radial * ursq + rate * gsq - 0.25 * bilap * np.abs(g.samples) ** 2
        sums.append(float(density.sum()) * g.dx**n)
        edges.append(boundary_mass_fraction(g))
    return np.array(sums), max(edges)


@pytest.mark.parametrize("n,L,N", [(1, 40.0, 2048), (2, 32.0, 512)])
def test_morawetz_lhs_matches_grid_route(n, L, N):
    # grid sums of the bulk integrand at 48 Gauss-Legendre times; with 24
    # the time rule alone misses the first n = 2 datum by 1e-6
    w, T = make_psi_eps(1.0), 0.5
    nodes, weights = np.polynomial.legendre.leggauss(48)
    for f in random_packet_suite(n, count=2, seed=5):
        sums, edge = grid_morawetz_sums(f, w, T * nodes, L, N)
        assert edge <= 1e-8
        grid = T * float(np.dot(weights, sums))
        assert morawetz_lhs(f, w, T) == pytest.approx(grid, rel=1e-8), n


def test_boundary_term_is_half_flux_difference():
    w = make_psi_eps(1.0)
    expected = 0.5 * (flux(F_1D, w, 0.8) - flux(F_1D, w, -0.8))
    assert boundary_term(F_1D, w, 0.8) == pytest.approx(expected, rel=1e-12)


def test_finite_window_identity_single_point():
    # the windowed interior integral balances the boundary fluxes exactly
    w = make_psi_eps(1.0)
    lhs = morawetz_lhs(F_1D, w, 0.5)
    rhs = boundary_term(F_1D, w, 0.5)
    assert lhs == pytest.approx(rhs, rel=1e-8)


# psi = r^2/2 has psi'' = 1, psi'/r = 1 and Lap^2 psi = 0, so the Morawetz
# integrand is |grad u|^2, whose integral is conserved; slope_inf only sets
# the magnitude floor here
QUADRATIC = RadialWeight(
    d0=lambda r: r**2 / 2, d1=lambda r: np.asarray(r, dtype=float),
    d2=lambda r: np.ones_like(r), d3=lambda r: np.zeros_like(r),
    d4=lambda r: np.zeros_like(r), slope_inf=1.0, label="quadratic",
)


@pytest.mark.parametrize("n,T", [(1, 1.0), (2, 0.5), (3, 0.25)])
def test_quadratic_weight_lhs_closed_form(n, T):
    # int_{-T}^{T} ||grad u||^2 dt = 2T |A|^2 (pi/2a)^{n/2} (a n + 4 pi^2 |v|^2)
    # for one packet, wherever it sits and however fast it moves
    A, a = 0.9 + 0.2j, 1.1
    c = np.array([0.3, -0.2, 0.1])[:n]
    v = np.array([0.2, 0.15, -0.1])[:n]
    f = packet_sum([packet(A, a, c, v)])
    exact = 2.0 * T * abs(A) ** 2 * (np.pi / (2.0 * a)) ** (n / 2) * (
        a * n + 4.0 * np.pi**2 * float(v @ v))
    assert morawetz_lhs(f, QUADRATIC, T) == pytest.approx(exact, rel=1e-12)


# psi = r^4 has Lap^2 psi = 8 n (n + 2), a nonzero constant, so the mass
# term -|u|^2 Lap^2 psi / 4 of the Morawetz integrand is in play; slope_inf
# only sets the error floor here
QUARTIC = RadialWeight(
    d0=lambda r: r**4, d1=lambda r: 4.0 * r**3, d2=lambda r: 12.0 * r**2,
    d3=lambda r: 24.0 * r, d4=lambda r: np.full_like(r, 24.0, dtype=float),
    slope_inf=1.0, label="quartic",
)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quartic_weight_lhs_is_an_odd_cubic_in_the_horizon(n):
    # x evolves as x + 4 pi t xi, so each term's spatial integral at time t
    # is a polynomial in t of degree at most 2, and its integral over
    # [-T, T] is a T + b T^3: fitted on T = 0.25 and 0.5 it predicts T = 1
    # and 2.  The identity holds at every T as well.
    f = two_packets(n)
    Ts = np.array([0.25, 0.5, 1.0, 2.0])
    lhs = morawetz_lhs(f, QUARTIC, Ts)
    np.testing.assert_allclose(lhs, boundary_term(f, QUARTIC, Ts), rtol=1e-12)
    basis = np.column_stack([Ts, Ts**3])
    coeffs = np.linalg.solve(basis[:2], lhs[:2])
    np.testing.assert_allclose(basis[2:] @ coeffs, lhs[2:], rtol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_zero_amplitude_packet_changes_nothing(n):
    # its pairs carry zero weight: no log(0), no warning, the same value
    live = packet(0.8 - 0.3j, 1.1, np.full(n, 0.3), np.full(n, 0.2))
    dead = packet(0.0, 0.9, np.full(n, -0.4), np.full(n, -0.1))
    w = make_psi_eps(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        both = morawetz_lhs(packet_sum([dead, live]), w, 0.5)
    assert both == pytest.approx(morawetz_lhs(packet_sum([live]), w, 0.5), rel=1e-12)


# ---------------------------------------------------------------------------
# whole-line identity: radial + tangential - bilaplacian/4 = 2 pi psi'(inf) |f|^2
# ---------------------------------------------------------------------------

def two_packets(n):
    """A moving packet off the origin and a still, narrower one of
    amplitude 0.7i: the datum whose approach rates ROADMAP item 20
    tabulates."""
    return packet_sum([packet(1.0, 1.0, [0.3] + [0.0] * (n - 1), [0.2, 0.1, 0.0][:n]),
                       packet(0.7j, 1.5, [-0.2] * n, [0.0] * n)])


@pytest.mark.parametrize("w", [make_psi_k(2), make_psi_eps(1.0)], ids=lambda w: w.label)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_whole_line_identity(n, w):
    f = ODD_1D if n == 1 else two_packets(n)
    radial = weighted_radial_energy(f, w)
    tan, bil = morawetz_remainder_split(f, w)
    if n == 1:
        assert tan == 0.0
    lhs = radial + tan - 0.25 * bil
    rhs = 2.0 * np.pi * w.slope_inf * hs_norm_sq(f, 0.5)
    assert lhs == pytest.approx(rhs, rel=1e-8)


# ---------------------------------------------------------------------------
# approach rates of the limits: v(p) - L ~ p^-rate
# ---------------------------------------------------------------------------

def local_rate(values, limit):
    """-log2 of the ratio of the distances to the limit at p and 2p."""
    return -np.log2(abs(limit - values[1]) / abs(limit - values[0]))


def approach_rates(f, flux_times=(16.0, 32.0)):
    """(measured, predicted) local rates at R = 16 -> 32 of f's profiles
    and at flux_times of its bump-weight flux.  In n >= 2 the radial
    profile approaches its limit as 1/R and the full gradient as 1/R^2."""
    n, w = f.n, make_psi_k(2)
    limit = 2.0 * np.pi * hs_norm_sq(f, 0.5)
    rates = {"radial": local_rate(radial_profile(f, [16.0, 32.0]), limit),
             "flux": local_rate(flux(f, w, list(flux_times)), w.slope_inf * limit)}
    predicted = {"radial": 2.0 if n == 1 else 1.0, "flux": 2.0}
    if n > 1:
        rates["smoothing"] = local_rate(smoothing_profile(f, [16.0, 32.0]), limit)
        predicted["smoothing"] = 2.0
    return rates, predicted


@pytest.mark.parametrize("n", [1, 2, 3])
def test_approach_rates(n):
    # at R or T = 16 -> 32, the rates the asymptotics give, the bump
    # weight's Morawetz integral among them.  psi_eps stays out: in n = 1
    # its flux has not settled by T = 32, the deviation
    # 1 - psi_eps'(r) ~ 1/(2 r^2) meeting an integral of |fhat|^2/|xi| that
    # diverges at xi = 0
    f, w = two_packets(n), make_psi_k(2)
    rates, predicted = approach_rates(f)
    limit = 2.0 * np.pi * w.slope_inf * hs_norm_sq(f, 0.5)
    rates["morawetz"] = local_rate(morawetz_lhs(f, w, [16.0, 32.0]), limit)
    predicted["morawetz"] = 2.0
    assert rates == pytest.approx(predicted, abs=0.05)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_approach_rates_of_a_second_datum(n):
    """The same rates on random_packet_suite(n, 1, 2, seed=5)[0].

    Its n = 1 flux approaches 2 slowly: the local rate reads 1.71, 1.86,
    1.93, 1.97 and 1.98 over t = 8 -> 16 up to 128 -> 256, so it is held
    at 128 -> 256, where a flux costs almost nothing.
    """
    f = random_packet_suite(n, 1, 2, seed=5)[0]
    rates, predicted = approach_rates(f, (128.0, 256.0) if n == 1 else (16.0, 32.0))
    assert rates == pytest.approx(predicted, abs=0.05)


# ---------------------------------------------------------------------------
# silent misses: a fast packet crosses the coefficients' support between
# the nodes of the initial time panels, and the time layer accepts 0
# ---------------------------------------------------------------------------

SILENT_MISS = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 16: no time node falls in the fast packet's crossing "
           "window until the time knots come from packet kinematics")


def fast_packet(n, centre):
    """packet(1, 1, [centre, 0, ...], [300, 0, ...]): its centre moves
    along the first axis at 4 pi 300, about 3800 widths per unit time."""
    return packet_sum([packet(1.0, 1.0, [centre] + [0.0] * (n - 1),
                              [300.0] + [0.0] * (n - 1))])


@SILENT_MISS
def test_fast_packet_radial_profile_is_not_missed():
    # centred, the same packet reads 1.000000 of the target
    f = fast_packet(1, -500.0)
    target = 2.0 * np.pi * hs_norm_sq(f, 0.5)
    assert np.all(radial_profile(f, [1.0, 4.0, 16.0]) >= 0.5 * target)


@SILENT_MISS
def test_fast_packet_smoothing_profile_is_not_missed():
    for n in (2, 3):
        f = fast_packet(n, -500.0)
        target = 2.0 * np.pi * hs_norm_sq(f, 0.5)
        assert np.all(smoothing_profile(f, [4.0, 16.0]) >= 0.5 * target), n


@SILENT_MISS
def test_fast_packet_identity_is_not_missed():
    # the boundary term is 2953.05; over T = 0.5 the two sides agree
    f, w = fast_packet(1, 0.0), make_psi_k(2)
    assert morawetz_lhs(f, w, 4.0) == pytest.approx(boundary_term(f, w, 4.0), rel=1e-6)


@SILENT_MISS
def test_fast_packet_remainder_is_not_missed():
    # a whole-line integral does not change under a time shift, so the fast
    # packet's bilaplacian term is that of its own state at
    # t0 = 500/(4 pi 300) ~ 0.133: a centred packet about 1.13 times wider.
    # It reads [3.06e-9, 1.22e-8] against [1.14e-3, 2.85e-4] centred, and
    # no guard of verify_remainder_decay catches it
    w = make_psi_eps(1.0)
    _, fast = remainder_terms(fast_packet(1, -500.0), w, [1.0, 2.0])
    _, centred = remainder_terms(fast_packet(1, 0.0), w, [1.0, 2.0])
    assert np.all(fast >= 0.1 * centred)


# ---------------------------------------------------------------------------
# remainder guard rails
# ---------------------------------------------------------------------------

def test_remainder_rejects_unbounded_slope():
    bad = RadialWeight(
        d0=lambda r: r**2 / 2, d1=lambda r: np.asarray(r, dtype=float),
        d2=lambda r: np.ones_like(r), d3=lambda r: np.zeros_like(r),
        d4=lambda r: np.zeros_like(r), slope_inf=np.inf, label="parabola",
    )
    f = packet_sum([packet(1.0, 1.0, [0.0, 0.0])])
    with pytest.raises(InvalidWeightError):
        remainder_terms(f, bad, 4.0)


def test_absolute_remainder_diverges_for_even_datum_in_1d():
    # fhat(0) != 0 makes |u|^2 |Lap^2 psi_R| decay only like 1/|t|, so the
    # whole-line quadrature must give up rather than return a number
    f = packet_sum([packet(1.0, 1.0, [0.0])])
    with pytest.raises(ToleranceNotMetError):
        remainder_terms(f, make_psi_eps(1.0), 4.0)


# an odd datum, fhat(0) = 0, as the absolute n = 1 remainder needs
KINK_1D = packet_sum([packet(0.8 + 0.6j, 1.0, [0.5], [0.05]),
                      packet(-0.8 - 0.6j, 1.0, [-0.5], [-0.05])])


def remainder_knots(monkeypatch, f, w, R):
    """The knots of every whole-line integral remainder_terms runs."""
    seen = []

    def spy(f, coeffs, scale, horizons=None, radii=None):
        seen.append(coeffs.knots)
        return np.zeros(1)  # the one column of the whole space

    monkeypatch.setattr(functionals, "_time_integrated", spy)
    remainder_terms(f, w, R)
    return seen


@pytest.mark.parametrize("eps", [0.3, 1.0])
@pytest.mark.parametrize("R", [2.0, 8.0])
def test_absolute_bilaplacian_is_cut_at_its_kink(monkeypatch, eps, R):
    # in n = 1, Lap^2 psi_R = psi_R'''' is proportional to 4 r^2 - (R eps)^2,
    # so |Lap^2 psi_R| has its kink at R eps / 2, which must be a knot; in
    # n = 3, Lap^2 psi_R < 0 everywhere, and neither term adds a knot
    w = make_psi_eps(eps)
    (knots,) = remainder_knots(monkeypatch, KINK_1D, w, R)
    base = tuple(R * k for k in w.knots)
    assert knots[:2] == base and len(knots) == 3
    assert abs(knots[2] - 0.5 * R * eps) <= 4 * np.spacing(0.5 * R * eps)
    f3 = packet_sum([packet(1.0, 1.0, [0.3, 0.0, 0.0])])
    assert remainder_knots(monkeypatch, f3, w, R) == [base, base]


def mp_bilaplacian(mp, family, p, n):
    """Lap^2 psi in dimension n at an mpf radius: psi_eps's derivatives as
    make_psi_eps writes them, or, for psi_k in n = 1 or 3 (where the
    grouped term's factor (n-1)(n-3) is 0), the band's k^2 q'' +
    2(n-1) k q'/r with q' and q'' in the closed form of bump_transition."""
    def lap2(d1, d2, d3, d4, r):
        return d4 + 2 * (n - 1) * d3 / r + (n - 1) * (n - 3) * (d2 - d1 / r) / r**2

    if family == "eps":
        e2 = mp.mpf(p) ** 2
        return lambda r: lap2(r / mp.sqrt(e2 + r * r), e2 / (e2 + r * r) ** 1.5,
                              -3 * e2 * r / (e2 + r * r) ** 2.5,
                              3 * e2 * (4 * r * r - e2) / (e2 + r * r) ** 3.5, r)

    def B(t, order=0):
        # B(t) = e^{-1/t}, B' = B/t^2, B'' = B(1 - 2t)/t^4
        return mp.exp(-1 / t) * (1, 1 / t**2, (1 - 2 * t) / t**4)[order]

    def g(r):
        s = p * (r - 1)
        u = 1 - s
        D = B(s) + B(u)
        P = B(u, 1) * B(s) + B(u) * B(s, 1)
        q1 = -P / D**2
        q2 = ((B(u, 2) * B(s) - B(u) * B(s, 2)) / D**2
              + 2 * P * (B(s, 1) - B(u, 1)) / D**3)
        return lap2(0, 0, p * q1, p**2 * q2, r)

    return g


@pytest.mark.parametrize("family,p,n", [
    *(("eps", eps, n) for eps in (0.3, 1.0, 2.5) for n in (1, 2, 3)),
    *(("k", k, n) for k in (1, 2, 5) for n in (1, 3))])
def test_kinks_match_mpmath_roots(family, p, n):
    # every zero of Lap^2 psi that the kink finder returns lies within an
    # ulp of the 50-digit root next to it; Lap^2 psi_eps < 0 in n = 3, and
    # every other case changes sign once
    mp = pytest.importorskip("mpmath").mp
    w = make_psi_eps(p) if family == "eps" else make_psi_k(p)
    zeros = functionals._sign_changes(
        lambda r: functionals._bilaplacian(w, r, n), w.knots)
    assert len(zeros) == (0 if (family, n) == ("eps", 3) else 1)
    with mp.workdps(50):
        g = mp_bilaplacian(mp, family, p, n)
        for z in zeros:
            near = (mp.mpf(z) * (1 - mp.mpf("1e-6")), mp.mpf(z) * (1 + mp.mpf("1e-6")))
            root = mp.findroot(g, near, solver="anderson")
            assert near[0] < root < near[1]
            assert abs(mp.mpf(z) - root) <= np.spacing(float(root)), (z, root)


@pytest.mark.parametrize("R", [2.0, 8.0])
def test_absolute_bilaplacian_meets_tolerance_across_its_kink(monkeypatch, R):
    # the lab's tolerance against the same route at 1e-4 of it: a kink
    # inside a panel defeats the K33 - G16 estimate, and without the kink
    # as a knot the result is off by 5e-8 (R = 2) and 7e-8 (R = 8)
    _, got = remainder_terms(KINK_1D, make_psi_eps(1.0), R)
    monkeypatch.setattr(functionals, "REL_TOL", 1e-4 * REL_TOL)
    _, tight = remainder_terms(KINK_1D, make_psi_eps(1.0), R)
    assert abs(got - tight) <= REL_TOL * abs(tight)


# ---------------------------------------------------------------------------
# dispersive approximation error against the closed Gram sum
# ---------------------------------------------------------------------------

def gram_l2_error(f, t):
    d = difference_state(evolve_analytic(f, t), dispersive_approx(f, t))
    g = gaussian_inner(d.B, d.alpha, d.c, d.v, d.B, d.alpha, d.c, d.v)
    return float(np.sqrt(max(g.real, 0.0)))


@pytest.mark.parametrize("t,rel", [(1.0, 1e-8), (8.0, 1e-8), (64.0, 1e-4)])
def test_dispersive_error_matches_gram(t, rel):
    assert dispersive_l2_error(F_1D, t) == pytest.approx(gram_l2_error(F_1D, t),
                                                         rel=rel)


def test_empty_datum_short_circuits():
    empty = packet_sum([], n=2)
    w = make_psi_eps(1.0)
    assert smoothing_profile(empty, 2.0) == 0.0
    assert radial_profile(empty, 2.0) == 0.0
    assert morawetz_lhs(empty, w, 1.0) == 0.0
    assert flux(empty, w, 1.0) == 0.0
    assert remainder_terms(empty, w, 4.0) == (0.0, 0.0)
    assert morawetz_remainder_split(empty, w) == (0.0, 0.0)
    assert weighted_radial_energy(empty, w) == 0.0
    assert dispersive_l2_error(empty, 1.0) == 0.0
    # and over schedules, one zero per point
    schedule = [1.0, 2.0]
    for values in (smoothing_profile(empty, schedule), radial_profile(empty, schedule),
                   morawetz_lhs(empty, w, schedule), boundary_term(empty, w, schedule),
                   flux(empty, w, schedule), dispersive_l2_error(empty, schedule),
                   *remainder_terms(empty, w, schedule)):
        np.testing.assert_array_equal(values, [0.0, 0.0])


# ---------------------------------------------------------------------------
# schedules: one integral per schedule, one column per point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_fixed_time_schedule_is_bit_identical_to_per_point_calls(n):
    # every state of a batch has its own panel set, refined only while it
    # is over its own target, so batching the times changes no bit
    f = random_packet_suite(n, 2, seed=5)[0]
    w = make_psi_eps(1.0)
    times = np.array([-16.0, -8.0, 8.0, 16.0])
    np.testing.assert_array_equal(flux(f, w, times), [flux(f, w, t) for t in times])
    later = np.array([1.0, 2.0, 4.0])
    np.testing.assert_array_equal(dispersive_l2_error(f, later),
                                  [dispersive_l2_error(f, t) for t in later])
    horizons = np.array([0.5, 1.0])
    np.testing.assert_array_equal(boundary_term(f, w, horizons),
                                  [boundary_term(f, w, T) for T in horizons])


@pytest.mark.parametrize("w", [make_psi_eps(1.0), make_psi_k(2)], ids=["eps", "bump"])
def test_horizon_schedule_agrees_with_per_point_calls(w):
    # one integral over the widest window, cut at every +-T_j, against one
    # integral per horizon: each column within its horizon's own target
    Ts = np.array([1.0, 2.0, 4.0, 8.0])
    together = morawetz_lhs(F_1D, w, Ts)
    alone = np.array([morawetz_lhs(F_1D, w, T) for T in Ts])
    scale = l2_norm_sq(F_1D) * (1.0 + abs(w.slope_inf))
    assert together.shape == (4,)
    assert np.all(np.abs(together - alone) <= REL_TOL * np.maximum(np.abs(alone), scale))


@pytest.mark.parametrize("n", [1, 2])
def test_radius_schedule_agrees_with_per_point_calls(n):
    # one whole-line integral whose radial panels are cut at every R_j,
    # against one integral per radius: each ball within its own target,
    # REL_TOL max(|profile|, mass) after the division by R
    f = random_packet_suite(n, 2, seed=5)[0]
    Rs = np.array([0.5, 2.0, 8.0])
    for profile in (radial_profile, smoothing_profile):
        together = profile(f, Rs)
        alone = np.array([profile(f, R) for R in Rs])
        bound = REL_TOL * np.maximum(np.abs(alone), l2_norm_sq(f))
        assert np.all(np.abs(together - alone) <= bound), profile.__name__


def test_one_point_schedule_is_the_scalar_call():
    # a scalar runs the one-column path and returns a float; a schedule of
    # one point returns that same value in an array
    w = make_psi_eps(1.0)
    for fn, point in ((lambda p: morawetz_lhs(F_1D, w, p), 0.5),
                      (lambda p: boundary_term(F_1D, w, p), 0.5),
                      (lambda p: flux(F_1D, w, p), -0.8),
                      (lambda p: dispersive_l2_error(F_1D, p), 2.0),
                      (lambda p: radial_profile(F_1D, p), 2.0),
                      (lambda p: smoothing_profile(F_1D, p), 2.0)):
        value = fn(point)
        assert type(value) is float
        np.testing.assert_array_equal(fn([point]), [value])
    tangential, bilaplacian = remainder_terms(ODD_1D, w, 4.0)
    assert type(tangential) is float and type(bilaplacian) is float
    np.testing.assert_array_equal(np.array(remainder_terms(ODD_1D, w, [4.0])),
                                  [[tangential], [bilaplacian]])


@pytest.mark.parametrize("schedule", [[2.0, 1.0], [1.0, 1.0], [-1.0, 1.0],
                                      [0.0], [[1.0, 2.0]], []],
                         ids=["decreasing", "repeated", "negative", "zero",
                              "two-axis", "empty"])
def test_schedule_that_is_not_increasing_and_positive_is_rejected(schedule):
    w = make_psi_eps(1.0)
    for fn in (lambda s: morawetz_lhs(F_1D, w, s), lambda s: boundary_term(F_1D, w, s),
               lambda s: radial_profile(F_1D, s), lambda s: smoothing_profile(F_1D, s),
               lambda s: remainder_terms(ODD_1D, w, s)):
        with pytest.raises(InvalidParameterError):
            fn(schedule)


def test_remainder_schedule_checks_and_finds_kinks_once(monkeypatch):
    # one hypothesis check and one sign-change search on the base weight
    # per call, and the per-R values of per-R calls
    w = make_psi_eps(1.0)
    Rs = [2.0, 8.0]
    alone = np.array([remainder_terms(KINK_1D, w, R) for R in Rs]).T
    counts = {"check_remainder_hypotheses": 0, "_sign_changes": 0}
    for name in counts:
        inner = getattr(functionals, name)

        def counted(*args, _inner=inner, _name=name):
            counts[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(functionals, name, counted)
    together = remainder_terms(KINK_1D, w, Rs)
    assert counts == {"check_remainder_hypotheses": 1, "_sign_changes": 1}
    np.testing.assert_array_equal(np.array(together), alone)


# ---------------------------------------------------------------------------
# 30-digit oracle: mpmath tanh-sinh quadrature of the explicit integrands
# ---------------------------------------------------------------------------

# (amplitude, width, centre, momentum) of a two-packet datum in n = 1
MP_PACKETS = [(1.0, 1.0, 0.3, 0.25), (0.5 - 0.7j, 0.7, -0.4, -0.1)]
MP_DATUM = packet_sum([packet(A, a, [x0], [v]) for A, a, x0, v in MP_PACKETS])


def test_flux_matches_mpmath_oracle():
    mp = pytest.importorskip("mpmath").mp
    t, eps = mp.mpf("0.8"), 1
    with mp.workdps(30):
        def u_and_ux(x):
            # A (1 + 4iat)^(-1/2) e^{-4 pi^2 i v^2 t} e^{-alpha (x - c)^2 + 2 pi i v x}
            # with alpha = a/(1 + 4iat), c = x0 + 4 pi v t, and its x-derivative
            u = ux = 0
            for A, a, x0, v in MP_PACKETS:
                A, a, x0, v = mp.mpc(A), mp.mpf(a), mp.mpf(x0), mp.mpf(v)
                g = 1 + 4j * a * t
                alpha, c = a / g, x0 + 4 * mp.pi * v * t
                term = (A / mp.sqrt(g) * mp.exp(-4j * mp.pi**2 * v**2 * t)
                        * mp.exp(-alpha * (x - c)**2 + 2j * mp.pi * v * x))
                u += term
                ux += term * (-2 * alpha * (x - c) + 2j * mp.pi * v)
            return u, ux

        def density(x):
            # psi'(|x|) du/dr = x / sqrt(eps^2 + x^2) du/dx on the line
            u, ux = u_and_ux(x)
            return mp.im(mp.conj(u) * ux) * x / mp.sqrt(eps**2 + x**2)

        exact = mp.quad(density, [-mp.inf, -8, 0, 8, mp.inf])
    got = flux(MP_DATUM, make_psi_eps(1.0), 0.8)
    assert abs(got - float(exact)) <= 1e-12 * abs(float(exact))


def test_half_norm_matches_mpmath_oracle():
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(30):
        def density(xi):
            # |xi| |fhat(xi)|^2, fhat of each packet being
            # A sqrt(pi/a) e^{-pi^2 (xi - v)^2 / a} e^{-2 pi i x0 (xi - v)}
            fhat = 0
            for A, a, x0, v in MP_PACKETS:
                A, a, x0, v = mp.mpc(A), mp.mpf(a), mp.mpf(x0), mp.mpf(v)
                fhat += (A * mp.sqrt(mp.pi / a) * mp.exp(-mp.pi**2 * (xi - v)**2 / a)
                         * mp.exp(-2j * mp.pi * x0 * (xi - v)))
            return abs(xi) * abs(fhat)**2

        exact = mp.quad(density, [-mp.inf, -1, 0, 1, mp.inf])
    got = hs_norm_sq(MP_DATUM, 0.5)
    assert abs(got - float(exact)) <= 1e-12 * abs(float(exact))
