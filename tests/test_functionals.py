"""Space-time functional tests.

Oracles: a centered zero-momentum Gaussian evolves to B(t) e^{-alpha(t) x^2}
with alpha(t) = a/(1 + 4iat), so the truncated gradient integral has an erf
closed form and the profile reduces to one scipy quad call in time.  The
flux oracles are a trapezoid sum of the spectral representation on a wide
grid and the grid route: sampled fields with an FFT gradient.  The whole-line identity ties the three signed pieces to
2 pi psi'(inf) ||f||^2_{H^{1/2}}, which exercises every coefficient slot at
once.
"""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from smoothing_lab.errors import (InvalidWeightError, ToleranceNotMetError)
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
from smoothing_lab.model import (RadialWeight, gaussian_inner, packet,
                                 packet_sum, random_packet_suite)
from smoothing_lab.propagator import (difference_state, dispersive_approx,
                                      evolve_analytic)
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


def grid_flux(f, w, t, L, N):
    """Im sum conj(u) psi'(r)/r (x . grad u) dx^n on the sampled field, with
    the gradient taken spectrally; the second value is the field's
    boundary mass fraction."""
    g = sample_datum(f, L, N, t)
    ax = g.axis()
    xs = np.meshgrid(*([ax] * f.n), indexing="ij")
    r = np.sqrt(sum(x * x for x in xs))
    xi = np.fft.fftfreq(N, d=g.dx)
    xi[N // 2] = 0.0  # the Nyquist mode has no odd derivative
    uhat = np.fft.fftn(g.samples)
    radial = np.zeros_like(g.samples)
    for d, x in enumerate(xs):
        shape = [1] * f.n
        shape[d] = N
        radial += x * np.fft.ifftn(2j * np.pi * xi.reshape(shape) * uhat)
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

def test_whole_line_identity_1d():
    w = make_psi_k(2)
    radial = weighted_radial_energy(ODD_1D, w)
    tan, bil = morawetz_remainder_split(ODD_1D, w)
    assert tan == 0.0
    lhs = radial + tan - 0.25 * bil
    rhs = 2.0 * np.pi * w.slope_inf * hs_norm_sq(ODD_1D, 0.5)
    assert lhs == pytest.approx(rhs, rel=1e-6)


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
