"""Weight families: closed forms, derivative stacks, hypothesis gates."""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from smoothing_lab.errors import InvalidWeightError, OriginError
from smoothing_lab.functionals import check_remainder_hypotheses
from smoothing_lab.model import RadialWeight
from smoothing_lab.weights import (bump_transition, constant_weight,
                                   derivative_stack_check, make_psi_eps,
                                   make_psi_k, radial_laplacians, rescale)

R_GRID = np.geomspace(0.05, 30.0, 40)


def test_psi_eps_closed_forms():
    eps = 0.7
    w = make_psi_eps(eps)
    r = R_GRID
    root = np.sqrt(eps**2 + r**2)
    np.testing.assert_allclose(w.d0(r), root, rtol=1e-14)
    np.testing.assert_allclose(w.d1(r), r / root, rtol=1e-14)
    np.testing.assert_allclose(w.d2(r), eps**2 / root**3, rtol=1e-14)
    np.testing.assert_allclose(w.d3(r), -3 * eps**2 * r / root**5, rtol=1e-14)
    np.testing.assert_allclose(
        w.d4(r), 3 * eps**2 * (4 * r**2 - eps**2) / root**7, rtol=1e-13)
    assert w.slope_inf == 1.0


def test_psi_k_core_and_tail():
    for k in (1, 2, 4):
        w = make_psi_k(k)
        inner = np.linspace(0.05, 0.95, 9)
        np.testing.assert_allclose(w.d0(inner), inner**2 / 2, rtol=1e-14)
        np.testing.assert_allclose(w.d1(inner), inner, rtol=1e-14)
        np.testing.assert_allclose(w.d2(inner), np.ones_like(inner), rtol=1e-14)
        assert np.all(w.d3(inner) == 0.0) and np.all(w.d4(inner) == 0.0)
        outer = np.linspace((k + 1) / k + 0.01, 8.0, 9)
        np.testing.assert_allclose(w.d1(outer), w.slope_inf, rtol=1e-14)
        assert np.all(w.d2(outer) == 0.0)
        # affine tail: psi = slope * r + offset with the offset fixed by C1 glue
        trans = np.linspace(1.0, (k + 1) / k, 200)
        assert np.all(w.d2(trans) >= -1e-15)


def test_psi_k_slope_matches_transition_integral():
    # psi'' falls from 1 to 0 across [1, (k+1)/k]; integrating it gives the slope
    for k in (1, 2, 4):
        w = make_psi_k(k)
        gain, _ = quad(w.d2, 1.0, (k + 1) / k, limit=200)
        assert w.slope_inf == pytest.approx(1.0 + gain, rel=1e-10)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_psi_k_tables_match_quad_oracle(k):
    # psi' = 1 + int_1^r psi'' and psi = 1/2 + int_1^r psi' across the band,
    # by adaptive quadrature that never sees the Chebyshev tables of psi''
    w = make_psi_k(k)
    outer = (k + 1) / k
    for r in np.linspace(1.0, outer, 25):
        d1_ref = 1.0 + quad(w.d2, 1.0, r, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        d0_ref = 0.5 + quad(w.d1, 1.0, r, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        assert abs(float(w.d1(r)) - d1_ref) <= 1e-13
        assert abs(float(w.d0(r)) - d0_ref) <= 1e-13
    # q(s) + q(1 - s) = 1 makes int_0^1 q = 1/2 exactly
    assert abs(w.slope_inf - (1.0 + 0.5 / k)) <= 1e-15
    assert abs(float(w.d1(np.nextafter(outer, 0.0))) - float(w.d1(outer))) <= 1e-15


@pytest.mark.parametrize("s", [1e-300, 1e-160, 1e-80])
def test_bump_transition_derivatives_vanish_where_exp_underflows(s):
    # exp(-1/s) and the power of s in q' = ...B/s^2 and q'' = ...B/s^4 both
    # underflow here; the quotient is 0, not 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bump_transition(s) == 1.0
        assert bump_transition(s, 1) == 0.0
        assert bump_transition(s, 2) == 0.0


@pytest.mark.parametrize("w", [
    make_psi_eps(0.5), make_psi_eps(1.0), make_psi_eps(2.0),
    make_psi_k(1), make_psi_k(2), make_psi_k(4),
    rescale(make_psi_eps(1.0), 4.0), rescale(make_psi_k(2), 4.0),
])
def test_derivative_stacks_consistent(w):
    errs = derivative_stack_check(w)
    for order, err in errs.items():
        assert err <= 1e-5, f"{w.label} order {order}: {err}"


def test_rescale_pointwise():
    # psi_R(r) = R psi(r/R) so the j-th derivative picks up R^(1-j)
    w = make_psi_eps(1.0)
    R = 4.0
    wR = rescale(w, R)
    r = R_GRID
    for j, (dR, d) in enumerate(zip(wR.stack(r), w.stack(r / R))):
        np.testing.assert_allclose(dR, R ** (1 - j) * d, rtol=1e-13)
    assert wR.slope_inf == w.slope_inf
    np.testing.assert_allclose(wR.knots, [R * k for k in w.knots])


def test_constant_weight():
    w = constant_weight(2.5)
    r = R_GRID
    np.testing.assert_allclose(w.d0(r), 2.5 * np.ones_like(r))
    assert np.all(w.d1(r) == 0.0)
    assert w.slope_inf == 0.0


def test_radial_laplacians_against_finite_differences():
    # Lap psi and Lap^2 psi for radial psi, checked with centered stencils
    # on the scalar function g(x) = psi(|x|) along a generic direction
    w = make_psi_eps(0.8)
    h = 1e-3
    for n in (1, 2, 3):
        direction = np.ones(n) / np.sqrt(n)
        for r0 in (0.5, 1.7, 6.0):
            lap, bilap = radial_laplacians(w, np.array([r0]), n)
            # radial FD for the Laplacian: psi'' + (n-1) psi'/r
            fd_lap = (
                (w.d0(r0 + h) - 2 * w.d0(r0) + w.d0(r0 - h)) / h**2
                + (n - 1) * (w.d0(r0 + h) - w.d0(r0 - h)) / (2 * h * r0)
            )
            assert lap[0] == pytest.approx(fd_lap, rel=1e-5)
            # bilaplacian via FD of the analytic Laplacian profile
            def lap_profile(r):
                val, _ = radial_laplacians(w, np.atleast_1d(r), n)
                return val[0]
            fd_bilap = (
                (lap_profile(r0 + h) - 2 * lap_profile(r0) + lap_profile(r0 - h)) / h**2
                + (n - 1) * (lap_profile(r0 + h) - lap_profile(r0 - h)) / (2 * h * r0)
            )
            assert bilap[0] == pytest.approx(fd_bilap, rel=1e-4, abs=1e-9)


def test_radial_laplacians_origin_guard():
    w = make_psi_eps(1.0)
    with pytest.raises(OriginError):
        radial_laplacians(w, np.array([0.0]), 2)
    with pytest.raises(OriginError):
        radial_laplacians(w, np.array([-1.0]), 2)


def test_remainder_hypotheses_accept_standard_weights():
    for w in (make_psi_eps(1.0), make_psi_k(2), rescale(make_psi_k(2), 8.0)):
        check_remainder_hypotheses(w, 2)


def test_remainder_hypotheses_reject_growing_slope():
    # psi = r^2/2 everywhere: unbounded slope, constant (non-decaying) bilaplacian
    bad = RadialWeight(
        d0=lambda r: r**2 / 2, d1=lambda r: np.asarray(r, dtype=float),
        d2=lambda r: np.ones_like(r), d3=lambda r: np.zeros_like(r),
        d4=lambda r: np.zeros_like(r), slope_inf=np.inf, label="parabola",
    )
    with pytest.raises(InvalidWeightError):
        check_remainder_hypotheses(bad, 2)


def test_remainder_hypotheses_reject_slow_bilaplacian_decay():
    # bounded slope but |Lap^2 psi| ~ 1/r misses the cubic decay requirement
    bad = RadialWeight(
        d0=lambda r: np.asarray(r, dtype=float), d1=lambda r: np.ones_like(r),
        d2=lambda r: np.zeros_like(r), d3=lambda r: np.zeros_like(r),
        d4=lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float)),
        slope_inf=1.0, label="slow-tail",
    )
    with pytest.raises(InvalidWeightError):
        check_remainder_hypotheses(bad, 2)
