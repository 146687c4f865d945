"""Weight families: closed forms, derivative stacks, hypothesis gates."""

import dataclasses
import warnings

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from scipy.integrate import quad

from smoothing_lab.errors import (InvalidParameterError, InvalidWeightError,
                                  OriginError)
from smoothing_lab.functionals import check_remainder_hypotheses
from smoothing_lab import weights
from smoothing_lab.model import RadialWeight
from smoothing_lab.weights import (bump_transition, constant_weight,
                                   make_psi_eps, make_psi_k,
                                   radial_laplacians, rescale)
from weight_checks import derivative_stack_check

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


@pytest.mark.parametrize("k", [2.5, np.nan, np.inf])
def test_psi_k_rejects_index_that_is_not_an_integer(k):
    # k is not truncated: 2.5 must not run as 2
    with pytest.raises(InvalidParameterError, match="integer >= 1"):
        make_psi_k(k)


def test_psi_k_accepts_integral_index_of_any_type():
    for k in (2.0, np.int64(2), np.float64(2.0)):
        assert make_psi_k(k).label == "bump-k2"


def test_psi_eps_rejects_infinite_eps():
    # an infinite eps would give psi' = 0 everywhere
    with pytest.raises(InvalidParameterError, match="finite and positive"):
        make_psi_eps(np.inf)


@pytest.mark.parametrize("eps", [1e-200, 1e-150, 1e-45, 1e77, 1e100])
def test_psi_eps_rejects_eps_whose_derivatives_break_at_origin(eps):
    # eps = 1e-200 gave d2 = [nan, nan, 0] at r = [0, 1e-201, 1], as eps^2
    # underflows; eps = 1e-150 gave d3(0) = nan, as (eps^2)^(7/2) does;
    # eps = 1e77 gives d4(0) = nan, as -3 eps^4 overflows
    with pytest.raises(InvalidParameterError, match="finite and positive"):
        make_psi_eps(eps)


@pytest.mark.parametrize("edge", [0, 1])
def test_psi_eps_derivatives_finite_across_accepted_range(edge):
    eps = float(weights._EPS_RANGE[edge])
    w = make_psi_eps(eps)
    r = np.array([0.0, 0.1 * eps, 1.0])
    # past eps = 8.9e43, eps^7 in d4's denominator overflows and flushes d4
    # to -0, its true value -3/eps^3 to within underflow
    with np.errstate(over="ignore"):
        for j in range(5):
            assert np.all(np.isfinite(getattr(w, f"d{j}")(r))), j
    assert w.d2(0.0) == pytest.approx(1.0 / eps, rel=1e-14)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_constant_weight_rejects_non_finite_value(value):
    # constant_weight(nan) built "constantnan" with d0 = nan everywhere
    with pytest.raises(InvalidParameterError, match="finite"):
        constant_weight(value)


def test_rescale_rejects_infinite_factor():
    # an infinite factor would give psi'' = 0 everywhere
    with pytest.raises(InvalidParameterError, match="finite and positive"):
        rescale(make_psi_eps(1.0), np.inf)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_psi_k_nan_radius_gives_nan(k):
    # a NaN radius fails the core and tail tests, so it reaches the band
    # tables, which must carry it through instead of indexing a panel by it
    w = make_psi_k(k)
    r = np.array([0.5, 1.0 + 0.5 / k, 3.0, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in range(5):
            vals = getattr(w, f"d{order}")(r)
            assert np.all(np.isfinite(vals[:-1])), order
            assert np.isnan(vals[-1]), order
        for order in range(3):
            assert np.isnan(bump_transition(np.nan, order))
            assert np.isnan(bump_transition(r - 1.0, order)[-1])


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
    for j in range(5):
        dR, d = getattr(wR, f"d{j}")(r), getattr(w, f"d{j}")(r / R)
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


LAPLACIAN_WEIGHTS = [make_psi_eps(0.8), make_psi_k(2), rescale(make_psi_k(1), 4.0)]


@pytest.mark.parametrize("w", LAPLACIAN_WEIGHTS, ids=lambda w: w.label)
def test_radial_laplacians_read_only_what_the_dimension_needs(w):
    # n = 1 returns (psi'', psi'''') bit for bit and never calls d1 or d3
    calls = []

    def spy(j):
        inner = getattr(w, f"d{j}")

        def dj(r):
            calls.append(j)
            return inner(r)
        return dj

    watched = dataclasses.replace(w, d1=spy(1), d3=spy(3))
    r = np.geomspace(0.01, 40.0, 301)
    lap, bilap = radial_laplacians(watched, r, 1)
    np.testing.assert_array_equal(lap, w.d2(r))
    np.testing.assert_array_equal(bilap, w.d4(r))
    assert calls == []
    # n = 2, 3: the full formulas, every term included
    d1, d2, d3, d4 = (getattr(w, f"d{j}")(r) for j in range(1, 5))
    for n in (2, 3):
        lap, bilap = radial_laplacians(watched, r, n)
        np.testing.assert_array_equal(lap, d2 + (n - 1) * d1 / r)
        np.testing.assert_array_equal(
            bilap, d4 + 2.0 * (n - 1) * d3 / r + (n - 1) * (n - 3) * (d2 - d1 / r) / r**2)


def test_trimmed_bump_tables_match_untrimmed_series():
    # the untrimmed tables, rebuilt: q interpolated at degree _DEGREE on
    # each panel, integrated twice, each panel's constant chained on
    P = weights._PANELS
    half = 0.5 / P
    coef = np.stack([chebyshev.chebinterpolate(
        lambda x, m=m: bump_transition(m + half * x), weights._DEGREE)
        for m in (np.arange(P) + 0.5) / P], axis=1)
    tables = []
    for _ in range(2):
        coef = chebyshev.chebint(coef, lbnd=-1.0, scl=half)
        coef[0] += np.concatenate([[0.0], np.cumsum(chebyshev.chebval(1.0, coef))[:-1]])
        tables.append(coef)
    tab = weights._BUMP_TABLES
    assert tab.Q_coef.shape[0] < 16 and tab.Q2_coef.shape[0] < 16
    s = np.linspace(0.0, 1.0, 20001)
    for trimmed, full, total in ((tab.Q_coef, tables[0], tab.q_total),
                                 (tab.Q2_coef, tables[1], tab.Q2_total)):
        assert full.shape[0] > 40
        gap = np.abs(tab._eval(trimmed, s) - tab._eval(full, s))
        assert gap.max() <= 2 * np.spacing(total)


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
