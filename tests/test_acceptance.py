"""Acceptance gate: nine checks, one test per claim the package verifies.

Every tolerance is written literally at its assertion site.  Oracles are
independent of the code under test: closed-form transforms, scipy
quadrature of explicit integrands, and exact symmetry relations.  The
matrix in the first check (5 randomized data x 3 weights x 2 horizons x
2 dimensions) is fixed by seed, so failures reproduce bit for bit.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from smoothing_lab.functionals import flux, smoothing_profile
from smoothing_lab.limits import (verify_asymptotics, verify_corollary,
                                  verify_identity, verify_remainder_decay,
                                  verify_sandwich, verify_theorem_main)
from smoothing_lab.model import (dilate, gaussian_inner, packet, packet_sum,
                                 random_packet_suite)
from smoothing_lab.propagator import evolve_analytic
from smoothing_lab.spectral import (evolve_spectral, forward_transform,
                                    grid_l2_sq, hs_norm_sq, rel_l2_diff,
                                    sample_datum, sample_state)
from smoothing_lab.weights import make_psi_eps, make_psi_k, rescale
from weight_checks import derivative_stack_check

UNIT_GAUSSIAN = packet_sum([packet(1.0, 1.0, [0.0])])

F_1D = packet_sum([
    packet(1.0, 1.0, [0.2], [0.3]),
    packet(0.5j, 1.5, [-0.4], [-0.2]),
])
F_2D = packet_sum([
    packet(1.0, 1.0, [0.3, -0.2], [0.25, 0.1]),
    packet(0.5j, 1.5, [-0.4, 0.1], [-0.2, -0.15]),
])
REAL_1D = packet_sum([packet(1.0, 1.0, [0.4]), packet(0.7, 1.6, [-0.3])])


def weight_trio():
    w2 = make_psi_k(2)
    return [make_psi_eps(1.0), w2, rescale(w2, 4.0)]


def half_derivative_target() -> float:
    # independent oracle: 2 pi int |xi| |fhat|^2 dxi for the unit Gaussian,
    # whose transform is sqrt(pi) e^{-pi^2 xi^2}; the value is exactly 1
    val, _ = quad(lambda xi: xi * np.pi * np.exp(-2.0 * np.pi**2 * xi**2),
                  0.0, np.inf, epsabs=1e-14)
    return 2.0 * (2.0 * np.pi) * val


def state_mass(st) -> float:
    return gaussian_inner(st.B, st.alpha, st.c, st.v,
                          st.B, st.alpha, st.c, st.v).real


def test_criterion_01_finite_horizon_identity():
    worst = 0.0
    for dim, seed in ((1, 11), (2, 12)):
        for f in random_packet_suite(dim, count=5, seed=seed):
            for w in weight_trio():
                report = verify_identity(f, w, [0.5, 2.0], tolerance=1e-6)
                worst = max(worst, float(report.rel_residual.max()))
                assert report.passed, (
                    f"identity failed: n={dim} weight={w.label} "
                    f"residuals={report.rel_residual}"
                )
    assert worst <= 1e-6


def test_criterion_02_horizon_limit_reaches_half_derivative_norm():
    target = half_derivative_target()
    assert target == pytest.approx(1.0, abs=1e-10)
    report = verify_theorem_main(UNIT_GAUSSIAN, make_psi_eps(1.0),
                                 [1.0, 2.0, 4.0, 8.0, 16.0], tolerance=0.02)
    assert report.passed
    assert abs(report.extrapolated_limit - target) <= 0.02 * target


def test_criterion_03_radius_limit_of_ball_profile():
    target = half_derivative_target()
    report = verify_corollary(UNIT_GAUSSIAN, [4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
                              tolerance=0.02)
    assert report.passed
    assert abs(report.extrapolated_limit - target) <= 0.02 * target
    assert max(report.extra["smoothing_profile"]) >= 0.98 * target


def test_criterion_04_flux_saturates_at_large_times():
    target = half_derivative_target()
    w = make_psi_eps(1.0)
    assert abs(flux(UNIT_GAUSSIAN, w, 64.0) - target) <= 0.02 * target
    assert abs(flux(UNIT_GAUSSIAN, w, -64.0) + target) <= 0.02 * target


def test_criterion_05_dispersive_error_decays():
    ts = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    for dim, seed in ((1, 21), (2, 22)):
        for f in random_packet_suite(dim, count=3, seed=seed):
            report = verify_asymptotics(f, ts, final_ratio=0.1)
            assert report.passed
            assert np.all(np.diff(report.lhs) < 0)
            assert report.lhs[-1] <= 0.1 * report.lhs[0]


def test_criterion_06_grid_propagator_cross_oracle():
    boxes = [
        (F_1D, 80.0, 8192, (0.1, 0.7, 2.0)),
        (F_2D, 24.0, 512, (0.1, 0.7)),
        (F_2D, 84.0, 1024, (2.0,)),
    ]
    for f, L, N, ts in boxes:
        g0 = sample_datum(f, L, N)
        for t in ts:
            moved = evolve_spectral(g0, t)
            exact = sample_state(evolve_analytic(f, t), L, N)
            err = rel_l2_diff(moved, exact)
            assert err <= 1e-8, f"n={f.n} L={L} N={N} t={t}: {err}"


def test_criterion_07_invariant_suite():
    # unitarity, analytic and grid paths
    mass0 = state_mass(evolve_analytic(F_1D, 0.0))
    for t in (0.5, 3.0):
        assert abs(state_mass(evolve_analytic(F_1D, t)) - mass0) <= 1e-13 * mass0
    g = sample_datum(F_1D, L=48.0, N=2048)
    assert abs(grid_l2_sq(evolve_spectral(g, 0.6)) - grid_l2_sq(g)) \
        <= 1e-13 * grid_l2_sq(g)

    # evolution group law on the grid
    one = evolve_spectral(evolve_spectral(g, 0.4), 0.35)
    two = evolve_spectral(g, 0.75)
    assert rel_l2_diff(one, two) <= 1e-12

    # time reversal for a real datum: u(-t) = conj(u(t))
    x = np.linspace(-3.0, 3.0, 7)[:, None]
    fwd = evolve_analytic(REAL_1D, 0.8).values(x)
    bwd = evolve_analytic(REAL_1D, -0.8).values(x)
    assert np.max(np.abs(bwd - np.conj(fwd))) <= 1e-12
    gr = sample_datum(REAL_1D, L=48.0, N=2048)
    rev = evolve_spectral(gr, -0.5)
    fwdg = evolve_spectral(gr, 0.5)
    diff = np.max(np.abs(rev.samples - np.conj(fwdg.samples)))
    assert diff <= 1e-12 * np.max(np.abs(gr.samples))

    # parabolic scaling, pointwise on the solution ...
    lam = 2.0
    small = dilate(F_1D, lam)
    lhs = evolve_analytic(small, 0.3).values(x)
    rhs = evolve_analytic(F_1D, lam**2 * 0.3).values(lam * x)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12

    # ... and on the ball profile, with mass-preserving normalization
    def norm_dilate(f, s):
        g2 = dilate(f, s)
        return packet_sum([packet(s ** (f.n / 2.0) * p.amplitude, p.width,
                                  p.center, p.momentum) for p in g2.packets],
                          n=f.n)

    for f, s, R in ((F_1D, 2.0, 2.0), (F_2D, 1.5, 2.0)):
        left = smoothing_profile(norm_dilate(f, s), R)
        right = s * smoothing_profile(f, s * R)
        assert abs(left - right) <= 1e-6 * abs(right), f"n={f.n}"

    # weight derivative stacks against central differences
    for w in weight_trio():
        for order, err in derivative_stack_check(w).items():
            assert err <= 1e-5, f"{w.label} order {order}: {err}"

    # discrete Plancherel
    g16 = sample_datum(F_1D, L=16.0, N=512)
    sf = forward_transform(g16)
    spec_mass = float((np.abs(sf.values) ** 2).sum() * sf.dxi)
    assert abs(spec_mass - grid_l2_sq(g16)) <= 1e-12 * grid_l2_sq(g16)

    # half-derivative norm of the unit-mass Gaussian is width independent
    for a in (0.5, 1.0, 3.0):
        f = packet_sum([packet(1.0, a, [0.0])])
        val = hs_norm_sq(f, 0.5)
        assert abs(val - 1.0 / (2.0 * np.pi)) <= 1e-8 / (2.0 * np.pi)


def test_criterion_08_three_term_sandwich():
    for k in (1, 4):
        report = verify_sandwich(UNIT_GAUSSIAN, k, [4.0, 8.0, 16.0, 32.0],
                                 tolerance=1e-3)
        assert report.passed, report.notes
        assert report.extra["bracket_ok"]
        assert report.extra["ratio"] <= (k + 1.0) / k + 1e-3


def test_criterion_09_remainders_shrink_with_radius():
    report = verify_remainder_decay(F_2D, make_psi_k(2), [4.0, 64.0],
                                    decay_ratio=0.25)
    assert report.passed
    tans, bils = report.lhs, report.rhs
    assert tans[-1] <= 0.25 * tans[0]
    assert bils[-1] <= 0.25 * bils[0]
