"""Closed-form packet algebra against brute-force numerical integration."""

import numpy as np
import pytest
from scipy.integrate import quad

from smoothing_lab.errors import InvalidParameterError
from smoothing_lab.model import (WavePacket, WavePacketSum, dilate,
                                 gaussian_inner, grid_axis, l2_norm_sq,
                                 packet_sum, random_packet_suite,
                                 relative_residual, translate)


def packet_values_1d(B, a, c, v, x):
    # reference definition of a packet, written out by hand
    return B * np.exp(-a * (x - c) ** 2 + 2j * np.pi * v * x)


def numeric_inner_1d(p1, p2):
    """<p1, p2> = int conj(p1) p2 dx by quadrature on the real line."""

    def f(x, part):
        val = np.conj(
            packet_values_1d(p1.amplitude, p1.width, p1.center[0], p1.momentum[0], x)
        ) * packet_values_1d(p2.amplitude, p2.width, p2.center[0], p2.momentum[0], x)
        return val.real if part == "re" else val.imag

    re, _ = quad(f, -np.inf, np.inf, args=("re",), limit=200)
    im, _ = quad(f, -np.inf, np.inf, args=("im",), limit=200)
    return re + 1j * im


CASES_1D = [
    (WavePacket(1.0, 1.0, [0.0], [0.0]), WavePacket(1.0, 1.0, [0.0], [0.0])),
    (WavePacket(1.0, 0.7, [0.3], [0.2]), WavePacket(0.5j, 1.5, [-0.4], [-0.3])),
    (WavePacket(1.0 - 2.0j, 2.2, [1.0], [0.8]), WavePacket(0.3, 0.9, [0.2], [0.1])),
]


def pair_inner(p1, p2):
    # the Gram contraction over one-element families is a single pairing
    return gaussian_inner(
        [p1.amplitude], [p1.width], [p1.center], [p1.momentum],
        [p2.amplitude], [p2.width], [p2.center], [p2.momentum],
    )


@pytest.mark.parametrize("p1,p2", CASES_1D)
def test_gaussian_inner_matches_quadrature_1d(p1, p2):
    closed = pair_inner(p1, p2)
    numeric = numeric_inner_1d(p1, p2)
    assert abs(closed - numeric) <= 1e-10 * max(abs(numeric), 1.0)


def test_gaussian_inner_matches_quadrature_2d():
    # 2D inner products factor into per-axis 1D integrals
    p1 = WavePacket(1.0 + 0.5j, 0.8, [0.3, -0.2], [0.2, 0.4])
    p2 = WavePacket(0.7, 1.3, [-0.1, 0.5], [-0.3, 0.1])
    closed = pair_inner(p1, p2)
    numeric = np.conj(p1.amplitude) * p2.amplitude
    for ax in range(2):
        q1 = WavePacket(1.0, p1.width, [p1.center[ax]], [p1.momentum[ax]])
        q2 = WavePacket(1.0, p2.width, [p2.center[ax]], [p2.momentum[ax]])
        numeric *= numeric_inner_1d(q1, q2)
    assert abs(closed - numeric) <= 1e-10 * max(abs(numeric), 1.0)


def test_gaussian_inner_complex_width_against_quadrature():
    # complex widths appear once packets evolve; exercise the principal branch
    a1, a2 = 0.9 - 0.6j, 1.4 + 0.8j

    def vals(B, al, c, v, x):
        return B * np.exp(-al * (x - c) ** 2 + 2j * np.pi * v * x)

    def f(x, part):
        val = np.conj(vals(1.2, a1, 0.4, 0.3, x)) * vals(0.8j, a2, -0.2, -0.5, x)
        return val.real if part == "re" else val.imag

    re, _ = quad(f, -np.inf, np.inf, args=("re",), limit=200)
    im, _ = quad(f, -np.inf, np.inf, args=("im",), limit=200)
    closed = gaussian_inner([1.2], [a1], [[0.4]], [[0.3]],
                            [0.8j], [a2], [[-0.2]], [[-0.5]])
    assert abs(closed - (re + 1j * im)) <= 1e-10


def test_l2_norm_single_packet_closed_form():
    for n in (1, 2, 3):
        for a in (0.5, 1.0, 3.0):
            f = packet_sum([WavePacket(1.5 - 0.5j, a, np.zeros(n), 0.3 * np.ones(n))])
            expect = abs(1.5 - 0.5j) ** 2 * (np.pi / (2 * a)) ** (n / 2)
            assert l2_norm_sq(f) == pytest.approx(expect, rel=1e-13)


def test_l2_norm_interference():
    p1 = WavePacket(1.0, 1.0, [0.0], [0.0])
    p2 = WavePacket(1.0, 1.0, [0.0], [0.5])
    f = WavePacketSum(1, (p1, p2))
    numeric = (
        numeric_inner_1d(p1, p1).real
        + numeric_inner_1d(p2, p2).real
        + 2 * numeric_inner_1d(p1, p2).real
    )
    assert l2_norm_sq(f) == pytest.approx(numeric, rel=1e-12)


def test_translate_preserves_norm_and_matches_shift():
    f = packet_sum([
        WavePacket(1.0, 1.0, [0.2], [0.3]),
        WavePacket(0.5j, 1.5, [-0.4], [-0.2]),
    ])
    g = translate(f, [0.7])
    assert l2_norm_sq(g) == pytest.approx(l2_norm_sq(f), rel=1e-13)
    # pointwise: g(x) = f(x - h)
    x = np.linspace(-3, 3, 11)
    fv = sum(packet_values_1d(p.amplitude, p.width, p.center[0], p.momentum[0], x - 0.7)
             for p in f.packets)
    gv = sum(packet_values_1d(p.amplitude, p.width, p.center[0], p.momentum[0], x)
             for p in g.packets)
    np.testing.assert_allclose(gv, fv, rtol=0, atol=1e-13)


def test_dilate_norm_scaling():
    # f(lam x) has L2 norm lam^{-n/2} times the original
    f = packet_sum([WavePacket(1.0, 0.8, [0.3, -0.2], [0.2, 0.1]),
                    WavePacket(0.4j, 1.2, [-0.1, 0.4], [-0.3, 0.2])])
    lam = 1.7
    assert l2_norm_sq(dilate(f, lam)) == pytest.approx(
        lam ** (-f.n) * l2_norm_sq(f), rel=1e-12)
    with pytest.raises(InvalidParameterError):
        dilate(f, 0.0)


def test_packet_validation():
    with pytest.raises(InvalidParameterError):
        WavePacket(1.0, -0.5, [0.0], [0.0])
    with pytest.raises(InvalidParameterError):
        WavePacket(1.0, 1.0, [0.0, 0.0], [0.0])
    with pytest.raises(InvalidParameterError):
        WavePacketSum(2, (WavePacket(1.0, 1.0, [0.0], [0.0]),))


def test_packet_sum_parameter_arrays():
    f = packet_sum([WavePacket(1.0, 1.0, [0.1], [0.2]),
                    WavePacket(2.0j, 0.5, [0.3], [0.4])])
    assert f.B.shape == (2,) and np.iscomplexobj(f.B)
    np.testing.assert_allclose(f.alpha, [1.0, 0.5])
    assert f.c.shape == (2, 1) and f.v.shape == (2, 1)
    for arr in (f.B, f.alpha, f.c, f.v):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    empty = packet_sum([], n=3)
    assert empty.B.shape == empty.alpha.shape == (0,)
    assert empty.c.shape == empty.v.shape == (0, 3)


def test_relative_residual_floor():
    assert relative_residual(1.0, 1.0 + 1e-9, floor=0.0) == pytest.approx(1e-9, rel=1e-3)
    # floor takes over when both sides are tiny
    assert relative_residual(1e-12, 0.0, floor=1.0) == pytest.approx(1e-12)
    assert relative_residual(0.0, 0.0, floor=0.0) == 0.0


def test_random_packet_suite_deterministic():
    s1 = random_packet_suite(2, count=3, seed=7)
    s2 = random_packet_suite(2, count=3, seed=7)
    assert len(s1) == 3
    for f, g in zip(s1, s2):
        assert f.n == 2 and len(f) == 2
        for p, q in zip(f.packets, g.packets):
            assert p.amplitude == q.amplitude
            assert np.all(p.center == q.center)
        for p in f.packets:
            assert 0.6 <= p.width <= 1.8
            assert 0.5 <= abs(p.amplitude) <= 1.2
            assert np.all(np.abs(p.momentum) <= 0.5)


def test_grid_axis_symmetric():
    x = grid_axis(4.0, 8)
    assert x[0] == -4.0
    assert x[len(x) // 2] == 0.0
    assert np.allclose(np.diff(x), 1.0)
