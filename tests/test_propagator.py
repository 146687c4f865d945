"""Closed-form evolution against a direct Fourier-integral oracle.

The oracle never touches the package's algebra: it evaluates the
defining integrals

    fhat(xi) = int f(x) e^{-2 pi i x xi} dx
    u(t, x)  = int fhat(xi) e^{-4 pi^2 i |xi|^2 t} e^{2 pi i x xi} dxi

as plain trapezoid sums on wide fine lattices.  For these analytic,
rapidly decaying integrands the trapezoid rule is accurate to far below
the asserted tolerances (aliasing images sit 60+ units away).
"""

import numpy as np
import pytest

from smoothing_lab.errors import InvalidParameterError
from smoothing_lab.model import (WavePacket, gaussian_inner, l2_norm_sq,
                                 packet_sum, random_packet_suite)
from smoothing_lab.propagator import (GaussianState, _evolve_times,
                                      difference_state, dispersive_approx,
                                      evolve_analytic, fourier_state)
from smoothing_lab.quadrature import _GK21

F_1D = packet_sum([WavePacket(1.0, 1.0, [0.2], [0.3]),
                   WavePacket(0.5j, 1.5, [-0.4], [-0.2])])

_HX = 1.0 / 64
_X_NODES = np.arange(-16.0, 16.0, _HX)
_HXI = 1.0 / 64
_XI_NODES = np.arange(-12.0, 12.0, _HXI)


def datum_values(f, x):
    x = np.asarray(x, dtype=float)
    total = np.zeros(x.shape, dtype=complex)
    for p in f.packets:
        total += p.amplitude * np.exp(
            -p.width * (x - p.center[0]) ** 2 + 2j * np.pi * p.momentum[0] * x)
    return total


def oracle_transform(f, xi):
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    kernel = np.exp(-2j * np.pi * np.outer(xi, _X_NODES))
    return kernel @ datum_values(f, _X_NODES) * _HX


def oracle_evolution(f, t, x):
    fhat = oracle_transform(f, _XI_NODES)
    phase = np.exp(-4j * np.pi**2 * _XI_NODES**2 * t
                   + 2j * np.pi * x * _XI_NODES)
    return np.sum(fhat * phase) * _HXI


def test_time_zero_state_matches_definition():
    st = evolve_analytic(F_1D, 0.0)
    x = np.linspace(-3.0, 3.0, 17)[:, None]
    np.testing.assert_allclose(st.values(x), datum_values(F_1D, x[:, 0]),
                               rtol=0, atol=1e-14)
    assert st.t == 0.0


@pytest.mark.parametrize("t", [0.15, 0.9])
def test_evolve_analytic_against_fourier_oracle(t):
    st = evolve_analytic(F_1D, t)
    assert st.t == t
    for x in (-1.3, 0.0, 0.7, 2.1):
        expect = oracle_evolution(F_1D, t, x)
        got = st.values(np.array([[x]]))[0]
        assert abs(got - expect) <= 1e-9


def test_fourier_state_against_oracle():
    sh = fourier_state(F_1D)
    for xi in (-1.0, -0.2, 0.0, 0.4, 1.5):
        expect = oracle_transform(F_1D, xi)[0]
        got = sh.values(np.array([[xi]]))[0]
        assert abs(got - expect) <= 1e-10


def test_fourier_state_plancherel():
    sh = fourier_state(F_1D)
    assert sh.mass().real == pytest.approx(l2_norm_sq(F_1D), rel=1e-12)


def test_mass_conserved_under_evolution():
    base = l2_norm_sq(F_1D)
    for t in (-2.0, 0.4, 7.0):
        assert evolve_analytic(F_1D, t).mass().real == pytest.approx(base, rel=1e-13)


def test_time_reversal():
    # u(-t; f) = conj(u(t; conj-datum)), conj-datum flipping momenta
    f_conj = packet_sum([
        WavePacket(np.conj(p.amplitude), p.width, p.center, -p.momentum)
        for p in F_1D.packets
    ])
    x = np.linspace(-4.0, 4.0, 23)[:, None]
    a = evolve_analytic(F_1D, -0.8).values(x)
    b = np.conj(evolve_analytic(f_conj, 0.8).values(x))
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("t", [0.7, 5.0, -3.0])
def test_dispersive_approx_against_direct_formula(t):
    # stationary-phase form, assembled from the numerically transformed datum
    st = dispersive_approx(F_1D, t)
    for x in (-2.0, 0.3, 4.0):
        fhat = oracle_transform(F_1D, x / (4 * np.pi * t))[0]
        expect = (
            np.exp(-1j * np.sign(t) * np.pi / 4)
            * (4 * np.pi * abs(t)) ** -0.5
            * np.exp(1j * x**2 / (4 * t))
            * fhat
        )
        got = st.values(np.array([[x]]))[0]
        assert abs(got - expect) <= 1e-10 * max(abs(expect), 1.0)


def test_dispersive_approx_rejects_t_zero():
    with pytest.raises(InvalidParameterError):
        dispersive_approx(F_1D, 0.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_evolve_analytic_rejects_non_finite_time(t):
    with pytest.raises(InvalidParameterError, match="t must be finite"):
        evolve_analytic(F_1D, t)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_dispersive_approx_rejects_non_finite_time(t):
    # rejected before any arithmetic, so no RuntimeWarning comes first
    with pytest.raises(InvalidParameterError, match="t must be finite"):
        dispersive_approx(F_1D, t)


def test_difference_state_mass_expansion():
    a = evolve_analytic(F_1D, 1.3)
    b = dispersive_approx(F_1D, 1.3)
    d = difference_state(a, b)
    ab = gaussian_inner(a.B, a.alpha, a.c, a.v, b.B, b.alpha, b.c, b.v)
    expect = a.mass() + b.mass() - 2 * ab.real
    assert d.mass().real == pytest.approx(expect.real, rel=1e-12)


def test_dispersive_error_decays_like_inverse_time():
    errs = []
    for t in (4.0, 16.0, 64.0):
        d = difference_state(evolve_analytic(F_1D, t), dispersive_approx(F_1D, t))
        errs.append(np.sqrt(max(d.mass().real, 0.0)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_gaussian_state_validation():
    with pytest.raises(InvalidParameterError):
        GaussianState(1, np.array([1.0 + 0j]), np.array([-0.1 + 1j]),
                      np.zeros((1, 1)), np.zeros((1, 1)))


@pytest.mark.parametrize("n,alpha,c", [
    (1, [1.0], [0.0, 0.0]),  # one width for two amplitudes
    (2, [1.0, 1.0], [0.0, 0.0, 0.0]),  # three centre coordinates for 2 x 2
])
def test_gaussian_state_rejects_packet_arrays_that_disagree(n, alpha, c):
    v = np.zeros(2 * n)
    with pytest.raises(InvalidParameterError, match="packet arrays disagree"):
        GaussianState(n, [1.0, 2.0], alpha, c, v)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["t", "B", "alpha", "c", "v"])
def test_gaussian_state_rejects_values_that_are_not_finite(name, bad):
    fields = {"B": [1.0], "alpha": [1.0], "c": [0.0], "v": [0.0], "t": 0.0}
    fields[name] = bad if name == "t" else [bad + (1.0 if name == "alpha" else 0.0)]
    with pytest.raises(InvalidParameterError, match="must be finite"):
        GaussianState(1, **fields)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("packets", [1, 2, 3, 4, 5])
def test_evolved_rows_equal_one_time_states_bit_for_bit(n, packets):
    # at one time and at the 21 nodes of a time panel, each row of the
    # stacked evolution is the state evolve_analytic builds at that time
    nodes = 0.4 + 1.7 * _GK21[0]
    for f in random_packet_suite(n, 2, packets, seed=30 + packets, center_scale=2.0):
        for ts in (nodes[:1], nodes):
            B, alpha, c, v, t = _evolve_times(f, ts)
            assert B.shape == alpha.shape == (len(ts), packets)
            assert c.shape == v.shape == (len(ts), packets, n)
            assert same_bits(t, ts)
            for k in range(len(ts)):
                st = evolve_analytic(f, ts[k])
                for row, name in ((B, "B"), (alpha, "alpha"), (c, "c"), (v, "v")):
                    assert same_bits(row[k], getattr(st, name)), (name, ts[k])


def test_gaussian_state_neither_freezes_nor_follows_caller_arrays():
    base = np.array([1.0 + 0.5j, 2.0])
    B, alpha = base[:1], np.array([0.8 + 0.1j])
    c, v = np.array([[0.3]]), np.array([[0.2]])
    st = GaussianState(1, B, alpha, c, v)
    assert all(a.flags.writeable for a in (base, B, alpha, c, v))
    base[0], alpha[0], c[0, 0], v[0, 0] = 5.0, 2.0, 5.0, 5.0
    assert st.B[0] == 1.0 + 0.5j and st.alpha[0] == 0.8 + 0.1j
    assert st.c[0, 0] == 0.3 and st.v[0, 0] == 0.2
    assert not any(a.flags.writeable for a in (st.B, st.alpha, st.c, st.v))
    # a datum's read-only arrays pass through without a copy
    assert np.shares_memory(evolve_analytic(F_1D, 0.7).v, F_1D.v)
