"""Derandomized sweeps of the identity route in n = 1, 2 and 3.

The acceptance matrix covers n = 1 and 2 with two-packet data.  These
sweeps add off-centre, moving sums of two and three packets in every
dimension, the n = 3 datum the benchmarks time, and translation
invariance of the quantities the verdicts rest on.  Every datum comes
from a fixed seed, so a failure reproduces bit for bit.
"""

import numpy as np
import pytest

from smoothing_lab.limits import verify_identity
from smoothing_lab.model import l2_norm_sq, random_packet_suite, translate
from smoothing_lab.propagator import evolve_analytic
from smoothing_lab.quadrature import ShellCoefficients, shell_integral
from smoothing_lab.spectral import hs_norm_sq
from smoothing_lab.weights import make_psi_eps, make_psi_k


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("packets", [2, 3])
def test_identity_holds_for_random_packet_sums(n, packets):
    f = random_packet_suite(n, count=1, packets_per_datum=packets,
                            seed=100 * n + packets, center_scale=1.5)[0]
    report = verify_identity(f, make_psi_eps(1.0), [1.0], tolerance=1e-6)
    assert report.passed, report.rel_residual


@pytest.mark.parametrize("n", [1, 2, 3])
def test_translation_leaves_mass_norm_and_identity_unchanged(n):
    f = random_packet_suite(n, count=1, seed=200 + n)[0]
    g = translate(f, np.linspace(1.3, -0.8, n))
    mass = ShellCoefficients(w_mass=np.ones_like)
    for datum in (f, g):
        value, _ = shell_integral(evolve_analytic(datum, 0.7), mass)
        assert value == pytest.approx(l2_norm_sq(f), rel=1e-10)
    assert hs_norm_sq(g, 0.5) == pytest.approx(hs_norm_sq(f, 0.5), rel=1e-10)
    for datum in (f, g):
        report = verify_identity(datum, make_psi_eps(1.0), [0.5], tolerance=1e-6)
        assert report.passed, report.rel_residual


@pytest.mark.parametrize("weight", [make_psi_eps(1.0), make_psi_k(2)],
                         ids=["eps", "bump"])
def test_identity_holds_for_benchmark_datum_in_3d(weight):
    f = random_packet_suite(3, count=5, seed=13)[0]
    report = verify_identity(f, weight, [2.0], tolerance=1e-6)
    assert report.passed, report.rel_residual
