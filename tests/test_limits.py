"""Extrapolation and experiment-driver tests.

The extrapolator is probed with synthetic sequences whose limits are known
exactly; the drivers get one cheap real run each plus their argument
guards.  The heavy multi-datum sweeps live in the acceptance suite.
"""

import warnings

import numpy as np
import pytest

from smoothing_lab.errors import InvalidParameterError
from smoothing_lab.limits import (
    estimate_limit,
    verify_asymptotics,
    verify_flux,
    verify_identity,
    verify_remainder_decay,
    verify_sandwich,
    verify_smoothing_bound,
)
from smoothing_lab.model import packet, packet_sum
from smoothing_lab.weights import make_psi_eps

F_1D = packet_sum([packet(1.0, 1.0, [0.2], [0.3])])


# ---------------------------------------------------------------------------
# extrapolation on synthetic schedules
# ---------------------------------------------------------------------------

def test_power_law_limit_recovered():
    ps = 2.0 ** np.arange(7)
    vals = 3.7 + 2.1 * ps**-1.5
    est = estimate_limit(zip(ps, vals))
    assert est.converged
    assert est.value == pytest.approx(3.7, abs=1e-6)
    assert "alpha" in est.note


def test_three_point_fit_reports_raw_last_error_bar():
    # three points fix the three model parameters exactly, so curve_fit
    # cannot estimate a covariance; the error bar must still cover the
    # 1e-9 ripple's effect on the limit
    ps = np.array([4.0, 8.0, 16.0])
    vals = 1.0 + 2.0 * ps**-1.3 + 1e-9 * np.array([1.0, -1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_limit(zip(ps, vals))
    assert est.converged
    assert "covariance not estimated" in est.note
    assert est.error >= abs(est.value - 1.0)


def test_power_law_with_negative_amplitude():
    ps = np.geomspace(1.0, 64.0, 7)
    vals = -0.8 - 5.0 * ps**-0.7
    est = estimate_limit(zip(ps, vals))
    assert est.converged
    assert est.value == pytest.approx(-0.8, abs=1e-5)


def test_constant_sequence_short_circuits():
    est = estimate_limit([(1, 4.2), (2, 4.2), (4, 4.2)])
    assert est.converged
    assert est.value == 4.2
    assert est.error == 0.0
    assert "constant" in est.note


def test_alternating_tail_flagged():
    ps = 2.0 ** np.arange(6)
    vals = 1.0 + 0.1 * (-1.0) ** np.arange(6)
    est = estimate_limit(zip(ps, vals))
    assert not est.converged
    assert "alternate" in est.note
    assert est.value == vals[-1]


def test_schedule_guards():
    with pytest.raises(InvalidParameterError):
        estimate_limit([(1, 1.0), (2, 1.1)])
    with pytest.raises(InvalidParameterError):
        estimate_limit([(2, 1.0), (1, 1.1), (4, 1.2)])


# ---------------------------------------------------------------------------
# drivers: one cheap live run each, plus guards
# ---------------------------------------------------------------------------

def test_identity_report_fields():
    report = verify_identity(F_1D, make_psi_eps(1.0), [0.5], tolerance=1e-6)
    assert report.experiment == "identity"
    assert report.n == 1
    assert report.weight_id == "soft-abs-eps1"
    assert report.params.shape == report.lhs.shape == report.rhs.shape == (1,)
    assert report.floor > 0
    assert report.passed
    assert np.all(report.rel_residual <= report.tolerance)
    assert report.abs_residual.shape == (1,)


def test_identity_holds_off_centre_in_3d():
    # the acceptance matrix covers n = 1 and 2; here a moving packet away
    # from the origin gives the n = 3 angular rule a non-trivial band
    f = packet_sum([packet(1.0, 1.0, [0.3, -0.2, 0.1], [0.2, 0.0, -0.1])])
    report = verify_identity(f, make_psi_eps(1.0), [0.25], tolerance=1e-6)
    assert report.n == 3
    assert report.rel_residual[0] <= 1e-6
    assert report.passed


def test_asymptotics_smoke():
    report = verify_asymptotics(F_1D, [1.0, 4.0], final_ratio=0.5)
    assert report.passed
    assert report.lhs[1] < report.lhs[0]


def test_decay_drivers_reject_one_point_schedules():
    # each verdict compares the last point with the first
    with pytest.raises(InvalidParameterError):
        verify_asymptotics(F_1D, [1.0], final_ratio=0.1)
    with pytest.raises(InvalidParameterError):
        verify_remainder_decay(F_1D, make_psi_eps(1.0), [4.0], decay_ratio=0.25)


def test_flux_rejects_nonpositive_times():
    # three points pass the schedule-length check, so the positivity
    # guard is what raises
    with pytest.raises(InvalidParameterError, match="positive times"):
        verify_flux(F_1D, make_psi_eps(1.0), [-1.0, 1.0, 2.0], tolerance=0.02)


def test_sandwich_rejects_bad_plateau_index():
    with pytest.raises(InvalidParameterError):
        verify_sandwich(F_1D, 0, [4.0, 8.0], tolerance=1e-3)


def test_zero_datum_smoothing_bound_passes():
    empty = packet_sum([], n=1)
    report = verify_smoothing_bound(empty, [1.0, 2.0, 4.0], tolerance=0.02)
    assert report.passed
    assert np.all(report.lhs == 0.0)
    assert report.floor == 0.0


def test_remainder_decay_ignores_roundoff_tangential_series():
    # a radially symmetric datum has no tangential gradient: its tangential
    # series is roundoff and must count as absent, not as failing to decay
    centred = packet_sum([packet(1.0, 1.0, [0.0, 0.0])])
    report = verify_remainder_decay(centred, make_psi_eps(1.0), [4.0, 16.0],
                                    decay_ratio=0.25)
    assert np.all(report.lhs < 1e-12)
    assert report.rhs[1] <= 0.25 * report.rhs[0]
    assert report.passed
