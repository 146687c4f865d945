"""Numerical laboratory for smoothing identities of the free Schrodinger flow.

Gaussian wave packets evolve in closed form, so every quantity here has
two independent routes: adaptive quadrature on the exact solution, and
algebra on the packet parameters.  The package checks that weighted
space-time energies, boundary flux terms, and their long-time limits
agree with what the identities predict, for soft-absolute-value and
plateau weights in dimensions one to three.
"""

from .errors import (AliasingError, ConfigError, InvalidParameterError,
                     InvalidWeightError, OriginError, SmoothingLabError,
                     ToleranceNotMetError)
from .functionals import (boundary_term, check_remainder_hypotheses,
                          dispersive_l2_error, flux, morawetz_lhs,
                          morawetz_remainder_split, radial_profile,
                          remainder_terms, smoothing_profile,
                          weighted_radial_energy)
from .limits import (LimitEstimate, estimate_limit, verify_asymptotics,
                     verify_corollary, verify_flux, verify_identity,
                     verify_remainder_decay, verify_sandwich,
                     verify_smoothing_bound, verify_theorem_main)
from .model import (GridField, QuadraturePlan, RadialWeight,
                    VerificationReport, WavePacket, WavePacketSum, boost,
                    boundary_mass_fraction, dilate, gaussian_inner,
                    grid_axis, l2_norm_sq, packet, packet_sum,
                    random_packet_suite, relative_residual, translate)
from .propagator import (GaussianState, difference_state, dispersive_approx,
                         evolve_analytic, fourier_state, state_from_datum)
from .quadrature import (ShellCoefficients, adaptive_time_integral,
                         real_line_time_integral, shell_integral)
from .spectral import (SpectrumField, evolve_spectral, forward_transform,
                       grid_l2_sq, hs_norm_sq, inverse_transform,
                       rel_l2_diff, sample_datum, sample_state)
from .weights import (constant_weight, derivative_stack_check, make_psi_eps,
                      make_psi_k, radial_laplacians, rescale)

__version__ = "0.1.0"

__all__ = [
    "AliasingError", "ConfigError", "InvalidParameterError",
    "InvalidWeightError", "OriginError", "SmoothingLabError",
    "ToleranceNotMetError",
    "GaussianState", "GridField", "LimitEstimate", "QuadraturePlan",
    "RadialWeight", "ShellCoefficients", "SpectrumField",
    "VerificationReport", "WavePacket", "WavePacketSum",
    "adaptive_time_integral", "boost", "boundary_mass_fraction",
    "boundary_term", "check_remainder_hypotheses", "constant_weight",
    "derivative_stack_check", "difference_state", "dilate",
    "dispersive_approx", "dispersive_l2_error", "estimate_limit",
    "evolve_analytic", "evolve_spectral", "flux", "forward_transform",
    "fourier_state", "gaussian_inner", "grid_axis",
    "grid_l2_sq", "hs_norm_sq", "inverse_transform", "l2_norm_sq",
    "make_psi_eps", "make_psi_k", "morawetz_lhs",
    "morawetz_remainder_split", "packet", "packet_sum", "radial_laplacians",
    "radial_profile", "random_packet_suite", "real_line_time_integral",
    "rel_l2_diff", "relative_residual", "remainder_terms", "rescale",
    "sample_datum", "sample_state", "shell_integral", "smoothing_profile",
    "state_from_datum", "translate", "verify_asymptotics",
    "verify_corollary", "verify_flux", "verify_identity",
    "verify_remainder_decay", "verify_sandwich", "verify_smoothing_bound",
    "verify_theorem_main", "weighted_radial_energy",
]
