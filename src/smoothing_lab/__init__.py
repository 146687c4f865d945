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
from .functionals import (boundary_term, dispersive_l2_error, flux,
                          morawetz_lhs, morawetz_remainder_split,
                          radial_profile, remainder_terms, smoothing_profile,
                          weighted_radial_energy)
from .limits import (LimitEstimate, estimate_limit, verify_asymptotics,
                     verify_corollary, verify_flux, verify_identity,
                     verify_remainder_decay, verify_sandwich,
                     verify_smoothing_bound, verify_theorem_main)
from .model import (GridField, RadialWeight, VerificationReport, WavePacket,
                    WavePacketSum, dilate, gaussian_inner, l2_norm_sq,
                    packet, packet_sum, random_packet_suite, translate)
from .propagator import (GaussianState, difference_state, dispersive_approx,
                         evolve_analytic, fourier_state)
from .quadrature import (ShellCoefficients, adaptive_time_integral,
                         real_line_time_integral, shell_integral)
from .spectral import (SpectrumField, evolve_spectral, forward_transform,
                       grid_l2_sq, hs_norm_sq, inverse_transform,
                       rel_l2_diff, sample_datum, sample_state)
from .weights import (constant_weight, make_psi_eps, make_psi_k,
                      radial_laplacians, rescale)

__version__ = "0.1.0"

# the README's API list, module by module
__all__ = [
    "AliasingError", "ConfigError", "InvalidParameterError",
    "InvalidWeightError", "OriginError", "SmoothingLabError",
    "ToleranceNotMetError",
    "GridField", "RadialWeight", "VerificationReport",
    "WavePacket", "WavePacketSum", "dilate", "gaussian_inner", "l2_norm_sq",
    "packet", "packet_sum", "random_packet_suite", "translate",
    "constant_weight", "make_psi_eps", "make_psi_k", "radial_laplacians",
    "rescale",
    "ShellCoefficients", "adaptive_time_integral", "real_line_time_integral",
    "shell_integral",
    "GaussianState", "difference_state", "dispersive_approx",
    "evolve_analytic", "fourier_state",
    "SpectrumField", "evolve_spectral", "forward_transform", "grid_l2_sq",
    "hs_norm_sq", "inverse_transform", "rel_l2_diff", "sample_datum",
    "sample_state",
    "boundary_term", "dispersive_l2_error", "flux", "morawetz_lhs",
    "morawetz_remainder_split", "radial_profile", "remainder_terms",
    "smoothing_profile", "weighted_radial_energy",
    "LimitEstimate", "estimate_limit", "verify_asymptotics",
    "verify_corollary", "verify_flux", "verify_identity",
    "verify_remainder_decay", "verify_sandwich", "verify_smoothing_bound",
    "verify_theorem_main",
]
