"""Discrete Fourier analysis matched to the continuum convention.

The transform convention everywhere is

    fhat(xi) = int exp(-2 pi i x.xi) f(x) dx,

so a grid over [-L, L)^n with spacing dx = 2L/N maps to frequencies
xi_k = k/(2L), k in {-N/2, ..., N/2-1} per axis.  With the sampling weight
dx^n and the boundary-offset phase (-1)^k the DFT *is* the Riemann sum of
the continuous transform, and Parseval holds exactly at the discrete
level: sum |fhat|^2 dxi^n = sum |f|^2 dx^n.

The free evolution multiplies the spectrum by exp(-4 pi^2 i |xi|^2 t).
Periodic wrap-around is the one failure mode of the grid path, so every
operation that can push mass to the box edge checks the boundary-mass
fraction against a fixed aliasing threshold and fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, InvalidParameterError
from .model import (GridField, QuadraturePlan, WavePacketSum,
                    boundary_mass_fraction, grid_axis)
from .propagator import GaussianState, evolve_analytic, fourier_state
from .quadrature import ShellCoefficients, shell_integral

_ALIASING_THRESHOLD = 1e-8  # boundary-mass fraction tolerated on grids


@dataclass(frozen=True, eq=False)
class SpectrumField:
    """Transform samples indexed by shifted frequencies k/(2L)."""

    n: int
    L: float
    N: int
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.N,) * self.n:
            raise InvalidParameterError(
                f"value shape {values.shape} does not match {(self.N,) * self.n}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "t", float(self.t))

    @property
    def dxi(self) -> float:
        return 1.0 / (2.0 * self.L)

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    def axis(self) -> np.ndarray:
        return (np.arange(self.N) - self.N // 2) * self.dxi


def _alternating_sign(N: int) -> np.ndarray:
    k = np.arange(N) - N // 2
    return np.where(k % 2 == 0, 1.0, -1.0)


def _apply_axis_phase(F: np.ndarray, sign: np.ndarray, n: int) -> np.ndarray:
    for ax in range(n):
        shape = [1] * n
        shape[ax] = sign.size
        F = F * sign.reshape(shape)
    return F


def forward_transform(g: GridField) -> SpectrumField:
    """Riemann-sum transform of a grid snapshot in the global convention."""
    frac = boundary_mass_fraction(g)
    if frac > _ALIASING_THRESHOLD:
        raise AliasingError(frac, _ALIASING_THRESHOLD)
    F = np.fft.fftshift(np.fft.fftn(g.samples))
    F = _apply_axis_phase(F, _alternating_sign(g.N), g.n)
    F = F * g.dx**g.n
    return SpectrumField(g.n, g.L, g.N, F, t=g.t)


def inverse_transform(sf: SpectrumField) -> GridField:
    """Exact inverse of forward_transform (the phase is an involution)."""
    F = _apply_axis_phase(sf.values / sf.dx**sf.n, _alternating_sign(sf.N), sf.n)
    samples = np.fft.ifftn(np.fft.ifftshift(F))
    return GridField(sf.n, sf.L, sf.N, samples, t=sf.t)


def evolve_spectral(g: GridField, t: float) -> GridField:
    """Advance a grid snapshot by time t under the free flow.

    The spectrum is multiplied by exp(-4 pi^2 i |xi|^2 t) axis by axis and
    inverted; the timestamp advances by t.  The multiplier is unimodular,
    so the discrete mass is conserved exactly.  If the evolved field has
    spread to within L/2 of the box edge beyond the aliasing threshold,
    the result is rejected.
    """
    t = float(t)
    F = np.fft.fftn(g.samples)
    xi = np.fft.fftfreq(g.N, d=g.dx)
    symbol = np.exp(-4j * np.pi**2 * xi**2 * t)
    F = _apply_axis_phase(F, symbol, g.n)
    out = GridField(g.n, g.L, g.N, np.fft.ifftn(F), t=g.t + t)
    frac = boundary_mass_fraction(out)
    if frac > _ALIASING_THRESHOLD:
        raise AliasingError(frac, _ALIASING_THRESHOLD)
    return out


def hs_norm_sq(f, s: float, plan: QuadraturePlan | None = None) -> float:
    """Homogeneous Sobolev square norm int |xi|^(2s) |fhat(xi)|^2 dxi.

    Packet sums go through their closed-form transform and the adaptive
    shell quadrature; spectrum fields through the weighted discrete sum
    with the xi = 0 bin contributing zero (the origin carries no measure
    in the continuous integral).
    """
    s = float(s)
    if isinstance(f, WavePacketSum):
        if 2.0 * s <= -f.n:
            raise InvalidParameterError(
                f"s = {s} is not integrable against packet spectra in dimension {f.n}"
            )
        plan = plan or QuadraturePlan()
        ghat = fourier_state(f)
        if len(ghat) == 0:
            return 0.0
        coeffs = ShellCoefficients(w_mass=lambda r: r ** (2.0 * s))
        value, _ = shell_integral(ghat, coeffs, plan)
        return max(value, 0.0)
    if isinstance(f, SpectrumField):
        if 2.0 * s <= -f.n:
            raise InvalidParameterError(
                f"s = {s} is not integrable in dimension {f.n}"
            )
        xi = f.axis()
        rsq = np.zeros((f.N,) * f.n)
        for ax in range(f.n):
            shape = [1] * f.n
            shape[ax] = f.N
            rsq = rsq + (xi**2).reshape(shape)
        if s == 0.0:
            w = np.ones_like(rsq)
        else:
            safe = np.where(rsq > 0.0, rsq, 1.0)
            w = np.where(rsq > 0.0, safe**s, 0.0)
        dens = f.values.real**2 + f.values.imag**2
        return float((dens * w).sum() * f.dxi**f.n)
    raise InvalidParameterError(
        "hs_norm_sq expects a WavePacketSum or a SpectrumField"
    )


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

def sample_state(state: GaussianState, L: float, N: int) -> GridField:
    """Evaluate a packet state on the uniform grid, one x1-slab at a time.

    Slab-wise evaluation caps the working set at N^(n-1) x m complex
    exponentials, which keeps n=3 boxes inside desktop memory.
    """
    n = state.n
    ax = grid_axis(L, N)
    out = np.empty((N,) * n, dtype=complex)
    if n == 1:
        out[:] = state.values(ax[:, None])
    else:
        rest = np.stack(
            np.meshgrid(*([ax] * (n - 1)), indexing="ij"), axis=-1
        )  # (N, ..., n-1)
        lead = np.empty(rest.shape[:-1] + (1,))
        for i, x1 in enumerate(ax):
            lead.fill(x1)
            out[i] = state.values(np.concatenate([lead, rest], axis=-1))
    return GridField(n, L, N, out, t=state.t)


def sample_datum(f: WavePacketSum, L: float, N: int, t: float = 0.0) -> GridField:
    """Grid snapshot of the exact evolution of f at time t."""
    return sample_state(evolve_analytic(f, t), L, N)


def grid_l2_sq(g: GridField) -> float:
    """Discrete mass sum |samples|^2 dx^n."""
    dens = g.samples.real**2 + g.samples.imag**2
    return float(dens.sum() * g.dx**g.n)


def rel_l2_diff(a: GridField, b: GridField) -> float:
    """Relative L2 discrepancy between two same-layout snapshots."""
    if (a.n, a.L, a.N) != (b.n, b.L, b.N):
        raise InvalidParameterError("snapshots live on different grids")
    diff = a.samples - b.samples
    num = np.sqrt((diff.real**2 + diff.imag**2).sum())
    den = max(
        np.sqrt((a.samples.real**2 + a.samples.imag**2).sum()),
        np.sqrt((b.samples.real**2 + b.samples.imag**2).sum()),
    )
    if den == 0.0:
        return 0.0
    return float(num / den)
