"""Discrete Fourier analysis matched to the continuum convention.

The transform convention everywhere is

    fhat(xi) = int exp(-2 pi i x.xi) f(x) dx,

so a grid over [-L, L)^n with spacing dx = 2L/N maps to frequencies
xi_k = k/(2L), k in {-N/2, ..., N/2-1} per axis.  With the sampling weight
dx^n and the boundary-offset phase (-1)^k the DFT *is* the Riemann sum of
the continuous transform, and Parseval holds exactly at the discrete
level: sum |fhat|^2 dxi^n = sum |f|^2 dx^n.

The free evolution multiplies the spectrum by exp(-4 pi^2 i |xi|^2 t).
Every factor the grid path applies -- the centring sign (-1)^j that
stands in for fftshift, the phase (-1)^k, the dx^n scale and the
evolution symbol -- is a product of one vector per axis, so each is a
broadcast multiply in place on an array the path allocated itself.
scipy.fft runs at its default of one worker and may overwrite (overwrite_x)
only a temporary the path made itself; the caller's read-only arrays are
only read.  Packet states are sampled the same way, one factor per axis.
Each result array is frozen in place, so its field wraps it uncopied.

Periodic wrap-around is the one failure mode of the grid path, so every
operation that can push mass to the box edge checks the boundary-mass
fraction against a fixed aliasing threshold and fails loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import fft

from .errors import AliasingError, InvalidParameterError
from .model import GridField, WavePacketSum, _set_layout, grid_axis
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
        _set_layout(self, "values")

    @property
    def dxi(self) -> float:
        return 1.0 / (2.0 * self.L)

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    def axis(self) -> np.ndarray:
        return (np.arange(self.N) - self.N // 2) * self.dxi


def boundary_mass_fraction(g: GridField) -> float:
    """Fraction of |samples|^2 within L/2 of the box boundary.

    The aliasing sentinel: a large fraction means the field has spread to
    where the periodic wrap-around is about to matter.  A grid whose total
    mass is not finite raises InvalidParameterError.
    """
    inside = np.flatnonzero(np.abs(g.axis()) < g.L / 2.0)
    lo, hi = int(inside[0]), int(inside[-1]) + 1
    dens = np.abs(g.samples)
    dens *= dens
    # the edge region is the two end slabs of the first axis, then those
    # of the second axis within the first axis's core, and so on
    edge = 0.0
    core = dens
    for ax in range(g.n):
        head = (slice(None),) * ax
        edge += core[head + (slice(None, lo),)].sum()
        edge += core[head + (slice(hi, None),)].sum()
        core = core[head + (slice(lo, hi),)]
    total = edge + core.sum()
    if not np.isfinite(total):
        raise InvalidParameterError(f"grid mass {total} is not finite")
    if total == 0.0:
        return 0.0
    return float(edge / total)


def _sealed(a: np.ndarray) -> np.ndarray:
    """a after making it and every array it views read-only.

    For arrays the grid path allocated itself (scipy.fft returns a view of
    an input it overwrote), so that a field wraps them without a copy.
    """
    b = a
    while isinstance(b, np.ndarray):
        b.setflags(write=False)
        b = b.base
    return a


def _times_axis_factors(x: np.ndarray, factors, out=None) -> np.ndarray:
    """x times factors[ax] broadcast along each axis ax.

    out=None allocates the result with the first factor; every later
    factor, and every factor when out is given, multiplies in place.
    """
    for ax, factor in enumerate(factors):
        shape = [1] * x.ndim
        shape[ax] = factor.size
        out = np.multiply(x, factor.reshape(shape), out=out)
        x = out
    return out


def _centring_phases(N: int, n: int, scale: float):
    """(pre, post) per-axis factors of the phased transform.

    Premultiplying the samples by (-1)^j moves frequency k to index
    k + N/2 of the DFT, which is the fftshift; the output index k' then
    carries the boundary-offset phase (-1)^(k' - N/2).  scale rides on
    the first post factor.
    """
    pre = np.where(np.arange(N) % 2 == 0, 1.0, -1.0)
    post = pre if (N // 2) % 2 == 0 else -pre
    return [pre] * n, [post * scale] + [post] * (n - 1)


def forward_transform(g: GridField) -> SpectrumField:
    """Riemann-sum transform of a grid snapshot in the global convention."""
    frac = boundary_mass_fraction(g)
    if frac > _ALIASING_THRESHOLD:
        raise AliasingError(frac, _ALIASING_THRESHOLD)
    pre, post = _centring_phases(g.N, g.n, g.dx**g.n)
    F = fft.fftn(_times_axis_factors(g.samples, pre), overwrite_x=True)
    _times_axis_factors(F, post, out=F)
    return SpectrumField(g.n, g.L, g.N, _sealed(F), t=g.t)


def inverse_transform(sf: SpectrumField) -> GridField:
    """Exact inverse of forward_transform (both phases are involutions)."""
    pre, post = _centring_phases(sf.N, sf.n, sf.dx**-sf.n)
    samples = fft.ifftn(_times_axis_factors(sf.values, post), overwrite_x=True)
    _times_axis_factors(samples, pre, out=samples)
    return GridField(sf.n, sf.L, sf.N, _sealed(samples), t=sf.t)


def evolve_spectral(g: GridField, t: float) -> GridField:
    """Advance a grid snapshot by time t under the free flow.

    The spectrum is multiplied by exp(-4 pi^2 i |xi|^2 t) axis by axis and
    inverted; the timestamp advances by t.  The multiplier is unimodular,
    so the discrete mass is conserved exactly.  If the evolved field has
    spread to within L/2 of the box edge beyond the aliasing threshold,
    the result is rejected.  A non-finite t raises InvalidParameterError.
    """
    t = float(t)
    if not math.isfinite(t):
        raise InvalidParameterError(f"evolution time t must be finite, got {t}")
    xi = fft.fftfreq(g.N, d=g.dx)
    symbol = np.exp(-4j * np.pi**2 * xi**2 * t)
    F = fft.fftn(g.samples)
    _times_axis_factors(F, [symbol] * g.n, out=F)
    out = GridField(g.n, g.L, g.N, _sealed(fft.ifftn(F, overwrite_x=True)),
                    t=g.t + t)
    frac = boundary_mass_fraction(out)
    if frac > _ALIASING_THRESHOLD:
        raise AliasingError(frac, _ALIASING_THRESHOLD)
    return out


def hs_norm_sq(f, s: float) -> float:
    """Homogeneous Sobolev square norm int |xi|^(2s) |fhat(xi)|^2 dxi.

    Packet sums go through their closed-form transform and the adaptive
    shell quadrature, at the lab's fixed accuracy; spectrum fields through the weighted discrete sum
    with the xi = 0 bin contributing zero (the origin carries no measure
    in the continuous integral).
    """
    s = float(s)
    if isinstance(f, WavePacketSum):
        if 2.0 * s <= -f.n:
            raise InvalidParameterError(
                f"s = {s} is not integrable against packet spectra in dimension {f.n}"
            )
        coeffs = ShellCoefficients(w_mass=lambda r: r ** (2.0 * s))
        value, _ = shell_integral(fourier_state(f), coeffs)
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
    """Evaluate a packet state on the uniform grid, axis by axis.

    A packet B exp(-alpha|x-c|^2 + 2 pi i v.x) is the product of one factor
    exp(-alpha (x_d - c_d)^2 + 2 pi i v_d x_d) per axis, so m packets need
    m n N complex exponentials, not m N^n.  The grid is one matrix product:
    the (N, m) lead-axis factors, amplitudes included, times the
    (m, N^(n-1)) outer products of the other axes' factors.
    """
    n, m = state.n, len(state)
    ax = grid_axis(L, N)
    # factors[i, d, j]: packet i's factor along axis d at coordinate ax[j]
    diff = ax - state.c[:, :, None]
    factors = np.exp(-state.alpha[:, None, None] * diff**2
                     + 2j * np.pi * state.v[:, :, None] * ax)
    lead = (state.B[:, None] * factors[:, 0]).T
    rest = np.ones((m, 1), dtype=complex)
    for d in range(1, n):
        rest = (rest[:, :, None] * factors[:, d, None, :]).reshape(m, N**d)
    out = (lead @ rest).reshape((N,) * n)
    return GridField(n, L, N, _sealed(out), t=state.t)


def sample_datum(f: WavePacketSum, L: float, N: int, t: float = 0.0) -> GridField:
    """Grid snapshot of the exact evolution of f at time t."""
    return sample_state(evolve_analytic(f, t), L, N)


def _sum_sq(z: np.ndarray) -> float:
    """sum |z|^2 by numpy's pairwise summation.

    np.vdot is no substitute: BLAS sums serially and was 1e-14 off on a
    million-point spectrum, where the discrete Parseval check wants 1e-12.
    """
    dens = np.abs(z)
    dens *= dens
    return float(dens.sum())


def grid_l2_sq(g: GridField) -> float:
    """Discrete mass sum |samples|^2 dx^n."""
    return _sum_sq(g.samples) * g.dx**g.n


def rel_l2_diff(a: GridField, b: GridField) -> float:
    """Relative L2 discrepancy between two same-layout snapshots."""
    if (a.n, a.L, a.N) != (b.n, b.L, b.N):
        raise InvalidParameterError("snapshots live on different grids")
    den_sq = max(_sum_sq(a.samples), _sum_sq(b.samples))
    if den_sq == 0.0:
        return 0.0
    return math.sqrt(_sum_sq(a.samples - b.samples) / den_sq)
