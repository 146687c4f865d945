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
evolution symbol -- is a product of one vector per axis, so each multiply
is one blocked pass: a chunk of first-axis rows meets every axis's factor
while it is in cache.  A field keeps its phased spectrum while it lives
(one extra array of the field's size), so forward_transform and every
evolve_spectral of one field share one forward transform.  scipy.fft
runs at its default of one worker and may overwrite (overwrite_x) only a
temporary the path made itself; the caller's read-only arrays are only
read.  Packet states are sampled the same way, one factor per axis.  Each
result array is frozen in place, so its field wraps it uncopied.  Sums of
|samples|^2 take no square roots: dot products over fixed blocks of the
float view, the blocks' sums added exactly by math.fsum.

Periodic wrap-around is the one failure mode of the grid path, so every
operation that can push mass to the box edge checks the boundary-mass
fraction against a fixed aliasing threshold and fails loudly.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np
from scipy import fft

from .errors import AliasingError, InvalidParameterError
from .model import GridField, WavePacketSum, _set_layout, grid_axis
from .propagator import GaussianState, evolve_analytic, fourier_state
from .quadrature import ShellCoefficients, shell_integral

_ALIASING_THRESHOLD = 1e-8  # boundary-mass fraction tolerated on grids
_SUM_BLOCK = 2**13  # floats per summed block; OpenBLAS threads ddot from 2**14
_FACTOR_BLOCK = 2**15  # elements per chunk of a factor multiply

# the spectrum of each transformed field, keyed by the field: a field is
# frozen and hashes by identity, so an entry never goes stale, and it
# goes when its field goes
_SPECTRA = weakref.WeakKeyDictionary()


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
    # the edge region is the two end slabs of the first axis, then those
    # of the second axis within the first axis's core, and so on
    edge = []
    core = g.samples
    for ax in range(g.n):
        head = (slice(None),) * ax
        edge += [_sum_sq(core[head + (slice(None, lo),)]),
                 _sum_sq(core[head + (slice(hi, None),)])]
        core = core[head + (slice(lo, hi),)]
    edge = math.fsum(edge)
    total = edge + _sum_sq(core)
    if not math.isfinite(total):
        raise InvalidParameterError(f"grid mass {total} is not finite")
    if total == 0.0:
        return 0.0
    return edge / total


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
    """x times factors[ax] broadcast along each axis ax, in one pass.

    The pass goes a chunk of first-axis rows at a time, about
    _FACTOR_BLOCK elements, and multiplies each chunk by every axis's
    factor while it is in cache: tens of chunks, not one pass per axis
    nor one call per row.  Every factor but the first is laid out over
    one row, N^(n-1) values, so those multiplies run contiguously.  Each
    element meets its factors in axis order, as in one broadcast multiply
    per axis, so the result is bit for bit that of the per-axis passes.
    out=None allocates the result; out may be x.
    """
    dtype = np.result_type(x, *factors)
    if out is None:
        out = np.empty(x.shape, dtype)
    row = x.shape[1:]
    lead = factors[0].astype(dtype).reshape((-1,) + (1,) * len(row))
    rest = [np.broadcast_to(f.astype(dtype).reshape((-1,) + (1,) * (len(row) - ax)),
                            row).copy()
            for ax, f in enumerate(factors[1:], 1)]
    rows = max(1, _FACTOR_BLOCK * len(x) // x.size)
    for i in range(0, len(x), rows):
        chunk = np.multiply(x[i:i + rows], lead[i:i + rows], out=out[i:i + rows])
        for factor in rest:
            np.multiply(chunk, factor, out=chunk)
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


def _spectrum(g: GridField) -> SpectrumField:
    """The phased spectrum of g, transformed on first use and kept while g
    lives.  No check: each public caller makes its own."""
    sf = _SPECTRA.get(g)
    if sf is None:
        pre, post = _centring_phases(g.N, g.n, g.dx**g.n)
        F = fft.fftn(_times_axis_factors(g.samples, pre), overwrite_x=True)
        _times_axis_factors(F, post, out=F)
        sf = _SPECTRA[g] = SpectrumField(g.n, g.L, g.N, _sealed(F), t=g.t)
    return sf


def forward_transform(g: GridField) -> SpectrumField:
    """Riemann-sum transform of a grid snapshot in the global convention."""
    frac = boundary_mass_fraction(g)
    if frac > _ALIASING_THRESHOLD:
        raise AliasingError(frac, _ALIASING_THRESHOLD)
    return _spectrum(g)


def _samples(sf: SpectrumField, symbol=None) -> np.ndarray:
    """The inverse transform of sf's values times symbol on every axis."""
    pre, post = _centring_phases(sf.N, sf.n, sf.dx**-sf.n)
    if symbol is not None:
        post = [p * symbol for p in post]
    samples = fft.ifftn(_times_axis_factors(sf.values, post), overwrite_x=True)
    return _sealed(_times_axis_factors(samples, pre, out=samples))


def inverse_transform(sf: SpectrumField) -> GridField:
    """Exact inverse of forward_transform (both phases are involutions)."""
    return GridField(sf.n, sf.L, sf.N, _samples(sf), t=sf.t)


def evolve_spectral(g: GridField, t: float) -> GridField:
    """Advance a grid snapshot by time t under the free flow.

    The field's spectrum (transformed once per field) is multiplied by
    exp(-4 pi^2 i |xi|^2 t), in the same pass as the inverse's phases, and
    inverted; the timestamp advances by t.  The multiplier is unimodular,
    so the discrete mass is conserved exactly.  If the evolved field has
    spread to within L/2 of the box edge beyond the aliasing threshold,
    the result is rejected; the input's own boundary mass is not checked.
    A non-finite t raises InvalidParameterError.
    """
    t = float(t)
    if not math.isfinite(t):
        raise InvalidParameterError(f"evolution time t must be finite, got {t}")
    sf = _spectrum(g)
    symbol = np.exp(-4j * np.pi**2 * sf.axis()**2 * t)
    out = GridField(g.n, g.L, g.N, _samples(sf, symbol), t=g.t + t)
    frac = boundary_mass_fraction(out)
    if frac > _ALIASING_THRESHOLD:
        raise AliasingError(frac, _ALIASING_THRESHOLD)
    return out


def hs_norm_sq(f, s: float) -> float:
    """Homogeneous Sobolev square norm int |xi|^(2s) |fhat(xi)|^2 dxi.

    Packet sums go through their closed-form transform and the adaptive
    shell quadrature, at the lab's fixed accuracy; spectrum fields through
    the weighted discrete sum with the xi = 0 bin contributing zero (the
    origin carries no measure in the continuous integral).  s must be
    finite with 2s > -n, where |xi|^(2s) is locally integrable; any other
    s raises InvalidParameterError.

    The packet route handles less: its shell integrand carries the factor
    r^(n-1+2s), and once 2s + n - 1 falls to about -0.5 (s about -0.25,
    -0.75, -1.25 in n = 1, 2, 3; the edge depends on the datum) the radial
    refinement reaches its depth cap and raises ToleranceNotMetError.
    """
    s = float(s)
    if not isinstance(f, (WavePacketSum, SpectrumField)):
        raise InvalidParameterError(
            "hs_norm_sq expects a WavePacketSum or a SpectrumField"
        )
    if not (np.isfinite(s) and 2.0 * s > -f.n):
        raise InvalidParameterError(
            f"Sobolev index s must be finite with 2s > -{f.n}, got {s}")
    if isinstance(f, WavePacketSum):
        coeffs = ShellCoefficients(w_mass=lambda r: r ** (2.0 * s))
        value, _ = shell_integral(fourier_state(f), coeffs)
        return max(value, 0.0)
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


def _floats(z: np.ndarray) -> np.ndarray:
    """The float64 view of a complex array, copied first if its last axis
    is strided."""
    if z.strides[-1] != z.itemsize:
        z = np.ascontiguousarray(z)
    return z.view(np.float64)


def _sum_sq(z: np.ndarray) -> float:
    """sum |z|^2, without square roots (np.abs is a hypot).

    The squares of each block of _SUM_BLOCK floats of the float view are
    summed as one BLAS dot product, and math.fsum adds the blocks' sums
    exactly; a strided slab (of boundary_mass_fraction) goes a row at a
    time, 2N floats at most.  np.vdot over the whole array is no
    substitute: one serial BLAS sum was 1e-14 off on a million-point
    spectrum, where the discrete Parseval check wants 1e-12.  Nor is
    np.einsum's sum of products: on the benchmark's smooth fields its
    block sums were biased low, up to 1.4e-15 in all.
    """
    v = _floats(z)
    if v.flags.c_contiguous:
        v = v.reshape(-1)
        whole = v.size - v.size % _SUM_BLOCK
        rows = [v[:whole].reshape(-1, _SUM_BLOCK), v[whole:]]
    else:
        rows = [v]
    return math.fsum(itertools.chain.from_iterable(
        np.vecdot(r, r).ravel().tolist() for r in rows))


def grid_l2_sq(g: GridField) -> float:
    """Discrete mass sum |samples|^2 dx^n."""
    return _sum_sq(g.samples) * g.dx**g.n


def rel_l2_diff(a: GridField, b: GridField) -> float:
    """Relative L2 discrepancy between two same-layout snapshots.

    One pass over both float views, a block of _SUM_BLOCK floats at a
    time: the block's difference goes into one small buffer, and the
    block's three sums of squares are added up like _sum_sq's.
    """
    if (a.n, a.L, a.N) != (b.n, b.L, b.N):
        raise InvalidParameterError("snapshots live on different grids")
    va, vb = _floats(a.samples).reshape(-1), _floats(b.samples).reshape(-1)
    buf = np.empty(min(_SUM_BLOCK, va.size))
    sums = []  # per block: sum a^2, sum b^2, sum (a - b)^2
    for i in range(0, va.size, _SUM_BLOCK):
        ra, rb = va[i:i + _SUM_BLOCK], vb[i:i + _SUM_BLOCK]
        d = np.subtract(ra, rb, out=buf[:ra.size])
        sums.append((np.dot(ra, ra), np.dot(rb, rb), np.dot(d, d)))
    sq_a, sq_b, sq_d = (math.fsum(col) for col in zip(*sums))
    den_sq = max(sq_a, sq_b)
    if den_sq == 0.0:
        return 0.0
    return math.sqrt(sq_d / den_sq)
