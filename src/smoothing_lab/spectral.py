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
read.  Each result array is frozen in place, so its field wraps it
uncopied.  Sums of |samples|^2 take no square roots: dot products over
fixed blocks of the float view, the blocks' sums added exactly by
math.fsum.

Factored fields.  A sampled packet state is a sum of m outer products of
per-axis factors, and sample_state (so sample_datum) returns it that
way: amplitudes B (m,) and sampled factors (m, n, N), no grid.  The
phases, the scale and the symbol are products over axes too, so the
transforms and the evolution of a factored field are one batched 1-D
scipy.fft over its m n factors, and their results stay factored: still
a DFT of grid samples, m n N of them in place of N^n, and nothing of the
closed-form packet algebra.  A field built from an array, and every
operation a general field enters, takes the n-D path.  .samples and
.values materialise on first read, once, frozen, by a per-packet
multiply-add of outer products a chunk of rows at a time (no BLAS call
to wake a second thread); of the grid operations only rel_l2_diff of a
factored field and a general one, or one of another packet count, and
grid_l2_sq of packets that cancel, read them.  grid_l2_sq, the
boundary-mass check, and rel_l2_diff of two factored fields of as many
packets, run as grid Gram sums sum_ij conj(B_i) B_j prod_d <f_id, f_jd>
over each slab's index set per axis.  A Gram mass carries about eps
times the packets' own masses, its i = j terms, so grid_l2_sq sums the
samples of a field whose mass falls below a quarter of those; on the
grid benchmark's boxes at seeds 1-10 the Gram mass is within 3.6 eps of
the exactly rounded sum of the materialised samples.  rel_l2_diff
first telescopes the difference per packet, after a gauge step that
takes each axis's scalar mismatch out of the difference (_difference):
the flow leaves (1 + 4 i alpha t)^(-1/2) on each evolved factor where
the sampled exact state carries the n-th power on its amplitude, and
without that step the sum read 0 or 1e-7 where the materialised samples
read 5e-16.

Periodic wrap-around is the one failure mode of the grid path, so every
operation that can push mass to the box edge checks the boundary-mass
fraction against a fixed aliasing threshold and fails loudly.  A grid
mass that is not finite fails too: boundary_mass_fraction, grid_l2_sq
and rel_l2_diff raise InvalidParameterError for it, never return NaN.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np
from scipy import fft

from .errors import AliasingError, InvalidParameterError
from .model import _FACTOR_BLOCK, GridField, WavePacketSum, _GridLayout, grid_axis
from .propagator import GaussianState, evolve_analytic, fourier_state
from .quadrature import ShellCoefficients, shell_integral

_ALIASING_THRESHOLD = 1e-8  # boundary-mass fraction tolerated on grids
_SUM_BLOCK = 2**13  # floats per summed block; OpenBLAS threads ddot from 2**14
# least share of its packets' own masses that a factored field's mass keeps
# for grid_l2_sq to take the Gram sum; the grid benchmark's boxes keep 0.29
# or more at seeds 1-10
_GRAM_MIN_SHARE = 0.25

# the spectrum of each transformed field, keyed by the field: a field is
# frozen and hashes by identity, so an entry never goes stale, and it
# goes when its field goes
_SPECTRA = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class SpectrumField(_GridLayout):
    """Transform samples indexed by shifted frequencies k/(2L)."""

    _array = "values"

    n: int
    L: float
    N: int
    values: np.ndarray
    t: float = 0.0

    @property
    def dxi(self) -> float:
        return 1.0 / (2.0 * self.L)

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    def axis(self) -> np.ndarray:
        return (np.arange(self.N) - self.N // 2) * self.dxi


def _fsum(parts) -> float:
    """math.fsum of parts, or inf where their exact sum overflows."""
    try:
        return math.fsum(parts)
    except OverflowError:
        return math.inf


def _finite(mass: float) -> float:
    """mass, or InvalidParameterError if it is not finite."""
    if not math.isfinite(mass):
        raise InvalidParameterError(f"grid mass {mass} is not finite")
    return mass


def boundary_mass_fraction(g: GridField) -> float:
    """Fraction of |samples|^2 within L/2 of the box boundary.

    The aliasing sentinel: a large fraction means the field has spread to
    where the periodic wrap-around is about to matter.  A grid whose total
    mass is not finite raises InvalidParameterError.
    """
    inside = np.abs(g.axis()) < g.L / 2.0
    # the edge region is the end slabs of the first axis, then those of
    # the second axis within the first axis's core, and so on
    if g._factors is None:
        idx = np.flatnonzero(inside)
        lo, hi = int(idx[0]), int(idx[-1]) + 1
        edge = []
        core = g.samples
        for ax in range(g.n):
            head = (slice(None),) * ax
            edge += [_sum_sq(core[head + (slice(None, lo),)]),
                     _sum_sq(core[head + (slice(hi, None),)])]
            core = core[head + (slice(lo, hi),)]
        core = _sum_sq(core)
    else:
        # a slab's mass is a grid Gram sum over its index set per axis
        B, f = g._factors
        gin, gout, gall = _gram(f[..., inside]), _gram(f[..., ~inside]), _gram(f)
        edge = [max(_gram_sum(B, np.concatenate([gin[:ax], gout[ax:ax + 1], gall[ax + 1:]])), 0.0)
                for ax in range(g.n)]
        core = _gram_sum(B, gin)
    edge = _fsum(edge)
    total = _finite(edge + core)
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
    """(pre, post) per-axis factors of the phased transform, one (n, N)
    array each, a row per axis.

    Premultiplying the samples by (-1)^j moves frequency k to index
    k + N/2 of the DFT, which is the fftshift; the output index k' then
    carries the boundary-offset phase (-1)^(k' - N/2).  scale rides on
    the first post factor.
    """
    pre = np.where(np.arange(N) % 2 == 0, 1.0, -1.0)
    post = np.tile(pre if (N // 2) % 2 == 0 else -pre, (n, 1))
    post[0] *= scale
    return np.tile(pre, (n, 1)), post


def _phased(fld: _GridLayout, cls, before, after, inverse: bool, t: float):
    """The cls field at time t of the DFT (inverse DFT if inverse) of
    fld's array times before on every axis, times after on every axis.

    A factored field stays factored: each axis's factors meet that axis's
    rows of before and after, and one batched 1-D transform runs over
    the factors' last axis, m n transforms of N points in all.
    """
    if fld._factors is None:
        x = _times_axis_factors(getattr(fld, fld._array), before)
        x = (fft.ifftn if inverse else fft.fftn)(x, overwrite_x=True)
        return cls(fld.n, fld.L, fld.N, _sealed(_times_axis_factors(x, after, out=x)), t=t)
    B, factors = fld._factors
    x = (fft.ifft if inverse else fft.fft)(factors * before, overwrite_x=True)
    x *= after
    return cls._from_factors(fld.n, fld.L, fld.N, B, _sealed(x), t=t)


def _spectrum(g: GridField) -> SpectrumField:
    """The phased spectrum of g, transformed on first use and kept while g
    lives.  No check: each public caller makes its own."""
    sf = _SPECTRA.get(g)
    if sf is None:
        pre, post = _centring_phases(g.N, g.n, g.dx**g.n)
        sf = _SPECTRA[g] = _phased(g, SpectrumField, pre, post, False, g.t)
    return sf


def forward_transform(g: GridField) -> SpectrumField:
    """Riemann-sum transform of a grid snapshot in the global convention."""
    frac = boundary_mass_fraction(g)
    if frac > _ALIASING_THRESHOLD:
        raise AliasingError(frac, _ALIASING_THRESHOLD)
    return _spectrum(g)


def _inverse(sf: SpectrumField, t: float, symbol=None) -> GridField:
    """The inverse transform at time t of sf's values times symbol on
    every axis."""
    pre, post = _centring_phases(sf.N, sf.n, sf.dx**-sf.n)
    if symbol is not None:
        post = post * symbol
    return _phased(sf, GridField, post, pre, True, t)


def inverse_transform(sf: SpectrumField) -> GridField:
    """Exact inverse of forward_transform (both phases are involutions)."""
    return _inverse(sf, sf.t)


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
    out = _inverse(sf, g.t + t, np.exp(-4j * np.pi**2 * sf.axis()**2 * t))
    frac = boundary_mass_fraction(out)
    if frac > _ALIASING_THRESHOLD:
        raise AliasingError(frac, _ALIASING_THRESHOLD)
    return out


def hs_norm_sq(f, s: float) -> float:
    """Homogeneous Sobolev square norm int |xi|^(2s) |fhat(xi)|^2 dxi.

    Packet sums go through their closed-form transform and the adaptive
    shell quadrature, at the lab's fixed accuracy; spectrum fields through
    the weighted discrete sum.  The xi = 0 bin has weight 0 for s != 0
    (the origin carries no measure in the continuous integral) and 1 for
    s = 0, where the sum is the discrete Parseval mass.  s must be
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
    m n N complex exponentials, not m N^n.  The field is returned factored:
    the amplitudes B and those sampled factors.
    """
    ax = grid_axis(L, N)
    # factors[i, d, j]: packet i's factor along axis d at coordinate ax[j]
    diff = ax - state.c[:, :, None]
    factors = np.exp(-state.alpha[:, None, None] * diff**2
                     + 2j * np.pi * state.v[:, :, None] * ax)
    return GridField._from_factors(state.n, L, N, state.B, _sealed(factors), t=state.t)


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
    return _fsum(itertools.chain.from_iterable(
        np.vecdot(r, r).ravel().tolist() for r in rows))


def _inner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_k conj(u[..., k]) v[..., k], broadcast over the leading axes.

    Products then numpy's pairwise sum, not a BLAS dot: a dot of 2**14
    floats or more runs on a second thread.
    """
    return (np.conj(u) * v).sum(axis=-1)


# The Gram helpers pass a non-finite factor silently, as a dot would, to
# the caller's _finite check.
_QUIET = {"invalid": "ignore", "over": "ignore"}


@np.errstate(**_QUIET)
def _gram(u: np.ndarray) -> np.ndarray:
    """Per-axis Gram matrices of a factor set (P, n, K):
    G[d, p, q] = <u[p, d], u[q, d]>, shape (n, P, P)."""
    return np.moveaxis(_inner(u[:, None], u[None]), -1, 0)


@np.errstate(**_QUIET)
def _gram_sum(B: np.ndarray, G: np.ndarray) -> float:
    """Re sum_pq conj(B_p) B_q prod_d G[d, p, q]: with G = _gram(u), the
    grid sum of |sum_p B_p u_p0 x ... x u_p(n-1)|^2 without the grid."""
    return float((np.conj(B)[:, None] * np.prod(G, axis=0) * B).sum().real)


@np.errstate(**_QUIET)
def _gram_diagonal(B: np.ndarray, G: np.ndarray) -> float:
    """The p = q terms of _gram_sum: the packets' own masses, without
    their interference."""
    own = np.prod(np.diagonal(G, axis1=1, axis2=2), axis=0)
    return float((np.conj(B) * own * B).sum().real)


@np.errstate(**_QUIET)
def _difference(A, a, B, b):
    """sum_i A_i prod_d a_id - sum_i B_i prod_d b_id as m (n + 1) factored
    terms (coefficients, factors) that are each small where a and b agree.

    Packet i's two products differ by scalars per axis (the flow's
    (1 + 4 i alpha t)^(-1/2) rides on each evolved factor, the sampled
    state's on its amplitude), so each axis's mismatch is taken first:
    mu_d = <b_d, a_d - b_d>/<b_d, b_d>, from the difference itself, and
    r_d = a_d - (1 + mu_d) b_d.  With s_d = 1 + mu_d the packet's
    difference telescopes into

        (A prod_d s_d - B) prod_d b_d
        + sum_k A (prod_{d<k} s_d b_d) r_k (prod_{d>k} a_d),

    so its squared norm sums small terms, where ||a||^2 + ||b||^2
    - 2 Re <a, b> would lose everything below about 1e-8.
    """
    n = a.shape[1]
    d = a - b
    bb = _inner(b, b).real
    mu = np.divide(_inner(b, d), bb, out=np.zeros(bb.shape, complex), where=bb > 0.0)
    r = d - mu[..., None] * b
    s = 1.0 + mu
    coeffs = [A * np.prod(s, axis=1) - B]
    terms = [b]
    for k in range(n):
        coeffs.append(A * np.prod(s[:, :k], axis=1))
        terms.append(np.concatenate([b[:, :k], r[:, k:k + 1], a[:, k + 1:]], axis=1))
    return np.concatenate(coeffs), np.concatenate(terms)


def grid_l2_sq(g: GridField) -> float:
    """Discrete mass sum |samples|^2 dx^n.

    A factored field's mass is the grid Gram sum of its factors, and its
    samples are not built.  That sum carries about eps times its diagonal,
    the packets' own masses, so a field whose packets cancel to less than
    _GRAM_MIN_SHARE of the diagonal, and a general field, take the blocked
    _sum_sq of the samples.  A mass that is not finite raises
    InvalidParameterError.
    """
    if g._factors is not None:
        B, f = g._factors
        G = _gram(f)
        mass = _finite(_gram_sum(B, G))
        if mass >= _GRAM_MIN_SHARE * _gram_diagonal(B, G):
            return mass * g.dx**g.n
    return _finite(_sum_sq(g.samples)) * g.dx**g.n


def rel_l2_diff(a: GridField, b: GridField) -> float:
    """Relative L2 discrepancy between two same-layout snapshots.

    Two factored snapshots of as many packets are compared as grid Gram
    sums of their factors, the difference telescoped per packet
    (_difference).  Any other pair takes one pass over both float views,
    a block of _SUM_BLOCK floats at a time: the block's difference goes
    into one small buffer, and the block's three sums of squares are
    added up like _sum_sq's.
    """
    if (a.n, a.L, a.N) != (b.n, b.L, b.N):
        raise InvalidParameterError("snapshots live on different grids")
    if (a._factors is not None and b._factors is not None
            and len(a._factors[0]) == len(b._factors[0])):
        terms = (a._factors, b._factors, _difference(*a._factors, *b._factors))
        sq_a, sq_b, sq_d = (_gram_sum(c, _gram(u)) for c, u in terms)
    else:
        va, vb = _floats(a.samples).reshape(-1), _floats(b.samples).reshape(-1)
        buf = np.empty(min(_SUM_BLOCK, va.size))
        sums = []  # per block: sum a^2, sum b^2, sum (a - b)^2
        with np.errstate(invalid="ignore", over="ignore"):
            for i in range(0, va.size, _SUM_BLOCK):
                ra, rb = va[i:i + _SUM_BLOCK], vb[i:i + _SUM_BLOCK]
                d = np.subtract(ra, rb, out=buf[:ra.size])
                sums.append((np.dot(ra, ra), np.dot(rb, rb), np.dot(d, d)))
        sq_a, sq_b, sq_d = (_fsum(col) for col in zip(*sums))
    sq_a, sq_b, sq_d = map(_finite, (sq_a, sq_b, sq_d))
    den_sq = max(sq_a, sq_b)
    if den_sq == 0.0:
        return 0.0
    return math.sqrt(max(sq_d, 0.0) / den_sq)
