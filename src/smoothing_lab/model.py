"""Domain types shared by every module.

Initial data are finite sums of Gaussian wave packets

    f(x) = sum_i A_i exp(-a_i |x - x0_i|^2 + 2 pi i v_i . x),

with a_i > 0.  They are Schwartz class, evolve in closed form under the
free Schrodinger flow, and have closed-form pairwise L2 overlaps, so every
space-time functional computed by quadrature has an analytic cross-check.
Momenta are stored so that the Fourier transform of a packet (kernel
exp(-2 pi i x.xi)) is centered exactly at v -- no stray 2 pi factors.

The other residents: grid snapshots for the spectral propagator, radial
multiplier weights as analytic derivative stacks, and the per-experiment
verification report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameterError


# ---------------------------------------------------------------------------
# wave packets
# ---------------------------------------------------------------------------

def _as_vector(x, n_hint=None) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise InvalidParameterError("packet vectors must be one-dimensional")
    if n_hint is not None and v.size != n_hint:
        raise InvalidParameterError(
            f"vector length {v.size} does not match dimension {n_hint}"
        )
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError("packet vectors must be finite")
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class WavePacket:
    """One Gaussian packet A exp(-a|x-x0|^2 + 2 pi i v.x)."""

    amplitude: complex
    width: float
    center: np.ndarray
    momentum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "width", float(self.width))
        if not np.isfinite(self.width) or self.width <= 0.0:
            raise InvalidParameterError(f"packet width must be positive, got {self.width}")
        if not np.isfinite(self.amplitude):
            raise InvalidParameterError("packet amplitude must be finite")
        center = _as_vector(self.center)
        momentum = _as_vector(self.momentum, n_hint=center.size)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "momentum", momentum)

    @property
    def n(self) -> int:
        return self.center.size


@dataclass(frozen=True, eq=False)
class WavePacketSum:
    """Datum f as an ordered superposition of packets in dimension n.

    Also holds the packets as read-only arrays under a GaussianState's
    names: amplitudes B and widths alpha (m,), centres c and momenta v (m, n).
    """

    n: int
    packets: tuple

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise InvalidParameterError(f"dimension must be >= 1, got {n}")
        object.__setattr__(self, "n", n)
        pk = tuple(self.packets)
        for p in pk:
            if not isinstance(p, WavePacket):
                raise InvalidParameterError("packets must be WavePacket instances")
            if p.n != n:
                raise InvalidParameterError(
                    f"packet dimension {p.n} does not match datum dimension {n}"
                )
        object.__setattr__(self, "packets", pk)
        for name, arr in (
            ("B", np.array([p.amplitude for p in pk], dtype=complex)),
            ("alpha", np.array([p.width for p in pk], dtype=float)),
            # astype copies, so no writable base lies under the reshape
            ("c", np.reshape([p.center for p in pk], (-1, n)).astype(float)),
            ("v", np.reshape([p.momentum for p in pk], (-1, n)).astype(float)),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.packets)


def packet(amplitude, width, center, momentum=None) -> WavePacket:
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if momentum is None:
        momentum = np.zeros_like(center)
    return WavePacket(amplitude, width, center, momentum)


def packet_sum(packets: Sequence[WavePacket], n: int | None = None) -> WavePacketSum:
    packets = tuple(packets)
    if n is None:
        if not packets:
            raise InvalidParameterError("empty packet list needs an explicit dimension")
        n = packets[0].n
    return WavePacketSum(n, packets)


def translate(f: WavePacketSum, shift) -> WavePacketSum:
    """The datum x -> f(x - shift).

    Centers move by the shift and each amplitude picks up the phase
    exp(-2 pi i v.shift); moduli are unchanged.
    """
    h = _as_vector(shift, n_hint=f.n)
    return WavePacketSum(
        f.n,
        tuple(
            WavePacket(
                p.amplitude * np.exp(-2j * np.pi * float(p.momentum @ h)),
                p.width,
                p.center + h,
                p.momentum,
            )
            for p in f.packets
        ),
    )


def dilate(f: WavePacketSum, lam: float) -> WavePacketSum:
    """The datum x -> f(lam * x)."""
    lam = float(lam)
    if lam <= 0:
        raise InvalidParameterError(f"dilation factor must be positive, got {lam}")
    return WavePacketSum(
        f.n,
        tuple(
            WavePacket(p.amplitude, p.width * lam**2, p.center / lam, p.momentum * lam)
            for p in f.packets
        ),
    )


# ---------------------------------------------------------------------------
# closed-form L2 pairing of complex-width Gaussian families
# ---------------------------------------------------------------------------

def gaussian_inner(B1, alpha1, c1, v1, B2, alpha2, c2, v2) -> complex:
    """<p, q> = int conj(p) q dx for two families of Gaussian packets.

    Each family is sum_i B_i exp(-alpha_i |x-c_i|^2 + 2 pi i v_i.x) with
    Re alpha_i > 0, real centers and momenta.  Each pair product is a
    Gaussian centred between its two packets (the Gaussian product
    theorem), so with S = conj(alpha1_i) + alpha2_j, the separation
    d = c2_j - c1_i and w = v2_j - v1_i its integral is

        (pi/S)^(n/2) exp[ 2 pi i w.c1_i
                          + (2 pi i alpha2_j w.d - conj(alpha1_i) alpha2_j |d|^2
                             - pi^2 w.w)/S ],

    with no terms of size alpha |c|^2 to cancel, as completing the square
    about the origin has.  The half-integer power uses the principal
    branch, which is safe because Re S > 0 keeps S off the cut.
    """
    B1 = np.asarray(B1, dtype=complex)
    B2 = np.asarray(B2, dtype=complex)
    alpha1 = np.asarray(alpha1, dtype=complex)
    alpha2 = np.asarray(alpha2, dtype=complex)
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    if B1.size == 0 or B2.size == 0:
        return 0.0 + 0.0j
    n = c1.shape[1]

    a1c = np.conj(alpha1)[:, None]
    a2 = alpha2[None, :]
    S = a1c + a2
    d = c2[None, :, :] - c1[:, None, :]
    w = v2[None, :, :] - v1[:, None, :]
    expo = 2j * np.pi * (w * c1[:, None, :]).sum(axis=-1) + (
        2j * np.pi * a2 * (w * d).sum(axis=-1) - a1c * a2 * (d * d).sum(axis=-1)
        - np.pi**2 * (w * w).sum(axis=-1)) / S
    pref = np.conj(B1)[:, None] * B2[None, :] * np.exp(
        0.5 * n * (np.log(np.pi) - np.log(S))
    )
    return complex((pref * np.exp(expo)).sum())


def l2_norm_sq(f) -> float:
    """int |f|^2 dx in closed form via pairwise Gaussian overlaps, for a
    WavePacketSum or a GaussianState."""
    value = gaussian_inner(f.B, f.alpha, f.c, f.v, f.B, f.alpha, f.c, f.v)
    # the Gram sum is real and nonnegative up to roundoff
    return max(value.real, 0.0)


def relative_residual(lhs, rhs, floor: float):
    """|lhs - rhs| / max(|lhs|, |rhs|, floor); floor keeps 0 = 0 well posed."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    denom = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), floor)
    denom = np.where(denom > 0, denom, 1.0)
    return np.abs(lhs - rhs) / denom


# ---------------------------------------------------------------------------
# randomized packet suites
# ---------------------------------------------------------------------------

def random_packet_suite(
    n: int,
    count: int = 5,
    packets_per_datum: int = 2,
    seed: int = 0,
    center_scale: float = 1.0,
) -> list[WavePacketSum]:
    """Deterministic suite of packet sums for randomized experiments.

    Moduli lie in [0.5, 1.2], widths in [0.6, 1.8], centres in the cube of
    half-side center_scale and momenta in the cube of half-side 0.5.
    """
    rng = np.random.default_rng(seed)
    suite = []
    for _ in range(count):
        pk = []
        for _ in range(packets_per_datum):
            mod = rng.uniform(0.5, 1.2)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            a = rng.uniform(0.6, 1.8)
            x0 = rng.uniform(-center_scale, center_scale, size=n)
            v = rng.uniform(-0.5, 0.5, size=n)
            pk.append(WavePacket(mod * np.exp(1j * phase), a, x0, v))
        suite.append(WavePacketSum(n, tuple(pk)))
    return suite


# ---------------------------------------------------------------------------
# grid snapshots
# ---------------------------------------------------------------------------

def grid_axis(L: float, N: int) -> np.ndarray:
    """Sample points -L + j*(2L/N), j = 0..N-1, over the box [-L, L)."""
    return -L + (2.0 * L / N) * np.arange(N)


def _frozen(values, dtype) -> np.ndarray:
    """A read-only dtype array of values that no other reference can write.

    values is copied unless it and every array it views are read-only
    already, so a field or state never freezes its caller's array nor
    changes when the caller writes through a view's base.  The arrays the
    grid functions allocate and freeze, and a datum's, pass uncopied.
    """
    a = np.asarray(values, dtype=dtype)
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is not None:  # a writeable array or a foreign buffer holds the data
        a = a.copy()
    a.setflags(write=False)
    return a


_FACTOR_BLOCK = 2**15  # elements per chunk of a blocked grid pass


def _outer_sum(B: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """sum_i B_i factors[i, 0] x ... x factors[i, n-1], frozen.

    Each term's outer product over the axes after the first, N^(n-1)
    values, is built once; the grid is then filled a chunk of first-axis
    rows at a time, about _FACTOR_BLOCK elements, every term's rows
    multiplied and added while the chunk is in cache.  No matrix product:
    OpenBLAS would hand one of grid size to a second thread, which then
    spins.  A non-finite factor gives non-finite samples silently; the
    grid path's mass checks reject them.
    """
    m, n, N = factors.shape
    out = np.zeros((N,) * n, dtype=complex)  # no terms leave it zero
    flat = out.reshape(N, -1)
    rows = max(1, _FACTOR_BLOCK // flat.shape[1])
    buf = np.empty((min(rows, N), flat.shape[1]), dtype=complex)
    with np.errstate(invalid="ignore", over="ignore"):
        lead = B[:, None] * factors[:, 0]
        rest = np.ones((m, 1), dtype=complex)
        for d in range(1, n):
            rest = (rest[:, :, None] * factors[:, d, None, :]).reshape(m, N**d)
        for i in range(0, N, rows):
            chunk = flat[i:i + rows]
            if m:
                np.multiply(lead[0, i:i + rows, None], rest[0], out=chunk)
            for p in range(1, m):
                chunk += np.multiply(lead[p, i:i + rows, None], rest[p], out=buf[:len(chunk)])
    out.setflags(write=False)
    return out


class _GridLayout:
    """The layout both grid field types share, and their factored form.

    A field holds its array (GridField.samples, SpectrumField.values)
    itself, or factored: amplitudes B (m,) and per-axis factors
    (m, n, N), the array being sum_i B_i factors[i, 0] x ... x
    factors[i, n-1].  A factored field builds its array on first read,
    once, frozen, and keeps it.

    __post_init__ checks and normalises the layout: the dimension n must
    be 1, 2 or 3, the half-width L finite and positive, the points per
    axis N positive and even, the time t finite, and the array of shape
    (N,)*n, or the factors of shape (m, n, N) for m amplitudes; arrays
    are stored frozen, with t a float.
    """

    _array = "samples"  # the name of the field's array
    _factors = None  # (B, factors) of a factored field

    @classmethod
    def _from_factors(cls, n, L, N, B, factors, t=0.0):
        """The factored field of amplitudes B and per-axis factors."""
        fld = object.__new__(cls)
        for name, value in (("n", n), ("L", L), ("N", N), ("t", t),
                            ("_factors", (B, factors))):
            object.__setattr__(fld, name, value)
        fld.__post_init__()
        return fld

    def __post_init__(self):
        n, L, N = int(self.n), float(self.L), int(self.N)
        if n not in (1, 2, 3):
            raise InvalidParameterError(f"grid dimension must be 1, 2 or 3, got {n}")
        if not 0.0 < L < np.inf:  # False for NaN too
            raise InvalidParameterError(f"half-width must be finite and positive, got {L}")
        if N <= 0 or N % 2:
            raise InvalidParameterError(f"points per axis must be positive even, got {N}")
        if self._factors is None:
            array = _frozen(getattr(self, self._array), complex)
            if array.shape != (N,) * n:
                raise InvalidParameterError(
                    f"{self._array} shape {array.shape} does not match {(N,) * n}")
            stored = (self._array, array)
        else:
            B, factors = (_frozen(a, complex) for a in self._factors)
            if B.ndim != 1 or factors.shape != (B.size, n, N):
                raise InvalidParameterError(
                    f"factors shape {factors.shape} does not match {(B.size, n, N)}")
            stored = ("_factors", (B, factors))
        t = float(self.t)
        if not np.isfinite(t):
            raise InvalidParameterError(f"time must be finite, got {t}")
        for name, value in (("n", n), ("L", L), ("N", N), stored, ("t", t)):
            object.__setattr__(self, name, value)

    def __getattr__(self, name):
        # reached only for a missing attribute: a factored field's array
        # before its first read
        if name != self._array or self._factors is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        # setdefault: of two threads reading at once, both get one array
        return self.__dict__.setdefault(name, _outer_sum(*self._factors))


@dataclass(frozen=True, eq=False)
class GridField(_GridLayout):
    """Uniform tensor-grid samples of a complex field on [-L, L)^n."""

    n: int
    L: float
    N: int
    samples: np.ndarray
    t: float = 0.0

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    def axis(self) -> np.ndarray:
        return grid_axis(self.L, self.N)


# ---------------------------------------------------------------------------
# radial weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RadialWeight:
    """A radial multiplier as an analytic derivative stack.

    d0..d4 map radii r >= 0 to psi, psi', psi'', psi''', psi''''.  slope_inf
    is lim_{r->inf} psi'(r).  knots lists radii where the definition changes
    piece (quadrature aligns panel edges there).
    """

    d0: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray], np.ndarray]
    d3: Callable[[np.ndarray], np.ndarray]
    d4: Callable[[np.ndarray], np.ndarray]
    slope_inf: float
    label: str
    knots: tuple = ()


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class VerificationReport:
    """Per-experiment record: schedule, two sides, residuals, limit, verdict.

    The harness sets datum_id to the datum's label from the config.
    """

    experiment: str
    n: int
    weight_id: str
    params: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    tolerance: float
    floor: float
    datum_id: str = "datum"
    extrapolated_limit: float = float("nan")
    limit_error: float = float("nan")
    passed: bool = False
    notes: str = ""
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        self.lhs = np.asarray(self.lhs, dtype=float)
        self.rhs = np.asarray(self.rhs, dtype=float)
        if not (self.params.shape == self.lhs.shape == self.rhs.shape):
            raise InvalidParameterError("schedule, lhs and rhs must align")

    @property
    def abs_residual(self) -> np.ndarray:
        return np.abs(self.lhs - self.rhs)

    @property
    def rel_residual(self) -> np.ndarray:
        return relative_residual(self.lhs, self.rhs, self.floor)
