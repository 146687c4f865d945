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
    """Datum f as an ordered superposition of packets in dimension n."""

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

    def __len__(self) -> int:
        return len(self.packets)

    # parameter arrays, the form every numeric kernel consumes
    def parameter_arrays(self):
        m = len(self.packets)
        B = np.array([p.amplitude for p in self.packets], dtype=complex)
        a = np.array([p.width for p in self.packets], dtype=float)
        c = (
            np.array([p.center for p in self.packets], dtype=float)
            if m
            else np.zeros((0, self.n))
        )
        v = (
            np.array([p.momentum for p in self.packets], dtype=float)
            if m
            else np.zeros((0, self.n))
        )
        return B, a, c, v


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
    Re alpha_i > 0, real centers and momenta.  Completing the square in the
    pair product gives, with S = conj(alpha1_i) + alpha2_j,
    b = conj(alpha1_i) c1_i + alpha2_j c2_j and w = v2_j - v1_i,

        (pi/S)^(n/2) exp[ (b.b + 2 pi i w.b - pi^2 w.w)/S
                          - conj(alpha1_i)|c1_i|^2 - alpha2_j|c2_j|^2 ].

    The half-integer power uses the principal branch, which is safe because
    Re S > 0 keeps S off the cut.
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

    a1c = np.conj(alpha1)
    S = a1c[:, None] + alpha2[None, :]
    b = a1c[:, None, None] * c1[:, None, :] + alpha2[None, :, None] * c2[None, :, :]
    w = v2[None, :, :] - v1[:, None, :]
    bb = (b * b).sum(axis=-1)
    wb = (w * b).sum(axis=-1)
    ww = (w * w).sum(axis=-1)
    expo = (
        (bb + 2j * np.pi * wb - np.pi**2 * ww) / S
        - a1c[:, None] * (c1 * c1).sum(axis=-1)[:, None]
        - alpha2[None, :] * (c2 * c2).sum(axis=-1)[None, :]
    )
    pref = np.conj(B1)[:, None] * B2[None, :] * np.exp(
        0.5 * n * (np.log(np.pi) - np.log(S))
    )
    return complex((pref * np.exp(expo)).sum())


def l2_norm_sq(f: WavePacketSum) -> float:
    """int |f|^2 dx in closed form via pairwise Gaussian overlaps."""
    B, a, c, v = f.parameter_arrays()
    alpha = a.astype(complex)
    value = gaussian_inner(B, alpha, c, v, B, alpha, c, v)
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


def _frozen(values) -> np.ndarray:
    """A read-only complex array of values that no other reference can write.

    values is copied unless it and every array it views are read-only
    already, so a field never freezes its caller's array nor changes when
    the caller writes through a view's base.  The grid functions freeze the
    arrays they allocate, and those pass through without a copy.
    """
    a = np.asarray(values, dtype=complex)
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is not None:  # a writeable array or a foreign buffer holds the data
        a = a.copy()
    a.setflags(write=False)
    return a


def _set_layout(fld, array: str) -> None:
    """Check and normalise a grid field's layout in its __post_init__.

    The dimension n must be 1, 2 or 3, the half-width L finite and
    positive, the points per axis N positive and even, and the attribute
    named by array of shape (N,)*n; it is stored frozen, with t a float.
    """
    n, L, N = int(fld.n), float(fld.L), int(fld.N)
    if n not in (1, 2, 3):
        raise InvalidParameterError(f"grid dimension must be 1, 2 or 3, got {n}")
    if not 0.0 < L < np.inf:  # False for NaN too
        raise InvalidParameterError(f"half-width must be finite and positive, got {L}")
    if N <= 0 or N % 2:
        raise InvalidParameterError(f"points per axis must be positive even, got {N}")
    values = _frozen(getattr(fld, array))
    if values.shape != (N,) * n:
        raise InvalidParameterError(
            f"{array} shape {values.shape} does not match {(N,) * n}")
    for name, value in (("n", n), ("L", L), ("N", N), (array, values),
                        ("t", float(fld.t))):
        object.__setattr__(fld, name, value)


@dataclass(frozen=True, eq=False)
class GridField:
    """Uniform tensor-grid samples of a complex field on [-L, L)^n."""

    n: int
    L: float
    N: int
    samples: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        _set_layout(self, "samples")

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
