"""Closed-form propagation of Gaussian packet sums.

A packet A exp(-a|x-x0|^2 + 2 pi i v.x) stays Gaussian under the free flow
i u_t + Lap u = 0.  Plugging the ansatz B(t) exp(-alpha(t)|x-c(t)|^2
+ 2 pi i v.x) into the equation and matching powers of (x - c) gives

    alpha(t) = a / (1 + 4 i a t),
    c(t)     = x0 + 4 pi v t,
    B(t)     = A (1 + 4 i a t)^(-n/2) exp(-4 pi^2 i |v|^2 t),

with v itself unchanged.  These closed forms read a datum's packet arrays
B, alpha, c and v.  _evolve_times evaluates them at an array of times at
once, the arrays a time panel integrates; its one-time case
evolve_analytic returns a GaussianState with arrays of the same names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .model import WavePacketSum, _frozen, l2_norm_sq

_QUARTER_TURN = np.pi / 4.0


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Superposition sum_i B_i exp(-alpha_i|x-c_i|^2 + 2 pi i v_i.x).

    Complex widths alpha with Re alpha > 0; real centers and momenta; a
    finite time t and finite arrays.
    Acts as the pointwise evaluator for u(t, .).
    """

    n: int
    B: np.ndarray
    alpha: np.ndarray
    c: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        B = _frozen(self.B, complex)
        alpha = _frozen(self.alpha, complex)
        c, v = _frozen(self.c, float), _frozen(self.v, float)
        wrong = [f"{name} holds {arr.size} values, not {per * B.size}"
                 for name, arr, per in (("alpha", alpha, 1), ("c", c, self.n),
                                        ("v", v, self.n)) if arr.size != per * B.size]
        if wrong:
            raise InvalidParameterError(
                f"packet arrays disagree with B's {B.size} packets: " + ", ".join(wrong))
        c, v = c.reshape(B.size, self.n), v.reshape(B.size, self.n)
        t = float(self.t)
        if not (math.isfinite(t) and all(np.all(np.isfinite(a)) for a in (B, alpha, c, v))):
            raise InvalidParameterError("state time and packet arrays must be finite")
        if B.size and not np.all(alpha.real > 0):
            raise InvalidParameterError("packet widths must have positive real part")
        for name, arr in (("B", B), ("alpha", alpha), ("c", c), ("v", v)):
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "t", t)

    def __len__(self):
        return self.B.size

    # -- pointwise evaluation -------------------------------------------------

    def _exponents(self, x: np.ndarray) -> np.ndarray:
        # x: (..., n) -> per-packet exponents (..., m)
        diff = x[..., None, :] - self.c  # (..., m, n)
        quad = (diff * diff).sum(axis=-1)
        phase = np.tensordot(x, self.v, axes=([-1], [-1]))
        return -self.alpha * quad + 2j * np.pi * phase

    def values(self, x) -> np.ndarray:
        """u at points x of shape (..., n); returns shape (...)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n:
            raise InvalidParameterError(f"points must have trailing dimension {self.n}")
        if len(self) == 0:
            return np.zeros(x.shape[:-1], dtype=complex)
        terms = self.B * np.exp(self._exponents(x))
        return terms.sum(axis=-1)

    def mass(self) -> float:
        """int |u|^2 dx by closed-form overlaps."""
        return l2_norm_sq(self)


def difference_state(a: GaussianState, b: GaussianState) -> GaussianState:
    """The state a - b as one packet family (for L2 error integrands)."""
    if a.n != b.n:
        raise InvalidParameterError("states live in different dimensions")
    return GaussianState(
        a.n,
        np.concatenate([a.B, -b.B]),
        np.concatenate([a.alpha, b.alpha]),
        np.concatenate([a.c, b.c]),
        np.concatenate([a.v, b.v]),
        t=a.t,
    )


def _evolve_times(f: WavePacketSum, ts):
    """The packet arrays (B, alpha, c, v, t) of the evolution of f to the
    times ts, one row per time: shapes (T, m), (T, m), (T, m, n), (T, m, n)
    and (T,), with v a read-only view of f.v.  B is broadcast before the
    product so that each row rounds as the one-time case does."""
    t = np.asarray(ts, dtype=float)
    tc = t[:, None]
    g = 1.0 + 4j * f.alpha * tc
    vv = (f.v * f.v).sum(axis=-1)
    # principal branch of g^(-n/2); Re g = 1 > 0 keeps it off the cut
    B = (np.broadcast_to(f.B, g.shape) * np.exp(-0.5 * f.n * np.log(g))
         * np.exp(-4j * np.pi**2 * vv * tc))
    c = f.c + 4.0 * np.pi * f.v * tc[..., None]
    return B, f.alpha / g, c, np.broadcast_to(f.v, c.shape), t


def evolve_analytic(f: WavePacketSum, t: float) -> GaussianState:
    """Exact solution at time t of i u_t + Lap u = 0 with u(0) = f."""
    t = float(t)
    if not math.isfinite(t):
        raise InvalidParameterError(f"evolution time t must be finite, got {t}")
    B, alpha, c, v, _ = _evolve_times(f, [t])
    return GaussianState(f.n, B[0], alpha[0], c[0], v[0], t=t)


def fourier_state(f: WavePacketSum) -> GaussianState:
    """The transform of f (kernel exp(-2 pi i x.xi)) as a Gaussian family.

    Each packet transforms to amplitude A (pi/a)^(n/2) exp(2 pi i x0.v),
    width pi^2/a, center v and momentum -x0.
    """
    cv = (f.c * f.v).sum(axis=-1)
    Bhat = f.B * (np.pi / f.alpha) ** (0.5 * f.n) * np.exp(2j * np.pi * cv)
    return GaussianState(f.n, Bhat, np.pi**2 / f.alpha, f.v, -f.c, t=0.0)


def dispersive_approx(f: WavePacketSum, t: float) -> GaussianState:
    """Far-field approximant: phase * (4 pi |t|)^(-n/2) * fhat(x/(4 pi t)).

    The constant phase is exp(-i sign(t) n pi/4) and the chirp
    exp(i|x|^2/(4t)) rides on top of the rescaled transform.  With
    mu = 4 pi t, fhat(x/mu) is fourier_state(f) with each width alpha
    divided by mu^2, centre xi0 multiplied by mu and momentum by 1/mu.
    Expanded about the centre mu xi0, the chirp adds -i/(4t) to the width,
    xi0 to the momentum and the phase exp(-4 pi^2 i |xi0|^2 t) to the
    amplitude, so the approximant is again a Gaussian family.
    """
    t = float(t)
    if not math.isfinite(t):
        raise InvalidParameterError(f"approximant time t must be finite, got {t}")
    if t == 0.0:
        raise InvalidParameterError("asymptotic approximant undefined at t = 0")
    fhat = fourier_state(f)
    mu = 4.0 * np.pi * t
    xx = (fhat.c * fhat.c).sum(axis=-1)
    Bt = (
        fhat.B
        * abs(mu) ** (-0.5 * f.n)
        * np.exp(-1j * np.sign(t) * f.n * _QUARTER_TURN)
        * np.exp(-4j * np.pi**2 * xx * t)
    )
    return GaussianState(f.n, Bt, fhat.alpha / mu**2 - 0.25j / t,
                         mu * fhat.c, fhat.c + fhat.v / mu, t=t)
