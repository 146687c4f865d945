"""Closed-form propagation of Gaussian packet sums.

A packet A exp(-a|x-x0|^2 + 2 pi i v.x) stays Gaussian under the free flow
i u_t + Lap u = 0.  Plugging the ansatz B(t) exp(-alpha(t)|x-c(t)|^2
+ 2 pi i v.x) into the equation and matching powers of (x - c) gives

    alpha(t) = a / (1 + 4 i a t),
    c(t)     = x0 + 4 pi v t,
    B(t)     = A (1 + 4 i a t)^(-n/2) exp(-4 pi^2 i |v|^2 t),

with v itself unchanged.  Everything downstream (quadrature, spectra,
asymptotics) consumes the flat parameter arrays of the resulting
GaussianState.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .model import WavePacketSum, gaussian_inner

_QUARTER_TURN = np.pi / 4.0


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Superposition sum_i B_i exp(-alpha_i|x-c_i|^2 + 2 pi i v_i.x).

    Complex widths alpha with Re alpha > 0; real centers and momenta.
    Acts as the pointwise evaluator for u(t, .).
    """

    n: int
    B: np.ndarray
    alpha: np.ndarray
    c: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        B = np.asarray(self.B, dtype=complex)
        alpha = np.asarray(self.alpha, dtype=complex)
        c = np.asarray(self.c, dtype=float).reshape(B.size, self.n)
        v = np.asarray(self.v, dtype=float).reshape(B.size, self.n)
        if B.size and not np.all(alpha.real > 0):
            raise InvalidParameterError("packet widths must have positive real part")
        for name, arr in (("B", B), ("alpha", alpha), ("c", c), ("v", v)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "t", float(self.t))

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
        val = gaussian_inner(self.B, self.alpha, self.c, self.v,
                             self.B, self.alpha, self.c, self.v)
        return max(val.real, 0.0)


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


def evolve_analytic(f: WavePacketSum, t: float) -> GaussianState:
    """Exact solution at time t of i u_t + Lap u = 0 with u(0) = f."""
    t = float(t)
    if not math.isfinite(t):
        raise InvalidParameterError(f"evolution time t must be finite, got {t}")
    B, a, c, v = f.parameter_arrays()
    g = 1.0 + 4j * a * t
    alpha = a / g
    vv = (v * v).sum(axis=-1)
    # principal branch of g^(-n/2); Re g = 1 > 0 keeps it off the cut
    Bt = B * np.exp(-0.5 * f.n * np.log(g)) * np.exp(-4j * np.pi**2 * vv * t)
    ct = c + 4.0 * np.pi * v * t
    return GaussianState(f.n, Bt, alpha, ct, v, t=t)


def fourier_state(f: WavePacketSum) -> GaussianState:
    """The transform of f (kernel exp(-2 pi i x.xi)) as a Gaussian family.

    Each packet transforms to amplitude A (pi/a)^(n/2) exp(2 pi i x0.v),
    width pi^2/a, center v and momentum -x0.
    """
    B, a, c, v = f.parameter_arrays()
    cv = (c * v).sum(axis=-1)
    Bhat = B * (np.pi / a) ** (0.5 * f.n) * np.exp(2j * np.pi * cv)
    return GaussianState(f.n, Bhat, (np.pi**2 / a).astype(complex), v, -c, t=0.0)


def dispersive_approx(f: WavePacketSum, t: float) -> GaussianState:
    """Far-field approximant: phase * (4 pi |t|)^(-n/2) * fhat(x/(4 pi t)).

    The constant phase is exp(-i sign(t) n pi/4) and the chirp
    exp(i|x|^2/(4t)) rides on top of the rescaled transform.  For packet
    data this is again a Gaussian family:

        alpha = pi^2/(a mu^2) - i/(4t),   mu = 4 pi t,
        center mu v,  momentum v - x0/mu,
        amplitude A (pi/a)^(n/2) (4 pi |t|)^(-n/2)
                  * exp(-i sign(t) n pi/4) exp(-4 pi^2 i |v|^2 t)
                  * exp(2 pi i x0.v).
    """
    t = float(t)
    if not math.isfinite(t):
        raise InvalidParameterError(f"approximant time t must be finite, got {t}")
    if t == 0.0:
        raise InvalidParameterError("asymptotic approximant undefined at t = 0")
    B, a, c, v = f.parameter_arrays()
    mu = 4.0 * np.pi * t
    alpha = np.pi**2 / (a * mu**2) - 0.25j / t
    vv = (v * v).sum(axis=-1)
    cv = (c * v).sum(axis=-1)
    Bt = (
        B
        * (np.pi / a) ** (0.5 * f.n)
        * (4.0 * np.pi * abs(t)) ** (-0.5 * f.n)
        * np.exp(-1j * np.sign(t) * f.n * _QUARTER_TURN)
        * np.exp(-4j * np.pi**2 * vv * t)
        * np.exp(2j * np.pi * cv)
    )
    return GaussianState(f.n, Bt, alpha, mu * v, v - c / mu, t=t)
