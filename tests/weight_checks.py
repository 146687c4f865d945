"""Test helpers for radial weights."""

import numpy as np

from smoothing_lab.model import RadialWeight


def derivative_stack_check(w: RadialWeight) -> dict:
    """Scale-relative central-difference error of d^j vs d^(j-1), j = 1..4.

    The differences use step h = 1e-4 at 200 log-spaced radii in
    [0.01, 50].  Error for order j is max_r |fd - d^j(r)| / max_r |d^j(r)|:
    relative to the lattice-wide scale of that derivative order, since
    pointwise relative error is ill-posed where d^j vanishes identically
    (weight tails) or underflows at flat transition endpoints.
    """
    radii = np.geomspace(0.01, 50.0, 200)
    h = 1e-4
    errs = {}
    stack = [w.d0, w.d1, w.d2, w.d3, w.d4]
    for j in range(1, 5):
        fd = (stack[j - 1](radii + h) - stack[j - 1](radii - h)) / (2.0 * h)
        exact = stack[j](radii)
        scale = np.max(np.abs(exact))
        if scale == 0.0:
            scale = max(np.max(np.abs(fd)), 1.0)
        errs[j] = float(np.max(np.abs(fd - exact)) / scale)
    return errs
