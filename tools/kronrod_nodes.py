"""Derive the 33-point Gauss-Kronrod rule K33 and print its table.

    python3 tools/kronrod_nodes.py [--digits 60]

K33 is Kronrod's extension of the 16-point Gauss-Legendre rule G16
(Kronrod 1965; Laurie, Math. Comp. 66, 1997): the 16 Gauss nodes plus the
17 roots of the Stieltjes polynomial E17, with weights that make the rule
exact through degree 3 * 16 + 1 = 49.  The tool works in three steps:

1. E17, monic of degree 17, is orthogonal on [-1, 1] to P16(x) x^k for
   k = 0, ..., 16.  Its coefficients solve a linear system whose entries,
   the moments of P16 against x^k, are exact fractions.
2. Its 17 roots, and the 16 roots of P16.

Every step after the moments runs at DIGITS significant digits.
3. The 33 weights from exactness on the Legendre polynomials P0, ..., P32.

It checks the rule on every x^k, k <= 49, and that every weight is
positive, then prints the tuples _K33_X, _K33_W and _K33_W_GAUSS of
smoothing_lab/quadrature.py in the layout of its qk21 table: the
nonnegative Kronrod nodes by increasing |x|, their weights, and the K33
weights at the positive Gauss nodes by increasing |x|.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from math import comb

import mpmath as mp

GAUSS = 16
DEGREE = 3 * GAUSS + 1  # the exact degree of the Kronrod extension


def legendre_coefficients(m: int) -> list:
    """Coefficients of P_m by increasing power, as exact fractions."""
    coef = [Fraction(0)] * (m + 1)
    for k in range(m // 2 + 1):
        coef[m - 2 * k] = Fraction((-1) ** k * comb(m, k) * comb(2 * m - 2 * k, m), 2**m)
    return coef


def moment(coef: list, power: int) -> Fraction:
    """int_{-1}^{1} p(x) x^power dx for the polynomial p with coefficients coef."""
    return sum((c * Fraction(2, i + power + 1) for i, c in enumerate(coef)
                if (i + power) % 2 == 0), Fraction(0))


def mpf(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / x.denominator


def stieltjes_coefficients() -> list:
    """Coefficients of the monic E17 by increasing power."""
    p = legendre_coefficients(GAUSS)
    size = GAUSS + 1
    matrix = mp.matrix([[mpf(moment(p, j + k)) for j in range(size)]
                        for k in range(size)])
    solved = mp.lu_solve(matrix, mp.matrix([-mpf(moment(p, size + k))
                                            for k in range(size)]))
    return [solved[j] for j in range(size)] + [mp.mpf(1)]


def roots(coef: list) -> list:
    """The roots of the polynomial with coefficients coef, sorted; all of
    them must be real."""
    found = mp.polyroots(coef[::-1], maxsteps=500, extraprec=4 * mp.mp.prec)
    if any(abs(mp.im(x)) > mp.mpf(10) ** (-mp.mp.dps // 2) for x in found):
        sys.exit("a polynomial that must have real roots has complex ones")
    return sorted(mp.re(x) for x in found)


def rule():
    """(Gauss nodes, Kronrod nodes, weights at those, in that order)."""
    gauss = roots([mpf(c) for c in legendre_coefficients(GAUSS)])
    kronrod = roots(stieltjes_coefficients())
    nodes = gauss + kronrod
    matrix = mp.matrix([[mp.legendre(k, x) for x in nodes] for k in range(len(nodes))])
    rhs = mp.matrix([2] + [0] * (len(nodes) - 1))
    weights = mp.lu_solve(matrix, rhs)
    return gauss, kronrod, [weights[i] for i in range(len(nodes))]


def check(nodes: list, weights: list) -> mp.mpf:
    """Largest error of the rule on x^k over k <= DEGREE."""
    worst = mp.mpf(0)
    for k in range(DEGREE + 1):
        exact = mp.mpf(0) if k % 2 else mp.mpf(2) / (k + 1)
        worst = max(worst, abs(mp.fsum(w * x**k for x, w in zip(nodes, weights)) - exact))
    return worst


def literal(name: str, values: list) -> str:
    """A tuple of floats wrapped at 88 columns, as quadrature.py writes its tables."""
    lines, line = [], f"{name} = ("
    indent = " " * len(line)
    for i, v in enumerate(values):
        item = repr(float(v)) + (", " if i < len(values) - 1 else ")")
        if len(line) + len(item.rstrip()) > 88:
            lines.append(line.rstrip())
            line = indent
        line += item
    return "\n".join(lines + [line])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--digits", type=int, default=60,
                        help="working precision in significant digits (at least 30)")
    args = parser.parse_args(argv)
    if args.digits < 30:
        parser.error("--digits must be at least 30")
    mp.mp.dps = args.digits
    gauss, kronrod, weights = rule()
    error = check(gauss + kronrod, weights)
    tiny = mp.mpf(10) ** (-(args.digits - 10))
    if error > tiny or min(weights) <= 0:
        sys.exit(f"K33 failed its check: error {mp.nstr(error, 3)}, "
                 f"least weight {mp.nstr(min(weights), 3)}")
    wg, wk = weights[:GAUSS], weights[GAUSS:]
    half = GAUSS // 2
    print(f"# exact through degree {DEGREE} to {mp.nstr(error, 3)} at "
          f"{args.digits} digits; least weight {mp.nstr(min(weights), 6)}")
    print(literal("_K33_X", [abs(x) for x in kronrod[half:]]))
    print(literal("_K33_W", wk[half:]))
    print(literal("_K33_W_GAUSS", wg[half:]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
