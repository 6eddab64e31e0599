"""The large-argument coefficients of ``cfm.sine_integral``, from mpmath.

For x > 4, Si(x) = pi/2 - f(x) cos x - g(x) sin x, with the auxiliary
functions f = Ci sin x + (pi/2 - Si) cos x and g = -Ci cos x + (pi/2 - Si)
sin x (Abramowitz & Stegun 5.2.8-5.2.9).  Both are Laplace transforms,
f(x) = int_0^inf e^(-x s) / (1 + s^2) ds and g(x) = int_0^inf s e^(-x s) /
(1 + s^2) ds, so x f(x) and x^2 g(x) are Stieltjes functions of u = (4/x)^2
on [0, 1], each 1 at u = 0, whose rational approximants have their poles
on the negative u axis and positive coefficients.  Horner's rule in u then
adds terms of one sign, with no cancellation.

This script fits both over one denominator, x f = P(u) / Q(u) and
x^2 g = R(u) / Q(u), all of degree DEGREE with P(0) = R(0) = Q(0) = 1, so
that the kernel evaluates three polynomials and divides once.  The fit is
in 40-digit arithmetic: a least-squares fit of P - F Q and R - G Q,
weighted by 1 / (F Q) with Q from the previous pass (Sanathanan-Koerner
iteration), at Chebyshev points of u.  It prints the coefficients as
``cfm._SI_AUXILIARY`` holds them: rows (P, R, Q), columns from the highest
power of u down, each rounded once to the nearest double; then the largest
relative error of x f and x^2 g on a fine grid.

Run from the repository root: ``python3 tests/sine_integral_coefficients.py``.
"""

from __future__ import annotations

import textwrap

import mpmath as mp

DEGREE = 11
DIGITS = 40
POINTS = 60
PASSES = 4


def auxiliary(u):
    """(x f(x), x^2 g(x)) at x = 4 / sqrt(u), for an mpmath u in (0, 1]."""
    x = 4 / mp.sqrt(u)
    si, ci = mp.si(x), mp.ci(x)
    rest = mp.pi / 2 - si
    f = ci * mp.sin(x) + rest * mp.cos(x)
    g = -ci * mp.cos(x) + rest * mp.sin(x)
    return x * f, x * x * g


def fit(us, values, degree: int = DEGREE):
    """P, R and Q, lowest power first, of the fit of the (x f, x^2 g) pairs
    ``values`` at ``us``: P - F Q = 0 is (P - 1) - F (Q - 1) = F - 1, and
    likewise for R and G, in the 3 ``degree`` unknown coefficients, ordered
    Q, P, R (Q first, since its columns are nonzero in every row)."""
    q_prev = [mp.mpf(1)] * len(us)
    for _ in range(PASSES):
        rows, rhs = [], []
        for u, pair, q in zip(us, values, q_prev):
            powers = [u ** k for k in range(1, degree + 1)]
            for which, f in enumerate(pair):
                w = 1 / (f * q)
                row = [-f * p * w for p in powers] + [0] * (2 * degree)
                row[degree * (1 + which):degree * (2 + which)] = [
                    p * w for p in powers]
                rows.append(row)
                rhs.append((f - 1) * w)
        x, _res = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))
        q, p, r = ([mp.mpf(1)] + [x[degree * j + k] for k in range(degree)]
                   for j in range(3))
        q_prev = [mp.polyval(q[::-1], u) for u in us]
    return p, r, q


def coefficients() -> tuple[tuple[float, ...], ...]:
    """The three rows of ``cfm._SI_AUXILIARY``."""
    with mp.workdps(DIGITS):
        us = [(mp.cos(mp.pi * (k + mp.mpf(1) / 2) / POINTS) + 1) / 2
              for k in range(POINTS)] + [mp.mpf(1)]
        values = [auxiliary(u) for u in us]
        return tuple(tuple(float(c) for c in reversed(poly))
                     for poly in fit(us, values))


def max_errors(rows, n: int = 2000) -> tuple[float, float]:
    """The largest relative error of x f and x^2 g, from the rounded rows,
    on [0, 1] in u."""
    with mp.workdps(DIGITS):
        errors = [mp.mpf(0), mp.mpf(0)]
        for k in range(1, n + 1):
            u = mp.mpf(k) / n
            q = mp.polyval(rows[2], u)
            for which, value in enumerate(auxiliary(u)):
                approx = mp.polyval(rows[which], u) / q
                errors[which] = max(errors[which], abs(approx / value - 1))
        return float(errors[0]), float(errors[1])


def main() -> None:
    rows = coefficients()
    print("_SI_AUXILIARY = (")
    for row in rows:
        print(textwrap.fill(", ".join(repr(c) for c in row) + "),", 79,
                            initial_indent="    (",
                            subsequent_indent="     "))
    print(")")
    print("# max relative error: x f %.2e, x^2 g %.2e" % max_errors(rows))


if __name__ == "__main__":
    main()
