"""The Wronskian change of basis beta_m(u) in closed form, and its inverse
by substitution, on the standard library alone: the exact layer
(``brmatrices``) and the numeric one (``besselnum``) both read it, and
the numeric layer loads no exact algebra for it.

Entry (a, b) of beta_m(u) is c_ab u^(b - r_a) (``coeff_power``), with
h = ceil(m/2) and r_a = a for a <= h, a - h above (``row_powers``).  So
beta_m(u) = R^-1 beta_m(1) C with R = diag(u^r_a) and C = diag(u^b), and
beta_m(u)^-1 = C^-1 beta_m(1)^-1 R: its entry (i, j) is that of
beta_m(1)^-1 times u^(r_j - i) (``inverse``).

beta_m(1) has integer entries and is a row permutation of a lower
triangular matrix: row a <= h ends at column 2a - 1, on (-4)^(a-1), and
row h + l at column 2l, on 2 (-4)^(l-1).  ``inverse_at_1`` inverts it by
forward substitution in integers over the product of those diagonal
entries, a power of two, so it needs no elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

__all__ = ["coeff_power", "inverse", "inverse_at_1", "row_powers"]


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("beta division not exact")
    return q


def coeff_power(m: int, a: int, b: int) -> tuple[int, int]:
    """(coefficient, u-power) of entry (a, b) of beta_m(u): with
    h = ceil(m/2) and j the u-power, (-4)^(a-1) (a-1)! C(a-1, j) / j! for
    a <= h and, with l = a - h, (-4)^(l-1) 2 (l-1)! C(l, j) / (j-1)!
    otherwise; 0 where the binomial or the reciprocal factorial is.  Each
    coefficient is an integer, since j <= a - 1 (j <= l) above."""
    h = (m + 1) // 2
    if a <= h:
        n, j = a - 1, b - a
        top, low = (-4) ** n * factorial(n), j
    else:
        n, j = a - h, b - a + h
        top, low = (-4) ** (n - 1) * 2 * factorial(n - 1), j - 1
    if low < 0 or j > n:
        return 0, j
    return _exact_div(top * comb(n, j), factorial(low)), j


def row_powers(m: int) -> list[int]:
    """r_a for a = 1..m: m minus the u-power of entry (a, m) of beta_m."""
    h = (m + 1) // 2
    return [a if a <= h else a - h for a in range(1, m + 1)]


def inverse_at_1(m: int) -> tuple[list[list[int]], int]:
    """(N, den) with beta_m(1)^-1 = N / den: den is the product of the
    diagonal entries of the triangular form, a power of two, and N is not
    reduced against it.

    Row a of beta_m(1) is row c(a) = 2a - 1 (a <= h) or 2(a - h) of a
    lower triangular L, so beta_m(1)^-1 = L^-1 P and its column a is
    column c(a) of L^-1.  den L^-1 is integral (den is a multiple of
    det L), so the substitution den e_c = L x runs in integers, each
    division by a diagonal entry exact."""
    h = (m + 1) // 2
    last = [2 * a - 1 if a <= h else 2 * (a - h) for a in range(1, m + 1)]
    L = [None] * m
    for a, c in enumerate(last, 1):
        L[c - 1] = [coeff_power(m, a, b)[0] for b in range(1, c + 1)]
    den = 1
    for i, row in enumerate(L):
        den *= abs(row[i])
    cols = []
    for c in range(m):
        x = [0] * m
        x[c] = _exact_div(den, L[c][c])
        for i in range(c + 1, m):
            row = L[i]
            x[i] = _exact_div(-sum(row[k] * x[k] for k in range(c, i)),
                              row[i])
        cols.append(x)
    return [[cols[c - 1][i] for c in last] for i in range(m)], den


def inverse(m: int, u: Fraction | int) -> list[list[Fraction]]:
    """beta_m(u)^-1 at a nonzero rational u, as rows of Fractions."""
    nums, den = inverse_at_1(m)
    u = Fraction(u)
    r = row_powers(m)
    return [[Fraction(x, den) * u ** (r[j] - i) if x else Fraction(0)
             for j, x in enumerate(row)] for i, row in enumerate(nums, 1)]
