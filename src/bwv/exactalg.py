"""Exact arithmetic foundation.

Big rationals, dense univariate polynomials over Z and rational functions
stored as values, exact dense linear algebra over Q with fraction-free
(Bareiss) elimination, Bernoulli numbers and extended binomial
conventions.

Conventions
-----------
* Scalars are ints and :class:`fractions.Fraction`: arbitrary-size
  rationals with gcd-reduced representation and positive denominator.
* ``UniPoly`` is a polynomial over Z: dense coefficients from degree 0
  upward as a tuple of Python integers ``nums`` with no trailing zeros;
  the zero polynomial is ``nums = ()``.  So each polynomial has exactly
  one representation, and a coefficient that is not an integer is
  refused when the polynomial is built.  It is a stored value with no
  ring arithmetic: it is built, compared, evaluated, differentiated and
  printed.  The layers that compute with polynomials (the operator
  algebra in ``vanhove``, the pairings in ``brmatrices``) do so on
  integer coefficient lists, lowest degree first, with the list helpers
  here: sum, scalar multiple, product, derivative, and composition and
  evaluation by Horner's rule.
* ``RatFunc`` is a value of Q(u), not a field element to compute with: a
  numerator over Z divided by ∏(u − c) over integer poles c, which may
  repeat.  Each pole where the numerator vanishes is cancelled when the
  value is built, by one exact synthetic division, and the poles left
  multiply into a monic denominator.  So numerator and denominator are
  coprime, with no common integer content, and the zero numerator has
  denominator 1.  It is then stored, compared with other RatFunc values,
  evaluated at a point and printed.  A ``RatFuncGrid`` is a matrix of
  such values (V and upsilon over the roots of ell_{m,m}, the symbolic
  beta with no poles): it is compared, transposed, printed and evaluated
  at a point, which gives an ``ExactMatrix``.  The pairings that read V
  and upsilon are formed over Q from their polynomial numerators.
* ``ExactMatrix`` is a matrix over Q.  It stores integer rows ``nums``
  over one positive common denominator ``den``, with
  gcd(den, every entry) = 1; the zero matrix has ``den = 1``.  Each
  result is made canonical once, so equal matrices have equal fields.
  ``@``, ``scale``, negation, transposition, submatrices, equality,
  hashing, ``exact_det`` and ``exact_inverse`` work on ``nums``, and an
  entry becomes a ``Fraction`` only when it is read (``at``, ``[i, j]``,
  ``entries``, printing and JSON).  Arithmetic over Q(u) has no type to
  run on.  The determinant and the inverse share one Bareiss pass
  (``_bareiss_forward``) on ``nums``.  The inverse appends the identity
  to the rows it eliminates, and its back substitution stays in the
  integers too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

__all__ = [
    "UniPoly",
    "RatFunc",
    "ExactMatrix",
    "RatFuncGrid",
    "bernoulli",
    "binom_ext",
    "recip_fact_ext",
    "exact_det",
    "exact_inverse",
]

ScalarLike = Union[int, Fraction]


# ---------------------------------------------------------------------------
# Bernoulli numbers and extended binomial conventions
# ---------------------------------------------------------------------------


@cache
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n under the generating function t/(e^t - 1).

    In this convention B_1 = -1/2.  Values are memoized.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if n == 0:
        return Fraction(1)
    # Defining recurrence: sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1.  The
    # smaller indices are taken in increasing order, so each call finds
    # its predecessors memoized and the recursion stays one level deep.
    acc = Fraction(0)
    for k in range(n):
        acc += comb(n + 1, k) * bernoulli(k)
    return -acc / (n + 1)


def binom_ext(n: int, k: int) -> Fraction:
    """Binomial coefficient C(n, k) with C(n, k) = 0 for k outside [0, n].

    Negative upper index is rejected: it is never needed and silently
    accepting it would mask index bugs.
    """
    if n < 0:
        raise ValueError("binom_ext requires a non-negative upper index")
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(comb(n, k))


def recip_fact_ext(n: int) -> Fraction:
    """1/n! for n >= 0 and 0 for negative n (the reciprocal-factorial
    convention used throughout the matrix entry formulas)."""
    if n < 0:
        return Fraction(0)
    return Fraction(1, factorial(n))


# ---------------------------------------------------------------------------
# Coefficient lists over Z: lowest degree first, no trailing zeros
# ---------------------------------------------------------------------------


def _add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    while out and not out[-1]:
        out.pop()
    return out


def _scale(a: list, c) -> list:
    return [x * c for x in a] if c else []


def _mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    if len(a) > len(b):  # the short factor, often linear, outside
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _deriv(a: list, order: int = 1) -> list:
    out = list(a)
    for _ in range(order):
        out = [i * c for i, c in enumerate(out)][1:]
    return out


def _compose(a: list, inner: list) -> list:
    """a(inner), by Horner's rule."""
    acc: list = []
    for c in reversed(a):
        acc = _add(_mul(acc, inner), [c])
    return acc


def _eval(a: list, x):
    """a(x), by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# Dense univariate polynomials over Z
# ---------------------------------------------------------------------------


def _rational(x: ScalarLike) -> ScalarLike:
    """x itself, an int or a Fraction: both have ``numerator`` and
    ``denominator``, so neither is converted."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact scalar")


def _integer(x: ScalarLike) -> int:
    """x as an int: an int, or a Fraction whose denominator is 1."""
    x = _rational(x)
    if x.denominator != 1:
        raise ValueError(f"coefficient {x} is not an integer: "
                         "polynomials are over Z")
    return x.numerator


class UniPoly:
    """Dense univariate polynomial over Z, coefficients from degree 0 up.

    Stored as the integers ``nums`` with no trailing zeros (see the module
    docstring), so equal polynomials have equal fields.  Instances are
    immutable; build them with :meth:`of` or :meth:`zero`, which refuse a
    coefficient that is not an integer.
    """

    __slots__ = ("var", "nums")

    var: str
    nums: tuple[int, ...]

    @staticmethod
    def _make(var: str, nums: list[int]) -> "UniPoly":
        """The polynomial sum_i nums[i] * var^i; trailing zeros are popped
        from ``nums`` in place."""
        while nums and not nums[-1]:
            nums.pop()
        p = object.__new__(UniPoly)
        p.var = var
        p.nums = tuple(nums)
        return p

    @staticmethod
    def of(var: str, coeffs: Iterable[ScalarLike]) -> "UniPoly":
        return UniPoly._make(var, [_integer(c) for c in coeffs])

    @staticmethod
    def zero(var: str) -> "UniPoly":
        return UniPoly._make(var, [])

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def leading(self) -> int:
        return self.nums[-1] if self.nums else 0

    def coeff(self, k: int) -> int:
        return self.nums[k] if 0 <= k < len(self.nums) else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.var == other.var and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.var, self.nums))

    def __repr__(self) -> str:
        return f"UniPoly.of({self.var!r}, {list(self.nums)!r})"

    # -- calculus and evaluation -------------------------------------------

    def deriv(self, order: int = 1) -> "UniPoly":
        if order < 0:
            raise ValueError("negative derivative order")
        return UniPoly._make(self.var, _deriv(self.nums, order))

    def eval(self, x: ScalarLike) -> Fraction:
        x = _rational(x)
        p, q = x.numerator, x.denominator
        # Homogeneous Horner: sum_i c_i p^i q^(n-i), over q^n.
        acc, qpow = 0, 1
        for c in reversed(self.nums):
            acc = acc * p + c * qpow
            qpow *= q
        return Fraction(acc, q ** max(self.degree, 0))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.nums):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*{self.var}")
            else:
                parts.append(f"{c}*{self.var}^{i}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Rational functions over Q
# ---------------------------------------------------------------------------


class RatFunc:
    """num / ∏_{c ∈ poles}(u − c) over integer poles c, which may repeat,
    reduced when built to the canonical form of the module docstring.  A
    stored value: it compares and hashes with other RatFunc values only,
    evaluates at a point and prints, but does no arithmetic."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, poles: Iterable[ScalarLike] = ()):
        N, D = list(num.nums), [1]
        for c in map(_integer, poles):
            # Horner's rule at c: the partial sums before the last are the
            # quotient of N by the monic u − c, and the last is N(c)
            q, r = [], 0
            for x in reversed(N):
                q.append(r)
                r = r * c + x
            if r:
                D = _mul(D, [-c, 1])
            else:  # the pole cancels, exactly over Z (for N = 0, each does)
                N = q[:0:-1]
        self.num = UniPoly._make(num.var, N)
        self.den = UniPoly._make(num.var, D)

    def is_polynomial(self) -> bool:
        return self.den.nums == (1,)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- evaluation ----------------------------------------------------------

    def eval(self, x: ScalarLike) -> Fraction:
        x = _rational(x)
        d = self.den.eval(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.eval(x) / d

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


# ---------------------------------------------------------------------------
# Exact dense matrices
# ---------------------------------------------------------------------------


def _grid_text(entries: Sequence[Sequence[object]]) -> str:
    return "[" + ",\n ".join(
        "[" + ", ".join(str(e) for e in row) + "]" for row in entries
    ) + "]"


class ExactMatrix:
    """Dense rectangular matrix over Q: the integer rows ``nums`` over one
    positive common denominator ``den``, in canonical form (see the module
    docstring), so equal matrices have equal fields; an entry becomes a
    ``Fraction`` only when it is read.  ``cols`` is read off the rows; a
    matrix with no rows takes it as given."""

    __slots__ = ("rows", "cols", "nums", "den")

    ring = "Q"

    def __init__(self, entries: Sequence[Sequence[ScalarLike]],
                 cols: int = 0):
        rows = len(entries)
        if rows:
            cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged matrix")
        try:
            den = lcm(*(e.denominator for row in entries for e in row))
        except AttributeError:
            bad = next(e for row in entries for e in row
                       if not isinstance(e, (int, Fraction)))
            raise TypeError(f"cannot coerce {type(bad).__name__} "
                            "to an exact scalar") from None
        # the denominators are reduced, so over their lcm the numerators
        # and den have no common factor
        self.rows, self.cols, self.den = rows, cols, den
        self.nums = tuple(tuple(e.numerator * (den // e.denominator)
                                for e in row) for row in entries)

    @staticmethod
    def _make(nums: Sequence[Sequence[int]], den: int,
              cols: int) -> "ExactMatrix":
        """The matrix nums/den over Q (den nonzero), made canonical."""
        g = gcd(den, *(x for row in nums for x in row))
        if den < 0:
            g = -g
        if g != 1:
            nums = [[x // g for x in row] for row in nums]
            den //= g
        M = object.__new__(ExactMatrix)
        M.rows, M.cols, M.den = len(nums), cols, den
        M.nums = tuple(map(tuple, nums))
        return M

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix._make(
            [[int(i == j) for j in range(n)] for i in range(n)], 1, n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix._make([[0] * cols for _ in range(rows)], 1, cols)

    @staticmethod
    def from_fn(rows: int, cols: int, fn) -> "ExactMatrix":
        """Entries from fn(a, b) with 1-based indices, matching the
        conventional index ranges of the matrix definitions."""
        return ExactMatrix(
            [[fn(a, b) for b in range(1, cols + 1)] for a in range(1, rows + 1)],
            cols,
        )

    # -- queries ------------------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        d = self.den
        return tuple(tuple(Fraction(x, d) for x in row) for row in self.nums)

    def __getitem__(self, idx: tuple[int, int]) -> Fraction:
        i, j = idx
        return Fraction(self.nums[i][j], self.den)

    def at(self, a: int, b: int) -> Fraction:
        """1-based entry access; an index below 1 raises IndexError."""
        if a < 1 or b < 1:
            raise IndexError(f"1-based index ({a}, {b}) below 1")
        return self[a - 1, b - 1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.den, self.nums) == (
            other.rows, other.cols, other.den, other.nums)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.nums, self.den))

    # -- arithmetic ---------------------------------------------------------

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        if self.cols == 0:
            return ExactMatrix.zeros(self.rows, other.cols)
        right = list(zip(*other.nums))
        return ExactMatrix._make(
            [[sum(map(mul, a, b)) for b in right] for a in self.nums],
            self.den * other.den, other.cols)

    def scale(self, c: ScalarLike) -> "ExactMatrix":
        c = _rational(c)
        p = c.numerator
        return ExactMatrix._make([[x * p for x in row] for row in self.nums],
                                 self.den * c.denominator, self.cols)

    @property
    def T(self) -> "ExactMatrix":
        t = [[row[j] for row in self.nums] for j in range(self.cols)]
        return ExactMatrix._make(t, self.den, self.rows)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ExactMatrix":
        """Submatrix from 1-based row/column index lists, each >= 1."""
        if min(row_idx, default=1) < 1 or min(col_idx, default=1) < 1:
            raise IndexError("1-based index below 1")
        if not row_idx or not col_idx:
            return ExactMatrix.zeros(len(row_idx), len(col_idx))
        nums = self.nums
        sub = [[nums[a - 1][b - 1] for b in col_idx] for a in row_idx]
        return ExactMatrix._make(sub, self.den, len(col_idx))

    def det(self) -> Fraction:
        return exact_det(self)

    def __str__(self) -> str:
        return _grid_text(self.entries)

    __repr__ = __str__


class RatFuncGrid:
    """Matrix over Q(u) as a stored grid of RatFunc values: it is
    compared, transposed, evaluated at a point to an ``ExactMatrix`` and
    printed, and takes part in no arithmetic."""

    __slots__ = ("entries",)

    ring = "Q(u)"

    def __init__(self, entries: Iterable[Iterable[RatFunc]]):
        self.entries = tuple(map(tuple, entries))
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged matrix")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def T(self) -> "RatFuncGrid":
        return RatFuncGrid(zip(*self.entries))

    def eval(self, x: ScalarLike) -> ExactMatrix:
        """The value at x, entry by entry (a removable singularity takes
        its limit); a pole at x raises ZeroDivisionError."""
        return ExactMatrix([[e.eval(x) for e in row] for row in self.entries],
                           self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFuncGrid):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __str__(self) -> str:
        return _grid_text(self.entries)

    __repr__ = __str__


# -- fraction-free elimination ----------------------------------------------


def _int_divide(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("Bareiss division not exact")
    return q


def _bareiss_forward(rows: list[list[int]]) -> tuple[int, bool]:
    """In-place Bareiss forward elimination with row pivoting on the
    first len(rows) columns of integer rows; every column of a row takes
    part, so columns appended to the square block ride along.

    Each entry stays a minor of the input, so every division is exact.
    Returns (sign, singular): the square block becomes upper triangular
    with rows[-1][n-1] = sign * its determinant, unless singular is True
    (a pivot column was zero, so the determinant is 0).
    """
    n = len(rows)
    sign, prev = 1, None
    for k in range(n - 1):
        if not rows[k][k]:
            for r in range(k + 1, n):
                if rows[r][k]:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return sign, True
        top = rows[k]
        piv = top[k]
        for row in rows[k + 1:]:
            f = row[k]
            for j in range(k + 1, len(row)):
                num = row[j] * piv - f * top[j]
                row[j] = num if prev is None else _int_divide(num, prev)
            row[k] = 0
        prev = piv
    return sign, False


def exact_det(M: ExactMatrix) -> Fraction:
    """Exact determinant of a matrix M = N/den over Q by fraction-free
    (Bareiss) elimination of the integer matrix N: every intermediate
    value stays an integer, and det M = det N / den^n.
    """
    if not M.is_square:
        raise ValueError("determinant of a non-square matrix")
    if M.rows == 0:
        return Fraction(1)
    rows = [list(row) for row in M.nums]
    sign, singular = _bareiss_forward(rows)
    if singular:
        return Fraction(0)
    return Fraction(rows[-1][-1] * sign, M.den ** M.rows)


def exact_inverse(M: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a matrix M = N/den over Q: the integer rows of N,
    augmented with the identity, go through the same Bareiss elimination
    as the determinant, giving [U | R] with U upper triangular and N^-1 =
    U^-1 R.

    [U | R] is integral and d = U[n-1][n-1] is ± det N, so d·N^-1 = ±adj N
    is integral: the back substitution solves U·Y = d·R in integers,
    every division exact, and M^-1 = den·Y/d is made canonical once.
    """
    if not M.is_square:
        raise ValueError("inverse of a non-square matrix")
    n = M.rows
    if n == 0:
        return M
    rows = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(M.nums)]
    _, singular = _bareiss_forward(rows)
    d = rows[-1][n - 1]
    if singular or not d:
        raise ZeroDivisionError("matrix is singular (determinant 0)")
    tails = [row[i + 1:n] for i, row in enumerate(rows)]
    cols = []
    for col in range(n):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            acc = d * rows[i][n + col] - sum(map(mul, tails[i], y[i + 1:]))
            y[i] = _int_divide(acc, rows[i][i])
        cols.append(y)
    den = M.den
    return ExactMatrix._make([[y * den for y in row] for row in zip(*cols)],
                             d, n)
