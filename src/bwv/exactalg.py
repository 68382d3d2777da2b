"""Exact arithmetic foundation.

Big rationals, dense univariate polynomials, normalized rational functions,
exact dense linear algebra with fraction-free (Bareiss) elimination,
Bernoulli numbers and extended binomial conventions.

Conventions
-----------
* ``ExactScalar`` is :class:`fractions.Fraction`: arbitrary-size rationals
  with gcd-reduced representation and positive denominator.
* ``UniPoly`` stores dense coefficients from degree 0 upward as a tuple
  of Python integers ``nums`` over one positive integer ``den``, with
  gcd(content(nums), den) = 1 and no trailing zeros; the zero polynomial
  is ``nums = ()``, ``den = 1``.  So each polynomial has exactly one
  representation.  Arithmetic, evaluation, division and the gcd (a
  primitive pseudo-remainder sequence) run on the integers and normalize
  once per result; ``coeffs`` and ``coeff(k)`` return ``Fraction``.
* ``RatFunc`` keeps ``gcd(num, den) = 1`` and ``den`` monic after every
  operation.
* ``exact_det`` and ``exact_inverse`` share one Bareiss pass
  (``_bareiss_forward``) in the ring that ``_cleared_rows`` picks: Z for
  a matrix over Q, Q[u] for one over Q(u).  The inverse appends the
  row-clearing factors to the rows it eliminates; over Q its back
  substitution stays in the integers too (one ``Fraction`` per entry), and
  only over Q(u) does it work in the fraction field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence, Union

__all__ = [
    "ExactScalar",
    "UniPoly",
    "RatFunc",
    "ExactMatrix",
    "bernoulli",
    "binom_ext",
    "recip_fact_ext",
    "exact_det",
    "exact_inverse",
]

ExactScalar = Fraction

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
# Dense univariate polynomials over Q
# ---------------------------------------------------------------------------


def _as_fraction(x: ScalarLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to an exact scalar")


def _int_primitive(a: Sequence[int]) -> list[int]:
    """Primitive part of a nonzero integer coefficient list: content
    removed and leading coefficient positive."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return list(a) if c == 1 else [x // c for x in a]


def _int_divmod(
    a: Sequence[int], b: Sequence[int]
) -> tuple[list[int], list[int], int]:
    """Division with remainder over Q, kept in integers: (q, r, s) with
    s·a = q·b + r, deg r < deg b and no trailing zeros in r.

    Each step scales the running quotient and remainder by lc(b)/g only,
    where g = gcd(top coefficient, lc(b)), so no rational is formed and
    s = 1 whenever b divides a in Z[x].
    """
    r = list(a)
    lb, nb = b[-1], len(b)
    q = [0] * max(len(r) - nb + 1, 0)
    s = 1
    for k in range(len(q) - 1, -1, -1):
        top = r[-1]
        if top:
            g = gcd(top, lb)
            f = lb // g
            if f != 1:
                r = [x * f for x in r]
                q = [x * f for x in q]
                s *= f
            c = top // g
            q[k] = c
            for j, y in enumerate(b, k):
                r[j] -= c * y
        r.pop()
    while r and not r[-1]:
        r.pop()
    return q, r, s


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd of two nonzero integer polynomials by the primitive
    pseudo-remainder sequence (Collins 1967; Knuth TAOCP 2, 4.6.1)."""
    a, b = _int_primitive(a), _int_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _int_divmod(a, b)[1]
        a, b = b, (_int_primitive(r) if r else r)
    return a


class UniPoly:
    """Dense univariate polynomial over Q, coefficients from degree 0 up.

    Stored as integer numerators ``nums`` over one positive common
    denominator ``den`` in canonical form (see the module docstring), so
    equal polynomials have equal fields.  Instances are immutable; build
    them with :meth:`of`, :meth:`const`, :meth:`x` or :meth:`zero`.
    """

    __slots__ = ("var", "nums", "den")

    var: str
    nums: tuple[int, ...]
    den: int

    @staticmethod
    def _make(var: str, nums: list[int], den: int = 1) -> "UniPoly":
        """Canonical polynomial sum_i nums[i]/den * var^i (den nonzero);
        trailing zeros are popped from ``nums`` in place."""
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            den = 1
        else:
            g = gcd(den, *nums)
            if den < 0:
                g = -g
            if g != 1:
                nums = [x // g for x in nums]
                den //= g
        p = object.__new__(UniPoly)
        p.var = var
        p.nums = tuple(nums)
        p.den = den
        return p

    @staticmethod
    def of(var: str, coeffs: Iterable[ScalarLike]) -> "UniPoly":
        cs = [_as_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return UniPoly._make(
            var, [c.numerator * (den // c.denominator) for c in cs], den
        )

    @staticmethod
    def zero(var: str) -> "UniPoly":
        return UniPoly._make(var, [])

    @staticmethod
    def const(var: str, c: ScalarLike) -> "UniPoly":
        c = _as_fraction(c)
        return UniPoly._make(var, [c.numerator], c.denominator)

    @staticmethod
    def x(var: str) -> "UniPoly":
        return UniPoly._make(var, [0, 1])

    # -- basic queries ------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return Fraction(self.nums[-1], self.den)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def is_integral(self) -> bool:
        """True iff every coefficient is an integer."""
        return self.den == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return (self.var == other.var and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.var, self.nums, self.den))

    def __repr__(self) -> str:
        return f"UniPoly.of({self.var!r}, {list(self.coeffs)!r})"

    # -- arithmetic ---------------------------------------------------------

    def _check_var(self, other: "UniPoly") -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    def __add__(self, other: "UniPoly | ScalarLike") -> "UniPoly":
        if not isinstance(other, UniPoly):
            other = UniPoly.const(self.var, other)
        self._check_var(other)
        a, b, den = self.nums, other.nums, self.den
        if den != other.den:
            g = gcd(den, other.den)
            fa, fb = other.den // g, den // g
            a = [x * fa for x in a]
            b = [x * fb for x in b]
            den *= fa
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return UniPoly._make(self.var, out, den)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        p = object.__new__(UniPoly)
        p.var = self.var
        p.nums = tuple(-x for x in self.nums)
        p.den = self.den
        return p

    def __sub__(self, other: "UniPoly | ScalarLike") -> "UniPoly":
        if not isinstance(other, UniPoly):
            other = UniPoly.const(self.var, other)
        return self + (-other)

    def __rsub__(self, other: ScalarLike) -> "UniPoly":
        return (-self) + other

    def __mul__(self, other: "UniPoly | ScalarLike") -> "UniPoly":
        if not isinstance(other, UniPoly):
            c = _as_fraction(other)
            return UniPoly._make(
                self.var, [x * c.numerator for x in self.nums],
                self.den * c.denominator,
            )
        self._check_var(other)
        if self.is_zero or other.is_zero:
            return UniPoly.zero(self.var)
        b = other.nums
        out = [0] * (len(self.nums) + len(b) - 1)
        for i, x in enumerate(self.nums):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return UniPoly._make(self.var, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = UniPoly.const(self.var, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        self._check_var(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r, s = _int_divmod(self.nums, other.nums)
        den = s * self.den
        return (
            UniPoly._make(self.var, [x * other.den for x in q], den),
            UniPoly._make(self.var, r, den),
        )

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("exact_div: division is not exact")
        return q

    # -- gcd via primitive pseudo-remainder sequences ----------------------

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd, computed by a primitive PRS over the integers to keep
        coefficient growth under control."""
        self._check_var(other)
        if self.is_zero:
            return other.monic()
        if other.is_zero:
            return self.monic()
        g = _int_gcd(self.nums, other.nums)
        return UniPoly._make(self.var, g, g[-1])

    def lcm(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero or other.is_zero:
            return UniPoly.zero(self.var)
        return self.exact_div(self.gcd(other)) * other

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        p = _int_primitive(self.nums)
        return UniPoly._make(self.var, p, p[-1])

    # -- calculus and evaluation -------------------------------------------

    def deriv(self, order: int = 1) -> "UniPoly":
        if order < 0:
            raise ValueError("negative derivative order")
        nums = list(self.nums)
        for _ in range(order):
            nums = [i * c for i, c in enumerate(nums)][1:]
        return UniPoly._make(self.var, nums, self.den)

    def eval(self, x: ScalarLike) -> Fraction:
        x = _as_fraction(x)
        p, q = x.numerator, x.denominator
        # Homogeneous Horner: sum_i c_i p^i q^(n-i), over den * q^n.
        acc, qpow = 0, 1
        for c in reversed(self.nums):
            acc = acc * p + c * qpow
            qpow *= q
        return Fraction(acc, self.den * q ** max(self.degree, 0))

    def compose_poly(self, inner: "UniPoly") -> "UniPoly":
        """Substitute another polynomial for the variable.

        Homogeneous Horner in integers, as in :meth:`eval`: with inner =
        J/e, sum_i c_i J^i e^(n-i) over den * e^n, normalized once."""
        J, e = inner.nums, inner.den
        acc: list[int] = []
        epow = 1
        for c in reversed(self.nums):
            out = [0] * (len(acc) + len(J) - 1) if acc and J else [0]
            for i, x in enumerate(acc):
                if x:
                    for j, y in enumerate(J, i):
                        out[j] += x * y
            out[0] += c * epow
            acc = out
            epow *= e
        return UniPoly._make(inner.var, acc,
                             self.den * e ** max(self.degree, 0))

    def shift_mul(self, k: int) -> "UniPoly":
        """Multiply by var**k."""
        if self.is_zero:
            return self
        return UniPoly._make(self.var, [0] * k + list(self.nums), self.den)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
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
    """Quotient of univariate polynomials, kept reduced with monic
    denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly | None = None):
        var = num.var
        if den is None:
            den = UniPoly._make(var, [1])
        elif var != den.var:
            raise ValueError("variable mismatch in RatFunc")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in RatFunc")
        if den.den == 1 and den.nums == (1,):
            self.num, self.den = num, den
            return
        N, D = num.nums, den.nums
        if not N:
            D = (1,)
        elif len(D) > 1:  # a constant denominator needs no gcd
            # g is primitive, so by Gauss's lemma it divides N and D in
            # Z[x] and both quotients come back unscaled
            g = _int_gcd(N, D)
            if len(g) > 1:
                N, D = _int_divmod(N, g)[0], _int_divmod(D, g)[0]
        # num/den = N*dd / (D*dn) with dn, dd the common denominators;
        # dividing both by lc(D) makes the denominator monic.
        lead = D[-1]
        self.num = UniPoly._make(var, [x * den.den for x in N], num.den * lead)
        self.den = UniPoly._make(var, list(D), lead)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def of(var: str, value: ScalarLike) -> "RatFunc":
        return RatFunc(UniPoly.const(var, value))

    @staticmethod
    def x(var: str) -> "RatFunc":
        return RatFunc(UniPoly.x(var))

    @property
    def var(self) -> str:
        return self.num.var

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def _coerce(self, other: "RatFunc | UniPoly | ScalarLike") -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, UniPoly):
            return RatFunc(other)
        return RatFunc.of(self.var, other)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if self.den == o.den:
            return RatFunc(self.num + o.num, self.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        r = RatFunc.__new__(RatFunc)
        r.num = -self.num
        r.den = self.den
        return r

    def __sub__(self, other) -> "RatFunc":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RatFunc":
        return (-self) + other

    def __mul__(self, other) -> "RatFunc":
        o = self._coerce(other)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        o = self._coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, UniPoly)):
            other = self._coerce(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- evaluation ----------------------------------------------------------

    def eval(self, x: ScalarLike) -> Fraction:
        x = _as_fraction(x)
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

Entry = Union[Fraction, RatFunc]


class ExactMatrix:
    """Dense rectangular matrix with uniform entry ring: all entries are
    either ExactScalar (ring tag "Q") or RatFunc ("Q(<var>)").  ``cols``
    is read off the rows; a matrix with no rows takes it as given."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Entry | int]],
                 cols: int = 0):
        rows = len(entries)
        if rows:
            cols = len(entries[0])
        var = next((e.var for row in entries for e in row
                    if isinstance(e, RatFunc)), None)

        def to_ratfunc(e) -> RatFunc:
            if isinstance(e, RatFunc):
                return e
            if isinstance(e, UniPoly):
                return RatFunc(e)
            return RatFunc.of(var, e)

        lift = _as_fraction if var is None else to_ratfunc
        norm: list[tuple[Entry, ...]] = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            norm.append(tuple(map(lift, row)))
        self.rows = rows
        self.cols = cols
        self.entries = tuple(norm)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity(n: int, var: str | None = None) -> "ExactMatrix":
        if var is None:
            return ExactMatrix(
                [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            )
        one = RatFunc.of(var, 1)
        zero = RatFunc.of(var, 0)
        return ExactMatrix(
            [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix([[0] * cols for _ in range(rows)], cols)

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
    def ring(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return "Q"
        e = self.entries[0][0]
        return f"Q({e.var})" if isinstance(e, RatFunc) else "Q"

    def __getitem__(self, idx: tuple[int, int]) -> Entry:
        i, j = idx
        return self.entries[i][j]

    def at(self, a: int, b: int) -> Entry:
        """1-based entry access."""
        return self.entries[a - 1][b - 1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        # RatFunc.__eq__ coerces int and Fraction entries, so a Q matrix
        # compares equal to a Q(u) matrix of the same constants
        return ((self.rows, self.cols) == (other.rows, other.cols)
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
            self.cols,
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix([[-e for e in row] for row in self.entries],
                           self.cols)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        if self.cols == 0:
            return ExactMatrix.zeros(self.rows, other.cols)
        if self.ring == other.ring == "Q":
            # Over Q: each row of self and each column of other cleared to
            # integers over its lcm denominator, one Fraction per entry.
            left, dl = _cleared_int_rows(self.entries)
            right, dr = _cleared_int_rows(list(zip(*other.entries)))
            return ExactMatrix([
                [Fraction(sum(map(mul, a, b)), da * db)
                 for b, db in zip(right, dr)]
                for a, da in zip(left, dl)
            ], other.cols)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = self.entries[i][0] * other.entries[0][j]
                for k in range(1, self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return ExactMatrix(out, other.cols)

    def scale(self, c: Entry | int) -> "ExactMatrix":
        return ExactMatrix([[e * c for e in row] for row in self.entries],
                           self.cols)

    @property
    def T(self) -> "ExactMatrix":
        return ExactMatrix(
            [
                [self.entries[i][j] for i in range(self.rows)]
                for j in range(self.cols)
            ],
            self.rows,
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "ExactMatrix":
        """Submatrix from 1-based row/column index lists."""
        if not row_idx or not col_idx:
            return ExactMatrix.zeros(len(row_idx), len(col_idx))
        return ExactMatrix(
            [[self.at(a, b) for b in col_idx] for a in row_idx]
        )

    def eval(self, x: ScalarLike) -> "ExactMatrix":
        """Evaluate a Q(u) matrix entrywise (value-or-limit semantics)."""
        return ExactMatrix(
            [
                [e.eval(x) if isinstance(e, RatFunc) else e for e in row]
                for row in self.entries
            ],
            self.cols,
        )

    def det(self) -> Entry:
        return exact_det(self)

    def __str__(self) -> str:
        return "[" + ",\n ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.entries
        ) + "]"

    __repr__ = __str__


def _cleared_int_rows(entries) -> tuple[list[list[int]], list[int]]:
    """(rows, scales) with entries[i][j] = rows[i][j] / scales[i]: each row
    of Fractions cleared to integers over its lcm denominator."""
    scales = [lcm(*(e.denominator for e in row)) for row in entries]
    rows = [[e.numerator * (d // e.denominator) for e in row]
            for row, d in zip(entries, scales)]
    return rows, scales


# -- fraction-free elimination ----------------------------------------------


def _int_divide(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("Bareiss division not exact")
    return q


def _cleared_rows(M: ExactMatrix):
    """Clear each row of a nonempty matrix to the ring Bareiss works in:
    Z for a matrix over Q, Q[u] for one over Q(u).

    Returns (rows, scales, zero, divide, lift): M[i][j] = rows[i][j] /
    scales[i]; ``zero`` and ``divide`` (exact division) belong to the
    ring, and ``lift(a)`` or ``lift(a, b)`` forms a or a/b in the fraction
    field (``Fraction`` or ``RatFunc``).
    """
    first = M.entries[0][0]
    if isinstance(first, RatFunc):
        rows, scales = [], []
        for row in M.entries:
            d = UniPoly.const(first.var, 1)
            for e in row:
                d = d.lcm(e.den)
            rows.append([e.num * d.exact_div(e.den) for e in row])
            scales.append(d)
        return rows, scales, UniPoly.zero(first.var), UniPoly.exact_div, RatFunc
    rows, scales = _cleared_int_rows(M.entries)
    return rows, scales, 0, _int_divide, Fraction


def _bareiss_forward(rows, zero, divide) -> tuple[int, bool]:
    """In-place Bareiss forward elimination with row pivoting on the
    first len(rows) columns; every column of a row takes part, so columns
    appended to the square block ride along.

    Each entry stays a minor of the input, so ``divide`` is always exact.
    Returns (sign, singular): the square block becomes upper triangular
    with rows[-1][n-1] = sign * its determinant, unless singular is True
    (a pivot column was zero, so the determinant is 0).
    """
    n = len(rows)
    sign, prev = 1, None
    for k in range(n - 1):
        if rows[k][k] == zero:
            for r in range(k + 1, n):
                if rows[r][k] != zero:
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
                row[j] = num if prev is None else divide(num, prev)
            row[k] = zero
        prev = piv
    return sign, False


def exact_det(M: ExactMatrix) -> Entry:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Rows are first cleared to integers (over Q) or to polynomials (over
    Q(u)); the Bareiss recurrence then keeps every intermediate value in
    the cleared ring, and the row-clearing factors are divided back at the
    end.
    """
    if not M.is_square:
        raise ValueError("determinant of a non-square matrix")
    if M.rows == 0:
        return Fraction(1)
    rows, scales, zero, divide, lift = _cleared_rows(M)
    sign, singular = _bareiss_forward(rows, zero, divide)
    if singular:
        return lift(zero)
    return lift(rows[-1][-1] * sign, prod(scales))


def exact_inverse(M: ExactMatrix) -> ExactMatrix:
    """Exact inverse: the cleared rows S·M, augmented with S = diag(row
    scales), go through the same Bareiss elimination as the determinant,
    giving [U | R] with U upper triangular and M^-1 = U^-1 R.

    Over Q, [U | R] is integral and d = U[n-1][n-1] is ± det(S·M), so
    d·M^-1 = ± adj(S·M)·S is integral: the back substitution solves
    U·Y = d·R in integers, every division exact, and each entry is the
    one ``Fraction(Y_ij, d)``.  Over Q(u) it runs in the fraction field.
    """
    if not M.is_square:
        raise ValueError("inverse of a non-square matrix")
    n = M.rows
    if n == 0:
        return M
    rows, scales, zero, divide, lift = _cleared_rows(M)
    for i, row in enumerate(rows):
        row.extend(scales[i] if j == i else zero for j in range(n))
    _, singular = _bareiss_forward(rows, zero, divide)
    if singular or rows[-1][n - 1] == zero:
        raise ZeroDivisionError("matrix is singular (determinant 0)")
    if lift is Fraction:
        d = rows[-1][n - 1]
        tails = [row[i + 1:n] for i, row in enumerate(rows)]
        cols = []
        for col in range(n):
            y = [0] * n
            for i in range(n - 1, -1, -1):
                acc = d * rows[i][n + col] - sum(map(mul, tails[i], y[i + 1:]))
                y[i] = divide(acc, rows[i][i])
            cols.append(y)
        return ExactMatrix([[Fraction(y, d) for y in row]
                            for row in zip(*cols)])
    U = [[lift(x) for x in row] for row in rows]
    inv = [[None] * n for _ in range(n)]
    for col in range(n):
        for i in range(n - 1, -1, -1):
            acc = U[i][n + col]
            for j in range(i + 1, n):
                acc = acc - U[i][j] * inv[j][col]
            inv[i][col] = acc / U[i][i]
    return ExactMatrix(inv)
