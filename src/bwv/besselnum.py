"""Arbitrary-precision evaluation of modified Bessel functions and
Bessel-moment integrals, with assembly of the numerical moment matrices.

Conventions
-----------
All moments are integrals over t from 0 to infinity:

* ``IKM(a,b;n)``       : I0(t)^a K0(t)^b t^n
* ``IvKM(a,b;n|u)``    : I0(sqrt(u) t) I0(t)^(a-1) K0(t)^b t^n
* ``IKvM(a,b;n|u)``    : I0(t)^a K0(sqrt(u) t) K0(t)^(b-1) t^n
* ``IpKM(a,b;n|u)``    : +I1(sqrt(u) t) I0(t)^(a-1) K0(t)^b t^(n+1)
* ``IKpM(a,b;n|u)``    : -K1(sqrt(u) t) I0(t)^a K0(t)^(b-1) t^(n+1)
* ``IKM_LOG(a,b;n)``   : { I0(t)^a K0(t)^b log(t)
                           - [a==1] K0(t)^(a+b)/(a+b) } t^n

so the first index always counts I-type factors and the second K-type
factors, including the sqrt(u)-argument factor.

One table builds every moment family.  With parity p = 0 for the odd
family (mu, M, Omega) and p = 1 for the even one (nu, N, omega), each
entry is pi^(a-k-1-p/2) times one moment with a I-type factors out of
2k+1+p.  The plain families take the kinds IvKM and IKvM, the
differentiated ("acute") ones IpKM and IKpM; M and N take IKM, and their
log-weighted companions IKM_LOG.  The families are read in batches:
``family_moments`` gives any set of entries, of either parity, plain or
acute, at any k, from one batch of moments, and the Wronskian builders
and the numeric checks each make one such call.

Numerical design: one kernel ``_ik(order, t)`` gives I and K of order 0
or 1 together.  Below a crossover it sums the power series of DLMF
10.31.1 (K0 = -(ln(t/2)+gamma) I0 + sum H_m (t^2/4)^m/(m!)^2, and its
order-1 analogue) in Python-integer fixed point, with 2.9 t extra bits to
absorb the cancellation between the two parts of K, which grow like e^t
while K decays like e^-t; only t^2/4 enters fixed point, and 1/t, t/2 and
ln(t/2) are formed in mpf, so arbitrarily small t is safe.  At and above
the crossover it sums the asymptotic expansions of DLMF 10.40.1 and
10.40.2 up to their smallest term.  The crossover depends on the working
precision alone: it is the least t at which the asymptotic series has a
term below 2^-prec, so both branches hold every value to a few ulp.
Every moment integral is one sum over (0,oo) on the exp-exp
double-exponential substitution t = exp(w - e^(-w)) of Takahasi and Mori.
Its nodes fall to 0 like exp(-e^(-w)), which absorbs the log-power
singularity at t = 0, and grow like e^w, so an integrand decaying like
e^(-delta t) falls double exponentially in w for every delta > 0.  Each
working precision has one shared grid (``_grid``), whatever a moment's
decay rate: a node's t and weight, the (I, K) pairs at t and at
sqrt(u) t, and the fixed-point tables below are computed when a moment
first reaches the node and reused by every later moment, in this sweep or
a later one.  The grids are held in a small LRU cache, so their memory
stays bounded.  The moments one call is missing (a whole matrix, the
entries of one ``family_moments`` call, or the one key of ``moment``) are
summed together, in one sweep of the grid, in Python-integer fixed point
at the grid's fixed number of bits: at each node the Bessel values, t and
the weight become integer (mantissa, exponent) pairs once, the powers of
t, I0 and K0 are running products and t^n times the weight one product
more, all kept by the node, and each moment adds its term to its own
integer accumulator, whose scale follows the moment's largest term.  Each
moment keeps its own rules, so its sum does not depend on the moments it
is swept with: its own tail cut-off, and level doubling until two
successive levels agree to 10^-(digits+5), within a hard level budget,
at a guard precision of ``digits`` + 15.  A value is stored to ``digits`` + 15 digits, and a
cold call returns the stored string parsed, as a warm one does.

The Wronskian matrices turn moment vectors into derivatives through
beta_m(u)^-1, whose exact entries ``bwv.beta`` gives by integer
substitution on the standard library alone; they become mpf values here,
so the numeric layer loads none of the exact layers.
"""

from __future__ import annotations

import functools
import json
import math
import os
import warnings
from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

import mpmath
from mpmath import mp
from mpmath.libmp import to_fixed

from . import MOMENT_KINDS
from .beta import inverse as beta_inverse

__all__ = [
    "GUARD_DIGITS",
    "LEVEL_BUDGET",
    "MOMENT_KINDS",
    "MomentCache",
    "MomentKey",
    "QuadratureError",
    "bessel",
    "bologna",
    "default_cache",
    "family_moments",
    "matM",
    "matMring",
    "matN",
    "matNring",
    "matOmega",
    "matomega",
    "moment",
    "moment_value",
    "tolerance",
]

GUARD_DIGITS = 15
LEVEL_BUDGET = 12


class _OffShell(NamedTuple):
    """How an off-shell kind departs from IKM: one ``factor`` at sqrt(u) t
    (I0, K0, I1 or K1), times ``sign``, stands in for an I0 (``slot`` 0,
    counted by a) or a K0 (``slot`` 1, counted by b), and the power of t
    rises by ``extra``."""

    factor: str
    sign: int
    slot: int
    extra: int


_OFFSHELL = {
    "IvKM": _OffShell("I0", 1, 0, 0),
    "IKvM": _OffShell("K0", 1, 1, 0),
    "IpKM": _OffShell("I1", 1, 0, 1),
    "IKpM": _OffShell("K1", -1, 1, 1),
}
_KINDS = frozenset(MOMENT_KINDS)
_ONSHELL_KINDS = _KINDS - frozenset(_OFFSHELL)  # IKM and IKM_LOG


class QuadratureError(ArithmeticError):
    """Raised when a quadrature fails to converge within the level budget."""


def tolerance(digits: int):
    """The pass tolerance for numeric identities at a given precision:
    10^-(digits-10); the 10-digit guard absorbs quadrature error."""
    return mpmath.mpf(10) ** (-(digits - 10))


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------

#: (order, 0 for I or 1 for K) of each Bessel kind.
_KIND_SLOT = {"I0": (0, 0), "K0": (0, 1), "I1": (1, 0), "K1": (1, 1)}


@functools.cache
def _crossover(prec: int) -> float:
    """The smallest t at which the asymptotic series of DLMF 10.40.1 and
    10.40.2 has a term below 2^-prec for both orders 0 and 1.  Term k is
    |a_k(nu)| / t^k, so it falls to 2^-prec at t = (|a_k| 2^prec)^(1/k)."""
    log_eps = prec * math.log(2)
    worst = 0.0
    for nu in (0, 1):
        log_a = 0.0
        best = math.inf
        for k in range(1, 2 * prec):
            log_a += math.log(abs(4 * nu * nu - (2 * k - 1) ** 2) / (8 * k))
            best = min(best, math.exp((log_a + log_eps) / k))
        worst = max(worst, best)
    return worst


def _ik_series(order: int, t):
    """(I, K) of the given order by DLMF 10.31.1: the power series in
    q = t^2/4 with harmonic-number weights H_m, summed in fixed point with
    2.9 t extra bits against the cancellation in K.  Only q enters fixed
    point; 1/t, t/2 and ln(t/2) stay in mpf, so tiny t is safe."""
    prec = mp.prec
    wp = prec + int(2.9 * float(t)) + 20
    one = 1 << wp
    tf = to_fixed(t._mpf_, wp)
    q = (tf * tf) >> (wp + 2)
    term, s, h, sh, m = one, one, 0, 0, 0
    if order == 0:
        # s = sum q^m/(m!)^2, sh = sum H_m q^m/(m!)^2
        while term:
            m += 1
            term = (term * q >> wp) // (m * m)
            h += one // m
            s += term
            sh += term * h >> wp
    else:
        # s = sum q^m/(m!(m+1)!), sh = sum (H_m + H_(m+1)) q^m/(m!(m+1)!)
        h1 = sh = one
        while term:
            m += 1
            term = (term * q >> wp) // (m * (m + 1))
            h, h1 = h1, h1 + one // (m + 1)
            s += term
            sh += term * (h + h1) >> wp
    with mp.workprec(wp):
        log_term = to_fixed((mp.log(t / 2) + mp.euler)._mpf_, wp)
        if order == 0:
            i_val = mp.mpf((s, -wp))
            k_val = mp.mpf((sh - (log_term * s >> wp), -wp))
        else:
            half_t = t / 2
            i_val = half_t * mp.mpf((s, -wp))
            inner = (log_term * s >> wp) - (sh >> 1)
            k_val = 1 / t + half_t * mp.mpf((inner, -wp))
    return +i_val, +k_val


def _ik_asymptotic(order: int, t):
    """(I, K) of the given order by the large-t expansions of DLMF 10.40.1
    and 10.40.2, sum_k (-+1)^k a_k(nu)/t^k, truncated at the first term
    below 2^-wp or at the smallest term, whichever comes first."""
    wp = mp.prec + 20
    one = 1 << wp
    mu = 4 * order * order
    with mp.workprec(wp):
        inv_t = to_fixed((1 / t)._mpf_, wp)
        term, s_k, s_i, k = one, one, one, 0
        while True:
            k += 1
            nxt = (term * (mu - (2 * k - 1) ** 2) * inv_t >> wp) // (8 * k)
            if not nxt or abs(nxt) > abs(term):
                break
            term = nxt
            s_k += term
            s_i += -term if k % 2 else term
        e = mp.exp(t)
        r = mp.sqrt(mp.pi / (2 * t))
        i_val = e * r * mp.mpf((s_i, -wp)) / mp.pi
        k_val = r * mp.mpf((s_k, -wp)) / e
    return +i_val, +k_val


def _ik(order: int, t):
    """(I_order(t), K_order(t)) at the working precision, order 0 or 1:
    the power series below the crossover, the asymptotic expansions at or
    above it."""
    if t < _crossover(mp.prec):
        return _ik_series(order, t)
    return _ik_asymptotic(order, t)


def bessel(kind: str, t, digits: int):
    """I0, I1, K0 or K1 at a finite t > 0, with relative error below
    10^-digits."""
    try:
        order, slot = _KIND_SLOT[kind]
    except KeyError:
        raise ValueError(f"unknown Bessel kind {kind!r}") from None
    if digits < 1:
        raise ValueError("digits must be positive")
    with mp.workdps(digits + GUARD_DIGITS):
        tt = _to_mpf(t)
        if not 0 < tt < mp.inf:
            raise ValueError(f"bessel requires a finite t > 0, not {t}")
        return +_ik(order, tt)[slot]


def _to_mpf(x):
    """x as an mpf at the working precision; a Fraction is its numerator
    divided by its denominator."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


# ---------------------------------------------------------------------------
# Moment keys and the convergence guard
# ---------------------------------------------------------------------------


class MomentKey(namedtuple("MomentKey", "kind a b n u digits")):
    """Identifies one Bessel-moment integral at a requested precision: an
    immutable (kind, a, b, n, u, digits), checked when built, with an
    off-shell u stored as a Fraction."""

    __slots__ = ()

    def __new__(cls, kind: str, a: int, b: int, n: int,
                u: Optional[Fraction], digits: int):
        if kind not in _KINDS:
            raise ValueError(f"unknown moment kind {kind!r}")
        if a < 0 or b < 0 or n < 0:
            raise ValueError("moment indices must be non-negative")
        if digits < 1:
            raise ValueError("digits must be positive")
        spec = _OFFSHELL.get(kind)
        if spec is not None:
            if u is None:
                raise ValueError(f"{kind} requires an exact rational u")
            u = Fraction(u)
            if u <= 0:
                raise ValueError("u must be a positive rational")
            if (a, b)[spec.slot] < 1:
                index = "ab"[spec.slot]
                raise ValueError(f"{kind} requires {index} >= 1")
        elif u is not None:
            raise ValueError(f"{kind} does not take u")
        return super().__new__(cls, kind, a, b, n, u, digits)


def _decay(key: MomentKey) -> tuple[int, int]:
    """The exponential decay rate of the integrand at infinity, written
    delta = c + s*sqrt(u) with integer c and s in {-1, 0, +1}: a sqrt(u) t
    factor in place of an I0 gives s = -1, in place of a K0 s = +1, and
    c = b - a - s."""
    spec = _OFFSHELL.get(key.kind)
    s = 0 if spec is None else 2 * spec.slot - 1
    return key.b - key.a - s, s


def _check_convergent(key: MomentKey) -> None:
    c, s = _decay(key)
    if s == 0:
        ok = c > 0
    elif s > 0:
        # c + sqrt(u) > 0  <=>  c >= 0, or u > c^2
        ok = c >= 0 or key.u > c * c
    else:
        # c - sqrt(u) > 0  <=>  c > 0 and c^2 > u
        ok = c > 0 and c * c > key.u
    if not ok:
        raise ValueError(f"divergent moment configuration: {key}")


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


class _Node:
    """One quadrature node: the abscissa t, the weight, the (I, K) pairs
    at t and at scale*t, and in fixed point at the grid's ``bits`` the
    powers of t, I0(t) and K0(t) and t^n times the weight, each computed
    on first use and kept for every later sweep over the node."""

    __slots__ = ("t", "weight", "bits", "_pairs", "_powers", "_ys")

    def __init__(self, t, weight, bits: int):
        self.t = t
        self.weight = weight
        self.bits = bits
        self._pairs: dict = {}
        self._powers: dict = {}
        self._ys: dict = {}

    def bessel(self, kind: str, scale=None):
        """I0, I1, K0 or K1 at t, or at scale*t, scale an ``_mpf_`` tuple."""
        order, slot = _KIND_SLOT[kind]
        pair = self._pairs.get((order, scale))
        if pair is None:
            x = self.t if scale is None else mp.make_mpf(scale) * self.t
            pair = self._pairs[order, scale] = _ik(order, x)
        return pair[slot]

    def power(self, name: str, j: int):
        """t, I0(t) or K0(t) to the power j, as a running product."""
        if not j:
            return 1, 0
        table = self._powers.get(name)
        if table is None:
            base = self.t if name == "t" else self.bessel(name)
            table = self._powers[name] = [(1, 0), _fixed(base)]
        while len(table) <= j:
            table.append(_mul(table[-1], table[1], self.bits))
        return table[j]

    def y(self, n: int):
        """t^n times the weight."""
        v = self._ys.get(n)
        if v is None:
            v = self._ys[n] = _mul(self.power("t", n), _fixed(self.weight),
                                   self.bits)
        return v


class _Grid:
    """The nodes of the exp-exp map t = exp(w - e^(-w)) at one working
    precision, whose fixed-point products keep ``bits`` bits.  Level 0
    holds w = m/4 for every integer m and level L >= 1 the odd multiples
    of 2^-(L+2), so each node belongs to one level.  A node is placed on
    first use and then shared by every moment that walks the grid.  mpf
    exponents are unbounded, so no weight underflows to 0 and no t
    overflows or falls to 0, and a walk ends only by the tail cut-off of
    ``_level``."""

    def __init__(self, bits: int):
        self.bits = bits
        self._nodes: dict = {}

    def node(self, level: int, m: int) -> _Node:
        key = (level, m)
        try:
            return self._nodes[key]
        except KeyError:
            pass
        w = mp.ldexp(m, -2 - level)
        e = mp.exp(-w)
        t = mp.exp(w - e)
        node = self._nodes[key] = _Node(t, (1 + e) * t, self.bits)
        return node


@functools.lru_cache(maxsize=16)
def _grid(prec: int) -> _Grid:
    """The shared grid at working precision ``prec``, which must be the
    current one: the exp-exp map of Takahasi and Mori over (0,oo),
    t = exp(w - e^(-w)), weight (1 + e^(-w)) t.  Its nodes fall to 0 like
    exp(-e^(-w)) as w -> -oo, so the log-power singularity at t = 0 is
    absorbed, and grow like e^w as w -> +oo, so an integrand decaying like
    e^(-delta t) falls double exponentially in w for every delta > 0.  The
    cache bounds the grids, and with them the nodes, Bessel pairs and
    power tables, kept alive at once."""
    return _Grid(prec + _GUARD_BITS)


# Fixed-point arithmetic of the sweep: a value is a pair (m, e) of Python
# integers standing for m 2^e.  Products are truncated to ``bits`` bits,
# ``bits`` = working precision + _GUARD_BITS; each sum keeps _SUM_BITS more
# bits below its largest term than the working precision.
_GUARD_BITS = 16
_SUM_BITS = 48


def _fixed(x) -> tuple[int, int]:
    """The mpf x as an exact (m, e) pair."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


def _trunc(m: int, e: int, bits: int) -> tuple[int, int]:
    """m 2^e truncated to at most ``bits`` bits."""
    s = m.bit_length() - bits
    return (m >> s, e + s) if s > 0 else (m, e)


def _mul(x, y, bits: int) -> tuple[int, int]:
    return _trunc(x[0] * y[0], x[1] + y[1], bits)


def _sub(x, y, bits: int) -> tuple[int, int]:
    lo = min(x[1], y[1])
    return _trunc((x[0] << (x[1] - lo)) - (y[0] << (y[1] - lo)), lo, bits)


def _below(m: int, e: int, lead: int, y) -> bool:
    """m 2^e < y for m > 0 with lead = e + bitlen(m), y = (m, e, lead)."""
    if lead != y[2]:
        return lead < y[2]
    if e >= y[1]:
        return m << (e - y[1]) < y[0]
    return m < y[0] << (y[1] - e)


def _recipe(key: MomentKey) -> tuple[tuple, int]:
    """(x, n): the integrand of ``key`` is X(x) t^n, with x naming the
    product of Bessel factors X: (the sqrt(u) t factor as (kind, sqrt(u)),
    or None; its sign; the powers of I0(t) and K0(t); 0 for no log t,
    1 for a factor log t, 2 for log t and the a = 1 correction).  x keys
    the node's products: sqrt(u) is its ``_mpf_`` tuple, which hashes fast."""
    a, b, n = key.a, key.b, key.n
    if key.kind in _ONSHELL_KINDS:
        log = 0 if key.kind == "IKM" else 1 + (a == 1)
        return (None, 1, a, b, log), n
    factor, sign, slot, extra = _OFFSHELL[key.kind]
    # at u = 1 the sqrt(u) t factors share the pairs at t
    scale = None if key.u == 1 else mp.sqrt(_to_mpf(key.u))._mpf_
    powers = a - (slot == 0), b - (slot == 1)
    return ((factor, scale), sign, *powers, 0), n + extra


class _Products:
    """The integrand factors at one node for one sweep: ``x(recipe)``, the
    product of Bessel factors, formed on first use, so a Bessel pair is
    computed only for a moment that needs it.  The powers and t^n times
    the weight are the node's."""

    __slots__ = ("node", "xs")

    def __init__(self, node: _Node):
        self.node = node
        self.xs: dict = {}

    def x(self, recipe: tuple):
        v = self.xs.get(recipe)
        if v is None:
            factor, sign, i0, k0, log = recipe
            node = self.node
            bits = node.bits
            v = _mul(node.power("I0", i0), node.power("K0", k0), bits)
            if factor is not None:
                v = _mul(v, _fixed(node.bessel(*factor)), bits)
                if sign < 0:
                    v = -v[0], v[1]
            if log:
                v = _mul(v, _fixed(mp.log(node.t)), bits)
                if log == 2:
                    m, e = node.power("K0", i0 + k0)
                    v = _sub(v, ((m << bits) // (i0 + k0), e - bits), bits)
            self.xs[recipe] = v
        return v


class _Sum:
    """One moment's trapezoid sum over one grid.  ``acc`` holds the sum of
    every term so far and ``prev`` the sum up to the previous level, both
    in units of 2^exp; exp rises with the largest term, so the sum keeps
    its relative digits whatever the moment's size.  ``largest`` and
    ``limit`` = eps (largest + 1) drive the tail cut-off."""

    __slots__ = ("key", "x", "n", "window", "acc", "prev", "exp", "largest",
                 "limit", "tiny", "value")

    def __init__(self, key: MomentKey):
        self.key = key
        self.x, self.n = _recipe(key)
        self.window = mp.prec + _SUM_BITS
        self.acc = self.prev = 0
        self.exp = None
        self.value = None

    def term(self, products: _Products) -> tuple[int, int]:
        x, y = products.x(self.x), products.node.y(self.n)
        return x[0] * y[0], x[1] + y[1]

    def add(self, m: int, e: int, lead: int) -> None:
        """Add the term m 2^e (m != 0, lead = e + bitlen(m))."""
        top = lead - self.window
        if self.exp is None:
            self.exp = top
        elif top > self.exp:
            d = top - self.exp
            self.acc >>= d
            self.prev >>= d
            self.exp = top
        d = e - self.exp
        self.acc += m << d if d >= 0 else m >> -d

    def raise_largest(self, m: int, e: int, lead: int, prec: int) -> None:
        """Make m 2^e (m > 0) the largest term and update the limit
        eps (largest + 1), eps = 2^(1-prec), truncated like an mpf sum."""
        self.largest = m, e, lead
        if lead < -prec - 2:
            s, se = 1, 0
        elif lead > prec + 2:
            s, se = m, e
        else:
            se = min(e, 0)
            s = (m << (e - se)) + (1 << -se)
        se += 1 - prec
        self.limit = s, se, se + s.bit_length()

    def converged(self, level: int) -> bool:
        """After ``level`` >= 1: whether |cur - prev| <= 10^-(digits+5)
        (|cur| + 1), where cur = acc 2^(exp-level-2) is this level's sum
        times the step and prev the previous level's; sets ``value``."""
        exp = (self.exp or 0) - level - 2
        cur = abs(self.acc)
        diff = abs(self.acc - 2 * self.prev) * 10 ** (self.key.digits + 5)
        if exp >= 0:
            ok = diff << exp <= (cur << exp) + 1
        else:
            ok = diff <= cur + (1 << -exp)
        if ok:
            self.value = self.acc, exp
        else:
            self.prev = self.acc
        return ok


def _level(grid: _Grid, sums: list, level: int) -> None:
    """Add every sum's terms of one level: level 0 holds m = 0, whose
    term counts toward no tail, and every m; level L >= 1 the odd m.  Each
    direction is walked outward until a sum has seen three successive
    terms below eps (largest + 1), largest being its largest term of the
    level so far; the walk goes on while any sum is still walking."""
    prec = mp.prec
    for st in sums:
        st.largest = None
        st.limit = (1, 1 - prec, 2 - prec)
    if level == 0:
        products = _Products(grid.node(0, 0))
        for st in sums:
            m, e = st.term(products)
            if m:
                st.add(m, e, e + m.bit_length())
    step = 1 if level == 0 else 2
    for direction in (1, -1):
        walking = sums
        for st in walking:
            st.tiny = 0
        j = 1
        while walking:
            products = _Products(grid.node(level, direction * j))
            j += step
            still = []
            for st in walking:
                m, e = st.term(products)
                if m:
                    lead = e + m.bit_length()
                    st.add(m, e, lead)
                    m = abs(m)
                    largest = st.largest
                    if largest is None or not _below(m, e, lead, largest):
                        st.raise_largest(m, e, lead, prec)
                    small = _below(m, e, lead, st.limit)
                else:
                    small = True
                if small:
                    st.tiny += 1
                    if st.tiny >= 3:
                        continue
                else:
                    st.tiny = 0
                still.append(st)
            walking = still


def _converge(grid: _Grid, sums: list) -> list:
    """Refine the sums on one grid by level doubling until each has
    converged; the sums left unconverged after LEVEL_BUDGET levels."""
    _level(grid, sums, 0)
    for st in sums:
        st.prev = st.acc
    for level in range(1, LEVEL_BUDGET + 1):
        _level(grid, sums, level)
        sums = [st for st in sums if not st.converged(level)]
        if not sums:
            break
    return sums


def _integrate(keys: list) -> dict:
    """{key: moment} for ``keys``, which share their digits, at the
    working precision the caller set (dps = digits + GUARD_DIGITS): each
    is its sum over the shared (0,oo) grid, swept once for all the keys.
    Raises QuadratureError naming a key that did not converge."""
    sums = [_Sum(key) for key in keys]
    left = _converge(_grid(mp.prec), sums)
    if left:
        raise QuadratureError(f"{left[0].key}: quadrature did not converge "
                              "within the level budget")
    return {st.key: mp.mpf(st.value) for st in sums}


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


def _u_str(u: Optional[Fraction]) -> Optional[str]:
    if u is None:
        return None
    return f"{u.numerator}/{u.denominator}"


#: Stored with every cache record: the Bessel kernel that computed it.
#: Records with another tag, or none, are stale and never served.  Any
#: change to the kernel, the quadrature or the guard digits that alters a
#: stored value must bump this tag; ``tests/test_golden.py`` pins the
#: cache a cold build writes under it.
_KERNEL_TAG = "ik-series-asymptotic/5"


def _parse_record(line: str) -> Optional[dict]:
    """The cache record on one line, or None when the line is torn or a
    field is missing or malformed."""
    try:
        rec = json.loads(line)
        if rec["kind"] in _KINDS and all(
            type(rec[f]) is int for f in ("a", "b", "n", "digits")
        ):
            mpmath.mpf(rec["value"])
            if rec["u"] is not None:
                Fraction(rec["u"])
            return rec
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        pass
    return None


def _cache_path() -> str:
    """The path a cache opened without one uses: BWV_CACHE if set, else
    ``~/.cache/bwv/moments.jsonl``."""
    path = os.environ.get("BWV_CACHE")
    if path is None:
        path = str(Path.home() / ".cache" / "bwv" / "moments.jsonl")
    return path


class MomentCache:
    """Persistent append-only cache of computed moments, one JSON record
    per line: {"kind","a","b","n","u","digits","value","kernel"}.  A
    lookup hits when a record with the current kernel tag has at least
    the requested digits.  Torn or malformed lines are skipped and
    counted, as are stale records from another kernel.  A file that
    cannot be read is taken as empty, and one that cannot be appended to
    keeps its values in memory: either warns, and neither stops a run."""

    def __init__(self, path: Optional[str] = None):
        self.path = str(_cache_path() if path is None else path)
        self._map: dict = {}
        self._counts = {"records": 0, "skipped": 0, "stale": 0}
        self._error: Optional[str] = None
        self._append_failed = False
        self._load()

    @staticmethod
    def _map_key(key: MomentKey):
        return (key.kind, key.a, key.b, key.n, _u_str(key.u))

    def _load(self) -> None:
        try:
            with open(self.path) as fh:
                lines = fh.readlines()
        except (FileNotFoundError, NotADirectoryError):
            return
        except (OSError, UnicodeDecodeError) as exc:
            self._error = f"{type(exc).__name__}: {exc}"
            warnings.warn(f"moment cache {self.path} cannot be read "
                          f"({self._error}); starting empty", RuntimeWarning,
                          stacklevel=2)
            return
        for line in lines:
            if not line.strip():
                continue
            self._counts["records"] += 1
            rec = _parse_record(line)
            if rec is None:
                self._counts["skipped"] += 1
            elif rec.get("kernel") != _KERNEL_TAG:
                self._counts["stale"] += 1
            else:
                mk = (rec["kind"], rec["a"], rec["b"], rec["n"], rec["u"])
                old = self._map.get(mk)
                if old is None or rec["digits"] > old[0]:
                    self._map[mk] = (rec["digits"], rec["value"])

    def get(self, key: MomentKey) -> Optional[str]:
        hit = self._map.get(self._map_key(key))
        if hit is not None and hit[0] >= key.digits:
            return hit[1]
        return None

    def put(self, values: dict) -> None:
        """Store {key: value string} and append one record per key to the
        file, the whole batch in one write."""
        lines = []
        for key, value in values.items():
            rec = {
                "kind": key.kind,
                "a": key.a,
                "b": key.b,
                "n": key.n,
                "u": _u_str(key.u),
                "digits": key.digits,
                "value": value,
                "kernel": _KERNEL_TAG,
            }
            lines.append(json.dumps(rec) + "\n")
            mk = self._map_key(key)
            old = self._map.get(mk)
            if old is None or key.digits > old[0]:
                self._map[mk] = (key.digits, value)
        data = "".join(lines).encode()
        p = Path(self.path)
        try:
            p.parent.mkdir(parents=True, exist_ok=True)
            with p.open("a+b") as fh:
                # end a torn last line first, so these records stay whole
                if fh.seek(0, os.SEEK_END):
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        data = b"\n" + data
                fh.write(data)
        except OSError as exc:
            if not self._append_failed:
                self._append_failed = True
                warnings.warn(f"moment cache {self.path} cannot be written "
                              f"({type(exc).__name__}: {exc}); values are "
                              "kept in memory only", RuntimeWarning,
                              stacklevel=2)

    def stats(self) -> dict:
        entries = len(self._map)
        by_kind: dict = {}
        for (kind, *_rest) in self._map:
            by_kind[kind] = by_kind.get(kind, 0) + 1
        p = Path(self.path)
        return {
            "path": self.path,
            "entries": entries,
            "by_kind": by_kind,
            "stale": self._counts["stale"],
            "skipped": self._counts["skipped"],
            "file_exists": p.is_file(),
            "file_bytes": p.stat().st_size if p.is_file() else 0,
        }

    def verify(self) -> dict:
        """Re-read the backing file: its records, the lines a load skips
        (torn or malformed) and the stale records.  ``ok`` when the file
        can be read and no line is skipped; otherwise ``error`` names why
        it cannot be read."""
        fresh = MomentCache(self.path)
        if fresh._error is not None:
            return {**fresh._counts, "ok": False, "error": fresh._error}
        return {**fresh._counts, "ok": fresh._counts["skipped"] == 0}


@functools.lru_cache(maxsize=1)
def _cache_at(path: str) -> MomentCache:
    return MomentCache(path)


def default_cache() -> MomentCache:
    """The process-wide cache, reopened whenever the path it would resolve
    (BWV_CACHE, or the default) has changed since it was opened."""
    return _cache_at(_cache_path())


# ---------------------------------------------------------------------------
# moment
# ---------------------------------------------------------------------------


def _store_missing(keys: list, cache: MomentCache) -> None:
    """Check ``keys``, which share their digits, compute the ones the cache
    misses together (one sweep of the grid) and store them, each at
    digits + GUARD_DIGITS digits, in one append."""
    for key in keys:
        _check_convergent(key)
    missing = list(dict.fromkeys(k for k in keys if cache.get(k) is None))
    if missing:
        dps = missing[0].digits + GUARD_DIGITS
        with mp.workdps(dps):
            cache.put({key: mp.nstr(value, dps, strip_zeros=False,
                                    min_fixed=1, max_fixed=0)
                       for key, value in _integrate(missing).items()})


def _moments(keys: list, cache: Optional[MomentCache] = None) -> list:
    """The moments named by ``keys``, which share their digits, in order,
    each the stored string parsed at the guard precision, so a cold call
    returns the same bits as a warm one."""
    if cache is None:
        cache = default_cache()
    _store_missing(keys, cache)
    with mp.workdps(keys[0].digits + GUARD_DIGITS):
        return [mp.mpf(cache.get(key)) for key in keys]


def moment(key: MomentKey, cache: Optional[MomentCache] = None):
    """The Bessel moment named by ``key``, with absolute error below
    10^-digits * max(1, |result|); consults and updates the cache."""
    return _moments([key], cache)[0]


def moment_value(
    kind: str,
    a: int,
    b: int,
    n: int,
    u: Optional[Fraction] = None,
    digits: int = 50,
    cache: Optional[MomentCache] = None,
):
    """Convenience wrapper building the MomentKey inline."""
    return moment(MomentKey(kind, a, b, n, u, digits), cache=cache)


# ---------------------------------------------------------------------------
# Normalized moment families (the mu/nu entries) and moment matrices
# ---------------------------------------------------------------------------


#: The (I-kind, K-kind) pairs of the plain and the differentiated ("acute")
#: families.
_PLAIN = ("IvKM", "IKvM")
_ACUTE = ("IpKM", "IKpM")


def _pi_power(a: int, k: int, p: int):
    """pi^(a-k-1-p/2), the weight of an entry with a I-type factors in the
    family of parity p at size k."""
    return mp.pi ** (a - k - 1 - mp.mpf(p) / 2)


def _family_keys(kinds, p: int, k: int, j: int, ell: int, u, digits: int):
    """The moments of column j of the normalized family of parity p at
    n = 2 ell - 1: both kinds at a = 1 (the blend) at column 1, the I-kind
    at a = j up to column k+p, the K-kind at a = j-k+1-p up to column
    3k-1+2p.  At u = 1 both plain kinds are the integral IKM, and take its
    key."""
    last = 3 * k - 1 + 2 * p
    if not 1 <= j <= last:
        raise ValueError(f"column j={j} out of range [1, {last}] for k={k}")
    u = Fraction(u)
    n = 2 * ell - 1
    w = 2 * k + 1 + p
    if u == 1 and kinds == _PLAIN:
        kinds, u = ("IKM", "IKM"), None
    i_kind, k_kind = kinds
    if j == 1:
        return [MomentKey(kind, 1, w - 1, n, u, digits) for kind in kinds]
    kind, a = (i_kind, j) if j <= k + p else (k_kind, j - k + 1 - p)
    return [MomentKey(kind, a, w - a, n, u, digits)]


def family_moments(cells, u, digits: int) -> list:
    """The normalized family entries named by ``cells`` at u, in order,
    from one batch of moments.  A cell (p, acute, k, j, ell) is column j of
    the plain (mu or nu) or, when ``acute``, the differentiated family of
    parity p at size k and n = 2 ell - 1: pi^(a-k-1-p/2) times its moment,
    where column 1 blends (I-kind + (w-1) K-kind)/w at a = 1, with
    w = 2k+1+p."""
    keys = [_family_keys(_ACUTE if acute else _PLAIN, p, k, j, ell, u, digits)
            for p, acute, k, j, ell in cells]
    with mp.workdps(digits + GUARD_DIGITS):
        vals = iter(_moments([key for column in keys for key in column]))
        out = []
        for (p, _, k, j, _), column in zip(cells, keys):
            if j == 1:
                w = 2 * k + 1 + p
                i_val, k_val = next(vals), next(vals)
                out.append((i_val + (w - 1) * k_val) / w * _pi_power(1, k, p))
            else:
                out.append(_pi_power(column[0].a, k, p) * next(vals))
        return out


def _moment_matrix(kind: str, p: int, k: int, digits: int):
    """((-1)^(b-1) pi^(a-k-1-p/2) kind(a, 2k+1+p-a; 2b-1)), k x k."""
    if k < 1:
        raise ValueError("moment matrices require k >= 1")
    keys = [MomentKey(kind, a, 2 * k + 1 + p - a, 2 * b - 1, None, digits)
            for a in range(1, k + 1) for b in range(1, k + 1)]
    with mp.workdps(digits + GUARD_DIGITS):
        vals = iter(_moments(keys))
        out = mp.matrix(k, k)
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                out[a - 1, b - 1] = (
                    (-1) ** (b - 1) * _pi_power(a, k, p) * next(vals))
        return out


def matM(k: int, digits: int):
    """M_k: ((-1)^(b-1) pi^(a-k-1) IKM(a, 2k+1-a; 2b-1)), k x k."""
    return _moment_matrix("IKM", 0, k, digits)


def matN(k: int, digits: int):
    """N_k: ((-1)^(b-1) pi^(a-k-3/2) IKM(a, 2k+2-a; 2b-1)), k x k."""
    return _moment_matrix("IKM", 1, k, digits)


def matMring(k: int, digits: int):
    """Log-weighted companion of M_k built from IKM_LOG moments."""
    return _moment_matrix("IKM_LOG", 0, k, digits)


def matNring(k: int, digits: int):
    """Log-weighted companion of N_k built from IKM_LOG moments."""
    return _moment_matrix("IKM_LOG", 1, k, digits)


def _wronskian(p: int, k: int, u, digits: int):
    """The Wronskian matrix of the family of parity p, size 2k-1+p, with
    u in (0, 1] for the odd family and (0, 1) for the even one.  Column j
    is the inverse beta matrix applied to the signed vector of k plain
    and k-1+p differentiated moments at column j."""
    if k < 1:
        raise ValueError("Wronskian matrices require k >= 1")
    u = Fraction(u)
    if not (0 < u < 1 or u == 1 and not p):
        raise ValueError(f"u must be rational in (0, 1{')' if p else ']'}")
    m = 2 * k - 1 + p
    cells = [(p, acute, k, j, ell) for j in range(1, m + 1)
             for acute, ells in ((False, k), (True, k - 1 + p))
             for ell in range(1, ells + 1)]
    vals = iter(family_moments(cells, u, digits))
    with mp.workdps(digits + GUARD_DIGITS):
        # the exact entries of beta^-1 from bwv.beta, which loads no exact
        # layer, each made an mpf by _to_mpf
        binv = mp.matrix([[_to_mpf(x) for x in row]
                          for row in beta_inverse(m, u)])
        su = mp.sqrt(_to_mpf(u))
        out = mp.matrix(m, m)
        for j in range(1, m + 1):
            vec = mp.matrix(m, 1)
            for ell in range(1, k + 1):
                vec[ell - 1] = (-1) ** (ell - 1) * next(vals)
            for ell in range(1, k + p):
                vec[k + ell - 1] = (-1) ** (ell - 1) * su * next(vals)
            col = binv * vec
            for i in range(m):
                out[i, j - 1] = col[i]
        return out


def matOmega(k: int, u: Fraction, digits: int):
    """The odd Wronskian matrix Omega_{2k-1}(u), (i,j) entry
    D^(i-1) mu^1_{k,j}(u).  Derivatives are reconstructed exactly through
    the inverse beta matrix applied to signed moment vectors -- no
    numerical differentiation."""
    return _wronskian(0, k, u, digits)


def matomega(k: int, u: Fraction, digits: int):
    """The even Wronskian matrix omega_{2k}(u), (i,j) entry
    D^(i-1) nu^1_{k,j}(u), via the inverse beta matrix."""
    return _wronskian(1, k, u, digits)


# ---------------------------------------------------------------------------
# Named constants
# ---------------------------------------------------------------------------


def bologna(digits: int):
    """The Bologna constant
    C = Gamma(1/15) Gamma(2/15) Gamma(4/15) Gamma(8/15) / (240 sqrt(5) pi^2)."""
    if digits < 1:
        raise ValueError("digits must be positive")
    with mp.workdps(digits + GUARD_DIGITS):
        num = mp.mpf(1)
        for p in (1, 2, 4, 8):
            num *= mp.gamma(mp.mpf(p) / 15)
        return +(num / (240 * mp.sqrt(mp.mpf(5)) * mp.pi**2))
