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
log-weighted companions IKM_LOG.

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
Moment integrals split at t = 1: tanh-sinh on (0,1) (absorbs the
log-power singularity at 0) and a double-exponential substitution
t = 1 + c exp((pi/2) sinh w) on (1,oo) with c matched to the exponential
decay rate and rounded down to a power of two.  Each interval, scale c
and working precision has one shared grid (``_grid``): a node's t and
weight, and the (I, K) pairs at t and at sqrt(u) t, are computed when a
moment first reaches the node and reused by every later moment, so a
matrix of moments costs one set of node evaluations plus one integrand
product per entry and node.  The grids are held in a small LRU cache, so
their memory stays bounded.  Each moment still walks the grid on its own:
its own tail cut-off, and level doubling until two successive levels agree
to the target, within a hard level budget, at a guard precision of
``digits`` + 15.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import mpmath
from mpmath import mp
from mpmath.libmp import to_fixed

from .brmatrices import beta_matrix
from .exactalg import exact_inverse

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
    "ibp_sanity",
    "matM",
    "matMring",
    "matN",
    "matNring",
    "matOmega",
    "matomega",
    "moment",
    "moment_value",
    "mu_moment",
    "mu_acute_moment",
    "nu_moment",
    "nu_acute_moment",
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
_ONSHELL_KINDS = frozenset({"IKM", "IKM_LOG"})
_KINDS = _ONSHELL_KINDS | frozenset(_OFFSHELL)

#: Public tuple of the recognized moment kinds.
MOMENT_KINDS = tuple(sorted(_KINDS))


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
    """I0, I1, K0 or K1 at t > 0, with relative error below 10^-digits."""
    try:
        order, slot = _KIND_SLOT[kind]
    except KeyError:
        raise ValueError(f"unknown Bessel kind {kind!r}") from None
    if digits < 1:
        raise ValueError("digits must be positive")
    with mp.workdps(digits + GUARD_DIGITS):
        tt = _to_mpf(t)
        if tt <= 0:
            raise ValueError("bessel requires t > 0")
        return +_ik(order, tt)[slot]


def _to_mpf(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


# ---------------------------------------------------------------------------
# Moment keys and the convergence guard
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentKey:
    """Identifies one Bessel-moment integral at a requested precision."""

    kind: str
    a: int
    b: int
    n: int
    u: Optional[Fraction]
    digits: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown moment kind {self.kind!r}")
        if self.a < 0 or self.b < 0 or self.n < 0:
            raise ValueError("moment indices must be non-negative")
        if self.digits < 1:
            raise ValueError("digits must be positive")
        spec = _OFFSHELL.get(self.kind)
        if spec is not None:
            if self.u is None:
                raise ValueError(f"{self.kind} requires an exact rational u")
            object.__setattr__(self, "u", Fraction(self.u))
            if self.u <= 0:
                raise ValueError("u must be a positive rational")
            if (self.a, self.b)[spec.slot] < 1:
                index = "ab"[spec.slot]
                raise ValueError(f"{self.kind} requires {index} >= 1")
        elif self.u is not None:
            raise ValueError(f"{self.kind} does not take u")


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


def _integrand(key: MomentKey) -> Callable:
    """The integrand as a function of a quadrature node (``_Node``)."""
    a, b, n = key.a, key.b, key.n
    if key.kind in _ONSHELL_KINDS:
        log_weighted = key.kind == "IKM_LOG"

        def f(node):
            t = node.t
            val = mp.mpf(1)
            if a:
                val *= node.bessel("I0") ** a
            if b:
                val *= node.bessel("K0") ** b
            if log_weighted:
                val *= mp.log(t)
                if a == 1:
                    val -= node.bessel("K0") ** (a + b) / (a + b)
            return val * t**n

        return f

    factor, sign, slot, extra = _OFFSHELL[key.kind]
    i0_power, k0_power = a - (slot == 0), b - (slot == 1)
    n += extra
    # at u = 1 the sqrt(u) t factors share the pairs at t
    su = None if key.u == 1 else mp.sqrt(_to_mpf(key.u))

    def f(node):
        val = node.bessel(factor, su)
        if sign < 0:
            val = -val
        if i0_power:
            val *= node.bessel("I0") ** i0_power
        if k0_power:
            val *= node.bessel("K0") ** k0_power
        return val * node.t**n

    return f


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


class _Node:
    """One quadrature node: the abscissa t, the weight, and the (I, K)
    pairs at t and at scale*t, each computed on first use and shared
    with every node of the grid at the same t."""

    __slots__ = ("t", "weight", "_pairs")

    def __init__(self, t, weight, pairs: dict):
        self.t = t
        self.weight = weight
        self._pairs = pairs

    def bessel(self, kind: str, scale=None):
        """I0, I1, K0 or K1 at t, or at scale*t (the sqrt(u) t factors)."""
        order, slot = _KIND_SLOT[kind]
        key = (order, None if scale is None else scale._mpf_)
        pair = self._pairs.get(key)
        if pair is None:
            x = self.t if scale is None else scale * self.t
            pair = self._pairs[key] = _ik(order, x)
        return pair[slot]


class _Grid:
    """The nodes of one double-exponential substitution at one working
    precision.  Level 0 holds w = m/4 for every integer m and level L >= 1
    the odd multiples of 2^-(L+2), so each node belongs to one level.  A
    node is placed on first use and then shared by every moment that
    walks the grid.  ``place(w)`` gives (t, weight), or None where the
    integrand term vanishes in working precision.  Far in the tails many
    nodes round to the same t, so their Bessel pairs are kept per t."""

    def __init__(self, place: Callable):
        self._place = place
        self._nodes: dict = {}
        self._pairs: dict = {}

    def node(self, level: int, m: int) -> Optional[_Node]:
        key = (level, m)
        try:
            return self._nodes[key]
        except KeyError:
            pass
        placed = self._place(mp.ldexp(m, -2 - level))
        if placed is not None:
            t, weight = placed
            placed = _Node(t, weight, self._pairs.setdefault(t._mpf_, {}))
        self._nodes[key] = placed
        return placed


@functools.lru_cache(maxsize=16)
def _grid(halvings: Optional[int], prec: int) -> _Grid:
    """The shared grid at working precision ``prec``, which must be the
    current one: tanh-sinh on (0,1) when ``halvings`` is None, else
    t = 1 + c exp((pi/2) sinh w) on (1,oo) with c = 2^-halvings.  The
    cache bounds the grids, and with them the nodes and Bessel pairs,
    kept alive at once."""
    half_pi = mp.pi / 2
    if halvings is None:

        def place(w):
            x = half_pi * mp.sinh(w)
            # t computed so that both t and 1-t stay accurate
            if x >= 0:
                omt = 1 / (1 + mp.exp(2 * x))  # 1 - t
                t = 1 - omt
            else:
                t = 1 / (1 + mp.exp(-2 * x))
                omt = 1 - t
            if t == 0 or omt == 0:
                return None
            return t, mp.pi * mp.cosh(w) * t * omt

    else:
        c = mp.ldexp(1, -halvings)

        def place(w):
            g = mp.exp(half_pi * mp.sinh(w))
            t = 1 + c * g
            weight = c * half_pi * mp.cosh(w) * g
            if weight == 0 or mp.isinf(t):
                return None
            return t, weight

    return _Grid(place)


def _trapezoid_levels(grid: _Grid, f, target, what: str):
    """Double-exponential trapezoid sum_m h*f(node m)*weight over the
    grid, refined by level doubling until two successive levels agree to
    ``target`` (relative).  Each direction of a sweep stops after three
    successive terms below eps times the largest term so far."""

    def term(level, m):
        node = grid.node(level, m)
        return f(node) * node.weight if node else mp.mpf(0)

    def sweep(level, step):
        total = mp.mpf(0)
        largest = mp.mpf(0)
        for direction in (1, -1):
            n = 1
            tiny = 0
            while True:
                val = term(level, direction * n)
                total += val
                a = abs(val)
                if a > largest:
                    largest = a
                if a < mp.eps * (largest + 1):
                    tiny += 1
                    if tiny >= 3:
                        break
                else:
                    tiny = 0
                n += step
        return total

    h = mp.mpf(1) / 4
    prev = (term(0, 0) + sweep(0, 1)) * h
    for level in range(1, LEVEL_BUDGET + 1):
        h /= 2
        extra = sweep(level, 2) * h
        cur = prev / 2 + extra
        if abs(cur - prev) <= target * (abs(cur) + 1):
            return cur
        prev = cur
    raise QuadratureError(
        f"{what}: quadrature did not converge within the level budget"
    )


def _compute_moment(key: MomentKey):
    """Evaluate the moment integral at guard precision (caller sets dps):
    tanh-sinh over (0,1) plus the (1,oo) grid whose c is the largest power
    of two at most min(1, 1/delta), delta the decay rate, so moments share
    grids."""
    c, s = _decay(key)
    delta_float = c + s * mp.sqrt(_to_mpf(key.u)) if s else mp.mpf(c)
    halvings = 0
    while mp.ldexp(1, -halvings) > 1 / delta_float:
        halvings += 1
    f = _integrand(key)
    target = mpmath.mpf(10) ** (-(key.digits + 5))
    return _trapezoid_levels(
        _grid(None, mp.prec), f, target, "interval (0,1)"
    ) + _trapezoid_levels(
        _grid(halvings, mp.prec), f, target, "interval (1,oo)"
    )


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
_KERNEL_TAG = "ik-series-asymptotic/1"


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
    counted, as are stale records from another kernel."""

    def __init__(self, path: Optional[str] = None):
        self.path = str(_cache_path() if path is None else path)
        self._map: dict = {}
        self._counts = {"records": 0, "skipped": 0, "stale": 0}
        self._load()

    @staticmethod
    def _map_key(key: MomentKey):
        return (key.kind, key.a, key.b, key.n, _u_str(key.u))

    def _load(self) -> None:
        p = Path(self.path)
        if not p.exists():
            return
        with p.open() as fh:
            for line in fh:
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

    def put(self, key: MomentKey, value: str) -> None:
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
        line = (json.dumps(rec) + "\n").encode()
        mk = self._map_key(key)
        old = self._map.get(mk)
        if old is None or key.digits > old[0]:
            self._map[mk] = (key.digits, value)
        p = Path(self.path)
        p.parent.mkdir(parents=True, exist_ok=True)
        with p.open("a+b") as fh:
            # end a torn last line first, so this record stays whole
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    line = b"\n" + line
            fh.write(line)

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
            "file_exists": p.exists(),
            "file_bytes": p.stat().st_size if p.exists() else 0,
        }

    def verify(self) -> dict:
        """Re-read the backing file: its records, the lines a load skips
        (torn or malformed) and the stale records.  ``ok`` when no line is
        skipped."""
        counts = MomentCache(self.path)._counts
        return {**counts, "ok": counts["skipped"] == 0}


_DEFAULT_CACHE: Optional[MomentCache] = None


def default_cache() -> MomentCache:
    """The process-wide cache, reopened whenever the path it would resolve
    (BWV_CACHE, or the default) has changed since it was opened."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None or _DEFAULT_CACHE.path != _cache_path():
        _DEFAULT_CACHE = MomentCache()
    return _DEFAULT_CACHE


# ---------------------------------------------------------------------------
# moment
# ---------------------------------------------------------------------------


def moment(key: MomentKey, cache: Optional[MomentCache] = None):
    """The Bessel moment named by ``key``, with absolute error below
    10^-digits * max(1, |result|); consults and updates the cache."""
    _check_convergent(key)
    if cache is None:
        cache = default_cache()
    hit = cache.get(key)
    if hit is not None:
        with mp.workdps(key.digits + GUARD_DIGITS):
            return mp.mpf(hit)
    with mp.workdps(key.digits + GUARD_DIGITS):
        val = _compute_moment(key)
        text = mp.nstr(
            val, key.digits + 5, strip_zeros=False, min_fixed=1, max_fixed=0
        )
        cache.put(key, text)
        return +val


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


def _family_moment(kinds, p: int, k: int, j: int, ell: int, u, digits: int):
    """Column j of the normalized family of parity p at n = 2 ell - 1: the
    blend of both kinds at column 1, the I-kind at a = j up to column k+p,
    the K-kind at a = j-k+1-p up to column 3k-1+2p."""
    last = 3 * k - 1 + 2 * p
    if not 1 <= j <= last:
        raise ValueError(f"column j={j} out of range [1, {last}] for k={k}")
    u = Fraction(u)
    n = 2 * ell - 1
    w = 2 * k + 1 + p
    i_kind, k_kind = kinds
    with mp.workdps(digits + GUARD_DIGITS):
        if j == 1:
            val = (
                moment_value(i_kind, 1, w - 1, n, u, digits)
                + (w - 1) * moment_value(k_kind, 1, w - 1, n, u, digits)
            ) / w
            return val * _pi_power(1, k, p)
        kind, a = (i_kind, j) if j <= k + p else (k_kind, j - k + 1 - p)
        return _pi_power(a, k, p) * moment_value(kind, a, w - a, n, u, digits)


def mu_moment(k: int, j: int, ell: int, u: Fraction, digits: int):
    """The odd-family normalized moment at column index j in [1, 3k-1]."""
    return _family_moment(_PLAIN, 0, k, j, ell, u, digits)


def mu_acute_moment(k: int, j: int, ell: int, u: Fraction, digits: int):
    """The differentiated odd-family normalized moment."""
    return _family_moment(_ACUTE, 0, k, j, ell, u, digits)


def nu_moment(k: int, j: int, ell: int, u: Fraction, digits: int):
    """The even-family normalized moment at column index j in [1, 3k+1]."""
    return _family_moment(_PLAIN, 1, k, j, ell, u, digits)


def nu_acute_moment(k: int, j: int, ell: int, u: Fraction, digits: int):
    """The differentiated even-family normalized moment."""
    return _family_moment(_ACUTE, 1, k, j, ell, u, digits)


def _moment_matrix(kind: str, p: int, k: int, digits: int):
    """((-1)^(b-1) pi^(a-k-1-p/2) kind(a, 2k+1+p-a; 2b-1)), k x k."""
    if k < 1:
        raise ValueError("moment matrices require k >= 1")
    with mp.workdps(digits + GUARD_DIGITS):
        out = mp.matrix(k, k)
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                v = moment_value(kind, a, 2 * k + 1 + p - a, 2 * b - 1, None,
                                 digits)
                out[a - 1, b - 1] = (-1) ** (b - 1) * _pi_power(a, k, p) * v
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


def _beta_inverse_numeric(m: int, u: Fraction):
    """Exact inverse of the beta matrix at rational u, as an mpf matrix."""
    Binv = exact_inverse(beta_matrix(m, Fraction(u)))
    out = mp.matrix(m, m)
    for a in range(m):
        for b in range(m):
            out[a, b] = _to_mpf(Fraction(Binv[a, b]))
    return out


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
    with mp.workdps(digits + GUARD_DIGITS):
        binv = _beta_inverse_numeric(m, u)
        su = mp.sqrt(_to_mpf(u))
        out = mp.matrix(m, m)
        for j in range(1, m + 1):
            vec = mp.matrix(m, 1)
            for ell in range(1, k + 1):
                vec[ell - 1] = (-1) ** (ell - 1) * _family_moment(
                    _PLAIN, p, k, j, ell, u, digits)
            for ell in range(1, k + p):
                vec[k + ell - 1] = (-1) ** (ell - 1) * su * _family_moment(
                    _ACUTE, p, k, j, ell, u, digits)
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
# Named constants and sanity suites
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


def ibp_sanity(k: int, digits: int) -> dict:
    """Integration-by-parts relations among odd-family moments at u = 1:

    * mu'_{k,1} = -(2 ell / m) mu_{k,1} with m = 2k+1;
    * mu'_{k,j} = (1 - j/m) mu_{k-1,j-1} - (2 ell / m) mu_{k,j}
      for j in [2,k], ell in [1,k-1].
    """
    if k < 2:
        raise ValueError("ibp_sanity requires k >= 2")
    one = Fraction(1)
    m_odd = 2 * k + 1
    tol = tolerance(digits)
    checks = []
    with mp.workdps(digits + GUARD_DIGITS):
        for ell in range(1, k):
            lhs = mu_acute_moment(k, 1, ell, one, digits)
            rhs = -mp.mpf(2 * ell) / m_odd * mu_moment(k, 1, ell, one, digits)
            checks.append(("j=1", ell, abs(lhs - rhs)))
            for j in range(2, k + 1):
                lhs = mu_acute_moment(k, j, ell, one, digits)
                rhs = (
                    (1 - mp.mpf(j) / m_odd)
                    * mu_moment(k - 1, j - 1, ell, one, digits)
                    - mp.mpf(2 * ell) / m_odd * mu_moment(k, j, ell, one, digits)
                )
                checks.append((f"j={j}", ell, abs(lhs - rhs)))
        worst = max(c[2] for c in checks)
        return {
            "k": k,
            "digits": digits,
            "tolerance": tol,
            "residuals": checks,
            "max_residual": worst,
            "ok": worst < tol,
        }
