"""Vanhove operators, Verrill polynomials, and the Borwein–Salvy duality.

The order-m Vanhove operator L̃_m = Σ_j ℓ_{m,j}(u)·D^j annihilates the
off-shell Bessel-moment functions.  Every operator here is a sum
Σ_s u^s·P_s(θ) of integer polynomials in the Euler operator θ = uD, so
each is built as a θ-table of the P_s.  For L̃_m that is k ↦ P_k(x) with
L̃_m = Σ_{k=0}^{⌊m/2⌋+1} u^{1−k}·P_k(θ̂), where θ̂ = θ + 1, i.e.
(θ̂f)(u) = D[u·f(u)].  It is assembled along two routes that must agree:

* route A: P_k(x) = (−1)^m 𝒱_{m,k}(k − x), where 𝒱_{m,k} is the Verrill
  polynomial, a sum over tuples α by one chain recursion (``_chain_sum``);
* route B: P_0(x) = x^m and, for k ≥ 1,
  P_k(x) = (−1)^m 4^k/2^{m+2}·∏_{r=1}^{k−1}(x − r)²·P^BS_k(−2x), with
  P^BS_k entry k of the θ-table of the Borwein–Salvy operator L_{m+2}
  (below), which has its own recursion.

Route B is the Borwein–Salvy duality read as an identity of operators.
With g = I₀(√u t), θ_t g = 2θ_u g and t²g = 4u⁻¹θ_u²g, so every
t-operator applied to g is a u-operator applied to g, with the factors in
reverse order, and no nonzero u-operator kills g for every t; then
(u⁻¹θ²)ⁱ = u⁻ⁱ∏_{r<i}(θ − r)² and θ̂u⁻¹ = u⁻¹θ give the formula.  The
routes share no recursion, so their agreement checks both, at every order
built: it is the duality at operator level, which ``verify_bms_duality``
checks on truncated series.  Route A's recursion is also checked against
the Bessel power numbers (``verify_verrill_recursion``), and the result by
``check_vanhove_structure`` and by the golden hashes of ``bwv vanhove
--json``, of the θ-tables and of the Verrill polynomials for m ≤ 20.

The routes are compared as θ-tables.  That is as strong as comparing the
operators: θ̂u^e = (e+1)·u^e keeps each u^{1−k}P_k(θ̂) on its own shift
of the u-degree, so the operator determines its table.  The agreed table
is converted to D-form once (``theta_to_d``), by P_k(θ̂) = P_k(θ + 1) and
θ^l = Σ_i S(l, i)·u^i·D^i, where S(l, i) are the Stirling numbers of the
second kind.

The Borwein–Salvy operator L_{n+2} = Σ_i t^{2i}·P_i(θ), θ = tD, is kept
as its θ-table i ↦ P_i(x) too.

All of this is computed on coefficient lists of ints, lowest degree
first, by a few private helpers: sum, scalar multiple, product,
derivative, and composition and evaluation by Horner's rule.  Each public
result is one ``UniPoly``, a stored value with no ring arithmetic.

Tuple convention: α_n ∈ [1, m+1] with the chain α_{n+1} ≤ α_n − 2 enforced
for n ∈ [1, k−1] only; the terminator α_{k+1} := 1 enters exponents but is
not itself constrained.  (With the constrained-terminator reading, the
Verrill recursion against the Bessel power numbers W_{m+1} fails already
at m = 2, n = 1; the recursion test below guards this choice permanently.)
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm
from typing import NamedTuple

from .exactalg import UniPoly

__all__ = [
    "VanhoveOperator",
    "verrill_poly",
    "bessel_power_number",
    "theta_to_d",
    "vanhove_operator",
    "check_vanhove_structure",
    "verify_verrill_recursion",
    "borwein_salvy_operator",
    "verify_bms_duality",
    "leading_coeff_product",
]


# ---------------------------------------------------------------------------
# Coefficient lists: lowest degree first, no trailing zeros
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
# Verrill polynomials and Bessel power numbers
# ---------------------------------------------------------------------------

def _chain_sum(m: int, k: int) -> list:
    """Σ_α t^{m+1−α₁}·∏_{n=1}^{k} c(α_n)·L_n^{α_n−α_{n+1}} over the
    admissible tuples, with L_n = t − n, c(a) = a(a−m−2) and the
    terminator α_{k+1} = 1; for k = 0 the sum is t^m.

    Summed level by level in O(k·m) polynomial products, not one product
    per tuple: G_n(a) sums the chain tails from α_n = a, so
    G_k(a) = c(a)·L_k^{a−1} and G_n(a) = c(a)·S_n(a), with the running sum
    S_n(a) = Σ_{b ≤ a−2} L_n^{a−b}·G_{n+1}(b)
           = L_n·S_n(a−1) + L_n²·G_{n+1}(a−2);
    the result is Σ_a t^{m+1−a}·G_1(a)."""
    top = m + 1
    if k == 0:
        return [0] * m + [1]
    lk = [-k, 1]
    g, power = [None], [1]  # g[a] = G_n(a), a ≥ 1
    for a in range(1, top + 1):
        g.append(_scale(power, a * (a - m - 2)))
        power = _mul(power, lk)
    for n in range(k - 1, 0, -1):
        ln = [-n, 1]
        ln2, s = _mul(ln, ln), []
        nxt = [None, [], []]
        for a in range(3, top + 1):
            s = _add(_mul(s, ln), _mul(ln2, g[a - 2]))
            nxt.append(_scale(s, a * (a - m - 2)))
        g = nxt
    acc: list = []
    for a in range(1, top + 1):
        acc = _add([0] + acc, g[a])  # t·acc + G_1(a)
    return acc


@cache
def verrill_poly(m: int, k: int) -> UniPoly:
    """Verrill polynomial 𝒱_{m,k}(t); 𝒱_{m,0}(t) = t^m and for k ≥ 1 the
    sum over admissible tuples of t^{m+1−α₁}·∏ α_n(α_n−m−2)(t−n)^{α_n−α_{n+1}}
    with terminator α_{k+1} = 1 (``_chain_sum``).  The empty sum is the
    zero polynomial."""
    if m < 1 or k < 0:
        raise ValueError("verrill_poly requires m >= 1, k >= 0")
    return UniPoly.of("t", _chain_sum(m, k))


@cache
def _bessel_power_rows(k: int) -> list[tuple[int, ...]]:
    """The rows p = 1, 2, … of ``_bessel_power_row`` built so far for k."""
    return [(1,) * (k + 1)]


def _bessel_power_row(p: int, k: int) -> tuple[int, ...]:
    """(W_p(0), W_p(2), …, W_p(2k)) by the convolution
    W_p(2j) = Σ_a C(j,a)² W_{p−1}(2(j−a)) from W_1(2j) = 1: each row is
    built once per k, from the row of p − 1, in a loop."""
    rows = _bessel_power_rows(k)
    while len(rows) < p:
        row = rows[-1]
        rows.append(tuple(sum(comb(j, a) ** 2 * row[j - a]
                              for a in range(j + 1)) for j in range(k + 1)))
    return rows[max(p, 1) - 1]


def bessel_power_number(p: int, k: int) -> Fraction:
    """W_p(2k) = Σ_{a₁+…+a_p = k} (k!/(a₁!…a_p!))², the last entry of
    ``_bessel_power_row(p, k)``."""
    if p < 1 or k < 0:
        raise ValueError("bessel_power_number requires p >= 1, k >= 0")
    return Fraction(_bessel_power_row(p, k)[k])


# ---------------------------------------------------------------------------
# θ-tables and their D-form
# ---------------------------------------------------------------------------


@cache
def _stirling2(l: int, i: int) -> int:
    """S(l, i), the Stirling numbers of the second kind."""
    if l == 0 or i == 0:
        return int(l == i)
    return i * _stirling2(l - 1, i) + _stirling2(l - 1, i - 1)


def theta_to_d(table: dict[int, UniPoly]) -> list[dict[int, Fraction]]:
    """D-form of Σ_s x^s·P_s(θ), θ = x·D, by θ^l = Σ_i S(l, i)·x^i·D^i.

    Entry i maps each exponent e to the nonzero coefficient of x^e·D^i;
    the list ends at the last nonzero D^i.  A negative shift s may leave
    negative exponents."""
    out = []
    for i in range(max((p.degree for p in table.values()), default=-1) + 1):
        coeff = {}
        for s, p in table.items():
            c = sum(p.nums[l] * _stirling2(l, i)
                    for l in range(i, p.degree + 1))
            if c:
                coeff[s + i] = Fraction(c, p.den)
        out.append(coeff)
    while out and not out[-1]:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# Vanhove operator, built along two routes
# ---------------------------------------------------------------------------


class VanhoveOperator(NamedTuple):
    """L̃_m = Σ_{j=0}^{m} ℓ_{m,j}(u)·D^j with integer coefficients, and its
    θ-table: L̃_m = Σ_k u^{1−k}·theta[k](θ̂)."""

    m: int
    coeffs: tuple[UniPoly, ...]  # ℓ_{m,0} .. ℓ_{m,m}
    theta: tuple[UniPoly, ...]  # P_0 .. P_{⌊m/2⌋+1}, in x

    def ell(self, j: int) -> UniPoly:
        if 0 <= j <= self.m:
            return self.coeffs[j]
        return UniPoly.zero("u")

    @property
    def leading(self) -> UniPoly:
        return self.coeffs[self.m]


def _route_a(m: int) -> tuple[UniPoly, ...]:
    """P_k(x) = (−1)^m 𝒱_{m,k}(k − x) for k = 0..⌊m/2⌋+1 (𝒱_{m,k} is
    integral, so its ``nums`` are its coefficients)."""
    sign = -1 if m % 2 else 1
    return tuple(
        UniPoly.of("x", _scale(_compose(verrill_poly(m, k).nums, [k, -1]),
                               sign))
        for k in range(m // 2 + 2)
    )


def _route_b(m: int) -> tuple[UniPoly, ...]:
    """P_0(x) = x^m and, for each further entry P^BS_k of
    ``borwein_salvy_operator(m)``,
    P_k(x) = (−1)^m 4^k/2^{m+2}·∏_{r=1}^{k−1}(x − r)²·P^BS_k(−2x)."""
    sign = -1 if m % 2 else 1
    table, square = [UniPoly.of("x", [0] * m + [1])], [1]
    for k, p in enumerate(borwein_salvy_operator(m)[1:], 1):
        p = _mul(square, [c * (-2) ** j for j, c in enumerate(p.nums)])
        table.append(UniPoly._make("x", _scale(p, sign * 4 ** k),
                                   2 ** (m + 2)))
        square = _mul(square, [k * k, -2 * k, 1])
    return tuple(table)


@cache
def vanhove_operator(m: int) -> VanhoveOperator:
    """Construct the θ-table of L̃_m along both routes, assert agreement,
    convert it to D-form and assert integer polynomial coefficients."""
    if m < 1:
        raise ValueError("vanhove_operator requires m >= 1")
    table = _route_a(m)
    if table != _route_b(m):
        raise ArithmeticError(
            f"Vanhove operator routes disagree at m={m}: "
            "construction bug or mis-resolved tuple convention"
        )
    # the agreed table is integral, as both routes are
    d_form = theta_to_d({
        1 - k: UniPoly.of("x", _compose(p.nums, [1, 1]))
        for k, p in enumerate(table)
    })
    if len(d_form) - 1 != m:
        raise ArithmeticError(
            f"unexpected operator order {len(d_form) - 1} != {m}"
        )
    coeffs = []
    for j, c in enumerate(d_form):
        if min(c, default=0) < 0:
            raise ArithmeticError(
                f"coefficient of D^{j} in L~_{m} did not cancel to a polynomial"
            )
        p = UniPoly.of("u", [c.get(e, 0) for e in range(max(c, default=-1) + 1)])
        if not p.is_integral():
            raise ArithmeticError(
                f"coefficient of D^{j} in L~_{m} is not an integer polynomial"
            )
        coeffs.append(p)
    return VanhoveOperator(m, tuple(coeffs), table)


def leading_coeff_product(m: int) -> UniPoly:
    """The closed-form leading coefficient
    u^{⌊(m+1)/2⌋}·∏_{n ∈ [1,m+1], n ≡ m+1 (mod 2)} (u − n²),
    built independently of the operator expansion."""
    poly = [1]
    for n in range(m + 1, 0, -2):
        poly = _mul(poly, [-n * n, 1])
    return UniPoly.of("u", [0] * ((m + 1) // 2) + poly)


def check_vanhove_structure(op: VanhoveOperator) -> dict[str, bool]:
    """Structural checks on a Vanhove operator:

    * ``leading``: ℓ_{m,m} equals the closed-form product;
    * ``subleading``: ℓ_{m,m−1} = (m/2)·D¹ℓ_{m,m};
    * ``constraint``: (−1)^m ℓ_{m,j} = Σ_{n=j}^{m} (−1)^n C(n,j) D^{n−j}ℓ_{m,n};
    * ``divisibility``: u^{m−j−⌊(m+1)/2⌋}·ℓ_{m,j} ∈ ℤ[u];
    * ``adjoint_parity``: L̃_m* = (−1)^m L̃_m, read on the θ-table as
      P_k(k − x) = (−1)^m P_k(x), since θ̂* = 1 − θ̂ and θ̂u^s = u^s(θ̂ + s).

    The identities are homogeneous, so ``subleading`` and ``constraint``
    are checked on d·ℓ_{m,j} ∈ ℤ[u], d the common denominator of the
    ℓ_{m,j}, and ``adjoint_parity`` on the numerators of each P_k.
    """
    m = op.m
    sign = -1 if m % 2 else 1
    d = lcm(*(p.den for p in op.coeffs))
    ell = [_scale(p.nums, d // p.den) for p in op.coeffs]
    report: dict[str, bool] = {}
    report["leading"] = op.leading == leading_coeff_product(m)
    report["subleading"] = _scale(ell[m - 1], 2) == _scale(_deriv(ell[m]), m)

    def rhs(j: int) -> list:
        acc: list = []
        for n in range(j, m + 1):
            c = (-1 if n % 2 else 1) * comb(n, j)
            acc = _add(acc, _scale(_deriv(ell[n], n - j), c))
        return acc

    report["constraint"] = all(
        _scale(ell[j], sign) == rhs(j) for j in range(m + 1))
    # u^{m−j−⌊(m+1)/2⌋}·ℓ_{m,j} ∈ ℤ[u]: ℓ_{m,j} is integral, and where the
    # exponent is negative (j > ⌊m/2⌋) its lowest j + ⌊(m+1)/2⌋ − m
    # coefficients vanish
    half = (m + 1) // 2
    report["divisibility"] = all(
        op.ell(j).is_integral()
        and not any(op.ell(j).nums[:max(0, j + half - m)])
        for j in range(m + 1))
    report["adjoint_parity"] = all(
        _compose(p.nums, [k, -1]) == _scale(p.nums, sign)
        for k, p in enumerate(op.theta)
    )
    return report


def verify_verrill_recursion(m: int, n_max: int) -> dict[int, bool]:
    """Exact check of Σ_{k=0}^{⌊m/2⌋+1} 𝒱_{m,k}(n)·W_{m+1}(2(n−k)) = 0
    for n = 1..n_max, with W_{m+1}(negative) := 0."""
    if m < 1 or n_max < 1:
        raise ValueError("verify_verrill_recursion requires m, n_max >= 1")
    w = _bessel_power_row(m + 1, n_max)
    polys = [verrill_poly(m, k).nums for k in range(m // 2 + 2)]  # integral
    return {n: not sum(_eval(polys[k], n) * w[n - k]
                       for k in range(min(m // 2 + 1, n) + 1))
            for n in range(1, n_max + 1)}


# ---------------------------------------------------------------------------
# Borwein–Salvy operator and the duality check
# ---------------------------------------------------------------------------


def borwein_salvy_operator(n: int) -> tuple[UniPoly, ...]:
    """The θ-table i ↦ P_i(x) of the symmetric-power Bessel operator
    L_{n+2} = Σ_i t^{2i}·P_i(θ), θ = tD, built by the recursion
    𝓛_{n+2,k+1} = θ·𝓛_{n+2,k} − k(n+2−k)t²·𝓛_{n+2,k−1} from 𝓛_{n+2,0} = 1,
    𝓛_{n+2,1} = θ; θ∘t^{2i} = t^{2i}(θ + 2i) keeps it in θ-form."""
    if n < 0:
        raise ValueError("borwein_salvy_operator requires n >= 0")
    prev, cur = [[1]], [[0, 1]]
    for k in range(1, n + 2):
        nxt = [_mul([2 * i, 1], p) for i, p in enumerate(cur)]
        nxt += [[]] * (len(prev) + 1 - len(nxt))
        for i, p in enumerate(prev):
            nxt[i + 1] = _add(nxt[i + 1], _scale(p, -k * (n + 2 - k)))
        prev, cur = cur, nxt
    return tuple(UniPoly.of("x", p) for p in cur)


def _i0_series(order: int) -> list[list[int]]:
    """The t-coefficients a_0..a_order (integer lists in u) of
    s·I₀(√u t) = s·Σ_j (u/4)^j t^{2j}/(j!)², with s = 4^h (h!)² and
    h = ⌊order/2⌋, so every coefficient is an integer."""
    h = order // 2
    s = 4 ** h * factorial(h) ** 2
    return [
        [0] * (j // 2) + [s // (4 ** (j // 2) * factorial(j // 2) ** 2)]
        if j % 2 == 0 else []
        for j in range(order + 1)
    ]


def verify_bms_duality(n: int, N: int) -> dict[str, bool]:
    """Check L̃_n∘(uD²+D¹) applied to I₀(√u t)/t against
    (−1)^n/2^{n+2} · L*_{n+2} applied to the same function, on series
    truncated in t, each kept as its list of t-coefficients a_r(u).  The
    t⁻¹ factor is absorbed by working with the shifted series
    g = t·I₀(√u t)/t and conjugating the t-side operator by t: θ* = −θ − 1
    and tθt⁻¹ = θ − 1 give t∘L*_{n+2}∘t⁻¹ = Σ_i P_i(−θ)·t^{2i}, which maps
    t^r to Σ_i P_i(−r−2i)·t^{r+2i}.  The u-side applies uD² + D and then
    the D-form ℓ_{n,j} to each coefficient a_r(u).

    Both sides are linear, so they are compared in integers: the series is
    scaled to integers (``_i0_series``), the u-side is multiplied by
    2^{n+2} d and the t-side by (−1)^n d, with d the common denominator of
    the ℓ_{n,j}.  Consistency is asserted at three truncation orders.  The
    series is formed once, at order N, and orders N − 4 and N − 2 read
    prefixes of the two sides: each maps t^r to equal or higher powers of
    t, so a prefix is what truncating the series there gives."""
    if n < 1:
        raise ValueError("verify_bms_duality requires n >= 1")
    if N < n + 6:
        raise ValueError("truncation order too small")
    coeffs = vanhove_operator(n).coeffs
    d = lcm(*(c.den for c in coeffs))
    ell = [_scale(c.nums, d // c.den) for c in coeffs]
    table = [p.nums for p in borwein_salvy_operator(n)]
    scale = 2 ** (n + 2)
    sign = -d if n % 2 else d

    def lhs(g: list[list]) -> list[list]:
        out = []
        for a in g:
            b = _add(_mul([0, 1], _deriv(a, 2)), _deriv(a))
            acc: list = []
            for j, c in enumerate(ell):
                acc = _add(acc, _mul(c, _deriv(b, j)))
            out.append(_scale(acc, scale))
        return out

    def rhs(g: list[list]) -> list[list]:
        # t^r -> P_i(-r-2i) t^{r+2i}, dropping what lands above the order
        total: list[list] = [[] for _ in g]
        for i, p in enumerate(table):
            for r in range(len(g) - 2 * i):
                total[r + 2 * i] = _add(
                    total[r + 2 * i], _scale(g[r], _eval(p, -r - 2 * i) * sign))
        return total

    g = _i0_series(N)
    left, right = lhs(g), rhs(g)
    out = {f"order_{order}": left[:order + 1] == right[:order + 1]
           for order in (N - 4, N - 2, N)}
    # zero-series sanity: both sides annihilate the zero series
    z: list[list] = [[] for _ in range(N + 1)]
    out["zero_series"] = not any(lhs(z) + rhs(z))
    return out
