"""Vanhove operators, Verrill polynomials, and the Borwein–Salvy duality.

The order-m Vanhove operator L̃_m = Σ_j ℓ_{m,j}(u)·D^j annihilates the
off-shell Bessel-moment functions.  Every operator here is a sum
Σ_s u^s·P_s(θ) of integer polynomials in the Euler operator θ = uD, so
each is built as a θ-table of the P_s.  For L̃_m that is k ↦ P_k(x) with
L̃_m = Σ_{k=0}^{⌊m/2⌋+1} u^{1−k}·P_k(θ̂), where θ̂ = θ + 1, i.e.
(θ̂f)(u) = D[u·f(u)].  It is assembled along two routes that must agree:

* route A: P_k(x) = (−1)^m 𝒱_{m,k}(k − x), where 𝒱_{m,k} is the Verrill
  polynomial;
* route B: P_0(x) = x^m and, for k ≥ 1, the tuple sum
  P_k(x) = Σ_α (x−k)^{m+1−α₁} ∏_n α_n(α_n−m−2)(x−k+n)^{α_n−α_{n+1}}.

Both sum over the tuples α by one chain recursion (``_chain_sum``) and
differ only by the substitution t = k − x, so their agreement checks the
substitution, not the recursion.  The checks independent of the
recursion are the Verrill recursion against the Bessel power numbers
(``verify_verrill_recursion``), ``check_vanhove_structure``, the series
duality with the Borwein–Salvy operator (``verify_bms_duality``), and
the golden hashes of ``bwv vanhove --json`` for m ≤ 12.

The routes are compared as θ-tables.  That is as strong as comparing the
operators: θ̂u^e = (e+1)·u^e keeps each u^{1−k}P_k(θ̂) on its own shift
of the u-degree, so the operator determines its table.  The agreed table
is converted to D-form once (``theta_to_d``), by P_k(θ̂) = P_k(θ + 1) and
θ^l = Σ_i S(l, i)·u^i·D^i, where S(l, i) are the Stirling numbers of the
second kind.

The Borwein–Salvy operator L_{n+2} = Σ_i t^{2i}·P_i(θ), θ = tD, is kept
as its θ-table i ↦ P_i(x) too.

Tuple convention: α_n ∈ [1, m+1] with the chain α_{n+1} ≤ α_n − 2 enforced
for n ∈ [1, k−1] only; the terminator α_{k+1} := 1 enters exponents but is
not itself constrained.  (With the constrained-terminator reading, the
Verrill recursion against the Bessel power numbers W_{m+1} fails already
at m = 2, n = 1; the recursion test below guards this choice permanently.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial

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
# Verrill polynomials and Bessel power numbers
# ---------------------------------------------------------------------------

def _chain_sum(m: int, k: int, head: UniPoly, step: int) -> UniPoly:
    """Σ_α head^{m+1−α₁}·∏_{n=1}^{k} c(α_n)·L_n^{α_n−α_{n+1}} over the
    admissible tuples, with L_n = head + n·step, c(a) = a(a−m−2) and the
    terminator α_{k+1} = 1; for k = 0 the sum is head^m.

    Summed level by level in O(k·m) polynomial products, not one product
    per tuple: G_n(a) sums the chain tails from α_n = a, so
    G_k(a) = c(a)·L_k^{a−1} and G_n(a) = c(a)·S_n(a), with the running sum
    S_n(a) = Σ_{b ≤ a−2} L_n^{a−b}·G_{n+1}(b)
           = L_n·S_n(a−1) + L_n²·G_{n+1}(a−2);
    the result is Σ_a head^{m+1−a}·G_1(a)."""
    top = m + 1
    if k == 0:
        return head**m
    lk = head + k * step
    g, power = [None], UniPoly.const(head.var, 1)  # g[a] = G_n(a), a ≥ 1
    for a in range(1, top + 1):
        g.append(power * (a * (a - m - 2)))
        power = power * lk
    zero = UniPoly.zero(head.var)
    for n in range(k - 1, 0, -1):
        ln = head + n * step
        ln2, s = ln * ln, zero
        nxt = [None, zero, zero]
        for a in range(3, top + 1):
            s = s * ln + ln2 * g[a - 2]
            nxt.append(s * (a * (a - m - 2)))
        g = nxt
    acc = zero
    for a in range(1, top + 1):
        acc = acc * head + g[a]
    return acc


@cache
def verrill_poly(m: int, k: int) -> UniPoly:
    """Verrill polynomial 𝒱_{m,k}(t); 𝒱_{m,0}(t) = t^m and for k ≥ 1 the
    sum over admissible tuples of t^{m+1−α₁}·∏ α_n(α_n−m−2)(t−n)^{α_n−α_{n+1}}
    with terminator α_{k+1} = 1 (``_chain_sum`` with L_n = t − n).  The
    empty sum is the zero polynomial."""
    if m < 1 or k < 0:
        raise ValueError("verrill_poly requires m >= 1, k >= 0")
    return _chain_sum(m, k, UniPoly.x("t"), -1)


def _bessel_power_row(p: int, k: int) -> list[int]:
    """[W_p(0), W_p(2), …, W_p(2k)] by the convolution
    W_p(2j) = Σ_a C(j,a)² W_{p−1}(2(j−a)) from W_1(2j) = 1."""
    row = [1] * (k + 1)
    for _ in range(2, p + 1):
        row = [
            sum(comb(j, a) ** 2 * row[j - a] for a in range(j + 1))
            for j in range(k + 1)
        ]
    return row


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


@dataclass(frozen=True)
class VanhoveOperator:
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
    """P_k(x) = (−1)^m 𝒱_{m,k}(k − x) for k = 0..⌊m/2⌋+1."""
    x = UniPoly.x("x")
    sign = -1 if m % 2 else 1
    return tuple(
        verrill_poly(m, k).compose_poly(k - x) * sign for k in range(m // 2 + 2)
    )


def _route_b(m: int) -> tuple[UniPoly, ...]:
    """P_k(x) = Σ_α (x−k)^{m+1−α₁} ∏_n α_n(α_n−m−2)(x−k+n)^{α_n−α_{n+1}}
    for k = 0..⌊m/2⌋+1 (``_chain_sum`` with head x − k and L_n = x − k + n),
    so P_0(x) = x^m."""
    x = UniPoly.x("x")
    return tuple(_chain_sum(m, k, x - k, 1) for k in range(m // 2 + 2))


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
    x = UniPoly.x("x")
    d_form = theta_to_d(
        {1 - k: p.compose_poly(x + 1) for k, p in enumerate(table)}
    )
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
    u = UniPoly.x("u")
    poly = UniPoly.const("u", 1)
    for n in range(1, m + 2):
        if (n - (m + 1)) % 2 == 0:
            poly = poly * (u - n * n)
    return poly.shift_mul((m + 1) // 2)


def check_vanhove_structure(op: VanhoveOperator) -> dict[str, bool]:
    """Structural checks on a Vanhove operator:

    * ``leading``: ℓ_{m,m} equals the closed-form product;
    * ``subleading``: ℓ_{m,m−1} = (m/2)·D¹ℓ_{m,m};
    * ``constraint``: (−1)^m ℓ_{m,j} = Σ_{n=j}^{m} (−1)^n C(n,j) D^{n−j}ℓ_{m,n};
    * ``divisibility``: u^{m−j−⌊(m+1)/2⌋}·ℓ_{m,j} ∈ ℤ[u];
    * ``adjoint_parity``: L̃_m* = (−1)^m L̃_m, read on the θ-table as
      P_k(k − x) = (−1)^m P_k(x), since θ̂* = 1 − θ̂ and θ̂u^s = u^s(θ̂ + s).
    """
    m = op.m
    report: dict[str, bool] = {}
    report["leading"] = op.leading == leading_coeff_product(m)
    report["subleading"] = (
        op.ell(m - 1) == op.leading.deriv() * Fraction(m, 2)
    )
    ok = True
    for j in range(m + 1):
        rhs = UniPoly.zero("u")
        for n in range(j, m + 1):
            sign = -1 if n % 2 else 1
            rhs = rhs + op.ell(n).deriv(n - j) * (sign * comb(n, j))
        lhs = op.ell(j) * (-1 if m % 2 else 1)
        if lhs != rhs:
            ok = False
            break
    report["constraint"] = ok
    ok = True
    half = (m + 1) // 2
    u = UniPoly.x("u")
    for j in range(m + 1):
        power = m - j - half
        if power > 0:
            shifted = op.ell(j) * u**power
        elif power < 0:
            # negative shift: must still be a polynomial after dividing
            try:
                shifted = op.ell(j).exact_div(u ** (-power))
            except ValueError:
                ok = False
                break
        else:
            shifted = op.ell(j)
        if not shifted.is_integral():
            ok = False
            break
    report["divisibility"] = ok
    x = UniPoly.x("x")
    sign = -1 if m % 2 else 1
    report["adjoint_parity"] = all(
        p.compose_poly(k - x) == p * sign for k, p in enumerate(op.theta)
    )
    return report


def verify_verrill_recursion(m: int, n_max: int) -> dict[int, bool]:
    """Exact check of Σ_{k=0}^{⌊m/2⌋+1} 𝒱_{m,k}(n)·W_{m+1}(2(n−k)) = 0
    for n = 1..n_max, with W_{m+1}(negative) := 0."""
    if m < 1 or n_max < 1:
        raise ValueError("verify_verrill_recursion requires m, n_max >= 1")
    w = _bessel_power_row(m + 1, n_max)
    out: dict[int, bool] = {}
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(min(m // 2 + 1, n) + 1):
            acc += verrill_poly(m, k).eval(n) * w[n - k]
        out[n] = acc == 0
    return out


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
    x = UniPoly.x("x")
    prev, cur = [UniPoly.const("x", 1)], [x]
    for k in range(1, n + 2):
        nxt = [(x + 2 * i) * p for i, p in enumerate(cur)]
        nxt += [UniPoly.zero("x")] * (len(prev) + 1 - len(nxt))
        for i, p in enumerate(prev):
            nxt[i + 1] = nxt[i + 1] - p * (k * (n + 2 - k))
        prev, cur = cur, nxt
    return tuple(cur)


def _i0_sqrtu_t_times_t(order: int) -> list[UniPoly]:
    """The t-coefficients a_0..a_order (polynomials in u) of
    t·I₀(√u t)/t = I₀(√u t) = Σ_m (u/4)^m t^{2m}/(m!)²."""
    u = UniPoly.x("u")
    coeffs = []
    for j in range(order + 1):
        if j % 2 == 0:
            m = j // 2
            c = Fraction(1, 4**m) / Fraction(factorial(m)) ** 2
            coeffs.append((u**m) * c)
        else:
            coeffs.append(UniPoly.zero("u"))
    return coeffs


def verify_bms_duality(n: int, N: int) -> dict[str, bool]:
    """Check L̃_n∘(uD²+D¹) applied to I₀(√u t)/t against
    (−1)^n/2^{n+2} · L*_{n+2} applied to the same function, on series
    truncated in t, each kept as its list of t-coefficients a_r(u).  The
    t⁻¹ factor is absorbed by working with the shifted series
    g = t·I₀(√u t)/t and conjugating the t-side operator by t: θ* = −θ − 1
    and tθt⁻¹ = θ − 1 give t∘L*_{n+2}∘t⁻¹ = Σ_i P_i(−θ)·t^{2i}, which maps
    t^r to Σ_i P_i(−r−2i)·t^{r+2i}.  The u-side applies uD² + D and then
    the D-form ℓ_{n,j} to each coefficient a_r(u).  Consistency is asserted
    at three distinct truncation orders."""
    if n < 1:
        raise ValueError("verify_bms_duality requires n >= 1")
    if N < n + 6:
        raise ValueError("truncation order too small")
    u = UniPoly.x("u")
    zero = UniPoly.zero("u")
    ell = vanhove_operator(n).coeffs
    table = borwein_salvy_operator(n)
    sign = Fraction(-1 if n % 2 else 1, 2 ** (n + 2))

    def lhs(g: list[UniPoly]) -> list[UniPoly]:
        out = []
        for a in g:
            b = u * a.deriv(2) + a.deriv()
            out.append(sum((c * b.deriv(j) for j, c in enumerate(ell)), zero))
        return out

    def rhs(g: list[UniPoly]) -> list[UniPoly]:
        # t^r -> P_i(-r-2i) t^{r+2i}, dropping what lands above the order
        total = [zero] * len(g)
        for i, p in enumerate(table):
            for r in range(len(g) - 2 * i):
                total[r + 2 * i] += g[r] * (p.eval(-r - 2 * i) * sign)
        return total

    out: dict[str, bool] = {}
    for order in (N - 4, N - 2, N):
        g = _i0_sqrtu_t_times_t(order)
        out[f"order_{order}"] = lhs(g) == rhs(g)
    # zero-series sanity: both sides annihilate the zero series
    z = [zero] * (N + 1)
    out["zero_series"] = all(a.is_zero for a in lhs(z) + rhs(z))
    return out
