"""Vanhove operators, Verrill polynomials, and the Borwein–Salvy duality.

The order-m Vanhove operator L̃_m = Σ_j ℓ_{m,j}(u)·D^j annihilates the
off-shell Bessel-moment functions; its integer-polynomial coefficients are
assembled here along two independent routes that must agree:

* route A: L̃_m = (−1)^m Σ_{k=0}^{⌊m/2⌋+1} u^{1−k} 𝒱_{m,k}(k − θ̂),
  where 𝒱_{m,k} is the Verrill polynomial and (θ̂f)(u) = D[u·f(u)];
* route B: the expanded tuple sum
  u·θ̂^m + Σ_{k≥1} u^{1−k} Σ_α (θ̂−k)^{m+1−α₁} ∏_n α_n(α_n−m−2)(θ̂−k+n)^{α_n−α_{n+1}}.

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

from .exactalg import (
    DiffOp,
    RatFunc,
    TruncBiSeries,
    UniPoly,
    diffop_adjoint,
    diffop_compose,
    diffop_poly_of,
    diffop_scale_mul,
    series_apply,
)

__all__ = [
    "VanhoveOperator",
    "verrill_poly",
    "bessel_power_number",
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

def _alpha_tuples(m: int, k: int):
    """All tuples (α_1, …, α_k) with α_n ∈ [1, m+1] and
    α_{n+1} ≤ α_n − 2 for n ∈ [1, k−1]."""
    if k == 0:
        yield ()
        return

    def rec(prefix: tuple[int, ...]):
        if len(prefix) == k:
            yield prefix
            return
        hi = m + 1 if not prefix else prefix[-1] - 2
        for a in range(1, hi + 1):
            yield from rec(prefix + (a,))

    yield from rec(())


@cache
def verrill_poly(m: int, k: int) -> UniPoly:
    """Verrill polynomial 𝒱_{m,k}(t); 𝒱_{m,0}(t) = t^m and for k ≥ 1 the
    sum over admissible tuples of t^{m+1−α₁}·∏ α_n(α_n−m−2)(t−n)^{α_n−α_{n+1}}
    with terminator α_{k+1} = 1.  The empty sum is the zero polynomial."""
    if m < 1 or k < 0:
        raise ValueError("verrill_poly requires m >= 1, k >= 0")
    t = UniPoly.x("t")
    if k == 0:
        poly = t**m
    else:
        poly = UniPoly.zero("t")
        for alpha in _alpha_tuples(m, k):
            ext = alpha + (1,)
            coeff = 1
            term = UniPoly.const("t", 1)
            for n in range(1, k + 1):
                a_n = ext[n - 1]
                coeff *= a_n * (a_n - m - 2)
                term = term * (t - n) ** (a_n - ext[n])
            term = term * coeff
            poly = poly + term.shift_mul(m + 1 - alpha[0])
    return poly


def bessel_power_number(p: int, k: int) -> Fraction:
    """W_p(2k) = Σ_{a₁+…+a_p = k} (k!/(a₁!…a_p!))², computed by the
    convolution W_p(2k) = Σ_a C(k,a)² W_{p−1}(2(k−a))."""
    if p < 1 or k < 0:
        raise ValueError("bessel_power_number requires p >= 1, k >= 0")
    row = [1] * (k + 1)  # W_1(2j) = 1
    for _ in range(2, p + 1):
        row = [
            sum(comb(j, a) ** 2 * row[j - a] for a in range(j + 1))
            for j in range(k + 1)
        ]
    return Fraction(row[k])


# ---------------------------------------------------------------------------
# Vanhove operator, built along two independent routes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VanhoveOperator:
    """L̃_m = Σ_{j=0}^{m} ℓ_{m,j}(u)·D^j with integer coefficients."""

    m: int
    coeffs: tuple[UniPoly, ...]  # ℓ_{m,0} .. ℓ_{m,m}

    def ell(self, j: int) -> UniPoly:
        if 0 <= j <= self.m:
            return self.coeffs[j]
        return UniPoly.zero("u")

    def as_diffop(self) -> DiffOp:
        return DiffOp.of("u", list(self.coeffs))

    @property
    def leading(self) -> UniPoly:
        return self.coeffs[self.m]


def _route_a(m: int) -> DiffOp:
    """(−1)^m Σ_{k=0}^{⌊m/2⌋+1} u^{1−k} 𝒱_{m,k}(k − θ̂)."""
    theta = DiffOp.theta_hat("u")
    u = UniPoly.x("u")
    total = DiffOp.zero("u")
    for k in range(m // 2 + 2):
        vk = verrill_poly(m, k)
        if vk.is_zero:
            continue
        inner = DiffOp.of("u", [k]) - theta
        op_k = diffop_poly_of(vk, inner)
        if k == 0:
            scale = RatFunc(u)
        else:
            scale = RatFunc(UniPoly.const("u", 1), u ** (k - 1))
        total = total + diffop_scale_mul(scale, op_k)
    if m % 2:
        total = -total
    return total


def _route_b(m: int) -> DiffOp:
    """u·θ̂^m + Σ_{k=1}^{⌊m/2⌋+1} u^{1−k} Σ_α (θ̂−k)^{m+1−α₁}
    ∏_n α_n(α_n−m−2)(θ̂−k+n)^{α_n−α_{n+1}}, expanded as polynomials in a
    commuting indeterminate before a single operator substitution."""
    theta = DiffOp.theta_hat("u")
    u = UniPoly.x("u")
    x = UniPoly.x("x")
    total = diffop_scale_mul(RatFunc(u), diffop_poly_of(x**m, theta))
    for k in range(1, m // 2 + 2):
        qk = UniPoly.zero("x")
        for alpha in _alpha_tuples(m, k):
            ext = alpha + (1,)
            coeff = 1
            term = (x - k) ** (m + 1 - alpha[0])
            for n in range(1, k + 1):
                a_n = ext[n - 1]
                coeff *= a_n * (a_n - m - 2)
                term = term * (x - k + n) ** (a_n - ext[n])
            qk = qk + term * coeff
        if qk.is_zero:
            continue
        scale = RatFunc(UniPoly.const("u", 1), u ** (k - 1))
        total = total + diffop_scale_mul(scale, diffop_poly_of(qk, theta))
    return total


@cache
def vanhove_operator(m: int) -> VanhoveOperator:
    """Construct L̃_m along both routes, assert agreement and integer
    polynomial coefficients, and return the coefficient list."""
    if m < 1:
        raise ValueError("vanhove_operator requires m >= 1")
    op_a = _route_a(m)
    op_b = _route_b(m)
    if op_a != op_b:
        raise ArithmeticError(
            f"Vanhove operator routes disagree at m={m}: "
            "construction bug or mis-resolved tuple convention"
        )
    if op_a.order != m:
        raise ArithmeticError(f"unexpected operator order {op_a.order} != {m}")
    coeffs = []
    for j in range(m + 1):
        c = op_a.coeff(j)
        if not c.is_polynomial():
            raise ArithmeticError(
                f"coefficient of D^{j} in L~_{m} did not cancel to a polynomial"
            )
        p = c.as_poly()
        if not p.is_integral():
            raise ArithmeticError(
                f"coefficient of D^{j} in L~_{m} is not an integer polynomial"
            )
        coeffs.append(p)
    return VanhoveOperator(m, tuple(coeffs))


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
    * ``adjoint_parity``: L̃_m* = (−1)^m L̃_m.
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
    L = op.as_diffop()
    adj = diffop_adjoint(L)
    report["adjoint_parity"] = adj == (L if m % 2 == 0 else -L)
    return report


def verify_verrill_recursion(m: int, n_max: int) -> dict[int, bool]:
    """Exact check of Σ_{k=0}^{⌊m/2⌋+1} 𝒱_{m,k}(n)·W_{m+1}(2(n−k)) = 0
    for n = 1..n_max, with W_{m+1}(negative) := 0."""
    if m < 1 or n_max < 1:
        raise ValueError("verify_verrill_recursion requires m, n_max >= 1")
    out: dict[int, bool] = {}
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(m // 2 + 2):
            if n - k < 0:
                continue
            acc += verrill_poly(m, k).eval(n) * bessel_power_number(m + 1, n - k)
        out[n] = acc == 0
    return out


# ---------------------------------------------------------------------------
# Borwein–Salvy operator and the duality check
# ---------------------------------------------------------------------------


def borwein_salvy_operator(n: int) -> DiffOp:
    """The symmetric-power Bessel operator L_{n+2} in t, built by the
    recursion 𝓛_{n+2,k+1} = tD·𝓛_{n+2,k} − k(n+2−k)t²·𝓛_{n+2,k−1}
    from 𝓛_{n+2,0} = 1, 𝓛_{n+2,1} = tD."""
    if n < 0:
        raise ValueError("borwein_salvy_operator requires n >= 0")
    t = UniPoly.x("t")
    tD = DiffOp.of("t", [0, t])
    prev = DiffOp.identity("t")
    cur = tD
    t2 = RatFunc(t * t)
    for k in range(1, n + 2):
        nxt = diffop_compose(tD, cur) - diffop_scale_mul(
            t2 * (k * (n + 2 - k)), prev
        )
        prev, cur = cur, nxt
    return cur


def _i0_sqrtu_t_times_t(order: int) -> TruncBiSeries:
    """The series of t·I₀(√u t)/t = I₀(√u t) = Σ_m (u/4)^m t^{2m}/(m!)²,
    truncated at the given t-order."""
    u = UniPoly.x("u")
    coeffs = []
    for j in range(order + 1):
        if j % 2 == 0:
            m = j // 2
            c = Fraction(1, 4**m) / Fraction(factorial(m)) ** 2
            coeffs.append((u**m) * c)
        else:
            coeffs.append(UniPoly.zero("u"))
    return TruncBiSeries.of(order, coeffs, "u")


def _conjugate_by_t(P: DiffOp) -> DiffOp:
    """t ∘ P ∘ t⁻¹ in normal form; requires the result to have polynomial
    coefficients (true for operators generated by tD and t²)."""
    t = UniPoly.x("t")
    mult_t = DiffOp.mult(RatFunc(t))
    mult_t_inv = DiffOp.mult(RatFunc(UniPoly.const("t", 1), t))
    conj = diffop_compose(mult_t, diffop_compose(P, mult_t_inv))
    for c in conj.coeffs:
        if not c.is_polynomial():
            raise ArithmeticError("conjugated operator is not polynomial")
    return conj


def verify_bms_duality(n: int, N: int) -> dict[str, bool]:
    """Check L̃_n∘(uD²+D¹) applied to I₀(√u t)/t against
    (−1)^n/2^{n+2} · L*_{n+2} applied to the same function, on truncated
    series.  The t⁻¹ factor is absorbed by working with the shifted series
    g = t·I₀(√u t)/t and conjugating the t-side operator by t; consistency
    is asserted at three distinct truncation orders."""
    if n < 1:
        raise ValueError("verify_bms_duality requires n >= 1")
    if N < n + 6:
        raise ValueError("truncation order too small")
    u = UniPoly.x("u")
    bessel_u = DiffOp.of("u", [0, UniPoly.const("u", 1), u])  # u·D² + D¹
    lhs_op = diffop_compose(vanhove_operator(n).as_diffop(), bessel_u)
    rhs_op = _conjugate_by_t(diffop_adjoint(borwein_salvy_operator(n)))
    sign = Fraction(-1 if n % 2 else 1, 2 ** (n + 2))
    out: dict[str, bool] = {}
    for order in (N - 4, N - 2, N):
        g = _i0_sqrtu_t_times_t(order)
        lhs = series_apply(lhs_op, g)
        rhs = series_apply(rhs_op, g).scale(sign)
        out[f"order_{order}"] = lhs == rhs
    # zero-series sanity: both sides annihilate the zero series
    z = TruncBiSeries.of(N, [], "u")
    out["zero_series"] = (
        series_apply(lhs_op, z).is_zero and series_apply(rhs_op, z).is_zero
    )
    return out
