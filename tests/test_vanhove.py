"""Tests for the Vanhove operator module: Verrill polynomials, Bessel
power numbers, the chain recursion against the tuple enumeration it
replaces, the θ-table to D-form conversion, the dual-route operator
construction, structural checks, the recursion for power numbers, and the
symmetric-power duality."""

import inspect
from fractions import Fraction as F
from math import comb, perm

import pytest
from hypothesis import given, settings, strategies as st

from bwv import vanhove
from bwv.exactalg import UniPoly, _add, _mul, _scale
from bwv.vanhove import (
    bessel_power_number,
    borwein_salvy_operator,
    check_vanhove_structure,
    leading_coeff_product,
    theta_to_d,
    vanhove_operator,
    verify_bms_duality,
    verify_verrill_recursion,
    verrill_poly,
)


def _bs_d_form(n: int) -> list[UniPoly]:
    """D-form coefficients of L_{n+2} = Σ_i t^{2i}·P_i(θ)."""
    table = borwein_salvy_operator(n)
    return [
        UniPoly.of("t", [c.get(e, 0) for e in range(max(c, default=-1) + 1)])
        for c in theta_to_d({2 * i: p for i, p in enumerate(table)})
    ]


# -- Bessel power numbers ---------------------------------------------------


def test_power_numbers_two_factors_are_central_binomials():
    for k in range(8):
        assert bessel_power_number(2, k) == comb(2 * k, k)


def test_power_numbers_three_factors():
    # W_3(2n) = sum over a+b+c=n of multinomial^2: 1, 3, 15, 93, 639
    assert [bessel_power_number(3, n) for n in range(5)] == [1, 3, 15, 93, 639]


def test_power_numbers_one_factor_trivial():
    for k in range(6):
        assert bessel_power_number(1, k) == 1


def test_power_numbers_match_direct_multinomial_sum():
    from math import factorial

    def direct(p, k):
        def rec(parts_left, remaining):
            if parts_left == 1:
                yield (remaining,)
                return
            for a in range(remaining + 1):
                for rest in rec(parts_left - 1, remaining - a):
                    yield (a,) + rest

        total = 0
        for parts in rec(p, k):
            m = factorial(k)
            for a in parts:
                m //= factorial(a)
            total += m * m
        return total

    for p in range(1, 5):
        for k in range(5):
            assert bessel_power_number(p, k) == direct(p, k)


# -- Verrill polynomials ----------------------------------------------------


def test_verrill_poly_k0_is_monomial():
    for m in range(1, 6):
        assert verrill_poly(m, 0) == UniPoly.of("t", [0] * m + [1])


def test_verrill_poly_vanishing_beyond_range():
    # no admissible tuple exists once k exceeds floor(m/2) + 1
    for m in range(1, 6):
        assert verrill_poly(m, m // 2 + 2).is_zero


def test_verrill_recursion_holds():
    for m in range(1, 5):
        result = verify_verrill_recursion(m, 10)
        assert all(result.values()), result


def test_verrill_recursion_extended_range():
    result = verify_verrill_recursion(6, 12)
    assert all(result.values()), result


# -- the chain recursion against the tuple enumeration ----------------------


def _alpha_tuples(m: int, k: int):
    """All tuples (α_1, …, α_k) with α_n ∈ [1, m+1] and
    α_{n+1} ≤ α_n − 2 for n ∈ [1, k−1]: Fib-many, so test-only."""
    if k == 0:
        yield ()
        return
    for a in range(1, m + 2):
        if k == 1:
            yield (a,)
        else:
            for rest in _alpha_tuples(a - 3, k - 1):
                yield (a,) + rest


def _power(p: list, e: int) -> list:
    out = [1]
    for _ in range(e):
        out = _mul(out, p)
    return out


def _tuple_sum(m: int, k: int, head: list, step: int) -> list:
    """Σ_α head^{m+1−α₁}·∏_n α_n(α_n−m−2)·(head + n·step)^{α_n−α_{n+1}},
    terminator α_{k+1} = 1, one product per tuple; head^m for k = 0.
    Polynomials are coefficient lists, lowest degree first."""
    if k == 0:
        return _power(head, m)
    total = []
    for alpha in _alpha_tuples(m, k):
        ext = alpha + (1,)
        term = _power(head, m + 1 - alpha[0])
        for n in range(1, k + 1):
            a = ext[n - 1]
            factor = _power(_add(head, [n * step]), a - ext[n])
            term = _scale(_mul(term, factor), a * (a - m - 2))
        total = _add(total, term)
    return total


def test_verrill_poly_matches_tuple_enumeration():
    for m in range(1, 13):
        for k in range(m // 2 + 3):
            assert verrill_poly(m, k) == UniPoly.of(
                "t", _tuple_sum(m, k, [0, 1], -1)), (m, k)


def test_route_b_matches_tuple_enumeration():
    for m in range(1, 13):
        assert vanhove._route_b(m) == tuple(
            UniPoly.of("x", _tuple_sum(m, k, [-k, 1], 1))
            for k in range(m // 2 + 2)), m


def _mutant(fn, old: str, new: str):
    """fn recompiled in its module's namespace with one source edit."""
    src = inspect.getsource(fn)
    assert src.count(old) == 1, old
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(compile(src.replace(old, new), f"<mutant of {fn.__name__}>",
                 "exec"), namespace)
    return namespace[fn.__name__]


def test_chain_gap_mutation_fails_the_verrill_recursion(monkeypatch):
    # a gap of 1 instead of 2 between chain levels (S_n(a) summing
    # L_n^{a−b}·G_{n+1}(b) over b ≤ a − 1) breaks route A's recursion but
    # not route B, which comes from the Borwein–Salvy operator, so the
    # routes disagree at every order m >= 2; it also breaks the Verrill
    # recursion against the Bessel power numbers
    monkeypatch.setattr(vanhove, "_chain_sum", _mutant(
        vanhove._chain_sum, "_mul(ln2, g[a - 2])", "_mul(ln, g[a - 1])"))
    verrill_poly.cache_clear()
    try:
        for m in range(2, 13):
            with pytest.raises(ArithmeticError, match="routes disagree"):
                vanhove_operator.__wrapped__(m)
        assert not all(all(verify_verrill_recursion(m, 12).values())
                       for m in range(1, 13))
    finally:
        verrill_poly.cache_clear()


# -- the operator, both routes ----------------------------------------------


def test_vanhove_operator_m1_explicit():
    # m=1: leading u(u-4)
    op = vanhove_operator(1)
    assert op.leading == UniPoly.of("u", [0, -4, 1])
    # subleading = (1/2) d/du leading = u - 2
    assert op.ell(0) == UniPoly.of("u", [-2, 1])


def test_vanhove_operator_rejects_m0():
    with pytest.raises(ValueError):
        vanhove_operator(0)


def test_leading_coeff_product_form():
    for m in range(1, 8):
        h = (m + 1) // 2
        poly = [0] * h + [1]
        for n in range(1, m + 2):
            if (n - (m + 1)) % 2 == 0:
                poly = _mul(poly, [-n * n, 1])
        expect = UniPoly.of("u", poly)
        assert leading_coeff_product(m) == expect
        assert vanhove_operator(m).leading == expect


def test_structure_checks_all_pass():
    for m in range(1, 8):
        report = check_vanhove_structure(vanhove_operator(m))
        assert all(report.values()), (m, report)


# (j, constant added to ell_{5,j}) and the exact set of structure flags
# that must then fail: ell_{5,3} must vanish at u = 0, so a bump there
# fails the divisibility flag alone; a half in ell_{5,0} is refused
# with the given error when the polynomial is built, since polynomials
# are over Z
@pytest.mark.parametrize("j, bump, failing", [
    (3, F(1), {"divisibility"}),
    (0, F(1, 2), ValueError("not an integer")),
])
def test_structure_checks_catch_a_bumped_coefficient(j, bump, failing):
    op = vanhove_operator(5)
    coeffs = list(op.coeffs)
    c = coeffs[j]
    bumped = [c.coeff(0) + bump, *c.nums[1:]]
    if isinstance(failing, Exception):
        with pytest.raises(type(failing), match=str(failing)):
            UniPoly.of("u", bumped)
        return
    coeffs[j] = UniPoly.of("u", bumped)
    report = check_vanhove_structure(op._replace(coeffs=tuple(coeffs)))
    assert {key for key, v in report.items() if not v} == failing


def test_operator_coefficients_have_integer_entries():
    # theta_to_d, the coefficients ℓ_{m,j}, the θ-table and their queries
    # give ints, not integral Fractions
    for m in range(1, 6):
        op = vanhove_operator(m)
        d_form = theta_to_d({1 - k: p for k, p in enumerate(op.theta)})
        assert all(type(c) is int for coeff in d_form for c in coeff.values())
        for p in op.coeffs + op.theta:
            assert all(type(c) is int for c in p.nums)
            assert type(p.leading) is int and type(p.coeff(0)) is int


# -- θ-tables and the D-form ----------------------------------------------


def _apply_to_monomial(d_form: list[dict], j: int) -> dict:
    """Σ_i Σ_e c_{i,e}·x^e·D^i applied to x^j, as exponent ↦ nonzero
    coefficient: D^i x^j = j(j−1)…(j−i+1)·x^{j−i}."""
    image: dict[int, F] = {}
    for i, coeff in enumerate(d_form):
        for e, c in coeff.items():
            image[e + j - i] = image.get(e + j - i, 0) + c * perm(j, i)
    return {e: c for e, c in image.items() if c}


def test_theta_hat_action_on_monomials():
    # θ̂ = θ + 1 has D-form u·D + 1, and θ̂ u^n = (n+1)·u^n
    theta_hat = theta_to_d({0: UniPoly.of("x", [1, 1])})
    assert theta_hat == [{0: 1}, {1: 1}]
    for n in range(5):
        assert _apply_to_monomial(theta_hat, n) == {n: n + 1}
    # θ² = u²D² + uD
    assert theta_to_d({0: UniPoly.of("x", [0, 0, 1])}) == [
        {}, {1: 1}, {2: 1}]
    assert theta_to_d({0: UniPoly.of("x", [1, 0, 1])}) == [
        {0: 1}, {1: 1}, {2: 1}]


theta_tables = st.dictionaries(
    st.integers(min_value=-3, max_value=3),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=5).map(
        lambda cs: UniPoly.of("x", cs)
    ),
    max_size=4,
)


@given(theta_tables, st.integers(min_value=0, max_value=8))
@settings(max_examples=60)
def test_theta_to_d_acts_on_monomials_like_the_table(table, j):
    # θ x^j = j x^j, so Σ_s x^s P_s(θ) maps x^j to Σ_s P_s(j)·x^{j+s}
    expect = {j + s: p.eval(j) for s, p in table.items()}
    d_form = theta_to_d(table)
    assert not d_form or d_form[-1]
    assert all(c for coeff in d_form for c in coeff.values())
    assert _apply_to_monomial(d_form, j) == {
        e: c for e, c in expect.items() if c}


def test_route_mutation_is_detected(monkeypatch):
    for route in ("_route_a", "_route_b"):
        original = getattr(vanhove, route)

        def perturbed(m, original=original):
            table = list(original(m))
            p = table[1]
            table[1] = UniPoly.of("x", [p.coeff(0) + 1, *p.nums[1:]])
            return tuple(table)

        monkeypatch.setattr(vanhove, route, perturbed)
        with pytest.raises(ArithmeticError, match="routes disagree"):
            vanhove_operator.__wrapped__(3)
        monkeypatch.setattr(vanhove, route, original)
    assert vanhove_operator.__wrapped__(3) == vanhove_operator(3)


def test_route_b_remainder_is_a_disagreement(monkeypatch):
    # route B divides its scaled table by 2^{m+2}; an odd factor in place
    # of 4^k leaves a remainder, which route B itself reports as the
    # routes disagreeing, before any comparison
    mutant = _mutant(vanhove._route_b, "sign * 4 ** k", "sign * 4 ** k + 1")
    for m in range(1, 13):
        with pytest.raises(ArithmeticError, match="routes disagree"):
            mutant(m)
    monkeypatch.setattr(vanhove, "_route_b", mutant)
    with pytest.raises(ArithmeticError, match="routes disagree"):
        vanhove_operator.__wrapped__(3)


# -- symmetric-power operator and duality -----------------------------------


def test_borwein_salvy_order_and_leading():
    for n in range(1, 5):
        L = _bs_d_form(n)
        assert len(L) - 1 == n + 2
        # leading coefficient is t^{n+2}
        assert L[n + 2] == UniPoly.of("t", [0] * (n + 2) + [1])


def test_borwein_salvy_n1_explicit():
    # (tD)^3 - 4t^2(tD) - 4t^2 = θ^3 + t^2(-4θ - 4)
    assert borwein_salvy_operator(1) == (
        UniPoly.of("x", [0, 0, 0, 1]), UniPoly.of("x", [-4, -4]))
    # and in D-form, written out by hand: t³D³ + 3t²D² + (t − 4t³)D − 4t²
    assert _bs_d_form(1) == [
        UniPoly.of("t", [0, 0, -4]),
        UniPoly.of("t", [0, 1, 0, -4]),
        UniPoly.of("t", [0, 0, 3]),
        UniPoly.of("t", [0, 0, 0, 1]),
    ]


def test_bms_duality_small_orders():
    for n in (1, 2):
        report = verify_bms_duality(n, n + 8)
        assert all(report.values()), (n, report)


def test_bms_duality_fails_for_a_perturbed_operator(monkeypatch):
    # ell_{3,0} + 1 adds uD^2 a_r + D a_r to the u-side of every t^r with
    # r >= 2, so every truncation order must fail, not compare empty lists
    op = vanhove_operator(3)
    c = op.coeffs[0]
    bumped = op._replace(coeffs=(
        UniPoly.of("u", [c.coeff(0) + 1, *c.nums[1:]]),) + op.coeffs[1:])
    monkeypatch.setattr(vanhove, "vanhove_operator", lambda n: bumped)
    report = verify_bms_duality(3, 14)
    orders = [key for key in report if key.startswith("order_")]
    assert orders == ["order_10", "order_12", "order_14"]
    assert not any(report[key] for key in orders), report
    assert report["zero_series"]


def test_bms_duality_rejects_tiny_truncation():
    with pytest.raises(ValueError):
        verify_bms_duality(2, 4)


def test_adjoint_parity_directly():
    # L̃_m* = Σ_k u^{1−k} P_k(k − θ̂), so parity is P_k(k − x) = (−1)^m P_k(x),
    # an identity of polynomials of degree <= m, read at m + 1 points
    for m in range(1, 6):
        sign = -1 if m % 2 else 1
        for k, p in enumerate(vanhove_operator(m).theta):
            assert p.degree <= m
            for x in range(m + 1):
                assert p.eval(k - x) == sign * p.eval(x), (m, k, x)
