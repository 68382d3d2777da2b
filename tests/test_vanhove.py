"""Tests for the Vanhove operator module: Verrill polynomials, Bessel
power numbers, the θ-table to D-form conversion, the dual-route operator
construction, structural checks, the recursion for power numbers, and the
symmetric-power duality."""

from fractions import Fraction as F
from math import comb, perm

import pytest
from hypothesis import given, settings, strategies as st

from bwv import vanhove
from bwv.exactalg import UniPoly
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


# -- the operator, both routes ----------------------------------------------


def test_vanhove_operator_m1_explicit():
    # m=1: leading u(u-4)
    op = vanhove_operator(1)
    assert op.leading == UniPoly.of("u", [0, -4, 1])
    # subleading = (1/2) d/du leading
    assert op.ell(0) == op.leading.deriv() * F(1, 2)


def test_vanhove_operator_rejects_m0():
    with pytest.raises(ValueError):
        vanhove_operator(0)


def test_leading_coeff_product_form():
    for m in range(1, 8):
        h = (m + 1) // 2
        u = UniPoly.x("u")
        expect = UniPoly.of("u", [0] * h + [1])
        for n in range(1, m + 2):
            if (n - (m + 1)) % 2 == 0:
                expect = expect * (u - UniPoly.const("u", n * n))
        assert leading_coeff_product(m) == expect
        assert vanhove_operator(m).leading == expect


def test_structure_checks_all_pass():
    for m in range(1, 8):
        report = check_vanhove_structure(vanhove_operator(m))
        assert all(report.values()), (m, report)


def test_operator_coefficients_have_integer_entries():
    for m in range(1, 6):
        op = vanhove_operator(m)
        for j in range(m + 1):
            assert op.ell(j).is_integral()


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
    x = UniPoly.x("x")
    theta_hat = theta_to_d({0: x + 1})
    assert theta_hat == [{0: 1}, {1: 1}]
    for n in range(5):
        assert _apply_to_monomial(theta_hat, n) == {n: n + 1}
    assert theta_to_d({0: x * x}) == [{}, {1: 1}, {2: 1}]  # θ² = u²D² + uD
    assert theta_to_d({0: x * x + 1}) == [{0: 1}, {1: 1}, {2: 1}]


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
            table[1] = table[1] + 1
            return tuple(table)

        monkeypatch.setattr(vanhove, route, perturbed)
        with pytest.raises(ArithmeticError, match="routes disagree"):
            vanhove_operator.__wrapped__(3)
        monkeypatch.setattr(vanhove, route, original)
    assert vanhove_operator.__wrapped__(3) == vanhove_operator(3)


# -- symmetric-power operator and duality -----------------------------------


def test_borwein_salvy_order_and_leading():
    for n in range(1, 5):
        L = _bs_d_form(n)
        assert len(L) - 1 == n + 2
        # leading coefficient is t^{n+2}
        assert L[n + 2] == UniPoly.of("t", [0] * (n + 2) + [1])


def test_borwein_salvy_n1_explicit():
    # (tD)^3 - 4t^2(tD) - 4t^2 = θ^3 + t^2(-4θ - 4)
    x = UniPoly.x("x")
    assert borwein_salvy_operator(1) == (x**3, -4 * x - 4)
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


def test_bms_duality_rejects_tiny_truncation():
    with pytest.raises(ValueError):
        verify_bms_duality(2, 4)


def test_adjoint_parity_directly():
    # L̃_m* = Σ_k u^{1−k} P_k(k − θ̂), so parity is P_k(k − x) = (−1)^m P_k(x)
    x = UniPoly.x("x")
    for m in range(1, 6):
        sign = -1 if m % 2 else 1
        for k, p in enumerate(vanhove_operator(m).theta):
            assert p.compose_poly(k - x) == p * sign, (m, k)
