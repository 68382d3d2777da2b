"""Tests for the exact arithmetic layer: Bernoulli numbers, polynomials,
rational functions, matrices."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bwv.exactalg import (
    ExactMatrix,
    RatFunc,
    UniPoly,
    bernoulli,
    binom_ext,
    exact_det,
    exact_inverse,
    recip_fact_ext,
)

# -- strategies -------------------------------------------------------------

fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
small_ints = st.integers(min_value=-9, max_value=9)


def polys(max_deg=4, coeff=fractions):
    return st.lists(coeff, min_size=0, max_size=max_deg + 1).map(
        lambda cs: UniPoly.of("u", cs)
    )


def nonzero_polys(max_deg=4):
    return polys(max_deg).filter(lambda p: not p.is_zero)


def ratfuncs(max_deg=3):
    return st.tuples(polys(max_deg), nonzero_polys(max_deg)).map(
        lambda t: RatFunc(t[0], t[1])
    )


# -- Bernoulli numbers ------------------------------------------------------


def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == F(-1, 2)
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(6) == F(1, 42)
    assert bernoulli(8) == F(-1, 30)
    assert bernoulli(10) == F(5, 66)
    assert bernoulli(12) == F(-691, 2730)
    assert bernoulli(20) == F(-174611, 330)


def test_bernoulli_odd_vanish():
    for n in range(3, 41, 2):
        assert bernoulli(n) == 0


@given(st.integers(min_value=1, max_value=60))
def test_bernoulli_defining_recurrence(n):
    # sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1
    total = sum(binom_ext(n + 1, j) * bernoulli(j) for j in range(n + 1))
    assert total == 0


def test_bernoulli_negative_index_rejected():
    with pytest.raises(ValueError):
        bernoulli(-1)


# -- extended binomials and reciprocal factorials ---------------------------


def test_binom_ext_conventions():
    assert binom_ext(5, 2) == 10
    assert binom_ext(5, 0) == 1
    assert binom_ext(5, 6) == 0
    assert binom_ext(5, -1) == 0
    assert binom_ext(0, 0) == 1
    with pytest.raises(ValueError):
        binom_ext(-1, 0)


def test_recip_fact_ext_conventions():
    assert recip_fact_ext(0) == 1
    assert recip_fact_ext(4) == F(1, 24)
    assert recip_fact_ext(-1) == 0
    assert recip_fact_ext(-5) == 0


# -- polynomials ------------------------------------------------------------


@given(polys(), nonzero_polys())
@settings(max_examples=60)
def test_unipoly_divmod_is_division_with_remainder(a, b):
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero or r.degree < b.degree


@given(nonzero_polys(3), nonzero_polys(3), nonzero_polys(2))
@settings(max_examples=40)
def test_unipoly_gcd_divides_and_detects_common_factor(a, b, c):
    g = a.gcd(b)
    assert a.divmod(g)[1].is_zero
    assert b.divmod(g)[1].is_zero
    # a common factor c must divide gcd(ac, bc)
    g2 = (a * c).gcd(b * c)
    assert g2.divmod(c.monic())[1].is_zero


@given(polys(3), polys(3))
@settings(max_examples=60)
def test_unipoly_deriv_product_rule(a, b):
    assert (a * b).deriv() == a.deriv() * b + a * b.deriv()


@given(polys(3), polys(3), fractions)
@settings(max_examples=60)
def test_unipoly_eval_is_ring_homomorphism(a, b, x):
    assert (a + b).eval(x) == a.eval(x) + b.eval(x)
    assert (a * b).eval(x) == a.eval(x) * b.eval(x)


def test_unipoly_shift_mul_and_compose():
    p = UniPoly.of("u", [1, 2])  # 1 + 2u
    assert p.shift_mul(2) == UniPoly.of("u", [0, 0, 1, 2])
    inner = UniPoly.of("u", [1, 1])  # u + 1
    assert p.compose_poly(inner) == UniPoly.of("u", [3, 2])


# -- the integer-backed core against a plain-Fraction reference -------------


def _strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b):
    n = max(len(a), len(b))
    pad = [F(0)] * n
    return _strip(x + y for x, y in zip((a + pad)[:n], (b + pad)[:n]))


def _ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def _ref_divmod(a, b):
    rem = list(a)
    quo = [F(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quo[k] = c
        for j, y in enumerate(b):
            rem[k + j] -= c * y
    return _strip(quo), _strip(rem[: len(b) - 1])


def _ref_gcd(a, b):
    """Monic gcd by Euclid's algorithm over Q."""
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _ref_deriv(a):
    return _strip([i * c for i, c in enumerate(a)][1:])


def _ref_eval(a, x):
    return sum((c * x**i for i, c in enumerate(a)), F(0))


def _is_canonical(p):
    """Integer numerators over a positive denominator, coprime to their
    content, with no trailing zeros."""
    return (
        all(type(v) is int for v in p.nums)
        and type(p.den) is int
        and p.den > 0
        and (not p.nums or p.nums[-1] != 0)
        and gcd(p.den, *p.nums) == 1
    )


wide_fractions = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)


def coeff_lists(max_deg=4):
    return st.lists(
        st.one_of(fractions, wide_fractions), max_size=max_deg + 1
    ).map(_strip)


def nonzero_coeff_lists(max_deg=4):
    return coeff_lists(max_deg).filter(bool)


@given(coeff_lists(), coeff_lists())
@settings(max_examples=80)
def test_unipoly_ring_ops_match_reference(a, b):
    p, q = UniPoly.of("u", a), UniPoly.of("u", b)
    neg_b = [-c for c in b]
    for got, want in (
        (p, a),
        (p + q, _ref_add(a, b)),
        (p - q, _ref_add(a, neg_b)),
        (p * q, _ref_mul(a, b)),
        (p.deriv(), _ref_deriv(a)),
    ):
        assert _is_canonical(got)
        assert list(got.coeffs) == want


@given(coeff_lists(), nonzero_coeff_lists(3))
@settings(max_examples=80)
def test_unipoly_divmod_matches_reference(a, b):
    q, r = UniPoly.of("u", a).divmod(UniPoly.of("u", b))
    want_q, want_r = _ref_divmod(a, b)
    assert _is_canonical(q) and _is_canonical(r)
    assert list(q.coeffs) == want_q
    assert list(r.coeffs) == want_r


@given(coeff_lists(3), coeff_lists(3), nonzero_coeff_lists(2))
@settings(max_examples=80)
def test_unipoly_gcd_matches_reference(a, b, c):
    # a common factor c makes gcds of positive degree common
    a, b = _ref_mul(a, c), _ref_mul(b, c)
    g = UniPoly.of("u", a).gcd(UniPoly.of("u", b))
    gs = list(g.coeffs)
    assert _is_canonical(g)
    assert gs == _ref_gcd(a, b)
    if a or b:
        assert gs[-1] == 1
    for x in (a, b):
        if x:
            assert _ref_divmod(x, gs)[1] == []


@given(coeff_lists(), st.one_of(fractions, wide_fractions))
@settings(max_examples=80)
def test_unipoly_eval_matches_reference(a, x):
    assert UniPoly.of("u", a).eval(x) == _ref_eval(a, x)


@given(coeff_lists(3), nonzero_coeff_lists(3), nonzero_coeff_lists(2))
@settings(max_examples=80)
def test_ratfunc_is_reduced_with_monic_denominator(a, b, c):
    num, den = _ref_mul(a, c), _ref_mul(b, c)
    f = RatFunc(UniPoly.of("u", num), UniPoly.of("u", den))
    n, d = list(f.num.coeffs), list(f.den.coeffs)
    assert _is_canonical(f.num) and _is_canonical(f.den)
    assert d[-1] == 1
    assert _ref_gcd(n, d) == [1]
    assert _ref_mul(n, den) == _ref_mul(num, d)


@given(ratfuncs(2), ratfuncs(2))
@settings(max_examples=60)
def test_ratfunc_results_stay_canonical(f, g):
    for h in (f + g, f - g, f * g, f.deriv()):
        n, d = list(h.num.coeffs), list(h.den.coeffs)
        assert d[-1] == 1
        assert _ref_gcd(n, d) == [1]


# -- rational functions -----------------------------------------------------


@given(ratfuncs())
@settings(max_examples=60)
def test_ratfunc_normal_form(f):
    # denominator monic and coprime to the numerator
    assert f.den.leading == 1
    assert f.num.gcd(f.den).degree == 0


@given(ratfuncs(2), ratfuncs(2), fractions)
@settings(max_examples=60)
def test_ratfunc_arithmetic_matches_evaluation(f, g, x):
    try:
        fx, gx = f.eval(x), g.eval(x)
    except ZeroDivisionError:
        return
    assert (f + g).eval(x) == fx + gx
    assert (f * g).eval(x) == fx * gx
    if gx != 0:
        assert (f / g).eval(x) == fx / gx


def test_ratfunc_eval_removable_singularity():
    u = UniPoly.x("u")
    one = UniPoly.const("u", 1)
    f = RatFunc(u * u - one, u - one)  # (u^2-1)/(u-1)
    assert f.eval(1) == 2


def test_ratfunc_eval_genuine_pole_raises():
    u = UniPoly.x("u")
    f = RatFunc(UniPoly.const("u", 1), u - UniPoly.const("u", 1))
    with pytest.raises(ZeroDivisionError):
        f.eval(1)


# -- exact matrices ---------------------------------------------------------


def q_matrices(n):
    return st.lists(
        st.lists(fractions, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(ExactMatrix)


@given(q_matrices(3), q_matrices(3))
@settings(max_examples=40)
def test_det_multiplicative(A, B):
    assert exact_det(A @ B) == exact_det(A) * exact_det(B)


@given(q_matrices(3))
@settings(max_examples=40)
def test_det_transpose_invariant(A):
    assert exact_det(A.T) == exact_det(A)


@given(q_matrices(4))
@settings(max_examples=30)
def test_inverse_roundtrip(A):
    if exact_det(A) == 0:
        with pytest.raises(ZeroDivisionError):
            exact_inverse(A)
        return
    assert A @ exact_inverse(A) == ExactMatrix.identity(4)
    assert exact_inverse(A) @ A == ExactMatrix.identity(4)


def test_det_over_polynomial_ring():
    u = RatFunc.x("u")
    one = RatFunc.of("u", 1)
    M = ExactMatrix([[one, u], [u, one]])
    assert M.det() == one - u * u


def u_matrices(n):
    """n x n matrices over Q(u) with entries p/q, p and q of degree <= 1
    and coefficients in [-2, 2]: about one in five is singular."""
    dens = st.sampled_from(
        [UniPoly.of("u", cs) for cs in ([1], [2], [0, 1], [-1, 1], [1, 2])])
    tiny = st.integers(min_value=-2, max_value=2)
    nums = st.tuples(tiny, tiny).map(lambda cs: UniPoly.of("u", cs))
    entry = st.tuples(nums, dens)
    return st.lists(
        st.lists(entry.map(lambda t: RatFunc(*t)), min_size=n, max_size=n),
        min_size=n, max_size=n,
    ).map(ExactMatrix)


@given(u_matrices(3))
@settings(max_examples=30, deadline=None)
def test_inverse_roundtrip_over_ratfuncs(A):
    if exact_det(A).is_zero:
        with pytest.raises(ZeroDivisionError):
            exact_inverse(A)
        return
    Ainv = exact_inverse(A)
    assert A @ Ainv == ExactMatrix.identity(3, "u")
    assert Ainv @ A == ExactMatrix.identity(3, "u")


@given(u_matrices(3), u_matrices(3))
@settings(max_examples=20, deadline=None)
def test_det_multiplicative_over_ratfuncs(A, B):
    assert exact_det(A @ B) == exact_det(A) * exact_det(B)


def _products(entry):
    """(A, B) with A n x p and B p x q, n, p, q in 0..4; a matrix with no
    rows is given its column count."""
    def pair(dims):
        n, p, q = dims
        return st.tuples(
            st.lists(st.lists(entry, min_size=p, max_size=p),
                     min_size=n, max_size=n),
            st.lists(st.lists(entry, min_size=q, max_size=q),
                     min_size=p, max_size=p),
        ).map(lambda ab: (ExactMatrix(ab[0], p), ExactMatrix(ab[1], q)))
    size = st.integers(min_value=0, max_value=4)
    return st.tuples(size, size, size).flatmap(pair)


# a few denominators shared across entries, so rows and columns clear to
# a common denominator, beside fractions with unrelated large ones
shared_den_fractions = st.builds(
    F, st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([1, 2, 3, 6, 7, 12]))


def _loop_product(A, B):
    """The entrywise loop Σ_k a_ik·b_kj, summed from k = 0 on in the
    entries' own arithmetic."""
    return ExactMatrix([
        [sum((A[i, k] * B[k, j] for k in range(1, A.cols)), A[i, 0] * B[0, j])
         for j in range(B.cols)]
        for i in range(A.rows)
    ])


@given(_products(st.one_of(fractions, wide_fractions, shared_den_fractions)))
@settings(max_examples=80)
def test_q_matrix_product_matches_entrywise_fraction_sum(pair):
    A, B = pair
    C = A @ B
    assert (C.rows, C.cols) == (A.rows, B.cols)
    expect = [[sum((A[i, k] * B[k, j] for k in range(A.cols)), F(0))
               for j in range(B.cols)] for i in range(A.rows)]
    assert C.entries == ExactMatrix(expect).entries
    assert all(type(e) is F for row in C.entries for e in row)


@given(u_matrices(2), q_matrices(2))
@settings(max_examples=20, deadline=None)
def test_matrix_product_with_a_ratfunc_operand_is_the_entrywise_loop(A, B):
    for X, Y in ((A, B), (B, A), (A, A)):
        C = X @ Y
        assert C.ring == "Q(u)"
        assert C.entries == _loop_product(X, Y).entries


def test_zero_first_pivot_swaps_rows():
    A = ExactMatrix([[0, 2, 1], [1, 1, 0], [3, 0, F(1, 2)]])
    assert exact_det(A) == -4
    assert A @ exact_inverse(A) == ExactMatrix.identity(3)
    u = RatFunc.x("u")
    one, zero = RatFunc.of("u", 1), RatFunc.of("u", 0)
    B = ExactMatrix([[zero, u], [one / u, one]])
    assert exact_det(B) == -one
    assert exact_inverse(B) == ExactMatrix([[-one, u], [one / u, zero]])


def test_singular_matrix_over_ratfuncs():
    u = RatFunc.x("u")
    one, zero = RatFunc.of("u", 1), RatFunc.of("u", 0)
    # the last pivot vanishes
    A = ExactMatrix([[u, u * u], [one, u]])
    # a pivot column vanishes
    B = ExactMatrix([[zero, u], [zero, one / (u - 1)]])
    for M in (A, B):
        assert exact_det(M) == zero
        with pytest.raises(ZeroDivisionError):
            exact_inverse(M)


def test_matrix_indexing_conventions():
    M = ExactMatrix([[1, 2], [3, 4]])
    assert M.at(1, 2) == 2  # 1-based
    assert M[0, 1] == 2  # 0-based
    assert M.submatrix([2], [1, 2]) == ExactMatrix([[3, 4]])
    assert M.ring == "Q"


def test_empty_matrix_det_is_one():
    assert exact_det(ExactMatrix.zeros(0, 0)) == 1


def test_a_matrix_with_no_rows_keeps_its_columns():
    Z = ExactMatrix.zeros(0, 3)
    assert (Z.rows, Z.cols) == (0, 3)
    assert (Z.T.rows, Z.T.cols) == (3, 0)
    S = ExactMatrix([[1, 2, 3]]).submatrix([], [1, 2])
    assert (S.rows, S.cols) == (0, 2)
    C = Z @ ExactMatrix.zeros(3, 2)
    assert (C.rows, C.cols) == (0, 2)
    assert ExactMatrix.zeros(2, 0) @ Z == ExactMatrix.zeros(2, 3)
