"""Tests for the exact arithmetic layer: Bernoulli numbers, polynomials,
rational functions, matrices; and the coefficient-list arithmetic the
operator layer (``bwv.vanhove``) does in place of polynomial ring
operations."""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bwv.exactalg import (
    ExactMatrix,
    RatFunc,
    RatFuncGrid,
    UniPoly,
    _int_divmod,
    _int_gcd,
    bernoulli,
    binom_ext,
    exact_det,
    exact_inverse,
    recip_fact_ext,
)
from bwv.vanhove import _add, _compose, _deriv, _mul, _scale

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
    # the integer kernel on the numerators: s·A = q·B + r in Z[u]
    q, r, s = _int_divmod(a.nums, b.nums)
    assert _add(_mul(q, b.nums), r) == _scale(a.nums, s)
    assert len(r) < len(b.nums)


def _divides(g, a):
    return not _int_divmod(a, g)[1]


@given(nonzero_polys(3), nonzero_polys(3), nonzero_polys(2))
@settings(max_examples=40)
def test_unipoly_gcd_divides_and_detects_common_factor(a, b, c):
    g = _int_gcd(a.nums, b.nums)
    assert _divides(g, a.nums)
    assert _divides(g, b.nums)
    # a common factor c must divide gcd(ac, bc)
    g2 = _int_gcd(_mul(a.nums, c.nums), _mul(b.nums, c.nums))
    assert _divides(c.nums, g2)


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
    # a UniPoly is built and differentiated; sums, differences and
    # products are formed on coefficient lists
    p = UniPoly.of("u", a)
    for got, want in ((p, a), (p.deriv(), _ref_deriv(a))):
        assert _is_canonical(got)
        assert list(got.coeffs) == want
    neg_b = [-c for c in b]
    assert _add(a, b) == _ref_add(a, b)
    assert _add(a, _scale(b, -1)) == _ref_add(a, neg_b)
    assert _mul(a, b) == _ref_mul(a, b)
    assert _deriv(a) == _ref_deriv(a)


@given(coeff_lists(3), coeff_lists(3))
@settings(max_examples=60)
def test_unipoly_deriv_product_rule(a, b):
    ab = _mul(a, b)
    assert _deriv(ab) == _add(_mul(_deriv(a), b), _mul(a, _deriv(b)))
    assert UniPoly.of("u", ab).deriv() == UniPoly.of("u", _deriv(ab))


@given(coeff_lists(3), coeff_lists(3), fractions)
@settings(max_examples=60)
def test_unipoly_eval_is_ring_homomorphism(a, b, x):
    def at(c):
        return UniPoly.of("u", c).eval(x)

    assert at(_add(a, b)) == at(a) + at(b)
    assert at(_mul(a, b)) == at(a) * at(b)


def test_unipoly_shift_mul_and_compose():
    p = [1, 2]  # 1 + 2u
    assert _mul([0, 0, 1], p) == [0, 0, 1, 2]
    assert _compose(p, [1, 1]) == [3, 2]  # p(u + 1)


@given(coeff_lists(4), coeff_lists(3))
@settings(max_examples=60)
def test_unipoly_compose_is_the_sum_of_powers(a, inner):
    expect, power = [], [F(1)]
    for c in a:
        expect = _ref_add(expect, _ref_mul(power, [c]))
        power = _ref_mul(power, inner)
    assert _compose(a, inner) == expect


@given(coeff_lists(), nonzero_coeff_lists(3))
@settings(max_examples=80)
def test_unipoly_divmod_matches_reference(a, b):
    # a = A/da and b = B/db with A, B integral, and s·A = q·B + r, so
    # a/b has quotient q·db/(s·da) and remainder r/(s·da)
    pa, pb = UniPoly.of("u", a), UniPoly.of("u", b)
    q, r, s = _int_divmod(pa.nums, pb.nums)
    assert all(type(x) is int for x in q + r + [s])
    assert not r or r[-1]
    want_q, want_r = _ref_divmod(a, b)
    assert _strip(F(x * pb.den, s * pa.den) for x in q) == want_q
    assert [F(x, s * pa.den) for x in r] == want_r


@given(nonzero_coeff_lists(3), nonzero_coeff_lists(3),
       nonzero_coeff_lists(2))
@settings(max_examples=80)
def test_unipoly_gcd_matches_reference(a, b, c):
    # a common factor c makes gcds of positive degree common
    a, b = _ref_mul(a, c), _ref_mul(b, c)
    g = _int_gcd(UniPoly.of("u", a).nums, UniPoly.of("u", b).nums)
    # primitive, with a positive leading coefficient
    assert all(type(x) is int for x in g)
    assert gcd(*g) == 1 and g[-1] > 0
    gs = [F(x, g[-1]) for x in g]
    assert gs == _ref_gcd(a, b)
    for x in (a, b):
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


# -- rational functions -----------------------------------------------------


@given(ratfuncs())
@settings(max_examples=60)
def test_ratfunc_normal_form(f):
    # denominator monic and coprime to the numerator
    assert f.den.leading == 1
    if f.num.is_zero:
        assert f.den.degree == 0
    else:
        assert len(_int_gcd(f.num.nums, f.den.nums)) == 1


def test_ratfunc_eval_removable_singularity():
    f = RatFunc(UniPoly.of("u", [-1, 0, 1]),
                UniPoly.of("u", [-1, 1]))  # (u^2-1)/(u-1)
    assert f.eval(1) == 2


def test_ratfunc_eval_genuine_pole_raises():
    f = RatFunc(UniPoly.const("u", 1), UniPoly.of("u", [-1, 1]))
    with pytest.raises(ZeroDivisionError):
        f.eval(1)


@pytest.mark.parametrize("value", [0, 3, -7, F(1, 2), F(-5, 3)])
def test_constant_ratfunc_hashes_like_its_value(value):
    # equal values must hash equal, so that sets and dicts see one key; a
    # RatFunc compares with RatFunc values only, never with an int or
    # Fraction
    const = RatFunc.of("u", value)
    reduced = RatFunc(UniPoly.of("u", [value, value]), UniPoly.of("u", [1, 1]))
    assert reduced == const and hash(reduced) == hash(const)
    assert len({reduced, const}) == 1 and {const: 1}[reduced] == 1
    assert reduced != value and value != const


def test_nonconstant_ratfunc_is_not_its_constant_term():
    f, const = RatFunc(UniPoly.of("u", [3, 1])), RatFunc.of("u", 3)
    assert f != const and len({f, const}) == 2


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


def _gauss_jordan_inverse(M):
    """M^-1 by Gauss-Jordan elimination in Fraction arithmetic, pivoting on
    the first nonzero entry of each column: the reference for the integer
    back substitution of exact_inverse over Q.  None if M is singular."""
    n = M.rows
    A = [list(row) + [F(int(i == j)) for j in range(n)]
         for i, row in enumerate(M.entries)]
    for c in range(n):
        p = next((r for r in range(c, n) if A[r][c]), None)
        if p is None:
            return None
        A[c], A[p] = A[p], A[c]
        A[c] = [x / A[c][c] for x in A[c]]
        for r in range(n):
            if r != c and A[r][c]:
                f = A[r][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return ExactMatrix([row[n:] for row in A])


def _check_q_inverse(M):
    ref = _gauss_jordan_inverse(M)
    if ref is None:
        with pytest.raises(ZeroDivisionError):
            exact_inverse(M)
        return
    inv = exact_inverse(M)
    assert inv.entries == ref.entries
    assert all(type(e) is F for row in inv.entries for e in row)
    assert M @ inv == ExactMatrix.identity(M.rows)


def test_q_inverse_on_seeded_random_matrices():
    rng = random.Random(20261018)
    for trial in range(120):
        n = 1 + trial % 7
        rows = [[F(rng.randint(-30, 30), rng.randint(1, 40))
                 for _ in range(n)] for _ in range(n)]
        if n > 1 and trial % 2:
            rows[0][0] = F(0)  # the first pivot needs a row swap
        _check_q_inverse(ExactMatrix(rows))


def test_q_inverse_with_row_swaps_at_later_pivots():
    # after the first step the (2, 2) entry vanishes: a swap at pivot 2
    M = ExactMatrix([[1, 2, 3, F(1, 2)], [2, 4, 1, 0],
                     [F(1, 3), 1, 0, 5], [7, 0, F(-2, 9), 1]])
    _check_q_inverse(M)
    # a permutation matrix swaps at every pivot
    P = ExactMatrix([[0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]])
    assert exact_inverse(P) == P.T
    _check_q_inverse(P.scale(F(-3, 5)))


def test_q_inverse_of_a_1x1_matrix():
    assert exact_inverse(ExactMatrix([[F(-3, 7)]])) == ExactMatrix(
        [[F(-7, 3)]])
    assert exact_inverse(ExactMatrix([[5]])) == ExactMatrix([[F(1, 5)]])
    with pytest.raises(ZeroDivisionError):
        exact_inverse(ExactMatrix([[0]]))


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(fractions, wide_fractions), min_size=n,
                 max_size=n),
        min_size=n, max_size=n)))
@settings(max_examples=60)
def test_q_inverse_matches_gauss_jordan(rows):
    _check_q_inverse(ExactMatrix(rows))


def test_singular_q_matrices_raise():
    half = F(1, 2)
    for rows in (
        # the last pivot vanishes: row 3 = row 1 + 2 row 2
        [[1, half, 3], [F(2, 3), 0, -1], [F(7, 3), half, 1]],
        # a pivot column vanishes
        [[0, 1, 2], [0, half, 1], [0, 3, F(1, 5)]],
        # a zero row
        [[1, 2], [0, 0]],
    ):
        M = ExactMatrix(rows)
        assert exact_det(M) == 0
        with pytest.raises(ZeroDivisionError):
            exact_inverse(M)


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


def test_zero_first_pivot_swaps_rows():
    A = ExactMatrix([[0, 2, 1], [1, 1, 0], [3, 0, F(1, 2)]])
    assert exact_det(A) == -4
    assert A @ exact_inverse(A) == ExactMatrix.identity(3)


def test_matrix_indexing_conventions():
    M = ExactMatrix([[1, 2], [3, 4]])
    assert M.at(1, 2) == 2  # 1-based
    assert M[0, 1] == 2  # 0-based
    assert M.submatrix([2], [1, 2]) == ExactMatrix([[3, 4]])
    assert M.ring == "Q"


@pytest.mark.parametrize("read", [
    lambda M: M.at(0, 0), lambda M: M.at(1, 0), lambda M: M.at(-1, 1),
    lambda M: M.submatrix([0], [1, 2]), lambda M: M.submatrix([1], [2, 0]),
    lambda M: M.submatrix([0], []),
], ids=["at-00", "at-10", "at-neg", "sub-row0", "sub-col0", "sub-empty"])
@pytest.mark.parametrize("M", [ExactMatrix([[1, 2], [3, 4]])], ids=["Q"])
def test_a_1_based_index_below_1_raises(M, read):
    # Python's negative indexing would wrap 0 to the last row or column
    with pytest.raises(IndexError):
        read(M)


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


def test_a_polynomial_entry_is_not_lifted_beside_a_rational_function():
    # an ExactMatrix is over Q: a UniPoly entry is refused, alone or next
    # to a RatFunc, which is refused too
    x = UniPoly.x("u")
    for rows, name in (([[x]], "UniPoly"), ([[1, x]], "UniPoly"),
                       ([[RatFunc(x), x]], "RatFunc")):
        with pytest.raises(TypeError, match=f"cannot coerce {name}"):
            ExactMatrix(rows)


def test_ratfunc_grid_is_a_stored_value():
    # a grid over Q(u) is transposed, compared, hashed and evaluated to a
    # matrix over Q, which it never equals, even when every entry is
    # constant
    u = RatFunc(UniPoly.x("u"))
    R = RatFuncGrid([[RatFunc.of("u", F(1, 2)), u],
                     [RatFunc.of("u", 0), RatFunc.of("u", -5)]])
    assert (R.ring, R.rows, R.cols) == ("Q(u)", 2, 2)
    assert R.T.T == R and hash(R.T.T) == hash(R) and R.T != R
    assert R.eval(3) == ExactMatrix([[F(1, 2), 3], [0, -5]])
    C = RatFuncGrid([[RatFunc.of("u", 2)]])
    assert C != ExactMatrix([[2]]) and ExactMatrix([[2]]) != C
    assert len({C, ExactMatrix([[2]])}) == 2
    assert str(C.eval(0)) == str(C) == "[[2]]"
    with pytest.raises(ValueError, match="ragged"):
        RatFuncGrid([[u, u], [u]])


# -- integer rows over one denominator, against plain Fraction rows ---------

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=9)


def _grid(draw, rows, cols):
    return [[draw(small_fractions) for _ in range(cols)] for _ in range(rows)]


def _as_entries(rows):
    return tuple(tuple(F(e) for e in row) for row in rows)


def _assert_canonical(M):
    assert M.ring == "Q" and M.den > 0
    assert gcd(M.den, *(x for row in M.nums for x in row)) == 1


def _ref_det(rows):
    """det by Gaussian elimination in Fraction arithmetic."""
    A = [list(row) for row in rows]
    n, det = len(A), F(1)
    for c in range(n):
        p = next((r for r in range(c, n) if A[r][c]), None)
        if p is None:
            return F(0)
        if p != c:
            A[c], A[p] = A[p], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return det


@given(st.data())
@settings(max_examples=80)
def test_integer_matrix_matches_fraction_reference(data):
    n, p, q = (data.draw(st.integers(min_value=1, max_value=4))
               for _ in range(3))
    A, B = _grid(data.draw, n, p), _grid(data.draw, p, q)
    c = data.draw(small_fractions)
    rows = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=n))
    cols = data.draw(st.lists(st.integers(1, p), min_size=1, max_size=p))
    MA, MB = ExactMatrix(A), ExactMatrix(B)
    results = {
        "@": (MA @ MB, [[sum((A[i][k] * B[k][j] for k in range(p)), F(0))
                         for j in range(q)] for i in range(n)]),
        "scale": (MA.scale(c), [[c * e for e in row] for row in A]),
        "neg": (-MA, [[-e for e in row] for row in A]),
        "T": (MA.T, [list(col) for col in zip(*A)]),
        "submatrix": (MA.submatrix(rows, cols),
                      [[A[a - 1][b - 1] for b in cols] for a in rows]),
    }
    for name, (M, expect) in results.items():
        assert M.entries == _as_entries(expect), name
        _assert_canonical(M)
    S = ExactMatrix(_grid(data.draw, n, n))
    assert exact_det(S) == _ref_det(S.entries)
    ref = _gauss_jordan_inverse(S)
    if ref is None:
        with pytest.raises(ZeroDivisionError):
            exact_inverse(S)
    else:
        inv = exact_inverse(S)
        assert inv.entries == ref.entries
        _assert_canonical(inv)


def test_equal_matrices_from_different_paths_are_equal_and_hash_equal():
    half = ExactMatrix.from_fn(2, 2, lambda a, b: F(2, 4) if a == b else 0)
    big = ExactMatrix([[F(1, 2), 0, F(1, 3)], [0, F(1, 2), F(1, 4)],
                       [5, 7, F(1, 9)]])
    same = (
        big.submatrix([1, 2], [1, 2]),
        ExactMatrix.identity(2).scale(F(1, 2)),
        ExactMatrix([[3, 0], [0, 3]]) @ ExactMatrix([[F(1, 6), 0],
                                                     [0, F(1, 6)]]),
        exact_inverse(ExactMatrix([[2, 0], [0, 2]])),
        -ExactMatrix([[F(-4, 8), 0], [0, F(-1, 2)]]),
        ExactMatrix([[F(1, 2), 0], [0, F(1, 2)]]).T,
    )
    for M in same:
        assert M == half and hash(M) == hash(half)
        assert (M.nums, M.den) == (((1, 0), (0, 1)), 2)
    zero = ExactMatrix([[F(0, 5), 0], [0, 0]])
    assert zero == ExactMatrix.zeros(2, 2) == half.scale(0)
    assert hash(zero) == hash(half.scale(0)) and zero.den == 1


@given(q_matrices(3), st.fractions(min_value=-5, max_value=5,
                                    max_denominator=7).filter(bool))
@settings(max_examples=40)
def test_round_trips_give_the_same_fields(A, c):
    for M in (A.scale(c).scale(1 / c), A.T.T, -(-A),
              A.submatrix([1, 2, 3], [1, 2, 3]), A @ ExactMatrix.identity(3),
              ExactMatrix(A.entries)):
        assert M == A and hash(M) == hash(A)
        assert (M.nums, M.den) == (A.nums, A.den)
