"""Tests for the Bernoulli-matrix module: the V/upsilon matrices, the
Sigma/sigma intersection matrices and their Bernoulli-entry inverses, the
Betti and de Rham matrices with their frozen reference values, beta
matrices, block identities, named constants, and JSON serialization."""

import inspect
from fractions import Fraction as F

import mpmath
import pytest

from bwv import beta, brmatrices
from bwv.brmatrices import (
    MATRIX_FAMILIES,
    NAMED_CONSTANTS,
    Surd,
    aux_matrix,
    beta_matrix,
    betti_B,
    betti_Bring,
    betti_b,
    betti_bring,
    betti_minors,
    derham_D,
    derham_Dring,
    derham_alternatives,
    derham_d,
    derham_dring,
    frakS,
    frakSring,
    frakSring_entry,
    matSigma,
    matSigmaInvBernoulli,
    matUpsilon,
    matV,
    matrix_family,
    matrix_from_json,
    matrix_to_json,
    matsigma,
    matsigmaInvBernoulli,
    named_constant,
    top_coeff,
    top_coeff_sign_on_01,
    verify_block_identities,
)
from bwv.exactalg import (
    ExactMatrix,
    RatFunc,
    RatFuncGrid,
    UniPoly,
    exact_det,
    exact_inverse,
)

M = ExactMatrix

# -- frozen reference values ------------------------------------------------
# Exact entries of the Betti (B, b) and de Rham (D, d) matrices for
# k = 2..5, independently derived and frozen.

BETTI_B = {
    2: M([[F(1, 80), 0], [0, F(-3, 64)]]),
    3: M([
        [F(15, 224), 0, F(3, 32)],
        [0, F(-5, 64), 0],
        [F(3, 32), 0, F(3, 16)],
    ]),
    4: M([
        [F(21, 16), 0, F(15, 16), 0],
        [0, F(-105, 128), 0, F(-105, 128)],
        [F(15, 16), 0, F(45, 64), 0],
        [0, F(-105, 128), 0, F(-75, 64)],
    ]),
    5: M([
        [F(23625, 352), 0, F(945, 32), 0, F(675, 32)],
        [0, F(-1701, 64), 0, F(-945, 64), 0],
        [F(945, 32), 0, F(105, 8), 0, F(315, 32)],
        [0, F(-945, 64), 0, F(-2205, 256), 0],
        [F(675, 32), 0, F(315, 32), 0, F(675, 64)],
    ]),
}

DERHAM_D = {
    2: M([[F(13, 8), F(225, 64)], [F(225, 64), 0]]),
    3: M([
        [F(51, 16), F(2589, 32), F(11025, 256)],
        [F(2589, 32), F(11025, 256), 0],
        [F(11025, 256), 0, 0],
    ]),
    4: M([
        [F(21, 4), F(60519, 64), F(1270215, 256), F(893025, 1024)],
        [F(60519, 64), F(106497, 128), F(893025, 1024), 0],
        [F(1270215, 256), F(893025, 1024), 0, 0],
        [F(893025, 1024), 0, 0, 0],
    ]),
    5: M([
        [F(125, 16), F(65679, 8), F(25484133, 128),
         F(322307685, 1024), F(108056025, 4096)],
        [F(65679, 8), F(2475315, 256), F(64674153, 1024),
         F(108056025, 4096), 0],
        [F(25484133, 128), F(64674153, 1024), F(108056025, 4096), 0, 0],
        [F(322307685, 1024), F(108056025, 4096), 0, 0, 0],
        [F(108056025, 4096), 0, 0, 0, 0],
    ]),
}

BETTI_b = {
    2: M([[0, F(1, 32)], [F(-1, 32), 0]]),
    3: M([
        [0, F(15, 64), 0],
        [F(-15, 64), 0, F(-15, 64)],
        [0, F(15, 64), 0],
    ]),
    4: M([
        [0, F(189, 32), 0, F(135, 32)],
        [F(-189, 32), 0, F(-105, 32), 0],
        [0, F(105, 32), 0, F(315, 128)],
        [F(-135, 32), 0, F(-315, 128), 0],
    ]),
    5: M([
        [0, F(23625, 64), 0, F(10395, 64), 0],
        [F(-23625, 64), 0, F(-8505, 64), 0, F(-4725, 64)],
        [0, F(8505, 64), 0, F(945, 16), 0],
        [F(-10395, 64), 0, F(-945, 16), 0, F(-2205, 64)],
        [0, F(4725, 64), 0, F(2205, 64), 0],
    ]),
}

DERHAM_d = {
    2: M([[0, -18], [18, 0]]),
    3: M([[0, -288, -576], [288, 0, 0], [576, 0, 0]]),
    4: M([
        [0, F(-11421, 4), -33807, -21600],
        [F(11421, 4), 0, -7200, 0],
        [33807, 7200, 0, 0],
        [21600, 0, 0, 0],
    ]),
    5: M([
        [0, -22608, -1059156, -3485808, -1036800],
        [22608, 0, -388800, -518400, 0],
        [1059156, 388800, 0, 0, 0],
        [3485808, 518400, 0, 0, 0],
        [1036800, 0, 0, 0, 0],
    ]),
}


# -- leading coefficient helpers --------------------------------------------


def test_top_coeff_matches_operator_and_sign():
    for m in range(1, 7):
        p = top_coeff(m)
        assert p.eval(F(1, 2)) != 0
        s = top_coeff_sign_on_01(m)
        assert s in (-1, 1)
        assert (p.eval(F(1, 2)) > 0) == (s == 1)
        # roots only at 0 and at squares: sign agrees at another sample
        assert (p.eval(F(3, 4)) > 0) == (s == 1)


# -- V and upsilon ----------------------------------------------------------


def test_V_symmetric_and_upsilon_skew():
    for k in range(1, 4):
        V = matV(k)
        assert V.rows == V.cols == 2 * k - 1
        assert V == V.T
        ups = matUpsilon(k)
        assert ups.rows == ups.cols == 2 * k
        # -upsilon^T, each stored value negated through its numerator
        neg_T = RatFuncGrid(
            [[RatFunc(UniPoly.of("u", [-c for c in e.num.coeffs]), e.den)
              for e in row] for row in ups.T.entries])
        assert ups == neg_T


def test_V_antidiagonal_and_triangularity():
    for k in range(1, 4):
        V = matV(k)
        m = 2 * k - 1
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                e = V.entries[a - 1][b - 1]
                if a + b == m + 1:
                    assert e == RatFunc.of("u", (-1) ** (a - 1))
                elif a + b > m + 1:
                    assert e == RatFunc.of("u", 0)


def test_upsilon_corner_vanishes():
    for k in range(1, 4):
        assert matUpsilon(k).entries[0][0] == RatFunc.of("u", 0)


def test_q_of_u_matrix_takes_no_arithmetic():
    # a RatFuncGrid has no arithmetic, so each operation fails by type, and
    # it never equals a matrix over Q
    V = matV(2)
    Q = M.identity(3)
    for op in (lambda: V @ V, lambda: V @ Q, lambda: Q @ V,
               lambda: exact_det(V), lambda: exact_inverse(V),
               lambda: -V, lambda: V.scale(2)):
        with pytest.raises((TypeError, AttributeError)):
            op()
    assert V != V.eval(F(1, 3)) and V.eval(F(1, 3)) != V


# -- Sigma and sigma --------------------------------------------------------


def test_sigma_small_oracles():
    assert matSigma(1) == M([[9]])
    assert matSigma(2).at(1, 1) == -25
    assert matsigma(1) == M([[0, -8], [8, 0]])


def test_sigma_symmetry_classes():
    for k in range(1, 5):
        S = matSigma(k)
        assert S == S.T
        s = matsigma(k)
        assert s == -s.T


def test_sigma_bernoulli_inverses():
    for k in range(1, 5):
        assert matSigmaInvBernoulli(k) == exact_inverse(matSigma(k))
        assert matsigmaInvBernoulli(k) == exact_inverse(matsigma(k))


def test_sigma_determinants_match_wronskian_constants():
    for k in range(1, 5):
        Lam = named_constant("LambdaOdd", k).rational
        lam = named_constant("lambdaEven", k).rational
        assert Lam**2 * exact_det(matSigma(k)) == 1
        assert lam**2 * exact_det(matsigma(k)) == 1


def test_wronskian_constants_small_values():
    assert named_constant("LambdaOdd", 1).rational == F(1, 3)
    assert named_constant("LambdaOdd", 2).rational == F(1, 20)
    assert named_constant("lambdaEven", 1).rational == F(1, 8)
    assert named_constant("lambdaEven", 2).rational == F(-1, 32)


# -- beta matrices ----------------------------------------------------------


def test_beta2_evaluated():
    u = F(1, 3)
    assert beta_matrix(2, u) == M([[1, 0], [0, F(2, 3)]])


def test_beta_determinant_magnitude():
    u = F(1, 2)
    for m in range(1, 8):
        d = exact_det(beta_matrix(m, u))
        expect = F(2) ** (m * (m - 1) // 2) * abs(u) ** (m * m // 4)
        assert abs(d) == expect


def test_beta_even_inverse_transpose_structure():
    # structure of (beta_{2k}(u)^T)^{-1}: a single geometric entry per row
    u = F(1, 2)
    for k in (2, 3):
        Binv = exact_inverse(beta_matrix(2 * k, u).T)
        for b in range(2, 2 * k + 1):
            assert Binv.at(1, b) == 0
        for a in range(1, k + 1):
            assert Binv.at(a, 2 * a - 1) == (F(-4) * u) ** (1 - a)
        for a in range(k + 1, 2 * k + 1):
            assert Binv.at(a, 2 * (a - k)) == (
                F(1, 2) / u * (F(-4) * u) ** (k + 1 - a)
            )


# -- frakS and the Betti matrices -------------------------------------------


def test_frakS_small_and_inverse_relation():
    assert frakS(1) == M([[48]])
    assert betti_B(1) == M([[F(1, 48)]])
    for k in range(1, 6):
        assert betti_B(k) == exact_inverse(frakS(k))


def test_betti_chessboard_zero_pattern():
    for k in range(2, 6):
        B = betti_B(k)
        b = betti_b(k)
        for a in range(1, k + 1):
            for bb in range(1, k + 1):
                if (a + bb) % 2 == 1:
                    assert B.at(a, bb) == 0
                else:
                    assert b.at(a, bb) == 0


def test_frakSring_entry_extended_domain():
    # a = -1 or b = -1 rows/columns vanish; antisymmetry inside the block
    for k in range(1, 4):
        for b in range(-1, k + 1):
            assert frakSring_entry(k, -1, b) == 0
            assert frakSring_entry(k, b, -1) == 0
        for a in range(0, k + 1):
            for b in range(0, k + 1):
                assert frakSring_entry(k, a, b) == -frakSring_entry(k, b, a)


def test_bring_from_betti_sandwich():
    for k in range(1, 5):
        B = betti_B(k)
        assert betti_Bring(k) == B @ frakSring(k) @ B


def test_betti_Bring_skew():
    for k in range(1, 5):
        assert betti_Bring(k) == -betti_Bring(k).T


# -- frozen Betti / de Rham reference values --------------------------------


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_betti_B_reference(k):
    assert betti_B(k) == BETTI_B[k]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_betti_b_reference(k):
    assert betti_b(k) == BETTI_b[k]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_derham_D_reference(k):
    assert derham_D(k) == DERHAM_D[k]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_derham_d_reference(k):
    assert derham_d(k) == DERHAM_d[k]


def test_derham_ring_matrices_small():
    assert derham_Dring(2) == ExactMatrix.zeros(2, 2)
    assert derham_dring(1) == M([[-2]])
    assert derham_Dring(3) == M([
        [0, F(3229, 32), 0],
        [F(-3229, 32), 0, 0],
        [0, 0, 0],
    ])
    assert derham_dring(2) == M([[F(-59, 8), -18], [-18, 0]])


def test_derham_D_antidiagonal_and_triangularity():
    from bwv.exactalg import binom_ext  # noqa: F401  (keep import local)

    def double_fact(n):
        out = 1
        while n > 1:
            out *= n
            n -= 2
        return out

    for k in range(2, 6):
        D = derham_D(k)
        anti = F(double_fact(2 * k + 1), 2 ** (k + 1)) ** 2
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                if a + b == k + 1:
                    assert D.at(a, b) == anti
                elif a + b > k + 1:
                    assert D.at(a, b) == 0
        assert D == D.T
        assert derham_d(k) == -derham_d(k).T


def test_betti_determinant_identities():
    for k in range(2, 6):
        Lam = named_constant("LambdaOdd", k).rational
        detB = exact_det(betti_B(k))
        sign = -1 if k % 2 == 0 else 1
        assert detB == sign * _fact(2 * k - 1) * Lam / F(2) ** (5 * k - 1)
    assert exact_det(betti_B(2)) == F(-3, 5120)
    for k in range(3, 6):
        Lam = named_constant("LambdaOdd", k).rational
        prod = exact_det(betti_B(k)) * exact_det(betti_B(k - 1))
        sign = -1 if k % 2 == 0 else 1
        assert prod == sign * (2 * k + 1) * F(4) ** (1 - 3 * k) * Lam**2


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def test_betti_b_odd_dimension_is_singular():
    for k in (3, 5):
        assert exact_det(betti_b(k)) == 0


# -- minors, block identities, alternatives ---------------------------------


def test_betti_minors():
    for k in range(1, 7):
        res = betti_minors(k)
        assert res["det_product_ok"], k
        assert res["det_even_formula_ok"], k
    res1 = betti_minors(1)
    assert res1["even"].rows == 0 and res1["det_even"] == 1


@pytest.mark.parametrize("k", [2, 3, 4])
def test_block_identities(k):
    res = verify_block_identities(k)
    failures = {key for key, val in res.items() if not val}
    assert not failures, failures


@pytest.mark.parametrize("k", [2, 3])
def test_derham_alternatives(k):
    res = derham_alternatives(k)
    assert all(res.values()), {key for key, val in res.items() if not val}


def _bump(monkeypatch, name, entry, only=()):
    """Patch ``brmatrices.<name>`` so that, on arguments that start with
    ``only``, it returns its matrix with the 1-based ``entry`` raised by 1."""
    real = getattr(brmatrices, name)
    i, j = entry

    def bumped(*args):
        M = real(*args)
        if args[:len(only)] != only:
            return M
        rows = [list(row) for row in M.entries]
        rows[i - 1][j - 1] += 1
        return ExactMatrix(rows)

    monkeypatch.setattr(brmatrices, name, bumped)


# (input, arguments it is bumped on, 1-based entry) and the flags that must
# catch it: each parity of the conjugation route reads its own order of
# the u -> 1 pairing limit, only the even one has a margin row, and both
# conjugate by Theta_w
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("bump, failing", [
    (lambda k: ("_pairing_limit", (2 * k, 1), (1, 1)), {"d-via-conjugation"}),
    (lambda k: ("_pairing_limit", (2 * k - 1, 1), (1, 1)),
     {"D-via-conjugation"}),
    (lambda k: ("_pairing_limit", (2 * k, 1), (2 * k, 1)),
     {"d-limit-margin-zero"}),
    (lambda k: ("_aux_Theta", (), (1, 1)),
     {"D-via-conjugation", "d-via-conjugation"}),
], ids=["d-core", "D-core", "d-margin", "Theta"])
def test_derham_alternatives_catch_a_bumped_limit(monkeypatch, k, bump,
                                                  failing):
    # the de Rham routes are cached: build them from the real limits
    # before the bump, so only the conjugation route reads it
    assert all(derham_alternatives(k).values())
    name, only, entry = bump(k)
    _bump(monkeypatch, name, entry, only)
    res = derham_alternatives(k)
    assert {key for key, v in res.items() if not v} == failing


BLOCK_IDENTITY_FLAGS = (
    "Sigma-block-diag", "R-sigma-block", "SigmaInv-block-diag",
    "sigmaInv-block-diag", "R-BernoulliInv-block", "Betti-inverse-of-frakS",
    "Bring-from-Sring", "frakS-recursion", "frakS-first-row",
    "frakSring-recursion", "frakSring-margins", "beta-inverse-margin")
DERHAM_ALTERNATIVE_FLAGS = (
    "D-via-conjugation", "D-via-u0-limit", "d-limit-margin-zero",
    "d-via-conjugation", "d-via-u0-limit")


def _flags(res):
    return {key: v for key, v in res.items() if key not in ("k", "ok")}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_verifier_flag_names(k):
    assert _flags(verify_block_identities(k)) == dict.fromkeys(
        BLOCK_IDENTITY_FLAGS, True)
    assert _flags(derham_alternatives(k)) == dict.fromkeys(
        DERHAM_ALTERNATIVE_FLAGS, True)


def test_verifiers_return_fresh_flag_dicts():
    for verifier in (verify_block_identities, derham_alternatives):
        res = verifier(3)
        assert "k" not in res and "ok" not in res
        assert all(type(v) is bool for v in res.values())
        res.clear()
        assert verifier(3), verifier.__name__


# each public name that only checks k and delegates, and the parity body
# that holds the one cache of what it returns
DELEGATES = {
    matV: brmatrices._vmat, matUpsilon: brmatrices._vmat,
    matSigma: brmatrices._sigma, matsigma: brmatrices._sigma,
    matSigmaInvBernoulli: brmatrices._sigma_inv,
    matsigmaInvBernoulli: brmatrices._sigma_inv,
    betti_B: brmatrices._betti, betti_b: brmatrices._betti,
    betti_Bring: brmatrices._betti_ring, betti_bring: brmatrices._betti_ring,
    derham_D: brmatrices._derham, derham_d: brmatrices._derham,
    derham_Dring: brmatrices._derham_ring_blocks,
    derham_dring: brmatrices._derham_ring_blocks,
}


@pytest.mark.parametrize("fn", DELEGATES, ids=lambda fn: fn.__name__)
def test_delegating_names_share_their_parity_body_cache(fn):
    assert not hasattr(fn, "cache_info")
    assert hasattr(DELEGATES[fn], "cache_info")
    assert fn(3) is fn(3)


# (input, 1-based entry to bump by 1) at k = 3, and the exact set of block
# identity flags that must then fail: each input is read by its own flags.
# A, Phi, R and psi are aux_matrix's names; _aux_Phi is Phi_w at the
# weights the Sigma^-1 and sigma^-1 conjugations read
@pytest.mark.parametrize("name, entry, failing", [
    ("matSigma", (1, 1), {"Sigma-block-diag"}),
    ("matsigma", (1, 1), {"R-sigma-block"}),
    ("frakS", (1, 1), {"Betti-inverse-of-frakS", "R-sigma-block",
                       "Sigma-block-diag", "frakS-first-row",
                       "frakS-recursion"}),
    ("frakSring", (1, 1), {"Bring-from-Sring", "R-sigma-block"}),
    ("_sigma_inv", (1, 1), {"R-BernoulliInv-block", "SigmaInv-block-diag",
                            "sigmaInv-block-diag"}),
    ("_beta_inverse_at_1", (6, 6), {"beta-inverse-margin"}),
    ("A", (2, 2), {"Sigma-block-diag", "SigmaInv-block-diag",
                   "sigmaInv-block-diag"}),
    ("Phi", (1, 1), {"Sigma-block-diag"}),
    ("R", (1, 2), {"R-sigma-block", "R-BernoulliInv-block"}),
    ("psi", (1, 1), {"sigmaInv-block-diag"}),
    ("_aux_Phi", (1, 1), {"SigmaInv-block-diag", "sigmaInv-block-diag"}),
    ("_betti", (1, 1), {"Betti-inverse-of-frakS", "Bring-from-Sring",
                        "R-BernoulliInv-block", "SigmaInv-block-diag",
                        "sigmaInv-block-diag"}),
    ("_betti_ring", (1, 1), {"Bring-from-Sring", "R-BernoulliInv-block"}),
], ids=lambda v: v if isinstance(v, str) else "")
def test_block_identities_catch_a_bumped_input(monkeypatch, name, entry,
                                               failing):
    # fill aux_matrix's cache first: its Phi reads _aux_Phi at call time
    assert all(verify_block_identities(3).values())
    if name in brmatrices._AUX:
        _bump(monkeypatch, "aux_matrix", entry, (name,))
    else:
        _bump(monkeypatch, name, entry)
    res = inspect.unwrap(verify_block_identities)(3)
    assert {key for key, v in _flags(res).items() if not v} == failing


@pytest.mark.parametrize("k", range(2, 9))
def test_block_conjugators_are_invertible(k):
    """A conjugation X^-1 Y X^-T = Z holds exactly when Y = X Z X^T, and
    sigma's R^-T sigma R^-1 = Z exactly when sigma = R^T Z R, provided the
    conjugator is invertible.  The block identities rely on this: A, Phi_w
    and Theta_w (w = 2k + 1, 2k + 2) are unit triangular and R, a scaled
    permutation, has det R = (-1)^k (2k + 2)/(2k + 1)."""
    def unit_triangular(X):
        n = range(1, X.rows + 1)
        return all(X.at(a, a) == 1 for a in n) and (
            all(X.at(a, b) == 0 for a in n for b in n if b > a)
            or all(X.at(a, b) == 0 for a in n for b in n if b < a))

    ws = (2 * k + 1, 2 * k + 2)
    assert unit_triangular(aux_matrix("A", k))
    assert all(unit_triangular(brmatrices._aux_Phi(k, w)) for w in ws)
    assert all(unit_triangular(brmatrices._aux_Theta(k, w)) for w in ws)
    assert aux_matrix("R", k).det() == F((-1) ** k * (2 * k + 2), 2 * k + 1)


# -- the de Rham pairing limits ---------------------------------------------


def _abs_lead_times_pairing_at(m, u):
    """|ell_{m,m}(u)| beta_m(u)^{-T} X_m(u) beta_m(u)^{-1} over Q at a
    point u of (0, 1), from the public matrices."""
    binv = exact_inverse(beta_matrix(m, u))
    X = matV((m + 1) // 2) if m % 2 else matUpsilon(m // 2)
    return (binv.T @ X.eval(u) @ binv).scale(abs(top_coeff(m).eval(u)))


def _lagrange_weights(nodes, t):
    """w_i with p(t) = sum_i w_i p(nodes[i]) for every polynomial p of
    degree < len(nodes)."""
    out = []
    for i, xi in enumerate(nodes):
        w = F(1)
        for j, xj in enumerate(nodes):
            if j != i:
                w *= F(t - xj) / (xi - xj)
        out.append(w)
    return out


def _combine(weights, mats):
    n = mats[0].rows
    return M([[sum(w * P[a, b] for w, P in zip(weights, mats))
               for b in range(n)] for a in range(n)])


# m <= 11 covers every order the default exact suite builds
@pytest.mark.parametrize("m", range(1, 12))
def test_pairing_limits_match_the_rational_function_product(m):
    # Each entry of the product is a polynomial in u of degree at most
    # D = 2m - 2 + max deg W_m: interpolate it over Q on D + 1 points of
    # (0, 1), check the interpolant at one more point, and read off its
    # values at u = 1 and u = 0.
    D = 2 * m - 2 + max(w.degree for row in brmatrices._wmat(m)
                        for w in row)
    nodes = [F(1, i) for i in range(2, D + 4)]
    mats = [_abs_lead_times_pairing_at(m, u) for u in nodes]
    fit, check = nodes[:-1], nodes[-1]
    assert _combine(_lagrange_weights(fit, check), mats[:-1]) == mats[-1]
    for u0 in (1, 0):
        assert brmatrices._pairing_limit(m, u0) == _combine(
            _lagrange_weights(fit, u0), mats[:-1])


def _u0_limit_by_full_products(m):
    """The u -> 0 limit of _pairing_limit(m, 0) from every full product
    P_q = B^T Z_q B over Q, q = 2..2m (entry (a, b) is s (P_d)_ab at
    d = r_a + r_b, and must read 0 in each P_q with q > d)."""
    B = brmatrices._beta_inverse_at_1(m)
    W = brmatrices._wmat(m)
    r = [m - beta.coeff_power(m, a, m)[1] for a in range(1, m + 1)]
    P = {q: B.T @ M.from_fn(m, m, lambda i, j: W[i - 1][j - 1].coeff(
        i + j - q)) @ B for q in range(2, 2 * m + 1)}
    s = top_coeff_sign_on_01(m)

    def entry(a, b):
        d = r[a - 1] + r[b - 1]
        assert all(P[q].at(a, b) == 0 for q in range(d + 1, 2 * m + 1))
        return s * P[d].at(a, b)

    return M.from_fn(m, m, entry)


# the orders that verify exact --max-k 8 reads at u = 0, past the
# rational-function reference above
@pytest.mark.parametrize("m", range(12, 17))
def test_u0_pairing_limit_matches_the_full_products(m):
    assert brmatrices._pairing_limit(m, 0) == _u0_limit_by_full_products(m)


# m <= 42 covers every order verify exact --max-k 20 reads
@pytest.mark.parametrize("m", [1, 2, 7, 12, 27, 41, 42])
def test_beta_at_one_is_a_row_permutation_of_a_triangle(m):
    # row a <= ceil(m/2) of beta_m(1) ends at column 2a - 1 and row
    # ceil(m/2) + l at column 2l, on +-2^j, so bwv.beta inverts it by
    # forward substitution over a power of two
    B = beta_matrix(m, 1)
    h = (m + 1) // 2
    for a in range(1, m + 1):
        c = 2 * a - 1 if a <= h else 2 * (a - h)
        assert all(B.at(a, b) == 0 for b in range(c + 1, m + 1))
        d = abs(B.at(a, c))
        assert d.denominator == 1 and d.numerator & (d.numerator - 1) == 0
    den = beta.inverse_at_1(m)[1]
    assert den > 0 and den & (den - 1) == 0
    assert brmatrices._beta_inverse_at_1(m) @ B == M.identity(m)
    assert B @ brmatrices._beta_inverse_at_1(m) == M.identity(m)


def test_beta_is_a_monomial_conjugate_of_beta_at_one():
    # beta_m(u) = R(u)^{-1} beta_m(1) C(u), R = diag(u^{r_a}), C = diag(u^b),
    # r_a = a for a <= ceil(m/2) and a - ceil(m/2) above.  Each entry of
    # beta_m(u) is a monomial c u^p, which its values at two points fix.
    def diag(m, u, power):
        return M.from_fn(m, m, lambda a, b: u ** power(a) if a == b else 0)

    for m in range(1, 17):
        h = (m + 1) // 2
        for u in (F(1, 2), F(3)):
            R_inv = diag(m, u, lambda a: -(a if a <= h else a - h))
            C = diag(m, u, lambda b: b)
            B = beta_matrix(m, u)
            assert B == R_inv @ beta_matrix(m, 1) @ C, (m, u)
            assert beta_matrix(m).eval(u) == B, (m, u)


@pytest.mark.parametrize("m", [4, 5])
def test_pairing_limit_rejects_a_surviving_negative_power(monkeypatch, m):
    W = brmatrices._wmat(m)
    assert brmatrices._pairing_limit.__wrapped__(m, 0) == (
        brmatrices._pairing_limit(m, 0))
    # a constant c in W_{m,m} adds c B_mi B_mj u^{r_i + r_j - 2m} to entry
    # (i, j), B = beta_m(1)^{-1}: a negative power wherever B_mi B_mj != 0
    bumped = [list(row) for row in W]
    w = W[m - 1][m - 1]
    bumped[m - 1][m - 1] = UniPoly.of("u", [w.coeff(0) + 1, *w.coeffs[1:]])
    monkeypatch.setattr(brmatrices, "_wmat", lambda n: bumped)
    with pytest.raises(AssertionError, match="negative power"):
        brmatrices._pairing_limit.__wrapped__(m, 0)


@pytest.mark.parametrize("m", [4, 5])
def test_pairing_limits_form_no_rational_function(monkeypatch, m):
    brmatrices._wmat(m)

    def refuse(self, *args):
        raise AssertionError("a rational function was formed")

    monkeypatch.setattr(RatFunc, "__init__", refuse)
    for u0 in (0, 1):
        brmatrices._pairing_limit.__wrapped__(m, u0)


# -- named constants, numerically -------------------------------------------


def test_det_formulas_numeric():
    mp = mpmath.mp.clone()
    mp.dps = 50
    tol = mpmath.mpf(10) ** (-35)
    for k in range(1, 5):
        # det M_k = prod_{j=1}^{k} (2j)^{k-j} pi^j / sqrt((2j+1)^(2j+1))
        direct = mp.mpf(1)
        for j in range(1, k + 1):
            direct *= mp.mpf(2 * j) ** (k - j) * mp.pi**j
            direct /= mp.sqrt(mp.mpf(2 * j + 1) ** (2 * j + 1))
        val = named_constant("detM_formula", k).value.to_mpf(mp)
        assert abs(val - direct) < tol * abs(direct)
        # det N_k = 2 pi^{(k+1)^2/2} / Gamma((k+1)/2)
        #           * prod_{j=1}^{k+1} (2j-1)^{k+1-j} / (2j)^j
        direct = 2 * mp.pi ** (mp.mpf((k + 1) ** 2) / 2) / mp.gamma(
            mp.mpf(k + 1) / 2
        )
        for j in range(1, k + 2):
            direct *= mp.mpf(2 * j - 1) ** (k + 1 - j)
            direct /= mp.mpf(2 * j) ** j
        val = named_constant("detN_formula", k).value.to_mpf(mp)
        assert abs(val - direct) < tol * abs(direct)


def test_named_constant_catalogue_and_errors():
    for name in NAMED_CONSTANTS:
        c = named_constant(name, 2)
        assert c.name == name and c.k == 2
    with pytest.raises(ValueError):
        named_constant("nonsense", 2)
    with pytest.raises(ValueError):
        named_constant("LambdaOdd", 0)


def test_surd_normalization_and_product():
    s = Surd.of(F(1, 2), 12)  # sqrt(12) = 2 sqrt(3)
    assert s == Surd(F(1), 3, 0)


# -- family dispatch and JSON -----------------------------------------------

EXPECTED_FAMILIES = {
    "V", "Upsilon", "Sigma", "sigma", "SigmaInvB", "sigmaInvB",
    "BettiB", "Bettib", "BettiBring", "Bettibring", "FrakS", "FrakSring",
    "DerhamD", "Derhamd", "DerhamDring", "Derhamdring", "Beta",
    "A", "Psi_small", "Rho", "Theta", "Phi", "theta_small", "phi_small",
    "R", "PsiCap",
}


def test_family_catalogue_complete():
    assert set(MATRIX_FAMILIES) == EXPECTED_FAMILIES


def test_family_dispatch_and_errors():
    """matrix_family builds every family by name and evaluates each Q(u)
    family (V, Upsilon, Beta) at a rational point; an unknown name, an
    evaluation point for a Q family and a pole raise ValueError."""
    assert matrix_family("BettiB", 2) == betti_B(2)
    assert matrix_family("Beta", 2, F(1, 3)) == beta_matrix(2, F(1, 3))
    assert matrix_family("V", 2, F(1, 3)) == matV(2).eval(F(1, 3))
    with pytest.raises(ValueError):
        matrix_family("nonsense", 2)
    with pytest.raises(ValueError):
        matrix_family("BettiB", 2, F(1, 2))
    with pytest.raises(ValueError, match="pole"):
        matrix_family("V", 2, 0)


def test_aux_matrix_shapes():
    for k in (2, 3):
        assert aux_matrix("rho", k).rows == 2 * k - 1
        assert aux_matrix("rho", k).cols == 2 * k
        assert aux_matrix("psi", k).rows == 2 * k
        assert aux_matrix("psi", k).cols == 2 * k - 1
        # psi has orthonormal unit-vector columns (e_{k+1} is skipped)
        psi = aux_matrix("psi", k)
        assert psi.T @ psi == ExactMatrix.identity(2 * k - 1)
        square = psi @ psi.T
        for a in range(1, 2 * k + 1):
            assert square.at(a, a) == (0 if a == k + 1 else 1)


def test_json_roundtrip_rational():
    name, k = "BettiB", 3
    d = matrix_to_json(name, k, betti_B(k))
    assert d["ring"] == "Q"
    n2, k2, M2 = matrix_from_json(d)
    assert (n2, k2, M2) == (name, k, betti_B(k))


def test_json_roundtrip_function_field():
    name, k = "Beta", 3
    B = beta_matrix(k)
    d = matrix_to_json(name, k, B)
    n2, k2, M2 = matrix_from_json(d)
    assert (n2, k2, M2) == (name, k, B)
    V = matV(2)
    d = matrix_to_json("V", 2, V)
    assert matrix_from_json(d)[2] == V
