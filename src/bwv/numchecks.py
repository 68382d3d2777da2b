"""The numeric checks: the quadratic relations, the determinant closed
forms, the off-shell Wronskian identities, the reflection formulae and
the sum rules, each a function of the precision that returns its max-abs
residual.  ``harness.run_numeric_suite`` runs them at guarded precision.

They live apart from ``bwv.harness`` so that the exact suite, the report
types and the exact commands load no numeric layer: this module imports
``besselnum`` and mpmath at its top, and the harness imports it only when
a numeric suite runs.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp

from . import besselnum
from .besselnum import (
    _to_mpf,
    bologna,
    family_moments,
    matM,
    matOmega,
    moment_value,
)
from .brmatrices import (
    _double_factorial,
    aux_matrix,
    beta_matrix,
    matSigma,
    matSigmaInvBernoulli,
    matV,
    named_constant,
    top_coeff,
)
from .exactalg import ExactMatrix, exact_inverse
from .harness import _FAMILIES

F = Fraction


def _to_mpf_matrix(E: ExactMatrix):
    """The exact matrix E as an mpf matrix, entry by entry."""
    out = mp.matrix(E.rows, E.cols)
    for i in range(E.rows):
        for j in range(E.cols):
            out[i, j] = _to_mpf(Fraction(E[i, j]))
    return out


def _max_abs(M):
    """The largest |entry| of an mpmath matrix."""
    return max(abs(x) for x in M)


def _moment_matrix(name: str, k: int, digits: int):
    """The ``besselnum`` moment matrix builder ``name`` at k."""
    return getattr(besselnum, name)(k, digits)


def _det_check(p: int, k: int, digits: int):
    # det of the normalized matrix: the closed form times
    # pi^{-k(k+1+p)/2} (normalization: the sum of the row weights
    # a - k - 1 - p/2) times (-1)^{k(k-1)/2} (column signs).
    fam = _FAMILIES[p]
    c = named_constant(fam.det_name, k).value.to_mpf(mp)
    expect = c * mp.pi ** _to_mpf(F(-k * (k + 1 + p), 2))
    expect *= (-1) ** ((k * (k - 1) // 2) % 2)
    return abs(mpmath.det(_moment_matrix(fam.mat, k, digits)) - expect)


def _quad_check(p: int, k: int, digits: int):
    fam = _FAMILIES[p]
    P = _moment_matrix(fam.mat, k, digits)
    R = (P * _to_mpf_matrix(fam.derham(k)) * P.T
         - _to_mpf_matrix(fam.betti(k)))
    return _max_abs(R)


def _ringed_quad_check(p: int, k: int, digits: int):
    fam = _FAMILIES[p]
    P = _moment_matrix(fam.mat, k, digits)
    Pr = _moment_matrix(fam.mat_ring, k, digits)
    D = _to_mpf_matrix(fam.derham(k))
    R = (P * _to_mpf_matrix(fam.derham_ring(k)) * P.T
         - mp.pi * _to_mpf_matrix(fam.betti_ring(k))
         - Pr * D * P.T + P * D * Pr.T)
    return _max_abs(R)


def _offshell(u: Fraction, digits: int):
    """|m_3(u)| = |ell_3(u)| as an mpf, and Omega_3(u) for the k=2 odd
    family: what the three off-shell checks read."""
    m3 = abs(top_coeff(3).eval(u))
    return _to_mpf(m3), matOmega(2, u, digits)


def _offshell_cov_check(u: Fraction, digits: int):
    # Omega Sigma Omega^T = V(u)^{-1} / |m_3(u)|.
    m3, O = _offshell(u, digits)
    Vinv = _to_mpf_matrix(exact_inverse(matV(2).eval(u)))
    R = O * _to_mpf_matrix(matSigma(2)) * O.T - Vinv / m3
    return _max_abs(R)


def _offshell_inv_check(u: Fraction, digits: int):
    # Transposed form: Omega^T V(u) Omega = Sigma^{-1} / |m_3(u)|.
    m3, O = _offshell(u, digits)
    Sinv = _to_mpf_matrix(matSigmaInvBernoulli(2))
    R = O.T * _to_mpf_matrix(matV(2).eval(u)) * O - Sinv / m3
    return _max_abs(R)


def _offshell_det_check(u: Fraction, digits: int):
    # det Omega_3(u) * |m_3(u)|^{3/2} = Lambda_3 = 1/20.
    m3, O = _offshell(u, digits)
    lam = _to_mpf(named_constant("LambdaOdd", 2).rational)
    return abs(mpmath.det(O) * m3 ** mp.mpf("1.5") - lam)


def _reflection_check(k: int, digits: int):
    """Reflection formula between the even- and odd-index minor
    determinants of the threshold matrix, including the surd prefactor
    and its sign."""
    # (first column, size): the even minor takes the columns j = 2, 4, ...,
    # the odd one j = 1, 3, ..., each the rows ell = 1..size, signed
    # (-1)^(ell-1)
    minors = ((2, k // 2), (1, (k + 1) // 2))
    cells = [(0, False, k, first + 2 * a, ell) for first, n in minors
             for a in range(n) for ell in range(1, n + 1)]
    mu = dict(zip(cells, family_moments(cells, 1, digits)))

    def signed_det(first, n):
        if n == 0:
            return mp.mpf(1)
        return mpmath.det(mpmath.matrix(
            [[(-1) ** (ell - 1) * mu[0, False, k, first + 2 * a, ell]
              for ell in range(1, n + 1)] for a in range(n)]))

    det_e, det_o = (signed_det(first, n) for first, n in minors)
    sign = (-1) ** (((k + 1) // 4 + (k // 2) // 2) % 2)
    dfo = _double_factorial(2 * k + 1)
    surd = mp.sqrt(mp.mpf(dfo) ** (2 - (-1) ** k))
    denom = (2 ** (k // 2) * _double_factorial(k - 1)
             * _double_factorial(k) ** (1 - (-1) ** k))
    return abs(det_e - sign * surd / denom * det_o)


def _signed_nu(k: int, lj, digits: int) -> dict:
    """{(ell, j): (-1)^(ell-1) nu^ell_{k,j}(1)} for the (ell, j) in lj, one
    batch."""
    vals = family_moments([(1, False, k, j, ell) for ell, j in lj], 1, digits)
    return {(ell, j): (-1) ** (ell - 1) * v for (ell, j), v in zip(lj, vals)}


def _sumrule_N3_linear_check(digits: int):
    s = _signed_nu(3, [(l, j) for l in (1, 2, 3) for j in (1, 3)], digits)
    r1 = abs(s[(1, 1)] - s[(1, 3)])
    r2 = abs((s[(2, 1)] + 2 * s[(3, 1)]) - (s[(2, 3)] + 2 * s[(3, 3)]))
    return max(r1, r2)


def _sumrule_N3_det_check(digits: int):
    s = _signed_nu(3, [(l, j) for l in (1, 2, 3) for j in (2, 3)], digits)
    det = (s[(1, 2)] * (s[(2, 3)] + 2 * s[(3, 3)])
           - (s[(2, 2)] + 2 * s[(3, 2)]) * s[(1, 3)])
    return abs(det - _to_mpf(F(5, 6144)))


def _sumrule_N5_check(digits: int):
    # Linear sum rules for the k=5 threshold matrix, in signed-entry
    # convention: c_l := 3 s_{1,l} - 10 s_{3,l} + 3 s_{5,l} with
    # s_{j,l} = (-1)^{l-1} nu^l_{5,j}(1).
    ells = range(1, 6)
    s = _signed_nu(5, [(l, j) for l in ells for j in (1, 3, 5)], digits)
    c = {l: 3 * s[(l, 1)] - 10 * s[(l, 3)] + 3 * s[(l, 5)] for l in ells}
    sq = mp.sqrt(mp.pi)
    return max(
        abs(c[1]),
        abs(c[2]),
        abs(c[3] - sq / 2 ** 8),
        abs(c[4] + 3 * sq / 2 ** 10),
        abs(c[5] - 3 * sq / 2 ** 9),
    )


def _bessel7_check(digits: int):
    # The 7-Bessel minor-determinant relation with its exact surd
    # prefactor -(1/4) sqrt(5^3 7^3 / 3): mu^1_{3,2} against the minor on
    # the columns j = 1, 3 and the rows ell = 1, 2.
    lhs, m11, m32, m12, m31 = family_moments(
        [(0, False, 3, j, l) for j, l in ((2, 1), (1, 1), (3, 2), (1, 2),
                                         (3, 1))], 1, digits)
    # Signed entries (-1)^{b-1}: the b=2 column flips, so the signed
    # determinant is minus the unsigned one.
    det = -(m11 * m32 - m12 * m31)
    pref = -mp.mpf("0.25") * mp.sqrt(mp.mpf(5 ** 3) * 7 ** 3 / 3)
    return abs(lhs - pref * det)


def _bologna_check(digits: int):
    Mk = matM(2, digits)
    C = bologna(digits)
    vals = (
        abs(Mk[0, 0] - C),
        abs(Mk[1, 0] - mp.sqrt(15) / 2 * C),
        abs(Mk[0, 1] + _to_mpf(F(4, 225)) * (13 * C - 1 / (10 * C))),
        abs(Mk[1, 1]
            + mp.sqrt(15) / 2 * _to_mpf(F(4, 225)) * (13 * C + 1 / (10 * C))),
    )
    return max(vals)


def _classical_check(digits: int):
    v = moment_value("IKM", 1, 2, 1, None, digits)
    return abs(v - mp.pi / (3 * mp.sqrt(3)))


def _blocktridiag_check(digits: int):
    # beta_3(1) Omega_3(1) A_3 block structure for k=2: the top-left
    # block is the transposed threshold matrix, the top-right block
    # vanishes, the bottom-right block is minus the k=1 matrix, and the
    # bottom-left row matches the differentiated-moment closed form.
    one = Fraction(1)
    B = _to_mpf_matrix(beta_matrix(3, 1))
    A = _to_mpf_matrix(aux_matrix("A", 2))
    L = B @ matOmega(2, one, digits) @ A
    M2 = matM(2, digits)
    M1 = matM(1, digits)
    res = [abs(L[i, j] - M2[j, i]) for i in range(2) for j in range(2)]
    res += [abs(L[i, 2]) for i in range(2)]
    res.append(abs(L[2, 2] + M1[0, 0]))
    mu211, mu221, mu111 = family_moments(
        [(0, False, 2, 1, 1), (0, False, 2, 2, 1), (0, False, 1, 1, 1)],
        one, digits)
    mp11 = -_to_mpf(F(2, 5)) * mu211
    mp21 = -(_to_mpf(F(2, 5)) * mu221 - _to_mpf(F(3, 5)) * mu111)
    res.append(abs(L[2, 0] - mp11))
    res.append(abs(L[2, 1] - mp21))
    return max(res)


def _ibp_check(k: int, digits: int):
    """Integration-by-parts relations among the odd-family entries at
    u = 1, with m = 2k+1:

    * mu'_{k,1} = -(2 ell / m) mu_{k,1};
    * mu'_{k,j} = (1 - j/m) mu_{k-1,j-1} - (2 ell / m) mu_{k,j}
      for j in [2,k], ell in [1,k-1].
    """
    if k < 2:
        raise ValueError("the integration-by-parts check requires k >= 2")
    m = 2 * k + 1
    cells = [(0, acute, k, j, ell) for ell in range(1, k)
             for j in range(1, k + 1) for acute in (True, False)]
    cells += [(0, False, k - 1, j - 1, ell) for ell in range(1, k)
              for j in range(2, k + 1)]
    mu = dict(zip(cells, family_moments(cells, 1, digits)))
    res = []
    for ell in range(1, k):
        for j in range(1, k + 1):
            drift = mp.mpf(2 * ell) / m * mu[0, False, k, j, ell]
            rhs = -drift if j == 1 else (
                (1 - mp.mpf(j) / m) * mu[0, False, k - 1, j - 1, ell] - drift)
            res.append(abs(mu[0, True, k, j, ell] - rhs))
    return max(res)
