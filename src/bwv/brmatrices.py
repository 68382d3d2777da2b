"""Exact matrix families for the Bessel-moment quadratic relations.

All matrices follow 1-based index conventions.  Every matrix this module
computes with is over Q: integer rows over one common denominator
(``ExactMatrix``), read as Fraction entries.  The public Q(u)
matrices (``matV``, ``matUpsilon``, the symbolic ``beta_matrix``) and
Q(u) matrices read back from JSON are ``RatFuncGrid`` values, grids of
RatFunc entries in the variable ``u`` that are only stored, evaluated
at a point, compared and printed: the de Rham limits are formed over Q
and Z from the polynomial numerators of V and upsilon (``_wmat``) and
from beta_m(1)^{-1}.  Every
constructor is pure, and each exact object is cached once, by the
function that builds it; ``beta_matrix`` at a point evaluates the cached
symbolic one.  ``matrix_family`` is not memoized, and the two verifiers
(``verify_block_identities``, ``derham_alternatives``) build a fresh
dict of named flags on every call.

Naming overview (sizes in parentheses):

* ``matV(k)``, ``matUpsilon(k)``: the de Rham intersection matrices
  V_{2k-1}(u) ((2k-1)^2, symmetric) and upsilon_{2k}(u) ((2k)^2, skew).
* ``matSigma(k)``, ``matsigma(k)``: the Betti intersection matrices
  Sigma_{2k-1} ((2k-1)^2, symmetric) and sigma_{2k} ((2k)^2, skew).
* ``matSigmaInvBernoulli(k)``, ``matsigmaInvBernoulli(k)``: closed-form
  inverses of Sigma_{2k-1} and sigma_{2k} with Bernoulli-number entries.
* ``betti_B(k)`` / ``betti_b(k)`` / ``betti_Bring(k)`` /
  ``betti_bring(k)``: the Bernoulli matrices B_k, b_k and their ringed
  companions (all k x k).
* ``frakS(k)`` / ``frakSring(k)``: the S_k and ringed-S_k matrices that
  appear in the block diagonalization of Sigma and sigma.
* ``beta_matrix(m, u)``: the Wronskian change-of-basis matrix
  beta_m(u) (m x m); ``u=None`` gives the symbolic Q(u) matrix
  (``_beta_symbolic``), a rational u its value there.  Its closed form,
  and beta_m(1)^{-1} by forward substitution in integers over a power
  of two, are ``bwv.beta``'s, which the exact suite and the numeric layer
  read, so the exact suite forms no rational function;
  ``_beta_inverse_at_1`` caches the inverse as an ``ExactMatrix``.
* ``aux_matrix(name, k)``: bookkeeping matrices A, psi, rho, Theta,
  Phi, theta, phi, R, Psi.
* ``derham_D(k)`` / ``derham_d(k)``: the de Rham matrices D_k and d_k
  (k x k) obtained from V / upsilon through beta.  Each de Rham limit
  is read off the polynomial numerators W = ell_{m,m} V or
  ell_{m,m} upsilon through beta_m(1) by products over Q: of W(1) at
  u = 1, and of the coefficient matrices of W grouped by shifted degree
  at u = 0.
* ``derham_alternatives(k)``, ``verify_block_identities(k)``: D and d
  along independent routes, and the block diagonalizations of Sigma,
  sigma and their inverses.  Each conjugation X^{-1} Y X^{-T} = Z is
  checked as Y = X Z X^T, the same statement because every conjugator is
  invertible (A, Phi_w and Theta_w are unit triangular and R is a scaled
  permutation), so this module inverts no matrix.

Parity convention: the odd family (Sigma, B, D, V_{2k+1}) is p = 0 and
the even family (sigma, b, d, upsilon_{2k+2}) is p = 1, at weight
w = 2k + 1 + p.  Sigma and sigma (``_sigma``), their closed-form
inverses (``_sigma_inv``), the Betti builders (``_betti``,
``_betti_ring``), the Wronskian constants Lambda and lambda
(``_lambda``) and the de Rham routes (``_derham``,
``_derham_ring_blocks``) take p and k.  The public Sigma/sigma, D/d,
B/b and ``mat*InvBernoulli`` names, like ``matV`` and ``matUpsilon``
around ``_vmat``, only check k and delegate: the cache is the parity
body's, not theirs.  S and ringed-S share one entry body
(``_frak_entry``, keyed by ring = 0 or 1), and Sigma, sigma, S and
ringed-S one alternating binomial sum (``_alt_sum``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm, prod
from operator import mul
from typing import Callable, Dict, NamedTuple, Tuple

from .beta import coeff_power, inverse_at_1, row_powers
from .exactalg import (
    ExactMatrix,
    RatFunc,
    RatFuncGrid,
    UniPoly,
    bernoulli,
    binom_ext,
    recip_fact_ext,
)
from .vanhove import leading_coeff_product, vanhove_operator

__all__ = [
    "MATRIX_FAMILIES",
    "NAMED_CONSTANTS",
    "NamedConstant",
    "Surd",
    "aux_matrix",
    "beta_matrix",
    "betti_B",
    "betti_Bring",
    "betti_b",
    "betti_bring",
    "betti_minors",
    "derham_D",
    "derham_Dring",
    "derham_alternatives",
    "derham_d",
    "derham_dring",
    "frakS",
    "frakSring",
    "frakSring_entry",
    "matSigma",
    "matSigmaInvBernoulli",
    "matUpsilon",
    "matV",
    "matrix_family",
    "matrix_from_json",
    "matrix_to_json",
    "matsigma",
    "matsigmaInvBernoulli",
    "named_constant",
    "top_coeff",
    "top_coeff_sign_on_01",
    "verify_block_identities",
]


def _msign(n: int) -> int:
    """(-1)^n for any integer n (Python's ** returns float for n < 0)."""
    return -1 if n % 2 else 1


def _even_gate(n: int) -> int:
    """1 + (-1)^n for any integer n: 2 when n is even, 0 when odd."""
    return 2 if n % 2 == 0 else 0


# ---------------------------------------------------------------------------
# Leading coefficients and their signs
# ---------------------------------------------------------------------------


@cache
def top_coeff(m: int) -> UniPoly:
    """The leading coefficient ell_{m,m}(u) of the order-m operator,
    asserted (not assumed) equal to its closed product form
    u^{floor((m+1)/2)} * prod_{1<=n<=m+1, n=m+1 mod 2} (u - n^2)
    (``vanhove.leading_coeff_product``)."""
    ell = vanhove_operator(m).leading
    if ell != leading_coeff_product(m):
        raise AssertionError(f"leading coefficient of order {m} operator "
                             "does not match its product form")
    return ell


def top_coeff_sign_on_01(m: int) -> int:
    """Sign of ell_{m,m}(u) on the open interval (0, 1).

    The roots of ell_{m,m} are 0 and perfect squares >= 1, so the sign is
    constant on (0, 1) and a single interior sample determines it.
    """
    v = top_coeff(m).eval(Fraction(1, 2))
    if v == 0:
        raise AssertionError("unexpected root of leading coefficient in (0,1)")
    return 1 if v > 0 else -1


# ---------------------------------------------------------------------------
# V and upsilon
# ---------------------------------------------------------------------------


@cache
def _wmat(m: int) -> tuple[tuple[UniPoly, ...], ...]:
    """W_m(u) = ell_{m,m}(u) X_m(u), with X_m = V_m for odd m and
    upsilon_m for even m, as rows of polynomials in u: polynomials in the
    coefficients ell_{m,n} of Vanhove's operator; the entry signs carry
    m's parity."""
    op = vanhove_operator(m)

    @cache
    def dell(n: int, order: int) -> tuple[int, ...]:
        # ell_{m,n} has integer coefficients (vanhove_operator asserts it)
        return op.ell(n).deriv(order).nums

    def entry(a: int, b: int) -> UniPoly:
        num: list[int] = []
        for n in range(a + b - 1, m + 1):
            c = _msign(a + n + m + 1) * comb(n - a, b - 1)
            d = dell(n, n - a - b + 1)
            num.extend([0] * (len(d) - len(num)))
            for i, x in enumerate(d):
                num[i] += c * x
        return UniPoly._make("u", num)

    return tuple(tuple(entry(a, b) for b in range(1, m + 1))
                 for a in range(1, m + 1))


@cache
def _vmat(m: int) -> RatFuncGrid:
    """V_m(u) for odd m, upsilon_m(u) for even m: W_m / ell_{m,m}."""
    lead = top_coeff(m)
    return RatFuncGrid([[RatFunc(w, lead) for w in row] for row in _wmat(m)])


def matV(k: int) -> RatFuncGrid:
    """V_{2k-1}(u): symmetric (2k-1) x (2k-1) matrix over Q(u)."""
    if k < 1:
        raise ValueError("matV requires k >= 1")
    return _vmat(2 * k - 1)


def matUpsilon(k: int) -> RatFuncGrid:
    """upsilon_{2k}(u): skew-symmetric 2k x 2k matrix over Q(u)."""
    if k < 1:
        raise ValueError("matUpsilon requires k >= 1")
    return _vmat(2 * k)


# ---------------------------------------------------------------------------
# Sigma and sigma
# ---------------------------------------------------------------------------


def _alt_sum(n: int, k: int, c: int, j: int, sign: int = 0) -> int:
    """sum_{s=1}^{n-k} (-1)^s C(n, k+s) (C(c-s, j) + sign C(k+s, j)): the
    alternating binomial sum in the entries of Sigma, sigma, S and
    ringed-S."""
    if j < 0:
        # C(., j) = 0; ringed-S is read at j = -1 (the extended range)
        return 0
    return sum(_msign(s) * comb(n, k + s)
               * (comb(c - s, j) + sign * comb(k + s, j))
               for s in range(1, n - k + 1))


@cache
def _sigma(p: int, k: int) -> ExactMatrix:
    """Sigma_{2k-1} (p = 0, symmetric) or sigma_{2k} (p = 1, skew) at
    weight w = 2k + 1 + p: the closed form in blocks split at h = k + p.
    The lower-left block is (-1)^p times the upper-right one reflected;
    the lower-right block is zero for p = 1."""
    w, h = 2 * k + 1 + p, k + p
    top = 2 ** (2 * k - 1 + p)

    def upper(a: int, b: int) -> Fraction:
        # row a <= h: the top-left block, or the top-right one at b' = b - h
        if b <= h:
            if (a + b + p) % 2:
                return Fraction(0)
            pref = (1 + (w - 1) * (a == 1)) * (1 + (w - 1) * (b == 1))
            ssum = _alt_sum(w - a, k, k + p, b - 1)
            sign = _msign(a // 2 + (b - p) // 2 + k + p)
        else:
            b -= h
            if (a + b + p) % 2 == 0:
                return Fraction(0)
            pref = 1 + 2 * k * (a == 1) * (1 - p)
            ssum = _alt_sum(w - a, k, k + p, b + 1, _msign(b))
            sign = _msign((a - 1) // 2 + (b + 1) // 2 + k + (1 - p) * (a - 1))
        return Fraction(sign * pref * top * ssum,
                        factorial(a - 1) * factorial(w - a))

    def entry(a: int, b: int) -> Fraction:
        if a <= h:
            return upper(a, b)
        if b <= h:
            return _msign(p) * upper(b, a)
        a, b = a - h, b - h
        if p or a % 2 or b % 2:
            return Fraction(0)
        return Fraction(-(-4) ** k * _msign(a // 2 + b // 2)
                        * comb(k, a + 1) * comb(k, b + 1), factorial(k) ** 2)

    return ExactMatrix.from_fn(2 * k - 1 + p, 2 * k - 1 + p, entry)


def matSigma(k: int) -> ExactMatrix:
    """Sigma_{2k-1}: symmetric (2k-1) x (2k-1) matrix over Q assembled
    from its four closed-form blocks (sizes k and k-1)."""
    if k < 1:
        raise ValueError("matSigma requires k >= 1")
    return _sigma(0, k)


def matsigma(k: int) -> ExactMatrix:
    """sigma_{2k}: skew-symmetric 2k x 2k matrix over Q assembled from
    its closed-form blocks (sizes k+1 and k-1; lower-right block is 0)."""
    if k < 1:
        raise ValueError("matsigma requires k >= 1")
    return _sigma(1, k)


# ---------------------------------------------------------------------------
# Closed-form inverses of Sigma and sigma (Bernoulli entries)
# ---------------------------------------------------------------------------


@cache
def _sigma_inv(p: int, k: int) -> ExactMatrix:
    """Sigma_{2k-1}^{-1} (p = 0) or sigma_{2k}^{-1} (p = 1) at weight
    w = 2k + 1 + p: the closed form with Bernoulli-number entries, in
    blocks split at h = k + p."""
    w, h = 2 * k + 1 + p, k + p
    top = Fraction(2 ** (2 - p), 4 ** k)

    def entry(a: int, b: int) -> Fraction:
        lo, hi = min(a, b), max(a, b)
        if hi <= h:
            idx = w + 1 - a - b
            pref = top * (lo == 1) * Fraction(factorial(w - 1), w)
            sign = _msign(k + 1 + p * (a - 1) + (w - a - b) // 2)
            return pref * bernoulli(idx) * sign
        if lo <= h:
            idx = 3 * k + 1 + 2 * p - a - b
            pref = top * (1 + Fraction((lo == 1) * (h - a - b), w))
            frac = Fraction(
                factorial(3 * k - 1 + 2 * p - hi) * factorial(w - lo),
                factorial(idx))
            sign = _msign(hi + 1 + (idx - 1) // 2 + p * (a > b))
            return pref * frac * bernoulli(idx) * sign
        idx = 4 * k + 3 * p - a - b
        frac = Fraction(
            factorial(3 * k - 1 + 2 * p - a) * factorial(3 * k - 1 + 2 * p - b),
            factorial(idx))
        sign = _msign(a + 1 - p + (idx - 1) // 2)
        return top * (idx - 1) * frac * bernoulli(idx) * sign

    return ExactMatrix.from_fn(2 * k - 1 + p, 2 * k - 1 + p, entry)


def matSigmaInvBernoulli(k: int) -> ExactMatrix:
    """Closed form of (Sigma_{2k-1})^{-1} with Bernoulli-number entries."""
    if k < 1:
        raise ValueError("matSigmaInvBernoulli requires k >= 1")
    return _sigma_inv(0, k)


def matsigmaInvBernoulli(k: int) -> ExactMatrix:
    """Closed form of (sigma_{2k})^{-1} with Bernoulli-number entries."""
    if k < 1:
        raise ValueError("matsigmaInvBernoulli requires k >= 1")
    return _sigma_inv(1, k)


# ---------------------------------------------------------------------------
# Bernoulli matrices B, b and their ringed companions
# ---------------------------------------------------------------------------


@cache
def _betti(p: int, k: int) -> ExactMatrix:
    """B_k (p = 0) or b_k (p = 1) at weight w = 2k + 1 + p."""
    w = 2 * k + 1 + p

    def entry(a: int, b: int) -> Fraction:
        pref = Fraction((-1) ** (a + 1), 2 ** (w + 1))
        frac = Fraction(factorial(w - a) * factorial(w - b),
                        factorial(w + 1 - a - b))
        return pref * frac * bernoulli(w + 1 - a - b) * _msign((w - a - b) // 2)

    return ExactMatrix.from_fn(k, k, entry)


@cache
def _betti_ring(p: int, k: int) -> ExactMatrix:
    """Ringed B_k (p = 0) or ringed b_k (p = 1) at weight w = 2k + 1 + p;
    the even (1, 1) corner carries an extra factor 1 + 1/w."""
    w = 2 * k + 1 + p

    def entry(a: int, b: int) -> Fraction:
        lo, hi = min(a, b), max(a, b)
        if lo == 1:
            pref = Fraction(factorial(w - 1), 2 ** (w + 1))
            extra = 1 + Fraction(p * (a == 1) * (b == 1), w)
            return (pref * bernoulli(w + 1 - hi) * extra
                    * _msign(a + (w - hi) // 2))
        pref = Fraction(w + 1 - a - b, 2 ** (w + 1))
        frac = Fraction(factorial(w - a) * factorial(w - b),
                        factorial(w + 2 - a - b))
        return (pref * frac * bernoulli(w + 2 - a - b)
                * _msign(a + (w + 1 - a - b) // 2))

    return ExactMatrix.from_fn(k, k, entry)


def betti_B(k: int) -> ExactMatrix:
    """B_k (k x k, symmetric): Bernoulli-number matrix for odd weight."""
    if k < 1:
        raise ValueError("betti_B requires k >= 1")
    return _betti(0, k)


def betti_b(k: int) -> ExactMatrix:
    """b_k (k x k, skew-symmetric): Bernoulli-number matrix for even weight."""
    if k < 1:
        raise ValueError("betti_b requires k >= 1")
    return _betti(1, k)


def betti_Bring(k: int) -> ExactMatrix:
    """Ringed companion of B_k (k x k)."""
    if k < 1:
        raise ValueError("betti_Bring requires k >= 1")
    return _betti_ring(0, k)


def betti_bring(k: int) -> ExactMatrix:
    """Ringed companion of b_k (k x k)."""
    if k < 1:
        raise ValueError("betti_bring requires k >= 1")
    return _betti_ring(1, k)


# ---------------------------------------------------------------------------
# frak S and ringed frak S
# ---------------------------------------------------------------------------


def _frak_entry(ring: int, k: int, a: int, b: int) -> Fraction:
    """Entry (a, b) of S_k (ring = 0) or ringed-S_k (ring = 1), for
    a, b >= -1; the 1/a! factor makes row a = -1 vanish."""
    if (a + b + ring) % 2 or a < 0:
        # return before the sum can reach binomials with negative upper
        # index (undefined by convention)
        return Fraction(0)
    ssum = _alt_sum(2 * k + 1 - a, k, k + 1, b, (ring - 1) * _msign(b))
    sign = _msign((a + ring) // 2 + b // 2 - 1)
    return (Fraction(sign * 2 ** (2 * k + 3) * ssum)
            * recip_fact_ext(a) * recip_fact_ext(2 * k + 1 - a))


def frakSring_entry(k: int, a: int, b: int) -> Fraction:
    """Entry (a, b) of ringed-S_k extended to a, b >= -1 (the recursion
    and margin identities quantify over this extended range)."""
    return _frak_entry(1, k, a, b)


@cache
def frakS(k: int) -> ExactMatrix:
    """S_k (k x k): up to block scaling, the inverse Betti intersection
    matrix; satisfies S_k = (B_k)^{-1} up to the stated normalization."""
    if k < 1:
        raise ValueError("frakS requires k >= 1")
    return ExactMatrix.from_fn(k, k, lambda a, b: _frak_entry(0, k, a, b))


@cache
def frakSring(k: int) -> ExactMatrix:
    """Ringed-S_k (k x k)."""
    if k < 1:
        raise ValueError("frakSring requires k >= 1")
    return ExactMatrix.from_fn(k, k, lambda a, b: _frak_entry(1, k, a, b))


# ---------------------------------------------------------------------------
# beta matrices
# ---------------------------------------------------------------------------


@cache
def _beta_symbolic(m: int) -> RatFuncGrid:
    def entry(a: int, b: int) -> RatFunc:
        # a zero coefficient gives the zero polynomial at any power
        coef, power = coeff_power(m, a, b)
        return RatFunc(UniPoly.of("u", [0] * power + [coef]))

    return RatFuncGrid([[entry(a, b) for b in range(1, m + 1)]
                        for a in range(1, m + 1)])


def beta_matrix(m: int, u: Fraction | int | None = None
                ) -> ExactMatrix | RatFuncGrid:
    """beta_m(u): the m x m change of basis between the derivative basis
    and the Bessel-moment basis of the solution space.

    With ``u=None`` the symbolic Q(u) matrix is returned; otherwise its
    entries c_ab u^p_ab (``bwv.beta.coeff_power``) are evaluated over Q
    at the given rational point.
    """
    if m < 1:
        raise ValueError("beta_matrix requires m >= 1")
    B = _beta_symbolic(m)
    return B if u is None else B.eval(u)


@cache
def _beta_inverse_at_1(m: int) -> ExactMatrix:
    """beta_m(1)^{-1}, by the integer substitution of ``bwv.beta``, once
    per m for every de Rham limit and block identity that reads it."""
    nums, den = inverse_at_1(m)
    return ExactMatrix._make(nums, den, m)


# ---------------------------------------------------------------------------
# Auxiliary bookkeeping matrices
# ---------------------------------------------------------------------------


def _aux_band(k: int, shift: int,
              value: Callable[[int], Fraction | int]) -> ExactMatrix:
    """The (2k-1) x (2k-1) identity plus value(b) at (a, b = a - shift)
    for every row a > k: one band below the diagonal."""
    def entry(a: int, b: int) -> Fraction | int:
        return int(a == b) + (value(b) if a > k and a - shift == b else 0)

    return ExactMatrix.from_fn(2 * k - 1, 2 * k - 1, entry)


def _aux_A(k: int) -> ExactMatrix:
    # the identity with -1 at (a, a + k - 1) for 2 <= a <= k: the
    # transpose of a band at Phi's place
    return _aux_band(k, k - 1, lambda b: -1).T


def _aux_psi(k: int) -> ExactMatrix:
    # 2k x (2k-1): columns e_1..e_k, e_{k+2}..e_{2k}; right-multiplying by
    # psi drops the (k+1)-st column of a 2k-column matrix.
    return ExactMatrix.identity(2 * k).submatrix(
        range(1, 2 * k + 1), [*range(1, k + 1), *range(k + 2, 2 * k + 1)])


def _aux_rho(k: int) -> ExactMatrix:
    # (2k-1) x 2k: the first 2k - 1 rows of the identity
    return ExactMatrix.identity(2 * k).submatrix(
        range(1, 2 * k), range(1, 2 * k + 1))


def _aux_Theta(k: int, denom: int) -> ExactMatrix:
    return _aux_band(k, k, lambda b: Fraction(2 * b, denom))


def _aux_Phi(k: int, denom: int) -> ExactMatrix:
    return _aux_band(k, k - 1, lambda b: 1 - Fraction(b, denom))


def _aux_R(k: int) -> ExactMatrix:
    n = 2 * k

    def entry(a: int, b: int) -> Fraction | int:
        if a <= k:
            return int(a == b - 1)
        if a == k + 1:
            return Fraction(2 * k + 2, 2 * k + 1) if b == 1 else 0
        return int(a == b)

    return ExactMatrix.from_fn(n, n, entry)


def _aux_Psi(k: int) -> ExactMatrix:
    # (2k-1) x (2k-2): columns e_1..e_{k-1}, e_{k+1}..e_{2k-1}; right-
    # multiplying by Psi drops the k-th column.
    return ExactMatrix.identity(2 * k - 1).submatrix(
        range(1, 2 * k), [*range(1, k), *range(k + 1, 2 * k)])


_AUX: Dict[str, Callable[[int], ExactMatrix]] = {
    "A": _aux_A,
    "psi": _aux_psi,
    "rho": _aux_rho,
    "Theta": lambda k: _aux_Theta(k, 2 * k + 1),
    "Phi": lambda k: _aux_Phi(k, 2 * k + 1),
    "theta": lambda k: _aux_Theta(k, 2 * k + 2),
    "phi": lambda k: _aux_Phi(k, 2 * k + 2),
    "R": _aux_R,
    "Psi": _aux_Psi,
}


@cache
def aux_matrix(name: str, k: int) -> ExactMatrix:
    """Bookkeeping matrices: A, psi, rho, Theta, Phi, theta, phi, R, Psi.

    A, Theta, Phi, theta, phi are (2k-1) x (2k-1); psi is 2k x (2k-1);
    rho is (2k-1) x 2k; R is 2k x 2k; Psi is (2k-1) x (2k-2).
    """
    if name not in _AUX:
        raise ValueError(f"unknown auxiliary matrix {name!r}; "
                         f"expected one of {sorted(_AUX)}")
    if k < 1:
        raise ValueError("aux_matrix requires k >= 1")
    return _AUX[name](k)


# ---------------------------------------------------------------------------
# de Rham matrices D and d
# ---------------------------------------------------------------------------


@cache
def _pairing_limit(m: int, u0: int) -> ExactMatrix:
    """lim_{u -> u0} |ell_{m,m}(u)| beta_m^{-T} X_m beta_m^{-1}, u0 = 1 or
    0, with X_m = V_m for odd m and upsilon_m for even m: the de Rham
    pairing in the Wronskian basis, whose limits give D_k, d_k and their
    ringed forms.

    Entry (a, b) of beta_m(u) is c_ab u^{b - r_a} (``bwv.beta``), so
    beta_m(u) = R^{-1} beta_m(1) C with R = diag(u^{r_a}), C = diag(u^b);
    and |ell| X = s W with s the sign of ell on (0, 1).  The product is
    the Laurent polynomial s R B^T C^{-1} W C^{-1} B R, B =
    beta_m(1)^{-1}, which ``bwv.beta`` forms by integer substitution, with
    no elimination.  At u = 1 it is s B^T W(1) B (for odd m, ell has no
    root in (0, 1]).  At u = 0, split W by shifted degree: with (Z_q)_ij
    the u^{i + j - q} coefficient of W_ij and P_q = B^T Z_q B, entry
    (a, b) is sum_q s (P_q)_ab u^{r_a + r_b - q}, q = 2..2m.  Its limit is
    s (P_d)_ab, d = r_a + r_b, and every (P_q)_ab with q > d must vanish.

    The u = 0 limit runs in integers: B is its integer matrix over its
    common denominator, and W's entries have integer coefficients
    (``_wmat``).  Only the entries (P_q)_ab with q >= r_a + r_b are
    formed, each an integer dot product of column a of B with column b
    of Z_q B; Z_q B is formed only for the columns b that such an entry
    reads, r_b + min r <= q.  No rational function of u is formed, and
    the limit is made canonical once, over the square of B's
    denominator.
    """
    B = _beta_inverse_at_1(m)
    s = top_coeff_sign_on_01(m)
    W = [[w.nums for w in row] for row in _wmat(m)]
    if u0 == 1:
        W1 = ExactMatrix._make([[sum(w) for w in row] for row in W], 1, m)
        return (B.T @ W1 @ B).scale(s)
    # 1 <= r_a, so 2 <= d <= 2m
    r = row_powers(m)
    cols = list(zip(*B.nums))
    rmin = min(r)
    out = [[None] * m for _ in range(m)]
    for q in range(2 * rmin, 2 * m + 1):
        # 0-based i, j: (Z_q)_ij is the u^{i + j + 2 - q} coefficient
        Z = [[w[i + j + 2 - q] if 0 <= i + j + 2 - q < len(w) else 0
              for j, w in enumerate(row)] for i, row in enumerate(W)]
        for b in range(m):
            if r[b] + rmin > q:
                continue
            ZB = [sum(map(mul, z, cols[b])) for z in Z]
            for a in range(m):
                d = r[a] + r[b]
                if d > q:
                    continue
                v = sum(map(mul, cols[a], ZB))
                if d == q:
                    out[a][b] = s * v
                elif v:
                    raise AssertionError(
                        f"u->0 limit of the order-{m} pairing: entry "
                        f"({a + 1}, {b + 1}) keeps a negative power of u")
    return ExactMatrix._make(out, B.den ** 2, m)


@cache
def _derham(p: int, k: int) -> ExactMatrix:
    """D_k (p = 0) or d_k (p = 1) at weight w = 2k + 1 + p: the k x k block
    (k + 2..2k + 1)^2 of the u -> 1 limit of the order-w pairing, divided
    by 4 (w + 2) (-1)^k.  For p = 1 it skips the last row and column, which
    vanish in the limit (``d-limit-margin-zero``)."""
    w = 2 * k + 1 + p
    block = list(range(k + 2, 2 * k + 2))
    return _pairing_limit(w, 1).submatrix(block, block).scale(
        Fraction(1, 4 * (w + 2) * _msign(k)))


def derham_D(k: int) -> ExactMatrix:
    """D_k (k x k, symmetric, upper-left triangular): the de Rham
    intersection matrix extracted from V_{2k+1}(1) through beta_{2k+1}."""
    if k < 1:
        raise ValueError("derham_D requires k >= 1")
    return _derham(0, k)


def derham_d(k: int) -> ExactMatrix:
    """d_k (k x k, skew-symmetric): the de Rham intersection matrix
    extracted from upsilon_{2k+2}(1) through beta_{2k+2}."""
    if k < 1:
        raise ValueError("derham_d requires k >= 1")
    return _derham(1, k)


@cache
def _derham_ring_blocks(p: int, k: int) -> tuple[ExactMatrix, ExactMatrix]:
    """u -> 0 route: (D_k, ringed-D_k) for p = 0, (d_k, ringed-d_k) for
    p = 1, from L = _pairing_limit(2k + p, 0), of upsilon_{2k} or
    V_{2k+1}.  For p = 1 row and column k + 1 are dropped (Psi^T L Psi).
    L / (8 (-1)^{k+p}) must have the 2k x 2k block form [[0, -X],
    [X, ringed-X]]."""
    lo, hi = range(1, k + 1), range(k + 1 + p, 2 * k + 1 + p)
    L = _pairing_limit(2 * k + p, 0).scale(Fraction(1, 8 * _msign(k + p)))
    X = L.submatrix(hi, lo)
    if L.submatrix(lo, lo) != ExactMatrix.zeros(k, k):
        raise AssertionError("u->0 block limit: upper-left block not zero")
    if L.submatrix(lo, hi).scale(-1) != X:
        raise AssertionError("u->0 block limit: off-diagonal blocks disagree")
    return X, L.submatrix(hi, hi)


def derham_Dring(k: int) -> ExactMatrix:
    """Ringed-D_k (k x k), from the u -> 0 block limit route."""
    if k < 1:
        raise ValueError("derham_Dring requires k >= 1")
    return _derham_ring_blocks(0, k)[1]


def derham_dring(k: int) -> ExactMatrix:
    """Ringed-d_k (k x k), from the u -> 0 block limit route."""
    if k < 1:
        raise ValueError("derham_dring requires k >= 1")
    return _derham_ring_blocks(1, k)[1]


def _join_blocks(tl: ExactMatrix, tr: ExactMatrix, bl: ExactMatrix,
                 br: ExactMatrix) -> ExactMatrix:
    """The block matrix [[tl, tr], [bl, br]]."""
    den = lcm(tl.den, tr.den, bl.den, br.den)
    rows = [[x * den // M.den for M in pair for x in M.nums[i]]
            for pair in ((tl, tr), (bl, br)) for i in range(pair[0].rows)]
    return ExactMatrix._make(rows, den, tl.cols + tr.cols)


def derham_alternatives(k: int) -> dict:
    """Recompute D_k and d_k along the independent routes and cross-check.

    The two families differ only by the parity p: p = 0 is the odd family
    (X = D, from V_{2k+1}), p = 1 the even family (X = d, from
    upsilon_{2k+2}), at weight w = 2k + 1 + p.  For each p:

    * ``X-via-conjugation``: Theta_w^{-T} L Theta_w^{-1} = Z for the core
      (2k-1) x (2k-1) block L of the u -> 1 limit of the order-(2k - 1 + p)
      pairing, Z block-diagonal with blocks 16 (-1)^{k-1} X_k / w and
      4 w (-1)^{k-1} X_{k-1}, checked as L = Theta_w^T Z Theta_w
      (``_aux_Theta(k, w)``, unit triangular).  For p = 1 the margin row
      and column 2k of the limit are dropped (rho L rho^T) and must be
      zero (``d-limit-margin-zero``).
    * ``X-via-u0-limit``: the u -> 0 block limit of the order-(2k - p)
      pairing yields X_{k-p} (``_derham_ring_blocks``).

    Returns a fresh dict of the named flags only.  Requires k >= 2 (the
    conjugation routes need a nonempty second block).
    """
    if k < 2:
        raise ValueError("derham_alternatives requires k >= 2")
    report: dict[str, bool] = {}
    n, sgn = 2 * k - 1, _msign(k - 1)
    zeros = ExactMatrix.zeros
    for p, X in enumerate("Dd"):
        w = 2 * k + 1 + p
        full = _pairing_limit(n + p, 1)
        if p:
            report["d-limit-margin-zero"] = all(
                full.at(2 * k, i) == 0 == full.at(i, 2 * k)
                for i in range(1, 2 * k + 1))
        core = full.submatrix(list(range(1, n + 1)), list(range(1, n + 1)))
        T = _aux_Theta(k, w)
        Z = _join_blocks(_derham(p, k).scale(Fraction(16 * sgn, w)),
                         zeros(k, k - 1), zeros(k - 1, k),
                         _derham(p, k - 1).scale(4 * w * sgn))
        report[f"{X}-via-conjugation"] = core == T.T @ Z @ T
        report[f"{X}-via-u0-limit"] = (
            _derham_ring_blocks(p, k - p)[0] == _derham(p, k - p))
    return report


# ---------------------------------------------------------------------------
# Named constants
# ---------------------------------------------------------------------------


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * r with r squarefree; returns (s, r). n must be > 0."""
    s, r = 1, 1
    d = 2
    m = n
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        s *= d ** (e // 2)
        if e % 2:
            r *= d
        d += 1
    r *= m
    return s, r


class Surd(NamedTuple):
    """Exact value rational * sqrt(radicand) * pi^pi_power with the
    radicand a positive squarefree integer."""

    rational: Fraction
    radicand: int = 1
    pi_power: int = 0

    @staticmethod
    def of(rational: Fraction, radicand: int = 1, pi_power: int = 0) -> "Surd":
        if radicand <= 0:
            raise ValueError("radicand must be positive")
        s, r = _squarefree_split(radicand)
        return Surd(Fraction(rational) * s, r, pi_power)

    def to_mpf(self, mp):
        """Numeric value using an mpmath context."""
        return (
            mp.mpf(self.rational.numerator)
            / mp.mpf(self.rational.denominator)
            * mp.sqrt(mp.mpf(self.radicand))
            * mp.pi ** self.pi_power
        )


class NamedConstant(NamedTuple):
    """A named closed-form constant: rational * sqrt(radicand) * pi^pi_power."""

    name: str
    k: int
    rational: Fraction
    radicand: int
    pi_power: int

    @property
    def value(self) -> Surd:
        return Surd(self.rational, self.radicand, self.pi_power)


def _lambda(p: int, k: int) -> Fraction:
    """Lambda_{2k-1} (p = 0) or lambda_{2k} (p = 1), with n = 2k + p:
    n / (2^{1-p} (n+1)) (-1)^C(k-1+p, 2) 2^{-k(2k-3+2p)} n!^{n-1} /
    prod_{j<=n} j^j."""
    n = 2 * k + p
    val = Fraction(n, 2 ** (1 - p) * (n + 1)) * _msign(comb(k - 1 + p, 2))
    val *= Fraction(2) ** (-k * (2 * k - 3 + 2 * p))
    val *= Fraction(factorial(n)) ** (n - 1)
    for j in range(1, n + 1):
        val /= Fraction(j) ** j
    return val


def _det_M(k: int) -> Surd:
    # sqrt((2j+1)^{2j+1}) = (2j+1)^j sqrt(2j+1), so each factor j <= k is
    # (2j)^{k-j} / (2j+1)^{j+1} * sqrt(2j+1) * pi^j.
    js = range(1, k + 1)
    return Surd.of(
        prod(Fraction((2 * j) ** (k - j), (2 * j + 1) ** (j + 1)) for j in js),
        prod(2 * j + 1 for j in js),
        k * (k + 1) // 2,
    )


def _det_N(k: int) -> Surd:
    rat = prod(Fraction((2 * j - 1) ** (k + 1 - j), (2 * j) ** j)
               for j in range(1, k + 2))
    if k % 2 == 1:
        # Gamma((k+1)/2) = ((k-1)/2)! and the pi exponent is an integer.
        gamma = Fraction(factorial((k - 1) // 2))
        return Surd.of(2 * rat / gamma, 1, (k + 1) ** 2 // 2)
    # Gamma(j0 + 1/2) = (2 j0)! sqrt(pi) / (4^j0 j0!) with j0 = k/2.
    j0 = k // 2
    gamma_rat = Fraction(factorial(2 * j0), 4 ** j0 * factorial(j0))
    return Surd.of(
        2 * rat / gamma_rat, 1, ((k + 1) ** 2 - 1) // 2
    )


def _det_betti(k: int) -> Fraction:
    return (
        Fraction((-1) ** (k - 1) * factorial(2 * k - 1))
        * _lambda(0, k)
        / Fraction(2) ** (5 * k - 1)
    )


def _double_factorial(n: int) -> int:
    return prod(range(n, 0, -2))


def _det_betti_minor_even(k: int) -> Fraction:
    dfo = _double_factorial(2 * k + 1)
    val = Fraction(dfo) ** ((3 - (-1) ** k) // 2)
    val /= Fraction(
        (-2) ** (k // 2)
        * _double_factorial(k - 1)
        * _double_factorial(k) ** (1 - (-1) ** k)
    )
    val *= Fraction(dfo, 2 ** (k + 1)) ** (2 * (k // 2))
    for j in range(1, k + 1):
        val *= Fraction((2 * j) ** (k - j), (2 * j + 1) ** (j + 1))
    return val


_NAMED: Dict[str, Callable[[int], Surd]] = {
    "LambdaOdd": lambda k: Surd(_lambda(0, k)),
    "lambdaEven": lambda k: Surd(_lambda(1, k)),
    "detM_formula": _det_M,
    "detN_formula": _det_N,
    "detBetti_formula": lambda k: Surd(_det_betti(k)),
    "detBettiMinorEven": lambda k: Surd(_det_betti_minor_even(k)),
}

NAMED_CONSTANTS = tuple(_NAMED)


def named_constant(name: str, k: int) -> NamedConstant:
    """Closed-form constants attached to the matrix families.

    * ``LambdaOdd``: Lambda_{2k-1}, the Wronskian determinant constant of
      the odd family (rational).
    * ``lambdaEven``: lambda_{2k}, the even-family analogue (rational).
    * ``detM_formula`` / ``detN_formula``: det M_k and det N_k as
      rational * sqrt(radicand) * pi^power (half-integer Gamma factors are
      absorbed into the rational part and the pi power).
    * ``detBetti_formula``: det B_k (rational).
    * ``detBettiMinorEven``: determinant of the even-index minor of B_k
      (rational).
    """
    if k < 1:
        raise ValueError("named_constant requires k >= 1")
    if name not in _NAMED:
        raise ValueError(f"unknown named constant {name!r}; "
                         f"expected one of {NAMED_CONSTANTS}")
    s = _NAMED[name](k)
    return NamedConstant(name, k, s.rational, s.radicand, s.pi_power)


# ---------------------------------------------------------------------------
# Betti minors
# ---------------------------------------------------------------------------


def betti_minors(k: int) -> dict:
    """Odd- and even-index principal minors of B_k, their determinants,
    and the closed-form cross-checks.

    The even minor of B_1 is the empty matrix with determinant 1.
    """
    if k < 1:
        raise ValueError("betti_minors requires k >= 1")
    B = betti_B(k)
    odd_idx = list(range(1, k + 1, 2))
    even_idx = list(range(2, k + 1, 2))
    Bo = B.submatrix(odd_idx, odd_idx)
    Be = B.submatrix(even_idx, even_idx)
    det_o = Bo.det()
    det_e = Be.det()
    det_B = B.det()
    return {
        "odd": Bo,
        "even": Be,
        "det_odd": det_o,
        "det_even": det_e,
        "det": det_B,
        "det_product_ok": det_o * det_e == det_B,
        "det_even_formula_ok": det_e == _det_betti_minor_even(k),
    }


# ---------------------------------------------------------------------------
# Block identities
# ---------------------------------------------------------------------------


def verify_block_identities(k: int) -> dict:
    """Exact verification of the block identities tying Sigma/sigma, the
    S matrices, the Bernoulli matrices and their ringed companions.

    Each conjugation is checked as an equality of products, Z a block
    matrix split at k (``_join_blocks``): ``Sigma-block-diag`` as Sigma =
    C Z C^T, C = A Phi, and ``R-sigma-block`` as sigma = R^T Z R, which
    say C^{-1} Sigma C^{-T} = Z and R^{-T} sigma R^{-1} = Z because A and
    Phi are unit triangular and det R = (-1)^k (2k+2)/(2k+1);
    ``SigmaInv-block-diag`` and ``sigmaInv-block-diag`` as C^T Sigma^{-1}
    C = Z, C = A Phi_w (psi A Phi_w for sigma^{-1}); the others as
    R sigma^{-1} R^T = Z and B_k S_k = I (``Betti-inverse-of-frakS``).

    Requires k >= 2 (several identities involve the (k-1)-indexed
    matrices).  Returns a fresh dict of the named flags only.
    """
    if k < 2:
        raise ValueError("verify_block_identities requires k >= 2")
    report: dict[str, bool] = {}
    zeros = ExactMatrix.zeros

    A = aux_matrix("A", k)
    R = aux_matrix("R", k)
    sgn = _msign(k - 1)

    S_k, Sring_k = frakS(k), frakSring(k)
    B_k, Bring_k = betti_B(k), betti_Bring(k)

    C = A @ aux_matrix("Phi", k)
    Z = _join_blocks(S_k.scale(Fraction((2 * k + 1) * sgn, 16)),
                     zeros(k, k - 1), zeros(k - 1, k),
                     frakS(k - 1).scale(Fraction(sgn, 4 * (2 * k + 1))))
    report["Sigma-block-diag"] = matSigma(k) == C @ Z @ C.T

    c = Fraction((-1) ** k, 2 ** 3)
    report["R-sigma-block"] = matsigma(k) == R.T @ _join_blocks(
        Sring_k.scale(c), S_k.scale(-c), S_k.scale(c), zeros(k, k)) @ R

    for p, key in enumerate(("SigmaInv", "sigmaInv")):
        w = 2 * k + 1 + p
        C = A @ _aux_Phi(k, w)
        if p:
            C = aux_matrix("psi", k) @ C
        report[f"{key}-block-diag"] = C.T @ _sigma_inv(p, k) @ C == (
            _join_blocks(_betti(p, k).scale(Fraction(16 * sgn, w)),
                         zeros(k, k - 1), zeros(k - 1, k),
                         _betti(p, k - 1).scale(4 * w * sgn)))

    c = Fraction((-1) ** k * 2 ** 3)
    report["R-BernoulliInv-block"] = R @ _sigma_inv(1, k) @ R.T == (
        _join_blocks(zeros(k, k), B_k.scale(c), B_k.scale(-c),
                     Bring_k.scale(c)))

    report["Betti-inverse-of-frakS"] = B_k @ S_k == ExactMatrix.identity(k)
    report["Bring-from-Sring"] = Bring_k == B_k @ Sring_k @ B_k

    # S recursion in k
    S_kp1 = frakS(k + 1)
    report["frakS-recursion"] = all(
        Fraction(4, 2 * k + 2 - b) * S_k.at(a, b)
        == Fraction(_even_gate(a) * _msign(a // 2))
        * binom_ext(k + 1, a + 1) * S_kp1.at(1, b + 1)
        - (2 * k + 2 - a) * S_kp1.at(a + 1, b + 1)
        for a in range(1, k + 1) for b in range(1, k + 1))

    # S first row closed form
    report["frakS-first-row"] = all(
        S_k.at(1, b)
        == Fraction(4 ** (k + 1) * (2 * k + 1), factorial(k) ** 2)
        * _even_gate(b + 1) * _msign(b // 2) * binom_ext(k, b)
        / (2 * k + 1 - b)
        for b in range(1, k + 1))

    # ringed-S recursion over the extended index range a, b in [-1, k]
    c = -Fraction(4 ** (k + 2) * (2 * k + 3), factorial(k + 1) ** 2)
    report["frakSring-recursion"] = all(
        Fraction(4, 2 * k + 2 - b) * frakSring_entry(k, a, b)
        == c * _even_gate(a + b + 1) * _msign(a // 2 + (b + 1) // 2)
        * binom_ext(k + 1, a + 1) * binom_ext(k + 1, b + 1) / (2 * k + 2 - b)
        - (2 * k + 2 - a) * frakSring_entry(k + 1, a + 1, b + 1)
        for a in range(-1, k + 1) for b in range(-1, k + 1))

    # ringed-S margin rows/columns: row 0 is minus column 0, and row and
    # column -1 vanish
    def margin(b: int) -> Fraction:
        return (Fraction(_even_gate(b + 1), 2 * k + 1 - b) * 4 ** (k + 1)
                * _msign(b // 2) * recip_fact_ext(b) * recip_fact_ext(k)
                * recip_fact_ext(k - b))

    report["frakSring-margins"] = all(
        frakSring_entry(k, 0, b) == margin(b) == -frakSring_entry(k, b, 0)
        and frakSring_entry(k, -1, b) == 0 == frakSring_entry(k, b, -1)
        for b in range(-1, k + 1))

    # last column of beta_{2k}^{-1} is concentrated in its corner
    binv = _beta_inverse_at_1(2 * k)
    corner = Fraction((-1) ** (k - 1), 2 ** (2 * k - 1))
    report["beta-inverse-margin"] = all(
        binv.at(a, 2 * k) == (corner if a == 2 * k else 0)
        for a in range(1, 2 * k + 1))
    return report


# ---------------------------------------------------------------------------
# Family dispatch and JSON serialization
# ---------------------------------------------------------------------------

MATRIX_FAMILIES: Dict[str, Callable[..., ExactMatrix | RatFuncGrid]] = {
    "V": matV,
    "Upsilon": matUpsilon,
    "Sigma": matSigma,
    "sigma": matsigma,
    "SigmaInvB": matSigmaInvBernoulli,
    "sigmaInvB": matsigmaInvBernoulli,
    "BettiB": betti_B,
    "Bettib": betti_b,
    "BettiBring": betti_Bring,
    "Bettibring": betti_bring,
    "FrakS": frakS,
    "FrakSring": frakSring,
    "DerhamD": derham_D,
    "Derhamd": derham_d,
    "DerhamDring": derham_Dring,
    "Derhamdring": derham_dring,
    "Beta": beta_matrix,
    "A": lambda k: aux_matrix("A", k),
    "Psi_small": lambda k: aux_matrix("psi", k),
    "Rho": lambda k: aux_matrix("rho", k),
    "Theta": lambda k: aux_matrix("Theta", k),
    "Phi": lambda k: aux_matrix("Phi", k),
    "theta_small": lambda k: aux_matrix("theta", k),
    "phi_small": lambda k: aux_matrix("phi", k),
    "R": lambda k: aux_matrix("R", k),
    "PsiCap": lambda k: aux_matrix("Psi", k),
}


def matrix_family(name: str, k: int, u: Fraction | None = None
                  ) -> ExactMatrix | RatFuncGrid:
    """Construct a named matrix family member.

    ``u`` evaluates a Q(u) family (``V``, ``Upsilon``, ``Beta``) at a
    rational point; ``None`` keeps the symbolic matrix.  The Q families
    reject an evaluation point, and a pole at ``u`` raises ValueError.
    """
    if name not in MATRIX_FAMILIES:
        raise ValueError(f"unknown matrix family {name!r}; "
                         f"expected one of {sorted(MATRIX_FAMILIES)}")
    M = MATRIX_FAMILIES[name](k)
    if u is None:
        return M
    if M.ring == "Q":
        raise ValueError(f"family {name!r} does not take an evaluation point")
    try:
        return M.eval(u)
    except ZeroDivisionError as exc:
        raise ValueError(f"family {name!r} at u = {u}: {exc}") from exc


def _poly_to_str(p: UniPoly) -> str:
    if p.is_zero:
        return "0"
    terms = []
    for e, c in enumerate(p.coeffs):
        if c == 0:
            continue
        cs = f"{c.numerator}/{c.denominator}"
        terms.append(cs if e == 0 else f"{cs}*u^{e}")
    return " + ".join(terms)


def _poly_from_str(s: str, var: str = "u") -> UniPoly:
    s = s.strip()
    if s == "0":
        return UniPoly.zero(var)
    coeffs: dict[int, Fraction] = {}
    for term in s.split(" + "):
        if "*u^" in term:
            cs, es = term.split("*u^")
            e = int(es)
        else:
            cs, e = term, 0
        coeffs[e] = Fraction(cs)
    top = max(coeffs)
    return UniPoly.of(var, [coeffs.get(i, Fraction(0)) for i in range(top + 1)])


def matrix_to_json(name: str, k: int, M: ExactMatrix | RatFuncGrid) -> dict:
    """JSON-serializable description of a matrix: exact entries as
    "num/den" strings over Q or {"num": ..., "den": ...} polynomial
    strings over Q(u); no floating point anywhere."""
    entries = []
    for row in M.entries:
        out_row = []
        for e in row:
            if isinstance(e, RatFunc):
                out_row.append(
                    {"num": _poly_to_str(e.num), "den": _poly_to_str(e.den)}
                )
            else:
                out_row.append(f"{e.numerator}/{e.denominator}")
        entries.append(out_row)
    return {"name": name, "k": k, "ring": M.ring, "entries": entries}


def matrix_from_json(d: dict) -> Tuple[str, int, ExactMatrix | RatFuncGrid]:
    """Inverse of matrix_to_json."""
    rows = d["entries"]
    if d["ring"] == "Q":
        M = ExactMatrix([[Fraction(e) for e in row] for row in rows])
    else:
        M = RatFuncGrid([[RatFunc(_poly_from_str(e["num"]),
                                  _poly_from_str(e["den"])) for e in row]
                         for row in rows])
    return d["name"], d["k"], M
