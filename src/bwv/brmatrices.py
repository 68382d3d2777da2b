"""Exact matrix families for the Bessel-moment quadratic relations.

All matrices follow 1-based index conventions.  Matrices over Q carry
Fraction entries; matrices over Q(u) carry RatFunc entries in the
variable ``u``.  Only the public Q(u) matrices (``matV``, ``matUpsilon``,
the symbolic ``beta_matrix``) and matrices read back from JSON hold
RatFunc entries: the de Rham limits and beta_m at a point are formed
over Q.  Every constructor is pure and memoized on immutable outputs.

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
  beta_m(u) (m x m); ``u=None`` gives the symbolic Q(u) matrix.
* ``aux_matrix(name, k)``: bookkeeping matrices A, psi, rho, Theta,
  Phi, theta, phi, R, Psi.
* ``derham_D(k)`` / ``derham_d(k)``: the de Rham matrices D_k and d_k
  (k x k) obtained from V / upsilon through beta.  Each de Rham limit
  is read off the polynomial numerators W = ell_{m,m} V or
  ell_{m,m} upsilon through beta_m(1) by products over Q: of W(1) at
  u = 1, and of the coefficient matrices of W grouped by shifted degree
  at u = 0.
* ``derham_alternatives(k)``: recomputes D and d along the independent
  block-diagonal and u -> 0 routes and cross-checks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial
from typing import Callable, Dict, Tuple

from .exactalg import (
    ExactMatrix,
    RatFunc,
    UniPoly,
    bernoulli,
    binom_ext,
    exact_inverse,
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
    def dell(n: int, order: int) -> UniPoly:
        return op.ell(n).deriv(order)

    def entry(a: int, b: int) -> UniPoly:
        num = UniPoly.zero("u")
        for n in range(a + b - 1, m + 1):
            c = binom_ext(n - a, b - 1)
            if c == 0:
                continue
            num = num + dell(n, n - a - b + 1) * (_msign(a + n + m + 1) * c)
        return num

    return tuple(tuple(entry(a, b) for b in range(1, m + 1))
                 for a in range(1, m + 1))


def _vmat(m: int) -> ExactMatrix:
    """V_m(u) for odd m, upsilon_m(u) for even m: W_m / ell_{m,m}."""
    lead = top_coeff(m)
    return ExactMatrix([[RatFunc(w, lead) for w in row] for row in _wmat(m)])


@cache
def matV(k: int) -> ExactMatrix:
    """V_{2k-1}(u): symmetric (2k-1) x (2k-1) matrix over Q(u)."""
    if k < 1:
        raise ValueError("matV requires k >= 1")
    return _vmat(2 * k - 1)


@cache
def matUpsilon(k: int) -> ExactMatrix:
    """upsilon_{2k}(u): skew-symmetric 2k x 2k matrix over Q(u)."""
    if k < 1:
        raise ValueError("matUpsilon requires k >= 1")
    return _vmat(2 * k)


# ---------------------------------------------------------------------------
# Sigma and sigma
# ---------------------------------------------------------------------------


def _sigma_odd_A(k: int, a: int, b: int) -> Fraction:
    # parity gate (1 + (-1)^{a+b})/2
    if (a + b) % 2 == 1:
        return Fraction(0)
    pref = Fraction(
        (1 + 2 * k * (a == 1)) * (1 + 2 * k * (b == 1)) * 2 ** (2 * k - 1)
    )
    ssum = Fraction(0)
    for s in range(1, k + 2 - a):
        ssum += (-1) ** s * binom_ext(2 * k + 1 - a, k + s) * binom_ext(k - s, b - 1)
    den = Fraction(
        _msign(a // 2 + b // 2 - k) * factorial(a - 1) * factorial(2 * k + 1 - a)
    )
    return pref * ssum / den


def _sigma_odd_B(k: int, a: int, bp: int) -> Fraction:
    # parity gate ((-1)^{a-1} + (-1)^{b'})/2 is 0, +1 or -1
    gate = (_msign(a - 1) + _msign(bp)) // 2
    if gate == 0:
        return Fraction(0)
    pref = Fraction(gate * (1 + 2 * k * (a == 1)) * 2 ** (2 * k - 1))
    ssum = Fraction(0)
    for s in range(1, k + 2 - a):
        ssum += (-1) ** s * binom_ext(2 * k + 1 - a, k + s) * (
            binom_ext(k - s, bp + 1) + _msign(bp) * binom_ext(k + s, bp + 1)
        )
    den = Fraction(
        _msign(a // 2 + bp // 2 - k) * factorial(a - 1) * factorial(2 * k + 1 - a)
    )
    return pref * ssum / den


def _sigma_odd_D(k: int, ap: int, bp: int) -> Fraction:
    if ap % 2 == 1 or bp % 2 == 1:
        return Fraction(0)
    pref = Fraction((-4) ** (k - 1), factorial(k) ** 2)
    par = Fraction(4, _msign(ap // 2 + bp // 2))
    return pref * par * binom_ext(k, ap + 1) * binom_ext(k, bp + 1)


@cache
def matSigma(k: int) -> ExactMatrix:
    """Sigma_{2k-1}: symmetric (2k-1) x (2k-1) matrix over Q assembled
    from its four closed-form blocks (sizes k and k-1)."""
    if k < 1:
        raise ValueError("matSigma requires k >= 1")

    def entry(a: int, b: int) -> Fraction:
        if a <= k and b <= k:
            return _sigma_odd_A(k, a, b)
        if a <= k < b:
            return _sigma_odd_B(k, a, b - k)
        if b <= k < a:
            return _sigma_odd_B(k, b, a - k)
        return _sigma_odd_D(k, a - k, b - k)

    return ExactMatrix.from_fn(2 * k - 1, 2 * k - 1, entry)


def _sigma_even_A(k: int, a: int, b: int) -> Fraction:
    # parity gate (1 + (-1)^{a+b+1}) is 2 when a+b is odd, else 0
    if (a + b) % 2 == 0:
        return Fraction(0)
    pref = Fraction(2 ** (2 * k))
    body = Fraction((1 + (2 * k + 1) * (a == 1)) * (1 + (2 * k + 1) * (b == 1)))
    ssum = Fraction(0)
    for s in range(1, k + 3 - a):
        ssum += (-1) ** s * binom_ext(2 * k + 2 - a, k + s) * binom_ext(k + 1 - s, b - 1)
    den = Fraction(
        _msign(a // 2 + (b - 1) // 2 + k - 1)
        * factorial(a - 1)
        * factorial(2 * k + 2 - a)
    )
    return pref * body * ssum / den


def _sigma_even_B(k: int, a: int, bp: int) -> Fraction:
    # parity gate (1 + (-1)^{a+b'}) is 2 when a+b' is even, else 0
    if (a + bp) % 2 == 1:
        return Fraction(0)
    pref = Fraction(2 ** (2 * k))
    ssum = Fraction(0)
    for s in range(1, k + 3 - a):
        ssum += (-1) ** s * binom_ext(2 * k + 2 - a, k + s) * (
            binom_ext(k + 1 - s, bp + 1) + _msign(bp) * binom_ext(k + s, bp + 1)
        )
    den = Fraction(
        _msign((a - 1) // 2 + (bp + 1) // 2 + k)
        * factorial(a - 1)
        * factorial(2 * k + 2 - a)
    )
    return pref * ssum / den


@cache
def matsigma(k: int) -> ExactMatrix:
    """sigma_{2k}: skew-symmetric 2k x 2k matrix over Q assembled from
    its closed-form blocks (sizes k+1 and k-1; lower-right block is 0)."""
    if k < 1:
        raise ValueError("matsigma requires k >= 1")

    def entry(a: int, b: int) -> Fraction:
        if a <= k + 1 and b <= k + 1:
            return _sigma_even_A(k, a, b)
        if a <= k + 1 < b:
            return _sigma_even_B(k, a, b - k - 1)
        if b <= k + 1 < a:
            return -_sigma_even_B(k, b, a - k - 1)
        return Fraction(0)

    return ExactMatrix.from_fn(2 * k, 2 * k, entry)


# ---------------------------------------------------------------------------
# Closed-form inverses of Sigma and sigma (Bernoulli entries)
# ---------------------------------------------------------------------------


@cache
def matSigmaInvBernoulli(k: int) -> ExactMatrix:
    """Closed form of (Sigma_{2k-1})^{-1} with Bernoulli-number entries."""
    if k < 1:
        raise ValueError("matSigmaInvBernoulli requires k >= 1")

    def entry(a: int, b: int) -> Fraction:
        lo, hi = min(a, b), max(a, b)
        if hi <= k:
            idx = 2 * k + 2 - a - b
            num = Fraction(4 * (lo == 1) * factorial(2 * k), 2 ** (2 * k)) * bernoulli(idx)
            den = Fraction((2 * k + 1) * _msign(k + 1 + (2 * k + 1 - a - b) // 2))
            return num / den
        if lo <= k < hi:
            idx = 3 * k + 1 - a - b
            pref = Fraction(4, 2 ** (2 * k)) * (
                Fraction(k - a - b, 2 * k + 1) * (lo == 1) + 1
            )
            pref /= _msign(hi + 1 + (3 * k - a - b) // 2)
            frac = Fraction(
                factorial(3 * k - 1 - hi) * factorial(2 * k + 1 - lo),
                factorial(3 * k + 1 - a - b),
            )
            return pref * frac * bernoulli(idx)
        idx = 4 * k - a - b
        pref = Fraction(4 * (4 * k - 1 - a - b), 2 ** (2 * k))
        pref /= _msign(a + 1 + (4 * k - 1 - a - b) // 2)
        frac = Fraction(
            factorial(3 * k - 1 - a) * factorial(3 * k - 1 - b),
            factorial(4 * k - a - b),
        )
        return pref * frac * bernoulli(idx)

    return ExactMatrix.from_fn(2 * k - 1, 2 * k - 1, entry)


@cache
def matsigmaInvBernoulli(k: int) -> ExactMatrix:
    """Closed form of (sigma_{2k})^{-1} with Bernoulli-number entries."""
    if k < 1:
        raise ValueError("matsigmaInvBernoulli requires k >= 1")

    def entry(a: int, b: int) -> Fraction:
        lo, hi = min(a, b), max(a, b)
        if hi <= k + 1:
            idx = 2 * k + 3 - a - b
            num = Fraction(2 * (lo == 1) * factorial(2 * k + 1), 2 ** (2 * k)) * bernoulli(idx)
            den = Fraction((2 * k + 2) * _msign(k + a + (2 * k + 2 - a - b) // 2))
            return num / den
        if lo <= k + 1 < hi:
            idx = 3 * k + 3 - a - b
            sgn = 1 if b > a else -1
            pref = Fraction(2, 2 ** (2 * k)) * (
                Fraction(k + 1 - a - b, 2 * k + 2) * (lo == 1) + 1
            )
            pref /= _msign(hi + 1 + (3 * k + 2 - a - b) // 2)
            frac = Fraction(
                factorial(3 * k + 1 - hi) * factorial(2 * k + 2 - lo),
                factorial(3 * k + 3 - a - b) * sgn,
            )
            return pref * frac * bernoulli(idx)
        idx = 4 * k + 3 - a - b
        pref = Fraction(2 * (4 * k + 2 - a - b), 2 ** (2 * k))
        pref /= _msign(a + (4 * k + 2 - a - b) // 2)
        frac = Fraction(
            factorial(3 * k + 1 - a) * factorial(3 * k + 1 - b),
            factorial(4 * k + 3 - a - b),
        )
        return pref * frac * bernoulli(idx)

    return ExactMatrix.from_fn(2 * k, 2 * k, entry)


# ---------------------------------------------------------------------------
# Bernoulli matrices B, b and their ringed companions
# ---------------------------------------------------------------------------


def _betti(p: int, k: int) -> ExactMatrix:
    """B_k (p = 0) or b_k (p = 1) at weight w = 2k + 1 + p."""
    w = 2 * k + 1 + p

    def entry(a: int, b: int) -> Fraction:
        pref = Fraction((-1) ** (a + 1), 2 ** (w + 1))
        frac = Fraction(factorial(w - a) * factorial(w - b),
                        factorial(w + 1 - a - b))
        return pref * frac * bernoulli(w + 1 - a - b) * _msign((w - a - b) // 2)

    return ExactMatrix.from_fn(k, k, entry)


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


@cache
def betti_B(k: int) -> ExactMatrix:
    """B_k (k x k, symmetric): Bernoulli-number matrix for odd weight."""
    if k < 1:
        raise ValueError("betti_B requires k >= 1")
    return _betti(0, k)


@cache
def betti_b(k: int) -> ExactMatrix:
    """b_k (k x k, skew-symmetric): Bernoulli-number matrix for even weight."""
    if k < 1:
        raise ValueError("betti_b requires k >= 1")
    return _betti(1, k)


@cache
def betti_Bring(k: int) -> ExactMatrix:
    """Ringed companion of B_k (k x k)."""
    if k < 1:
        raise ValueError("betti_Bring requires k >= 1")
    return _betti_ring(0, k)


@cache
def betti_bring(k: int) -> ExactMatrix:
    """Ringed companion of b_k (k x k)."""
    if k < 1:
        raise ValueError("betti_bring requires k >= 1")
    return _betti_ring(1, k)


# ---------------------------------------------------------------------------
# frak S and ringed frak S
# ---------------------------------------------------------------------------


def _frakS_entry(k: int, a: int, b: int) -> Fraction:
    if (a + b) % 2 == 1:
        return Fraction(0)
    pref = Fraction(2 * 2 ** (2 * (k + 1)))
    ssum = Fraction(0)
    for s in range(1, k + 2 - a):
        ssum += (-1) ** s * binom_ext(2 * k + 1 - a, k + s) * (
            binom_ext(k + 1 - s, b) - (-1) ** b * binom_ext(k + s, b)
        )
    den_sign = _msign(a // 2 + b // 2 - 1)
    return pref * ssum * recip_fact_ext(a) * recip_fact_ext(2 * k + 1 - a) / den_sign


def frakSring_entry(k: int, a: int, b: int) -> Fraction:
    """Entry (a, b) of ringed-S_k extended to a, b >= -1 (the recursion
    and margin identities quantify over this extended range)."""
    if (a + b) % 2 == 0:
        return Fraction(0)
    if a < 0:
        # the 1/a! factor vanishes; return before the sum can reach
        # binomials with negative upper index (undefined by convention)
        return Fraction(0)
    pref = Fraction(2 * 2 ** (2 * (k + 1)))
    ssum = Fraction(0)
    for s in range(1, k + 2 - a):
        ssum += (-1) ** s * binom_ext(2 * k + 1 - a, k + s) * binom_ext(k + 1 - s, b)
    den_sign = _msign((a + 1) // 2 + b // 2 - 1)
    return pref * ssum * recip_fact_ext(a) * recip_fact_ext(2 * k + 1 - a) / den_sign


@cache
def frakS(k: int) -> ExactMatrix:
    """S_k (k x k): up to block scaling, the inverse Betti intersection
    matrix; satisfies S_k = (B_k)^{-1} up to the stated normalization."""
    if k < 1:
        raise ValueError("frakS requires k >= 1")
    return ExactMatrix.from_fn(k, k, lambda a, b: _frakS_entry(k, a, b))


@cache
def frakSring(k: int) -> ExactMatrix:
    """Ringed-S_k (k x k)."""
    if k < 1:
        raise ValueError("frakSring requires k >= 1")
    return ExactMatrix.from_fn(k, k, lambda a, b: frakSring_entry(k, a, b))


# ---------------------------------------------------------------------------
# beta matrices
# ---------------------------------------------------------------------------


def _beta_coeff_power(m: int, a: int, b: int) -> tuple[Fraction, int]:
    """(coefficient, u-power) of entry (a, b) of beta_m(u)."""
    h = (m + 1) // 2
    if a <= h:
        coef = (
            Fraction((-4) ** (a - 1) * factorial(a - 1))
            * recip_fact_ext(b - a)
            * binom_ext(a - 1, b - a)
        )
        return coef, b - a
    ln = a - h
    coef = (
        Fraction((-4) ** (ln - 1) * 2 * factorial(ln - 1))
        * recip_fact_ext(b - a + h - 1)
        * binom_ext(ln, b - a + h)
    )
    return coef, b - a + h


@cache
def _beta_symbolic(m: int) -> ExactMatrix:
    def entry(a: int, b: int) -> RatFunc:
        coef, power = _beta_coeff_power(m, a, b)
        if coef == 0:
            return RatFunc.of("u", 0)
        return RatFunc(UniPoly.of("u", [0] * power + [coef]))

    return ExactMatrix.from_fn(m, m, entry)


def beta_matrix(m: int, u: Fraction | int | None = None) -> ExactMatrix:
    """beta_m(u): the m x m change of basis between the derivative basis
    and the Bessel-moment basis of the solution space.

    With ``u=None`` the symbolic Q(u) matrix is returned; otherwise the
    entries c_ab u^p_ab (``_beta_coeff_power``) are evaluated over Q at
    the given rational point.
    """
    if m < 1:
        raise ValueError("beta_matrix requires m >= 1")
    if u is None:
        return _beta_symbolic(m)

    def entry(a: int, b: int) -> Fraction:
        coef, power = _beta_coeff_power(m, a, b)
        return coef * u**power if coef else coef

    return ExactMatrix.from_fn(m, m, entry)


# ---------------------------------------------------------------------------
# Auxiliary bookkeeping matrices
# ---------------------------------------------------------------------------


def _aux_A(k: int) -> ExactMatrix:
    n = 2 * k - 1

    def entry(a: int, b: int) -> int:
        if 2 <= a <= k:
            return (a == b) - (a + k - 1 == b)
        return 1 if a == b else 0

    return ExactMatrix.from_fn(n, n, entry)


def _aux_psi(k: int) -> ExactMatrix:
    # 2k x (2k-1): columns e_1..e_k, e_{k+2}..e_{2k}; right-multiplying by
    # psi drops the (k+1)-st column of a 2k-column matrix.
    def entry(a: int, b: int) -> int:
        if b <= k:
            return 1 if a == b else 0
        return 1 if a == b + 1 else 0

    return ExactMatrix.from_fn(2 * k, 2 * k - 1, entry)


def _aux_rho(k: int) -> ExactMatrix:
    return ExactMatrix.from_fn(2 * k - 1, 2 * k, lambda a, b: 1 if a == b else 0)


def _aux_Theta(k: int, denom: int) -> ExactMatrix:
    n = 2 * k - 1

    def entry(a: int, b: int) -> Fraction:
        v = Fraction(1 if a == b else 0)
        if a > k and a - k == b:
            v += Fraction(2 * (a - k), denom)
        return v

    return ExactMatrix.from_fn(n, n, entry)


def _aux_Phi(k: int, denom: int) -> ExactMatrix:
    n = 2 * k - 1

    def entry(a: int, b: int) -> Fraction:
        v = Fraction(1 if a == b else 0)
        if a > k and a - k + 1 == b:
            v += 1 - Fraction(b, denom)
        return v

    return ExactMatrix.from_fn(n, n, entry)


def _aux_R(k: int) -> ExactMatrix:
    n = 2 * k

    def entry(a: int, b: int) -> Fraction:
        if a <= k:
            return Fraction(1 if a == b - 1 else 0)
        if a == k + 1:
            return Fraction(2 * k + 2, 2 * k + 1) if b == 1 else Fraction(0)
        return Fraction(1 if a == b else 0)

    return ExactMatrix.from_fn(n, n, entry)


def _aux_Psi(k: int) -> ExactMatrix:
    # (2k-1) x (2k-2): columns e_1..e_{k-1}, e_{k+1}..e_{2k-1}; right-
    # multiplying by Psi drops the k-th column.
    def entry(a: int, b: int) -> int:
        if a <= k:
            return 1 if (a == b and a != k) else 0
        return 1 if a == b + 1 else 0

    return ExactMatrix.from_fn(2 * k - 1, 2 * k - 2, entry)


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

    Entry (a, b) of beta_m(u) is c_ab u^{b - r_a} (``_beta_coeff_power``),
    so beta_m(u) = R^{-1} beta_m(1) C with R = diag(u^{r_a}), C =
    diag(u^b); and |ell| X = s W with s the sign of ell on (0, 1).  The
    product is the Laurent polynomial s R B^T C^{-1} W C^{-1} B R, B =
    beta_m(1)^{-1}.  At u = 1 it is s B^T W(1) B (for odd m, ell has no
    root in (0, 1]).  At u = 0, split W by shifted degree: with (Z_q)_ij
    the u^{i + j - q} coefficient of W_ij and P_q = B^T Z_q B, entry
    (a, b) is sum_q s (P_q)_ab u^{r_a + r_b - q}, q = 2..2m.  Its limit is
    s (P_d)_ab, d = r_a + r_b, and every (P_q)_ab with q > d must vanish.
    Each P_q is a product over Q; no rational function of u is formed.
    """
    B = exact_inverse(beta_matrix(m, 1))
    s = top_coeff_sign_on_01(m)
    W = _wmat(m)
    if u0 == 1:
        W1 = ExactMatrix([[w.eval(1) for w in row] for row in W])
        return (B.T @ W1 @ B).scale(s)
    # r_a = m - (u-power of beta_m's entry (a, m)), so 2 <= d <= 2m
    r = [m - _beta_coeff_power(m, a, m)[1] for a in range(1, m + 1)]
    Bt = B.T

    def z(q: int) -> ExactMatrix:
        return ExactMatrix.from_fn(
            m, m, lambda i, j: W[i - 1][j - 1].coeff(i + j - q))

    P = {q: Bt @ z(q) @ B for q in range(2, 2 * m + 1)}

    def entry(a: int, b: int) -> Fraction:
        d = r[a - 1] + r[b - 1]
        if any(P[q].at(a, b) for q in range(d + 1, 2 * m + 1)):
            raise AssertionError(
                f"u->0 limit of the order-{m} pairing: entry ({a}, {b}) "
                "keeps a negative power of u")
        return s * P[d].at(a, b)

    return ExactMatrix.from_fn(m, m, entry)


@cache
def derham_D(k: int) -> ExactMatrix:
    """D_k (k x k, symmetric, upper-left triangular): the de Rham
    intersection matrix extracted from V_{2k+1}(1) through beta_{2k+1}."""
    if k < 1:
        raise ValueError("derham_D requires k >= 1")
    full = _pairing_limit(2 * k + 1, 1)
    pref = Fraction(1, 4 * (2 * k + 3) * (-1) ** k)
    return ExactMatrix.from_fn(
        k, k, lambda a, b: pref * full.at(a + k + 1, b + k + 1)
    )


@cache
def derham_d(k: int) -> ExactMatrix:
    """d_k (k x k, skew-symmetric): the de Rham intersection matrix
    extracted from the u -> 1 limit of |ell| upsilon_{2k+2} through
    beta_{2k+2}.

    The limit is s beta(1)^{-T} W(1) beta(1)^{-1}, a product over Q of
    the polynomial numerators W = |ell| upsilon / s (``_pairing_limit``);
    the sign s making |ell(u)| definite near 1^- is sampled at a rational
    interior point of (0, 1), where the leading coefficient has no roots.
    """
    if k < 1:
        raise ValueError("derham_d requires k >= 1")
    full = _pairing_limit(2 * k + 2, 1)
    pref = Fraction(1, 4 * (2 * k + 4) * (-1) ** k)
    return ExactMatrix.from_fn(
        k, k, lambda a, b: pref * full.at(a + k + 1, b + k + 1)
    )


def _u0_blocks(full: ExactMatrix,
               pref: Fraction) -> tuple[ExactMatrix, ExactMatrix]:
    """pref times the u -> 0+ limit ``full``, a 2k x 2k matrix that must
    have the block form [[0, -X], [X, ringed-X]]; returns (X, ringed-X)."""
    full = full.scale(pref)
    k = full.rows // 2
    idx_lo = list(range(1, k + 1))
    idx_hi = list(range(k + 1, 2 * k + 1))
    if full.submatrix(idx_lo, idx_lo) != ExactMatrix.zeros(k, k):
        raise AssertionError("u->0 block limit: upper-left block not zero")
    X_top = full.submatrix(idx_lo, idx_hi).scale(-1)
    X_bot = full.submatrix(idx_hi, idx_lo)
    if X_top != X_bot:
        raise AssertionError("u->0 block limit: off-diagonal blocks disagree")
    return X_bot, full.submatrix(idx_hi, idx_hi)


@cache
def _derham_Dring_blocks(k: int) -> tuple[ExactMatrix, ExactMatrix]:
    """u -> 0 route: returns (D_k, ringed-D_k) from the block limit
    lim_{u->0+} |ell_{2k,2k}(u)| beta_{2k}^{-T} upsilon_{2k} beta_{2k}^{-1}
    / (8 (-1)^k) = [[0, -D_k], [D_k, ringed-D_k]]."""
    return _u0_blocks(_pairing_limit(2 * k, 0), Fraction(1, 8 * (-1) ** k))


@cache
def derham_Dring(k: int) -> ExactMatrix:
    """Ringed-D_k (k x k), from the u -> 0 block limit route."""
    if k < 1:
        raise ValueError("derham_Dring requires k >= 1")
    return _derham_Dring_blocks(k)[1]


@cache
def _derham_dring_blocks(k: int) -> tuple[ExactMatrix, ExactMatrix]:
    """u -> 0 route for the even family: returns (d_k, ringed-d_k) from
    lim_{u->0+} |ell_{2k+1,2k+1}(u)| Psi^T beta_{2k+1}^{-T} V_{2k+1}
    beta_{2k+1}^{-1} Psi / (8 (-1)^{k+1}) = [[0, -d_k], [d_k, ringed-d_k]]."""
    Psi = aux_matrix("Psi", k + 1)
    return _u0_blocks(Psi.T @ _pairing_limit(2 * k + 1, 0) @ Psi,
                      Fraction(1, 8 * (-1) ** (k + 1)))


@cache
def derham_dring(k: int) -> ExactMatrix:
    """Ringed-d_k (k x k), from the u -> 0 block limit route."""
    if k < 1:
        raise ValueError("derham_dring requires k >= 1")
    return _derham_dring_blocks(k)[1]


def _split_blocks(M: ExactMatrix, top: int) -> tuple[ExactMatrix, ...]:
    lo = list(range(1, top + 1))
    hi = list(range(top + 1, M.rows + 1))
    return (
        M.submatrix(lo, lo),
        M.submatrix(lo, hi),
        M.submatrix(hi, lo),
        M.submatrix(hi, hi),
    )


@cache
def derham_alternatives(k: int) -> dict:
    """Recompute D_k and d_k along the independent routes and cross-check.

    Routes for D_k: (i) the defining extraction from V_{2k+1}(1)
    [derham_D], (ii) the Theta-conjugated block diagonalization of
    V_{2k-1}(1) (which also yields D_{k-1}), and (iii) the u -> 0 block
    limit of upsilon_{2k}.  Routes for d_k: (i) the defining u -> 1 limit
    from upsilon_{2k+2} [derham_d], (ii) the theta/rho-conjugated block
    diagonalization of the u -> 1 limit of upsilon_{2k} (yielding d_k and
    d_{k-1}), and (iii) the u -> 0 block limit of V_{2k+1}.  Returns the
    ringed matrices from the u -> 0 routes and per-route agreement flags.

    Requires k >= 2 (the conjugation routes need a nonempty second block).
    """
    if k < 2:
        raise ValueError("derham_alternatives requires k >= 2")
    report: dict = {"k": k}

    # -- D_k via Theta-conjugated block diagonalization of V_{2k-1}(1) --
    m = 2 * k - 1
    Theta_inv = exact_inverse(aux_matrix("Theta", k))
    X = (Theta_inv.T @ _pairing_limit(m, 1) @ Theta_inv).scale(
        Fraction(1, 4 * (2 * k + 1) * (-1) ** (k - 1))
    )
    tl, tr, bl, br = _split_blocks(X, k)
    scale = Fraction(2, 2 * k + 1) ** 2
    report["D-via-conjugation"] = (
        tl == derham_D(k).scale(scale)
        and tr == ExactMatrix.zeros(k, k - 1)
        and bl == ExactMatrix.zeros(k - 1, k)
        and br == derham_D(k - 1)
    )

    # -- D_k and ringed-D_k via the u -> 0 limit of upsilon_{2k} --
    D0, Dring = _derham_Dring_blocks(k)
    report["D-via-u0-limit"] = D0 == derham_D(k)
    report["Dring"] = Dring

    # -- d_k via theta/rho-conjugated block diagonalization (u -> 1) --
    full = _pairing_limit(2 * k, 1)  # (2k) x (2k) limit matrix
    # margin rows/columns vanish in the limit
    zero_row = all(full.at(2 * k, b) == 0 for b in range(1, 2 * k + 1))
    zero_col = all(full.at(a, 2 * k) == 0 for a in range(1, 2 * k + 1))
    report["d-limit-margin-zero"] = zero_row and zero_col
    theta_inv = exact_inverse(aux_matrix("theta", k))
    rho = aux_matrix("rho", k)
    Y = (theta_inv.T @ rho @ full @ rho.T @ theta_inv).scale(
        Fraction(1, 8 * (k + 1) * (-1) ** (k - 1))
    )
    tl, tr, bl, br = _split_blocks(Y, k)
    scale = Fraction(1, k + 1) ** 2
    report["d-via-conjugation"] = (
        tl == derham_d(k).scale(scale)
        and tr == ExactMatrix.zeros(k, k - 1)
        and bl == ExactMatrix.zeros(k - 1, k)
        and br == derham_d(k - 1)
    )

    # -- d_{k-1} and ringed-d_{k-1} via the u -> 0 limit of V_{2k-1} --
    d0, dring = _derham_dring_blocks(k - 1)
    report["d-via-u0-limit"] = d0 == derham_d(k - 1)
    report["dring"] = dring

    report["ok"] = all(
        report[key]
        for key in (
            "D-via-conjugation",
            "D-via-u0-limit",
            "d-limit-margin-zero",
            "d-via-conjugation",
            "d-via-u0-limit",
        )
    )
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


@dataclass(frozen=True)
class Surd:
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

    def __mul__(self, other: "Surd") -> "Surd":
        rad = self.radicand * other.radicand
        s, r = _squarefree_split(rad)
        return Surd(
            self.rational * other.rational * s, r, self.pi_power + other.pi_power
        )

    def to_mpf(self, mp):
        """Numeric value using an mpmath context."""
        return (
            mp.mpf(self.rational.numerator)
            / mp.mpf(self.rational.denominator)
            * mp.sqrt(mp.mpf(self.radicand))
            * mp.pi ** self.pi_power
        )


@dataclass(frozen=True)
class NamedConstant:
    """A named closed-form constant: rational * sqrt(radicand) * pi^pi_power."""

    name: str
    k: int
    rational: Fraction
    radicand: int
    pi_power: int

    @property
    def value(self) -> Surd:
        return Surd(self.rational, self.radicand, self.pi_power)


def _lambda_odd(k: int) -> Fraction:
    val = Fraction(k, 2 * k + 1) * (-1) ** (((k - 1) * (k - 2) // 2) % 2)
    val *= Fraction(2) ** (-k * (2 * k - 3))
    val *= Fraction(factorial(2 * k)) ** (2 * k - 1)
    for n in range(1, 2 * k + 1):
        val /= Fraction(n) ** n
    return val


def _lambda_even(k: int) -> Fraction:
    val = Fraction(2 * k + 1, 2 * (k + 1)) * (-1) ** ((k * (k - 1) // 2) % 2)
    val *= Fraction(2) ** (-(2 * k - 1) * k)
    val *= Fraction(factorial(2 * k + 1)) ** (2 * k)
    for n in range(1, 2 * k + 2):
        val /= Fraction(n) ** n
    return val


def _det_M(k: int) -> Surd:
    # sqrt((2j+1)^{2j+1}) = (2j+1)^j sqrt(2j+1), so each factor is
    # (2j)^{k-j} / (2j+1)^{j+1} * sqrt(2j+1) * pi^j.
    out = Surd(Fraction(1))
    for j in range(1, k + 1):
        out = out * Surd.of(
            Fraction((2 * j) ** (k - j), (2 * j + 1) ** (j + 1)),
            2 * j + 1,
            j,
        )
    return out


def _det_N(k: int) -> Surd:
    prod = Fraction(1)
    for j in range(1, k + 2):
        prod *= Fraction((2 * j - 1) ** (k + 1 - j), (2 * j) ** j)
    if k % 2 == 1:
        # Gamma((k+1)/2) = ((k-1)/2)! and the pi exponent is an integer.
        gamma = Fraction(factorial((k - 1) // 2))
        return Surd.of(2 * prod / gamma, 1, (k + 1) ** 2 // 2)
    # Gamma(j0 + 1/2) = (2 j0)! sqrt(pi) / (4^j0 j0!) with j0 = k/2.
    j0 = k // 2
    gamma_rat = Fraction(factorial(2 * j0), 4 ** j0 * factorial(j0))
    return Surd.of(
        2 * prod / gamma_rat, 1, ((k + 1) ** 2 - 1) // 2
    )


def _det_betti(k: int) -> Fraction:
    return (
        Fraction((-1) ** (k - 1) * factorial(2 * k - 1))
        * _lambda_odd(k)
        / Fraction(2) ** (5 * k - 1)
    )


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


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


NAMED_CONSTANTS = (
    "LambdaOdd",
    "lambdaEven",
    "detM_formula",
    "detN_formula",
    "detBetti_formula",
    "detBettiMinorEven",
)


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
    if name == "LambdaOdd":
        return NamedConstant(name, k, _lambda_odd(k), 1, 0)
    if name == "lambdaEven":
        return NamedConstant(name, k, _lambda_even(k), 1, 0)
    if name == "detM_formula":
        s = _det_M(k)
        return NamedConstant(name, k, s.rational, s.radicand, s.pi_power)
    if name == "detN_formula":
        s = _det_N(k)
        return NamedConstant(name, k, s.rational, s.radicand, s.pi_power)
    if name == "detBetti_formula":
        return NamedConstant(name, k, _det_betti(k), 1, 0)
    if name == "detBettiMinorEven":
        return NamedConstant(name, k, _det_betti_minor_even(k), 1, 0)
    raise ValueError(f"unknown named constant {name!r}; "
                     f"expected one of {NAMED_CONSTANTS}")


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


def _is_block_diag(M: ExactMatrix, top: int, A: ExactMatrix, D: ExactMatrix) -> bool:
    tl, tr, bl, br = _split_blocks(M, top)
    n_hi = M.rows - top
    return (
        tl == A
        and br == D
        and tr == ExactMatrix.zeros(top, n_hi)
        and bl == ExactMatrix.zeros(n_hi, top)
    )


@cache
def verify_block_identities(k: int) -> dict:
    """Exact verification of the block identities tying Sigma/sigma, the
    S matrices, the Bernoulli matrices and their ringed companions.

    Requires k >= 2 (several identities involve the (k-1)-indexed
    matrices).  Returns a dict of named booleans plus an overall "ok".
    """
    if k < 2:
        raise ValueError("verify_block_identities requires k >= 2")
    report: dict = {"k": k}

    Sigma = matSigma(k)
    sigma = matsigma(k)
    Sigma_inv = matSigmaInvBernoulli(k)
    sigma_inv = matsigmaInvBernoulli(k)
    report["SigmaInv-closed-form"] = Sigma_inv == exact_inverse(Sigma)
    report["sigmaInv-closed-form"] = sigma_inv == exact_inverse(sigma)

    A = aux_matrix("A", k)
    Phi = aux_matrix("Phi", k)
    phi = aux_matrix("phi", k)
    psi = aux_matrix("psi", k)
    R = aux_matrix("R", k)
    A_inv = exact_inverse(A)
    Phi_inv = exact_inverse(Phi)
    R_inv = exact_inverse(R)

    S_k, S_km1 = frakS(k), frakS(k - 1)
    Sring_k = frakSring(k)
    B_k, B_km1 = betti_B(k), betti_B(k - 1)
    b_k, b_km1 = betti_b(k), betti_b(k - 1)
    Bring_k = betti_Bring(k)
    bring_k = betti_bring(k)

    # Sigma block-diagonalizes to S_k and S_{k-1}
    lhs = Phi_inv @ A_inv @ Sigma @ A_inv.T @ Phi_inv.T
    report["Sigma-block-diag"] = _is_block_diag(
        lhs,
        k,
        S_k.scale(Fraction((2 * k + 1) * (-1) ** (k - 1), 2 ** 4)),
        S_km1.scale(Fraction((-1) ** (k - 1), 2 ** 2 * (2 * k + 1))),
    )

    # R-conjugation of sigma exposes ringed-S and S
    lhs = R_inv.T @ sigma @ R_inv
    tl, tr, bl, br = _split_blocks(lhs, k)
    c = Fraction((-1) ** k, 2 ** 3)
    report["R-sigma-block"] = (
        tl == Sring_k.scale(c)
        and tr == S_k.scale(-c)
        and bl == S_k.scale(c)
        and br == ExactMatrix.zeros(k, k)
    )

    # Sigma^{-1} block-diagonalizes to B_k and B_{k-1}
    lhs = Phi.T @ A.T @ Sigma_inv @ A @ Phi
    report["SigmaInv-block-diag"] = _is_block_diag(
        lhs,
        k,
        B_k.scale(Fraction(2 ** 4 * (-1) ** (k - 1), 2 * k + 1)),
        B_km1.scale(Fraction(2 ** 2 * (2 * k + 1) * (-1) ** (k - 1))),
    )

    # sigma^{-1} block-diagonalizes to b_k and b_{k-1}
    lhs = phi.T @ A.T @ psi.T @ sigma_inv @ psi @ A @ phi
    report["sigmaInv-block-diag"] = _is_block_diag(
        lhs,
        k,
        b_k.scale(Fraction(2 ** 4 * (-1) ** (k - 1), 2 * k + 2)),
        b_km1.scale(Fraction(2 ** 2 * (2 * k + 2) * (-1) ** (k - 1))),
    )

    # R-conjugation of sigma^{-1} exposes B and ringed-B
    lhs = R @ sigma_inv @ R.T
    tl, tr, bl, br = _split_blocks(lhs, k)
    c = Fraction((-1) ** k * 2 ** 3)
    report["R-BernoulliInv-block"] = (
        tl == ExactMatrix.zeros(k, k)
        and tr == B_k.scale(c)
        and bl == B_k.scale(-c)
        and br == Bring_k.scale(c)
    )

    # B = S^{-1} and ringed-B = B ringed-S B
    report["Betti-inverse-of-frakS"] = B_k == exact_inverse(S_k)
    report["Bring-from-Sring"] = Bring_k == B_k @ Sring_k @ B_k
    # the even-family ringed pair obeys the same conjugation through R
    # (checked above); also cross-check bring against the d-family via
    # sigma^{-1}: R b-block identity is the only closed-form tie, so no
    # further identity is asserted for bring here.

    # S recursion in k
    ok = True
    S_kp1 = frakS(k + 1)
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            lhs_v = Fraction(4, 2 * k + 2 - b) * S_k.at(a, b)
            rhs_v = (
                Fraction(_even_gate(a) * _msign(a // 2))
                * binom_ext(k + 1, a + 1)
                * S_kp1.at(1, b + 1)
                - (2 * k + 2 - a) * S_kp1.at(a + 1, b + 1)
            )
            ok = ok and lhs_v == rhs_v
    report["frakS-recursion"] = ok

    # S first row closed form
    ok = True
    for b in range(1, k + 1):
        expect = (
            Fraction(4 ** (k + 1) * (2 * k + 1), factorial(k) ** 2)
            * _even_gate(b + 1)
            * _msign(b // 2)
            * binom_ext(k, b)
            / (2 * k + 1 - b)
        )
        ok = ok and S_k.at(1, b) == expect
    report["frakS-first-row"] = ok

    # ringed-S recursion over the extended index range a, b in [-1, k]
    ok = True
    for a in range(-1, k + 1):
        for b in range(-1, k + 1):
            lhs_v = Fraction(4, 2 * k + 2 - b) * frakSring_entry(k, a, b)
            rhs_v = (
                -Fraction(4 ** (k + 2) * (2 * k + 3), factorial(k + 1) ** 2)
                * _even_gate(a + b + 1)
                * _msign(a // 2 + (b + 1) // 2)
                * binom_ext(k + 1, a + 1)
                * binom_ext(k + 1, b + 1)
                / (2 * k + 2 - b)
                - (2 * k + 2 - a) * frakSring_entry(k + 1, a + 1, b + 1)
            )
            ok = ok and lhs_v == rhs_v
    report["frakSring-recursion"] = ok

    # ringed-S margin rows/columns
    ok = True
    for b in range(-1, k + 1):
        expect = (
            Fraction(_even_gate(b + 1), 2 * k + 1 - b)
            * 4 ** (k + 1)
            * _msign(b // 2)
            * recip_fact_ext(b)
            * recip_fact_ext(k)
            * recip_fact_ext(k - b)
        )
        ok = ok and frakSring_entry(k, 0, b) == expect
        ok = ok and frakSring_entry(k, b, 0) == -expect
        ok = ok and frakSring_entry(k, -1, b) == 0
        ok = ok and frakSring_entry(k, b, -1) == 0
    report["frakSring-margins"] = ok

    # last column of beta_{2k}^{-1} is concentrated in its corner
    binv = exact_inverse(beta_matrix(2 * k, 1))
    ok = True
    for a in range(1, 2 * k + 1):
        expect = (
            Fraction((-1) ** (k - 1), 2 ** (2 * k - 1)) if a == 2 * k else Fraction(0)
        )
        ok = ok and binv.at(a, 2 * k) == expect
    report["beta-inverse-margin"] = ok

    report["ok"] = all(v for key, v in report.items() if key != "k" and isinstance(v, bool))
    return report


# ---------------------------------------------------------------------------
# Family dispatch and JSON serialization
# ---------------------------------------------------------------------------

MATRIX_FAMILIES: Dict[str, Callable[..., ExactMatrix]] = {
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


def matrix_family(name: str, k: int, u: Fraction | None = None) -> ExactMatrix:
    """Construct a named matrix family member.

    ``u`` is accepted only by the ``Beta`` family (it selects the
    evaluation point; ``None`` keeps the symbolic Q(u) matrix).
    """
    if name not in MATRIX_FAMILIES:
        raise ValueError(f"unknown matrix family {name!r}; "
                         f"expected one of {sorted(MATRIX_FAMILIES)}")
    if name == "Beta":
        return beta_matrix(k, u)
    if u is not None:
        raise ValueError(f"family {name!r} does not take an evaluation point")
    return MATRIX_FAMILIES[name](k)


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


def matrix_to_json(name: str, k: int, M: ExactMatrix) -> dict:
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


def matrix_from_json(d: dict) -> Tuple[str, int, ExactMatrix]:
    """Inverse of matrix_to_json."""
    ring = d["ring"]
    rows = []
    for row in d["entries"]:
        out_row = []
        for e in row:
            if ring == "Q":
                out_row.append(Fraction(e))
            else:
                out_row.append(
                    RatFunc(_poly_from_str(e["num"]), _poly_from_str(e["den"]))
                )
        rows.append(out_row)
    return d["name"], d["k"], ExactMatrix(rows)
