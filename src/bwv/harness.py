"""Verification harness: exact and numeric check suites with
machine-readable reports.

The exact suite exercises the operator and matrix layers over Q and
Q[u], and forms no rational function: operator structure, the
Verrill-polynomial recursion, matrix (skew-)symmetries, the
Bernoulli-entry inverses, block identities, determinant corollaries, the
alternative routes to the de Rham matrices, the frozen reference tables,
and the symmetric-power duality.
Every check is an exact equality, so a failure is a hard mismatch.

The numeric suite evaluates moment integrals at a requested precision
and checks the quadratic relations, determinant closed forms, off-shell
Wronskian identities, reflection formulae and sum rules.  A numeric
check passes when its max-abs residual is below ``tolerance(digits)``.

The quadratic relations come in an odd and an even family, p = 0 and
p = 1 at weight w = 2k + 1 + p; ``_FAMILIES`` holds one row per parity.
The determinant, quadratic and ringed checks each take p, and the exact
symmetry, Bernoulli-inverse and Lambda/lambda checks loop over the rows.
The normalized period determinant carries pi^{-k(k+1+p)/2}, the sum of
the row weights a - k - 1 - p/2.

The numeric layer (``besselnum`` and mpmath) is imported inside the
functions that run numeric checks, so the exact suite and the report
types load only the exact layers.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence

from . import __version__, brmatrices
from .brmatrices import (
    _double_factorial,
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
    matSigma,
    matSigmaInvBernoulli,
    matV,
    matsigma,
    matsigmaInvBernoulli,
    named_constant,
    top_coeff,
    verify_block_identities,
)
from .exactalg import ExactMatrix, exact_inverse
from .vanhove import (
    check_vanhove_structure,
    vanhove_operator,
    verify_bms_duality,
    verify_verrill_recursion,
)

__all__ = [
    "CheckResult",
    "Report",
    "REPORT_SCHEMA_VERSION",
    "report_from_json",
    "report_to_json",
    "run_all",
    "run_exact_suite",
    "run_numeric_suite",
]

REPORT_SCHEMA_VERSION = 1

STATUSES = ("pass", "fail", "skipped", "error")


class CheckResult:
    """Outcome of a single verification check; its fields can be set, and
    two results are equal when all their fields are."""

    __slots__ = ("check_id", "status", "residual", "digits", "runtime_ms",
                 "refs", "error")

    def __init__(self, check_id: str, status: str,
                 residual: Optional[str] = None, digits: Optional[int] = None,
                 runtime_ms: int = 0, refs: Optional[List[str]] = None,
                 error: Optional[str] = None):
        self.check_id = check_id
        self.status = status
        self.residual = residual  # decimal string, numeric checks only
        self.digits = digits
        self.runtime_ms = runtime_ms
        self.refs = [] if refs is None else refs
        self.error = error  # "ExcType: message" when status is error

    def __eq__(self, other) -> bool:
        if type(other) is not CheckResult:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return "CheckResult(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"

    def to_dict(self) -> dict:
        out = {
            "check_id": self.check_id,
            "status": self.status,
            "residual": self.residual,
            "digits": self.digits,
            "runtime_ms": self.runtime_ms,
            "refs": list(self.refs),
        }
        if self.status == "error":
            out["error"] = self.error
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "CheckResult":
        return cls(
            check_id=d["check_id"],
            status=d["status"],
            residual=d.get("residual"),
            digits=d.get("digits"),
            runtime_ms=d.get("runtime_ms", 0),
            refs=list(d.get("refs", [])),
            error=d.get("error"),
        )


class Report(NamedTuple):
    """A suite run: tool version, configuration echo, check results."""

    version: str
    config: dict
    checks: List[CheckResult]

    @property
    def summary(self) -> dict:
        out = {s: 0 for s in STATUSES}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def ok(self) -> bool:
        s = self.summary
        return s["fail"] == 0 and s["error"] == 0

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA_VERSION,
            "version": self.version,
            "config": dict(self.config),
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Report":
        # Unknown top-level fields are ignored by design.
        return cls(
            version=d["version"],
            config=dict(d.get("config", {})),
            checks=[CheckResult.from_dict(c) for c in d.get("checks", [])],
        )


def report_to_json(report: Report) -> str:
    return json.dumps(report.to_dict(), indent=2)


def report_from_json(text: str) -> Report:
    return Report.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# check runners
# ---------------------------------------------------------------------------


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_exact(check_id: str, refs: Sequence[str],
               fn: Callable[[], bool]) -> CheckResult:
    t0 = time.perf_counter()
    error = None
    try:
        ok = bool(fn())
        status = "pass" if ok else "fail"
    except Exception as exc:
        status, error = "error", _describe(exc)
    ms = int(round(1000 * (time.perf_counter() - t0)))
    return CheckResult(check_id, status, None, None, ms, list(refs), error)


def _run_numeric(check_id: str, refs: Sequence[str], digits: int,
                 fn: Callable[[], object]) -> CheckResult:
    """Run fn at guarded precision; fn returns the max-abs residual."""
    from mpmath import mp

    from .besselnum import GUARD_DIGITS, tolerance

    t0 = time.perf_counter()
    residual = error = None
    try:
        with mp.workdps(digits + GUARD_DIGITS):
            res = mp.mpf(fn())
            residual = mp.nstr(res, 8)
            status = "pass" if res < tolerance(digits) else "fail"
    except Exception as exc:
        status, error = "error", _describe(exc)
    ms = int(round(1000 * (time.perf_counter() - t0)))
    return CheckResult(check_id, status, residual, digits, ms, list(refs),
                       error)


# ---------------------------------------------------------------------------
# frozen reference tables (Betti and de Rham matrices, k = 2..5)
# ---------------------------------------------------------------------------

F = Fraction
_M = ExactMatrix

TABLE_BETTI_B = {
    2: _M([[F(1, 80), 0], [0, F(-3, 64)]]),
    3: _M([
        [F(15, 224), 0, F(3, 32)],
        [0, F(-5, 64), 0],
        [F(3, 32), 0, F(3, 16)],
    ]),
    4: _M([
        [F(21, 16), 0, F(15, 16), 0],
        [0, F(-105, 128), 0, F(-105, 128)],
        [F(15, 16), 0, F(45, 64), 0],
        [0, F(-105, 128), 0, F(-75, 64)],
    ]),
    5: _M([
        [F(23625, 352), 0, F(945, 32), 0, F(675, 32)],
        [0, F(-1701, 64), 0, F(-945, 64), 0],
        [F(945, 32), 0, F(105, 8), 0, F(315, 32)],
        [0, F(-945, 64), 0, F(-2205, 256), 0],
        [F(675, 32), 0, F(315, 32), 0, F(675, 64)],
    ]),
}

TABLE_DERHAM_D = {
    2: _M([[F(13, 8), F(225, 64)], [F(225, 64), 0]]),
    3: _M([
        [F(51, 16), F(2589, 32), F(11025, 256)],
        [F(2589, 32), F(11025, 256), 0],
        [F(11025, 256), 0, 0],
    ]),
    4: _M([
        [F(21, 4), F(60519, 64), F(1270215, 256), F(893025, 1024)],
        [F(60519, 64), F(106497, 128), F(893025, 1024), 0],
        [F(1270215, 256), F(893025, 1024), 0, 0],
        [F(893025, 1024), 0, 0, 0],
    ]),
    5: _M([
        [F(125, 16), F(65679, 8), F(25484133, 128),
         F(322307685, 1024), F(108056025, 4096)],
        [F(65679, 8), F(2475315, 256), F(64674153, 1024),
         F(108056025, 4096), 0],
        [F(25484133, 128), F(64674153, 1024), F(108056025, 4096), 0, 0],
        [F(322307685, 1024), F(108056025, 4096), 0, 0, 0],
        [F(108056025, 4096), 0, 0, 0, 0],
    ]),
}

TABLE_BETTI_b = {
    2: _M([[0, F(1, 32)], [F(-1, 32), 0]]),
    3: _M([
        [0, F(15, 64), 0],
        [F(-15, 64), 0, F(-15, 64)],
        [0, F(15, 64), 0],
    ]),
    4: _M([
        [0, F(189, 32), 0, F(135, 32)],
        [F(-189, 32), 0, F(-105, 32), 0],
        [0, F(105, 32), 0, F(315, 128)],
        [F(-135, 32), 0, F(-315, 128), 0],
    ]),
    5: _M([
        [0, F(23625, 64), 0, F(10395, 64), 0],
        [F(-23625, 64), 0, F(-8505, 64), 0, F(-4725, 64)],
        [0, F(8505, 64), 0, F(945, 16), 0],
        [F(-10395, 64), 0, F(-945, 16), 0, F(-2205, 64)],
        [0, F(4725, 64), 0, F(2205, 64), 0],
    ]),
}

TABLE_DERHAM_d = {
    2: _M([[0, -18], [18, 0]]),
    3: _M([[0, -288, -576], [288, 0, 0], [576, 0, 0]]),
    4: _M([
        [0, F(-11421, 4), -33807, -21600],
        [F(11421, 4), 0, -7200, 0],
        [33807, 7200, 0, 0],
        [21600, 0, 0, 0],
    ]),
    5: _M([
        [0, -22608, -1059156, -3485808, -1036800],
        [22608, 0, -388800, -518400, 0],
        [1059156, 388800, 0, 0, 0],
        [3485808, 518400, 0, 0, 0],
        [1036800, 0, 0, 0, 0],
    ]),
}


# ---------------------------------------------------------------------------
# parity families
# ---------------------------------------------------------------------------


class _Family(NamedTuple):
    """One parity of the Betti and de Rham data: p = 0 is the odd family
    (Sigma_{2k-1}, Lambda_{2k-1}, M_k, D_k, B_k), p = 1 the even family
    (sigma_{2k}, lambda_{2k}, N_k, d_k, b_k), at weight w = 2k + 1 + p.
    The moment matrices are named by their ``besselnum`` builders, which
    load with the numeric layer."""

    letter: str
    sigma: Callable
    sigma_inv: Callable
    lambda_name: str
    mat: str
    mat_ring: str
    derham: Callable
    derham_ring: Callable
    betti: Callable
    betti_ring: Callable
    det_name: str


_FAMILIES = (
    _Family("M", matSigma, matSigmaInvBernoulli, "LambdaOdd", "matM",
            "matMring", derham_D, derham_Dring, betti_B, betti_Bring,
            "detM_formula"),
    _Family("N", matsigma, matsigmaInvBernoulli, "lambdaEven", "matN",
            "matNring", derham_d, derham_dring, betti_b, betti_bring,
            "detN_formula"),
)


# ---------------------------------------------------------------------------
# exact suite
# ---------------------------------------------------------------------------


def _check_symmetry(k: int) -> bool:
    # V_{2k-1} = W_{2k-1} / ell and upsilon_{2k} = W_{2k} / ell with
    # ell = ell_{m,m} != 0, so V is symmetric and upsilon skew exactly when
    # their polynomial numerators W_m (``brmatrices._wmat``) are; W_m is
    # integral, so its entries compare by their numerators.  Sigma is
    # symmetric and sigma skew in the same way.
    for p, fam in enumerate(_FAMILIES):
        W = brmatrices._wmat(2 * k - 1 + p)
        if any(W[a][b].nums != tuple(-x if p else x for x in W[b][a].nums)
               for a in range(len(W)) for b in range(a + 1)):
            return False
        S = fam.sigma(k)
        if S != (-S.T if p else S.T):
            return False
    return True


def _check_bernoulli_inverse(k: int) -> bool:
    return all(fam.sigma_inv(k) @ fam.sigma(k) == ExactMatrix.identity(
        2 * k - 1 + p) for p, fam in enumerate(_FAMILIES))


def _check_table1(k: int) -> bool:
    return (
        betti_B(k) == TABLE_BETTI_B[k]
        and betti_b(k) == TABLE_BETTI_b[k]
        and derham_D(k) == TABLE_DERHAM_D[k]
        and derham_d(k) == TABLE_DERHAM_d[k]
    )


def _check_det_corollaries(k: int) -> bool:
    # Lambda^2 det Sigma = 1 and lambda^2 det sigma = 1.
    for fam in _FAMILIES:
        lam = named_constant(fam.lambda_name, k).rational
        if lam * lam * fam.sigma(k).det() != 1:
            return False
    # det B_k closed form; det b_k = 0 for odd k.
    if betti_B(k).det() != named_constant("detBetti_formula", k).rational:
        return False
    if k % 2 == 1 and betti_b(k).det() != 0:
        return False
    mins = betti_minors(k)
    if not (mins["det_product_ok"] and mins["det_even_formula_ok"]):
        return False
    # Anti-diagonal of D_k is ((2k+1)!!/2^{k+1})^2, zero below it.
    D = derham_D(k)
    anti = Fraction(_double_factorial(2 * k + 1), 2 ** (k + 1)) ** 2
    for a in range(1, k + 1):
        if D.at(a, k + 1 - a) != anti:
            return False
        for b in range(k + 2 - a, k + 1):
            if D.at(a, b) != 0:
                return False
    return True


def run_exact_suite(max_k: int = 5) -> Report:
    """Run the exact (rational-arithmetic) verification suite.

    ``max_k`` bounds the matrix sizes: operator structure is checked for
    orders up to 2*max_k - 1, and the Verrill recursion for every order
    the suite builds, up to 2*max_k + 2.  All checks are exact identities.
    """
    if max_k < 2:
        raise ValueError("run_exact_suite requires max_k >= 2")
    checks: List[CheckResult] = []

    def add(check_id, refs, fn):
        checks.append(_run_exact(check_id, refs, fn))

    for m in range(1, 2 * max_k):
        add(f"operator-structure-m{m}", ["vanhove.check_vanhove_structure"],
            lambda m=m: all(
                check_vanhove_structure(vanhove_operator(m)).values()))

    # route A's chain recursion against the Bessel power numbers, at every
    # order the suite builds
    add("verrill-recursion", ["vanhove.verify_verrill_recursion"],
        lambda: all(
            all(verify_verrill_recursion(m, 12).values())
            for m in range(1, 2 * max_k + 3)))

    for n in range(1, 5):
        add(f"bms-duality-n{n}", ["vanhove.verify_bms_duality"],
            lambda n=n: all(verify_bms_duality(n, 14).values()))

    for k in range(2, max_k + 1):
        add(f"symmetry-k{k}", ["brmatrices.matV", "brmatrices.matSigma"],
            lambda k=k: _check_symmetry(k))
        add(f"bernoulli-inverse-k{k}", ["brmatrices.matSigmaInvBernoulli"],
            lambda k=k: _check_bernoulli_inverse(k))
        add(f"block-identities-k{k}", ["brmatrices.verify_block_identities"],
            lambda k=k: all(verify_block_identities(k).values()))
        add(f"derham-alternatives-k{k}", ["brmatrices.derham_alternatives"],
            lambda k=k: all(derham_alternatives(k).values()))
        add(f"det-corollaries-k{k}", ["brmatrices.named_constant",
                                      "brmatrices.betti_minors"],
            lambda k=k: _check_det_corollaries(k))
        if k <= 5:
            add(f"table-reference-k{k}", ["harness.TABLE_BETTI_B"],
                lambda k=k: _check_table1(k))

    config = {"suite": "exact", "max_k": max_k}
    return Report(__version__, config, checks)


# ---------------------------------------------------------------------------
# numeric suite
# ---------------------------------------------------------------------------


def _max_abs(M):
    """The largest |entry| of an mpmath matrix."""
    return max(abs(x) for x in M)


def _moment_matrix(name: str, k: int, digits: int):
    """The ``besselnum`` moment matrix builder ``name`` at k."""
    from . import besselnum

    return getattr(besselnum, name)(k, digits)


def _det_check(p: int, k: int, digits: int):
    # det of the normalized matrix: the closed form times
    # pi^{-k(k+1+p)/2} (normalization: the sum of the row weights
    # a - k - 1 - p/2) times (-1)^{k(k-1)/2} (column signs).
    import mpmath
    from mpmath import mp

    from .besselnum import _to_mpf

    fam = _FAMILIES[p]
    c = named_constant(fam.det_name, k).value.to_mpf(mp)
    expect = c * mp.pi ** _to_mpf(F(-k * (k + 1 + p), 2))
    expect *= (-1) ** ((k * (k - 1) // 2) % 2)
    return abs(mpmath.det(_moment_matrix(fam.mat, k, digits)) - expect)


def _quad_check(p: int, k: int, digits: int):
    from .besselnum import _to_mpf_matrix

    fam = _FAMILIES[p]
    P = _moment_matrix(fam.mat, k, digits)
    R = (P * _to_mpf_matrix(fam.derham(k)) * P.T
         - _to_mpf_matrix(fam.betti(k)))
    return _max_abs(R)


def _ringed_quad_check(p: int, k: int, digits: int):
    from mpmath import mp

    from .besselnum import _to_mpf_matrix

    fam = _FAMILIES[p]
    P = _moment_matrix(fam.mat, k, digits)
    Pr = _moment_matrix(fam.mat_ring, k, digits)
    D = _to_mpf_matrix(fam.derham(k))
    R = (P * _to_mpf_matrix(fam.derham_ring(k)) * P.T
         - mp.pi * _to_mpf_matrix(fam.betti_ring(k))
         - Pr * D * P.T + P * D * Pr.T)
    return _max_abs(R)


def _offshell_cov_check(u: Fraction, digits: int):
    # Omega Sigma Omega^T = V(u)^{-1} / |m_3(u)| for the k=2 odd family.
    from .besselnum import _to_mpf, _to_mpf_matrix, matOmega

    m3 = abs(top_coeff(3).eval(u))
    O = matOmega(2, u, digits)
    Vinv = _to_mpf_matrix(exact_inverse(matV(2).eval(u)))
    R = O * _to_mpf_matrix(matSigma(2)) * O.T - Vinv / _to_mpf(m3)
    return _max_abs(R)


def _offshell_inv_check(u: Fraction, digits: int):
    # Transposed form: Omega^T V(u) Omega = Sigma^{-1} / |m_3(u)|.
    from .besselnum import _to_mpf, _to_mpf_matrix, matOmega

    m3 = abs(top_coeff(3).eval(u))
    O = matOmega(2, u, digits)
    Sinv = _to_mpf_matrix(matSigmaInvBernoulli(2))
    R = O.T * _to_mpf_matrix(matV(2).eval(u)) * O - Sinv / _to_mpf(m3)
    return _max_abs(R)


def _offshell_det_check(u: Fraction, digits: int):
    # det Omega_3(u) * |m_3(u)|^{3/2} = Lambda_3 = 1/20.
    import mpmath
    from mpmath import mp

    from .besselnum import _to_mpf, matOmega

    m3 = abs(top_coeff(3).eval(u))
    O = matOmega(2, u, digits)
    lam = _to_mpf(named_constant("LambdaOdd", 2).rational)
    return abs(mpmath.det(O) * _to_mpf(m3) ** mp.mpf("1.5") - lam)


def _reflection_check(k: int, digits: int):
    """Reflection formula between the even- and odd-index minor
    determinants of the threshold matrix, including the surd prefactor
    and its sign."""
    import mpmath
    from mpmath import mp

    from .besselnum import family_moments

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
    from .besselnum import family_moments

    vals = family_moments([(1, False, k, j, ell) for ell, j in lj], 1, digits)
    return {(ell, j): (-1) ** (ell - 1) * v for (ell, j), v in zip(lj, vals)}


def _sumrule_N3_linear_check(digits: int):
    s = _signed_nu(3, [(l, j) for l in (1, 2, 3) for j in (1, 3)], digits)
    r1 = abs(s[(1, 1)] - s[(1, 3)])
    r2 = abs((s[(2, 1)] + 2 * s[(3, 1)]) - (s[(2, 3)] + 2 * s[(3, 3)]))
    return max(r1, r2)


def _sumrule_N3_det_check(digits: int):
    from .besselnum import _to_mpf

    s = _signed_nu(3, [(l, j) for l in (1, 2, 3) for j in (2, 3)], digits)
    det = (s[(1, 2)] * (s[(2, 3)] + 2 * s[(3, 3)])
           - (s[(2, 2)] + 2 * s[(3, 2)]) * s[(1, 3)])
    return abs(det - _to_mpf(F(5, 6144)))


def _sumrule_N5_check(digits: int):
    # Linear sum rules for the k=5 threshold matrix, in signed-entry
    # convention: c_l := 3 s_{1,l} - 10 s_{3,l} + 3 s_{5,l} with
    # s_{j,l} = (-1)^{l-1} nu^l_{5,j}(1).
    from mpmath import mp

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
    from mpmath import mp

    from .besselnum import family_moments

    lhs, m11, m32, m12, m31 = family_moments(
        [(0, False, 3, j, l) for j, l in ((2, 1), (1, 1), (3, 2), (1, 2),
                                         (3, 1))], 1, digits)
    # Signed entries (-1)^{b-1}: the b=2 column flips, so the signed
    # determinant is minus the unsigned one.
    det = -(m11 * m32 - m12 * m31)
    pref = -mp.mpf("0.25") * mp.sqrt(mp.mpf(5 ** 3) * 7 ** 3 / 3)
    return abs(lhs - pref * det)


def _bologna_check(digits: int):
    from mpmath import mp

    from .besselnum import _to_mpf, bologna, matM

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
    from mpmath import mp

    from .besselnum import moment_value

    v = moment_value("IKM", 1, 2, 1, None, digits)
    return abs(v - mp.pi / (3 * mp.sqrt(3)))


def _blocktridiag_check(digits: int):
    # beta_3(1) Omega_3(1) A_3 block structure for k=2: the top-left
    # block is the transposed threshold matrix, the top-right block
    # vanishes, the bottom-right block is minus the k=1 matrix, and the
    # bottom-left row matches the differentiated-moment closed form.
    from .besselnum import _to_mpf, _to_mpf_matrix, family_moments, matM, matOmega

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
    from mpmath import mp

    from .besselnum import family_moments

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


def run_numeric_suite(max_k: int = 3, digits: int = 50,
                      extended: bool = False) -> Report:
    """Run the numeric verification suite at the requested precision."""
    if max_k < 2:
        raise ValueError("run_numeric_suite requires max_k >= 2")
    if digits < 30:
        raise ValueError("run_numeric_suite requires digits >= 30")

    checks: List[CheckResult] = []

    def run(check_id, refs, fn):
        checks.append(_run_numeric(check_id, refs, digits, fn))

    run("classical-ikm-1-2-1", ["besselnum.moment"],
        lambda: _classical_check(digits))
    run("bologna-M2", ["besselnum.matM", "besselnum.bologna"],
        lambda: _bologna_check(digits))

    det_ks = list(range(1, max_k + 1))
    if extended and 4 not in det_ks:
        det_ks.append(4)
    for k in det_ks:
        for p, fam in enumerate(_FAMILIES):
            run(f"bm-det-{fam.letter}-k{k}",
                [f"besselnum.{fam.mat}", "brmatrices.named_constant"],
                lambda p=p, k=k: _det_check(p, k, digits))

    for k in range(2, max_k + 1):
        for p, fam in enumerate(_FAMILIES):
            run(f"quad-{fam.letter}-k{k}",
                [f"besselnum.{fam.mat}",
                 f"brmatrices.{fam.derham.__name__}"],
                lambda p=p, k=k: _quad_check(p, k, digits))

    for u in (F(1, 4), F(1, 2)):
        run(f"offshell-cov-k2-u{u}", ["besselnum.matOmega",
                                      "brmatrices.matSigma"],
            lambda u=u: _offshell_cov_check(u, digits))
        run(f"offshell-inv-k2-u{u}", ["besselnum.matOmega",
                                      "brmatrices.matV"],
            lambda u=u: _offshell_inv_check(u, digits))
        run(f"offshell-det-k2-u{u}", ["besselnum.matOmega",
                                      "brmatrices.named_constant"],
            lambda u=u: _offshell_det_check(u, digits))

    for k in (2, 3):
        run(f"reflection-k{k}", ["besselnum.family_moments"],
            lambda k=k: _reflection_check(k, digits))

    run("sumrule-N3-linear", ["besselnum.family_moments"],
        lambda: _sumrule_N3_linear_check(digits))
    run("sumrule-N3-det", ["besselnum.family_moments"],
        lambda: _sumrule_N3_det_check(digits))
    run("bessel7-minor", ["besselnum.family_moments"],
        lambda: _bessel7_check(digits))

    run("ibp-sanity-k2", ["besselnum.family_moments"],
        lambda: _ibp_check(2, digits))
    run("blocktridiag-k2", ["besselnum.matOmega", "brmatrices.beta_matrix"],
        lambda: _blocktridiag_check(digits))

    if extended:
        for p, fam in enumerate(_FAMILIES):
            run(f"ringed-quad-{fam.letter}-k2",
                [f"besselnum.{fam.mat_ring}"],
                lambda p=p: _ringed_quad_check(p, 2, digits))
        run("sumrule-N5-linear", ["besselnum.family_moments"],
            lambda: _sumrule_N5_check(digits))
        run("ibp-sanity-k3", ["besselnum.family_moments"],
            lambda: _ibp_check(3, digits))

    config = {"suite": "numeric", "max_k": max_k, "digits": digits,
              "extended": extended}
    return Report(__version__, config, checks)


def run_all(exact_max_k: int = 5, numeric_max_k: int = 3, digits: int = 50,
            extended: bool = False) -> Report:
    """Run both suites and report their checks together."""
    exact = run_exact_suite(exact_max_k)
    numeric = run_numeric_suite(numeric_max_k, digits=digits, extended=extended)
    config = {
        "suite": "all",
        "exact_max_k": exact_max_k,
        "numeric_max_k": numeric_max_k,
        "digits": digits,
        "extended": extended,
    }
    return Report(__version__, config, exact.checks + numeric.checks)
