"""Verification harness: exact and numeric check suites with
machine-readable reports.

The exact suite exercises the operator and matrix layers over Q and
Q(u): operator structure, the Verrill-polynomial recursion, matrix
(skew-)symmetries, the Bernoulli-entry inverses, block identities,
determinant corollaries, the alternative routes to the de Rham
matrices, the frozen reference tables, and the symmetric-power duality.
Every check is an exact equality, so a failure is a hard mismatch.

The numeric suite evaluates moment integrals at a requested precision
and checks the quadratic relations, determinant closed forms, off-shell
Wronskian identities, reflection formulae and sum rules.  A numeric
check passes when its max-abs residual is below ``tolerance(digits)``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

import mpmath
from mpmath import mp

from . import __version__
from .besselnum import (
    GUARD_DIGITS,
    bologna,
    ibp_sanity,
    matM,
    matMring,
    matN,
    matNring,
    matOmega,
    moment_value,
    mu_moment,
    nu_moment,
    tolerance,
)
from .brmatrices import (
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
    matSigma,
    matSigmaInvBernoulli,
    matUpsilon,
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


@dataclass
class CheckResult:
    """Outcome of a single verification check."""

    check_id: str
    status: str
    residual: Optional[str] = None  # decimal string, numeric checks only
    digits: Optional[int] = None
    runtime_ms: int = 0
    refs: List[str] = field(default_factory=list)
    error: Optional[str] = None  # "ExcType: message" when status is error

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


@dataclass
class Report:
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

    def merged_with(self, other: "Report") -> "Report":
        cfg = dict(self.config)
        cfg.update(other.config)
        return Report(self.version, cfg, self.checks + other.checks)


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
# exact suite
# ---------------------------------------------------------------------------


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _check_symmetry(k: int) -> bool:
    V = matV(k)
    if V != V.T:
        return False
    U = matUpsilon(k)
    if U != U.map(lambda e: -e).T:
        return False
    S = matSigma(k)
    if S != S.T:
        return False
    s = matsigma(k)
    return s == s.map(lambda e: -e).T


def _check_bernoulli_inverse(k: int) -> bool:
    return (
        matSigmaInvBernoulli(k) == exact_inverse(matSigma(k))
        and matsigmaInvBernoulli(k) == exact_inverse(matsigma(k))
    )


def _check_table1(k: int) -> bool:
    return (
        betti_B(k) == TABLE_BETTI_B[k]
        and betti_b(k) == TABLE_BETTI_b[k]
        and derham_D(k) == TABLE_DERHAM_D[k]
        and derham_d(k) == TABLE_DERHAM_d[k]
    )


def _check_det_corollaries(k: int) -> bool:
    # Lambda^2 det Sigma = 1 and lambda^2 det sigma = 1.
    lam = named_constant("LambdaOdd", k).rational
    if lam * lam * matSigma(k).det() != 1:
        return False
    lam = named_constant("lambdaEven", k).rational
    if lam * lam * matsigma(k).det() != 1:
        return False
    # det B_k closed form; det b_k = 0 for odd k.
    if betti_B(k).det() != named_constant("detBetti_formula", k).rational:
        return False
    if k % 2 == 1 and betti_b(k).det() != 0:
        return False
    mins = betti_minors(k)
    if not (mins["det_product_ok"] and mins["det_even_formula_ok"]):
        return False
    # S_k B_k = I and ringed-B = B ringed-S B.
    if frakS(k) @ betti_B(k) != ExactMatrix.identity(k):
        return False
    if betti_Bring(k) != betti_B(k) @ frakSring(k) @ betti_B(k):
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


def run_exact_suite(max_k: int = 5, extended: bool = False) -> Report:
    """Run the exact (rational-arithmetic) verification suite.

    ``max_k`` bounds the matrix sizes (operators are checked for orders
    up to 2*max_k - 1).  All checks are exact identities.
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

    add("verrill-recursion", ["vanhove.verify_verrill_recursion"],
        lambda: all(
            all(verify_verrill_recursion(m, 12).values())
            for m in range(1, 7)))

    for n in range(1, 5):
        add(f"bms-duality-n{n}", ["vanhove.verify_bms_duality"],
            lambda n=n: all(verify_bms_duality(n, 14).values()))

    for k in range(2, max_k + 1):
        add(f"symmetry-k{k}", ["brmatrices.matV", "brmatrices.matSigma"],
            lambda k=k: _check_symmetry(k))
        add(f"bernoulli-inverse-k{k}", ["brmatrices.matSigmaInvBernoulli"],
            lambda k=k: _check_bernoulli_inverse(k))
        add(f"block-identities-k{k}", ["brmatrices.verify_block_identities"],
            lambda k=k: all(
                v for v in verify_block_identities(k).values()
                if isinstance(v, bool)))
        add(f"derham-alternatives-k{k}", ["brmatrices.derham_alternatives"],
            lambda k=k: derham_alternatives(k)["ok"])
        add(f"det-corollaries-k{k}", ["brmatrices.named_constant",
                                      "brmatrices.betti_minors"],
            lambda k=k: _check_det_corollaries(k))
        if k <= 5:
            add(f"table-reference-k{k}", ["harness.TABLE_BETTI_B"],
                lambda k=k: _check_table1(k))

    config = {"suite": "exact", "max_k": max_k, "extended": extended}
    return Report(__version__, config, checks)


# ---------------------------------------------------------------------------
# numeric suite
# ---------------------------------------------------------------------------


def _to_mpf_matrix(E: ExactMatrix) -> mpmath.matrix:
    out = mpmath.matrix(E.rows, E.cols)
    for i in range(E.rows):
        for j in range(E.cols):
            e = E[i, j]
            out[i, j] = mp.mpf(e.numerator) / e.denominator
    return out


def _max_abs(M: mpmath.matrix) -> mpmath.mpf:
    return max(abs(x) for x in M)


def _frac_mpf(q: Fraction) -> mpmath.mpf:
    return mp.mpf(q.numerator) / q.denominator


def _det_M_check(k: int, digits: int):
    # det of the normalized matrix: the closed form times
    # pi^{-k(k+1)/2} (normalization) times (-1)^{k(k-1)/2} (column signs).
    c = named_constant("detM_formula", k).value.to_mpf(mp)
    expect = c * mp.pi ** (-(k * (k + 1) // 2))
    expect *= (-1) ** ((k * (k - 1) // 2) % 2)
    return abs(mpmath.det(matM(k, digits)) - expect)


def _det_N_check(k: int, digits: int):
    c = named_constant("detN_formula", k).value.to_mpf(mp)
    # Normalization exponent: sum of (a - k - 3/2) over rows, with the
    # first row carrying -k - 1/2.
    s = F(-k) - F(1, 2) + sum(F(a) - k - F(3, 2) for a in range(2, k + 1))
    expect = c * mp.pi ** _frac_mpf(s)
    expect *= (-1) ** ((k * (k - 1) // 2) % 2)
    return abs(mpmath.det(matN(k, digits)) - expect)


def _quad_M_check(k: int, digits: int):
    Mk = matM(k, digits)
    R = Mk * _to_mpf_matrix(derham_D(k)) * Mk.T - _to_mpf_matrix(betti_B(k))
    return _max_abs(R)


def _quad_N_check(k: int, digits: int):
    Nk = matN(k, digits)
    R = Nk * _to_mpf_matrix(derham_d(k)) * Nk.T - _to_mpf_matrix(betti_b(k))
    return _max_abs(R)


def _ringed_quad_M_check(k: int, digits: int):
    Mk, Mr = matM(k, digits), matMring(k, digits)
    Dk = _to_mpf_matrix(derham_D(k))
    R = (Mk * _to_mpf_matrix(derham_Dring(k)) * Mk.T
         - mp.pi * _to_mpf_matrix(betti_Bring(k))
         - Mr * Dk * Mk.T + Mk * Dk * Mr.T)
    return _max_abs(R)


def _ringed_quad_N_check(k: int, digits: int):
    Nk, Nr = matN(k, digits), matNring(k, digits)
    dk = _to_mpf_matrix(derham_d(k))
    R = (Nk * _to_mpf_matrix(derham_dring(k)) * Nk.T
         - mp.pi * _to_mpf_matrix(betti_bring(k))
         - Nr * dk * Nk.T + Nk * dk * Nr.T)
    return _max_abs(R)


def _offshell_cov_check(u: Fraction, digits: int):
    # Omega Sigma Omega^T = V(u)^{-1} / |m_3(u)| for the k=2 odd family.
    m3 = abs(top_coeff(3).eval(u))
    O = matOmega(2, u, digits)
    Vinv = _to_mpf_matrix(exact_inverse(matV(2).eval(u)))
    R = O * _to_mpf_matrix(matSigma(2)) * O.T - Vinv / _frac_mpf(m3)
    return _max_abs(R)


def _offshell_inv_check(u: Fraction, digits: int):
    # Transposed form: Omega^T V(u) Omega = Sigma^{-1} / |m_3(u)|.
    m3 = abs(top_coeff(3).eval(u))
    O = matOmega(2, u, digits)
    Sinv = _to_mpf_matrix(exact_inverse(matSigma(2)))
    R = O.T * _to_mpf_matrix(matV(2).eval(u)) * O - Sinv / _frac_mpf(m3)
    return _max_abs(R)


def _offshell_det_check(u: Fraction, digits: int):
    # det Omega_3(u) * |m_3(u)|^{3/2} = Lambda_3 = 1/20.
    m3 = abs(top_coeff(3).eval(u))
    O = matOmega(2, u, digits)
    lam = _frac_mpf(named_constant("LambdaOdd", 2).rational)
    return abs(mpmath.det(O) * _frac_mpf(m3) ** mp.mpf("1.5") - lam)


def _reflection_check(k: int, digits: int):
    """Reflection formula between the even- and odd-index minor
    determinants of the threshold matrix, including the surd prefactor
    and its sign."""
    one = Fraction(1)
    ne = k // 2
    no = (k + 1) // 2
    if ne == 0:
        det_e = mp.mpf(1)
    else:
        E = mpmath.matrix(ne, ne)
        for a in range(1, ne + 1):
            for b in range(1, ne + 1):
                E[a - 1, b - 1] = (
                    (-1) ** (b - 1) * mu_moment(k, 2 * a, b, one, digits))
        det_e = mpmath.det(E)
    Od = mpmath.matrix(no, no)
    for a in range(1, no + 1):
        for b in range(1, no + 1):
            Od[a - 1, b - 1] = (
                (-1) ** (b - 1) * mu_moment(k, 2 * a - 1, b, one, digits))
    det_o = mpmath.det(Od)
    sign = (-1) ** (((k + 1) // 4 + (k // 2) // 2) % 2)
    dfo = _double_factorial(2 * k + 1)
    surd = mp.sqrt(mp.mpf(dfo) ** (2 - (-1) ** k))
    denom = (2 ** (k // 2) * _double_factorial(k - 1)
             * _double_factorial(k) ** (1 - (-1) ** k))
    return abs(det_e - sign * surd / denom * det_o)


def _sumrule_N3_linear_check(digits: int):
    one = Fraction(1)
    s = {(l, j): (-1) ** (l - 1) * nu_moment(3, j, l, one, digits)
         for l in (1, 2, 3) for j in (1, 3)}
    r1 = abs(s[(1, 1)] - s[(1, 3)])
    r2 = abs((s[(2, 1)] + 2 * s[(3, 1)]) - (s[(2, 3)] + 2 * s[(3, 3)]))
    return max(r1, r2)


def _sumrule_N3_det_check(digits: int):
    one = Fraction(1)
    s = {(l, j): (-1) ** (l - 1) * nu_moment(3, j, l, one, digits)
         for l in (1, 2, 3) for j in (2, 3)}
    det = (s[(1, 2)] * (s[(2, 3)] + 2 * s[(3, 3)])
           - (s[(2, 2)] + 2 * s[(3, 2)]) * s[(1, 3)])
    return abs(det - _frac_mpf(F(5, 6144)))


def _sumrule_N5_check(digits: int):
    # Linear sum rules for the k=5 threshold matrix, in signed-entry
    # convention: c_l := 3 s_{1,l} - 10 s_{3,l} + 3 s_{5,l} with
    # s_{j,l} = (-1)^{l-1} nu^l_{5,j}(1).
    one = Fraction(1)
    c = {}
    for l in range(1, 6):
        sgn = (-1) ** (l - 1)
        c[l] = sgn * (3 * nu_moment(5, 1, l, one, digits)
                      - 10 * nu_moment(5, 3, l, one, digits)
                      + 3 * nu_moment(5, 5, l, one, digits))
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
    # prefactor -(1/4) sqrt(5^3 7^3 / 3).
    one = Fraction(1)
    lhs = mu_moment(3, 2, 1, one, digits)
    # Signed entries (-1)^{b-1}: the b=2 column flips, so the signed
    # determinant is minus the unsigned one.
    det = -(mu_moment(3, 1, 1, one, digits) * mu_moment(3, 3, 2, one, digits)
            - mu_moment(3, 1, 2, one, digits)
            * mu_moment(3, 3, 1, one, digits))
    pref = -mp.mpf("0.25") * mp.sqrt(mp.mpf(5 ** 3) * 7 ** 3 / 3)
    return abs(lhs - pref * det)


def _bologna_check(digits: int):
    Mk = matM(2, digits)
    C = bologna(digits)
    vals = (
        abs(Mk[0, 0] - C),
        abs(Mk[1, 0] - mp.sqrt(15) / 2 * C),
        abs(Mk[0, 1] + _frac_mpf(F(4, 225)) * (13 * C - 1 / (10 * C))),
        abs(Mk[1, 1]
            + mp.sqrt(15) / 2 * _frac_mpf(F(4, 225)) * (13 * C + 1 / (10 * C))),
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
    mp11 = -_frac_mpf(F(2, 5)) * mu_moment(2, 1, 1, one, digits)
    mp21 = -(_frac_mpf(F(2, 5)) * mu_moment(2, 2, 1, one, digits)
             - _frac_mpf(F(3, 5)) * mu_moment(1, 1, 1, one, digits))
    res.append(abs(L[2, 0] - mp11))
    res.append(abs(L[2, 1] - mp21))
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
        run(f"bm-det-M-k{k}", ["besselnum.matM", "brmatrices.named_constant"],
            lambda k=k: _det_M_check(k, digits))
        run(f"bm-det-N-k{k}", ["besselnum.matN", "brmatrices.named_constant"],
            lambda k=k: _det_N_check(k, digits))

    for k in range(2, min(max_k, 3) + 1):
        run(f"quad-M-k{k}", ["besselnum.matM", "brmatrices.derham_D"],
            lambda k=k: _quad_M_check(k, digits))
        run(f"quad-N-k{k}", ["besselnum.matN", "brmatrices.derham_d"],
            lambda k=k: _quad_N_check(k, digits))

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
        run(f"reflection-k{k}", ["besselnum.mu_moment"],
            lambda k=k: _reflection_check(k, digits))

    run("sumrule-N3-linear", ["besselnum.nu_moment"],
        lambda: _sumrule_N3_linear_check(digits))
    run("sumrule-N3-det", ["besselnum.nu_moment"],
        lambda: _sumrule_N3_det_check(digits))
    run("bessel7-minor", ["besselnum.mu_moment"],
        lambda: _bessel7_check(digits))

    run("ibp-sanity-k2", ["besselnum.ibp_sanity"],
        lambda: ibp_sanity(2, digits)["max_residual"])
    run("blocktridiag-k2", ["besselnum.matOmega", "brmatrices.beta_matrix"],
        lambda: _blocktridiag_check(digits))

    if extended:
        run("ringed-quad-M-k2", ["besselnum.matMring"],
            lambda: _ringed_quad_M_check(2, digits))
        run("ringed-quad-N-k2", ["besselnum.matNring"],
            lambda: _ringed_quad_N_check(2, digits))
        run("sumrule-N5-linear", ["besselnum.nu_moment"],
            lambda: _sumrule_N5_check(digits))
        run("ibp-sanity-k3", ["besselnum.ibp_sanity"],
            lambda: ibp_sanity(3, digits)["max_residual"])

    config = {"suite": "numeric", "max_k": max_k, "digits": digits,
              "extended": extended}
    return Report(__version__, config, checks)


def run_all(exact_max_k: int = 5, numeric_max_k: int = 3, digits: int = 50,
            extended: bool = False) -> Report:
    """Run both suites and merge the reports."""
    rep = run_exact_suite(exact_max_k, extended=extended)
    num = run_numeric_suite(numeric_max_k, digits=digits, extended=extended)
    merged = rep.merged_with(num)
    merged.config = {
        "suite": "all",
        "exact_max_k": exact_max_k,
        "numeric_max_k": numeric_max_k,
        "digits": digits,
        "extended": extended,
    }
    return merged
