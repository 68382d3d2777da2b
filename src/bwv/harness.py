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

The numeric check bodies live in ``bwv.numchecks``, which imports the
numeric layer (``besselnum`` and mpmath).  This module imports it only
inside ``run_numeric_suite`` and ``_run_numeric``, so the exact suite
and the report types load only the exact layers.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import __version__, brmatrices
from .brmatrices import (
    _double_factorial,
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
    matsigma,
    matsigmaInvBernoulli,
    named_constant,
    verify_block_identities,
)
from .exactalg import ExactMatrix
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


class CheckResult(NamedTuple):
    """Outcome of a single verification check, read-only: a changed copy
    comes from ``_replace``."""

    check_id: str
    status: str
    residual: Optional[str] = None  # decimal string, numeric checks only
    digits: Optional[int] = None
    runtime_ms: int = 0
    refs: Tuple[str, ...] = ()
    error: Optional[str] = None  # "ExcType: message" when status is error

    def to_dict(self) -> dict:
        out = self._asdict()
        out["refs"] = list(self.refs)
        if self.status != "error":
            del out["error"]
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "CheckResult":
        return cls(
            check_id=d["check_id"],
            status=d["status"],
            residual=d.get("residual"),
            digits=d.get("digits"),
            runtime_ms=d.get("runtime_ms", 0),
            refs=tuple(d.get("refs", ())),
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
    return CheckResult(check_id, status, None, None, ms, tuple(refs), error)


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
    return CheckResult(check_id, status, residual, digits, ms, tuple(refs),
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
    ``bwv.numchecks`` reads with the numeric layer."""

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

    ``max_k`` bounds the matrix sizes.  Operator structure and the Verrill
    recursion are checked for every order the suite builds, up to
    2*max_k + 2, the highest order a de Rham limit reads; the default
    max_k = 5 gives 41 checks.  All checks are exact identities.
    """
    if max_k < 2:
        raise ValueError("run_exact_suite requires max_k >= 2")
    checks: List[CheckResult] = []

    def add(check_id, refs, fn):
        checks.append(_run_exact(check_id, refs, fn))

    for m in range(1, 2 * max_k + 3):
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


def run_numeric_suite(max_k: int = 3, digits: int = 50,
                      extended: bool = False) -> Report:
    """Run the numeric verification suite at the requested precision."""
    if max_k < 2:
        raise ValueError("run_numeric_suite requires max_k >= 2")
    if digits < 30:
        raise ValueError("run_numeric_suite requires digits >= 30")
    from . import numchecks as nc

    checks: List[CheckResult] = []

    def run(check_id, refs, fn):
        checks.append(_run_numeric(check_id, refs, digits, fn))

    run("classical-ikm-1-2-1", ["besselnum.moment"],
        lambda: nc._classical_check(digits))
    run("bologna-M2", ["besselnum.matM", "besselnum.bologna"],
        lambda: nc._bologna_check(digits))

    det_ks = list(range(1, max_k + 1))
    if extended and 4 not in det_ks:
        det_ks.append(4)
    for k in det_ks:
        for p, fam in enumerate(_FAMILIES):
            run(f"bm-det-{fam.letter}-k{k}",
                [f"besselnum.{fam.mat}", "brmatrices.named_constant"],
                lambda p=p, k=k: nc._det_check(p, k, digits))

    for k in range(2, max_k + 1):
        for p, fam in enumerate(_FAMILIES):
            run(f"quad-{fam.letter}-k{k}",
                [f"besselnum.{fam.mat}",
                 f"brmatrices.{fam.derham.__name__}"],
                lambda p=p, k=k: nc._quad_check(p, k, digits))

    for u in (F(1, 4), F(1, 2)):
        run(f"offshell-cov-k2-u{u}", ["besselnum.matOmega",
                                      "brmatrices.matSigma"],
            lambda u=u: nc._offshell_cov_check(u, digits))
        run(f"offshell-inv-k2-u{u}", ["besselnum.matOmega",
                                      "brmatrices.matV"],
            lambda u=u: nc._offshell_inv_check(u, digits))
        run(f"offshell-det-k2-u{u}", ["besselnum.matOmega",
                                      "brmatrices.named_constant"],
            lambda u=u: nc._offshell_det_check(u, digits))

    for k in (2, 3):
        run(f"reflection-k{k}", ["besselnum.family_moments"],
            lambda k=k: nc._reflection_check(k, digits))

    run("sumrule-N3-linear", ["besselnum.family_moments"],
        lambda: nc._sumrule_N3_linear_check(digits))
    run("sumrule-N3-det", ["besselnum.family_moments"],
        lambda: nc._sumrule_N3_det_check(digits))
    run("bessel7-minor", ["besselnum.family_moments"],
        lambda: nc._bessel7_check(digits))

    run("ibp-sanity-k2", ["besselnum.family_moments"],
        lambda: nc._ibp_check(2, digits))
    run("blocktridiag-k2", ["besselnum.matOmega", "brmatrices.beta_matrix"],
        lambda: nc._blocktridiag_check(digits))

    if extended:
        for p, fam in enumerate(_FAMILIES):
            run(f"ringed-quad-{fam.letter}-k2",
                [f"besselnum.{fam.mat_ring}"],
                lambda p=p: nc._ringed_quad_check(p, 2, digits))
        run("sumrule-N5-linear", ["besselnum.family_moments"],
            lambda: nc._sumrule_N5_check(digits))
        run("ibp-sanity-k3", ["besselnum.family_moments"],
            lambda: nc._ibp_check(3, digits))

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
