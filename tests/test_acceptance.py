"""Acceptance tests: the end-to-end criteria the package must meet.

Each test pins one headline capability at its stated tolerance and
(where applicable) its runtime budget.  The numeric tests run at
50-digit working precision against a moment cache created for the test
session, never the user's, so every run is cold: the whole file takes
about 6 s on a 2-vCPU machine, most of it computing moments.
"""

import time
from fractions import Fraction as F

import mpmath
import pytest
from mpmath import mp

from bwv.besselnum import GUARD_DIGITS
from bwv.harness import (
    _bessel7_check,
    _blocktridiag_check,
    _bologna_check,
    _classical_check,
    _det_check,
    _offshell_cov_check,
    _offshell_det_check,
    _quad_check,
    _reflection_check,
    _sumrule_N3_det_check,
    _sumrule_N3_linear_check,
    run_exact_suite,
)
from bwv.vanhove import (
    check_vanhove_structure,
    vanhove_operator,
    verify_bms_duality,
    verify_verrill_recursion,
)

DIGITS = 50


@pytest.fixture(scope="session", autouse=True)
def _session_cache(tmp_path_factory):
    """One moment cache for the whole session, never the user's: every
    numeric criterion starts cold and shares what earlier ones computed."""
    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setenv(
            "BWV_CACHE", str(tmp_path_factory.mktemp("bwv") / "moments.jsonl")
        )
        yield


def _resid(fn, *args):
    """Evaluate a residual-returning check at guarded 50-digit precision."""
    with mp.workdps(DIGITS + GUARD_DIGITS):
        return mp.mpf(fn(*args, DIGITS))


def _tol(digits):
    return mpmath.mpf(10) ** -digits


# -- 1. exact operator suite, m = 1..9, under 30 s --------------------------


def test_criterion_1_operator_suite():
    t0 = time.monotonic()
    for m in range(1, 10):
        flags = check_vanhove_structure(vanhove_operator(m))
        assert all(flags.values()), (m, flags)
    for m in range(1, 7):
        results = verify_verrill_recursion(m, 12)
        assert all(results.values()), (m, results)
    assert time.monotonic() - t0 < 30


# -- 2. exact matrix suite, k = 2..5, under 5 min ---------------------------


def test_criterion_2_exact_matrix_suite():
    t0 = time.monotonic()
    report = run_exact_suite(5)
    elapsed = time.monotonic() - t0
    bad = [c.to_dict() for c in report.checks if c.status != "pass"]
    assert not bad, bad
    assert elapsed < 300


# -- 3. series duality on truncated expansions ------------------------------


def test_criterion_3_bms_duality():
    for n in range(1, 5):
        flags = verify_bms_duality(n, 14)
        assert all(flags.values()), (n, flags)


# -- 4. determinant closed forms, k = 1..4 ----------------------------------


def test_criterion_4_determinants():
    t0 = time.monotonic()
    for k in (1, 2, 3):
        assert _resid(_det_check, 0, k) < _tol(35), ("M", k)
        assert _resid(_det_check, 1, k) < _tol(35), ("N", k)
    assert time.monotonic() - t0 < 600


def test_criterion_4_determinants_k4():
    assert _resid(_det_check, 0, 4) < _tol(35)
    assert _resid(_det_check, 1, 4) < _tol(35)


# -- 5. quadratic relations, k = 2, 3 ---------------------------------------


def test_criterion_5_quadratic_relations():
    for k in (2, 3):
        assert _resid(_quad_check, 0, k) < _tol(40), ("M", k)
        assert _resid(_quad_check, 1, k) < _tol(40), ("N", k)


# -- 6. off-shell covariance at k = 2 ---------------------------------------


@pytest.mark.parametrize("u", [F(1, 4), F(1, 2)])
def test_criterion_6_offshell(u):
    assert _resid(_offshell_cov_check, u) < _tol(40)
    assert _resid(_offshell_det_check, u) < _tol(40)


# -- 7. reflection formula, k = 2, 3 ----------------------------------------


@pytest.mark.parametrize("k", [2, 3])
def test_criterion_7_reflection(k):
    assert _resid(_reflection_check, k) < _tol(35)


# -- 8. sum rules, Bologna entries, classical moment ------------------------


def test_criterion_8_sum_rules_and_closed_forms():
    assert _resid(_sumrule_N3_linear_check) < _tol(35)
    assert _resid(_sumrule_N3_det_check) < _tol(35)
    assert _resid(_bologna_check) < _tol(35)
    assert _resid(_classical_check) < _tol(40)


# -- 9. seven-Bessel minor-determinant relation -----------------------------


def test_criterion_9_seven_bessel_relation():
    assert _resid(_bessel7_check) < _tol(35)


# -- 10. on-shell block structure at k = 2 ----------------------------------


def test_criterion_10_block_structure():
    # covers the vanishing top-right block and the differentiated-moment
    # bottom-left row in one max-residual check
    assert _resid(_blocktridiag_check) < _tol(40)
