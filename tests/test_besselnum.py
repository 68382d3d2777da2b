"""Tests for the numerical layer: Bessel functions, moment integrals,
the moment cache, matrix assembly, and the integration-by-parts sanity
checks.  Precision is kept modest so the suite stays fast; the heavy
high-precision runs live in the acceptance tests."""

import importlib
import inspect
import json
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from bwv import besselnum, cli
from bwv.besselnum import (
    GUARD_DIGITS,
    _KERNEL_TAG,
    _crossover,
    MomentCache,
    MomentKey,
    QuadratureError,
    bessel,
    bologna,
    default_cache,
    ibp_sanity,
    matM,
    matN,
    matOmega,
    moment,
    moment_value,
    mu_acute_moment,
    mu_moment,
    nu_acute_moment,
    nu_moment,
    tolerance,
)

DIGITS = 25


@pytest.fixture()
def cache(tmp_path):
    return MomentCache(str(tmp_path / "moments.jsonl"))


def _close(x, y, digits=DIGITS):
    with mp.workdps(digits + 10):
        return abs(mp.mpf(x) - mp.mpf(y)) < mpmath.mpf(10) ** (-(digits - 5))


# -- Bessel functions -------------------------------------------------------


def test_bessel_reference_values():
    assert _close(bessel("I0", 1, 30), "1.2660658777520083355982446252", 28)
    assert _close(bessel("K0", 1, 30), "0.4210244382407083333356273792", 28)


def test_bessel_against_independent_implementation():
    with mp.workdps(35):
        for t in (mp.mpf("0.1"), mp.mpf(2), mp.mpf("17.5")):
            for kind, ref in (
                ("I0", mpmath.besseli(0, t)),
                ("I1", mpmath.besseli(1, t)),
                ("K0", mpmath.besselk(0, t)),
                ("K1", mpmath.besselk(1, t)),
            ):
                mine = bessel(kind, t, 30)
                assert abs(mine - ref) < abs(ref) * mpmath.mpf(10) ** -29


def test_bessel_wronskian_relation():
    # I0(t) K1(t) + I1(t) K0(t) = 1/t
    d = 30
    with mp.workdps(d + 5):
        for i in range(10):
            t = F(3 * i + 1, 17) + F(1, 7)  # deterministic spread in (0, 20)
            tt = mp.mpf(t.numerator) / t.denominator
            val = bessel("I0", tt, d) * bessel("K1", tt, d) + bessel(
                "I1", tt, d
            ) * bessel("K0", tt, d)
            assert abs(val - 1 / tt) < mpmath.mpf(10) ** (-(d - 2))


def _crossover_at(digits):
    """The kernel's series/asymptotic crossover at bessel(..., digits)."""
    with mp.workdps(digits + GUARD_DIGITS):
        return _crossover(mp.prec)


@pytest.mark.parametrize("digits", [30, 50, 100])
def test_bessel_both_branches_against_mpmath(digits):
    # each side of the crossover, the tiny-t series and the far asymptotic
    # branch; every value to a few ulp of the working precision, which is
    # far inside the requested 10^-(digits-1)
    tc = _crossover_at(digits)
    with mp.workdps(digits + GUARD_DIGITS):
        ulp = +mp.eps
    for t in (mp.mpf("1e-40"), tc * 0.97, tc * 1.03, mp.mpf(10) ** 4):
        with mp.workdps(digits + 20):
            t = mp.mpf(t)
            refs = {"I0": mpmath.besseli(0, t), "I1": mpmath.besseli(1, t),
                    "K0": mpmath.besselk(0, t), "K1": mpmath.besselk(1, t)}
            for kind, ref in refs.items():
                rel = abs(bessel(kind, t, digits) / ref - 1)
                assert rel < 8 * ulp, (kind, t, digits)
                assert rel < mpmath.mpf(10) ** -(digits - 1)


@settings(max_examples=80, deadline=None)
@given(
    digits=st.sampled_from([30, 50, 100]),
    log10_t=st.floats(min_value=-30, max_value=4),
    near=st.floats(min_value=-0.2, max_value=0.2),
    at_crossover=st.booleans(),
)
def test_bessel_wronskian_property_across_crossover(
    digits, log10_t, near, at_crossover
):
    # I0(t) K1(t) + I1(t) K0(t) = 1/t on both sides of the crossover
    t = _crossover_at(digits) * (1 + near) if at_crossover else 10**log10_t
    with mp.workdps(digits + GUARD_DIGITS):
        t = mp.mpf(t)
        val = bessel("I0", t, digits) * bessel("K1", t, digits) + bessel(
            "I1", t, digits
        ) * bessel("K0", t, digits)
        assert abs(val * t - 1) < mpmath.mpf(10) ** -(digits + 10)


def test_bessel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bessel("I0", 0, 20)
    with pytest.raises(ValueError):
        bessel("I0", -1, 20)
    with pytest.raises(ValueError):
        bessel("J0", 1, 20)


# -- moment keys and the convergence guard ----------------------------------


def test_moment_key_validation():
    MomentKey("IKM", 1, 2, 1, None, 30)
    with pytest.raises(ValueError):
        MomentKey("XYZ", 1, 2, 1, None, 30)
    with pytest.raises(ValueError):
        MomentKey("IKM", 1, 2, 1, F(1, 2), 30)  # u forbidden on-shell
    with pytest.raises(ValueError):
        MomentKey("IvKM", 1, 2, 1, None, 30)  # u required off-shell
    with pytest.raises(ValueError):
        MomentKey("IKM", -1, 2, 1, None, 30)
    # each off-shell kind needs the I0 or K0 its sqrt(u) t factor replaces
    for kind, a, b in (("IvKM", 0, 2), ("IpKM", 0, 2),
                       ("IKvM", 1, 0), ("IKpM", 1, 0)):
        with pytest.raises(ValueError, match=f"{kind} requires"):
            MomentKey(kind, a, b, 1, F(1, 2), 30)
    # the families have columns 1..3k-1 (odd) and 1..3k+1 (even)
    for k in (1, 2, 3):
        for family, last in ((mu_moment, 3 * k - 1),
                             (mu_acute_moment, 3 * k - 1),
                             (nu_moment, 3 * k + 1),
                             (nu_acute_moment, 3 * k + 1)):
            for j in (0, last + 1):
                with pytest.raises(ValueError, match="out of range"):
                    family(k, j, 1, F(1, 2), 20)


def test_divergent_configurations_refused(cache):
    # IKM(1,1;n): integrand ~ const/t at infinity
    with pytest.raises(ValueError, match="divergent"):
        moment(MomentKey("IKM", 1, 1, 1, None, 20), cache=cache)
    with pytest.raises(ValueError, match="divergent"):
        moment(MomentKey("IKM", 2, 1, 0, None, 20), cache=cache)
    # IvKM(2,1;0|u): delta = 1 - 1 - sqrt(u) < 0
    with pytest.raises(ValueError, match="divergent"):
        moment(MomentKey("IvKM", 2, 1, 0, F(1, 4), 20), cache=cache)
    # boundary case delta = 2 - sqrt(4) = 0
    with pytest.raises(ValueError, match="divergent"):
        moment(MomentKey("IvKM", 1, 2, 0, F(4), 20), cache=cache)
    # IKvM(2,1;0|u): delta = 1 - 2 - 1 + sqrt(u) < 0
    with pytest.raises(ValueError, match="divergent"):
        moment(MomentKey("IKvM", 2, 1, 0, F(1, 4), 20), cache=cache)
    # IpKM(2,1;0|u): delta = 1 - 2 + 1 - sqrt(u) < 0
    with pytest.raises(ValueError, match="divergent"):
        moment(MomentKey("IpKM", 2, 1, 0, F(1, 4), 20), cache=cache)
    # boundary case IKpM(1,1;1|1): delta = 1 - 1 - 1 + sqrt(1) = 0
    with pytest.raises(ValueError, match="divergent"):
        moment(MomentKey("IKpM", 1, 1, 1, F(1), 20), cache=cache)


# -- moment values ----------------------------------------------------------


def test_moment_classical_values(cache):
    with mp.workdps(DIGITS + 10):
        v = moment(MomentKey("IKM", 1, 2, 1, None, DIGITS), cache=cache)
        assert _close(v, mp.pi / (3 * mp.sqrt(3)))
        v = moment(MomentKey("IKM", 0, 1, 0, None, DIGITS), cache=cache)
        assert _close(v, mp.pi / 2)
        # int_0^infty K0(t)^2 dt = pi^2/4
        v = moment(MomentKey("IKM", 0, 2, 0, None, DIGITS), cache=cache)
        assert _close(v, mp.pi**2 / 4)


def test_moment_bologna_entries(cache):
    with mp.workdps(DIGITS + 10):
        C = bologna(DIGITS)
        v = moment(MomentKey("IKM", 1, 4, 1, None, DIGITS), cache=cache)
        assert _close(v / mp.pi**2, C)
        v = moment(MomentKey("IKM", 2, 3, 1, None, DIGITS), cache=cache)
        assert _close(v / mp.pi, mp.sqrt(15) / 2 * C)
        v = moment(MomentKey("IKM", 1, 4, 3, None, DIGITS), cache=cache)
        assert _close(
            v / mp.pi**2, F(4, 225) * (13 * C - 1 / (10 * C))
        )


def test_offshell_reduces_to_onshell_at_u_one(cache):
    # IvKM(2,3;1|1) == IKM(2,3;1)
    with mp.workdps(DIGITS + 10):
        off = moment(MomentKey("IvKM", 2, 3, 1, F(1), DIGITS), cache=cache)
        on = moment(MomentKey("IKM", 2, 3, 1, None, DIGITS), cache=cache)
        assert _close(off, on)


def test_precision_scaling(cache):
    lo = moment(MomentKey("IKM", 1, 3, 1, None, 20), cache=cache)
    hi = moment(MomentKey("IKM", 1, 3, 1, None, 40), cache=cache)
    with mp.workdps(45):
        assert abs(mp.mpf(lo) - mp.mpf(hi)) < mpmath.mpf(10) ** -20


# -- cache ------------------------------------------------------------------


def test_cache_roundtrip_and_hit(tmp_path):
    path = tmp_path / "m.jsonl"
    c1 = MomentCache(str(path))
    key = MomentKey("IKM", 1, 2, 1, None, 20)
    v1 = moment(key, cache=c1)
    # a fresh cache object reads the same file and must hit
    c2 = MomentCache(str(path))
    assert c2.get(key) is not None
    v2 = moment(key, cache=c2)
    with mp.workdps(30):
        assert abs(mp.mpf(v1) - mp.mpf(v2)) < mpmath.mpf(10) ** -20
    # records are one JSON object per line with the documented fields
    with path.open() as fh:
        rec = json.loads(fh.readline())
    assert set(rec) == {"kind", "a", "b", "n", "u", "digits", "value",
                        "kernel"}
    assert rec["u"] is None and rec["kind"] == "IKM"


def test_cache_tags_records_and_never_serves_stale(tmp_path):
    path = tmp_path / "m.jsonl"
    key = MomentKey("IKM", 1, 2, 1, None, 20)
    moment(key, cache=MomentCache(str(path)))
    rec = json.loads(path.read_text())
    assert rec["kernel"] == _KERNEL_TAG
    untagged = {k: v for k, v in rec.items() if k != "kernel"}
    retagged = {**rec, "kernel": "trapezoid-k-integral"}
    path.write_text(json.dumps(untagged) + "\n" + json.dumps(retagged) + "\n")
    c = MomentCache(str(path))
    assert c.get(key) is None
    stats = c.stats()
    assert stats["stale"] == 2 and stats["entries"] == 0
    # a recomputed value is tagged and served again, the old lines stay stale
    moment(key, cache=c)
    c2 = MomentCache(str(path))
    assert c2.get(key) is not None
    assert c2.stats()["stale"] == 2 and c2.verify()["ok"]


def test_cache_skips_torn_last_line(tmp_path, monkeypatch, capsys):
    path = tmp_path / "m.jsonl"
    key = MomentKey("IKM", 1, 2, 1, None, 20)
    moment(key, cache=MomentCache(str(path)))
    whole = path.read_text()
    # a record without its fields, then a record cut off mid-append
    path.write_text(whole + '{"kind": "IKM"}\n' + whole[: len(whole) // 2])
    c = MomentCache(str(path))
    assert c.get(key) is not None
    assert c.stats()["skipped"] == 2
    rep = c.verify()
    assert rep["skipped"] == 2 and rep["records"] == 3 and not rep["ok"]
    # the CLI diagnoses the file instead of failing on it
    monkeypatch.setenv("BWV_CACHE", str(path))
    assert cli.main(["cache", "stats"]) == 0
    assert json.loads(capsys.readouterr().out)["skipped"] == 2
    assert cli.main(["cache", "verify"]) == 1
    assert json.loads(capsys.readouterr().out)["skipped"] == 2
    # an append after the torn line stays a whole record
    other = MomentKey("IKM", 1, 3, 1, None, 20)
    moment(other, cache=c)
    c2 = MomentCache(str(path))
    assert c2.get(other) is not None and c2.stats()["skipped"] == 2


def test_quadrature_failure_raises_and_caches_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr("bwv.besselnum.LEVEL_BUDGET", 0)
    path = tmp_path / "m.jsonl"
    c = MomentCache(str(path))
    key = MomentKey("IKM", 1, 2, 1, None, 20)
    with pytest.raises(QuadratureError):
        moment(key, cache=c)
    assert c.get(key) is None and not path.exists()
    assert MomentCache(str(path)).stats()["entries"] == 0


def test_cache_determinism(tmp_path):
    key = MomentKey("IKM", 2, 5, 3, None, 22)
    c1 = MomentCache(str(tmp_path / "a.jsonl"))
    c2 = MomentCache(str(tmp_path / "b.jsonl"))
    moment(key, cache=c1)
    moment(key, cache=c2)
    s1 = c1.get(key)
    s2 = c2.get(key)
    assert s1 == s2  # identical decimal strings from independent runs


def test_cache_requests_more_digits_recomputes(tmp_path):
    path = tmp_path / "m.jsonl"
    c = MomentCache(str(path))
    moment(MomentKey("IKM", 1, 2, 1, None, 15), cache=c)
    assert c.get(MomentKey("IKM", 1, 2, 1, None, 40)) is None
    moment(MomentKey("IKM", 1, 2, 1, None, 40), cache=c)
    assert c.get(MomentKey("IKM", 1, 2, 1, None, 40)) is not None
    # stats and verify agree with the file contents
    st = c.stats()
    assert st["entries"] == 1 and st["by_kind"] == {"IKM": 1}
    assert c.verify()["ok"]


def test_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("BWV_CACHE", str(tmp_path / "env.jsonl"))
    c = MomentCache()
    assert c.path == str(tmp_path / "env.jsonl")


def test_default_cache_returns_to_default_path_after_unset(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("BWV_CACHE", str(tmp_path / "env.jsonl"))
    assert default_cache().path == str(tmp_path / "env.jsonl")
    monkeypatch.delenv("BWV_CACHE")
    default = str(tmp_path / ".cache" / "bwv" / "moments.jsonl")
    assert MomentCache().path == default
    assert default_cache().path == default


# -- matrices ---------------------------------------------------------------


def test_matM2_bologna(cache, monkeypatch):
    monkeypatch.setattr("bwv.besselnum.default_cache", lambda: cache)
    d = DIGITS
    M = matM(2, d)
    with mp.workdps(d + 10):
        C = bologna(d)
        tol = mpmath.mpf(10) ** (-(d - 5))
        assert abs(M[0, 0] - C) < tol
        assert abs(M[1, 0] - mp.sqrt(15) / 2 * C) < tol
        assert abs(M[0, 1] + F(4, 225) * (13 * C - 1 / (10 * C))) < tol
        assert abs(
            M[1, 1] + mp.sqrt(15) / 2 * F(4, 225) * (13 * C + 1 / (10 * C))
        ) < tol


def test_detM2_closed_form(cache, monkeypatch):
    monkeypatch.setattr("bwv.besselnum.default_cache", lambda: cache)
    d = DIGITS
    M = matM(2, d)
    with mp.workdps(d + 10):
        # det M_2 = -prod (2j)^(2-j) / sqrt(prod (2j+1)^(2j+1)); k=2 sign -1
        expect = -2 / mp.sqrt(mp.mpf(3**3) * 5**5)
        assert abs(mpmath.det(M) - expect) < mpmath.mpf(10) ** (-(d - 5))


def test_matN_shape_and_sum_rule_entry(cache, monkeypatch):
    monkeypatch.setattr("bwv.besselnum.default_cache", lambda: cache)
    d = 20
    N = matN(1, d)
    assert N.rows == N.cols == 1
    with mp.workdps(d + 10):
        # N_1 entry: pi^(-3/2) IKM(1,3;1)
        v = moment_value("IKM", 1, 3, 1, None, d, cache=cache)
        assert abs(N[0, 0] - v * mp.pi ** mp.mpf(-1.5)) < mpmath.mpf(10) ** (
            -(d - 5)
        )


def test_omega_first_rows_are_moments_and_derivatives(cache, monkeypatch):
    monkeypatch.setattr("bwv.besselnum.default_cache", lambda: cache)
    d = 20
    u = F(1, 2)
    O = matOmega(2, u, d)
    with mp.workdps(d + 10):
        tol = mpmath.mpf(10) ** (-(d - 5))
        for j in (1, 2, 3):
            assert abs(O[0, j - 1] - mu_moment(2, j, 1, u, d)) < tol


def test_omega_determinant_scaling(cache, monkeypatch):
    # det Omega_3(u) * |m_3(u)|^(3/2) is the same constant at two u values
    monkeypatch.setattr("bwv.besselnum.default_cache", lambda: cache)
    d = 22
    with mp.workdps(d + 10):
        vals = []
        for u in (F(1, 4), F(1, 2)):
            m3 = u**2 * (u - 4) * (u - 16)
            O = matOmega(2, u, d)
            scale = mp.mpf(abs(m3).numerator) / abs(m3).denominator
            vals.append(mpmath.det(O) * scale ** mp.mpf(1.5))
        assert abs(vals[0] - vals[1]) < mpmath.mpf(10) ** (-(d - 8))
        # and the constant is Lambda_3 = 1/20
        assert abs(vals[1] - mp.mpf(1) / 20) < mpmath.mpf(10) ** (-(d - 8))


# -- ibp sanity -------------------------------------------------------------


def test_ibp_sanity_k2(cache, monkeypatch):
    monkeypatch.setattr("bwv.besselnum.default_cache", lambda: cache)
    rep = ibp_sanity(2, 20)
    assert rep["ok"], rep
    assert rep["max_residual"] < tolerance(20)


def test_tolerance_policy():
    assert tolerance(50) == mpmath.mpf(10) ** -40


# -- the names the benchmark traces ----------------------------------------


def test_benchmark_spans_are_public_functions(monkeypatch):
    """perfbench wraps only the public functions a module defines, and reads
    the spans of the matrix builders, moment, bessel and default_cache by
    name: an alias or a partial under one of those names would leave its
    span, and the metrics summed from it, at zero."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    traced = dict(tracing.public_functions(besselnum))
    for name in (*run.MATRIX_BUILDERS, "moment", "bessel", "default_cache"):
        fn = getattr(besselnum, name)
        assert inspect.isfunction(fn) and fn.__name__ == name, name
        assert traced.get(name) is fn, name
