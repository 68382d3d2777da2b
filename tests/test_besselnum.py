"""Tests for the numerical layer: Bessel functions, moment integrals,
the moment cache, matrix assembly, and the integration-by-parts sanity
checks.  Precision is kept modest so the suite stays fast; the heavy
high-precision runs live in the acceptance tests."""

import importlib
import inspect
import json
import warnings
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from bwv import besselnum, brmatrices, cli, exactalg, numchecks, vanhove
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
    family_moments,
    matM,
    matN,
    matOmega,
    moment,
    moment_value,
    tolerance,
)
from bwv.vanhove import borwein_salvy_operator

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
    # nan and inf once answered nan (I0 at inf) or 0 (K0 at inf)
    for kind in ("I0", "I1", "K0", "K1"):
        for t in (mpmath.nan, mpmath.inf, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                bessel(kind, t, 20)


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
        for p, last in ((0, 3 * k - 1), (1, 3 * k + 1)):
            for acute in (False, True):
                for j in (0, last + 1):
                    with pytest.raises(ValueError, match="out of range"):
                        family_moments([(p, acute, k, j, 1)], F(1, 2), 20)


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


def test_plain_family_at_u_one_stores_ikm(tmp_path, monkeypatch):
    # at u = 1 the plain family reads each integral under its IKM key, and
    # the column-1 blend of the two equal keys is the moment itself
    c = MomentCache(str(tmp_path / "m.jsonl"))
    monkeypatch.setattr("bwv.besselnum.default_cache", lambda: c)
    d = 20
    mu = family_moments([(0, False, 2, j, 1) for j in (1, 2, 3)], 1, d)
    assert c.stats()["by_kind"] == {"IKM": 2}
    with mp.workdps(d + 10):
        for v, a in zip(mu, (1, 2, 2)):
            ikm = moment_value("IKM", a, 5 - a, 1, None, d, cache=c)
            assert _close(v, mp.pi ** (a - 3) * ikm, d)


def test_precision_scaling(cache):
    lo = moment(MomentKey("IKM", 1, 3, 1, None, 20), cache=cache)
    hi = moment(MomentKey("IKM", 1, 3, 1, None, 40), cache=cache)
    with mp.workdps(45):
        assert abs(mp.mpf(lo) - mp.mpf(hi)) < mpmath.mpf(10) ** -20


def _recurrence_terms(cache, a, b, k, digits):
    """The terms P_i(-k-2i-1) IKM(a, b; k+2i) of the Borwein-Salvy
    recurrence, whose sum vanishes, and their keys."""
    table = borwein_salvy_operator(a + b - 1)
    coeffs = [int(p.eval(-k - 2 * i - 1)) for i, p in enumerate(table)]
    keys = [MomentKey("IKM", a, b, k + 2 * i, None, digits)
            for i in range(len(table))]
    values = [moment(key, cache=cache) for key in keys]
    # the moments carry 45 digits; a sum at the default 15 would not see it
    with mp.workdps(digits + 10):
        return [c * mp.mpf(v) for c, v in zip(coeffs, values)], keys


def _relative_residual(terms):
    return abs(mp.fsum(terms)) / max(abs(t) for t in terms)


@pytest.mark.parametrize("a, b, k", [(1, 2, 1), (0, 3, 1), (1, 3, 1),
                                     (2, 5, 1), (1, 6, 1), (0, 7, 1),
                                     (2, 7, 1)])
def test_borwein_salvy_moment_recurrence(cache, a, b, k):
    # L_{n+2} = sum_i t^(2i) P_i(theta) annihilates I0^a K0^b for
    # a + b = n + 1; integrating t^k L[.] by parts with theta* = -theta - 1
    # gives sum_i P_i(-k-2i-1) IKM(a, b; k+2i) = 0.  The boundary terms
    # vanish: b > a gives decay at infinity, and t^k K0^b -> 0 at 0 (k >= 1).
    # (2, 5, 1) reaches IKM(2, 5; 5), a moment of the k = 3 M-row.  The
    # cases with b - a >= 5 decay fastest, so they are the moments that the
    # shared grid, which ignores the decay rate, fits least well.
    assert b > a and k >= 1
    digits = 30
    terms, keys = _recurrence_terms(cache, a, b, k, digits)
    with mp.workdps(digits + 10):
        residual = _relative_residual(terms)
    assert residual < mpmath.mpf(10) ** -25, residual
    # an error of 10^-(digits-5) in one stored moment shows: the clean
    # residual stays below 10^-(digits+2), and once the record of the
    # largest term is perturbed the residual read back exceeds it
    assert residual < mpmath.mpf(10) ** -(digits + 2), residual
    n = keys[max(range(len(terms)), key=lambda i: abs(terms[i]))].n
    path = Path(cache.path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        if rec["n"] == n:
            with mp.workdps(digits + GUARD_DIGITS):
                wrong = mp.mpf(rec["value"]) * (
                    1 + mpmath.mpf(10) ** -(digits - 5))
                rec["value"] = mp.nstr(wrong, digits + GUARD_DIGITS)
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    terms, _ = _recurrence_terms(MomentCache(str(path)), a, b, k, digits)
    with mp.workdps(digits + 10):
        assert _relative_residual(terms) > mpmath.mpf(10) ** -(digits + 2)


def test_every_moment_shares_one_grid(tmp_path, monkeypatch):
    # the golden "moments" cold build: its moments decay at rates 1 to 6,
    # and all of them walk the same grid over (0,oo), so each node's Bessel
    # pairs are computed once for all of them
    monkeypatch.setenv("BWV_CACHE", str(tmp_path / "moments.jsonl"))
    besselnum._grid.cache_clear()
    calls = []
    ik = besselnum._ik

    def counted(order, t):
        calls.append((order, t._mpf_))
        return ik(order, t)

    monkeypatch.setattr(besselnum, "_ik", counted)
    for k in (1, 2, 3):
        matM(k, 20)
        matN(k, 20)
    matOmega(2, F(1, 3), 20)
    assert besselnum._grid.cache_info().currsize == 1
    # no two nodes share a t, so no pair is computed twice: t = 1 and
    # sqrt(1/3) are no exception
    repeated = {c: n for c, n in Counter(calls).items() if n > 1}
    assert repeated == {}
    # every sum stops at level 2
    assert len(calls) == 480


def test_sweep_order_changes_no_stored_value(tmp_path, monkeypatch):
    # Each node keeps its fixed-point power tables for every later sweep,
    # so a table is made by whichever matrix first reaches the node.  Two
    # build orders must store the same string for every key; the second
    # runs beside a grid of another precision, whose tables must not reach
    # the 20-digit sums.
    builds = {"M": lambda: matM(3, 20), "N": lambda: matN(3, 20),
              "Omega": lambda: matOmega(2, F(1, 3), 20)}
    stored = []
    for order in (("M", "N", "Omega"), ("Omega", "N", "M")):
        besselnum._grid.cache_clear()
        if order[0] == "Omega":
            monkeypatch.setenv("BWV_CACHE", str(tmp_path / "other.jsonl"))
            matM(2, 30)
        path = tmp_path / f"{order[0]}.jsonl"
        monkeypatch.setenv("BWV_CACHE", str(path))
        for name in order:
            builds[name]()
        stored.append(sorted(path.read_text().splitlines()))
    assert besselnum._grid.cache_info().currsize == 2
    assert stored[0] == stored[1]


#: Moments whose integrand decays slowly at the edge of what
#: ``_check_convergent`` admits, with closed forms that need no quadrature.
#: IKvM(0,1;n|u) has c = 0, s = +1 and decays like e^(-sqrt(u) t);
#: IvKM(1,1;n|u) has c = 1, s = -1 and decays like e^(-(1 - sqrt(u)) t).
_SLOW_DECAY = [
    ("IKvM", 0, 1, 1, F(1, 10**6), lambda u: 1 / u),
    ("IKvM", 0, 1, 3, F(1, 10**6), lambda u: 4 / u**2),
    ("IvKM", 1, 1, 1, F(99, 100), lambda u: 1 / (1 - u)),
    ("IvKM", 1, 1, 3, F(99, 100), lambda u: 4 * (1 + u) / (1 - u) ** 3),
]


@pytest.mark.parametrize("digits", [20, 50])
@pytest.mark.parametrize("kind, a, b, n, u, closed", _SLOW_DECAY,
                         ids=[f"{c[0]}-{c[3]}" for c in _SLOW_DECAY])
def test_slowly_decaying_moments_match_closed_forms(tmp_path, digits, kind, a,
                                                   b, n, u, closed):
    # decay rates 10^-3 and 1 - sqrt(99/100) ~ 0.005: the integrand reaches
    # far along (1,oo), and the sweep must still converge to the closed form
    # (a slow integrand may raise QuadratureError, never return a wrong value)
    cache = MomentCache(str(tmp_path / "m.jsonl"))
    v = moment(MomentKey(kind, a, b, n, u, digits), cache=cache)
    with mp.workdps(digits + GUARD_DIGITS):
        exact = closed(besselnum._to_mpf(u))
        assert abs(v - exact) <= mpmath.mpf(10) ** -digits * abs(exact), (
            v, exact)


@pytest.mark.parametrize("digits", [20, 50])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_log_moment_matches_the_mellin_transform(tmp_path, digits, n):
    # int_0^oo K0(t) t^(s-1) dt = 2^(s-2) Gamma(s/2)^2; its s-derivative at
    # s = n+1 is IKM_LOG(0,1;n) = 2^(n-1) Gamma((n+1)/2)^2
    # (ln 2 + psi((n+1)/2)), whose integrand carries the log-power
    # singularity log(t)^2 at t = 0 when n = 0
    cache = MomentCache(str(tmp_path / "m.jsonl"))
    v = moment(MomentKey("IKM_LOG", 0, 1, n, None, digits), cache=cache)
    with mp.workdps(digits + GUARD_DIGITS):
        h = mp.mpf(n + 1) / 2
        exact = mp.ldexp(mp.gamma(h) ** 2, n - 1) * (mp.ln2 + mp.digamma(h))
        assert abs(v - exact) <= mpmath.mpf(10) ** -digits * abs(exact), (
            v, exact)


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


# a value no kernel writes: not a string, or not a finite number
@pytest.mark.parametrize("value", [
    "nan", "inf", "-inf", "1e999999999999", 0.6045997880780726, True,
], ids=["nan", "inf", "-inf", "huge", "number", "true"])
def test_cache_skips_a_value_no_kernel_writes(tmp_path, monkeypatch, capsys,
                                              value):
    args = ["moment", "IKM", "1", "2", "1", "--digits", "20"]
    monkeypatch.setenv("BWV_CACHE", str(tmp_path / "fresh.jsonl"))
    assert cli.main(args) == 0
    expect = capsys.readouterr().out
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({
        "kind": "IKM", "a": 1, "b": 2, "n": 1, "u": None, "digits": 30,
        "value": value, "kernel": _KERNEL_TAG}) + "\n")
    c = MomentCache(str(path))
    assert c.stats()["skipped"] == 1
    assert c.get(MomentKey("IKM", 1, 2, 1, None, 20)) is None
    # the CLI reports the line and recomputes the moment it names
    monkeypatch.setenv("BWV_CACHE", str(path))
    assert cli.main(["cache", "verify"]) == 1
    assert json.loads(capsys.readouterr().out)["skipped"] == 1
    assert cli.main(args) == 0
    assert capsys.readouterr().out == expect


def test_unwritable_cache_keeps_values_in_memory(tmp_path, monkeypatch,
                                                 capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    c = MomentCache(str(blocker / "m.jsonl"))
    keys = [MomentKey("IKM", 1, 2, 1, None, 20),
            MomentKey("IKM", 1, 3, 1, None, 20)]
    with pytest.warns(RuntimeWarning, match="cannot be written") as caught:
        for key in keys:
            moment(key, cache=c)
    assert len(caught) == 1  # once per cache, not once per append
    writable = MomentCache(str(tmp_path / "ok.jsonl"))
    for key in keys:
        moment(key, cache=writable)
        assert c.get(key) is not None and c.get(key) == writable.get(key)
    # the CLI prints the digits a writable cache gives, and warns only
    # when it cannot write
    runs = []
    for path in (tmp_path / "cold.jsonl", blocker / "m.jsonl"):
        monkeypatch.setenv("BWV_CACHE", str(path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["moment", "IKM", "1", "2", "1",
                             "--digits", "20"]) == 0
        runs.append((capsys.readouterr().out, len(caught)))
    assert runs[0][0] == runs[1][0] and runs[0][0].strip()
    assert [n for _, n in runs] == [0, 1]


def test_unreadable_cache_reads_as_empty(tmp_path, monkeypatch, capsys):
    folder = tmp_path / "adir"
    folder.mkdir()
    with pytest.warns(RuntimeWarning, match="cannot be read"):
        c = MomentCache(str(folder))
    assert c.stats()["entries"] == 0 and not c.stats()["file_exists"]
    with pytest.warns(RuntimeWarning, match="cannot be read"):
        rep = c.verify()
    assert not rep["ok"] and rep["error"].startswith("IsADirectoryError")
    monkeypatch.setenv("BWV_CACHE", str(folder))
    with pytest.warns(RuntimeWarning, match="cannot be read"):
        assert cli.main(["cache", "stats"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0
        assert cli.main(["cache", "verify"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert not rep["ok"] and "IsADirectoryError" in rep["error"]


def test_quadrature_failure_raises_and_caches_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr("bwv.besselnum.LEVEL_BUDGET", 0)
    path = tmp_path / "m.jsonl"
    c = MomentCache(str(path))
    key = MomentKey("IKM", 1, 2, 1, None, 20)
    with pytest.raises(QuadratureError):
        moment(key, cache=c)
    assert c.get(key) is None and not path.exists()
    assert MomentCache(str(path)).stats()["entries"] == 0


def test_quadrature_failure_names_the_key(tmp_path, monkeypatch):
    monkeypatch.setattr("bwv.besselnum.LEVEL_BUDGET", 0)
    c = MomentCache(str(tmp_path / "m.jsonl"))
    monkeypatch.setattr("bwv.besselnum.default_cache", lambda: c)
    with pytest.raises(QuadratureError, match=r"kind='IKM', a=1, b=4, n=1"):
        matM(2, 20)
    assert c.stats()["entries"] == 0


def test_cache_determinism(tmp_path, monkeypatch):
    key = MomentKey("IKM", 2, 5, 3, None, 22)
    c1 = MomentCache(str(tmp_path / "a.jsonl"))
    c2 = MomentCache(str(tmp_path / "b.jsonl"))
    moment(key, cache=c1)
    moment(key, cache=c2)
    s1 = c1.get(key)
    s2 = c2.get(key)
    assert s1 == s2  # identical decimal strings from independent runs
    # a key computed alone writes the string it writes when it is swept
    # together with the rest of a matrix
    u = F(1, 3)
    for build, key in (
        (lambda: matM(3, 20), MomentKey("IKM", 2, 5, 3, None, 20)),
        (lambda: matOmega(2, u, 20), MomentKey("IKpM", 2, 3, 1, u, 20)),
    ):
        alone = MomentCache(str(tmp_path / f"alone-{key.kind}.jsonl"))
        moment(key, cache=alone)
        batch = MomentCache(str(tmp_path / f"batch-{key.kind}.jsonl"))
        monkeypatch.setattr("bwv.besselnum.default_cache", lambda: batch)
        build()
        assert batch.get(key) is not None
        assert batch.get(key) == alone.get(key)


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
        mu = family_moments([(0, False, 2, j, 1) for j in (1, 2, 3)], u, d)
        for j in (1, 2, 3):
            assert abs(O[0, j - 1] - mu[j - 1]) < tol


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


# -- integration by parts ---------------------------------------------------


def test_ibp_sanity_k2(cache, monkeypatch):
    monkeypatch.setattr("bwv.besselnum.default_cache", lambda: cache)
    with mp.workdps(20 + GUARD_DIGITS):
        assert numchecks._ibp_check(2, 20) < tolerance(20)


def test_tolerance_policy():
    assert tolerance(50) == mpmath.mpf(10) ** -40


# -- the names the benchmark traces ----------------------------------------


def test_benchmark_spans_are_public_functions(monkeypatch):
    """perfbench wraps only the public functions a module defines, and reads
    the spans of the matrix builders, moment, bessel and default_cache by
    name: an alias or a partial under one of those names would leave its
    span, and the metrics summed from it, at zero.  The same holds for the
    exactalg, vanhove and brmatrices spans it reads, and for the brmatrices
    functions its child process calls (memoized ones are cache wrappers
    around a function of the same name)."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    traced = dict(tracing.public_functions(besselnum))
    for name in (*run.MATRIX_BUILDERS, "moment", "bessel", "default_cache"):
        fn = getattr(besselnum, name)
        assert inspect.isfunction(fn) and fn.__name__ == name, name
        assert traced.get(name) is fn, name
    spans = {
        exactalg: ("exact_inverse", "exact_det"),
        vanhove: ("vanhove_operator", "verify_verrill_recursion",
                  "verify_bms_duality"),
        brmatrices: ("derham_alternatives", "verify_block_identities",
                     "derham_D", "derham_d", "betti_B", "betti_b", "matV",
                     "matSigma", "top_coeff", "named_constant"),
    }
    for module, names in spans.items():
        traced = dict(tracing.public_functions(module))
        for name in names:
            fn = getattr(module, name)
            assert inspect.isfunction(inspect.unwrap(fn)), name
            assert fn.__name__ == name and fn.__module__ == module.__name__
            assert traced.get(name) is fn, name
