"""Tests for the verification harness and the command-line interface:
report plumbing, suite preconditions, exit-code contract, and cache
subcommands.  The heavy 50-digit runs live in the acceptance tests."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bwv.cli as cli
from bwv import (
    __version__,
    besselnum,
    brmatrices,
    exactalg,
    harness,
    numchecks,
    vanhove,
)
from bwv.exactalg import ExactMatrix, RatFunc, UniPoly
from bwv.harness import (
    CheckResult,
    Report,
    _run_exact,
    _run_numeric,
    report_from_json,
    report_to_json,
    run_exact_suite,
    run_numeric_suite,
)

# -- report plumbing --------------------------------------------------------


def _sample_report(statuses):
    checks = [
        CheckResult(f"c{i}", s, residual=None, digits=None,
                    runtime_ms=i, refs=["x.y"])
        for i, s in enumerate(statuses)
    ]
    return Report(__version__, {"suite": "test"}, checks)


def test_summary_counts_match_tallies():
    rep = _sample_report(["pass", "pass", "fail", "error", "skipped"])
    assert rep.summary == {"pass": 2, "fail": 1, "skipped": 1, "error": 1}
    assert not rep.ok
    assert _sample_report(["pass", "skipped"]).ok


def test_report_json_roundtrip():
    rep = _sample_report(["pass", "fail"])
    rep.checks[0] = rep.checks[0]._replace(residual="1.5e-42", digits=50)
    text = report_to_json(rep)
    back = report_from_json(text)
    assert back.to_dict() == rep.to_dict()


def test_report_ignores_unknown_fields():
    rep = _sample_report(["pass"])
    d = rep.to_dict()
    d["future_field"] = {"x": 1}
    d["checks"][0]["another"] = True
    back = Report.from_dict(d)
    assert back.checks[0].check_id == "c0"
    assert back.summary["pass"] == 1


# -- suite preconditions ----------------------------------------------------


def test_exact_suite_precondition():
    with pytest.raises(ValueError):
        run_exact_suite(1)


def test_numeric_suite_preconditions():
    with pytest.raises(ValueError):
        run_numeric_suite(1, 50)
    with pytest.raises(ValueError):
        run_numeric_suite(3, 20)


def _unresolved(refs) -> list:
    """The refs, "module.name", that name no attribute of a bwv module."""
    out = []
    for ref in refs:
        module, _, name = ref.partition(".")
        if not hasattr(importlib.import_module(f"bwv.{module}"), name):
            out.append(ref)
    return out


def test_numeric_suite_max_k_drives_quad_checks(monkeypatch):
    ids, refs = [], []

    def record(check_id, check_refs, digits, fn):
        ids.append(check_id)
        refs.extend(check_refs)
        return CheckResult(check_id, "pass")

    monkeypatch.setattr(harness, "_run_numeric", record)
    run_numeric_suite(4, 30, extended=True)
    assert "quad-M-k4" in ids and "quad-N-k4" in ids
    assert "bm-det-M-k4" in ids and "bm-det-N-k4" in ids
    assert refs and _unresolved(refs) == []


# -- exact suite ------------------------------------------------------------


def test_exact_suite_small_all_pass():
    rep = run_exact_suite(2)
    assert rep.ok, [c.to_dict() for c in rep.checks if c.status != "pass"]
    assert rep.config == {"suite": "exact", "max_k": 2}
    # every check carries at least one reference anchor, and each names
    # an attribute of its bwv module
    assert all(c.refs for c in rep.checks)
    assert _unresolved(r for c in rep.checks for r in c.refs) == []
    # exact checks carry no residual
    assert all(c.residual is None for c in rep.checks)


def _clear_memos():
    for mod in (brmatrices, vanhove):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_exact_suite_forms_no_rational_function(monkeypatch):
    # empty the memos first, so a Q(u) matrix built by an earlier test
    # cannot hide one that the suite would build
    _clear_memos()

    def refuse(self, *args):
        raise AssertionError("a rational function was formed")

    monkeypatch.setattr(RatFunc, "__init__", refuse)
    rep = run_exact_suite(3)
    assert rep.ok, [c.to_dict() for c in rep.checks if c.status != "pass"]


def test_exact_suite_inverts_no_matrix(monkeypatch):
    # every conjugator is invertible, so each identity is checked as an
    # equality of products; only the determinant checks eliminate.  The
    # memos are emptied, so nothing an earlier test inverted is reused
    assert not hasattr(brmatrices, "exact_inverse")
    assert not hasattr(harness, "exact_inverse")
    _clear_memos()

    def refuse(M):
        raise AssertionError("a matrix was inverted")

    monkeypatch.setattr(exactalg, "exact_inverse", refuse)
    rep = run_exact_suite(5)
    assert len(rep.checks) == 41
    assert rep.ok, [c.to_dict() for c in rep.checks if c.status != "pass"]


# Every cached matrix builder of brmatrices, at one argument the default
# exact suite builds, and the reason a bump there may pass every check;
# None means entry (1, 1) raised by 1 must fail some check.  A builder
# that returns a pair is bumped in its last matrix.
_NOT_READ_RINGED_EVEN = "no default check reads the ringed even Betti b_k"
_NOT_READ_RINGED_DERHAM = ("no default check reads the ringed de Rham "
                           "matrices; the u -> 0 route reads only the first")
BUILDER_BUMPS = [
    ("_sigma", (0, 3), None),
    ("_sigma", (1, 3), None),
    ("_sigma_inv", (0, 3), None),
    ("_sigma_inv", (1, 3), None),
    ("_betti", (0, 3), None),
    ("_betti", (1, 3), None),
    ("_betti_ring", (0, 3), None),
    *(("_betti_ring", (1, k), _NOT_READ_RINGED_EVEN) for k in (2, 3, 5)),
    ("frakS", (3,), None),
    ("frakSring", (3,), None),
    ("aux_matrix", ("A", 3), None),
    ("_beta_inverse_at_1", (5,), None),
    ("_pairing_limit", (5, 0), None),
    ("_pairing_limit", (6, 1), None),
    ("_derham", (0, 3), None),
    ("_derham", (1, 3), None),
    ("_derham_ring_blocks", (0, 3), _NOT_READ_RINGED_DERHAM),
    ("_derham_ring_blocks", (1, 3), _NOT_READ_RINGED_DERHAM),
    ("_vmat", (5,), "V and upsilon are for display; the checks read _wmat"),
    ("_vmat", (6,), "V and upsilon are for display; the checks read _wmat"),
    ("_beta_symbolic", (5,), "the exact suite reads beta through bwv.beta"),
]


def test_builder_bump_table_covers_every_cached_matrix_builder():
    # top_coeff and _wmat build polynomials; the symmetry tests below bump
    # _wmat
    cached = {name for name, obj in vars(brmatrices).items()
              if hasattr(obj, "cache_info")
              and obj.__module__ == brmatrices.__name__}
    assert cached - {"top_coeff", "_wmat"} == {
        name for name, _, _ in BUILDER_BUMPS}


@pytest.mark.parametrize("name, args, exempt", BUILDER_BUMPS, ids=[
    "-".join(map(str, (name, *args))) for name, args, _ in BUILDER_BUMPS])
def test_a_bumped_builder_fails_a_default_check(monkeypatch, name, args,
                                                exempt):
    """A pass means the identity holds only if each closed form the suite
    builds is read by some check: a bump must fail one, and an exempt
    bump fails none, so reading that builder must change this table."""
    real = getattr(brmatrices, name)

    def bumped(*a):
        M = real(*a)
        if a != args:
            return M
        pair = isinstance(M, tuple)
        rows = [list(row) for row in (M[-1] if pair else M).entries]
        rows[0][0] += 1
        return (*M[:-1], ExactMatrix(rows)) if pair else ExactMatrix(rows)

    _clear_memos()
    monkeypatch.setattr(brmatrices, name, bumped)
    try:
        rep = run_exact_suite(5)
    finally:
        monkeypatch.undo()
        _clear_memos()
    failed = [c.check_id for c in rep.checks if c.status != "pass"]
    assert bool(failed) != bool(exempt), failed


# (m, j): the constant term of ell_{m,j} raised by 1 on the operator that
# vanhove_operator(m) returns, and the reason that bump may pass every
# default check; None means it must fail one.  bwv.beta has no cached
# builder, so with BUILDER_BUMPS this covers the exact layers' caches.
_EVEN_ELL_0 = ("for even m, ell_{m,0} cancels in the adjoint constraint "
               "and W_m does not read it")
_W11_CORNER = ("W_11 and both order-11 de Rham limits change at (1, 1) "
               "only, an entry no default check reads")
_ORDER_12 = ("the order-12 u -> 1 limit changes only outside rows and "
             "columns 7..11, which d_5 reads, and the suite builds no "
             "order-12 u -> 0 limit")
OPERATOR_BUMPS = [
    (11, 0, None), (11, 2, None), (11, 4, None), (12, 1, None),
    *((m, 0, _EVEN_ELL_0) for m in (6, 8, 10, 12)),
    (11, 1, _W11_CORNER), (12, 2, _ORDER_12), (12, 4, _ORDER_12),
]


@pytest.mark.parametrize("m, j, exempt", OPERATOR_BUMPS, ids=[
    f"ell-{m}-{j}" for m, j, _ in OPERATOR_BUMPS])
def test_a_bumped_operator_coefficient_fails_a_default_check(monkeypatch, m,
                                                             j, exempt):
    real = vanhove.vanhove_operator

    def bumped(n):
        op = real(n)
        if n != m:
            return op
        coeffs = list(op.coeffs)
        c = coeffs[j]
        coeffs[j] = UniPoly.of("u", [c.coeff(0) + 1, *c.coeffs[1:]])
        return op._replace(coeffs=tuple(coeffs))

    _clear_memos()
    for mod in (vanhove, brmatrices, harness):
        monkeypatch.setattr(mod, "vanhove_operator", bumped)
    try:
        rep = run_exact_suite(5)
    finally:
        monkeypatch.undo()
        _clear_memos()
    failed = [c.check_id for c in rep.checks if c.status != "pass"]
    assert bool(failed) != bool(exempt), failed


# W_{2k + shift}[i][j] (0-based, negative from the end) gains 1
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("shift, i, j", [
    (-1, 0, 1), (-1, -1, 0),  # V_{2k-1}: one off-diagonal entry
    (0, 0, 0), (0, -1, -1),   # upsilon_{2k}: one nonzero diagonal entry
], ids=["V-12", "V-last-row", "upsilon-11", "upsilon-last"])
def test_symmetry_check_catches_a_bumped_numerator(monkeypatch, k, shift,
                                                   i, j):
    order = 2 * k + shift
    real = brmatrices._wmat
    W = [list(row) for row in real(order)]
    w = W[i][j]
    W[i][j] = UniPoly.of("u", [w.coeff(0) + 1, *w.coeffs[1:]])
    monkeypatch.setattr(brmatrices, "_wmat",
                        lambda m: W if m == order else real(m))
    assert not harness._check_symmetry(k)


# the sigma of _FAMILIES row p has its entry (i, j) (0-based) bumped by 1
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("p, i, j", [
    (0, 0, 1),  # Sigma_{2k-1}: one off-diagonal entry of the top-left block
    (1, 1, 1),  # sigma_{2k}: one diagonal entry
], ids=["Sigma-12", "sigma-22"])
def test_symmetry_check_reads_sigma(monkeypatch, k, p, i, j):
    fam = harness._FAMILIES[p]
    rows = [list(row) for row in fam.sigma(k).entries]
    rows[i][j] += 1
    bumped = fam._replace(sigma=lambda n: ExactMatrix(rows) if n == k
                          else fam.sigma(n))
    families = list(harness._FAMILIES)
    families[p] = bumped
    monkeypatch.setattr(harness, "_FAMILIES", tuple(families))
    assert not harness._check_symmetry(k)


# -- numeric check runner ---------------------------------------------------


def test_run_numeric_residual_and_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("BWV_CACHE", str(tmp_path / "m.jsonl"))
    from bwv.besselnum import moment_value
    from mpmath import mp

    def residual():
        v = moment_value("IKM", 1, 2, 1, None, 30)
        return abs(v - mp.pi / (3 * mp.sqrt(3)))

    cold = _run_numeric("classical", ["a.b"], 30, residual)
    r1 = _run_numeric("classical", ["a.b"], 30, residual)
    r2 = _run_numeric("classical", ["a.b"], 30, residual)
    assert cold.status == r1.status == r2.status == "pass"
    assert r1.digits == 30
    # warm-cache reruns are identical modulo runtime
    assert r1.residual == r2.residual


def test_cold_and_warm_numeric_reports_agree(tmp_path, monkeypatch):
    # a computed moment is read back from its stored string, so a cold run
    # and a warm run from a fresh process's view of the cache print the
    # same residuals
    cold_path, warm_path = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
    monkeypatch.setenv("BWV_CACHE", str(cold_path))
    cold = run_numeric_suite(2, 30)
    warm_path.write_bytes(cold_path.read_bytes())
    monkeypatch.setenv("BWV_CACHE", str(warm_path))
    warm = run_numeric_suite(2, 30)
    assert warm_path.read_bytes() == cold_path.read_bytes()  # nothing computed
    assert [(c.check_id, c.status, c.residual) for c in warm.checks] == [
        (c.check_id, c.status, c.residual) for c in cold.checks]


def test_one_sweep_per_cold_check(tmp_path, monkeypatch):
    # each scalar check reads all its family entries in one batch, so from
    # an empty cache it makes one quadrature call
    calls = []
    integrate = besselnum._integrate

    def counting(keys):
        calls.append(len(keys))
        return integrate(keys)

    monkeypatch.setattr(besselnum, "_integrate", counting)
    for name, check in (
            ("reflection-k3", lambda: numchecks._reflection_check(3, 20)),
            ("sumrule-N3-linear",
             lambda: numchecks._sumrule_N3_linear_check(20)),
            ("ibp-sanity-k2", lambda: numchecks._ibp_check(2, 20))):
        monkeypatch.setenv("BWV_CACHE", str(tmp_path / f"{name}.jsonl"))
        calls.clear()
        result = _run_numeric(name, [], 20, check)
        assert result.status == "pass", result
        assert len(calls) == 1, (name, calls)


def test_run_numeric_records_error():
    def boom():
        raise RuntimeError("nope")

    r = _run_numeric("x", ["a"], 30, boom)
    assert r.status == "error" and r.residual is None
    assert r.error == "RuntimeError: nope"


def test_error_text_in_report_and_cli(monkeypatch, capsys):
    def boom():
        raise ZeroDivisionError("singular matrix")

    good = _run_exact("good", ["a"], lambda: True)
    bad = _run_exact("bad", ["a"], boom)
    assert bad.status == "error"
    assert bad.to_dict()["error"] == "ZeroDivisionError: singular matrix"
    # a passing record keeps its schema-1 fields
    assert good.error is None and "error" not in good.to_dict()
    rep = Report(__version__, {"suite": "test"}, [good, bad])
    back = report_from_json(report_to_json(rep))
    assert back.to_dict() == rep.to_dict()
    assert back.checks[1].error == bad.error
    # a schema-1 record without the field reads as no error text
    d = rep.to_dict()
    del d["checks"][1]["error"]
    assert Report.from_dict(d).checks[1].error is None

    monkeypatch.setattr(harness, "run_exact_suite", lambda *a, **kw: rep)
    assert cli.main(["verify", "exact"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "error=ZeroDivisionError: singular matrix" in out[1]
    assert "error=" not in out[0]


# -- CLI --------------------------------------------------------------------


def test_cli_matrix_betti_b_json(capsys):
    assert cli.main(["matrix", "betti_B", "--k", "2", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["entries"][0][0] == "1/80"
    assert out["entries"][1][1] == "-3/64"


def test_cli_matrix_registry_name_matches_alias(capsys):
    assert cli.main(["matrix", "BettiB", "--k", "2", "--json"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["matrix", "betti_B", "--k", "2", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_cli_matrix_with_evaluation_point(capsys):
    assert cli.main(["matrix", "V", "--k", "2", "--u", "1/2", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ring"] == "Q"


def test_cli_matrix_usage_errors(capsys):
    assert cli.main(["matrix", "NoSuchFamily", "--k", "2"]) == 2
    # rational families reject an evaluation point
    assert cli.main(["matrix", "betti_B", "--k", "2", "--u", "1/2"]) == 2
    # bad k is a domain error
    assert cli.main(["matrix", "betti_B", "--k", "0"]) == 2
    # a pole of a Q(u) family at the evaluation point is a usage error
    capsys.readouterr()
    assert cli.main(["matrix", "V", "--k", "2", "--u", "0"]) == 2
    assert capsys.readouterr().err.startswith("bwv: ")


def test_cli_vanhove(capsys):
    assert cli.main(["vanhove", "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert "l[1,1](u)" in out
    assert cli.main(["vanhove", "--m", "2", "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["m"] == 2 and len(parsed["coefficients"]) == 3


def test_cli_moment_classical(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BWV_CACHE", str(tmp_path / "m.jsonl"))
    assert cli.main(["moment", "IKM", "1", "2", "1", "--digits", "35"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("0.604599788078072616864692752547")


def test_cli_moment_divergent_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BWV_CACHE", str(tmp_path / "m.jsonl"))
    assert cli.main(["moment", "IKM", "1", "1", "1", "--digits", "30"]) == 2
    assert "divergent" in capsys.readouterr().err


def test_cli_usage_errors_exit_2():
    assert cli.main(["verify", "bogus"]) == 2
    assert cli.main(["no-such-command"]) == 2
    assert cli.main([]) == 2
    assert cli.main(["verify", "exact", "--extended"]) == 2


def test_cli_unwritable_report_is_usage_error(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(harness, "run_exact_suite",
                        lambda *a, **kw: _sample_report(["pass"]))
    for target, reason in ((tmp_path / "missing" / "r.json",
                            "No such file or directory"),
                           (tmp_path, "Is a directory")):
        assert cli.main(["verify", "exact", "--report", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out.splitlines()[-1].startswith("summary: 1 pass")
        assert err == f"bwv: cannot write report {target}: {reason}\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_verify_exit_codes_with_injected_results(monkeypatch, capsys,
                                                     tmp_path):
    def fake_suite(statuses):
        def runner(*args, **kwargs):
            return _sample_report(statuses)
        return runner

    monkeypatch.setattr(harness, "run_exact_suite",
                        fake_suite(["pass", "pass"]))
    assert cli.main(["verify", "exact"]) == 0

    monkeypatch.setattr(harness, "run_exact_suite",
                        fake_suite(["pass", "fail"]))
    assert cli.main(["verify", "exact"]) == 1

    monkeypatch.setattr(harness, "run_exact_suite", fake_suite(["error"]))
    assert cli.main(["verify", "exact"]) == 1

    # --report writes a parseable JSON report
    target = tmp_path / "report.json"
    monkeypatch.setattr(harness, "run_exact_suite", fake_suite(["pass"]))
    assert cli.main(["verify", "exact", "--report", str(target)]) == 0
    report = report_from_json(target.read_text())
    assert report.summary["pass"] == 1
    capsys.readouterr()


def _bwv(argv, tmp_path, stdout):
    """Start ``python -m bwv.cli argv`` in a new process writing to stdout."""
    env = dict(os.environ, BWV_CACHE=str(tmp_path / "m.jsonl"),
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.Popen([sys.executable, "-m", "bwv.cli", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_cli_reader_closing_the_pipe_ends_only_the_output(tmp_path):
    # about 200 kB of JSON, more than a pipe holds: the command is still
    # writing when the reader closes after one byte
    proc = _bwv(["matrix", "V", "--k", "12", "--json"], tmp_path,
                subprocess.PIPE)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait() == 0


def test_cli_verify_on_a_closed_pipe_writes_its_report(tmp_path):
    # the reader is gone before the command starts, so its first write
    # breaks the pipe; the report and the verdict stand
    target = tmp_path / "rep.json"
    r, w = os.pipe()
    os.close(r)
    proc = _bwv(["verify", "exact", "--max-k", "2", "--report", str(target)],
                tmp_path, w)
    os.close(w)
    assert proc.stderr.read() == b""
    assert proc.wait() == 0
    report = report_from_json(target.read_text())
    assert report.ok and len(report.checks) == 17


class _ClosedPipe:
    """A stdout whose reader has gone: every write breaks the pipe."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_cli_verify_on_a_closed_pipe_keeps_a_failing_verdict(monkeypatch,
                                                             tmp_path):
    target = tmp_path / "rep.json"
    monkeypatch.setattr(harness, "run_exact_suite",
                        lambda *a, **kw: _sample_report(["pass", "fail"]))
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        assert cli.main(["verify", "exact", "--report", str(target)]) == 1
    assert report_from_json(target.read_text()).summary["fail"] == 1


def test_cli_cache_subcommands(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BWV_CACHE", str(tmp_path / "m.jsonl"))
    assert cli.main(["cache", "path"]) == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "m.jsonl")
    assert cli.main(["moment", "IKM", "1", "3", "1", "--digits", "30"]) == 0
    capsys.readouterr()
    assert cli.main(["cache", "stats"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 1
    assert cli.main(["cache", "verify"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
