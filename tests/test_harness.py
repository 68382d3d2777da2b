"""Tests for the verification harness and the command-line interface:
report plumbing, suite preconditions, exit-code contract, and cache
subcommands.  The heavy 50-digit runs live in the acceptance tests."""

import json

import pytest

import bwv.cli as cli
from bwv import __version__
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
    rep.checks[0].residual = "1.5e-42"
    rep.checks[0].digits = 50
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


# -- exact suite ------------------------------------------------------------


def test_exact_suite_small_all_pass():
    rep = run_exact_suite(2)
    assert rep.ok, [c.to_dict() for c in rep.checks if c.status != "pass"]
    assert rep.config["max_k"] == 2
    # every check carries at least one reference anchor
    assert all(c.refs for c in rep.checks)
    # exact checks carry no residual
    assert all(c.residual is None for c in rep.checks)


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

    monkeypatch.setattr(cli, "run_exact_suite", lambda *a, **kw: rep)
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


def test_cli_verify_exit_codes_with_injected_results(monkeypatch, capsys,
                                                     tmp_path):
    def fake_suite(statuses):
        def runner(*args, **kwargs):
            return _sample_report(statuses)
        return runner

    monkeypatch.setattr(cli, "run_exact_suite", fake_suite(["pass", "pass"]))
    assert cli.main(["verify", "exact"]) == 0

    monkeypatch.setattr(cli, "run_exact_suite", fake_suite(["pass", "fail"]))
    assert cli.main(["verify", "exact"]) == 1

    monkeypatch.setattr(cli, "run_exact_suite", fake_suite(["error"]))
    assert cli.main(["verify", "exact"]) == 1

    # --report writes a parseable JSON report
    target = tmp_path / "report.json"
    monkeypatch.setattr(cli, "run_exact_suite", fake_suite(["pass"]))
    assert cli.main(["verify", "exact", "--report", str(target)]) == 0
    report = report_from_json(target.read_text())
    assert report.summary["pass"] == 1
    capsys.readouterr()


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
