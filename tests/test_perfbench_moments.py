"""The benchmark's moments child, run as the benchmark runs it: a fresh
process over an empty moment cache.  It reads bwv's public API directly
(matV, exact_inverse, top_coeff, named constants, the de Rham and Betti
matrices, Sigma, and the moment matrices M, N and Omega), so a change
that drops or renames one of these fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_moments_child_passes_every_gate(tmp_path):
    req, out = tmp_path / "req.json", tmp_path / "out.json"
    req.write_text(json.dumps({"mode": "moments", "trace": False,
                               "digits": 20, "max_k": 3, "u": "1/3"}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               BWV_CACHE=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(req),
         str(out)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["rc"] == 0
    assert len(result["checks"]) == 12
    assert all(c["ok"] for c in result["checks"]), result["checks"]
