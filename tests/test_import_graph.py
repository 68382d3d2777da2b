"""Each entry point loads only the layers it runs: the Bessel kernel, the
moments and the moment cache start without the exact algebra and the
harness, and without ``dataclasses`` (which pulls in ``inspect``).  Every
case runs in a fresh interpreter, since an import made by any earlier test
would hide a stray one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bwv

SRC = str(Path(bwv.__file__).resolve().parents[1])
EXACT_LAYERS = {"bwv.brmatrices", "bwv.exactalg", "bwv.vanhove",
                "bwv.harness"}


def _loaded_after(code, tmp_path):
    """The bwv modules, and ``dataclasses`` if it is, loaded once ``code``
    has run in a new process."""
    env = dict(os.environ, BWV_CACHE=str(tmp_path / "m.jsonl"),
               PYTHONPATH=SRC)
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules"
              " if m.startswith('bwv') or m == 'dataclasses')))")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("code", [
    "import bwv.besselnum",
    "import bwv.cli; assert bwv.cli.main(['cache', 'stats']) == 0",
    "import bwv.cli\n"
    "assert bwv.cli.main(['moment', 'IKM', '1', '2', '1',"
    " '--digits', '20']) == 0",
], ids=["import-besselnum", "cache-stats", "moment"])
def test_entry_point_loads_no_exact_layer(code, tmp_path):
    loaded = _loaded_after(code, tmp_path)
    assert "bwv.besselnum" in loaded
    assert not loaded & EXACT_LAYERS, sorted(loaded & EXACT_LAYERS)
    assert "dataclasses" not in loaded

