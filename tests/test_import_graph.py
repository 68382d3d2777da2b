"""Each entry point loads only the layers it runs: the Bessel kernel, the
moments, the moment cache and the Wrońskian matrices (whose beta^-1 comes
from ``bwv.beta``) start without the exact algebra, the harness and the
numeric checks, and without ``dataclasses`` (which pulls in ``inspect``);
``bwv vanhove`` loads the operator layer and the exact algebra under it,
but not the matrices, the harness, the numeric layer or ``dataclasses``;
``bwv verify exact`` and ``bwv matrix`` load the exact layers without the
numeric layer (``bwv.besselnum``, ``bwv.numchecks`` and mpmath) or
``dataclasses``, and ``bwv verify numeric`` loads the numeric layer and
its checks when it runs.  Every case runs in a
fresh interpreter, since an import made by any earlier test would hide a
stray one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bwv

SRC = str(Path(bwv.__file__).resolve().parents[1])
EXACT_LAYERS = {"bwv.brmatrices", "bwv.exactalg", "bwv.vanhove",
                "bwv.harness", "bwv.numchecks"}
NUMERIC_LAYER = {"bwv.besselnum", "bwv.numchecks", "mpmath"}


def _loaded_after(code, tmp_path):
    """The bwv modules, and ``dataclasses`` and ``mpmath`` if they are,
    loaded once ``code`` has run in a new process."""
    env = dict(os.environ, BWV_CACHE=str(tmp_path / "m.jsonl"),
               PYTHONPATH=SRC)
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules"
              " if m.startswith('bwv') or m in ('dataclasses', 'mpmath'))))")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("code", [
    "import bwv.besselnum",
    "import bwv.cli; assert bwv.cli.main(['cache', 'stats']) == 0",
    "import bwv.cli\n"
    "assert bwv.cli.main(['moment', 'IKM', '1', '2', '1',"
    " '--digits', '20']) == 0",
    "from fractions import Fraction\n"
    "from bwv import besselnum\n"
    "besselnum.matOmega(2, Fraction(1, 3), 20)\n"
    "besselnum.matomega(2, Fraction(1, 3), 20)",
], ids=["import-besselnum", "cache-stats", "moment", "wronskians"])
def test_entry_point_loads_no_exact_layer(code, tmp_path):
    loaded = _loaded_after(code, tmp_path)
    assert "bwv.besselnum" in loaded
    assert not loaded & EXACT_LAYERS, sorted(loaded & EXACT_LAYERS)
    assert "dataclasses" not in loaded


def test_vanhove_loads_only_the_operator_layer(tmp_path):
    loaded = _loaded_after(
        "import bwv.cli; assert bwv.cli.main(['vanhove', '--m', '3']) == 0",
        tmp_path)
    assert {"bwv.vanhove", "bwv.exactalg"} <= loaded
    assert not loaded & {"bwv.brmatrices", "bwv.harness", "dataclasses",
                         *NUMERIC_LAYER}, sorted(loaded)


@pytest.mark.parametrize("argv", [
    ["verify", "exact", "--max-k", "2"],
    ["matrix", "BettiB", "--k", "3"],
], ids=["verify-exact", "matrix-BettiB"])
def test_exact_commands_load_no_numeric_layer(argv, tmp_path):
    loaded = _loaded_after(
        f"import bwv.cli; assert bwv.cli.main({argv!r}) == 0", tmp_path)
    assert {"bwv.brmatrices", "bwv.exactalg", "bwv.vanhove"} <= loaded
    assert not loaded & {"dataclasses", *NUMERIC_LAYER}, sorted(loaded)


def test_verify_numeric_loads_the_numeric_layer(tmp_path):
    # --digits 30 is the least the numeric suite takes
    loaded = _loaded_after(
        "import bwv.cli\n"
        "assert bwv.cli.main(['verify', 'numeric', '--max-k', '2',"
        " '--digits', '30']) == 0", tmp_path)
    assert {"bwv.harness", *NUMERIC_LAYER} <= loaded
