"""Golden output of the exact layers and of the moment cache.

Each exact hash is the SHA-256 of text the exact layers print: the JSON
output of ``bwv vanhove --m M --json`` for m <= 12, and ``matrix_to_json``
of the de Rham matrices and the Q(u) families for k <= 5.  The hashes were
taken from the Fraction-backed polynomial core that preceded the
integer-backed one, so a change of representation must reproduce its output
byte for byte.

The moment hash is the SHA-256 of the cache file a cold build of matM and
matN for k <= 3 and matOmega(2, 1/3) at 20 digits writes.  It was taken
from the quadrature that rebuilt every node for every moment, before the
shared grid.  A change to the quadrature, the kernel or the guard digits
that alters a stored value must bump ``besselnum._KERNEL_TAG``, and then
this hash.

A second cold build, of matMring, matNring and matomega(k, 1/3) for
k <= 2 at 20 digits, pins the log-weighted and even off-shell families
the same way ("families").  The two "entries" hashes pin what the builders
assemble from the moments (the pi powers, the signs and the inverse beta
product): the SHA-256 of ``repr(x._mpf_)`` of every entry, row by row.
All four were taken from the ten separate builders that preceded the
family table.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from bwv import besselnum, cli
from bwv.brmatrices import matrix_family, matrix_to_json

GOLDEN_SHA256 = {
    "vanhove":
        "ff2c3e6ef589f7a971f91f3c88f29fbba196878e5fbb35159d8e5a0269b1d370",
    "DerhamD":
        "307fc684ceff62166346b243b65ad75a3d6489465617565ca55a5228248c38b1",
    "Derhamd":
        "9eb4a3c10f8596b68d2e9bd312dc6128a2321da509d70ca3293b8527490fbc5f",
    "DerhamDring":
        "6fe762656ebfe09b7ec1407760297baf63ee3b2e1d35ea61183fdb16fc3da79a",
    "Derhamdring":
        "7e6cf7c4326809ae6e6b42f52cc7548668ed1823dbe1a14d8d8046a3005c6c4a",
    "V":
        "5c5803daf4d6cfbbd536975abe12bbe8e91d0704a78949f20490fb27eab3d177",
    "Upsilon":
        "d1ba8d16cf0c3c09710d0904dee390e6d8ec88f9c221eeb6dbb40fc341bb750f",
    "Beta":
        "5dce301d58b4b50119db438bf6ea0098d95bab1783f9af5759d215d5048ccff4",
    "moments":
        "d5226d0636636c0e0abd6d613477bc26ede045bdb1fe19b79b413416659ff385",
    "moment_entries":
        "7ee05dacbd59de310b91683a6fada3f813d33c42856aa8c26eabd820d1f196bb",
    "families":
        "c5ff7599c6f1c20f57da14aa71470199e80865db54337b2a56e8fcb7270bd839",
    "family_entries":
        "f36cebf9ae01732c133cd809c7ad2bb68ef882b68555b4ab1502ad9f28751560",
}

#: The tag the moment hash was taken under.
GOLDEN_KERNEL_TAG = "ik-series-asymptotic/1"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _entries_sha256(matrices) -> str:
    return _sha256("".join(
        repr(m[i, j]._mpf_) + "\n"
        for m in matrices for i in range(m.rows) for j in range(m.cols)))


def test_vanhove_cli_json_golden(capsys):
    out = []
    for m in range(1, 13):
        assert cli.main(["vanhove", "--m", str(m), "--json"]) == 0
        out.append(capsys.readouterr().out)
    assert _sha256("".join(out)) == GOLDEN_SHA256["vanhove"]


@pytest.mark.parametrize(
    "family",
    ["DerhamD", "Derhamd", "DerhamDring", "Derhamdring", "V", "Upsilon", "Beta"],
)
def test_matrix_json_golden(family):
    text = "".join(
        json.dumps(matrix_to_json(family, k, matrix_family(family, k)),
                   sort_keys=True) + "\n"
        for k in range(1, 6)
    )
    assert _sha256(text) == GOLDEN_SHA256[family]


def test_moment_cache_golden(tmp_path, monkeypatch):
    path = tmp_path / "moments.jsonl"
    monkeypatch.setenv("BWV_CACHE", str(path))
    built = []
    for k in (1, 2, 3):
        built.append(besselnum.matM(k, 20))
        built.append(besselnum.matN(k, 20))
    built.append(besselnum.matOmega(2, Fraction(1, 3), 20))
    assert besselnum._KERNEL_TAG == GOLDEN_KERNEL_TAG
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        GOLDEN_SHA256["moments"])
    assert _entries_sha256(built) == GOLDEN_SHA256["moment_entries"]

    path = tmp_path / "families.jsonl"
    monkeypatch.setenv("BWV_CACHE", str(path))
    built = []
    for k in (1, 2):
        built.append(besselnum.matMring(k, 20))
        built.append(besselnum.matNring(k, 20))
        built.append(besselnum.matomega(k, Fraction(1, 3), 20))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        GOLDEN_SHA256["families"])
    assert _entries_sha256(built) == GOLDEN_SHA256["family_entries"]
