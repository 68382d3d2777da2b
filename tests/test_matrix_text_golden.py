"""Golden hashes of the text form of the Q(u) matrix families.

``bwv matrix`` without ``--json`` prints ``str()`` of the matrix, so these
hashes pin the printed rational functions (reduced, with a monic
denominator) of V, Upsilon and Beta at k = 1..5, and the Q matrix each
family gives at u = 1/3.  ``test_matrix_json_golden`` pins only the JSON
form.  The larger pins cover the text and JSON forms at k = 6..8, and
both forms of the value at the points the off-shell checks read (u = 1/4
and 1/2) and one more (u = 5/8) for k <= 5."""

import hashlib
import json
from fractions import Fraction

import pytest

from bwv.brmatrices import matrix_family, matrix_to_json

TEXT_SHA256 = {
    "V": "766cbbdc320e70a0706354984dca88e7067769cffaa1cb50f1a45b1cfb4fd77f",
    "Upsilon":
        "53f72522065c4c4f15785daee939367fa3006cf3e9d1ef45ad1b0065500a8bfc",
    "Beta": "5657eba7566e995a11367da449ffcd848d2a467d98980f5941a41a35981757f4",
}

# (text at k = 6..8, JSON at k = 6..8, text and JSON at the three points)
LARGE_SHA256 = {
    "V": (
        "d3ffbbefce398c97253b909b0583794dcab95a37f5fbe280f7391b1582915c63",
        "a634b571e0e05bbcdd8de845bda913916034824d33b18a98143dcaa98a3b578b",
        "fdc15ded676b97c4cede5a66e6c7ebbcb2f9e81669dedc8d5732b86d8f855881",
    ),
    "Upsilon": (
        "4646c1a73a4256f61fd6182654af9627270343616cbd3a2b1b9946b9abc4604b",
        "247397094987afbfbd4df25b6dbbe124ed23c87b216d2fb64223154901561805",
        "9c1342dbc445f8e303fa7cdb2aae0aefa8213d998dce64b28429267bfcfd3c7c",
    ),
    "Beta": (
        "efe7ca10ca969ed4b2b6fb06009c21181272f18b1b74d9174749a0d406ce0522",
        "a633264ecbb0fa4248eb63dc440fe487cab8e2b4164ff38689cbc657762bc537",
        "fb1ac7f9786a82717f1662b2280165298d102c2bf7a52eaca78ba8f6407980bb",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _json_line(family, k, M) -> str:
    return json.dumps(matrix_to_json(family, k, M), sort_keys=True) + "\n"


@pytest.mark.parametrize("family", sorted(TEXT_SHA256))
def test_matrix_text_golden(family):
    text = "".join(str(matrix_family(family, k)) + "\n" for k in range(1, 6))
    text += str(matrix_family(family, 2, Fraction(1, 3))) + "\n"
    assert _sha256(text) == TEXT_SHA256[family]


@pytest.mark.parametrize("family", sorted(LARGE_SHA256))
def test_matrix_text_and_json_golden_k6_to_k8_and_at_points(family):
    ks = range(6, 9)
    text = "".join(str(matrix_family(family, k)) + "\n" for k in ks)
    js = "".join(_json_line(family, k, matrix_family(family, k)) for k in ks)
    points = ""
    for u in (Fraction(1, 4), Fraction(1, 2), Fraction(5, 8)):
        for k in range(1, 6):
            M = matrix_family(family, k, u)
            points += str(M) + "\n" + _json_line(family, k, M)
    assert (_sha256(text), _sha256(js), _sha256(points)) == (
        LARGE_SHA256[family])
