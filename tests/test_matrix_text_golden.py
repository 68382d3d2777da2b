"""Golden hashes of the text form of the Q(u) matrix families.

``bwv matrix`` without ``--json`` prints ``str()`` of the matrix, so these
hashes pin the printed rational functions (reduced, with a monic
denominator) of V, Upsilon and Beta at k = 1..5, and the Q matrix each
family gives at u = 1/3.  ``test_matrix_json_golden`` pins only the JSON
form."""

import hashlib
from fractions import Fraction

import pytest

from bwv.brmatrices import matrix_family

TEXT_SHA256 = {
    "V": "766cbbdc320e70a0706354984dca88e7067769cffaa1cb50f1a45b1cfb4fd77f",
    "Upsilon":
        "53f72522065c4c4f15785daee939367fa3006cf3e9d1ef45ad1b0065500a8bfc",
    "Beta": "5657eba7566e995a11367da449ffcd848d2a467d98980f5941a41a35981757f4",
}


@pytest.mark.parametrize("family", sorted(TEXT_SHA256))
def test_matrix_text_golden(family):
    text = "".join(str(matrix_family(family, k)) + "\n" for k in range(1, 6))
    text += str(matrix_family(family, 2, Fraction(1, 3))) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == TEXT_SHA256[family]
