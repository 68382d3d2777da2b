"""Golden output of the exact layers and of the moment cache.

Each exact hash is the SHA-256 of text the exact layers print: the JSON
output of ``bwv vanhove --m M --json`` for m <= 12, and ``matrix_to_json``
of the de Rham matrices and the Q(u) families for k <= 5.  The hashes were
taken from the Fraction-backed polynomial core that preceded the
integer-backed one, so a change of representation must reproduce its output
byte for byte.

The moment hash is the SHA-256 of the cache file a cold build of matM and
matN for k <= 3 and matOmega(2, 1/3) at 20 digits writes.  A second cold
build, of matMring, matNring and matomega(k, 1/3) for k <= 2 at 20
digits, pins the log-weighted and even off-shell families the same way
("families").  The two "entries" hashes pin what the builders assemble
from the moments (the pi powers, the signs and the inverse beta product):
the SHA-256 of ``repr(x._mpf_)`` of every entry, row by row.  All four
were taken from the fixed-point sweep, which sums the moments a matrix is
missing together, and stores digits + 15 digits.  The family entries
hash dates from tag "ik-series-asymptotic/2", which gave each moment a
(1,oo) grid scaled to its decay rate.  Tag
"ik-series-asymptotic/3", one (1,oo) grid t = 1 + exp((pi/2) sinh w) for
every moment, stored the same values in both builds, and so did tag
"ik-series-asymptotic/4", the exp-exp (1,oo) map t = 1 + exp(w - e^(-w)),
both beside a tanh-sinh sum over (0,1).  (At 50 digits and k up to 8 one
stored value moved in its last digit under /4, which is why the tag
moved.)  The two cache hashes are those of tag "ik-series-asymptotic/5",
one sum per moment over (0,oo) on the exp-exp map t = exp(w - e^(-w)),
with no split at t = 1.  ``data/moments_tag4.jsonl`` and
``data/families_tag4.jsonl`` are the caches the two builds wrote under
/4 (``RETAGGED_SHA256``): /5 writes the same records in the same order
with the same value strings, apart from IKM(2,6;1) of the moments build,
which moved by one unit in its last (35th) digit (``MOVED_FROM_RETAGGED``)
and with it the moment entries hash.  A change to the quadrature, the
kernel or the guard digits that alters a stored value must bump
``besselnum._KERNEL_TAG``, and then these hashes.

``data/moments_previous.jsonl`` and ``data/families_previous.jsonl`` hold
the values the quadrature before the sweep (an mpf walk per moment, tag
"ik-series-asymptotic/1") computed in the same two builds, at digits + 15
digits.  Rounded to the digits + 5 digits that quadrature stored, they
rewrite its two caches byte for byte (``PREVIOUS_SHA256``), and every
value the sweep stores agrees with them to 10^-(digits+5) max(1, |v|).

The Betti hashes (BettiB, Bettib, BettiBring, Bettibring, k <= 5) were
taken from the separate odd and even builders that preceded the parity
tables.  So were the Betti-side hashes for k <= 8 (Sigma, sigma, SigmaInvB,
sigmaInvB, FrakS, FrakSring, one ``matrix_to_json`` line per k) and the
Wronskian-constant hashes for k <= 15 (the ``named_constant(...).rational``
strings of LambdaOdd, lambdaEven and detBetti_formula, one line per k):
they were taken from the separate odd and even bodies of the closed-form
inverses, of Lambda/lambda and of the alternating binomial sums.  The
Betti-side hashes for k = 9..12 (Sigma, sigma, FrakS, FrakSring) and the
``frakSring_entry(k, a, b)`` hash over the extended range k <= 9,
a, b in [-1, k + 1] were taken from the separate Sigma and sigma bodies
and the separate S and ringed-S entry bodies.  The numeric-report hash covers one JSON line
``[check_id, status, residual, refs]`` per check of a cold
``run_numeric_suite(3, 30, extended=True)``; it was taken after the
scalar checks moved to one ``family_moments`` batch each, which changed
only their refs: the residual strings are those of the per-entry fetchers
before it, and the check ids and verdicts those of the checks before the
fixed-point sweep.  It was retaken under tag "ik-series-asymptotic/5",
where one residual moved: bm-det-M-k4, 6.0554825e-52 -> 1.5243111e-51,
against a tolerance of 1e-20.

The k = 6 de Rham hashes (DerhamD, Derhamd, DerhamDring, Derhamdring, one
``matrix_to_json`` line each) were taken from the separate inverse and
determinant eliminations, and the two symbolic beta-pairings per order,
that preceded the shared Bareiss pass.  The k = 7 hashes were taken from
the route that followed it and preceded ``brmatrices._pairing_limit``:
beta_m^{-T} X_m beta_m^{-1} formed once per order as a Q(u) matrix of
rational functions, whose limits at u = 1 and u = 0 were then evaluated
entrywise.  The k = 6 and k = 7 hashes take about 1.7 s together, 1.1 s
of it for k = 7.  The de Rham hashes for k = 8..12 (one ``matrix_to_json``
line per k and family) and the hash of ``matrix_to_json`` of
beta_m(1)^{-1} for m <= 26 (``exact_inverse`` of ``beta_matrix(m, 1)``,
one line per m) were taken from ``ExactMatrix`` entries stored as one
``Fraction`` each, before a matrix over Q became one integer matrix over
a common denominator.

Three hashes pin the operator layer: the D-form coefficients of the
Borwein–Salvy operator for n <= 8 (one JSON list of ``str()`` per n,
converted here from its θ-table), the ``check_vanhove_structure`` dicts
of the Vanhove operators for m <= 11 and the ``verify_bms_duality(n, 14)``
dicts for n <= 4 (one sorted JSON object per line).  They were taken from
the rational-function operator algebra that preceded the θ-tables.

Three more pin the operator layer beyond m = 12: ``bwv vanhove --m M
--json`` for m = 13..20, ``str()`` of every θ-table entry of
``vanhove_operator(m)`` for m <= 20, and ``str(verrill_poly(m, k))`` for
m <= 20 and k <= floor(m/2) + 2.  They were taken from the operator
algebra that did its arithmetic in ``UniPoly`` ring operations, before it
moved to coefficient lists.
"""

import hashlib
import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from bwv import besselnum, cli
from bwv.brmatrices import (
    frakSring_entry,
    matrix_family,
    matrix_to_json,
    named_constant,
)
from bwv.exactalg import UniPoly, exact_inverse
from bwv.harness import run_numeric_suite
from bwv.vanhove import (
    borwein_salvy_operator,
    check_vanhove_structure,
    theta_to_d,
    vanhove_operator,
    verify_bms_duality,
    verrill_poly,
)

GOLDEN_SHA256 = {
    "vanhove":
        "ff2c3e6ef589f7a971f91f3c88f29fbba196878e5fbb35159d8e5a0269b1d370",
    "vanhove-m13-20":
        "129a1b3a6f92140659b7550dd62dbc30f223371c05d004e0034d8c5e3f94cc1b",
    "vanhove_theta-m20":
        "c69e522fc05c41e2f42f725ee68ab7b7faa75dac84f1dc0567289728f2eccd9a",
    "verrill_poly-m20":
        "b2d1aa21526d20710b2d8088db1e3f126bfb4f81c0718450b2e16ee2c6899bd6",
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
    "BettiB":
        "ae73e9dd389060eee578c23d0bd376b8951228059e0a9617adce957f1f54b54a",
    "Bettib":
        "2e36932f4435037a2bcde1a2d84438cd7885dd4c2c3c257c167946f9939f0215",
    "BettiBring":
        "bb0781fa3f368fc9e746c36ae566cdb6aeccb298c9b9e6144cd3a1b3dd7df321",
    "Bettibring":
        "1372575edafc0b646c06b22c8c57e347e0e82b9100de43162fbbe0858d9fab5a",
    "moments":
        "2756a746ab47c6f5dd53bfe7e1094638b41b16b45037fcdbf28bca1d0e700346",
    "moment_entries":
        "fd077193cdc8658ff88b3ee434772a9edb1e10d2e654350c3178fab75bf6930e",
    "families":
        "62455e780959d2814ef11bb9c30a29abfe0ea174e41ccc5ac8b66237ecc7662b",
    "family_entries":
        "0a5f0e6e2391b67febeab1769b394170ab757048719f2df73f7d58c4c1e23b2a",
    "numeric_report":
        "f6772bddff0602aeaff52d25d53dec936453ec99c1ec1d01431f80fe9a5c1dd4",
    "DerhamD-k6":
        "03ee7b126df48f129aabbc9dc70ccfa93d581efd1177b28e6fec5dc9a50252bf",
    "Derhamd-k6":
        "cbd3b61ad91847ad77df0e23384dc18c683d6fe39cb71ec3feda90504b3bb614",
    "DerhamDring-k6":
        "f8888be335ffd766544c3f885abc94e458978a80bdef0296dc7220a63bdcf5ec",
    "Derhamdring-k6":
        "5c45cec783c8b429c713be5ed549fc0f4aa39ab8efa533ec15c2185638ab186e",
    "DerhamD-k7":
        "a91106955cddba9e887d6b0af0ac2d2d93bf9cd5b051f2a12ce2c331f1933cc9",
    "Derhamd-k7":
        "fd33ecf938ee27c3c971bdb80c92990629a40385f4059a99edd557f8a3dc0246",
    "DerhamDring-k7":
        "e7368d3de87f3e5c0d45d0ce9137e7491edbebdb071fdca1c1f7cc246d7cfd3f",
    "Derhamdring-k7":
        "398f06fab0240420137c997081e9c33591c5bbe72b600068ab50999f014f23d7",
    "Sigma-k8":
        "d529f8d7636a8d76a95532bac4cf5667b3fc9104d8633f7e55e5fd3daa1b7554",
    "sigma-k8":
        "7f1bf2e185a4e401bffcf9d5e03abf7223a579803f0e86d8c7adee2bd86caa1f",
    "SigmaInvB-k8":
        "54d95ae67366962c6e896773abfb148a0f99fead3e438773fc3d2aea806b7bfa",
    "sigmaInvB-k8":
        "4758ba8dc032c90e6bbf220d76bc55c966fde05cd9df221b190bf37198adc5ff",
    "FrakS-k8":
        "73d61aa066542052e81d53c1e23109ecd5aa45f94bbf2a0d08b8d20ad0a8826b",
    "FrakSring-k8":
        "c29bbbb777fd09c285017e48d963d190f196c8e2859a5f7dfd81845574302886",
    "Sigma-k9-12":
        "020290a02b523a8053401e066daa3564e9a58c302288656e85469ff346435230",
    "sigma-k9-12":
        "fe68333969e0c38944df258c30b8e16800800bf369976b8fa318e77a7086b0e6",
    "FrakS-k9-12":
        "96a391b5c10fb978d41609fd34d272c7e6632835d1fe10f7b317e70a7407bde4",
    "FrakSring-k9-12":
        "d05e8e15588c7e6e205541d22a999d5560739fc83c7d1968ecf0c67c067fedbc",
    "frakSring_entry-k9":
        "34dd7c2441e72d4db5d8656b3b37980c755849da35e930e07d27f45b9b04e6a9",
    "LambdaOdd-k15":
        "dcc9230e74498f18b8ae522277185930d6ce4a7db470c5d1cdf5196ed72c2d53",
    "lambdaEven-k15":
        "5f5a090d8c25ff8f49374b37deb0a0552d4279b456756b4589502237a6838566",
    "detBetti_formula-k15":
        "f3827d52803b545e8b64b2567a13e030aed6febccf54057c1f5d3d1a98f2275f",
    "borwein_salvy":
        "959963c40c181c68e793bbde3b76f35f0b755f944cf62079d13636306a03abf8",
    "vanhove_structure":
        "1befcf7df2bcddb565f0a659e3f80bbed2559620e6ac2410e6f694542391c4a0",
    "bms_duality":
        "3819eaf079f10360c539aef7b3b6e4a43de91aa52c22ac969d3bb96579974a08",
    "DerhamD-k8-12":
        "7c110c8c5c2da9cb55de4ef22414cc7dc53ae8db7f64a7b7648d7a4d047ec714",
    "Derhamd-k8-12":
        "9f7615d0244d30c2de1ef24abe7d31eef6c29cfebe193672b19de8eddeec2e31",
    "DerhamDring-k8-12":
        "ee2e3225f53ff7c980e6e9124916603bc697ffd5166bcc44f51edd9e3d652539",
    "Derhamdring-k8-12":
        "69db3c3209795436a913880af7e0ee152ad7f44099dffc74c003428ac66fa96e",
    "beta_inverse_at_1-m26":
        "82c99a21625a17534cd9391703f18c7eb2dadc82dff88913d0561c32af24df71",
}

#: The tag the moment hashes were taken under.
GOLDEN_KERNEL_TAG = "ik-series-asymptotic/5"

#: The tag before it, of the (0,1) tanh-sinh and (1,oo) exp-exp sums, and
#: the SHA-256 of the caches the two cold builds wrote under it, which
#: ``data/{moments,families}_tag4.jsonl`` hold.
RETAGGED_KERNEL_TAG = "ik-series-asymptotic/4"
RETAGGED_SHA256 = {
    "moments":
        "79f29f08be5a8e9b349b5c025bc74edb796bd07c7703f4f419f4506d9c900722",
    "families":
        "4dcc40d4a7a37f7a15cc031d14655cd6b7389962e5edee43b2b6e3ca1a7effa5",
}

#: The records whose value string moved from tag "ik-series-asymptotic/4",
#: as (kind, a, b, n, u), per build; each moved by one unit in its last
#: stored digit.
MOVED_FROM_RETAGGED = {
    "moments": {("IKM", 2, 6, 1, None)},
    "families": set(),
}

#: SHA-256 of the caches the two cold builds wrote under tag
#: "ik-series-asymptotic/1", which stored digits + 5 digits.
PREVIOUS_SHA256 = {
    "moments":
        "d5226d0636636c0e0abd6d613477bc26ede045bdb1fe19b79b413416659ff385",
    "families":
        "c5ff7599c6f1c20f57da14aa71470199e80865db54337b2a56e8fcb7270bd839",
}

DATA = Path(__file__).resolve().parent / "data"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _entries_sha256(matrices) -> str:
    return _sha256("".join(
        repr(m[i, j]._mpf_) + "\n"
        for m in matrices for i in range(m.rows) for j in range(m.cols)))


def _vanhove_cli_json(ms, capsys) -> str:
    out = []
    for m in ms:
        assert cli.main(["vanhove", "--m", str(m), "--json"]) == 0
        out.append(capsys.readouterr().out)
    return "".join(out)


def test_vanhove_cli_json_golden(capsys):
    assert _sha256(_vanhove_cli_json(range(1, 13), capsys)) == (
        GOLDEN_SHA256["vanhove"])


def test_vanhove_cli_json_golden_m13_to_m20(capsys):
    assert _sha256(_vanhove_cli_json(range(13, 21), capsys)) == (
        GOLDEN_SHA256["vanhove-m13-20"])


def test_vanhove_theta_golden_m20():
    text = "".join(f"{p}\n" for m in range(1, 21)
                   for p in vanhove_operator(m).theta)
    assert _sha256(text) == GOLDEN_SHA256["vanhove_theta-m20"]


def test_verrill_poly_golden_m20():
    text = "".join(f"{verrill_poly(m, k)}\n" for m in range(1, 21)
                   for k in range(m // 2 + 3))
    assert _sha256(text) == GOLDEN_SHA256["verrill_poly-m20"]


def _bs_d_form_strings(n: int) -> list[str]:
    """str() of the D-form coefficients of Σ_i t^{2i}·P_i(θ), θ = tD."""
    table = borwein_salvy_operator(n)
    out = []
    for c in theta_to_d({2 * i: p for i, p in enumerate(table)}):
        top = max(c, default=-1)
        out.append(str(UniPoly.of("t", [c.get(e, 0) for e in range(top + 1)])))
    return out


def test_operator_golden():
    text = "".join(json.dumps(_bs_d_form_strings(n)) + "\n" for n in range(9))
    assert _sha256(text) == GOLDEN_SHA256["borwein_salvy"]
    text = "".join(
        json.dumps(check_vanhove_structure(vanhove_operator(m)),
                   sort_keys=True) + "\n"
        for m in range(1, 12))
    assert _sha256(text) == GOLDEN_SHA256["vanhove_structure"]
    text = "".join(
        json.dumps(verify_bms_duality(n, 14), sort_keys=True) + "\n"
        for n in range(1, 5))
    assert _sha256(text) == GOLDEN_SHA256["bms_duality"]


@pytest.mark.parametrize(
    "family",
    ["DerhamD", "Derhamd", "DerhamDring", "Derhamdring", "V", "Upsilon", "Beta",
     "BettiB", "Bettib", "BettiBring", "Bettibring"],
)
def test_matrix_json_golden(family):
    text = "".join(
        json.dumps(matrix_to_json(family, k, matrix_family(family, k)),
                   sort_keys=True) + "\n"
        for k in range(1, 6)
    )
    assert _sha256(text) == GOLDEN_SHA256[family]


@pytest.mark.parametrize(
    "family", ["Sigma", "sigma", "SigmaInvB", "sigmaInvB", "FrakS", "FrakSring"])
def test_betti_side_json_golden_k8(family):
    text = "".join(
        json.dumps(matrix_to_json(family, k, matrix_family(family, k)),
                   sort_keys=True) + "\n"
        for k in range(1, 9)
    )
    assert _sha256(text) == GOLDEN_SHA256[f"{family}-k8"]


@pytest.mark.parametrize("family", ["Sigma", "sigma", "FrakS", "FrakSring"])
def test_betti_side_json_golden_k9_to_k12(family):
    text = "".join(
        json.dumps(matrix_to_json(family, k, matrix_family(family, k)),
                   sort_keys=True) + "\n"
        for k in range(9, 13)
    )
    assert _sha256(text) == GOLDEN_SHA256[f"{family}-k9-12"]


def test_frakSring_entry_golden_k9():
    # the extended index range a, b in [-1, k + 1], beyond the matrix
    text = "".join(f"{frakSring_entry(k, a, b)}\n" for k in range(1, 10)
                   for a in range(-1, k + 2) for b in range(-1, k + 2))
    assert _sha256(text) == GOLDEN_SHA256["frakSring_entry-k9"]


@pytest.mark.parametrize(
    "name", ["LambdaOdd", "lambdaEven", "detBetti_formula"])
def test_named_constant_golden_k15(name):
    text = "".join(f"{named_constant(name, k).rational}\n" for k in range(1, 16))
    assert _sha256(text) == GOLDEN_SHA256[f"{name}-k15"]


@pytest.mark.parametrize(
    "family", ["DerhamD", "Derhamd", "DerhamDring", "Derhamdring"])
def test_derham_json_golden_k6(family):
    _check_derham_json(family, 6)


@pytest.mark.parametrize(
    "family", ["DerhamD", "Derhamd", "DerhamDring", "Derhamdring"])
def test_derham_json_golden_k7(family):
    _check_derham_json(family, 7)


@pytest.mark.parametrize(
    "family", ["DerhamD", "Derhamd", "DerhamDring", "Derhamdring"])
def test_derham_json_golden_k8_to_k12(family):
    text = "".join(
        json.dumps(matrix_to_json(family, k, matrix_family(family, k)),
                   sort_keys=True) + "\n"
        for k in range(8, 13)
    )
    assert _sha256(text) == GOLDEN_SHA256[f"{family}-k8-12"]


def test_beta_inverse_at_1_golden_m26():
    text = "".join(
        json.dumps(matrix_to_json("BetaInverseAt1", m, exact_inverse(
            matrix_family("Beta", m, Fraction(1)))), sort_keys=True) + "\n"
        for m in range(1, 27)
    )
    assert _sha256(text) == GOLDEN_SHA256["beta_inverse_at_1-m26"]


def _check_derham_json(family, k):
    text = json.dumps(matrix_to_json(family, k, matrix_family(family, k)),
                      sort_keys=True) + "\n"
    assert _sha256(text) == GOLDEN_SHA256[f"{family}-k{k}"]


#: The two cold builds: name -> the matrices each builds, at 20 digits.
_COLD_BUILDS = {
    "moments": lambda: [
        *(m for k in (1, 2, 3)
          for m in (besselnum.matM(k, 20), besselnum.matN(k, 20))),
        besselnum.matOmega(2, Fraction(1, 3), 20)],
    "families": lambda: [
        m for k in (1, 2)
        for m in (besselnum.matMring(k, 20), besselnum.matNring(k, 20),
                  besselnum.matomega(k, Fraction(1, 3), 20))],
}


@pytest.fixture(scope="module")
def cold_builds(tmp_path_factory):
    """name -> (the cache file a cold build wrote, the matrices it built)."""
    out = {}
    for name, build in _COLD_BUILDS.items():
        path = tmp_path_factory.mktemp("cold") / f"{name}.jsonl"
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("BWV_CACHE", str(path))
            out[name] = path, build()
    return out


def test_moment_cache_golden(cold_builds):
    assert besselnum._KERNEL_TAG == GOLDEN_KERNEL_TAG
    for name, entries in (("moments", "moment_entries"),
                          ("families", "family_entries")):
        path, built = cold_builds[name]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            GOLDEN_SHA256[name])
        assert _entries_sha256(built) == GOLDEN_SHA256[entries]


def _last_digit_unit(value: str) -> Fraction:
    """The unit of the last digit of a stored value string."""
    return Fraction(10) ** Decimal(value).as_tuple().exponent


@pytest.mark.parametrize("name", ["moments", "families"])
def test_moment_cache_moved_at_most_a_last_digit(cold_builds, name):
    # the previous tag's cache of the same cold build: the same records in
    # the same order, every value string byte for byte, apart from the
    # pinned records, each of which moved by at most one unit in its last
    # stored digit
    path = DATA / f"{name}_tag4.jsonl"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        RETAGGED_SHA256[name])
    old, new = _records(path), _records(cold_builds[name][0])
    assert {r["kernel"] for r in old} == {RETAGGED_KERNEL_TAG}
    field = ("kind", "a", "b", "n", "u", "digits")
    assert [[r[f] for f in field] for r in new] == [
        [r[f] for f in field] for r in old]
    moved = set()
    for was, rec in zip(old, new):
        if rec["value"] != was["value"]:
            moved.add(tuple(rec[f] for f in field[:5]))
            step = abs(Fraction(rec["value"]) - Fraction(was["value"]))
            assert step <= _last_digit_unit(was["value"]), (rec, was)
    assert moved == MOVED_FROM_RETAGGED[name]


def _records(path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("name", ["moments", "families"])
def test_moment_cache_agrees_with_the_previous_quadrature(cold_builds, name):
    reference = _records(DATA / f"{name}_previous.jsonl")
    # the reference values are the previous quadrature's: rounded to the
    # digits + 5 it stored, they rewrite its cache byte for byte
    rounded = []
    for rec in reference:
        with mp.workdps(rec["digits"] + besselnum.GUARD_DIGITS):
            value = mp.nstr(mp.mpf(rec["value"]), rec["digits"] + 5,
                            strip_zeros=False, min_fixed=1, max_fixed=0)
        rounded.append(json.dumps({**rec, "value": value}) + "\n")
    assert _sha256("".join(rounded)) == PREVIOUS_SHA256[name]
    new = _records(cold_builds[name][0])
    assert [r["kernel"] for r in new] == [GOLDEN_KERNEL_TAG] * len(new)
    field = ("kind", "a", "b", "n", "u", "digits")
    assert [[r[f] for f in field] for r in new] == [
        [r[f] for f in field] for r in reference]
    for old, rec in zip(reference, new):
        with mp.workdps(rec["digits"] + besselnum.GUARD_DIGITS + 10):
            v, w = mp.mpf(old["value"]), mp.mpf(rec["value"])
            bound = mp.mpf(10) ** -(rec["digits"] + 5) * max(1, abs(v))
            assert abs(w - v) <= bound, (rec, old["value"])


def test_numeric_report_golden(tmp_path, monkeypatch):
    monkeypatch.setenv("BWV_CACHE", str(tmp_path / "moments.jsonl"))
    report = run_numeric_suite(3, 30, extended=True)
    text = "".join(
        json.dumps([c.check_id, c.status, c.residual, c.refs]) + "\n"
        for c in report.checks)
    assert _sha256(text) == GOLDEN_SHA256["numeric_report"]
