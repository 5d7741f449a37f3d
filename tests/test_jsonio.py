import json

import pytest

from tametransfer import char, derive_tower, field_level, level, orbit_of, regularize, zsigmondy_prime
from tametransfer.errors import OutOfRange
from tametransfer.jsonio import (
    certificate_from_json,
    certificate_to_json,
    char_to_json,
    lift_to_json,
    orbit_to_json,
)


def test_char_json_uses_decimal_strings():
    chi = char(field_level(3, 14), 3**13 + 1)
    doc = char_to_json(chi)
    assert doc == {"level_deg": 14, "M": str(3**14 - 1), "a": str(3**13 + 1)}


def test_char_round_trip_above_float_range():
    # M is about 2**1196 here, beyond the range of a float
    chi = char(field_level(10**6 + 3, 60), 5)
    assert chi.level.M > 2**1024
    doc = json.loads(json.dumps(char_to_json(chi)))
    assert doc == {"level_deg": 60, "M": str((10**6 + 3) ** 60 - 1), "a": "5"}
    assert int(doc["M"]) == chi.level.M


def test_orbit_json_uses_decimal_strings():
    lvl = field_level(2, 3)
    orbit = orbit_of(char(lvl, 1))
    doc = json.loads(json.dumps(orbit_to_json(orbit)))
    assert doc == {"rep": "1", "size": 3, "members": ["1", "2", "4"]}


def test_certificate_round_trip():
    _, cert = zsigmondy_prime(2, 14)
    doc = json.loads(json.dumps(certificate_to_json(cert)))
    assert doc == {"version": 2, "b": "2", "r": 14, "ell": "43", "order_checks": [[2, "42"], [7, "4"]]}
    assert certificate_from_json(doc) == cert
    none_hit = zsigmondy_prime(2, 6)
    assert none_hit is None


def test_certificate_document_version_is_checked():
    doc = certificate_to_json(zsigmondy_prime(2, 14)[1])
    for version in (1, None):
        with pytest.raises(OutOfRange):
            certificate_from_json(dict(doc, version=version))
    del doc["version"]
    with pytest.raises(OutOfRange):
        certificate_from_json(doc)


CERT_DOC = {"version": 2, "b": "2", "r": 14, "ell": "43", "order_checks": [[2, "42"], [7, "4"]]}


@pytest.mark.parametrize("doc, cause", [
    ({key: value for key, value in CERT_DOC.items() if key != "ell"}, "KeyError: 'ell'"),
    (dict(CERT_DOC, b="x"), "ValueError: invalid literal"),
    (dict(CERT_DOC, order_checks=[[2, "42"], [7]]), "ValueError: not enough values to unpack"),
    (dict(CERT_DOC, order_checks=None), "TypeError"),
    (list(CERT_DOC.items()), "AttributeError"),
    (dict(CERT_DOC, r=14.9), "TypeError: expected an integer, got float"),
    (dict(CERT_DOC, order_checks=[[2.5, "42"], [7, "4"]]), "TypeError: expected an integer, got float"),
    (dict(CERT_DOC, b=True), "TypeError: expected a decimal string, got bool"),
    (dict(CERT_DOC, r=True), "TypeError: expected an integer, got bool"),
    (dict(CERT_DOC, r="14"), "TypeError: expected an integer, got str"),
    (dict(CERT_DOC, ell=43), "TypeError: expected a decimal string, got int"),
    (dict(CERT_DOC, ell=" 43"), "ValueError: ' 43' is not a canonical decimal string"),
    (dict(CERT_DOC, ell="4_3"), "ValueError: '4_3' is not a canonical decimal string"),
    (dict(CERT_DOC, ell="+43"), "ValueError: '\\+43' is not a canonical decimal string"),
    (dict(CERT_DOC, ell="043"), "ValueError: '043' is not a canonical decimal string"),
    (dict(CERT_DOC, ell="-43"), "ValueError: '-43' is not a canonical decimal string"),
    (dict(CERT_DOC, order_checks=[[2, "042"], [7, "4"]]), "ValueError: '042' is not a canonical"),
    (dict(CERT_DOC, order_checks=[[2, "42"], [7, "4", "1"]]), "ValueError: too many values to unpack"),
    (dict(CERT_DOC, order_checks=[[2, "42"], "74"]), "TypeError: expected an order check"),
], ids=["missing-field", "bad-integer", "short-pair", "null-checks", "list", "float-r", "float-p",
        "bool-b", "bool-r", "string-r", "number-ell", "space", "underscore", "plus", "leading-zero",
        "negative", "residue-leading-zero", "long-pair", "string-pair"])
def test_malformed_certificate_document_is_a_domain_error(doc, cause):
    assert certificate_from_json(CERT_DOC) == zsigmondy_prime(2, 14)[1]
    with pytest.raises(OutOfRange, match=f"^malformed certificate document: {cause}"):
        certificate_from_json(doc)


def test_lift_document_shape():
    params = derive_tower(3, 3, 1, 1, 2, 1)
    lift = regularize(char(level(params, 2), 0), params)
    doc = lift_to_json(lift)
    assert doc["a"] == 7
    assert doc["ell"] == "547"
    assert doc["beta"]["M"] == str(3**14 - 1)
    assert doc["certificate"] == {
        "version": 2, "b": "3", "r": 14, "ell": "547", "order_checks": [[2, "546"], [7, "9"]],
    }
