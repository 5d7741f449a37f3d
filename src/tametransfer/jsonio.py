"""JSON views of the public value types.

Every integer that can exceed a machine word (group orders, exponents,
primes and residues modulo them) is rendered as a decimal string; structural
integers (degrees, sizes, multiplicities) stay numeric.  Only the certificate
is read back: parsing its document reproduces the certificate exactly, so
``verify_certificate`` can recheck it.
"""

from __future__ import annotations

from .characters import CharExp, GaloisOrbit
from .errors import OutOfRange
from .green import CyclotomicSum
from .regularize import RegularizationLift, ZsigmondyCertificate


def char_to_json(chi: CharExp) -> dict:
    return {"level_deg": chi.level.deg, "M": str(chi.level.M), "a": str(chi.a)}


def orbit_to_json(orbit: GaloisOrbit) -> dict:
    return {
        "rep": str(orbit.rep),
        "size": orbit.size,
        "members": [str(x) for x in orbit.members],
    }


def certificate_to_json(cert: ZsigmondyCertificate) -> dict:
    return {
        "version": 2,
        "b": str(cert.b),
        "r": cert.r,
        "ell": str(cert.ell),
        "order_checks": [[p, str(res)] for p, res in cert.order_checks],
    }


def _decimal(s: object) -> int:
    """A non-negative integer written as ``certificate_to_json`` writes it: a decimal
    string without sign, spaces, underscores or leading zeros."""
    if type(s) is not str:
        raise TypeError(f"expected a decimal string, got {type(s).__name__}")
    value = int(s)
    if value < 0 or str(value) != s:
        raise ValueError(f"{s[:40]!r} is not a canonical decimal string")
    return value


def _count(x: object) -> int:
    """A structural integer: a JSON integer, not a float, a boolean or a string."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {type(x).__name__}")
    return x


def _order_check(entry: object) -> tuple[int, int]:
    if type(entry) is not list:
        raise TypeError(f"expected an order check [p, residue], got {type(entry).__name__}")
    p, res = entry
    return _count(p), _decimal(res)


def certificate_from_json(doc: dict) -> ZsigmondyCertificate:
    """Read a certificate document; one that ``certificate_to_json`` could not have
    written raises ``OutOfRange``."""
    try:
        if doc.get("version") != 2:
            raise OutOfRange(f"certificate document version {doc.get('version')!r} is not 2")
        return ZsigmondyCertificate(
            b=_decimal(doc["b"]),
            r=_count(doc["r"]),
            ell=_decimal(doc["ell"]),
            order_checks=tuple(_order_check(entry) for entry in doc["order_checks"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # a missing field, a bad value or shape
        raise OutOfRange(f"malformed certificate document: {type(exc).__name__}: {str(exc)[:100]}") from None


def lift_to_json(lift: RegularizationLift) -> dict:
    return {
        "a": lift.a,
        "ell": str(lift.ell),
        "beta": char_to_json(lift.beta),
        "alpha_star": char_to_json(lift.alpha_star),
        "certificate": certificate_to_json(lift.certificate),
    }


def cyclotomic_to_json(s: CyclotomicSum) -> dict:
    value = s.evaluate()
    return {
        "modulus": str(s.modulus),
        "terms": [[str(e), c] for e, c in s.coeffs],
        "numeric": [value.real, value.imag],
    }
