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


def certificate_from_json(doc: dict) -> ZsigmondyCertificate:
    if doc.get("version") != 2:
        raise OutOfRange(f"certificate document version {doc.get('version')!r} is not 2")
    return ZsigmondyCertificate(
        b=int(doc["b"]),
        r=int(doc["r"]),
        ell=int(doc["ell"]),
        order_checks=tuple((int(p), int(res)) for p, res in doc["order_checks"]),
    )


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
