"""JSON views of the public value types.

Every integer that can exceed a machine word (group orders, exponents,
primes and residues modulo them) is rendered as a decimal string; structural
integers (degrees, sizes, multiplicities) stay numeric.  Parsing a rendered
document reproduces the original value exactly.
"""

from __future__ import annotations

from .characters import CharExp, GaloisOrbit, orbit_of
from .errors import OutOfRange
from .green import CyclotomicSum
from .numth import _integer_root
from .regularize import RegularizationLift, ZsigmondyCertificate
from .tower import FieldLevel, field_level


def char_to_json(chi: CharExp) -> dict:
    return {"level_deg": chi.level.deg, "M": str(chi.level.M), "a": str(chi.a)}


def char_from_json(doc: dict) -> CharExp:
    deg = int(doc["level_deg"])
    M = int(doc["M"])
    if deg < 1 or M < 0 or (root := _integer_root(M + 1, deg)) ** deg != M + 1:
        raise OutOfRange(f"{M + 1} is not a perfect {deg}-th power")
    level = field_level(root, deg)
    if level.M != M:
        raise OutOfRange(f"inconsistent level document: M={M}, deg={deg}")
    return CharExp(level, int(doc["a"]))


def orbit_to_json(orbit: GaloisOrbit) -> dict:
    return {
        "rep": str(orbit.rep),
        "size": orbit.size,
        "members": [str(x) for x in orbit.members],
    }


def orbit_from_json(doc: dict, level: FieldLevel) -> GaloisOrbit:
    orbit = orbit_of(CharExp(level, int(doc["rep"])))
    if orbit.size != int(doc["size"]) or orbit.members != tuple(int(x) for x in doc["members"]):
        raise OutOfRange("orbit document does not match its own representative")
    return orbit


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
