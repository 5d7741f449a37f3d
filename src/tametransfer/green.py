"""Regular-elliptic trace values as exact formal sums of roots of unity.

A formal sum keeps integer coefficients on exponents modulo M, standing for
the corresponding sum of M-th roots of unity.  No cyclotomic reduction is
performed: exact equality of formal sums is what the invariants need, and a
separate lossy numeric view covers identities like 1 + z + z^2 = 0.
"""

from __future__ import annotations

import cmath

from .characters import CharExp, orbit_size
from .errors import LevelMismatch, NotRegularCharacter, NotRegularElement, OutOfRange
from .tower import FieldLevel, _Record


class CyclotomicSum(_Record):
    """A formal sum in canonical form: exponents reduced mod the modulus, equal
    exponents merged, zero coefficients dropped, terms sorted by exponent."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs) -> None:
        if modulus < 1:
            raise OutOfRange(f"modulus must be at least 1, got {modulus}")
        acc: dict[int, int] = {}
        for e, c in coeffs:
            e %= modulus
            acc[e] = acc.get(e, 0) + c
        self._fill(modulus, tuple(sorted((e, c) for e, c in acc.items() if c)))

    def evaluate(self) -> complex:
        # 2*pi*e must stay a finite float: beyond 2**1021, e and the modulus
        # drop the same low bits, which moves each angle by less than 2*pi/2**1020
        shift = max(self.modulus.bit_length() - 1021, 0)
        modulus = self.modulus >> shift
        return sum(
            (c * cmath.exp(2j * cmath.pi * (e >> shift) / modulus) for e, c in self.coeffs),
            start=0j,
        )


cyclotomic_sum = CyclotomicSum  # the canonical formal sum of (exponent, coefficient) terms


def element_degree(g_exp: int, level: FieldLevel) -> int:
    """Degree of the element with the given exponent: its Frobenius orbit size."""
    return orbit_size(CharExp(level, g_exp % level.M))


def green_trace(alpha0: CharExp, g_exp: int, u: int) -> CyclotomicSum:
    """Trace of the cuspidal parameter attached to a regular character.

    For a character of full orbit size u and an element of degree u, the
    value is (-1)**(u-1) times the sum of the character over the Frobenius
    orbit of the element.
    """
    lvl = alpha0.level
    if lvl.deg != u:
        raise LevelMismatch(f"character level has degree {lvl.deg}, expected {u}")
    if orbit_size(alpha0) != u:
        raise NotRegularCharacter(f"exponent {alpha0.a} has orbit size below {u}")
    g_exp %= lvl.M
    if element_degree(g_exp, lvl) != u:
        raise NotRegularElement(f"element exponent {g_exp} has degree below {u}")
    sign = 1 if u % 2 else -1
    terms = [(alpha0.a * pow(lvl.Q, i, lvl.M) * g_exp % lvl.M, sign) for i in range(u)]
    return cyclotomic_sum(lvl.M, terms)
