"""Numeric shape of the groups and residue fields.

A tower is described by six integers (p, q, e_ef, f_ef, m, d): the residue
characteristic, the residue cardinality of the base field, the ramification
index and residual degree of the parameter extension, and the size parameters
of the group GL_m(D) with D of reduced degree d.  Everything the other
modules consume is derived from these:

    g  = e_ef * f_ef        degree of the parameter class
    n  = m * d
    Q  = q ** f_ef          cardinality of the small residue field e
    d' = d / gcd(d, g)
    m' = m * gcd(d, g) / g
    n' = n / g = m' * d'    degree over e of the big residue field k

A FieldLevel pins one layer of the residue-field lattice over e: the field
with Q**deg elements, whose multiplicative group is cyclic of order
M = Q**deg - 1.  M is an exact arbitrary-precision integer; the one level
guard, the constant MAX_LEVEL_BITS, refuses a level whose M has more bits,
and a shape whose Q - 1 has more bits, since it admits no level.
A primitive prime search on b**r - 1 is refused by the same guard, because
b**r - 1 is the group order of the level of degree r over b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegreeMismatch, LevelGuardExceeded, NotPrime, NotPrimePower, OutOfRange
from .numth import is_prime, is_prime_power

# Largest number of bits of a level's group order M = Q**deg - 1.
MAX_LEVEL_BITS = 1500


@dataclass(frozen=True)
class FieldLevel:
    """One layer of the residue-field lattice: Q**deg elements, M = Q**deg - 1."""

    Q: int
    deg: int
    M: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FieldLevel(Q={self.Q}, deg={self.deg})"


def field_level(Q: int, deg: int) -> FieldLevel:
    """Build the level of degree ``deg`` over a field with Q elements."""
    if Q < 2:
        raise OutOfRange(f"base cardinality must be at least 2, got {Q}")
    if deg < 1:
        raise OutOfRange(f"deg_over_e must be at least 1, got {deg}")
    # M has at least (Q.bit_length() - 1) * deg bits: a level that is over the
    # bound by that count alone is refused before Q**deg is computed
    if (Q.bit_length() - 1) * deg > MAX_LEVEL_BITS or (M := Q**deg - 1).bit_length() > MAX_LEVEL_BITS:
        raise LevelGuardExceeded(f"level Q={Q}, deg={deg}: M = Q**deg - 1 has more than {MAX_LEVEL_BITS} bits")
    return FieldLevel(Q=Q, deg=deg, M=M)


@dataclass(frozen=True)
class TowerParams:
    p: int
    q: int
    e_ef: int
    f_ef: int
    m: int
    d: int
    # derived
    g: int
    n: int
    Q: int
    d_prime: int
    m_prime: int
    n_prime: int

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.p, self.q, self.e_ef, self.f_ef, self.m, self.d)


def derive_tower(p: int, q: int, e_ef: int, f_ef: int, m: int, d: int) -> TowerParams:
    """Validate the six shape integers and compute every derived invariant."""
    if min(p, q, e_ef, f_ef, m, d) < 1:
        raise OutOfRange("all tower parameters must be positive")
    # every level over Q = q**f_ef has M >= Q - 1, so no level is admitted when
    # Q - 1 is over the guard; the bits of q decide a large f_ef before the power
    if (q.bit_length() - 1) * f_ef > MAX_LEVEL_BITS or ((Q := q**f_ef) - 1).bit_length() > MAX_LEVEL_BITS:
        raise LevelGuardExceeded(f"shape q={q}, f_ef={f_ef}: Q - 1 = q**f_ef - 1 has more than {MAX_LEVEL_BITS} bits")
    if not is_prime(p):
        raise NotPrime(f"p={p} is not prime")
    if is_prime_power(q) != p:
        raise NotPrimePower(f"q={q} is not a power of p={p}")
    g = e_ef * f_ef
    n = m * d
    if n % g:
        raise DegreeMismatch(f"degree g={g} does not divide n={n}")
    if (m * math.gcd(d, g)) % g:
        raise DegreeMismatch(f"m*gcd(d,g)={m * math.gcd(d, g)} not divisible by g={g}")
    d_prime = d // math.gcd(d, g)
    m_prime = m * math.gcd(d, g) // g
    n_prime = n // g
    assert m_prime * d_prime == n_prime
    return TowerParams(
        p=p, q=q, e_ef=e_ef, f_ef=f_ef, m=m, d=d,
        g=g, n=n, Q=Q, d_prime=d_prime, m_prime=m_prime, n_prime=n_prime,
    )


def level(params: TowerParams, deg_over_e: int) -> FieldLevel:
    """The field level of the given degree over e, with exact group order."""
    return field_level(params.Q, deg_over_e)


def blow_up(params: TowerParams, a: int) -> TowerParams:
    """Pass from GL_m(D) to GL_{a*m}(D); Q and d' are untouched, m and n' scale."""
    if a < 1:
        raise OutOfRange(f"blow-up factor must be at least 1, got {a}")
    return derive_tower(params.p, params.q, params.e_ef, params.f_ef, a * params.m, params.d)
