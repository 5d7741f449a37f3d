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
from functools import lru_cache

from .errors import DegreeMismatch, LevelGuardExceeded, NotPrime, NotPrimePower, OutOfRange, short_int
from .numth import is_prime, is_prime_power

# Largest number of bits of a level's group order M = Q**deg - 1.
MAX_LEVEL_BITS = 1500


class _Record:
    """Base of the immutable value records, whose fields are the ``__slots__`` in order."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}: records are immutable")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self) -> tuple:  # a copy or an unpickled record is rebuilt through __init__
        return type(self), self._fields()

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"


def _group_order(Q: int, deg: int) -> int:
    """M = Q**deg - 1 of the level of degree ``deg`` over Q, after its range checks and guard."""
    if Q < 2:
        raise OutOfRange(f"base cardinality must be at least 2, got {short_int(Q)}")
    if deg < 1:
        raise OutOfRange(f"deg_over_e must be at least 1, got {short_int(deg)}")
    # M has at least (Q.bit_length() - 1) * deg bits: a level that is over the
    # bound by that count alone is refused before Q**deg is computed
    if (Q.bit_length() - 1) * deg > MAX_LEVEL_BITS or (M := Q**deg - 1).bit_length() > MAX_LEVEL_BITS:
        raise LevelGuardExceeded(
            f"level Q={short_int(Q)}, deg={short_int(deg)}: M = Q**deg - 1 has more than {MAX_LEVEL_BITS} bits"
        )
    return M


class FieldLevel(_Record):
    """One layer of the residue-field lattice: Q**deg elements, M = Q**deg - 1."""

    __slots__ = ("Q", "deg", "M")

    def __init__(self, Q: int, deg: int, M: int) -> None:
        if M != _group_order(Q, deg):
            raise OutOfRange(f"level Q={short_int(Q)}, deg={short_int(deg)}: M={short_int(M)} is not Q**deg - 1")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "deg", deg)
        object.__setattr__(self, "M", M)

    def __eq__(self, other: object) -> bool:  # hot in every level check
        if type(other) is not FieldLevel:
            return NotImplemented
        return self is other or self.Q == other.Q and self.deg == other.deg and self.M == other.M

    def __hash__(self) -> int:
        return hash((self.Q, self.deg, self.M))

    def __repr__(self) -> str:
        return f"FieldLevel(Q={self.Q}, deg={self.deg})"


@lru_cache(maxsize=1024, typed=True)  # typed: field_level(3.0, 2) is never answered from (3, 2)
def field_level(Q: int, deg: int) -> FieldLevel:
    """The level of degree ``deg`` over a field with Q elements: one shared object per (Q, deg)."""
    return FieldLevel(Q, deg, _group_order(Q, deg))


class TowerParams(_Record):
    __slots__ = ("p", "q", "e_ef", "f_ef", "m", "d", "g", "n", "Q", "d_prime", "m_prime", "n_prime")

    def __init__(self, p: int, q: int, e_ef: int, f_ef: int, m: int, d: int,  # then the derived invariants
                 g: int, n: int, Q: int, d_prime: int, m_prime: int, n_prime: int) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "e_ef", e_ef)
        object.__setattr__(self, "f_ef", f_ef)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "d_prime", d_prime)
        object.__setattr__(self, "m_prime", m_prime)
        object.__setattr__(self, "n_prime", n_prime)

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.p, self.q, self.e_ef, self.f_ef, self.m, self.d)


def derive_tower(p: int, q: int, e_ef: int, f_ef: int, m: int, d: int) -> TowerParams:
    """Validate the six shape integers and compute every derived invariant."""
    if min(p, q, e_ef, f_ef, m, d) < 1:
        raise OutOfRange("all tower parameters must be positive")
    # every level over Q = q**f_ef has M >= Q - 1: none is admitted if this one is not
    Q = field_level(q, f_ef).M + 1
    if p > q:  # q is a power of p, so a larger p is refused before its primality test
        raise NotPrimePower(f"q={short_int(q)} is not a power of p={short_int(p)}")
    if not is_prime(p):
        raise NotPrime(f"p={short_int(p)} is not prime")
    if is_prime_power(q) != p:
        raise NotPrimePower(f"q={short_int(q)} is not a power of p={short_int(p)}")
    g = e_ef * f_ef
    n = m * d
    if n % g:
        raise DegreeMismatch(f"degree g={short_int(g)} does not divide n={short_int(n)}")
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
