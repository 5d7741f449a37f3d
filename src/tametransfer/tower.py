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
from operator import attrgetter

from .errors import DegreeMismatch, LevelGuardExceeded, NotPrime, NotPrimePower, OutOfRange
from .numth import is_prime, is_prime_power

# Largest number of bits of a level's group order M = Q**deg - 1.
MAX_LEVEL_BITS = 1500


class _Record:
    """Base of the immutable value records, whose fields are the ``__slots__`` in order.

    Each subclass gets ``__eq__`` and ``__hash__`` over the tuple of its fields
    and ``_fill``, setting the fields in slot order, compiled from source once
    per class as ``namedtuple`` does.  ``_fill`` is the constructor unless the
    record writes its own, which takes the leading fields, derives the rest and
    calls ``_fill``; ``__repr__`` and ``__reduce__`` name the fields it takes.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = cls.__slots__
        get = attrgetter(*names)
        fields = get if len(names) > 1 else lambda record: (get(record),)

        def __eq__(self, other: object) -> bool:
            if self is other:
                return True
            if type(other) is not cls:
                return NotImplemented
            return fields(self) == fields(other)

        def __hash__(self) -> int:
            return hash(fields(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__
        source = f"def __init__(self, {', '.join(names)}):\n"  # the slot descriptors set the fields past __setattr__
        source += "".join(f"    _set_{n}(self, {n})\n" for n in names)
        namespace = {"__name__": cls.__module__, **{f"_set_{n}": cls.__dict__[n].__set__ for n in names}}
        exec(compile(source, f"<{cls.__qualname__} record>", "exec"), namespace)
        cls._fill = namespace["__init__"]
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._fill
        cls._init_fields = names[: cls.__init__.__code__.co_argcount - 1]
        for function in (__eq__, __hash__, cls.__init__):
            function.__qualname__ = f"{cls.__qualname__}.{function.__name__}"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}: records are immutable")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:  # a copy or an unpickled record is rebuilt through __init__
        return type(self), tuple(getattr(self, name) for name in self._init_fields)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._init_fields)})"


class FieldLevel(_Record):
    """One layer of the residue-field lattice: Q**deg elements, M = Q**deg - 1."""

    __slots__ = ("Q", "deg", "M")

    def __init__(self, Q: int, deg: int) -> None:
        if Q < 2:
            raise OutOfRange(f"base cardinality must be at least 2, got {Q}")
        if deg < 1:
            raise OutOfRange(f"deg_over_e must be at least 1, got {deg}")
        # M has at least (Q.bit_length() - 1) * deg bits: a level that is over the
        # bound by that count alone is refused before Q**deg is computed
        if (Q.bit_length() - 1) * deg > MAX_LEVEL_BITS or (M := Q**deg - 1).bit_length() > MAX_LEVEL_BITS:
            raise LevelGuardExceeded(f"level Q={Q}, deg={deg}: M = Q**deg - 1 has more than {MAX_LEVEL_BITS} bits")
        self._fill(Q, deg, M)


@lru_cache(maxsize=1024, typed=True)  # typed: field_level(3.0, 2) is never answered from (3, 2)
def field_level(Q: int, deg: int) -> FieldLevel:
    """The level of degree ``deg`` over a field with Q elements: one shared object per (Q, deg)."""
    return FieldLevel(Q, deg)


class TowerParams(_Record):
    """A tower shape (p, q, e_ef, f_ef, m, d), checked, and the invariants derived from it."""

    __slots__ = ("p", "q", "e_ef", "f_ef", "m", "d", "g", "n", "Q", "d_prime", "m_prime", "n_prime")

    def __init__(self, p: int, q: int, e_ef: int, f_ef: int, m: int, d: int) -> None:
        if min(p, q, e_ef, f_ef, m, d) < 1:
            raise OutOfRange("all tower parameters must be positive")
        # every level over Q = q**f_ef has M >= Q - 1: none is admitted if this one is not
        Q = field_level(q, f_ef).M + 1
        if p > q:  # q is a power of p, so a larger p is refused before its primality test
            raise NotPrimePower(f"q={q} is not a power of p={p}")
        if not is_prime(p):
            raise NotPrime(f"p={p} is not prime")
        if is_prime_power(q) != p:
            raise NotPrimePower(f"q={q} is not a power of p={p}")
        g = e_ef * f_ef
        n = m * d
        if n % g:
            raise DegreeMismatch(f"degree g={g} does not divide n={n}")
        d_prime = d // math.gcd(d, g)
        m_prime = m * math.gcd(d, g) // g
        n_prime = n // g
        assert m_prime * d_prime == n_prime
        self._fill(p, q, e_ef, f_ef, m, d, g, n, Q, d_prime, m_prime, n_prime)

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.p, self.q, self.e_ef, self.f_ef, self.m, self.d)


derive_tower = TowerParams  # validates the six shape integers and computes every derived invariant


def level(params: TowerParams, deg_over_e: int) -> FieldLevel:
    """The field level of the given degree over e, with exact group order."""
    return field_level(params.Q, deg_over_e)


def blow_up(params: TowerParams, a: int) -> TowerParams:
    """Pass from GL_m(D) to GL_{a*m}(D); Q and d' are untouched, m and n' scale."""
    if a < 1:
        raise OutOfRange(f"blow-up factor must be at least 1, got {a}")
    return derive_tower(params.p, params.q, params.e_ef, params.f_ef, a * params.m, params.d)
