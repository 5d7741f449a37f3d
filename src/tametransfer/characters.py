"""The character algebra of the multiplicative group of a finite field.

A character of the field with Q**deg elements is stored as an exponent
``a`` modulo the group order M = Q**deg - 1, with respect to a fixed
generator: the character sends a fixed generator to the a-th power of a
fixed primitive M-th root of unity.  Under this model

  * multiplying characters adds exponents mod M,
  * the Frobenius x -> x**Q acts on exponents by a -> Q*a mod M,
  * the norm to a level of degree a*deg acts by multiplying exponents by
    the ratio of the group orders (compatible generators are assumed; no
    orbit-level statement ever depends on the choice).

Galois orbits are the orbits under the Frobenius action; their canonical
representative is the numerically smallest exponent.  The orbit size is
called the parametric degree of the character.
"""

from __future__ import annotations

import math

from .errors import EnumerationTooLarge, LevelGuardExceeded, LevelMismatch, NotPrime, OutOfRange
from .numth import _degree_primes, _ell_idempotent, is_prime
from .tower import MAX_LEVEL_BITS, FieldLevel, _Record, field_level

# Largest group order M whose orbits are listed.  It bounds the size of an enumeration, which holds
# all M exponents as orbit members; a partition visits only the representatives.
MAX_ENUMERATION = 10**6


class CharExp(_Record):
    """A character of the level's multiplicative group, as an exponent mod M."""

    __slots__ = ("level", "a")

    def __init__(self, level: FieldLevel, a: int) -> None:
        if not 0 <= a < level.M:
            raise OutOfRange(f"exponent {a} outside [0, {level.M})")
        self._fill(level, a)

    def __mul__(self, other: "CharExp") -> "CharExp":
        if self.level != other.level:
            raise LevelMismatch("cannot compose characters at different levels")
        return CharExp(self.level, (self.a + other.a) % self.level.M)

    def inverse(self) -> "CharExp":
        return CharExp(self.level, -self.a % self.level.M)

    @property
    def is_trivial(self) -> bool:
        return self.a == 0


def char(level: FieldLevel, a: int) -> CharExp:
    """Character with exponent ``a`` reduced into canonical range."""
    return CharExp(level, a % level.M)


class GaloisOrbit(_Record):
    """A Frobenius orbit of characters, held as its sorted members."""

    __slots__ = ("level", "members")

    @property
    def rep(self) -> int:
        """The canonical representative: the smallest member."""
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)

    def rep_char(self) -> CharExp:
        return CharExp(self.level, self.rep)


def orbit_of(alpha: CharExp) -> GaloisOrbit:
    """Enumerate the Frobenius orbit of ``alpha``.

    The orbit closes after f steps where f divides the level degree, because
    Q**deg = 1 mod M.
    """
    Q, M, a = alpha.level.Q, alpha.level.M, alpha.a
    members = [a]
    x = a * Q % M
    while x != a:
        members.append(x)
        x = x * Q % M
    assert alpha.level.deg % len(members) == 0
    return GaloisOrbit(alpha.level, tuple(sorted(members)))


def _in_orbit(level: FieldLevel, x: int, a: int) -> bool:
    """Whether the exponent x lies in the Frobenius orbit of a: a walk from a that stops at x or
    when it closes, and keeps no members."""
    Q, M, y = level.Q, level.M, a
    while y != x:
        y = y * Q % M
        if y == a:
            return False
    return True


def char_order(alpha: CharExp) -> int:
    """Order of the character in the dual group: M / gcd(a, M)."""
    return alpha.level.M // math.gcd(alpha.a, alpha.level.M)


def ell_regular_part(alpha: CharExp, ell: int) -> CharExp:
    """The unique character of order prime to ell with quotient of ell-power order.

    Writing M = ell**t * M0 with ell not dividing M0, the exponent is scaled
    by the idempotent that is 1 mod M0 and 0 mod ell**t; this kills exactly
    the ell-part of the character.  An ell with more bits than the level
    guard admits in any M divides no M, and is refused before its primality
    test.
    """
    if ell.bit_length() > MAX_LEVEL_BITS:
        raise LevelGuardExceeded(f"ell has {ell.bit_length()} bits; no level's M has more than {MAX_LEVEL_BITS}")
    if not is_prime(ell):
        raise NotPrime(f"ell={ell} is not prime")
    return _ell_regular(alpha, ell)


def _ell_regular(alpha: CharExp, ell: int) -> CharExp:
    """``ell_regular_part`` for an ell already known to be prime."""
    return CharExp(alpha.level, _ell_idempotent(alpha.level.M, ell) * alpha.a % alpha.level.M)


def norm_inflate(alpha: CharExp, a: int) -> CharExp:
    """Pull the character back through the norm from the level of degree a*deg.

    Exponents multiply by the ratio of group orders; the parametric degree is
    preserved because the character order is unchanged.
    """
    if a < 1:
        raise OutOfRange(f"blow-up factor must be at least 1, got {a}")
    if a == 1:
        return alpha
    top = field_level(alpha.level.Q, a * alpha.level.deg)
    return CharExp(top, alpha.a * (top.M // alpha.level.M))


def _order_ratio(top: FieldLevel, base: FieldLevel) -> int:
    """The order ratio M_top / M_base, once ``top`` is checked to be a blow-up of ``base``."""
    if top.Q != base.Q or top.deg % base.deg:
        raise LevelMismatch(f"level {top.deg} over Q={top.Q} is not a blow-up of level {base.deg} over Q={base.Q}")
    return top.M // base.M


def _norm_image(top: FieldLevel, base: FieldLevel, x: int) -> int | None:
    """The exponent at the sub-level ``base`` whose norm inflation is the exponent ``x`` at ``top``,
    or None unless the order ratio M_top / M_base divides x: the norm image."""
    nu, rest = divmod(x, _order_ratio(top, base))
    return None if rest else nu


def is_norm_inflated(chi: CharExp, base: FieldLevel) -> CharExp | None:
    """Invert norm inflation from ``base`` when possible.

    Returns the character nu with norm_inflate(nu, a) == chi, which exists
    exactly when the order ratio divides chi's exponent; None otherwise.
    """
    nu = _norm_image(chi.level, base, chi.a)
    return None if nu is None else CharExp(base, nu)


def orbit_size(alpha: CharExp) -> int:
    """Size of the Frobenius orbit of ``alpha``, without walking it.

    The f-th Frobenius power fixes the character exactly when it is norm
    inflated from the level of degree f | deg; such f are the multiples of
    the orbit size, so each prime of deg is divided out of f = deg while the
    character stays inflated.  Equivalently, f is the order of Q modulo char_order(alpha).
    """
    lvl, f = alpha.level, alpha.level.deg
    for p in _degree_primes(f):
        while f % p == 0 and _norm_image(lvl, field_level(lvl.Q, f // p), alpha.a) is not None:
            f //= p
    return f


def _orbit_size_over(alpha: CharExp, d_prime: int) -> int:
    """``orbit_size(alpha)``, once d_prime is checked to be positive and to divide the level degree."""
    if d_prime < 1:
        raise OutOfRange(f"d' must be at least 1, got {d_prime}")
    if alpha.level.deg % d_prime:
        raise LevelMismatch(f"d'={d_prime} does not divide level degree {alpha.level.deg}")
    return orbit_size(alpha)


def sigma_orbit_size(alpha: CharExp, d_prime: int) -> int:
    """Orbit size u = f / gcd(f, d') under the d_prime-th Frobenius power."""
    f = _orbit_size_over(alpha, d_prime)
    return f // math.gcd(f, d_prime)


def is_sigma_regular(alpha: CharExp, d_prime: int) -> bool:
    return sigma_orbit_size(alpha, d_prime) == alpha.level.deg // d_prime


def s_invariant(alpha: CharExp, d_prime: int) -> int:
    """d' / gcd(f, d'), where f is the parametric degree of the character."""
    return d_prime // math.gcd(_orbit_size_over(alpha, d_prime), d_prime)


def _walk_orbits(level: FieldLevel) -> list[int]:
    """The canonical representative of every Frobenius orbit of the level, ascending.

    As M = Q**deg - 1, multiplying by Q rotates the deg base-Q digits of an
    exponent, so an orbit is a necklace and its representative is the
    necklace's smallest rotation.  The Fredricksen-Kessler-Maiorana successor
    lists the prenecklaces in
    ascending order, at constant amortized cost each, as integers: from x,
    strip the factors Q from y = x + 1, which leaves a prefix of i digits;
    the next prenecklace repeats that prefix, y * Q**deg // (Q**i - 1), and
    is a representative exactly when i divides deg, of an orbit of i members.
    A prefix of deg digits is aperiodic and stays so while its last digit
    rises, so every exponent up to its next last digit Q - 1 is a
    representative too.  A prefix of digits Q - 1 alone would repeat to M,
    whose orbit {0} is listed first, and ends the walk.  Only the
    representatives are visited.  A level with M above the fixed
    ``MAX_ENUMERATION`` raises before any work.
    """
    Q, n, M = level.Q, level.deg, level.M
    if M > MAX_ENUMERATION:
        raise EnumerationTooLarge(f"M={M} exceeds enumeration bound {MAX_ENUMERATION}")
    reps = [0]
    below = [Q**i - 1 for i in range(n + 1)]
    x = 0
    while True:
        y, i = x + 1, n
        while y % Q == 0:
            y //= Q
            i -= 1
        if y == below[i]:
            break
        if i < n:
            x = y * (M + 1) // below[i]
            if n % i == 0:
                reps.append(x)
        else:
            x = y - y % Q + Q - 1
            if x == M:  # only at degree one, where the run would reach M itself
                x -= 1
            reps += range(y, x + 1)
    return reps


def enumerate_orbits(level: FieldLevel) -> list[GaloisOrbit]:
    """All Frobenius orbits at the level, ordered by canonical representative.

    The necklace walk lists the representatives first; then each orbit's
    members are walked from its representative and sorted.
    """
    Q, M = level.Q, level.M
    orbits = []
    for a in _walk_orbits(level):
        members = [a]
        x = a * Q % M
        while x != a:
            members.append(x)
            x = x * Q % M
        members.sort()
        # Built positionally: keyword arguments make each frozen orbit slower to build.
        orbits.append(GaloisOrbit(level, tuple(members)))
    return orbits
