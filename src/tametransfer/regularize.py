"""Primitive prime divisors, the regularization lift, and transfer descent.

A primitive prime divisor of b**r - 1 is a prime dividing it but dividing no
earlier b**i - 1.  Such a prime exists for all b, r >= 2 except for the two
classical exception families (r = 6 with b = 2, and r = 2 with b + 1 a power
of 2).  Here it powers the regularization lift: any character of the base
level is congruent, modulo a primitive prime of a blown-up group order, to a
character whose Frobenius orbit is as large as possible.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import lru_cache

from .characters import (
    CharExp,
    GaloisOrbit,
    _ell_regular,
    _in_orbit,
    _order_ratio,
    norm_inflate,
    orbit_of,
    orbit_size,
)
from .errors import (
    AmbiguousTwist,
    FactorizationBudgetExceeded,
    LevelGuardExceeded,
    LevelMismatch,
    NotNormInflated,
    NotPrime,
    OrderViolation,
    OutOfRange,
)
from .numth import _degree_primes, _ell_idempotent, _least_prime_factor, is_prime, prime_factors
from .tower import TowerParams, _Record, field_level, level

BLOW_UP_FACTOR = 7  # the odd a of every regularization lift


def cyclotomic_value(r: int, b: int) -> int:
    """The r-th cyclotomic polynomial at b: the product of b**(r/s) - 1 over the products s of the
    even subsets of the primes of r, over that product for the odd subsets.  It divides b**r - 1,
    the M of the level of degree r over b, so that level's guard refuses it before r is factored."""
    if r < 1 or b < 2:
        raise OutOfRange(f"need r >= 1 and b >= 2, got r={r}, b={b}")
    field_level(b, r)
    terms = [(r, True)]  # (r/s, whether s is the product of an even subset), over the subsets so far
    for p in _degree_primes(r):
        for i in range(len(terms)):
            d, even = terms[i]
            terms.append((d // p, not even))
    num = den = 1
    for d, even in terms:
        if even:
            num *= b**d - 1
        else:
            den *= b**d - 1
    assert num % den == 0
    return num // den


class ZsigmondyCertificate(_Record):
    """Self-contained evidence that ell is a primitive prime divisor of b**r - 1.

    ``order_checks`` holds (p, b**(r/p) mod ell) for each prime p | r in
    ascending order.  With ell prime, b**r = 1 (mod ell) and no listed
    residue equal to 1, b has order exactly r modulo ell, so ell divides
    b**r - 1 and no earlier b**i - 1.
    """

    __slots__ = ("b", "r", "ell", "order_checks")


def _order_checks(b: int, r: int, ell: int, primes_of: Callable) -> tuple[tuple[int, int], ...] | None:
    """(p, b**(r/p) mod ell) for each prime p | r ascending, or None unless b has
    order exactly r modulo ell; r's primes come from ``primes_of(r)``, asked only once
    b**r = 1 (mod ell)."""
    if pow(b, r, ell) != 1:
        return None
    checks = []
    for p in primes_of(r):
        residue = pow(b, r // p, ell)
        if residue == 1:
            return None
        checks.append((p, residue))
    return tuple(checks)


@lru_cache(maxsize=1024)  # the certified answer; a raised OrderViolation or budget error is not cached
def _smallest_primitive_prime(b: int, r: int) -> tuple[int, ZsigmondyCertificate] | None:
    ell0 = _degree_primes(r)[-1]
    # Strip every copy of the intrinsic prime; for r = 2 it can occur to a
    # power higher than one.
    primitive_part = cyclotomic_value(r, b)
    while primitive_part % ell0 == 0:
        primitive_part //= ell0
    if primitive_part == 1:
        return None
    # every prime left is primitive, so 1 mod r, and odd: 1 mod 2r for odd r
    try:
        ell = _least_prime_factor(primitive_part, r if r % 2 == 0 else 2 * r)
    except FactorizationBudgetExceeded as exc:
        raise FactorizationBudgetExceeded(f"primitive prime for b={b}, r={r}: {exc}") from None
    order_checks = _order_checks(b, r, ell, _degree_primes)
    if order_checks is None:
        raise OrderViolation(f"prime {ell} is not primitive for ({b},{r})")
    return ell, ZsigmondyCertificate(b=b, r=r, ell=ell, order_checks=order_checks)


def zsigmondy_prime(b: int, r: int) -> tuple[int, ZsigmondyCertificate] | None:
    """Smallest primitive prime divisor of b**r - 1 with certificate, or None.

    Every prime dividing the r-th cyclotomic value at b is primitive except
    possibly the largest prime factor of r, which can never be primitive (it
    would have to be 1 mod r).  So the primitive primes are exactly the prime
    factors of the stripped cyclotomic value, and the answer is its smallest
    prime factor, found by the budgeted search of ``numth`` over primes
    1 mod r (1 mod 2r for odd r); b**r - 1 itself is never factored.  It is
    the group order of the level of degree r over b, so that level's guard
    refuses the search before any work.
    """
    if b < 2 or r < 2:
        raise OutOfRange(f"need b, r >= 2, got b={b}, r={r}")
    field_level(b, r)
    return _smallest_primitive_prime(b, r)


def zsigmondy_exception(b: int, r: int) -> bool:
    """True exactly for the two families with no primitive prime divisor."""
    if r == 6 and b == 2:
        return True
    return r == 2 and (b + 1) & b == 0  # b + 1 a power of 2


def verify_certificate(cert: ZsigmondyCertificate) -> bool:
    """Recheck a certificate from its own fields: ell is prime and b has order exactly r modulo ell.
    Unless b**r - 1 is under the level guard and ell > 1 divides it, as in every certificate
    ``zsigmondy_prime`` writes, the answer is False before r is factored or ell is tested.  The
    recheck factors r itself and reads no memo, so a fault in the search's memo of r's primes
    cannot reach it."""
    b, r, ell = cert.b, cert.r, cert.ell
    if b < 2 or r < 2 or ell < 2:
        return False
    try:
        field_level(b, r)
    except LevelGuardExceeded:
        return False
    checks = _order_checks(b, r, ell, prime_factors)
    return checks is not None and checks == cert.order_checks and is_prime(ell)


class RegularizationLift(_Record):
    """Result of regularizing a character via an odd blow-up: ``ell`` is the certificate's prime and
    ``beta`` = ``alpha_star`` * xi, where xi has exponent M/ell at the blown-up level of ``alpha_star``.
    ``regularize`` checks that beta is fully regular there and that its ell-regular part has the
    same orbit as the inflated input character."""

    __slots__ = ("a", "alpha_star", "certificate", "ell", "beta")

    def __init__(self, a: int, alpha_star: CharExp, certificate: ZsigmondyCertificate) -> None:
        ell, top = certificate.ell, alpha_star.level
        self._fill(a, alpha_star, certificate, ell, alpha_star * CharExp(top, top.M // ell))


def regularize(alpha: CharExp, params: TowerParams) -> RegularizationLift:
    """Lift ``alpha`` to a fully regular character at an odd blow-up level.

    The blow-up factor is a = BLOW_UP_FACTOR.  The primitive prime is
    searched for b = Q**f and r = a*n'/f, where the parametric degree f
    divides n', so r >= a = 7; the exception families have r = 2 or r = 6,
    so the search always succeeds; Q**f has order r >= 7 modulo ell, so ell
    does not divide Q**f - 1 and is neither p nor 2.  The blow-up level is
    built first: the guard fires before any factoring.  As orbits partition a level, the ell-regular
    part of beta has alpha_star's orbit exactly when a walk from alpha_star meets it; none is built.
    """
    base = level(params, params.n_prime)
    if alpha.level != base:
        raise LevelMismatch(f"character level {alpha.level} is not {base}")
    f, a = orbit_size(alpha), BLOW_UP_FACTOR
    alpha_star = norm_inflate(alpha, a)  # builds the blow-up level: its guard fires before any factoring

    _, cert = zsigmondy_prime(params.Q**f, a * params.n_prime // f)
    lift = RegularizationLift(a, alpha_star, cert)

    if orbit_size(lift.beta) != a * params.n_prime:
        raise OrderViolation("lifted character is not fully regular")
    if not _in_orbit(alpha_star.level, _ell_regular(lift.beta, lift.ell).a, alpha_star.a):  # ell is certified prime
        raise OrderViolation("lifted character is not congruent to the inflated input")
    return lift


def descend_transfer(alpha: CharExp, lift: RegularizationLift, beta_image: GaloisOrbit) -> GaloisOrbit:
    """Descend an asserted image orbit of the lifted character back to the base level.

    Each Frobenius conjugate of the image's representative is divided by the
    lifted character; the ell-regular part of the quotient must come from the
    base level by norm inflation, and the descended twist is applied to the
    input.  Conjugates that descend must all agree on the final orbit.

    Write the order ratio M_top / M_base as ell**s * r0 with ell not dividing r0.
    The idempotent e of ``_ell_idempotent`` is 0 mod ell**s and 1 mod r0, so the
    ratio divides the ell-regular part e * (m - beta) of a member m exactly when
    r0 divides m - beta, and m then descends to alpha + E * (m - beta) / r0 mod
    M_base, with E = e / ell**s mod M_base and ell**s = gcd(ratio, e).  So a member
    costs one division by r0 and at most one product at the base level's size.
    Only the orbit of the first candidate is walked; orbits partition the level,
    so every other candidate must lie among its members.
    """
    top = lift.beta.level
    if beta_image.level != top:
        raise LevelMismatch("image orbit does not live at the lift's level")
    ell = lift.ell
    if not is_prime(ell):
        raise NotPrime(f"ell={ell} is not prime")
    base, b, a = alpha.level, lift.beta.a, alpha.a
    ratio, e, M_base = _order_ratio(top, base), _ell_idempotent(top.M, ell), base.M
    ell_s = math.gcd(ratio, e)
    r0, E = ratio // ell_s, e // ell_s % M_base
    candidates = []
    for member in beta_image.members:
        k, rest = divmod(member - b, r0)
        if not rest:
            candidates.append((a + E * k) % M_base)
    if not candidates:
        raise NotNormInflated(
            "no conjugate of the image divides to a norm-inflated regular twist"
        )
    result = orbit_of(CharExp(base, candidates[0]))
    if not set(result.members).issuperset(candidates):
        raise AmbiguousTwist("conjugates of the image descend to different orbits")
    return result
