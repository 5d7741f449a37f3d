"""Primitive prime divisors, the regularization lift, and transfer descent.

A primitive prime divisor of b**r - 1 is a prime dividing it but dividing no
earlier b**i - 1.  Such a prime exists for all b, r >= 2 except for the two
classical exception families (r = 6 with b = 2, and r = 2 with b + 1 a power
of 2).  Here it powers the regularization lift: any character of the base
level is congruent, modulo a primitive prime of a blown-up group order, to a
character whose Frobenius orbit is as large as possible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import (
    CharExp,
    GaloisOrbit,
    _check_blow_up,
    ell_regular_part,
    norm_inflate,
    orbit_of,
    orbit_size,
)
from .errors import (
    AmbiguousTwist,
    LevelGuardExceeded,
    LevelMismatch,
    NotNormInflated,
    NotPrime,
    OrderViolation,
    OutOfRange,
    ZsigmondyException,
)
from .numth import _ell_split, divisors, factorize, is_prime, mobius
from .tower import TowerParams, level

ZSIGMONDY_MAX_BITS = 1500

# factorizations of cyclotomic values, keyed by (b, d); pure data, safe to share
_CYCLO_FACTOR_CACHE: dict[tuple[int, int], dict[int, int]] = {}


def cyclotomic_value(r: int, b: int) -> int:
    """The r-th cyclotomic polynomial evaluated at b, by Moebius inversion."""
    num = den = 1
    for d in divisors(r):
        mu = mobius(r // d)
        if mu == 1:
            num *= b**d - 1
        elif mu == -1:
            den *= b**d - 1
    assert num % den == 0
    return num // den


def _factor_cyclotomic(b: int, d: int) -> dict[int, int]:
    key = (b, d)
    if key not in _CYCLO_FACTOR_CACHE:
        _CYCLO_FACTOR_CACHE[key] = factorize(cyclotomic_value(d, b))
    return _CYCLO_FACTOR_CACHE[key]


def factor_power_minus_one(b: int, r: int) -> dict[int, int]:
    """Factor b**r - 1 through its cyclotomic pieces (memoized per piece)."""
    out: dict[int, int] = {}
    for d in divisors(r):
        for p, e in _factor_cyclotomic(b, d).items():
            out[p] = out.get(p, 0) + e
    return out


@dataclass(frozen=True)
class ZsigmondyCertificate:
    """Self-contained evidence for a primitive prime divisor search.

    When ``ell`` is present it divides b**r - 1 and none of the listed
    residues b**i - 1 mod ell (1 <= i < r) vanish.  When absent, (b, r) is
    one of the two exception families.
    """

    b: int
    r: int
    ell: int | None
    factorization: tuple[tuple[int, int], ...]
    residues: tuple[int, ...]


def zsigmondy_prime(b: int, r: int) -> tuple[int, ZsigmondyCertificate] | None:
    """Smallest primitive prime divisor of b**r - 1 with certificate, or None.

    Every prime dividing the r-th cyclotomic value at b is primitive except
    possibly the largest prime factor of r, which can never be primitive (it
    would have to be 1 mod r).  So the primitive primes are exactly the prime
    factors of the stripped cyclotomic value, and the certificate's
    factorization already contains them.
    """
    if b < 2 or r < 2:
        raise OutOfRange(f"need b, r >= 2, got b={b}, r={r}")
    if b.bit_length() * r > ZSIGMONDY_MAX_BITS:
        raise LevelGuardExceeded(
            f"b**r-1 would have about {b.bit_length() * r} bits, over the {ZSIGMONDY_MAX_BITS}-bit guard"
        )
    ell0 = max(factorize(r))
    # Strip every copy of the intrinsic prime; for r = 2 it can occur to a
    # power higher than one.
    primitive_part = cyclotomic_value(r, b)
    while primitive_part % ell0 == 0:
        primitive_part //= ell0
    fac = tuple(sorted(factor_power_minus_one(b, r).items()))
    if primitive_part == 1:
        return None
    ell = min(p for p in _factor_cyclotomic(b, r) if p != ell0)
    if pow(b, r, ell) != 1 or any(pow(b, r // p, ell) == 1 for p in factorize(r)):
        raise OrderViolation(f"prime {ell} is not primitive for ({b},{r})")
    residues = tuple((pow(b, i, ell) - 1) % ell for i in range(1, r))
    cert = ZsigmondyCertificate(b=b, r=r, ell=ell, factorization=fac, residues=residues)
    return ell, cert


def zsigmondy_exception(b: int, r: int) -> bool:
    """True exactly for the two families with no primitive prime divisor."""
    if r == 6 and b == 2:
        return True
    return r == 2 and (b + 1) & b == 0  # b + 1 a power of 2


def verify_certificate(cert: ZsigmondyCertificate) -> bool:
    """Recheck a certificate from its own fields, without refactoring."""
    n = cert.b**cert.r - 1
    prod = 1
    for p, e in cert.factorization:
        if not is_prime(p):
            return False
        prod *= p**e
    if prod != n:
        return False
    if cert.ell is None:
        return cert.residues == () and zsigmondy_exception(cert.b, cert.r)
    if not is_prime(cert.ell) or n % cert.ell:
        return False
    if len(cert.residues) != cert.r - 1:
        return False
    for i, res in enumerate(cert.residues, start=1):
        if res != (pow(cert.b, i, cert.ell) - 1) % cert.ell or res == 0:
            return False
    return True


@dataclass(frozen=True)
class RegularizationLift:
    """Result of regularizing a character via an odd blow-up.

    ``beta`` lives at the blown-up level, is fully regular there, and its
    ell-regular part has the same orbit as the inflated input character.
    """

    a: int
    ell: int
    beta: CharExp
    alpha_star: CharExp
    certificate: ZsigmondyCertificate


def regularize(alpha: CharExp, params: TowerParams, a_override: int | None = None) -> RegularizationLift:
    """Lift ``alpha`` to a fully regular character at an odd blow-up level.

    The blow-up factor is 7 unless ``a_override`` names another odd a >= 7.
    The primitive prime is searched for b = Q**f and r = a*n'/f, where the
    parametric degree f divides n', so r >= a >= 7; the exception families
    have r = 2 or r = 6, so the search always succeeds.  The blow-up level
    is built before the search, so the level guard fires before any
    factoring.
    """
    base = level(params, params.n_prime)
    if alpha.level != base:
        raise LevelMismatch(f"character level {alpha.level} is not {base}")
    f = orbit_size(alpha)
    if a_override is not None:
        if a_override % 2 == 0 or a_override < 7 or a_override * params.n_prime <= 6 * f:
            raise OutOfRange(
                f"a_override={a_override} must be odd, >= 7, with a*n' > 6f (n'={params.n_prime}, f={f})"
            )
        a = a_override
    else:
        a = 7
    top = level(params, a * params.n_prime)  # the level guard, before any factoring

    b, r = params.Q**f, a * params.n_prime // f
    hit = zsigmondy_prime(b, r)
    if hit is None:
        raise ZsigmondyException(f"no primitive prime for b={b}, r={r} at a={a}")
    ell, cert = hit

    alpha_star = norm_inflate(alpha, a)
    xi = CharExp(top, top.M // ell)
    beta = xi * alpha_star

    if orbit_size(beta) != a * params.n_prime:
        raise OrderViolation("lifted character is not fully regular")
    if ell_regular_part(beta, ell).a not in orbit_of(alpha_star).members:
        raise OrderViolation("lifted character is not congruent to the inflated input")
    if (params.Q**f - 1) % ell == 0 or ell == params.p or ell == 2:
        raise OrderViolation(f"prime {ell} violates the primitivity constraints")
    if a * params.n_prime <= 6 * f:
        raise OrderViolation("blow-up level is not large enough")
    return RegularizationLift(a=a, ell=ell, beta=beta, alpha_star=alpha_star, certificate=cert)


def descend_transfer(alpha: CharExp, lift: RegularizationLift, beta_image: GaloisOrbit) -> GaloisOrbit:
    """Descend an asserted image orbit of the lifted character back to the base level.

    Each Frobenius conjugate of the image's representative is divided by the
    lifted character; the ell-regular part of the quotient must come from the
    base level by norm inflation, and the descended twist is applied to the
    input.  Conjugates that descend must all agree on the final orbit.

    The ell-split of the lift's group order (the CRT idempotent e) and the
    order ratio to the base level are computed once per call, so a member m
    costs one product: x = e * (m - beta) mod M, which descends exactly when
    the ratio divides x, to the exponent alpha + x / ratio.  Only the orbit
    of the first candidate is walked; orbits partition the level, so every
    other candidate must lie among its members.
    """
    top = lift.beta.level
    if beta_image.level != top:
        raise LevelMismatch("image orbit does not live at the lift's level")
    ell = lift.ell
    if not is_prime(ell):
        raise NotPrime(f"ell={ell} is not prime")
    base = alpha.level
    _check_blow_up(top, base)
    M_top, M_base = top.M, base.M
    _, e = _ell_split(M_top, ell)
    ratio = M_top // M_base
    b, a = lift.beta.a, alpha.a
    candidates = []
    for member in beta_image.members:
        x = e * (member - b) % M_top
        if x % ratio == 0:
            candidates.append((a + x // ratio) % M_base)
    if not candidates:
        raise NotNormInflated(
            "no conjugate of the image divides to a norm-inflated regular twist"
        )
    result = orbit_of(CharExp(base, candidates[0]))
    if any(c not in result.members for c in candidates[1:]):
        raise AmbiguousTwist("conjugates of the image descend to different orbits")
    return result
