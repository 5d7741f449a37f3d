"""Elementary number theory on arbitrary-precision integers.

Everything here is deterministic, so repeated runs always produce the same
output.  Primality is decided by size: up to 10**5 by the sieve, below
psi_13 ~ 3.3e24 by the shortest prefix of thirteen fixed Miller-Rabin bases
that is proven for n, and above psi_13 by the strong test to all thirteen,
which no proof backs.  Factoring has one engine whose curves are fixed.

The engine splits a number with no small prime factor (``_split``): a part
is kept when prime, replaced by its root when a perfect power, and otherwise
split by Montgomery's elliptic-curve method with Suyama's sigma = 6, 7, ...
in fixed order, sigma starting again at 6 for each part.  Every curve's
stage 1 ladder takes the same multiplier, the lcm of 1..B1, and starts from
its base point scaled to Z = 1; its stage 2 brings every baby and giant step
to affine x with one batch inversion (Montgomery's trick) and so takes one
product a prime, and falls back to the projective terms when the product of
the steps' Z is not a unit mod n.  Either way each curve's gcd is that of
the projective continuation.  One call of the engine runs at most ``MAX_ECM_CURVES``
curves over all of its parts, counted in ``_split``'s one loop; the next
curve would raise ``FactorizationBudgetExceeded``.

Two entry points feed it.  ``factorize`` trial-divides by the primes below
10**5 and hands what is left to the engine.  The least prime factor of an n
whose prime factors are all 1 mod m (the primitive part of a cyclotomic
value) is found by search, not by factoring n outright
(``_least_prime_factor``): trial division over a fixed number of candidates
p = 1 + m, 1 + 2m, ..., then the engine on the cofactor until it knows one
prime p.  Only a prime below p can then change the answer, so each composite
part left is searched over the same progression below p, sieved in segments
(``_least_candidate_divisor``), rather than split; a part whose range spans
more than ``_SEARCH_CAP`` steps of m is split as before.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from itertools import compress

from .errors import FactorizationBudgetExceeded

_SIEVE_BOUND = 100_000


def _sieve(limit: int) -> list[int]:
    """The primes up to ``limit``, by a sieve of Eratosthenes over the odd numbers."""
    if limit < 2:
        return []
    flags = bytearray([1]) * ((limit + 1) // 2)  # flags[i] stands for 2i + 1
    flags[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            start = p * p // 2
            flags[start::p] = bytes(len(range(start, len(flags), p)))
    return [2, *compress(range(1, limit + 1, 2), flags)]


SMALL_PRIMES: list[int] = _sieve(_SIEVE_BOUND)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the least odd composite that is a strong probable prime to the first k bases (OEIS A014233):
# the first k bases prove every n < psi_k
_MR_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321, 341550071728321,
    3825123056546413051, 3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)


def is_prime(n: int) -> bool:
    """Primality by size: up to 10**5 a lookup in SMALL_PRIMES; below psi_13 the strong test to the
    first k bases, for the least k with n < psi_k, which proves it; above, the strong test to all
    thirteen bases, which no proof backs."""
    if n <= _SIEVE_BOUND:
        i = bisect_right(SMALL_PRIMES, n)
        return i > 0 and SMALL_PRIMES[i - 1] == n
    for p in _MR_BASES:
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(n: int, k: int) -> int:
    """The floor of the k-th root of n >= 0, by integer Newton steps (no float overflow)."""
    if n < 2 or k == 1:
        return n
    r = 1 << -(-n.bit_length() // k)  # at least the root; Newton steps descend to its floor
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


def _perfect_power(n: int) -> tuple[int, int] | None:
    """Return (root, k) with root**k == n and prime k, or None.

    Only for n with no prime factor below 2**13, which trial division has
    removed by the time _split or is_prime_power calls it:
    the root is then at least 2**13, so k <= bits / 13.  A power of a
    composite exponent is a power of a prime one.
    """
    for k in SMALL_PRIMES[: bisect_right(SMALL_PRIMES, n.bit_length() // 13)]:
        root = _integer_root(n, k)
        if root**k == n:
            return root, k
    return None


_TRIAL_BLOCK = 200  # candidates per block; is_prime(n) runs after the first block
_TRIAL_BLOCKS = 100
_ECM_B1 = 2000
_ECM_D = 100  # stage 2 takes its baby steps [2d]Q for d = 1..D
MAX_ECM_CURVES = 120  # per factorization or search, over all of its parts
_SEARCH_CAP = 1 << 24  # steps of m one search below a known prime may span, so candidates it may test
_SEGMENT = 1 << 17  # sieve entries held at once; 2**18 raised a certify process's peak memory by 2%


def _xadd(XP: int, ZP: int, XQ: int, ZQ: int, Xd: int, Zd: int, n: int) -> tuple[int, int]:
    """P + Q from x-only P, Q and their difference (Xd : Zd)."""
    u = (XP - ZP) * (XQ + ZQ) % n
    v = (XP + ZP) * (XQ - ZQ) % n
    return Zd * (u + v) ** 2 % n, Xd * (u - v) ** 2 % n


def _ladder(x: int, k: int, a24: int, n: int) -> tuple[int, int]:
    """[k](x : 1) for k >= 1 by the Montgomery ladder on the curve with a24 = (A + 2) / 4.

    A step doubles one point and adds the two with _xadd written out; as
    every sum has the base (x : 1) for its difference, a bit takes 10 products.
    """
    s, d = (x + 1) ** 2 % n, (x - 1) ** 2 % n
    t = s - d
    X0, Z0, X1, Z1 = x, 1, s * d % n, t * (d + a24 * t) % n
    for bit in bin(k)[3:]:
        p, m = X1 + Z1, X1 - Z1
        u, v = m * (X0 + Z0) % n, p * (X0 - Z0) % n
        w, y = u + v, u - v
        if bit == "1":  # R0 = R0 + R1, R1 = 2 R1
            X0, Z0 = w * w % n, x * y * y % n
            s, d = p * p % n, m * m % n
            t = s - d
            X1, Z1 = s * d % n, t * (d + a24 * t) % n
        else:  # R1 = R0 + R1, R0 = 2 R0
            X1, Z1 = w * w % n, x * y * y % n
            p, m = X0 + Z0, X0 - Z0
            s, d = p * p % n, m * m % n
            t = s - d
            X0, Z0 = s * d % n, t * (d + a24 * t) % n
    return X0, Z0


def _affine_x(points: list[tuple[int, int]], n: int) -> list[int] | None:
    """x = X / Z of every point (X : Z) by Montgomery's batch inversion: one
    pow(., -1, n) and four products a point.  None when the product of the Z
    is not a unit mod n."""
    prefix, zz = [], 1
    for _, Z in points:
        prefix.append(zz)
        zz = zz * Z % n
    if math.gcd(zz, n) != 1:
        return None
    inv, xs = pow(zz, -1, n), [0] * len(points)
    for j in range(len(points) - 1, -1, -1):
        X, Z = points[j]
        xs[j] = X * prefix[j] * inv % n
        inv = inv * Z % n
    return xs


def _ecm_curve(n: int, sigma: int) -> int:
    """gcd of n with what one ECM curve finds: Suyama's curve for sigma,
    stage 1 by the fixed multiplier _ecm_multiplier(), not a parameter,
    stage 2 by Montgomery's standard continuation over the primes in
    (B1, B2], where B2 is the sieve bound: stage 2 ends where SMALL_PRIMES
    ends.  1 or n when it finds nothing.

    Both stages start from a point scaled to Z = 1.  Stage 2 takes its D
    baby steps [2d]Q and its giant steps [r]Q to affine x by one batch
    inversion (_affine_x), then multiplies x([r]Q) - x([2d]Q) for each prime
    r + 2d: a unit times the projective X_r Z_2d - X_2d Z_r, so the gcd is
    the same.  When the product of the Z is not a unit mod n, it multiplies
    the projective terms instead.
    """
    u, v = (sigma * sigma - 5) % n, 4 * sigma % n
    X, Z = pow(u, 3, n), pow(v, 3, n)
    den = 16 * X * v % n
    g = math.gcd(den, n)
    if g != 1:
        return g
    inv = pow(den * Z, -1, n)  # 1 / (16 u^3 v^4)
    a24 = pow(v - u, 3, n) * (3 * u + v) * Z * inv % n
    X, Z = _ladder(den * X * inv % n, _ecm_multiplier(), a24, n)  # from x = X / Z
    g = math.gcd(Z, n)
    if g != 1:
        return g
    x, D = X * pow(Z, -1, n) % n, _ECM_D
    # steps[d] = [2d]Q for d = 1..D, after a placeholder; then [r]Q for the giant steps r
    steps = [(0, 1), _ladder(x, 2, a24, n), _ladder(x, 4, a24, n)]
    for d in range(3, D + 1):
        steps.append(_xadd(*steps[d - 1], *steps[1], *steps[d - 2], n))
    r0 = _ECM_B1 - 1  # odd, as B1 is even; the giant step r covers the primes in (r, r + 2D]
    i = bisect_right(SMALL_PRIMES, r0)
    giants = range(r0, SMALL_PRIMES[-1], 2 * D)
    T, R = _ladder(x, r0 - 2 * D, a24, n), _ladder(x, r0, a24, n)
    steps.append(R)
    for _ in giants[1:]:
        R, T = _xadd(*R, *steps[D], *T, n), R
        steps.append(R)
    xs, g = _affine_x(steps, n), 1
    for j, r in enumerate(giants, D + 1):
        top = bisect_right(SMALL_PRIMES, r + 2 * D, i)
        if xs is None:
            XR, ZR = steps[j]
            for p in SMALL_PRIMES[i:top]:
                XS, ZS = steps[(p - r) // 2]
                g = g * (XR * ZS - XS * ZR) % n
        else:
            xr = xs[j]
            for p in SMALL_PRIMES[i:top]:
                g = g * (xr - xs[(p - r) // 2]) % n
        i = top
    return math.gcd(g, n)


@functools.cache
def _ecm_multiplier() -> int:
    """The stage 1 multiplier: over the primes p <= B1, the product of the largest power of p <= B1."""
    return math.prod(p ** int(math.log(_ECM_B1, p)) for p in SMALL_PRIMES[: bisect_right(SMALL_PRIMES, _ECM_B1)])


def _least_candidate_divisor(n: int, m: int, lo: int, hi: int) -> int | None:
    """The least c = 1 (mod m) with lo < c < hi that divides n, or None; lo >= 1.

    The candidates c = 1 + k*m are taken in segments of at most _SEGMENT.  In
    each, every prime q with q*q < hi in SMALL_PRIMES that does not divide m
    strikes its multiples from q*q on, one slice assignment a segment, so q
    itself is never struck; n % c runs only on the candidates left.  Only
    composites are struck, and a composite c that divides n has a prime
    factor below it that divides n too.  So when n has no prime factor in
    (1, lo] and every prime factor of n is 1 mod m, the answer is n's least
    prime factor if that lies below hi.
    """
    k, k_end = (lo - 1) // m + 1, (hi - 2) // m + 1  # the k with lo < 1 + k*m < hi
    primes = [q for q in SMALL_PRIMES[: bisect_right(SMALL_PRIMES, math.isqrt(hi - 1))] if m % q]
    roots = [-pow(m, -1, q) % q for q in primes]  # q divides 1 + k*m exactly when k = root (mod q)
    while k < k_end:
        size = min(_SEGMENT, k_end - k)
        alive = bytearray([1]) * size
        for q, root in zip(primes, roots):
            start = max(k, (q * q - 2) // m + 1)  # the first k with 1 + k*m >= q*q
            start += (root - start) % q - k
            alive[start::q] = bytes(len(range(start, size, q)))
        for c in compress(range(1 + k * m, 1 + (k + size) * m, m), alive):
            if n % c == 0:
                return c
        k += size
    return None


def _split(n: int, m: int = 0, lo: int = 1) -> dict[int, int]:
    """The prime factorization of n > 1, which has no prime factor below 2**13.

    A part is kept if prime, else replaced by its perfect-power root, else
    split by the first curve sigma = 6, 7, ... that splits it, sigma starting
    again at 6 for each part, until every part is prime.  Each part carries
    its exponent, so the root of a power is split once, not once per copy.
    This loop alone counts the curves: all parts share MAX_ECM_CURVES of
    them, and when they run out FactorizationBudgetExceeded names the stage,
    ecm until the first split and split after it, and the bits of the part
    left unsplit.

    With m > 0 only the least prime of n is wanted (_least_prime_factor),
    and every prime factor of n is 1 mod m and above lo; the map then holds
    that prime but maybe not the others.  The smaller part of a split is
    taken first.  Once a prime p is known, a composite part is not split but
    searched over the candidates 1 + k*m above lo, below p and at most
    sqrt(part) (_least_candidate_divisor), which finds its least prime if
    that is below p; a part without one is dropped, as none of its primes is
    the least.  A part whose range spans more than _SEARCH_CAP steps of m is
    split as above instead, so one search sieves and tests at most
    _SEARCH_CAP candidates.
    """
    parts, primes, stage, spent = [(n, 1)], {}, "ecm", 0
    while parts:
        part, e = parts.pop()
        if is_prime(part):
            primes[part] = primes.get(part, 0) + e
        elif (power := _perfect_power(part)) is not None:
            parts.append((power[0], e * power[1]))
        elif m and primes and (hi := min(min(primes), math.isqrt(part) + 1)) - lo <= m * _SEARCH_CAP:
            if (c := _least_candidate_divisor(part, m, lo, hi)) is not None:
                primes[c] = e
        else:
            for sigma in range(6, 6 + MAX_ECM_CURVES - spent):
                if 1 < (d := _ecm_curve(part, sigma)) < part:
                    break
            else:
                raise FactorizationBudgetExceeded(
                    f"{MAX_ECM_CURVES} ECM curves spent in the {stage} stage"
                    f" with a {part.bit_length()}-bit cofactor unsplit"
                )
            pieces = [(d, e), (part // d, e)]
            parts += sorted(pieces, reverse=True) if m else pieces
            stage, spent = "split", spent + sigma - 5
    return primes


def _least_prime_factor(n: int, m: int) -> int:
    """The least prime factor of n >= 2, given that every prime factor of n is 1 mod m.

    Trial division over p = 1 + m, 1 + 2m, ... needs no primality test: a
    smaller prime factor of a dividing candidate would itself have been a
    candidate.  Past the square root of n, n is prime.  When none of the
    _TRIAL_BLOCKS blocks of candidates divides n, _split looks for the least
    prime of what is left: it splits by ECM until it knows one prime p, then
    searches each composite part left below p over the same progression
    (at most _SEARCH_CAP candidates a part) instead of splitting it.  It
    raises FactorizationBudgetExceeded when its curves run out.
    """
    root, p = math.isqrt(n), 1
    for block in range(_TRIAL_BLOCKS):
        for p in range(p + m, p + m * _TRIAL_BLOCK + 1, m):
            if p > root:
                return n
            if n % p == 0:
                return p
        if block == 0 and is_prime(n):
            return n
    # n is composite, and every prime factor of it is above p
    return min(_split(n, m, p))


def factorize(n: int) -> dict[int, int]:
    """Full prime factorization of n >= 1 as an exponent map.

    Trial division over SMALL_PRIMES stops once p * p > n, which leaves 1 or
    a prime.  A cofactor left after all of them has no prime factor below
    10**5 and goes to _split, so a number that MAX_ECM_CURVES curves do
    not factor raises FactorizationBudgetExceeded.
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            if n > 1:
                out[n] = 1
            return out
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out.update(_split(n))
    return out


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime divisors of n."""
    return sorted(factorize(n)) if n > 1 else []


@functools.cache
def _degree_primes(n: int) -> tuple[int, ...]:
    """``prime_factors`` of a level degree n, memoized as a tuple that no caller can change.

    Callers pass only a degree that a level guard has admitted, so n is at most
    ``tower.MAX_LEVEL_BITS`` and so is the number of keys.
    """
    return tuple(prime_factors(n))


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n; nothing in the package calls it, but perfbench's layer tracer wraps it by name."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def is_prime_power(n: int) -> int | None:
    """Return the prime base if n = p**k for a prime p and k >= 1, else None.

    Nothing is factored: a small prime dividing n must be the base, n is
    prime when none divides it up to its square root, and otherwise n has no
    prime factor below 10**5, so its perfect-power roots can be taken until
    none is left and the last one tested for primality.
    """
    if n < 2:
        return None
    for p in SMALL_PRIMES:
        if p * p > n:
            return n
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
    while (power := _perfect_power(n)) is not None:
        n = power[0]
    return n if is_prime(n) else None


def _ell_idempotent(M: int, ell: int) -> int:
    """The CRT idempotent e mod M with e = 0 (mod ell**t) and e = 1 (mod M0), where M = ell**t * M0
    and ell does not divide M0: 1 when ell does not divide M, 0 when M is a power of ell.

    Multiplying an exponent mod M by e keeps its M0-part and kills its
    ell-part, and the complementary idempotent 1 - e keeps the ell-part only.
    """
    q = 1
    while M % (q * ell) == 0:
        q *= ell
    return q * pow(q, -1, M // q) % M
