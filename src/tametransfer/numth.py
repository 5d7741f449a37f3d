"""Elementary number theory on arbitrary-precision integers.

Everything here is deterministic: primality uses fixed Miller-Rabin bases
(proven correct below 3.3e24, used as a strong test above), and factoring
uses trial division with a Brent-cycle Pollard rho fallback whose parameter
sweep is fixed, so repeated runs always produce the same output.
"""

from __future__ import annotations

import math

_SIEVE_BOUND = 100_000


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i, f in enumerate(flags) if f]


SMALL_PRIMES: list[int] = _sieve(_SIEVE_BOUND)

# the primes trial division tries before factorize turns to p-1 and rho
_TRIAL_PRIMES = SMALL_PRIMES[:1300]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test with the twelve-base certificate set."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def _perfect_power(n: int) -> tuple[int, int] | None:
    """Return (root, k) with root**k == n and k >= 2, or None."""
    for k in range(2, n.bit_length() + 1):
        root = round(n ** (1.0 / k))
        for r in (root - 1, root, root + 1):
            if r > 1 and r**k == n:
                return r, k
    return None


def _pollard_pm1(n: int, bound: int = 100_000) -> int | None:
    a = 2
    for p in SMALL_PRIMES:
        if p > bound:
            break
        a = pow(a, p ** int(math.log(bound, p)), n)
        g = math.gcd(a - 1, n)
        if 1 < g < n:
            return g
    return None


def _brent_rho(n: int) -> int:
    """Find a nontrivial factor of an odd composite n (Brent's cycle method).

    The polynomial constant c is swept deterministically, so the factor found
    for a given n never varies between runs.
    """
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, m = 2, 128
        g = q = r = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g, y = 1, ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g
        c += 1


def factorize(n: int) -> dict[int, int]:
    """Full prime factorization of n >= 1 as an exponent map."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        if n == 1:
            return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        power = _perfect_power(m)
        if power is not None:
            root, k = power
            stack.extend([root] * k)
            continue
        d = _pollard_pm1(m) or _brent_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def smallest_prime_factor(n: int) -> int:
    """The least prime dividing n >= 2.

    Trial division meets the primes in ascending order, so its first hit is
    the answer; only when it finds none is n factored outright.
    """
    if n < 2:
        raise ValueError("smallest_prime_factor expects an integer >= 2")
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return p
    return min(factorize(n))


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime divisors of n."""
    return sorted(factorize(n)) if n > 1 else []


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def mobius(n: int) -> int:
    mu = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def is_prime_power(n: int) -> int | None:
    """Return the prime base if n = p**k for a prime p and k >= 1, else None."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) != 1:
        return None
    return next(iter(fac))


def crt_idempotent(q: int, m_rest: int) -> int:
    """The idempotent e with e = 0 (mod q) and e = 1 (mod m_rest), coprime parts.

    For m_rest == 1 this is 0, matching pow(q, -1, 1) == 0.
    """
    return q * pow(q, -1, m_rest) % (q * m_rest) if m_rest > 1 else 0


def _ell_split(M: int, ell: int) -> tuple[int, int]:
    """Split M = ell**t * M0 with ell not dividing M0; return (t, e).

    e is the CRT idempotent with e = 0 (mod ell**t) and e = 1 (mod M0):
    multiplying an exponent mod M by e keeps its M0-part and kills its
    ell-part, and the complementary idempotent 1 - e keeps the ell-part only.
    """
    t, M0 = 0, M
    while M0 % ell == 0:
        M0 //= ell
        t += 1
    return t, crt_idempotent(ell**t, M0)
