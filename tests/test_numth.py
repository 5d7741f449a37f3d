"""The factoring engine: factorize and the least-prime search, each a trial
division, then perfect powers and ECM under one budget."""

import math
import random
from bisect import bisect_right

import pytest

from tametransfer import numth
from tametransfer.errors import FactorizationBudgetExceeded
from tametransfer.numth import (
    _integer_root,
    _least_prime_factor,
    _perfect_power,
    factorize,
    is_prime,
    is_prime_power,
)
from tametransfer.tower import MAX_LEVEL_BITS


def trial_top(m):
    """The last candidate 1 + k*m that _least_prime_factor's trial phase divides by."""
    return 1 + m * numth._TRIAL_BLOCK * numth._TRIAL_BLOCKS


def primes_1_mod(m, above, count):
    out, k = [], above // m + 1
    while len(out) < count:
        if is_prime(1 + k * m):
            out.append(1 + k * m)
        k += 1
    return out


@pytest.mark.parametrize("m", [2, 4, 14, 58, 134])
def test_least_prime_factor_is_the_least_prime_of_factorize(m):
    small = primes_1_mod(m, 0, 4)
    middle = primes_1_mod(m, 10**5, 2)
    large = primes_1_mod(m, trial_top(m), 2)
    cases = [*small, *middle, *large, small[0] * small[1], small[2] ** 3, small[3] * large[0],
             middle[0] * middle[1], middle[1] * large[0] * large[1], large[0] * large[1], large[1] ** 2]
    for n in cases:
        assert _least_prime_factor(n, m) == min(factorize(n)), (m, n)


def test_prime_past_the_square_root_needs_no_primality_test(monkeypatch):
    def no_test(n):
        pytest.fail(f"is_prime({n}) ran although a candidate passed the square root")

    monkeypatch.setattr(numth, "is_prime", no_test)
    # 1 + 58k primes whose square roots lie within the first trial block
    for n in (59, 100_109, 10_000_303):
        assert (n - 1) % 58 == 0 and n < (1 + 58 * numth._TRIAL_BLOCK) ** 2
        assert _least_prime_factor(n, 58) == n
    assert _least_prime_factor(59 * 100_109, 58) == 59


def test_prime_above_the_first_block_is_settled_by_one_primality_test(monkeypatch):
    calls = []
    monkeypatch.setattr(numth, "is_prime", lambda n: calls.append(n) or is_prime(n))
    big = primes_1_mod(58, 2**80, 1)[0]
    assert _least_prime_factor(big, 58) == big
    assert calls == [big]


# Semiprimes of primes 1 mod 58 above the trial range.  Each is split by a
# fixed curve; for the second, that curve finds the larger prime first.
ECM_SPLITS = [
    (268437457 * 68719477061, 268437457),
    (1073742053 * 17179870919, 17179870919),
    (4294967513 * 281474976710953, 4294967513),
]


@pytest.mark.parametrize("n, factor", ECM_SPLITS)
def test_ecm_splits_fixed_semiprimes_the_same_way_every_run(monkeypatch, n, factor):
    found, curve = [], numth._ecm_curve
    monkeypatch.setattr(numth, "_ecm_curve", lambda m, sigma: found.append(curve(m, sigma)) or found[-1])
    for _ in range(2):
        found.clear()
        assert factorize(n) == {factor: 1, n // factor: 1}
        # the last curve run is the first that splits n, and the factor it finds is the one pinned
        assert found[-1] == factor and all(g in (1, n) for g in found[:-1])
    assert _least_prime_factor(n, 58) == min(factor, n // factor)


def test_split_stage_takes_the_least_prime_of_every_part():
    p, q, s = 16777777, 268437457, 4294967513
    assert _least_prime_factor(p * q * s, 58) == p


def count_curves(monkeypatch):
    """Spy on numth._ecm_curve; the returned list grows by one (n, sigma) per curve run."""
    calls, curve = [], numth._ecm_curve
    monkeypatch.setattr(numth, "_ecm_curve", lambda n, sigma: calls.append((n, sigma)) or curve(n, sigma))
    return calls


def test_search_stops_at_its_work_budget(monkeypatch):
    n = 268437457 * 68719477061  # needs three curves
    curves = count_curves(monkeypatch)
    assert _least_prime_factor(n, 58) == 268437457
    assert curves == [(n, 6), (n, 7), (n, 8)]
    monkeypatch.setattr(numth, "MAX_ECM_CURVES", 2)
    with pytest.raises(FactorizationBudgetExceeded) as caught:
        _least_prime_factor(n, 58)
    assert str(caught.value) == f"2 ECM curves spent in the ecm stage with a {n.bit_length()}-bit cofactor unsplit"


def test_search_and_factorize_each_run_at_most_max_ecm_curves(monkeypatch):
    n = 268437457 * 68719477061  # needs three curves
    monkeypatch.setattr(numth, "MAX_ECM_CURVES", 2)
    for run in (lambda: _least_prime_factor(n, 58), lambda: factorize(n)):
        curves = count_curves(monkeypatch)
        with pytest.raises(FactorizationBudgetExceeded, match="^2 ECM curves spent in the ecm stage"):
            run()
        assert curves == [(n, 6), (n, 7)]


def test_all_parts_share_one_count_and_each_starts_at_sigma_6(monkeypatch):
    p, q, s = 16777777, 268437457, 4294967513
    n = p * q * s
    curves = count_curves(monkeypatch)
    # sigma = 6 takes p off the 85-bit n; the 61-bit q * s then needs sigma = 6, 7, 8 and 9
    monkeypatch.setattr(numth, "MAX_ECM_CURVES", 4)
    with pytest.raises(FactorizationBudgetExceeded) as caught:
        factorize(n)
    assert str(caught.value) == "4 ECM curves spent in the split stage with a 61-bit cofactor unsplit"
    assert curves == [(n, 6), (q * s, 6), (q * s, 7), (q * s, 8)]
    monkeypatch.setattr(numth, "MAX_ECM_CURVES", 5)
    curves.clear()
    assert factorize(n) == {p: 1, q: 1, s: 1}
    assert curves == [(n, 6), (q * s, 6), (q * s, 7), (q * s, 8), (q * s, 9)]


def test_a_budget_exit_names_the_smaller_part_of_a_split_first(monkeypatch):
    a, b, c, e = 15331397, 15445873, 242609123, 2422566031
    n = a * b * c * e
    curves = count_curves(monkeypatch)
    # sigma = 6 splits the 107-bit n into the 48-bit a * b and the 60-bit c * e; each then needs sigma = 6, 7 and 8
    monkeypatch.setattr(numth, "MAX_ECM_CURVES", 2)
    with pytest.raises(FactorizationBudgetExceeded) as caught:
        factorize(n)
    assert str(caught.value) == "2 ECM curves spent in the split stage with a 48-bit cofactor unsplit"
    assert curves == [(n, 6), (a * b, 6)]
    monkeypatch.setattr(numth, "MAX_ECM_CURVES", 7)
    curves.clear()
    assert factorize(n) == {a: 1, b: 1, c: 1, e: 1}
    assert curves == [(n, 6), *((a * b, s) for s in (6, 7, 8)), *((c * e, s) for s in (6, 7, 8))]


def brute_least_candidate_divisor(n, m, hi):
    return next((c for c in range(2, hi) if c % m == 1 % m and n % c == 0), None)


def test_least_candidate_divisor_is_the_first_candidate_that_divides(monkeypatch):
    # segments of 7 candidates, so that most ranges cross several segment boundaries
    monkeypatch.setattr(numth, "_SEGMENT", 7)
    rng = random.Random(36)
    for _ in range(300):
        m = rng.choice((1, 2, 4, 6, 10, 12, 30, 58))
        low = rng.choice((2, rng.randrange(2, 300)))
        # n's primes are 1 mod m, as the search assumes; small ones come often
        above = [p for p in range(low, 3000) if p % m == 1 % m and is_prime(p)][:30]
        n = math.prod(rng.choice(above) for _ in range(rng.randrange(1, 4)))
        hi = rng.randrange(2, 2000)
        want = brute_least_candidate_divisor(n, m, hi)
        assert numth._least_candidate_divisor(n, m, hi) == want, (n, m, hi)


def test_least_candidate_divisor_keeps_each_sieving_prime_that_is_a_candidate():
    # 7 and 13 are 1 mod 6 and below the square root of hi: they strike 49, 91, ... but not themselves
    for n in (7, 7 * 13, 13 * 13, 13 * 19):
        assert numth._least_candidate_divisor(n, 6, 200) == min(p for p in (7, 13, 19) if n % p == 0)
    assert numth._least_candidate_divisor(7 * 13, 6, 7) is None  # hi is outside the range


def count_searches(monkeypatch):
    """Spy on numth._least_candidate_divisor; the returned list grows by what each search returns."""
    found, search = [], numth._least_candidate_divisor
    monkeypatch.setattr(numth, "_least_candidate_divisor", lambda *args: found.append(search(*args)) or found[-1])
    return found


def test_search_below_the_least_prime_known_finds_the_least_prime(monkeypatch):
    searched = count_searches(monkeypatch)
    rng = random.Random(36)
    for _ in range(20):
        ps = sorted(primes_1_mod(58, rng.randrange(trial_top(58), 2 ** rng.randrange(21, 34)), 1)[0] for _ in range(3))
        assert _least_prime_factor(math.prod(ps), 58) == ps[0], ps
    # the least prime was often left in a composite part after the first split, where only the search finds it
    assert sum(c is not None for c in searched) >= 10


def test_a_part_over_the_search_cap_is_split(monkeypatch):
    # (34, 29): sigma = 6 splits off 21333097; the 119-bit part left is searched over the
    # (21333097 - 1) / 58 = 367812 steps of 58 below that prime, or, over the cap, split by ECM
    n, (ell, _) = primitive_part(34, 29), SEARCH_CURVES[34, 29]
    searched = count_searches(monkeypatch)
    curves = count_curves(monkeypatch)
    monkeypatch.setattr(numth, "_SEARCH_CAP", 367812)
    assert _least_prime_factor(n, 58) == ell
    assert (len(curves), searched) == (1, [None])
    monkeypatch.setattr(numth, "_SEARCH_CAP", 367811)
    curves.clear()
    searched.clear()
    assert _least_prime_factor(n, 58) == ell
    assert (len(curves), searched) == (8, [])


def test_integer_root_is_the_exact_floor():
    for n in [0, 1, 2, 7, 8, 9, 10**40, 3**200 - 1, 3**200, 3**200 + 1]:
        for k in (1, 2, 3, 5, 7):
            r = _integer_root(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)


def test_perfect_power_of_a_huge_prime():
    mersenne = 2**521 - 1
    assert _perfect_power(mersenne**2) == (mersenne, 2)
    assert _perfect_power(mersenne**3) == (mersenne, 3)
    assert _perfect_power(mersenne**2 + 2) is None
    assert factorize(mersenne**2) == {mersenne: 2}


def test_perfect_power_tries_every_prime_up_to_a_thirteenth_of_the_bits():
    # 8209 is the least prime above 2**13, so 8209**k has 13k to 13k + 12 bits and k is the last
    # exponent tried; a number next to it that is no power ends in the final None
    for k in (2, 3, 5, 7):
        assert (8209**k).bit_length() // 13 == k
        assert _perfect_power(8209**k) == (8209, k)
        assert _perfect_power(8209**k + 2) is None
    assert _perfect_power(8209) is None


# criterion 1's box b**r - 1 for b <= 30, r <= 24: the numbers that keep two
# or three primes above 10**5, then a seeded sample of the rest
CRITERION_1_HARD = [(20, 19), (20, 22), (21, 19), (23, 22), (23, 23), (26, 23), (29, 23)]
CRITERION_1_SAMPLE = CRITERION_1_HARD + random.Random(13).sample(
    sorted({(b, r) for b in range(2, 31) for r in range(2, 25)} - set(CRITERION_1_HARD)), 33
)


def test_factorize_agrees_with_sympy_and_splits_each_composite_once(monkeypatch):
    from sympy import factorint, nextprime

    def two_primes_above(k):
        p = nextprime(2**k)
        return p, nextprime(p)

    q, q2 = nextprime(10**5), nextprime(nextprime(10**5))
    p, s = nextprime(2**20), nextprime(2**32)
    cases = [b**r - 1 for b, r in CRITERION_1_SAMPLE]
    cases += [math.prod(two_primes_above(k)) for k in (14, 17, 20, 32)]
    cases += [q**2, q**3 * s, (p * q) ** 2, (q * q2) ** 2]
    curves = count_curves(monkeypatch)
    for n in cases:
        curves.clear()
        assert factorize(n) == factorint(n), n
        split = [m for m, sigma in curves if sigma == 6]  # the parts ECM ran on: each starts at sigma = 6
        assert len(split) == len(set(split)) and not any(map(is_prime, split)), n
    curves.clear()
    factorize((p * q) ** 2)
    assert [m for m, sigma in curves if sigma == 6] == [p * q] and {m for m, _ in curves} == {p * q}


def prime_power_base(factors):
    """The reference answer from a known factorization {prime: exponent}."""
    return next(iter(factors)) if len(factors) == 1 else None


def small_factorization(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def multiply(factors):
    n = 1
    for p, k in factors.items():
        n *= p**k
    return n


def test_degree_primes_are_the_sorted_primes_of_every_level_degree():
    # one memo serves orbit_size and the primitive prime search; the certificate recheck factors r itself
    for n in range(1, MAX_LEVEL_BITS + 1):
        primes = numth._degree_primes(n)
        assert type(primes) is tuple and primes == tuple(sorted(small_factorization(n))), n


def test_is_prime_power_below_5000():
    assert is_prime_power(0) is None and is_prime_power(1) is None
    for n in range(2, 5000):
        assert is_prime_power(n) == prime_power_base(small_factorization(n)), n


# 10663 follows 10657, the 1300th prime; 1000003 and 2**61 - 1 lie above the
# trial primes of is_prime_power, which end below 10**5
BIG_PRIMES = [10663, 1000003, 2**61 - 1]


def test_is_prime_power_on_large_primes_and_composites():
    cases = []
    for p in BIG_PRIMES:
        cases += [{p: k} for k in range(1, 8)]
        cases += [{2: 1, p: 1}, {p: 2, 3: 1}, {2: 3, p: 3}]
        for q in BIG_PRIMES:
            if q != p:
                cases += [{p: 1, q: 1}, {p: 2, q: 2}, {p: 3, q: 1}, {p: 5, q: 5}]
    cases += [{2: k, 3: k} for k in range(1, 6)] + [{2: 64}, {3: 40}, {10657: 4}]
    for factors in cases:
        n = multiply(factors)
        assert is_prime_power(n) == prime_power_base(factors), factors


def test_sieve_matches_an_independent_prime_list(monkeypatch):
    from sympy import primerange

    # the import sieve's 49,999 entries fit in one segment; segments of 7 and 8 cross a boundary every 7 or 8
    # entries (with 7 alone, a segment that started one entry early would repeat only multiples of 3)
    for segment in (numth._SEGMENT, 7, 8):
        monkeypatch.setattr(numth, "_SEGMENT", segment)
        for limit in range(401):
            assert numth._sieve(limit) == list(primerange(2, limit + 1)), (segment, limit)
        assert numth._sieve(10**5) == list(primerange(2, 10**5 + 1)) == numth.SMALL_PRIMES, segment


# The projective ECM curve, the reference every curve's gcd must equal: a
# ladder from (X : Z) with 11 products a bit, and a stage 2 that multiplies
# (X_r - X_s)(Z_r + Z_s) - X_r Z_r + X_s Z_s, two products a prime.
def ref_xdbl(X, Z, a24, n):
    s, d = (X + Z) ** 2 % n, (X - Z) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def ref_xadd(XP, ZP, XQ, ZQ, Xd, Zd, n):
    u = (XP - ZP) * (XQ + ZQ) % n
    v = (XP + ZP) * (XQ - ZQ) % n
    return Zd * (u + v) ** 2 % n, Xd * (u - v) ** 2 % n


def ref_ladder(X, Z, k, a24, n):
    X0, Z0 = X, Z
    X1, Z1 = ref_xdbl(X, Z, a24, n)
    for bit in bin(k)[3:]:
        if bit == "1":
            X0, Z0 = ref_xadd(X1, Z1, X0, Z0, X, Z, n)
            X1, Z1 = ref_xdbl(X1, Z1, a24, n)
        else:
            X1, Z1 = ref_xadd(X0, Z0, X1, Z1, X, Z, n)
            X0, Z0 = ref_xdbl(X0, Z0, a24, n)
    return X0, Z0


def ref_suyama(n, sigma):
    """The base point (X : Z) and a24 of Suyama's curve for sigma, or None when
    16 X v is not a unit."""
    u, v = (sigma * sigma - 5) % n, 4 * sigma % n
    X, Z = pow(u, 3, n), pow(v, 3, n)
    den = 16 * X * v % n
    if math.gcd(den, n) != 1:
        return None
    return X, Z, pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n


def ref_ecm_curve(n, sigma, k):
    u, v = (sigma * sigma - 5) % n, 4 * sigma % n
    X, Z = pow(u, 3, n), pow(v, 3, n)
    den = 16 * X * v % n
    g = math.gcd(den, n)
    if g != 1:
        return g
    a24 = pow(v - u, 3, n) * (3 * u + v) * pow(den, -1, n) % n
    X, Z = ref_ladder(X, Z, k, a24, n)
    g = math.gcd(Z, n)
    if g != 1:
        return g
    D = numth._ECM_D
    S = [(0, 0), ref_xdbl(X, Z, a24, n)]
    S.append(ref_xdbl(*S[1], a24, n))
    for d in range(3, D + 1):
        S.append(ref_xadd(*S[d - 1], *S[1], *S[d - 2], n))
    beta = [XS * ZS % n for XS, ZS in S]
    primes = numth.SMALL_PRIMES
    r = numth._ECM_B1 - 1
    T, R = ref_ladder(X, Z, r - 2 * D, a24, n), ref_ladder(X, Z, r, a24, n)
    i, end = bisect_right(primes, r), bisect_right(primes, 100_000)  # B2
    g = 1
    while i < end:
        XR, ZR = R
        alpha = XR * ZR % n
        top = r + 2 * D
        while i < end and primes[i] <= top:
            delta = (primes[i] - r) // 2
            XS, ZS = S[delta]
            g = g * ((XR - XS) * (ZR + ZS) - alpha + beta[delta]) % n
            i += 1
        R, T = ref_xadd(*R, *S[D], *T, n), R
        r = top
    return math.gcd(g, n)


def primitive_part(b, r):
    """b**r - 1 over b - 1 with the copies of r removed, for a prime r."""
    n = (b**r - 1) // (b - 1)
    while n % r == 0:
        n //= r
    return n


# (b, r): the least prime of the primitive part of b**r - 1, and the curves
# _least_prime_factor runs to find it
SEARCH_CURVES = {
    (18, 29): (1505548068007783, 27), (20, 19): (75368484119, 12), (34, 29): (21333097, 1), (39, 29): (313396331, 3),
}


def seeded_cofactors(seed, count):
    """Products of two or three primes 1 mod 58 above the trial range."""
    rng, out = random.Random(seed), []
    for _ in range(count):
        n = 1
        for _ in range(rng.choice((2, 3))):
            n *= primes_1_mod(58, rng.randrange(trial_top(58), 2 ** rng.randrange(21, 46)), 1)[0]
        out.append(n)
    return out


def test_every_curve_finds_the_gcd_of_the_projective_curve(monkeypatch):
    unaffine, affine_x = [], numth._affine_x

    def spy(points, n):
        xs = affine_x(points, n)
        if xs is None:
            unaffine.append(n)
        return xs

    monkeypatch.setattr(numth, "_affine_x", spy)
    k = numth._ecm_multiplier()
    cases = [n for n, _ in ECM_SPLITS] + [primitive_part(b, r) for b, r in SEARCH_CURVES] + seeded_cofactors(12, 4)
    for n in cases:
        for sigma in range(6, 14):
            assert numth._ecm_curve(n, sigma) == ref_ecm_curve(n, sigma, k), (n, sigma)
    # a giant or baby step at O modulo one prime: stage 2 multiplies projective terms
    assert 1073742053 * 17179870919 in unaffine
    unaffine.clear()
    assert numth._ecm_curve(1073742053 * 17179870919, 8) == 1073742053 * 17179870919
    assert unaffine == [1073742053 * 17179870919]


def test_a_curve_that_shares_a_prime_at_set_up_returns_it():
    # sigma = 7 gives v = 4 * sigma = 28, which shares the 7 of n: the set-up gcd returns it, where
    # the inversion that follows it would raise ValueError instead
    assert numth._ecm_curve(7 * 1000003, 7) == 7


def test_ladder_from_the_normalized_base_is_the_projective_ladder_up_to_scale():
    p, q = 1009, 1000003
    n = p * q
    X, Z, a24 = ref_suyama(n, 6)
    x = X * pow(Z, -1, n) % n
    orders = [k for k in range(1, 2 * p) if ref_ladder(X, Z, k, a24, n)[1] % p == 0]
    assert orders, "the point has an order below 2p modulo p"
    for k in [1, 2, 3, 4, 5, 17, 255, 256, orders[0], 3 * orders[0], numth._ecm_multiplier()]:
        Xk, Zk = numth._ladder(x, k, a24, n)
        Xr, Zr = ref_ladder(X, Z, k, a24, n)
        assert (Xk * Zr - Xr * Zk) % n == 0, k
        assert math.gcd(Zk, n) == math.gcd(Zr, n), k
    assert math.gcd(numth._ladder(x, orders[0], a24, n)[1], n) == p


def test_affine_x_inverts_every_z_or_reports_a_non_unit():
    n = 1009 * 1000003
    points = [(3, 5), (7, 11), (n - 1, 2), (123456, 654321)]
    assert numth._affine_x(points, n) == [X * pow(Z, -1, n) % n for X, Z in points]
    assert numth._affine_x([*points, (1, 1009 * 4)], n) is None


def test_stage_one_multiplier_is_the_lcm_up_to_b1():
    assert numth._ecm_multiplier() == math.lcm(*range(1, numth._ECM_B1 + 1))


@pytest.mark.parametrize("b, r", SEARCH_CURVES)
def test_search_runs_the_same_curves(monkeypatch, b, r):
    n, (ell, curve_count) = primitive_part(b, r), SEARCH_CURVES[b, r]
    curves = count_curves(monkeypatch)
    assert _least_prime_factor(n, 2 * r) == ell
    assert len(curves) == curve_count
    assert n % ell == 0 and is_prime(ell) and ell % (2 * r) == 1


# OEIS A014233, written out here so that a slip in numth's copy shows
A014233 = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321, 341550071728321,
    3825123056546413051, 3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)


def strong_probable_prime(n, a):
    """The strong test of odd n > a to base a, written out from its definition."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s))


def test_a_strong_pseudoprime_to_the_twelve_bases_is_composite():
    # psi_12 passes the strong test to the twelve bases 2..37
    assert is_prime(A014233[11]) is False
    assert factorize(A014233[11]) == {399165290221: 1, 798330580441: 1}


def test_each_psi_is_the_first_composite_its_prefix_cannot_refute():
    from sympy import isprime

    assert numth._MR_PSI == A014233
    assert list(numth._MR_BASES) == [p for p in range(42) if isprime(p)]
    for k, psi in enumerate(A014233, 1):
        assert psi % 2 == 1 and not isprime(psi), k
        assert all(strong_probable_prime(psi, a) for a in numth._MR_BASES[:k]), k
        if k < 13:  # a repeated psi passes one base more: psi_7 = psi_8 and psi_9 = psi_10 = psi_11
            passes = all(strong_probable_prime(psi, a) for a in numth._MR_BASES[: k + 1])
            assert passes == (psi == A014233[k]), k


def test_is_prime_agrees_with_sympy():
    from sympy import isprime

    assert [n for n in range(-2, 200_000) if is_prime(n)] == [n for n in range(-2, 200_000) if isprime(n)]
    for k, psi in enumerate(A014233, 1):
        for n in (psi - 2, psi, psi + 2):
            # psi_13 is the first number that the thirteen bases cannot refute
            assert is_prime(n) == (isprime(n) or n == A014233[-1]), (k, n)
    rng = random.Random(31)
    for bits in range(17, 201):
        for n in [rng.getrandbits(bits) | 1 << bits - 1 | 1 for _ in range(30)]:
            assert is_prime(n) == isprime(n), n
