"""The least-prime search: trial division over 1 mod m, then ECM, under one budget."""

import pytest

from tametransfer import numth
from tametransfer.errors import FactorizationBudgetExceeded
from tametransfer.numth import (
    _ecm_factor,
    _integer_root,
    _least_prime_factor,
    _perfect_power,
    _WorkBudget,
    factorize,
    is_prime,
    is_prime_power,
)


def primes_1_mod(m, above, count):
    out, k = [], above // m + 1
    while len(out) < count:
        if is_prime(1 + k * m):
            out.append(1 + k * m)
        k += 1
    return out


@pytest.mark.parametrize("m", [2, 4, 14, 58, 134])
def test_least_prime_factor_is_the_least_prime_of_factorize(m):
    trial_top = 1 + m * numth._TRIAL_BLOCK * numth._TRIAL_BLOCKS
    small = primes_1_mod(m, 0, 4)
    middle = primes_1_mod(m, 10**5, 2)
    large = primes_1_mod(m, trial_top, 2)
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
def test_ecm_splits_fixed_semiprimes_the_same_way_every_run(n, factor):
    assert _ecm_factor(n, _WorkBudget(), "ecm") == factor
    assert _ecm_factor(n, _WorkBudget(), "ecm") == factor
    assert _least_prime_factor(n, 58) == min(factor, n // factor)


def test_split_stage_takes_the_least_prime_of_every_part():
    p, q, s = 16777777, 268437457, 4294967513
    assert _least_prime_factor(p * q * s, 58) == p


def test_search_stops_at_its_work_budget(monkeypatch):
    n = 268437457 * 68719477061  # needs three curves
    monkeypatch.setattr(numth, "SEARCH_WORK_BUDGET", numth._TRIAL_BLOCK * numth._TRIAL_BLOCKS + 2 * numth._CURVE_COST)
    with pytest.raises(FactorizationBudgetExceeded, match=f"ecm stage with a {n.bit_length()}-bit cofactor"):
        _least_prime_factor(n, 58)
    monkeypatch.setattr(numth, "SEARCH_WORK_BUDGET", 10 * numth._TRIAL_BLOCK)
    with pytest.raises(FactorizationBudgetExceeded, match="trial stage"):
        _least_prime_factor(n, 58)


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


def test_is_prime_power_below_5000():
    assert is_prime_power(0) is None and is_prime_power(1) is None
    for n in range(2, 5000):
        assert is_prime_power(n) == prime_power_base(small_factorization(n)), n


# 10663 is the least prime above the trial primes; the others are far above
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


def test_sieve_matches_an_independent_prime_list():
    from sympy import primerange

    for limit in range(401):
        assert numth._sieve(limit) == list(primerange(2, limit + 1)), limit
    assert numth._sieve(10**5) == list(primerange(2, 10**5 + 1)) == numth.SMALL_PRIMES
    assert numth._TRIAL_PRIMES == numth.SMALL_PRIMES[:1300]
    assert numth._TRIAL_PRIMES[-1] == 10657
