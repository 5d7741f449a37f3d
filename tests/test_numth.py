"""The smallest prime factor: a trial-division hit, else the least prime of the factorization."""

import pytest

from tametransfer.numth import _TRIAL_PRIMES, factorize, smallest_prime_factor


def test_smallest_prime_factor_is_the_least_prime_of_factorize():
    top, big = _TRIAL_PRIMES[-1], 2**61 - 1
    for n in [*range(2, 500), top, top * top, 10781 * 10949, big, big * 10949, 3 * big]:
        assert smallest_prime_factor(n) == min(factorize(n)), n


def test_smallest_prime_factor_rejects_n_below_2():
    for n in (-6, 0, 1):
        with pytest.raises(ValueError):
            smallest_prime_factor(n)
