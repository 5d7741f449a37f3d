"""The library API contract: every call on integer inputs returns, or raises a DomainError.

Each function gets every pair of the boundary integers below, and the
certificate verifier gets forged certificates whose integers come from the
same values.  A verifier must answer with a bool, never raise.
"""

import importlib
import itertools

import pytest

from tametransfer import (
    cyclotomic_value,
    numth,
    verify_certificate,
    zsigmondy_exception,
    zsigmondy_prime,
)
from tametransfer.errors import DomainError
from tametransfer.regularize import ZsigmondyCertificate
from tametransfer.tower import MAX_LEVEL_BITS

BOUNDARY = (-7, -1, 0, 1, 2, 3, 6, 7, 12, 10**30, 2**1500 + 1)
PAIRS = list(itertools.product(BOUNDARY, repeat=2))


def outcome(function, *args):
    """The call's return value, or the DomainError it raised; any other exception fails the test."""
    try:
        return function(*args)
    except DomainError as exc:
        return exc


@pytest.fixture
def degree_keys(monkeypatch):
    """The degrees the cold memo of level-degree primes is asked for: each miss calls prime_factors."""
    importlib.import_module("tametransfer.regularize")._smallest_primitive_prime.cache_clear()
    numth._degree_primes.cache_clear()
    keys = []
    monkeypatch.setattr(numth, "prime_factors", lambda n, real=numth.prime_factors: keys.append(n) or real(n))
    yield keys
    assert numth._degree_primes.cache_info().currsize == len(set(keys))
    assert max(keys, default=0) <= MAX_LEVEL_BITS


def test_certify_functions_return_or_raise_a_domain_error(degree_keys):
    for b, r in PAIRS:
        hit = outcome(zsigmondy_prime, b, r)
        assert hit is None or isinstance(hit, (tuple, DomainError)), (b, r)
        value = outcome(cyclotomic_value, r, b)
        assert isinstance(value, (int, DomainError)), (r, b)
        assert isinstance(zsigmondy_exception(b, r), bool), (b, r)
    assert degree_keys  # the sweep reached the memo


def test_verify_certificate_answers_a_bool_on_forged_certificates(degree_keys):
    genuine = [hit[1] for b, r in PAIRS if isinstance(hit := outcome(zsigmondy_prime, b, r), tuple)]
    assert len(genuine) >= 10 and all(verify_certificate(cert) is True for cert in genuine)
    forged_checks = {None, (), ((2, 1),), ((2, 0), (3, 0))} | {cert.order_checks for cert in genuine}
    for (b, r), ell in itertools.product(PAIRS, BOUNDARY):
        for checks in forged_checks:
            cert = ZsigmondyCertificate(b=b, r=r, ell=ell, order_checks=checks)
            assert isinstance(verify_certificate(cert), bool), cert
