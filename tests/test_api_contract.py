"""The library API contract: every call on integer inputs returns, or raises a DomainError.

A function of two integers gets every pair of the boundary integers below; a
function of more gets each integer swept over them with the others valid.  The
records it takes besides are valid ones.  The two verifiers get forged
certificates and link-chain steps whose integers come from the same values, and
must answer with a bool, never raise.
"""

import importlib
import itertools

import pytest

from tametransfer import (
    CharExp,
    CyclotomicSum,
    FieldLevel,
    LinkChain,
    SemiSimpleEndoClass,
    TamePairClass,
    TowerParams,
    blow_up,
    build_link_chain,
    char,
    cyclotomic_sum,
    cyclotomic_value,
    derive_tower,
    element_degree,
    ell_linked,
    ell_regular_part,
    field_level,
    green_trace,
    is_sigma_regular,
    level,
    norm_inflate,
    numth,
    orbit_of,
    s_invariant,
    semisimple_endoclass,
    sigma_orbit_size,
    tame_pair,
    verify_certificate,
    verify_link_chain,
    zsigmondy_exception,
    zsigmondy_prime,
)
from tametransfer.errors import DomainError
from tametransfer.linking import LinkStep
from tametransfer.regularize import ZsigmondyCertificate
from tametransfer.tower import MAX_LEVEL_BITS

BOUNDARY = (-7, -1, 0, 1, 2, 3, 6, 7, 12, 10**30, 2**1500 + 1)
PAIRS = list(itertools.product(BOUNDARY, repeat=2))
PARAMS = derive_tower(3, 3, 2, 1, 1, 4)  # Q = 3, n' = 2
# at degree 6, which is among the boundary values: a regular character over Q = 3 (the orbit of 1 mod 728)
# and one of orbit size 3 over Q = 2 (9, 18, 36 mod 63)
ALPHAS = (char(field_level(3, 6), 1), char(field_level(2, 6), 9))


def outcome(function, *args):
    """The call's return value, or the DomainError it raised; any other exception fails the test."""
    try:
        return function(*args)
    except DomainError as exc:
        return exc


def check(kind, function, *args):
    """The call returns a ``kind`` or raises a DomainError."""
    assert isinstance(outcome(function, *args), (kind, DomainError)), (function.__name__, args)


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


def test_level_and_tower_functions_return_or_raise_a_domain_error():
    for Q, deg in PAIRS:
        check(FieldLevel, field_level, Q, deg)
        check(FieldLevel, FieldLevel, Q, deg)
    shape = PARAMS.as_tuple()
    for i, value in itertools.product(range(len(shape)), BOUNDARY):
        check(TowerParams, derive_tower, *shape[:i], value, *shape[i + 1 :])
    for value in BOUNDARY:
        check(FieldLevel, level, PARAMS, value)
        check(TowerParams, blow_up, PARAMS, value)


def test_character_functions_return_or_raise_a_domain_error(degree_keys):
    for alpha, value in itertools.product(ALPHAS, BOUNDARY):
        check(CharExp, char, alpha.level, value)
        check(CharExp, CharExp, alpha.level, value)
        check(CharExp, norm_inflate, alpha, value)
        check(CharExp, ell_regular_part, alpha, value)
        check(int, element_degree, value, alpha.level)
        check(int, sigma_orbit_size, alpha, value)
        check(bool, is_sigma_regular, alpha, value)
        check(int, s_invariant, alpha, value)
    assert degree_keys  # the sweep reached the memo


def test_trace_and_pair_functions_return_or_raise_a_domain_error():
    for alpha, (g_exp, u) in itertools.product(ALPHAS, PAIRS):
        check(CyclotomicSum, green_trace, alpha, g_exp, u)
    for f, beta_exp in PAIRS:
        check(TamePairClass, tame_pair, PARAMS, f, beta_exp)
    for value in BOUNDARY:
        for modulus, e, c in ((value, 3, 1), (7, value, 1), (7, 3, value)):
            check(CyclotomicSum, cyclotomic_sum, modulus, [(e, c)])
        for g_i, m_i, d in ((value, 3, 4), (2, value, 4), (2, 3, value)):
            check(SemiSimpleEndoClass, semisimple_endoclass, [("theta", g_i, m_i, d)])


def test_ell_linked_and_verify_link_chain_on_forged_steps():
    lvl = field_level(3, 4)  # M = 80 = 2**4 * 5
    chain = build_link_chain(char(lvl, 1), char(lvl, 22))
    assert verify_link_chain(chain) is True and chain.primes == (2, 5)
    for ell in BOUNDARY:
        check(bool, ell_linked, orbit_of(chain.source), orbit_of(chain.target), ell)
        for i, step in enumerate(chain.steps):
            steps = (*chain.steps[:i], LinkStep(ell, step.before, step.after), *chain.steps[i + 1 :])
            assert isinstance(verify_link_chain(LinkChain(chain.source, chain.target, steps)), bool), (i, ell)
