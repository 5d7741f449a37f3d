import copy
import math
import pickle
import time

import pytest

from tametransfer import FieldLevel, blow_up, derive_tower, field_level, level
from tametransfer.errors import (
    DegreeMismatch,
    DomainError,
    LevelGuardExceeded,
    NotPrime,
    NotPrimePower,
    OutOfRange,
    short_int,
)
from tametransfer.tower import MAX_LEVEL_BITS


def test_derive_quaternion_like_shape():
    t = derive_tower(3, 3, 2, 1, 1, 4)
    assert (t.g, t.Q, t.d_prime, t.m_prime, t.n_prime) == (2, 3, 2, 1, 2)


def test_derive_split_shape_keeps_m_and_d():
    t = derive_tower(3, 3, 1, 1, 2, 2)
    assert t.g == 1
    assert (t.d_prime, t.m_prime, t.n_prime) == (t.d, t.m, t.n)


def test_derive_degree_three_shape():
    t = derive_tower(2, 2, 3, 1, 1, 3)
    assert (t.g, t.Q, t.d_prime, t.m_prime, t.n_prime) == (3, 2, 1, 1, 1)


def test_derived_product_identity():
    for raw in [(3, 9, 2, 2, 2, 4), (5, 5, 1, 2, 3, 2), (2, 8, 1, 1, 4, 3)]:
        t = derive_tower(*raw)
        assert t.m_prime * t.d_prime == t.n_prime
        assert t.n == t.g * t.n_prime


@pytest.mark.parametrize(
    "raw, err",
    [
        ((4, 4, 1, 1, 1, 2), NotPrime),
        ((3, 6, 1, 1, 1, 2), NotPrimePower),
        ((3, 4, 1, 1, 1, 3), NotPrimePower),  # q a prime power, but of the wrong prime
        ((2, 2, 3, 1, 1, 2), DegreeMismatch),  # g = 3 does not divide n = 2
        ((2, 2, 0, 1, 1, 2), OutOfRange),
    ],
)
def test_derive_rejects_bad_shapes(raw, err):
    with pytest.raises(err):
        derive_tower(*raw)


def test_a_divisible_degree_leaves_m_prime_whole():
    # g | m*d implies g | m*gcd(d, g) prime by prime, so DegreeMismatch has one test
    for e_ef, f_ef, m, d in ((e, f, m, d) for e in range(1, 9) for f in range(1, 4)
                             for m in range(1, 13) for d in range(1, 13)):
        g = e_ef * f_ef
        if (m * d) % g:
            with pytest.raises(DegreeMismatch):
                derive_tower(2, 2, e_ef, f_ef, m, d)
        else:
            t = derive_tower(2, 2, e_ef, f_ef, m, d)
            assert t.m_prime * g == m * math.gcd(d, g)


def test_level_orders():
    assert level(derive_tower(2, 2, 1, 1, 3, 1), 3).M == 7
    assert level(derive_tower(3, 3, 1, 1, 2, 1), 2).M == 8
    assert level(derive_tower(2, 2, 1, 1, 2, 1), 14).M == 16383


def test_level_requires_positive_degree():
    with pytest.raises(OutOfRange):
        field_level(2, 0)


def test_blow_up_identity():
    t = derive_tower(3, 3, 2, 1, 1, 4)
    assert blow_up(t, 1) == t


def test_blow_up_scales_m_and_nprime():
    t = blow_up(derive_tower(3, 3, 2, 1, 1, 4), 7)
    assert (t.m, t.n_prime) == (7, 14)
    t2 = blow_up(derive_tower(3, 3, 1, 1, 2, 2), 3)
    assert (t2.m, t2.n_prime) == (6, 12)


def test_blow_up_invariants():
    base = derive_tower(5, 5, 2, 1, 2, 2)
    for a in range(1, 10):
        blown = blow_up(base, a)
        assert blown.Q == base.Q
        assert blown.d_prime == base.d_prime
        assert blown.n_prime == a * base.n_prime
        assert blown.m_prime == a * base.m_prime


def test_level_bound_is_the_bits_of_M():
    # the one guard is the bits of M, whatever the degree
    assert MAX_LEVEL_BITS == 1500
    assert field_level(2, 1500).M.bit_length() == 1500
    assert field_level(3, 946).M.bit_length() == 1500
    with pytest.raises(LevelGuardExceeded, match=r"level Q=2, deg=1501: M = Q\*\*deg - 1 has more than 1500 bits"):
        field_level(2, 1501)
    with pytest.raises(LevelGuardExceeded, match="Q=3, deg=947"):
        field_level(3, 947)
    # a degree far over the bound is refused before Q**deg is computed
    start = time.perf_counter()
    with pytest.raises(LevelGuardExceeded, match="deg=1000000000000"):
        field_level(2, 10**12)
    with pytest.raises(LevelGuardExceeded):
        field_level(2**3001 + 1906, 1)
    assert time.perf_counter() - start < 0.1


def test_short_int_caps_an_integer_past_60_digits():
    assert short_int(10**59) == "1" + "0" * 59   # 60 digits: written out
    assert short_int(10**60) == "10000000000000000000...(61 digits)"
    assert short_int(-(10**60)) == "-1000000000000000000...(61 digits)"
    with pytest.raises(OutOfRange) as refused:
        field_level(2, -(10**60))
    assert str(refused.value) == "deg_over_e must be at least 1, got -1000000000000000000...(61 digits)"


def test_field_level_shares_one_level_per_Q_and_deg():
    assert field_level(3, 2) is field_level(3, 2)
    params = derive_tower(3, 3, 2, 1, 1, 4)
    assert level(params, 2) is field_level(3, 2)
    assert copy.copy(field_level(3, 2)) == field_level(3, 2)
    assert copy.deepcopy(field_level(5, 7)) == field_level(5, 7)
    assert pickle.loads(pickle.dumps(field_level(2, 1500))) == field_level(2, 1500)


def test_a_refused_level_is_not_cached():
    field_level.cache_clear()  # so that currsize is below maxsize and would grow
    field_level(3, 946)
    size = field_level.cache_info().currsize
    for Q, deg in ((3, 947), (2, 10**12), (1, 5), (2, 0)):
        with pytest.raises(DomainError):
            field_level(Q, deg)
    assert field_level.cache_info().currsize == size
    # a warm cache does not delay the guard: the degree alone refuses it
    start = time.perf_counter()
    with pytest.raises(LevelGuardExceeded, match="deg=1000000000000"):
        field_level(2, 10**12)
    assert time.perf_counter() - start < 0.1


def test_a_level_built_directly_is_checked():
    assert FieldLevel(3, 2, 8) == field_level(3, 2)
    start = time.perf_counter()
    # M = 9 is not 3**2 - 1: orbit_of on such a level would never return
    with pytest.raises(OutOfRange, match="M=9 is not Q\\*\\*deg - 1"):
        FieldLevel(3, 2, 9)
    # the guard comes first: Q**deg is never computed for this one
    with pytest.raises(LevelGuardExceeded):
        FieldLevel(2, 10**12, 0)
    for Q, deg, M in ((1, 1, 0), (2, 0, 0), (2, 3, 8), (9, 1, 7)):
        with pytest.raises(OutOfRange):
            FieldLevel(Q, deg, M)
    assert time.perf_counter() - start < 1.0
