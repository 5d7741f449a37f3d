import math

import pytest

from tametransfer import (
    char,
    char_order,
    ell_regular_part,
    enumerate_orbits,
    field_level,
    is_norm_inflated,
    is_sigma_regular,
    norm_inflate,
    orbit_of,
    orbit_size,
    s_invariant,
    sigma_orbit_size,
)
from tametransfer.characters import CharExp, GaloisOrbit
from tametransfer.errors import LevelMismatch, NotPrime, OutOfRange

L23 = field_level(2, 3)   # M = 7
L32 = field_level(3, 2)   # M = 8
L52 = field_level(5, 2)   # M = 24


def test_orbit_enumeration():
    orb = orbit_of(char(L23, 1))
    assert orb.members == (1, 2, 4)
    assert orb.rep == 1
    assert orb.size == 3
    # an orbit is its members: the representative and the size are derived
    assert GaloisOrbit.__slots__ == ("level", "members")


def test_trivial_character_is_fixed():
    orb = orbit_of(char(L52, 0))
    assert orb.members == (0,)
    assert orb.size == 1


def test_orbit_mod_eight():
    orb = orbit_of(char(L32, 5))
    assert orb.members == (5, 7)
    assert orb.rep == 5


def test_exponent_range_enforced():
    with pytest.raises(OutOfRange):
        CharExp(L32, 8)
    assert char(L32, 8).a == 0


def test_a_large_exponent_out_of_range_is_capped_in_the_message():
    with pytest.raises(OutOfRange) as refused:
        CharExp(field_level(2, 1400), 2**1400)
    head = "27669029702758120146...(422 digits)"
    assert str(refused.value) == f"exponent {head} outside [0, {head})"


def test_char_order():
    assert char_order(char(L52, 9)) == 24 // math.gcd(9, 24)
    assert char_order(char(L52, 0)) == 1
    assert char_order(char(L52, 1)) == 24


def _brute_regular_part(M, a, ell):
    """Exhaustive search for the unique candidate in the regular-part contract."""
    hits = []
    for x in range(M):
        ord_x = M // math.gcd(x, M)
        ord_quot = M // math.gcd(a - x, M)
        while ord_quot % ell == 0:
            ord_quot //= ell
        if ord_x % ell != 0 and ord_quot == 1:
            hits.append(x)
    assert len(hits) == 1
    return hits[0]


def test_regular_part_worked_values():
    assert ell_regular_part(char(L52, 9), 2).a == 0
    assert ell_regular_part(char(L52, 8), 2).a == 8
    assert ell_regular_part(char(L52, 1), 3).a == 9


def test_regular_part_matches_exhaustive_search():
    for ell in (2, 3):
        for a in range(24):
            assert ell_regular_part(char(L52, a), ell).a == _brute_regular_part(24, a, ell)


def test_regular_part_requires_prime():
    with pytest.raises(NotPrime):
        ell_regular_part(char(L52, 1), 6)


def test_regular_part_at_prime_not_dividing_M():
    alpha = char(L23, 3)
    assert ell_regular_part(alpha, 5) == alpha


def test_norm_inflate_small():
    base = field_level(2, 2)  # M = 3
    chi = norm_inflate(char(base, 1), 3)
    assert chi.level.M == 63
    assert chi.a == 21
    assert orbit_of(char(base, 1)).size == 2
    assert orbit_of(chi).size == 2


def test_norm_inflate_identity():
    alpha = char(L32, 5)
    assert norm_inflate(alpha, 1) == alpha


def test_norm_inflate_arbitrary_precision():
    chi = norm_inflate(char(L32, 4), 7)
    big = 3**14 - 1
    assert chi.level.M == big
    assert chi.a == 4 * (big // 8)


def test_is_norm_inflated():
    top = field_level(3, 14)
    nu = is_norm_inflated(char(top, top.M // 2), L32)
    assert nu is not None and nu.a == 4
    assert is_norm_inflated(char(top, 0), L32).a == 0
    assert is_norm_inflated(char(field_level(2, 6), 1), field_level(2, 2)) is None


def test_is_norm_inflated_checks_levels():
    with pytest.raises(LevelMismatch):
        is_norm_inflated(char(field_level(2, 6), 0), field_level(2, 4))
    with pytest.raises(LevelMismatch):
        is_norm_inflated(char(field_level(2, 6), 0), field_level(3, 3))


def test_e_regularity():
    # e-regular: the Frobenius orbit is as large as the level degree
    assert orbit_size(char(L23, 1)) == L23.deg
    assert orbit_size(char(L23, 0)) != L23.deg
    # a generator exponent is always fully regular
    for lvl in (L23, L32, L52, field_level(2, 4)):
        assert orbit_size(char(lvl, 1 % lvl.M)) == lvl.deg


def test_sigma_regularity_and_degrees():
    # (f, u): the orbit sizes under the Frobenius and under its d'-th power
    for chi, d_prime, f, u in [
        (char(L32, 1), 2, 2, 1),
        (char(L23, 1), 1, 3, 3),
        (char(L23, 1), 3, 3, 1),
    ]:
        assert (orbit_size(chi), sigma_orbit_size(chi, d_prime)) == (f, u)
    assert is_sigma_regular(char(L32, 2), 2)


def test_s_invariant():
    lvl = field_level(2, 4)  # M = 15
    assert orbit_of(char(lvl, 5)).size == 2
    assert s_invariant(char(lvl, 5), 4) == 2
    assert s_invariant(char(lvl, 1), 4) == 1  # f = 4, a multiple of d'
    assert s_invariant(char(L23, 0), 3) == 3


def test_enumerate_orbits_partitions_all_exponents():
    orbits = enumerate_orbits(L52)
    seen = sorted(x for o in orbits for x in o.members)
    assert seen == list(range(24))
    assert [o.rep for o in orbits] == sorted(o.rep for o in orbits)
