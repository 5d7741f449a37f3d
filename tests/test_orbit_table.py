"""The necklace walk of a level against independent per-exponent routes.

``enumerate_orbits`` and ``linked_partition`` list the orbits from the
representatives alone, found as necklaces by the Fredricksen-Kessler-Maiorana
successor.  They are checked against each exponent's own walk, on every
small level and on bare and composite-Q levels, and against Burnside's count
of the orbits at the anchor sizes; the partition also against a union-find
over the orbits of the ell-regular parts.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from tametransfer import (
    characters,
    ell_regular_part,
    enumerate_orbits,
    field_level,
    linked_partition,
    linking,
    orbit_of,
)
from tametransfer.errors import EnumerationTooLarge
from tametransfer.numth import _ell_idempotent, prime_factors

SMALL_LEVELS = [
    field_level(Q, deg)
    for Q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
    for deg in range(1, 13)
    if Q**deg - 1 <= 3000
]
LARGE_LEVEL = field_level(7, 5)  # M = 16806 = 2 * 3 * 2801
# Neither the necklace walk nor the one-block argument needs a field or a
# prime power: bare moduli (the degree-one level over M + 1, as ``chain --M``
# builds them) and levels over non-prime-power Q are walked the same way.
BARE_LEVELS = [field_level(M + 1, 1) for M in (1, 2, 12, 60, 97, 210, 1001, 2310, 2999)]
COMPOSITE_Q_LEVELS = [
    field_level(Q, deg) for Q in (6, 10, 12) for deg in range(1, 6) if Q**deg - 1 <= 3000
]
levels = st.sampled_from(SMALL_LEVELS + BARE_LEVELS + COMPOSITE_Q_LEVELS)


def per_orbit_partition(level):
    """Union-find over the orbits of the ell-regular parts, orbit by orbit."""
    orbits = enumerate_orbits(level)
    parent = {o.rep: o.rep for o in orbits}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for ell in prime_factors(level.M):
        for o in orbits:
            reg = orbit_of(ell_regular_part(o.rep_char(), ell))
            ra, rb = find(o.rep), find(reg.rep)
            parent[max(ra, rb)] = min(ra, rb)
    blocks = {}
    for o in orbits:
        blocks.setdefault(find(o.rep), []).append(o.rep)
    return tuple(tuple(sorted(b)) for _, b in sorted(blocks.items()))


def walked_orbits(level):
    """(rep, size, members) of every orbit: each exponent's own walk, sorted."""
    Q, M = level.Q, level.M
    out = {}
    for a in range(M):
        members = {a}
        x = a * Q % M
        while x != a:
            members.add(x)
            x = x * Q % M
        out[min(members)] = tuple(sorted(members))
    return [(rep, len(m), m) for rep, m in sorted(out.items())]


@given(levels)
@example(LARGE_LEVEL)
@example(field_level(2311, 1))  # M = 2310 = 2 * 3 * 5 * 7 * 11
@example(field_level(6, 4))  # M = 1295 = 5 * 7 * 37
@example(field_level(10, 3))  # M = 999 = 3**3 * 37
@example(field_level(12, 3))  # M = 1727 = 11 * 157
@settings(max_examples=60, deadline=None)
def test_partition_equals_the_per_orbit_route(lvl):
    assert linked_partition(lvl) == per_orbit_partition(lvl)


@pytest.mark.parametrize("lvl", [field_level(5, 2), field_level(2, 6), LARGE_LEVEL])
def test_partition_factors_nothing(lvl, monkeypatch):
    want = per_orbit_partition(lvl)

    def refuse(*args):
        raise AssertionError("linked_partition split M into primes")

    monkeypatch.setattr(linking, "prime_factors", refuse)
    monkeypatch.setattr(linking, "_ell_idempotent", refuse)
    assert linked_partition(lvl) == want


@given(levels)
@example(LARGE_LEVEL)
@example(field_level(2311, 1))
@example(field_level(12, 3))
@settings(max_examples=60, deadline=None)
def test_enumeration_equals_an_independent_walk(lvl):
    orbits = enumerate_orbits(lvl)
    assert [(o.rep, o.size, o.members) for o in orbits] == walked_orbits(lvl)
    assert all(o.level == lvl for o in orbits)


def test_every_small_level_walks_like_its_exponents():
    # every Q <= 64, prime power or not, at every degree with M <= 20,000
    swept = 0
    for Q in range(2, 65):
        for deg in range(1, 15):
            if Q**deg - 1 > 20_000:
                break
            lvl = field_level(Q, deg)
            want = walked_orbits(lvl)
            assert [(o.rep, o.size, o.members) for o in enumerate_orbits(lvl)] == want, (Q, deg)
            assert linked_partition(lvl) == (tuple(rep for rep, _, _ in want),), (Q, deg)
            swept += 1
    assert swept == 184


@pytest.mark.parametrize("Q, deg", [(3, 12), (2, 19)])
def test_orbit_count_is_burnsides(Q, deg):
    # the k-th Frobenius power fixes the a with (Q**k - 1) * a = 0 mod M: gcd(Q**k - 1, M) of them
    lvl = field_level(Q, deg)
    count, rest = divmod(sum(math.gcd(Q**k - 1, lvl.M) for k in range(deg)), deg)
    assert rest == 0
    orbits = enumerate_orbits(lvl)
    (block,) = linked_partition(lvl)
    assert len(orbits) == len(block) == count
    assert block == tuple(o.rep for o in orbits)
    assert sum(o.size for o in orbits) == lvl.M
    assert all(deg % o.size == 0 for o in orbits)
    if (Q, deg) == (3, 12):
        assert count == 44_367


def crt_idempotent_reference(M, ell):
    """(e, q, M0) for M = q * M0 with q the largest power of ell dividing M: e is the x mod M
    with x = 0 (mod q) and x = 1 (mod M0), by the extended Euclidean algorithm on q and M0."""
    q = 1
    while M % (q * ell) == 0:
        q *= ell
    M0 = M // q
    r0, r1, s0, s1 = q, M0, 1, 0  # invariant: r_i = s_i * q (mod M0)
    while r1:
        k = r0 // r1
        r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
    # r0 = gcd(q, M0) = 1, so s0 * q = 1 (mod M0), and x = 0 + (1 - 0) * s0 * q
    return s0 * q % M, q, M0


SPLIT_ELLS = (2, 3, 5, 7, 11, 13)


@pytest.mark.parametrize("M", [1, 2, 24, 48, 728, 531440, 2**61 - 2])
def test_ell_split_idempotents_are_complementary(M):
    for ell in (*SPLIT_ELLS, 10007):  # 10007 divides none of these M
        e, q, M0 = crt_idempotent_reference(M, ell)
        assert e % q == 0 and e % M0 == 1 % M0
        assert _ell_idempotent(M, ell) == e, ell
        # 1 - e is the complementary idempotent: 1 mod q and 0 mod M0
        assert (1 - e) % M % q == 1 % q and (1 - e) % M % M0 == 0
    assert _ell_idempotent(M, 10007) == 1 % M


def test_ell_idempotent_on_every_small_modulus():
    for ell in SPLIT_ELLS:
        for M in range(1, 3_000):
            assert _ell_idempotent(M, ell) == crt_idempotent_reference(M, ell)[0], (M, ell)
            if M % ell:
                assert _ell_idempotent(M, ell) == 1 % M, (M, ell)
        for k in range(40):  # M a power of ell, M = 1 among them: the ell-part is everything
            assert _ell_idempotent(ell**k, ell) == 0, (ell, k)


@pytest.mark.parametrize("Q, deg", [(2, 1), (2, 2), (5, 2), (3, 5)])
def test_guard_boundary(Q, deg, monkeypatch):
    lvl = field_level(Q, deg)
    for fn in (enumerate_orbits, linked_partition):
        want = fn(lvl)
        monkeypatch.setattr(characters, "MAX_ENUMERATION", lvl.M - 1)
        with pytest.raises(EnumerationTooLarge):
            fn(lvl)
        monkeypatch.setattr(characters, "MAX_ENUMERATION", lvl.M)
        assert fn(lvl) == want
        monkeypatch.undo()


def test_the_trivial_level_has_one_orbit(monkeypatch):
    lvl = field_level(2, 1)  # M = 1
    monkeypatch.setattr(characters, "MAX_ENUMERATION", 1)
    (orbit,) = enumerate_orbits(lvl)
    assert (orbit.rep, orbit.size, orbit.members) == (0, 1, (0,))
    assert linked_partition(lvl) == ((0,),)
