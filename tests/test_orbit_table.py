"""The one-walk level routes against independent per-orbit ones.

``enumerate_orbits`` is checked against each exponent's own walk, and
``linked_partition``, which returns the level's one block from the walk,
against a union-find over the orbits of the ell-regular parts.
"""

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
from tametransfer.numth import _ell_split, crt_idempotent, factorize, prime_factors

SMALL_LEVELS = [
    field_level(Q, deg)
    for Q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
    for deg in range(1, 13)
    if Q**deg - 1 <= 3000
]
LARGE_LEVEL = field_level(7, 5)  # M = 16806 = 2 * 3 * 2801
levels = st.sampled_from(SMALL_LEVELS)
# The one-block argument needs neither a field nor a prime power: bare moduli
# (the degree-one level over M + 1, as ``chain --M`` builds them) and levels
# over non-prime-power Q are partitioned the same way.
BARE_LEVELS = [field_level(M + 1, 1) for M in (1, 2, 12, 60, 97, 210, 1001, 2310, 2999)]
COMPOSITE_Q_LEVELS = [
    field_level(Q, deg) for Q in (6, 10, 12) for deg in range(1, 6) if Q**deg - 1 <= 3000
]


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


@given(st.sampled_from(SMALL_LEVELS + BARE_LEVELS + COMPOSITE_Q_LEVELS))
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
    monkeypatch.setattr(linking, "_ell_split", refuse)
    assert linked_partition(lvl) == want


@given(levels)
@example(LARGE_LEVEL)
@settings(max_examples=40, deadline=None)
def test_enumeration_equals_an_independent_walk(lvl):
    orbits = enumerate_orbits(lvl)
    assert [(o.rep, o.size, o.members) for o in orbits] == walked_orbits(lvl)
    assert all(o.level == lvl for o in orbits)


@pytest.mark.parametrize("M", [1, 2, 24, 48, 728, 531440, 2**61 - 2])
def test_ell_split_idempotents_are_complementary(M):
    for ell, t in factorize(M).items():
        got_t, e_reg = _ell_split(M, ell)
        q = ell**t
        assert got_t == t
        assert e_reg % q == 0 and e_reg % (M // q) == 1 % (M // q)
        assert (e_reg + crt_idempotent(M // q, q)) % M == 1 % M
    t, e = _ell_split(M, 10007)  # a prime dividing none of these M
    assert (t, e) == (0, 1 % M)


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
