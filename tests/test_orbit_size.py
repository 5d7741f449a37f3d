"""The closed-form orbit size against cycle walks, and the functions derived from it."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tametransfer import (
    char,
    element_degree,
    field_level,
    is_sigma_regular,
    norm_inflate,
    orbit_size,
    s_invariant,
    sigma_orbit_size,
)
from tametransfer.errors import LevelMismatch, OutOfRange


def walk_size(lvl, a, step):
    """Length of the cycle of ``a`` under multiplication by ``step`` mod M."""
    size, x = 1, a * step % lvl.M
    while x != a:
        x = x * step % lvl.M
        size += 1
    return size


# the walking definitions that the closed forms replaced, kept as references

def ref_orbit_size(chi):
    return walk_size(chi.level, chi.a, chi.level.Q)


def ref_sigma_orbit_size(chi, d_prime):
    return walk_size(chi.level, chi.a, pow(chi.level.Q, d_prime, chi.level.M))


def ref_is_sigma_regular(chi, d_prime):
    return ref_sigma_orbit_size(chi, d_prime) == chi.level.deg // d_prime


def ref_s_invariant(chi, d_prime):
    return d_prime // math.gcd(ref_orbit_size(chi), d_prime)


def assert_matches_references(chi):
    f = orbit_size(chi)
    assert f == ref_orbit_size(chi)
    assert element_degree(chi.a, chi.level) == f
    for d_prime in range(1, chi.level.deg + 1):
        if chi.level.deg % d_prime:
            continue
        assert sigma_orbit_size(chi, d_prime) == ref_sigma_orbit_size(chi, d_prime)
        assert is_sigma_regular(chi, d_prime) == ref_is_sigma_regular(chi, d_prime)
        assert s_invariant(chi, d_prime) == ref_s_invariant(chi, d_prime)


@st.composite
def level_and_exponent(draw):
    lvl = field_level(draw(st.integers(2, 13)), draw(st.integers(1, 64)))
    if draw(st.booleans()):
        return lvl, draw(st.integers(0, lvl.M - 1))
    # an exponent norm-inflated from a sublevel, so small orbits turn up too
    f = draw(st.sampled_from([f for f in range(1, lvl.deg + 1) if lvl.deg % f == 0]))
    ratio = lvl.M // (lvl.Q**f - 1)
    return lvl, ratio * draw(st.integers(0, lvl.Q**f - 2))


@settings(max_examples=300, deadline=None)
@given(level_and_exponent())
def test_orbit_size_matches_the_walk(data):
    lvl, a = data
    assert_matches_references(char(lvl, a))


@pytest.mark.parametrize(
    "Q, deg",
    [(2, 1), (2, 6), (3, 1), (3, 4), (4, 3), (5, 2), (7, 6), (2, 12), (3, 63)],
)
def test_fixed_cases(Q, deg):
    lvl = field_level(Q, deg)
    exps = {0, 1, 2, lvl.M - 1, lvl.M // 2}
    for f in range(1, deg + 1):
        if deg % f == 0:
            exps.add(norm_inflate(char(field_level(Q, f), 1 % (Q**f - 1)), deg // f).a)
    for a in sorted(exps):
        assert_matches_references(char(lvl, a))


def test_worked_values():
    assert orbit_size(char(field_level(5, 2), 0)) == 1  # the trivial character
    assert orbit_size(char(field_level(3, 2), 4)) == 1  # a = M/2 is fixed when Q is odd
    assert orbit_size(char(field_level(2, 4), 5)) == 2  # inflated from the level of degree 2
    assert orbit_size(char(field_level(3, 63), 1)) == 63
    assert orbit_size(char(field_level(3, 63), (3**63 - 1) // (3**9 - 1))) == 9


@pytest.mark.parametrize("fn", [sigma_orbit_size, is_sigma_regular, s_invariant])
def test_d_prime_must_divide_the_level_degree(fn):
    with pytest.raises(LevelMismatch):
        fn(char(field_level(2, 6), 1), 4)
    with pytest.raises(LevelMismatch):
        fn(char(field_level(3, 2), 0), 3)


@pytest.mark.parametrize("fn", [sigma_orbit_size, is_sigma_regular, s_invariant])
def test_d_prime_must_be_positive(fn):
    # the d'-th Frobenius power needs d' >= 1: 0 divides no degree, and a negative d' divides every one
    for d_prime in (0, -1, -4):
        with pytest.raises(OutOfRange, match=f"d' must be at least 1, got {d_prime}"):
            fn(char(field_level(3, 4), 5), d_prime)
