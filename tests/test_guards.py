"""Argument guards that no other test reaches: each refuses its input with its own error kind."""

import pytest

from tametransfer import (
    admissible_primes,
    blow_up,
    char,
    derive_tower,
    field_level,
    norm_inflate,
    orbit_of,
    orbit_to_pair,
    pair_to_orbit,
    semisimple_endoclass,
    tame_pair,
)
from tametransfer.errors import DegreeMismatch, LevelMismatch, OutOfRange
from tametransfer.numth import factorize, is_prime

Q3N2 = derive_tower(3, 3, 1, 1, 2, 1)   # Q = 3, n' = 2


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (lambda: char(field_level(2, 2), 1) * char(field_level(2, 3), 1), LevelMismatch, "different levels"),
        (lambda: norm_inflate(char(field_level(2, 2), 1), 0), OutOfRange, "at least 1, got 0"),
        (lambda: blow_up(Q3N2, 0), OutOfRange, "at least 1, got 0"),
        (lambda: admissible_primes(1, 2), DegreeMismatch, "q=1, n=2"),
        (lambda: admissible_primes(3, 0), DegreeMismatch, "q=3, n=0"),
        (lambda: semisimple_endoclass([("theta", 0, 1, 1)]), DegreeMismatch, "must be positive"),
        (lambda: factorize(0), ValueError, "positive integer"),
        (lambda: pair_to_orbit(tame_pair(derive_tower(2, 2, 1, 1, 2, 1), 2, 1), Q3N2), LevelMismatch,
         "different base field"),
        (lambda: pair_to_orbit(tame_pair(derive_tower(3, 3, 1, 1, 3, 1), 3, 1), Q3N2), DegreeMismatch,
         "f=3 must divide n'=2"),
        (lambda: orbit_to_pair(orbit_of(char(field_level(3, 3), 1)), Q3N2), LevelMismatch, "full level"),
    ],
    ids=[
        "compose-across-levels",
        "norm-inflate-below-one",
        "blow-up-below-one",
        "admissible-primes-q-below-two",
        "admissible-primes-n-below-one",
        "endoclass-degree-below-one",
        "factorize-zero",
        "pair-over-a-foreign-field",
        "pair-degree-not-dividing-nprime",
        "orbit-at-the-wrong-level",
    ],
)
def test_guard_refuses_its_input(call, kind, message):
    with pytest.raises(kind, match=message):
        call()


def test_no_integer_below_two_is_prime():
    assert not any(is_prime(n) for n in (-7, -1, 0, 1))
