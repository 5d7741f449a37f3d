import cmath
import math

import pytest

from tametransfer import char, element_degree, field_level, green_trace
from tametransfer.errors import LevelMismatch, NotRegularCharacter, NotRegularElement, OutOfRange
from tametransfer.green import CyclotomicSum, cyclotomic_sum

F4 = field_level(2, 2)   # quadratic extension of the two-element field
F9 = field_level(3, 2)


def test_element_degree():
    assert element_degree(1, F4) == 2
    assert element_degree(0, F4) == 1
    assert element_degree(2, F9) == 2


def test_single_term_trace_for_degree_one():
    line = field_level(4, 1)  # M = 3
    trace = green_trace(char(line, 1), 1, 1)
    assert trace.coeffs == ((1, 1),)


def test_trace_over_f4_evaluates_to_one():
    trace = green_trace(char(F4, 1), 1, 2)
    assert trace == cyclotomic_sum(3, [(1, -1), (2, -1)])
    assert abs(trace.evaluate() - 1) < 1e-12


def test_trace_over_f9_evaluates_to_minus_i_sqrt2():
    trace = green_trace(char(F9, 1), 1, 2)
    assert trace == cyclotomic_sum(8, [(1, -1), (3, -1)])
    assert abs(trace.evaluate() - complex(0, -math.sqrt(2))) < 1e-12


def test_trace_requires_regular_character():
    with pytest.raises(NotRegularCharacter):
        green_trace(char(F4, 0), 1, 2)


def test_trace_requires_regular_element():
    with pytest.raises(NotRegularElement):
        green_trace(char(F4, 1), 0, 2)


def test_trace_checks_level_degree():
    with pytest.raises(LevelMismatch):
        green_trace(char(F4, 1), 1, 3)


def test_invariance_under_conjugation():
    for Q, u in [(2, 2), (2, 3), (3, 2), (4, 2), (4, 3)]:
        lvl = field_level(Q, u)
        chars = [a for a in range(lvl.M) if element_degree(a, lvl) == u]
        for a in chars[:6]:
            for g in chars[:6]:
                base = green_trace(char(lvl, a), g, u)
                assert base == green_trace(char(lvl, a * Q % lvl.M), g, u)
                assert base == green_trace(char(lvl, a), g * Q % lvl.M, u)


def test_formal_sum_matches_direct_complex_summation():
    lvl = field_level(3, 3)  # M = 26
    a, g, u = 1, 1, 3
    trace = green_trace(char(lvl, a), g, u)
    sign = 1 if u % 2 else -1
    direct = sign * sum(
        cmath.exp(2j * cmath.pi * (a * 3**i * g % 26) / 26) for i in range(u)
    )
    assert abs(trace.evaluate() - direct) < 1e-12


def test_cyclotomic_sum_merges_and_drops_zeros():
    s = cyclotomic_sum(6, [(1, 2), (7, -2), (2, 3)])
    assert s.coeffs == ((2, 3),)
    # 7 is 1 mod 6, so the two terms cancel
    empty = cyclotomic_sum(6, [(1, 1), (7, -1)])
    assert empty.coeffs == ()
    assert empty.evaluate() == 0


def test_a_sum_is_canonical_however_it_is_built():
    raw = CyclotomicSum(6, [(8, 2), (1, 1), (2, 1), (13, 0)])
    assert raw.coeffs == ((1, 1), (2, 3))
    assert raw == cyclotomic_sum(6, [(2, 3), (1, 1)]) == CyclotomicSum(6, raw.coeffs)


@pytest.mark.parametrize("modulus", [0, -5])
def test_a_sum_needs_a_positive_modulus(modulus):
    # no residue is taken modulo 0, and modulo -5 the residues would be negative
    for terms in ([(2, 1)], []):
        with pytest.raises(OutOfRange, match=f"modulus must be at least 1, got {modulus}"):
            cyclotomic_sum(modulus, terms)
    assert cyclotomic_sum(1, [(2, 1), (5, 2)]).coeffs == ((0, 3),)
