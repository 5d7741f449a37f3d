import importlib
import math

import pytest
from hypothesis import given, settings, strategies as st

from tametransfer import (
    GaloisOrbit,
    RectifierSpec,
    apply_transfer,
    blow_up,
    blowup_parity_check,
    char,
    char_order,
    derive_tower,
    discrete_series_shape,
    enumerate_orbits,
    field_level,
    kappa_twist,
    level,
    norm_inflate,
    orbit_of,
    orbit_to_pair,
    pair_to_orbit,
    rectifier,
    tame_pair,
    transfer_pair,
    transfer_via_descent,
)
from tametransfer.errors import (
    DegreeMismatch,
    LevelMismatch,
    MismatchAgainstRectifier,
    NotAdmissiblePair,
    NotEssentiallyTame,
    NotInNormImage,
    OrderViolation,
)
from tametransfer.numth import is_prime_power
import tametransfer.tame as tame_module

QUATERNARY = derive_tower(3, 3, 2, 1, 1, 4)   # w=2, v=2, u=1, y=5
SPLIT = derive_tower(3, 3, 1, 1, 1, 2)        # g=1, y=2


def test_rectifier_worked_values():
    spec = rectifier(QUATERNARY)
    assert (spec.w, spec.v, spec.u, spec.y) == (2, 2, 1, 5)
    assert spec.nontrivial
    assert spec.mu.a == 4 and spec.mu.level.M == 8


def test_rectifier_trivial_for_even_parity():
    spec = rectifier(SPLIT)
    assert (spec.w, spec.v, spec.u, spec.y) == (2, 1, 1, 2)
    assert not spec.nontrivial
    assert spec.mu.is_trivial


def test_rectifier_trivial_for_p2_even_with_odd_y():
    # y is odd here, but residue characteristic 2 forces a trivial twist
    spec = rectifier(derive_tower(2, 2, 1, 2, 1, 2))
    assert spec.y == 1
    assert not spec.nontrivial


def test_rectifier_accepts_every_tame_shape_in_a_box():
    # v = d / gcd(d, w) divides n/w = e(E/F): no shape can fail that check.  The
    # derived mu is 0 or M/2, so it is Frobenius-fixed and of order dividing two
    shapes = 0
    for p in (2, 3, 5):
        for e in range(1, 25):
            for f in range(1, 4):
                for m in range(1, 13):
                    for d in range(1, 13):
                        n = m * d
                        if 0 in (e % p, m % p, d % p) or n % (e * f):
                            continue
                        w = n // e
                        v = d // math.gcd(d, w)
                        assert (n // w) % v == 0, (p, e, f, m, d)
                        g = e * f
                        y = m * (d - 1) + m * math.gcd(d, g) // g * (d // math.gcd(d, g) - 1) + n // w // v * (v - 1)
                        spec = rectifier(derive_tower(p, p, e, f, m, d))
                        assert (spec.w, spec.v, spec.u * v, spec.y) == (w, v, n // w, y)
                        lvl = spec.mu.level
                        assert (lvl.Q, lvl.deg) == (p**f, n // g)
                        assert lvl.Q * spec.mu.a % lvl.M == spec.mu.a
                        assert 2 * spec.mu.a % lvl.M == 0
                        assert (spec.mu.a != 0) == (p % 2 == 1 and y % 2 == 1), (p, e, f, m, d)
                        shapes += 1
    assert shapes == 1781


def test_rectifier_requires_tame_ramification():
    with pytest.raises(NotEssentiallyTame):
        rectifier(derive_tower(2, 2, 2, 1, 1, 2))


def test_apply_transfer_worked_values():
    spec = rectifier(QUATERNARY)
    lvl = spec.mu.level
    assert apply_transfer(orbit_of(char(lvl, 1)), spec).members == (5, 7)
    assert apply_transfer(orbit_of(char(lvl, 0)), spec).members == (4,)


def test_apply_transfer_trivial_spec_is_identity():
    spec = rectifier(SPLIT)
    for orbit in enumerate_orbits(spec.mu.level):
        assert apply_transfer(orbit, spec) is orbit


# Every (Q, deg) with Q an odd prime power and M = Q**deg - 1 <= 3000.
ODD_Q = [Q for Q in range(3, 3002, 2) if is_prime_power(Q)]
ODD_LEVELS = {deg: [Q for Q in ODD_Q if Q**deg - 1 <= 3000] for deg in range(1, 8)}


@st.composite
def odd_shift(draw):
    """An odd level and a shift t = 0 or M/2.

    For odd Q, Q * M/2 = M/2 (mod M), so M/2 is Frobenius-fixed at every level.
    """
    deg = draw(st.sampled_from(sorted(ODD_LEVELS)))
    lvl = field_level(draw(st.sampled_from(ODD_LEVELS[deg])), deg)
    return lvl, draw(st.sampled_from([0, lvl.M // 2]))


def with_mu(spec, a):
    """The spec with mu set to the exponent a, filled into a bare instance as ``orbit_to_pair`` fills a
    pair: the constructor derives mu from the shape, so it cannot build this fault."""
    bad = object.__new__(RectifierSpec)
    bad._fill(spec.params, spec.w, spec.v, spec.u, spec.y, char(spec.mu.level, a))
    return bad


def flipped_spec(spec):
    """The spec with mu shifted by M/2."""
    return with_mu(spec, spec.mu.a + spec.mu.level.M // 2)


@given(odd_shift(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_translation_is_the_walked_twist(shift, chi_seed):
    lvl, t = shift
    chi = char(field_level(lvl.Q, 1), chi_seed)
    inflated = norm_inflate(chi, lvl.deg)
    for orbit in enumerate_orbits(lvl):
        assert tame_module._translate(orbit, t) == orbit_of(char(lvl, orbit.rep + t))
        assert kappa_twist(orbit, chi) == orbit_of(orbit.rep_char() * inflated)


def test_transfer_table_walks_no_orbit(monkeypatch):
    # two shapes at the level (3, 6), with a trivial and a nontrivial rectifier
    specs = [rectifier(derive_tower(3, 3, 1, 1, 6, 1)), rectifier(derive_tower(3, 3, 2, 1, 3, 4))]
    lvl = level(specs[0].params, 6)
    assert [spec.mu for spec in specs] == [char(lvl, 0), char(lvl, lvl.M // 2)]
    chi = char(field_level(3, 1), 1)
    orbits = enumerate_orbits(lvl)

    def no_walk(alpha):
        raise AssertionError("orbit walked")

    monkeypatch.setattr(tame_module, "orbit_of", no_walk)
    for spec in specs:
        for orbit in orbits:
            assert apply_transfer(orbit, spec).size == orbit.size
            assert kappa_twist(orbit, chi).size == orbit.size


def test_apply_transfer_is_an_involution():
    spec = rectifier(QUATERNARY)
    for orbit in enumerate_orbits(spec.mu.level):
        image = apply_transfer(orbit, spec)
        assert image.size == orbit.size
        assert apply_transfer(image, spec) == orbit


def test_apply_transfer_level_check():
    spec = rectifier(QUATERNARY)
    other = orbit_of(char(level(SPLIT, 2), 1))
    # same numeric level, equal records: construct a genuinely different one
    wrong = orbit_of(char(level(derive_tower(2, 2, 1, 1, 2, 1), 2), 1))
    assert other.level == spec.mu.level  # Q=3, deg=2 in both shapes
    with pytest.raises(LevelMismatch):
        apply_transfer(wrong, spec)


def test_blowup_parity_check():
    assert blowup_parity_check(QUATERNARY, 1)
    assert blowup_parity_check(QUATERNARY, 3)
    assert blowup_parity_check(SPLIT, 7)
    for a in range(1, 10):
        assert blowup_parity_check(QUATERNARY, a)
        assert blowup_parity_check(SPLIT, a)


def test_blowup_exact_values_differ_but_parity_matches():
    # at a = 3 the recomputed value is 13, not 3 * 5: only the parity is stable
    assert rectifier(blow_up(QUATERNARY, 3)).y == 13
    assert rectifier(blow_up(SPLIT, 7)).y == 14 == 7 * rectifier(SPLIT).y


def test_transfer_via_descent_matches_rectifier_route():
    lvl = level(QUATERNARY, 2)
    assert transfer_via_descent(char(lvl, 0), QUATERNARY).members == (4,)
    assert transfer_via_descent(char(lvl, 1), QUATERNARY).members == (5, 7)
    assert transfer_via_descent(char(lvl, 7), QUATERNARY).members == (1, 3)  # 7 + M/2 wraps past M = 8
    for orbit in enumerate_orbits(level(SPLIT, 2)):
        assert transfer_via_descent(orbit.rep_char(), SPLIT) == orbit


def test_injected_rectifier_bug_is_caught(monkeypatch):
    # flipping the twist corrupts only the descent environment; the descent
    # then disagrees with the true direct route computed by the caller
    true_rectifier = tame_module.rectifier

    def flipped(params):
        return flipped_spec(true_rectifier(params))

    lvl = level(QUATERNARY, 2)
    reference = apply_transfer(orbit_of(char(lvl, 1)), true_rectifier(QUATERNARY))
    monkeypatch.setattr(tame_module, "rectifier", flipped)
    # both internal routes flip together, so the call itself succeeds...
    got = tame_module.transfer_via_descent(char(lvl, 1), QUATERNARY)
    # ...but the produced permutation no longer matches the true rectifier
    assert got != reference


def test_pair_to_orbit_worked_values():
    pair = tame_pair(QUATERNARY, 1, 1)
    orbit = pair_to_orbit(pair, QUATERNARY)
    assert orbit.members == (4,)
    assert orbit.size == 1

    full = tame_pair(QUATERNARY, 2, 1)
    assert pair_to_orbit(full, QUATERNARY).members == (1, 3)

    three = derive_tower(2, 2, 1, 1, 3, 1)
    assert pair_to_orbit(tame_pair(three, 3, 1), three).members == (1, 2, 4)


def test_pair_requires_admissible_degree():
    with pytest.raises(DegreeMismatch):
        tame_pair(QUATERNARY, 3, 0)
    with pytest.raises(NotAdmissiblePair):
        tame_pair(QUATERNARY, 2, 0)  # trivial character is never fully regular here


def test_pair_class_normalizes_to_orbit_representative():
    assert tame_pair(QUATERNARY, 2, 3).beta.a == 1
    assert tame_pair(QUATERNARY, 2, 3) == tame_pair(QUATERNARY, 2, 1)


def test_orbit_to_pair_round_trip():
    for params in (QUATERNARY, SPLIT, derive_tower(2, 2, 1, 1, 4, 1)):
        lvl = level(params, params.n_prime)
        for orbit in enumerate_orbits(lvl):
            pair = orbit_to_pair(orbit, params)
            assert pair.f == orbit.size
            assert pair_to_orbit(pair, params) == orbit


def test_orbit_to_pair_recovers_rep_for_regular_orbits():
    lvl = level(QUATERNARY, 2)
    orbit = orbit_of(char(lvl, 5))
    assert orbit.size == 2
    assert orbit_to_pair(orbit, QUATERNARY).beta.a == orbit.rep


def test_orbit_to_pair_refuses_a_hand_built_orbit():
    # at (Q, deg) = (3, 2), M = 8, no tuple below is a Frobenius orbit
    lvl = level(QUATERNARY, 2)
    for members, kind, message in [
        ((1,), NotInNormImage, "not norm-inflated"),   # 1 is not inflated from the level of degree 1
        ((0, 4), OrderViolation, "changed the parametric degree"),   # the orbit of 0 has size 1
        ((1, 5), OrderViolation, "does not invert inflation"),   # the orbit of 1 is (1, 3)
    ]:
        with pytest.raises(kind, match=message):
            orbit_to_pair(GaloisOrbit(lvl, members), QUATERNARY)


def test_transfer_via_descent_refuses_a_descent_off_the_twist(monkeypatch):
    # a faulted descent that returns its input orbit; the direct twist is computed apart from it
    monkeypatch.setattr(tame_module, "descend_transfer", lambda alpha, lift, image: orbit_of(alpha))
    with pytest.raises(MismatchAgainstRectifier, match="descent gave 1, rectifier twist gave 5"):
        transfer_via_descent(char(level(QUATERNARY, 2), 1), QUATERNARY)


FIVE = derive_tower(5, 5, 1, 1, 2, 1)  # n' = 2 at Q = 5: M = 24, and M = 4 at the pair degree 1


@pytest.mark.parametrize("mu_a, message", [
    (1, "does not restrict to the pair level"),  # 1 is no multiple of the order ratio 24 / 4 = 6
    (6, "not of order dividing two"),  # M/4 restricts to 1 mod 4, of order four
])
def test_transfer_pair_refuses_a_forged_rectifier(monkeypatch, mu_a, message):
    # the checks run before the transfer, which would refuse the untranslatable mu = 1 otherwise
    monkeypatch.setattr(tame_module, "rectifier", lambda params: with_mu(RectifierSpec(params), mu_a))
    with pytest.raises(OrderViolation, match=message):
        transfer_pair(tame_pair(FIVE, 1, 1), FIVE)


def test_transfer_pair_refuses_an_image_off_the_quadratic_shift(monkeypatch):
    monkeypatch.setattr(tame_module, "apply_transfer", lambda orbit, spec: orbit)
    with pytest.raises(OrderViolation, match="not the quadratic shift of the input"):
        transfer_pair(tame_pair(QUATERNARY, 1, 1), QUATERNARY)


def test_transfer_via_descent_walks_the_image_and_the_descended_orbit(monkeypatch):
    # the direct twist is asked as a membership of the descended orbit, and regularize builds no orbit
    walks = []
    for module in (tame_module, importlib.import_module("tametransfer.regularize")):
        monkeypatch.setattr(module, "orbit_of", lambda alpha, real=module.orbit_of: walks.append(alpha.level) or real(alpha))
    for params in (QUATERNARY, SPLIT, FIVE):
        lvl = level(params, params.n_prime)
        for orbit in enumerate_orbits(lvl):
            walks.clear()
            transfer_via_descent(orbit.rep_char(), params)
            assert [w.deg for w in walks] == [7 * params.n_prime, params.n_prime]


def test_transfer_pair_walks_two_orbits(monkeypatch):
    # the input pair's inflation and the recovered pair's check; the quadratic shift walks none
    walks = []
    monkeypatch.setattr(tame_module, "orbit_of", lambda alpha, real=tame_module.orbit_of: walks.append(alpha) or real(alpha))
    for params, f, beta_exp in [(QUATERNARY, 1, 1), (QUATERNARY, 2, 1), (SPLIT, 2, 1), (FIVE, 1, 1), (FIVE, 2, 1)]:
        pair = tame_pair(params, f, beta_exp)
        walks.clear()
        transfer_pair(pair, params)
        assert len(walks) == 2


def test_transfer_pair_quadratic_shift():
    moved = transfer_pair(tame_pair(QUATERNARY, 1, 1), QUATERNARY)
    assert moved.pair.beta.a == 0
    assert moved.mu_l.a == 1 and moved.mu_l.level.M == 2
    assert char_order(moved.mu_l) == 2

    full = transfer_pair(tame_pair(QUATERNARY, 2, 1), QUATERNARY)
    assert full.pair.beta.a == 5  # shifted by M_l / 2 = 4
    assert full.mu_l.a == 4


def test_transfer_pair_trivial_shape():
    pair = tame_pair(SPLIT, 2, 1)
    moved = transfer_pair(pair, SPLIT)
    assert moved.pair == pair
    assert moved.mu_l.is_trivial


def test_kappa_twist_commutes_with_transfer():
    spec = rectifier(QUATERNARY)
    base = field_level(QUATERNARY.Q, 1)  # characters of the two-element group mod Q-1
    for chi_exp in range(base.M):
        chi = char(base, chi_exp)
        for orbit in enumerate_orbits(spec.mu.level):
            twisted_then_moved = apply_transfer(kappa_twist(orbit, chi), spec)
            moved_then_twisted = kappa_twist(apply_transfer(orbit, spec), chi)
            assert twisted_then_moved == moved_then_twisted


def test_kappa_twist_requires_base_level():
    orbit = orbit_of(char(level(QUATERNARY, 2), 1))
    with pytest.raises(LevelMismatch):
        kappa_twist(orbit, char(field_level(3, 2), 1))
    with pytest.raises(LevelMismatch):
        kappa_twist(orbit, char(field_level(2, 1), 0))


def test_discrete_series_shape():
    lvl = level(QUATERNARY, 2)
    cuspidal = discrete_series_shape(orbit_of(char(lvl, 1)), QUATERNARY)
    assert (cuspidal.f, cuspidal.t, cuspidal.s, cuspidal.r) == (2, 4, 1, 1)
    low = discrete_series_shape(orbit_of(char(lvl, 0)), QUATERNARY)
    assert (low.f, low.t, low.s, low.r) == (1, 2, 2, 1)

    wide = derive_tower(3, 3, 1, 1, 2, 4)  # g=1, d'=4, n=8
    lvl8 = level(wide, 8)
    orbit = orbit_of(char(lvl8, 820))
    assert orbit.size == 2
    shape = discrete_series_shape(orbit, wide)
    assert (shape.f, shape.t, shape.s, shape.r) == (2, 2, 2, 2)
    assert shape.r * shape.s * shape.t == wide.n


def test_discrete_series_shape_checks_the_level_first():
    # Q = 3, n' = 2: an orbit at (2, 2) or (3, 4) is not at the shape's full level
    shape = derive_tower(3, 3, 1, 1, 2, 1)
    for lvl in (field_level(2, 2), field_level(3, 4)):
        with pytest.raises(LevelMismatch, match="full level"):
            discrete_series_shape(orbit_of(char(lvl, 1)), shape)
    # a hand-built orbit at the right level with too many members still meets the divisibility check
    with pytest.raises(OrderViolation, match="does not divide"):
        discrete_series_shape(GaloisOrbit(level(shape, 2), (1, 2, 3)), shape)
