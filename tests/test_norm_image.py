"""The one norm-image helper against the formulas its callers wrote out before.

``orbit_size`` and ``is_norm_inflated`` take the norm image of one exponent at
a level over a sub-level from ``characters._norm_image``; ``descend_transfer``
divides by the part of the order ratio prime to ell, and ``norm_inflate``
multiplies by the order ratio itself.  The formulas below are those each caller
computed on its own before, kept as references.
"""

import pytest
from hypothesis import given, settings, strategies as st

from tametransfer import (
    RegularizationLift,
    ZsigmondyCertificate,
    char,
    descend_transfer,
    field_level,
    is_norm_inflated,
    norm_inflate,
    orbit_of,
    orbit_size,
)
from tametransfer.characters import CharExp, _norm_image
from tametransfer.errors import AmbiguousTwist, DomainError, LevelMismatch, NotNormInflated, NotPrime
from tametransfer.numth import _ell_idempotent, is_prime


def old_orbit_size(alpha):
    lvl = alpha.level
    for f in range(1, lvl.deg):
        if lvl.deg % f == 0 and alpha.a % (lvl.M // (lvl.Q**f - 1)) == 0:
            return f
    return lvl.deg


def old_check_blow_up(top, base):
    if top.Q != base.Q or top.deg % base.deg:
        raise LevelMismatch("not a blow-up")


def old_is_norm_inflated(chi, base):
    old_check_blow_up(chi.level, base)
    ratio = chi.level.M // base.M
    return None if chi.a % ratio else CharExp(base, chi.a // ratio)


def old_norm_inflate(alpha, a):
    top = field_level(alpha.level.Q, a * alpha.level.deg)
    return CharExp(top, alpha.a * (top.M // alpha.level.M) % top.M)


def old_descend_transfer(alpha, lift, beta_image):
    """The one-split descent with its own order ratio."""
    top = lift.beta.level
    if beta_image.level != top:
        raise LevelMismatch("image orbit does not live at the lift's level")
    if not is_prime(lift.ell):
        raise NotPrime(f"ell={lift.ell} is not prime")
    base = alpha.level
    old_check_blow_up(top, base)
    e = _ell_idempotent(top.M, lift.ell)
    ratio = top.M // base.M
    candidates = []
    for member in beta_image.members:
        x = e * (member - lift.beta.a) % top.M
        if x % ratio == 0:
            candidates.append((alpha.a + x // ratio) % base.M)
    if not candidates:
        raise NotNormInflated("no conjugate descends")
    result = orbit_of(CharExp(base, candidates[0]))
    if any(c not in result.members for c in candidates[1:]):
        raise AmbiguousTwist("conjugates descend to different orbits")
    return result


def outcome(fn, *args):
    """The value of a call, or the class of the domain error it raised."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc)


@st.composite
def exponent_at(draw, lvl):
    """An exponent at the level: at random, or norm-inflated from a sub-level."""
    if draw(st.booleans()):
        return draw(st.integers(0, lvl.M - 1))
    f = draw(st.sampled_from([f for f in range(1, lvl.deg + 1) if lvl.deg % f == 0]))
    return lvl.M // field_level(lvl.Q, f).M * draw(st.integers(0, lvl.Q**f - 2))


@st.composite
def level_exponent_and_base(draw):
    lvl = field_level(draw(st.integers(2, 13)), draw(st.integers(1, 64)))
    # a base degree that divides the level degree, or any degree up to it
    if draw(st.booleans()):
        f = draw(st.sampled_from([f for f in range(1, lvl.deg + 1) if lvl.deg % f == 0]))
    else:
        f = draw(st.integers(1, lvl.deg))
    Q = lvl.Q if draw(st.integers(0, 9)) else lvl.Q + 1
    return lvl, draw(exponent_at(lvl)), field_level(Q, f)


@settings(max_examples=400, deadline=None)
@given(level_exponent_and_base())
def test_callers_match_their_old_formulas(data):
    lvl, a, base = data
    chi = char(lvl, a)
    assert orbit_size(chi) == old_orbit_size(chi)
    assert outcome(is_norm_inflated, chi, base) == outcome(old_is_norm_inflated, chi, base)
    if base.Q == lvl.Q and lvl.deg % base.deg == 0:
        nu = char(base, a % base.M)
        assert norm_inflate(nu, lvl.deg // base.deg) == old_norm_inflate(nu, lvl.deg // base.deg)


SMALL_ELLS = [2, 3, 4, 5, 7, 9, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 73, 127]


@st.composite
def descent_case(draw):
    Q = draw(st.integers(2, 13))
    f = draw(st.integers(1, 16))
    top = field_level(Q, f * draw(st.integers(1, 64 // f)))
    base = field_level(Q, f) if draw(st.integers(0, 9)) else field_level(Q, draw(st.integers(1, 16)))
    ell = draw(st.sampled_from(SMALL_ELLS))
    beta = draw(st.integers(0, top.M - 1))
    if draw(st.booleans()):
        image = draw(st.integers(0, top.M - 1))
    else:
        # beta times an inflated character times one of ell-power order: it descends
        M0 = top.M
        while M0 % ell == 0:
            M0 //= ell
        ratio = top.M // field_level(Q, f).M
        image = (beta + ratio * draw(st.integers(0, top.M)) + M0 * draw(st.integers(0, top.M))) % top.M
    alpha = char(base, draw(st.integers(0, base.M - 1)))
    # the lift's beta is alpha_star times the character of exponent M/ell: forge ell
    # through the certificate and alpha_star so that beta is the drawn one
    cert = ZsigmondyCertificate(Q, top.deg, ell, ())
    lift = RegularizationLift(top.deg // base.deg, char(top, beta - top.M // ell), cert)
    assert (lift.ell, lift.beta.a) == (ell, beta)
    return alpha, lift, orbit_of(char(top, image))


@settings(max_examples=400, deadline=None)
@given(descent_case())
def test_descent_matches_the_old_formula(case):
    assert outcome(descend_transfer, *case) == outcome(old_descend_transfer, *case)


@pytest.mark.parametrize("Q, deg", [(2, 1), (2, 60), (3, 63), (13, 64), (4, 12)])
def test_exponent_zero_is_in_every_norm_image(Q, deg):
    # the trivial character is inflated from every sub-level: its norm image is 0, which is not None
    lvl = field_level(Q, deg)
    for f in range(1, deg + 1):
        if deg % f == 0:
            sub = field_level(Q, f)
            assert _norm_image(lvl, sub, 0) == 0
            assert _norm_image(lvl, sub, lvl.M // sub.M) == 1
            assert is_norm_inflated(char(lvl, 0), sub) == char(sub, 0)
    assert orbit_size(char(lvl, 0)) == 1


@pytest.mark.parametrize("Q, deg", [(2, 1), (2, 60), (3, 63), (13, 64), (4, 12)])
def test_every_sub_level(Q, deg):
    # each exponent inflated from each sub-level, against the old formulas
    lvl = field_level(Q, deg)
    for f in range(1, deg + 1):
        if deg % f:
            continue
        sub = field_level(Q, f)
        for c in {0, 1, sub.M - 1, sub.M // 2}:
            chi = norm_inflate(char(sub, c), deg // f)
            assert chi == old_norm_inflate(char(sub, c), deg // f)
            assert orbit_size(chi) == old_orbit_size(chi)
            assert is_norm_inflated(chi, sub) == old_is_norm_inflated(chi, sub) == char(sub, c)
