"""The one-split descent against the per-member route it replaced."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from tametransfer import (
    RegularizationLift,
    ZsigmondyCertificate,
    char,
    derive_tower,
    descend_transfer,
    enumerate_orbits,
    field_level,
    level,
    norm_inflate,
    orbit_of,
    rectifier,
    regularize,
)
from tametransfer.characters import CharExp, ell_regular_part, is_norm_inflated
from tametransfer.errors import (
    AmbiguousTwist,
    DomainError,
    LevelMismatch,
    NotNormInflated,
    NotPrime,
)


def per_member_descent(alpha, lift, beta_image):
    """Each conjugate split at ell and tested for norm inflation on its own."""
    if beta_image.level != lift.beta.level:
        raise LevelMismatch("image orbit does not live at the lift's level")
    base = alpha.level
    results = []
    for member in beta_image.members:
        mu_cand = CharExp(beta_image.level, (member - lift.beta.a) % beta_image.level.M)
        mu_ell = ell_regular_part(mu_cand, lift.ell)
        nu = is_norm_inflated(mu_ell, base)
        if nu is not None:
            results.append(orbit_of(alpha * nu))
    if not results:
        raise NotNormInflated("no conjugate descends")
    if any(r != results[0] for r in results[1:]):
        raise AmbiguousTwist("conjugates descend to different orbits")
    return results[0]


def outcome(descend, alpha, lift, image):
    try:
        return descend(alpha, lift, image)
    except DomainError as exc:
        return type(exc)


# n' <= 4, trivial and nontrivial rectifiers
SHAPES = [
    (7, 7, 1, 1, 1, 1),   # n' = 1
    (3, 3, 1, 1, 1, 2),   # n' = 2, trivial
    (3, 3, 2, 1, 1, 4),   # n' = 2, nontrivial
    (5, 5, 1, 1, 2, 1),   # n' = 2, trivial
    (2, 2, 1, 1, 3, 1),   # n' = 3, trivial
    (3, 3, 1, 2, 3, 2),   # n' = 3, nontrivial
    (3, 3, 1, 1, 4, 1),   # n' = 4, trivial
    (3, 3, 2, 1, 1, 8),   # n' = 4, nontrivial
]


@lru_cache(maxsize=None)
def shape_data(shape):
    params = derive_tower(*shape)
    return params, level(params, params.n_prime), rectifier(params)


@lru_cache(maxsize=None)
def lift_of(shape, a):
    params, lvl, _ = shape_data(shape)
    return regularize(char(lvl, a), params)


def test_shapes_cover_both_rectifiers():
    kinds = {shape_data(s)[2].nontrivial for s in SHAPES}
    assert kinds == {False, True}
    assert max(shape_data(s)[0].n_prime for s in SHAPES) == 4


@st.composite
def descent_cases(draw):
    shape = draw(st.sampled_from(SHAPES))
    _, lvl, spec = shape_data(shape)
    a = draw(st.integers(0, lvl.M - 1))
    lift = lift_of(shape, a)
    top = lift.beta.level
    kind = draw(st.sampled_from(["true", "random", "inflated twist"]))
    if kind == "true":
        image = orbit_of(lift.beta * norm_inflate(spec.mu, lift.a))
    elif kind == "random":
        image = orbit_of(char(top, draw(st.integers(0, top.M - 1))))
    else:
        # a conjugate of beta twisted by an inflated base character and an
        # ell-power character: every member has a candidate
        nu = char(lvl, draw(st.integers(0, lvl.M - 1)))
        i = draw(st.integers(0, top.deg - 1))
        k = draw(st.integers(0, lift.ell - 1))
        image = orbit_of(
            char(top, lift.beta.a * top.Q**i + norm_inflate(nu, lift.a).a + k * (top.M // lift.ell))
        )
    # descending another character than the lifted one makes the candidates
    # disagree on most inputs, which is the AmbiguousTwist route
    b = draw(st.one_of(st.just(a), st.integers(0, lvl.M - 1)))
    return char(lvl, b), lift, image


@settings(max_examples=200, deadline=None)
@given(descent_cases())
def test_descent_matches_per_member_route(case):
    alpha, lift, image = case
    assert outcome(descend_transfer, alpha, lift, image) == outcome(per_member_descent, alpha, lift, image)


def test_sweep_reaches_every_outcome():
    seen = set()
    for shape in SHAPES[1:5]:
        _, lvl, spec = shape_data(shape)
        for a in range(min(lvl.M, 8)):
            lift = lift_of(shape, a)
            top = lift.beta.level
            true_image = orbit_of(lift.beta * norm_inflate(spec.mu, lift.a))
            for b in range(min(lvl.M, 8)):
                for image in (true_image, orbit_of(char(top, lift.beta.a + 1))):
                    got = outcome(descend_transfer, char(lvl, b), lift, image)
                    assert got == outcome(per_member_descent, char(lvl, b), lift, image)
                    seen.add(got if isinstance(got, type) else "orbit")
    assert seen == {"orbit", NotNormInflated, AmbiguousTwist}


QUATERNARY = derive_tower(3, 3, 2, 1, 1, 4)


def quaternary_lift():
    alpha = char(level(QUATERNARY, 2), 1)
    return alpha, regularize(alpha, QUATERNARY)


def with_ell(lift, ell):
    """The lift rebuilt on a certificate whose ell is forged; its beta follows."""
    cert = lift.certificate
    return RegularizationLift(lift.a, lift.alpha_star, ZsigmondyCertificate(cert.b, cert.r, ell, cert.order_checks))


def test_composite_ell_raises_not_prime():
    alpha, lift = quaternary_lift()
    forged = with_ell(lift, 15)
    image = orbit_of(lift.beta)
    for descend in (descend_transfer, per_member_descent):
        with pytest.raises(NotPrime):
            descend(alpha, forged, image)


def test_a_large_composite_ell_is_capped_in_the_message():
    alpha, lift = quaternary_lift()
    forged = with_ell(lift, 15 * 10**100)
    with pytest.raises(NotPrime, match=r"^ell=15000000000000000000\.\.\.\(102 digits\) is not prime$"):
        descend_transfer(alpha, forged, orbit_of(forged.beta))


def test_lift_not_over_alphas_level_raises_level_mismatch():
    _, lift = quaternary_lift()
    assert lift.beta.level.deg == 14
    image = orbit_of(lift.beta)
    for other in (field_level(3, 3), field_level(9, 2)):
        for descend in (descend_transfer, per_member_descent):
            with pytest.raises(LevelMismatch):
                descend(char(other, 1), lift, image)


def test_checks_run_in_order():
    alpha, lift = quaternary_lift()
    forged = with_ell(lift, 15)
    stranger = char(field_level(3, 3), 1)
    for descend in (descend_transfer, per_member_descent):
        # the image level first, then the prime, then the base level
        with pytest.raises(LevelMismatch):
            descend(alpha, forged, orbit_of(alpha))
        with pytest.raises(NotPrime):
            descend(stranger, forged, orbit_of(lift.beta))


# The descent's arithmetic: with ratio = M_top / M_base = ell**s * r0 and ell not dividing r0, a
# member m descends when r0 divides m - beta, to alpha + (e / ell**s) * (m - beta) / r0 mod M_base.
# Each case below states its answer, and the per-member route agrees with it.

def twisted_image(lift, nu, j):
    """The orbit of beta times the inflation of the base character nu times xi**j, where xi has
    exponent M_top / ell: for a real lift, an image that descends to the orbit of alpha * nu."""
    top = lift.beta.level
    return orbit_of(char(top, lift.beta.a + norm_inflate(nu, lift.a).a + j * (top.M // lift.ell)))


def forged_lift(base, top, ell, beta):
    """A lift from ``base`` to ``top`` whose certificate names ``ell`` and whose beta is ``beta``."""
    cert = ZsigmondyCertificate(top.Q, top.deg, ell, ())
    lift = RegularizationLift(top.deg // base.deg, char(top, beta - top.M // ell), cert)
    assert (lift.ell, lift.beta.a) == (ell, beta)
    return lift


def test_a_real_lift_descends_through_the_ell_part_of_the_ratio():
    # a 64-bit base level under a 444-bit blow-up: the quotients (m - beta) / r0 pass 2**53
    params = derive_tower(3, 3, 1, 1, 40, 1)
    base = level(params, 40)
    alpha = char(base, base.M // 2 + 1)  # beta lies mid-level, so members fall on both sides of it
    lift = regularize(alpha, params)
    top, ell = lift.beta.level, lift.ell
    ratio = top.M // base.M
    assert ell == 29 and ratio % ell == 0 and base.M % ell
    for nu_a in (1, 2, 12345678901, base.M - 2):
        nu = char(base, nu_a)
        for j in (0, 1, ell - 1):
            image = twisted_image(lift, nu, j)
            assert any(m < lift.beta.a for m in image.members)
            assert descend_transfer(alpha, lift, image) == orbit_of(alpha * nu)
            assert per_member_descent(alpha, lift, image) == orbit_of(alpha * nu)


def test_the_base_level_of_one_element():
    # Q = 2 at degree one: M_base = 1, so every member descends, to the trivial character
    params = derive_tower(2, 2, 1, 1, 1, 1)
    alpha = char(level(params, 1), 0)
    lift = regularize(alpha, params)
    assert (alpha.level.M, lift.ell, lift.beta.level.M) == (1, 127, 127)
    for x in (0, 1, lift.beta.a, lift.beta.a + 1):
        image = orbit_of(char(lift.beta.level, x))
        assert descend_transfer(alpha, lift, image) == per_member_descent(alpha, lift, image) == orbit_of(alpha)


def test_a_forged_ell_prime_to_the_top_order():
    # 7 does not divide M_top = 80, so the idempotent is 1 and r0 is the whole ratio 10
    base, top = field_level(3, 2), field_level(3, 4)
    lift = forged_lift(base, top, 7, 1)
    image = orbit_of(char(top, 1 + 10 * 5))  # members 17, 51, 59, 73: only 51 - 1 descends
    assert image.members == (17, 51, 59, 73)
    alpha = char(base, 3)
    assert descend_transfer(alpha, lift, image) == per_member_descent(alpha, lift, image) == orbit_of(char(base, 0))


@pytest.mark.parametrize("Q, base_deg, top_deg, ell", [
    (7, 2, 4, 5),  # ratio 50 = 2 * 5**2: s = 2, the whole 5-part of M_top = 2400
    (7, 2, 4, 2),  # s = 1 of the 2**5 in M_top, and 2 divides M_base
    (3, 1, 4, 2),  # ratio 40 = 2**3 * 5: s = 3 of the 2**4 in M_top = 80
    (3, 2, 4, 7),  # 7 does not divide M_top
])
def test_forged_lifts_on_every_image_orbit(Q, base_deg, top_deg, ell):
    base, top = field_level(Q, base_deg), field_level(Q, top_deg)
    for beta in (1, top.M - 1, (2 * (top.M // base.M) + 1) % top.M):
        lift = forged_lift(base, top, ell, beta)
        for image in enumerate_orbits(top):
            for a in (0, 1, base.M - 1):
                alpha = char(base, a)
                assert outcome(descend_transfer, alpha, lift, image) == outcome(per_member_descent, alpha, lift, image)
