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

