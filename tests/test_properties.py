"""Law-style checks of the algebraic invariants, driven by hypothesis."""

from hypothesis import given, settings, strategies as st

from tametransfer import (
    apply_transfer,
    blow_up,
    build_link_chain,
    char,
    char_order,
    derive_tower,
    ell_regular_part,
    field_level,
    linked_partition,
    norm_inflate,
    orbit_of,
    orbit_to_pair,
    pair_to_orbit,
    rectifier,
    verify_link_chain,
)

small_levels = st.sampled_from(
    [field_level(Q, deg) for Q, deg in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2), (7, 2)]]
)


@st.composite
def level_and_exponents(draw, count=1):
    lvl = draw(small_levels)
    exps = [draw(st.integers(min_value=0, max_value=lvl.M - 1)) for _ in range(count)]
    return (lvl, *exps)


@given(level_and_exponents(count=3))
def test_characters_form_an_abelian_group(data):
    lvl, a, b, c = data
    x, y, z = char(lvl, a), char(lvl, b), char(lvl, c)
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * char(lvl, 0) == x
    assert (x * x.inverse()).is_trivial


@given(level_and_exponents())
def test_orbit_shape_invariants(data):
    lvl, a = data
    orbit = orbit_of(char(lvl, a))
    assert orbit.rep == min(orbit.members)
    assert lvl.deg % orbit.size == 0
    members = set(orbit.members)
    assert a in members
    assert {m * lvl.Q % lvl.M for m in members} == members


@given(st.integers(min_value=2, max_value=400), st.integers(min_value=0, max_value=10**6))
def test_regular_part_contract_for_arbitrary_moduli(modulus, raw):
    # any modulus is the group order of the degree-one level over modulus+1
    lvl = field_level(modulus + 1, 1)
    alpha = char(lvl, raw % modulus)
    for ell in (2, 3, 5, 7):
        reg = ell_regular_part(alpha, ell)
        assert char_order(reg) % ell != 0
        quot = char_order(alpha * reg.inverse())
        while quot % ell == 0:
            quot //= ell
        assert quot == 1


@given(level_and_exponents(count=2), st.integers(min_value=1, max_value=9))
@settings(max_examples=60)
def test_norm_inflation_is_a_degree_preserving_monomorphism(data, a):
    lvl, x, y = data
    chi, psi = char(lvl, x), char(lvl, y)
    up_chi, up_psi = norm_inflate(chi, a), norm_inflate(psi, a)
    assert norm_inflate(chi * psi, a) == up_chi * up_psi
    assert char_order(up_chi) == char_order(chi)
    assert orbit_of(up_chi).size == orbit_of(chi).size
    if x != y:
        assert up_chi != up_psi


@given(st.sampled_from([3, 5, 7, 9]), st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4))
@settings(max_examples=40)
def test_quadratic_character_inflates_to_quadratic(Q, deg, a):
    # the norm map is surjective, so the order-two character pulls back to the
    # order-two character for every blow-up factor, odd or even
    lvl = field_level(Q, deg)
    quadratic = char(lvl, lvl.M // 2)
    up = norm_inflate(quadratic, a)
    assert up.a == up.level.M // 2
    assert char_order(up) == 2


@given(level_and_exponents(count=2))
@settings(max_examples=60)
def test_link_chains_always_verify(data):
    lvl, x, y = data
    chain = build_link_chain(char(lvl, x), char(lvl, y))
    assert verify_link_chain(chain)
    assert len(chain.primes) == len(set(chain.primes))


@given(small_levels)
@settings(max_examples=20, deadline=None)
def test_partition_is_always_a_single_block(lvl):
    assert len(linked_partition(lvl)) == 1


tame_shapes = st.sampled_from(
    [
        (3, 3, 2, 1, 1, 4),
        (3, 3, 1, 1, 1, 2),
        (3, 3, 1, 1, 2, 2),
        (5, 5, 2, 1, 1, 2),
        (5, 5, 4, 1, 1, 4),
        (2, 2, 1, 1, 3, 1),
        (2, 2, 3, 1, 1, 3),
        (3, 3, 2, 1, 2, 1),
    ]
)


@given(tame_shapes, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_transfer_is_a_degree_preserving_involution(raw, seed):
    params = derive_tower(*raw)
    spec = rectifier(params)
    orbit = orbit_of(char(spec.mu.level, seed % spec.mu.level.M))
    image = apply_transfer(orbit, spec)
    assert image.size == orbit.size
    assert apply_transfer(image, spec) == orbit


@given(tame_shapes, st.integers(min_value=0, max_value=10**6), st.sampled_from([1, 3, 5, 7, 9]))
@settings(max_examples=40, deadline=None)
def test_transfer_commutes_with_odd_blowup(raw, seed, a):
    params = derive_tower(*raw)
    spec = rectifier(params)
    blown_spec = rectifier(blow_up(params, a))
    orbit = orbit_of(char(spec.mu.level, seed % spec.mu.level.M))
    lifted_then_moved = apply_transfer(orbit_of(norm_inflate(orbit.rep_char(), a)), blown_spec)
    moved_then_lifted = orbit_of(norm_inflate(apply_transfer(orbit, spec).rep_char(), a))
    assert lifted_then_moved == moved_then_lifted


@given(tame_shapes, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_pair_dictionary_round_trip(raw, seed):
    params = derive_tower(*raw)
    lvl = field_level(params.Q, params.n_prime)
    orbit = orbit_of(char(lvl, seed % lvl.M))
    pair = orbit_to_pair(orbit, params)
    assert pair_to_orbit(pair, params) == orbit


def frobenius(chi):
    return char(chi.level, chi.a * chi.level.Q)


@given(level_and_exponents(), st.sampled_from([2, 3, 5, 7]))
def test_regular_part_commutes_with_frobenius(data, ell):
    lvl, a = data
    alpha = char(lvl, a)
    assert ell_regular_part(frobenius(alpha), ell) == frobenius(ell_regular_part(alpha, ell))
