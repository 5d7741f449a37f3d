import pytest

from tametransfer import (
    LinkChain,
    admissible_primes,
    build_link_chain,
    char,
    ell_linked,
    ell_regular_part,
    enumerate_orbits,
    field_level,
    linked_partition,
    numth,
    orbit_of,
    semisimple_endoclass,
    verify_link_chain,
)
import tametransfer.linking as linking_module
from tametransfer.linking import LinkStep
from tametransfer.errors import (
    DegreeMismatch,
    EnumerationTooLarge,
    FactorizationBudgetExceeded,
    LevelGuardExceeded,
    LevelMismatch,
    NotPrime,
)
from tametransfer.tower import MAX_LEVEL_BITS

L52 = field_level(5, 2)  # M = 24


def test_admissible_primes():
    assert admissible_primes(2, 2) == (3,)
    assert admissible_primes(3, 2) == (2,)
    assert admissible_primes(2, 1) == ()
    assert admissible_primes(2, 4) == (3, 5, 7)


def test_admissible_primes_guard(monkeypatch):
    # q**n - 1 is the largest value factored, so a level over the guard factors nothing
    def refuse(n):
        raise AssertionError(f"factored {n.bit_length()} bits")

    monkeypatch.setattr(linking_module, "prime_factors", refuse)
    for q, n in [(2, 1501), (3, 947), (2, 1600)]:
        with pytest.raises(LevelGuardExceeded):
            admissible_primes(q, n)
    with pytest.raises(AssertionError, match="factored 1 bits"):
        admissible_primes(2, 1500)


def test_admissible_primes_budget_error_names_q_and_i(monkeypatch):
    # the search for the primes of q**3 - 1 runs out of budget; q is written in short
    for q, named in [(2, "q=2,"), (10**70 + 1, "q=10000000000000000000...(71 digits),")]:
        calls = []

        def out_at_three(n):
            calls.append(n)
            if len(calls) == 3:
                raise FactorizationBudgetExceeded("120 ECM curves spent in the split stage with a 400-bit cofactor unsplit")
            return ()

        monkeypatch.setattr(linking_module, "prime_factors", out_at_three)
        with pytest.raises(FactorizationBudgetExceeded) as caught:
            admissible_primes(q, 5)
        message = str(caught.value)
        assert message.startswith(f"q**i - 1 for {named} i=3: 120 ECM curves spent")
        assert len(message.encode()) < 1024


def test_ell_linked_worked_values():
    o9 = orbit_of(char(L52, 9))
    o0 = orbit_of(char(L52, 0))
    o1 = orbit_of(char(L52, 1))
    assert ell_linked(o9, o0, 2)          # both 2-regular parts trivial
    assert ell_linked(o1, o1, 3)          # reflexive
    assert not ell_linked(o1, o0, 2)      # 2-regular part of 1 has order 3


def test_ell_linked_level_check():
    with pytest.raises(LevelMismatch):
        ell_linked(orbit_of(char(L52, 0)), orbit_of(char(field_level(2, 3), 0)), 2)


def test_chain_single_step():
    chain = build_link_chain(char(L52, 1), char(L52, 13))
    assert chain.primes == (2,)
    assert verify_link_chain(chain)


def test_chain_two_steps_through_13():
    chain = build_link_chain(char(L52, 1), char(L52, 5))
    assert chain.primes == (2, 3)
    # the CRT idempotents 9 and 16 route the chain through exponent 13
    assert chain.steps[0].after.rep == orbit_of(char(L52, 13)).rep
    assert chain.steps[1].after == orbit_of(char(L52, 5))
    assert verify_link_chain(chain)


def test_chain_empty_when_equal():
    chain = build_link_chain(char(L52, 7), char(L52, 7))
    assert chain.steps == ()
    assert verify_link_chain(chain)


def running_exponents(level, a, b):
    """The exponents a chain from a to b passes through, one per prime of M in
    ascending order whose part of b - a is nonzero; CRT computed here by hand."""
    M, xi = level.M, (b - a) % level.M
    path = [a]
    for ell, k in sorted(numth.factorize(M).items()):
        cofactor = M // ell**k
        part = xi * cofactor * pow(cofactor, -1, ell**k) % M
        if part:
            path.append((path[-1] + part) % M)
    return path


@pytest.mark.parametrize("Q, nprime", [(5, 2), (3, 4), (2, 6), (7, 2), (2, 5)])
def test_chain_walks_each_orbit_once(Q, nprime, monkeypatch):
    level = field_level(Q, nprime)
    walks = []

    def counted(alpha):
        walks.append(alpha.a)
        return orbit_of(alpha)

    monkeypatch.setattr(linking_module, "orbit_of", counted)
    for a, b in [(1, 5), (0, level.M - 1), (2, 2), (3, 7 % level.M), (level.M - 1, 1)]:
        walks.clear()
        chain = build_link_chain(char(level, a), char(level, b))
        path = running_exponents(level, a, b)
        assert len(chain.steps) == len(path) - 1
        # k >= 1 steps walk k + 1 orbits; a chain of no steps walks none
        assert len(walks) == (len(chain.steps) + 1 if chain.steps else 0)
        for step, before, after in zip(chain.steps, path, path[1:]):
            assert step.before == orbit_of(char(level, before))
            assert step.after == orbit_of(char(level, after))
        assert verify_link_chain(chain)


def test_chain_with_no_steps_needs_one_orbit():
    L23 = field_level(2, 3)
    assert not verify_link_chain(LinkChain(char(L23, 1), char(L23, 3), ()))   # {1,2,4} vs {3,5,6}
    assert verify_link_chain(LinkChain(char(L23, 1), char(L23, 2), ()))


def test_chain_verification_rejects_each_broken_step():
    # the chain of `chain --M 24 --from 1 --to 5`: through 13 by ell = 2, then 3
    L25 = field_level(25, 1)
    chain = build_link_chain(char(L25, 1), char(L25, 5))
    assert verify_link_chain(chain)
    first, second = chain.steps
    broken = [
        LinkChain(chain.source, chain.target, (LinkStep(3, first.before, first.after),
                                               LinkStep(2, second.before, second.after))),
        LinkChain(chain.source, chain.target, (first, LinkStep(5, second.before, second.after))),
        LinkChain(chain.source, char(L25, 7), chain.steps),
        LinkChain(chain.source, chain.target, (second,)),
    ]
    for bad in broken:
        assert not verify_link_chain(bad)


def test_chain_verification_is_false_for_a_forged_step():
    # M = 24: each forged ell is below 2, not a divisor of M, or a composite divisor of M
    L25 = field_level(25, 1)
    chain = build_link_chain(char(L25, 1), char(L25, 5))
    first, second = chain.steps
    for ell in (0, 1, -2, 4, 6, 24, 5, 10**400):
        for steps in ((LinkStep(ell, first.before, first.after), second), (first, LinkStep(ell, second.before, second.after))):
            assert verify_link_chain(LinkChain(chain.source, chain.target, steps)) is False
    # a step that ends at another level with the same M = 24
    foreign = LinkStep(first.ell, first.before, orbit_of(char(field_level(5, 2), 13)))
    assert verify_link_chain(LinkChain(chain.source, chain.target, (foreign, second))) is False
    assert verify_link_chain(chain) is True
    for Q, deg in [(2, 6), (3, 4), (7, 2)]:
        lvl = field_level(Q, deg)
        assert verify_link_chain(build_link_chain(char(lvl, 1), char(lvl, lvl.M - 2))) is True


def test_chain_verification_is_false_for_a_forged_orbit():
    # M = 24: through 13 by ell = 2, then 3; the orbits at degree one are single exponents
    L25 = field_level(25, 1)
    chain = build_link_chain(char(L25, 1), char(L25, 5))
    first, second = chain.steps
    # 2-regular parts: 1 -> 16, 13 -> 16, but 2 -> 8
    moved = orbit_of(char(L25, 2))
    forged = (LinkStep(2, first.before, moved), LinkStep(3, moved, second.after))
    assert verify_link_chain(LinkChain(chain.source, chain.target, forged)) is False
    # 3-regular parts: 13 -> 21 and 21 -> 21, so a last step to 21 is linked but misses the target
    last = LinkStep(3, second.before, orbit_of(char(L25, 21)))
    assert ell_linked(last.before, last.after, 3)
    assert verify_link_chain(LinkChain(chain.source, chain.target, (first, last))) is False
    # M = 30: the composite 6 divides M and its idempotent 6 links 0 to 5, yet 6 is no prime
    L31 = field_level(31, 1)
    forged = LinkChain(char(L31, 0), char(L31, 5), (LinkStep(6, orbit_of(char(L31, 0)), orbit_of(char(L31, 5))),))
    assert verify_link_chain(forged) is False
    assert verify_link_chain(build_link_chain(forged.source, forged.target)) is True


@pytest.mark.parametrize("Q, deg", [(2, 6), (3, 4), (4, 3), (5, 2)])
def test_one_walk_links_exactly_the_orbits_two_walks_link(Q, deg):
    level = field_level(Q, deg)
    orbits = enumerate_orbits(level)
    for ell in numth.prime_factors(level.M):
        for o1 in orbits:
            walked = orbit_of(ell_regular_part(o1.rep_char(), ell))
            for o2 in orbits:
                two_walks = walked == orbit_of(ell_regular_part(o2.rep_char(), ell))
                assert linking_module._ell_linked(o1, o2, ell) is two_walks, (ell, o1.rep, o2.rep)


def test_ell_linked_refuses_a_composite_or_oversized_ell():
    o1, o0 = orbit_of(char(L52, 1)), orbit_of(char(L52, 0))
    for ell in (4, 6, 24, 1):
        with pytest.raises(NotPrime):
            ell_linked(o1, o0, ell)
    with pytest.raises(LevelGuardExceeded):
        ell_linked(o1, o0, 2**(MAX_LEVEL_BITS + 1) - 1)


def test_chain_level_check():
    with pytest.raises(LevelMismatch):
        build_link_chain(char(L52, 0), char(field_level(2, 3), 0))


def test_chain_budget_error_names_the_level(monkeypatch):
    # one curve splits off 1608023 and leaves a 130-bit cofactor of 10007**13 - 1
    monkeypatch.setattr(numth, "MAX_ECM_CURVES", 1)
    level = field_level(10007, 13)
    with pytest.raises(FactorizationBudgetExceeded) as caught:
        build_link_chain(char(level, 1), char(level, 5))
    assert str(caught.value) == (
        "order of the level Q=10007, deg=13: 1 ECM curves spent"
        " in the split stage with a 130-bit cofactor unsplit"
    )


def test_chain_budget_error_caps_a_large_q(monkeypatch):
    # M is the product of two Mersenne primes, which one curve does not split; Q = M + 1 has 340 digits
    monkeypatch.setattr(numth, "MAX_ECM_CURVES", 1)
    level = field_level((2**607 - 1) * (2**521 - 1) + 1, 1)
    with pytest.raises(FactorizationBudgetExceeded) as caught:
        build_link_chain(char(level, 0), char(level, 1))
    assert str(caught.value) == (
        "order of the level Q=36461548502950113697...(340 digits), deg=1: 1 ECM curves spent"
        " in the ecm stage with a 1128-bit cofactor unsplit"
    )


def test_partition_single_block_small_levels():
    lvl = field_level(2, 3)
    blocks = linked_partition(lvl)
    assert len(blocks) == 1
    assert blocks[0] == (0, 1, 3)  # the three orbit representatives mod 7

    assert len(linked_partition(L52)) == 1
    assert len(linked_partition(field_level(2, 1))) == 1  # M = 1, single orbit


def test_partition_guard():
    with pytest.raises(EnumerationTooLarge):
        linked_partition(field_level(2, 40))


def test_semisimple_endoclass():
    assert semisimple_endoclass([("theta", 2, 4, 1)]).terms == (("theta", 2),)
    merged = semisimple_endoclass([("theta", 2, 2, 1), ("theta", 2, 2, 1)])
    assert merged.terms == (("theta", 2),)
    assert semisimple_endoclass([("theta", 6, 6, 1)]).terms == (("theta", 1),)


def test_semisimple_endoclass_rejects_bad_degrees():
    with pytest.raises(DegreeMismatch):
        semisimple_endoclass([("theta", 3, 2, 2)])


def test_ell_linked_is_an_equivalence_relation():
    orbits = enumerate_orbits(L52)
    for ell in (2, 3):
        linked = {
            (o1.rep, o2.rep) for o1 in orbits for o2 in orbits if ell_linked(o1, o2, ell)
        }
        assert all((o.rep, o.rep) in linked for o in orbits)
        assert all((b, a) in linked for a, b in linked)
        for a, b in linked:
            for c in [o.rep for o in orbits]:
                if (b, c) in linked:
                    assert (a, c) in linked


def test_linked_semisimple_is_order_independent():
    two_theta = semisimple_endoclass([("t1", 1, 2, 1)])
    assert two_theta == semisimple_endoclass([("t1", 1, 2, 1)])
    ab = semisimple_endoclass([("t1", 1, 1, 1), ("t2", 1, 1, 1)])
    ba = semisimple_endoclass([("t2", 1, 1, 1), ("t1", 1, 1, 1)])
    assert ab == ba
    assert two_theta != ab
