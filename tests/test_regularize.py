import importlib

import pytest

from tametransfer import (
    char,
    char_order,
    cyclotomic_value,
    derive_tower,
    descend_transfer,
    level,
    orbit_of,
    regularize,
    verify_certificate,
    zsigmondy_exception,
    zsigmondy_prime,
)
from tametransfer.errors import (
    AmbiguousTwist,
    FactorizationBudgetExceeded,
    LevelGuardExceeded,
    LevelMismatch,
    NotNormInflated,
    OrderViolation,
    OutOfRange,
)
from tametransfer.cli import run
from tametransfer import numth
from tametransfer.numth import factorize
from tametransfer.regularize import ZsigmondyCertificate


def test_cyclotomic_values():
    assert cyclotomic_value(1, 5) == 4
    assert cyclotomic_value(2, 7) == 8
    assert cyclotomic_value(6, 2) == 3
    assert cyclotomic_value(12, 2) == 13
    for r, b in [(5, 1), (0, 2), (-1, 3), (3, 0)]:
        with pytest.raises(OutOfRange):
            cyclotomic_value(r, b)
    # multiplying the pieces back together recovers b**r - 1
    for b, r in [(2, 12), (3, 10), (10, 6)]:
        prod = 1
        for d in range(1, r + 1):
            if r % d == 0:
                prod *= cyclotomic_value(d, b)
        assert prod == b**r - 1


def test_cyclotomic_values_match_sympy():
    from sympy import Poly, Symbol, cyclotomic_poly

    x = Symbol("x")
    for r in range(1, 121):
        coefficients = [int(c) for c in Poly(cyclotomic_poly(r, x), x).all_coeffs()]
        for b in range(2, 31):
            value = 0
            for c in coefficients:
                value = value * b + c
            assert cyclotomic_value(r, b) == value, (r, b)


def test_cyclotomic_value_is_guarded_before_r_is_factored(monkeypatch):
    def no_factoring(n):
        raise AssertionError(f"factorize({n}) called")

    numth._degree_primes.cache_clear()
    monkeypatch.setattr(numth, "factorize", no_factoring)
    with pytest.raises(LevelGuardExceeded, match="Q=3, deg=1000000000000"):
        cyclotomic_value(10**12, 3)
    with pytest.raises(LevelGuardExceeded, match="Q=3, deg=1000000000000"):
        zsigmondy_prime(3, 10**12)
    # 3 has order 4 modulo 5, so 3**r = 1 (mod 5) and only the guard keeps r from being factored
    assert verify_certificate(ZsigmondyCertificate(b=3, r=10**12, ell=5, order_checks=((2, 1), (5, 1)))) is False


@pytest.mark.parametrize("b, r", [(3, 14), (2, 30), (23, 28), (10, 2)])
def test_the_search_factors_r_once_and_the_recheck_once(monkeypatch, b, r):
    # the search's intrinsic prime, cyclotomic value and order check share r's primes from the
    # memo; the recheck factors r afresh, also when the search is warm
    module = importlib.import_module("tametransfer.regularize")
    module._smallest_primitive_prime.cache_clear()
    numth._degree_primes.cache_clear()
    factored = []
    monkeypatch.setattr(numth, "factorize", lambda n, real=numth.factorize: factored.append(n) or real(n))
    ell, cert = zsigmondy_prime(b, r)
    assert factored == [r]
    assert verify_certificate(cert)
    assert factored == [r, r]
    assert zsigmondy_prime(b, r) == (ell, cert) and verify_certificate(cert)
    assert factored == [r, r, r]


def test_the_recheck_refuses_a_certificate_written_from_a_wrong_memo(monkeypatch):
    module = importlib.import_module("tametransfer.regularize")
    module._smallest_primitive_prime.cache_clear()
    monkeypatch.setattr(module, "_degree_primes", lambda n: numth._degree_primes(n)[:-1])
    try:
        ell, cert = zsigmondy_prime(3, 14)
        assert cert.order_checks == ((2, pow(3, 7, ell)),)  # 7 | 14 is left out
        assert verify_certificate(cert) is False
    finally:
        module._smallest_primitive_prime.cache_clear()


def test_the_recheck_refuses_a_certificate_without_order_checks():
    # 3**14 = 4 (mod 5), so no order check can be computed; None must not match that absence
    assert verify_certificate(ZsigmondyCertificate(b=3, r=14, ell=5, order_checks=None)) is False
    assert verify_certificate(ZsigmondyCertificate(b=3, r=14, ell=547, order_checks=None)) is False


def test_exception_families_return_empty():
    assert zsigmondy_prime(2, 6) is None
    assert zsigmondy_prime(3, 2) is None
    assert zsigmondy_prime(7, 2) is None
    assert zsigmondy_prime(15, 2) is None
    assert zsigmondy_exception(2, 6)
    assert zsigmondy_exception(31, 2)
    assert not zsigmondy_exception(2, 2)
    assert not zsigmondy_exception(8, 2)


def test_worked_primitive_prime_43():
    ell, cert = zsigmondy_prime(2, 14)
    assert ell == 43
    # 2**7 = -1 and 2**2 = 4 mod 43: the order of 2 is exactly 14
    assert cert.order_checks == ((2, 42), (7, 4))
    assert verify_certificate(cert)


def test_worked_primitive_prime_547():
    ell, cert = zsigmondy_prime(3, 14)
    assert ell == 547
    assert cert.order_checks == ((2, 546), (7, 9))
    assert verify_certificate(cert)


def test_smallest_primitive_prime_is_chosen():
    # both 43 and 127 are primitive for 4**7 - 1; the smaller one wins
    ell, _ = zsigmondy_prime(4, 7)
    assert ell == 43


def oracle_primitive_prime(b, r):
    primitive = [p for p in factorize(b**r - 1) if all(pow(b, i, p) != 1 for i in range(1, r))]
    return min(primitive) if primitive else None


def test_zsigmondy_against_brute_oracle_small_grid():
    for b in range(2, 13):
        for r in range(2, 17):
            hit = zsigmondy_prime(b, r)
            got = None if hit is None else hit[0]
            assert got == oracle_primitive_prime(b, r), (b, r)


@pytest.mark.parametrize("b, r, ell", [(23, 28, 10781), (17, 17, 10949)])
def test_zsigmondy_above_the_trial_division_range(b, r, ell):
    # both lie above 10657, the 1300th prime, and the search meets them as
    # candidates 1 mod 2r (10781 = 1 + 385 * 28, 10949 = 1 + 322 * 34)
    assert ell > 10657
    hit = zsigmondy_prime(b, r)
    assert hit is not None and hit[0] == ell == oracle_primitive_prime(b, r)
    assert verify_certificate(hit[1])


# The pairs on which Brent rho stalled; ECM settles the ones with no prime
# among the trial candidates.  Values from perfbench/certify_oracle.json.
STALLED_PAIRS = [
    (34, 29, 21333097),
    (38, 23, 59494606445741),
    (31, 27, 1836205027201),
    (39, 29, 313396331),
    (18, 29, 1505548068007783),
    (32, 25, 269089806001),
]


@pytest.mark.parametrize("b, r, ell", STALLED_PAIRS)
def test_zsigmondy_on_the_former_stalls(b, r, ell):
    hit = zsigmondy_prime(b, r)
    assert hit is not None and hit[0] == ell
    assert verify_certificate(hit[1])


def test_zsigmondy_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        zsigmondy_prime(1, 5)
    with pytest.raises(OutOfRange):
        zsigmondy_prime(5, 1)
    with pytest.raises(LevelGuardExceeded):
        zsigmondy_prime(2, 10**9)


def honest(b, r, ell, primes):
    """A certificate whose order checks are computed truthfully for ell."""
    return ZsigmondyCertificate(b, r, ell, tuple((p, pow(b, r // p, ell)) for p in primes))


def test_certificate_verification_rejects_tampering():
    _, cert = zsigmondy_prime(2, 14)
    assert honest(2, 14, 43, (2, 7)) == cert
    # 127 and 3 divide 2**14 - 1, but 2 has order 7 and 2 modulo them
    assert not verify_certificate(honest(2, 14, 127, (2, 7)))
    assert not verify_certificate(honest(2, 14, 3, (2, 7)))
    # 129 = 3 * 43 passes every order check; only primality rejects it
    composite = honest(2, 14, 129, (2, 7))
    assert pow(2, 14, 129) == 1 and all(res != 1 for _, res in composite.order_checks)
    assert not verify_certificate(composite)
    # the listed primes must be exactly those of r
    assert not verify_certificate(honest(2, 14, 43, (7,)))
    assert not verify_certificate(honest(2, 14, 43, (2, 3, 7)))
    # every residue must be the true one
    assert not verify_certificate(ZsigmondyCertificate(2, 14, 43, ((2, 42), (7, 5))))
    # 5 is prime but 2**14 = 4 (mod 5)
    assert pow(2, 14, 5) != 1
    assert not verify_certificate(honest(2, 14, 5, (2, 7)))


def test_certificate_verification_tests_b_to_the_r_before_factoring_r(monkeypatch):
    from sympy import nextprime

    def refused(n):
        raise AssertionError(f"called with {n}")

    monkeypatch.setattr(numth, "factorize", refused)
    # 2 has order 3 modulo 7 and 3 does not divide 10**40
    assert pow(2, 10**40, 7) != 1
    assert not verify_certificate(ZsigmondyCertificate(2, 10**40, 7, ((2, 1), (5, 1))))
    # 7 divides 2**r - 1 since 3 | r, but 2**r - 1 is over the level guard and r has two 101-bit primes
    r = 3 * nextprime(2**100 + 12345) * nextprime(2**100 + 99999)
    assert pow(2, r, 7) == 1
    assert not verify_certificate(ZsigmondyCertificate(2, r, 7, ((3, 1),)))
    # ell must be above 1 and divide b**r - 1 before it is tested for primality
    monkeypatch.setattr(importlib.import_module("tametransfer.regularize"), "is_prime", refused)
    assert not verify_certificate(ZsigmondyCertificate(2, 14, 1, ((2, 0), (7, 0))))
    assert not verify_certificate(ZsigmondyCertificate(2, 14, 5, ((2, 4), (7, 3))))


Q2N2 = derive_tower(2, 2, 1, 1, 2, 1)   # Q = 2, n' = 2
Q3N2 = derive_tower(3, 3, 1, 1, 2, 1)   # Q = 3, n' = 2


def test_regularize_worked_example_q2():
    alpha = char(level(Q2N2, 2), 0)
    lift = regularize(alpha, Q2N2)
    assert (lift.a, lift.ell) == (7, 43)
    assert lift.beta.level.M == 16383
    assert lift.beta.a == 16383 // 43 == 381
    assert char_order(lift.beta) == 43
    assert orbit_of(lift.beta).size == 14


def test_regularize_worked_example_q3():
    alpha = char(level(Q3N2, 2), 0)
    lift = regularize(alpha, Q3N2)
    assert (lift.a, lift.ell) == (7, 547)
    assert lift.beta.level.M == 3**14 - 1


def test_regularize_orbit_size_is_lcm():
    # the orbit size of beta is lcm(f, order of Q mod ell) = f * r
    lvl = level(Q3N2, 2)
    for a in range(lvl.M):
        lift = regularize(char(lvl, a), Q3N2)
        f = orbit_of(char(lvl, a)).size
        r = lift.a * Q3N2.n_prime // f
        order_of_q = 1
        x = Q3N2.Q**f % lift.ell
        while x != 1:
            x = x * (Q3N2.Q**f % lift.ell) % lift.ell
            order_of_q += 1
        assert order_of_q == r
        assert orbit_of(lift.beta).size == f * r


def test_regularize_level_check():
    with pytest.raises(LevelMismatch):
        regularize(char(level(Q3N2, 3), 0), Q3N2)


def test_descend_identity_twist():
    alpha = char(level(Q3N2, 2), 1)
    lift = regularize(alpha, Q3N2)
    assert descend_transfer(alpha, lift, orbit_of(lift.beta)) == orbit_of(alpha)


def test_descend_quadratic_twist():
    # replay of the order-two twist: the descent recovers exponent 4 mod 8
    alpha = char(level(Q3N2, 2), 0)
    lift = regularize(alpha, Q3N2)
    top = lift.beta.level
    mu_star = char(top, top.M // 2)
    image = orbit_of(lift.beta * mu_star)
    assert descend_transfer(alpha, lift, image).members == (4,)


def test_descend_discards_ell_power_twist():
    alpha = char(level(Q3N2, 2), 1)
    lift = regularize(alpha, Q3N2)
    top = lift.beta.level
    xi = char(top, top.M // lift.ell)
    image = orbit_of(lift.beta * xi)
    assert descend_transfer(alpha, lift, image) == orbit_of(alpha)


def test_descend_level_check():
    alpha = char(level(Q3N2, 2), 0)
    lift = regularize(alpha, Q3N2)
    with pytest.raises(LevelMismatch):
        descend_transfer(alpha, lift, orbit_of(alpha))


def test_descend_rejects_inconsistent_image():
    alpha = char(level(Q3N2, 2), 0)
    lift = regularize(alpha, Q3N2)
    top = lift.beta.level
    # an image twisted by a character that is neither of ell-power order nor
    # norm-inflated after regular parts cannot descend
    bogus = orbit_of(char(top, lift.beta.a + 1))
    with pytest.raises((NotNormInflated, AmbiguousTwist)):
        descend_transfer(alpha, lift, bogus)


# shapes whose blow-up level of degree 7n' has an M over the 1500-bit guard
# (5**651 - 1 has 1512 bits, 2**1505 - 1 has 1505, 13**406 - 1 has 1503), while
# their base levels are admitted
GUARDED_SHAPES = [(5, 5, 1, 1, 93, 1), (2, 2, 1, 1, 215, 1), (13, 13, 1, 1, 58, 1)]


@pytest.fixture
def no_search(monkeypatch):
    def fail(b, r):
        pytest.fail(f"zsigmondy_prime({b}, {r}) ran before the level guard")

    monkeypatch.setattr(importlib.import_module("tametransfer.regularize"), "zsigmondy_prime", fail)


@pytest.mark.parametrize("shape", GUARDED_SHAPES)
def test_regularize_guard_fires_before_factoring(shape, no_search):
    params = derive_tower(*shape)
    top = f"level Q={params.Q}, deg={7 * params.n_prime}: M = Q\\*\\*deg - 1 has more than 1500 bits"
    for alpha in (0, 1):
        with pytest.raises(LevelGuardExceeded, match=top):
            regularize(char(level(params, params.n_prime), alpha), params)


def test_regularize_cli_guard_is_a_domain_error(no_search):
    for shape, Q, deg in [("5,5,1,1,93,1", 5, 651), ("2,2,1,1,215,1", 2, 1505)]:
        result = run(["regularize", "--shape", shape, "--alpha", "0"])
        assert result.exit_code == 2
        assert result.error_kind == "LevelGuardExceeded"
        assert result.message == f"level Q={Q}, deg={deg}: M = Q**deg - 1 has more than 1500 bits"


def test_regularize_answers_at_blow_up_degree_77():
    # the blow-up level has degree 77 and an M of 179 bits; its primitive prime
    # needs 27 ECM curves
    result = run(["regularize", "--shape", "5,5,1,1,11,1", "--alpha", "0"])
    assert result.exit_code == 0, result.message
    assert result.payload["ell"] == "527093491"
    assert result.payload["a"] == 7
    assert result.payload["beta"]["level_deg"] == 77


def test_zsigmondy_guard_is_the_bits_of_b_to_the_r(monkeypatch):
    # the guard counts the bits of b**r - 1 itself: 751 for (2, 751)
    monkeypatch.setattr(importlib.import_module("tametransfer.regularize"), "_smallest_primitive_prime",
                        lambda b, r: None)
    assert zsigmondy_prime(2, 751) is None
    assert zsigmondy_prime(2, 1500) is None
    with pytest.raises(LevelGuardExceeded, match="Q=2, deg=1501"):
        zsigmondy_prime(2, 1501)


def test_certified_answer_is_cached_and_a_failed_order_check_is_not(monkeypatch):
    module = importlib.import_module("tametransfer.regularize")
    module._smallest_primitive_prime.cache_clear()
    real = module._order_checks
    monkeypatch.setattr(module, "_order_checks", lambda b, r, ell: None)
    with pytest.raises(OrderViolation, match=r"prime 547 is not primitive for \(3,14\)"):
        zsigmondy_prime(3, 14)
    assert module._smallest_primitive_prime.cache_info().currsize == 0
    calls = []
    monkeypatch.setattr(module, "_order_checks", lambda *args: calls.append(args) or real(*args))
    hit = zsigmondy_prime(3, 14)
    assert zsigmondy_prime(3, 14) is hit   # the warm call repeats no order check
    assert calls == [(3, 14, 547)]
    assert verify_certificate(hit[1]) and len(calls) == 2   # the recheck is independent


def test_warm_regularize_tests_no_prime(monkeypatch):
    # the certified ell of the lift is not tested for primality again
    params = derive_tower(3, 3, 1, 1, 2, 1)
    alpha = char(level(params, 2), 1)
    want = regularize(alpha, params)
    calls = []
    for name in ("numth", "tower", "characters", "regularize"):
        module = importlib.import_module(f"tametransfer.{name}")
        monkeypatch.setattr(module, "is_prime", lambda n, real=module.is_prime: calls.append(n) or real(n))
    assert regularize(alpha, params) == want
    assert calls == []


def test_regularize_walks_no_orbit(monkeypatch):
    # its congruence check asks one membership by a walk that builds no orbit
    module = importlib.import_module("tametransfer.regularize")
    walks = []
    monkeypatch.setattr(module, "orbit_of", lambda alpha, real=module.orbit_of: walks.append(alpha.a) or real(alpha))
    for params in (Q2N2, Q3N2, derive_tower(3, 3, 2, 1, 1, 4), derive_tower(2, 2, 1, 1, 3, 1)):
        lvl = level(params, params.n_prime)
        for a in range(lvl.M):
            regularize(char(lvl, a), params)
    assert walks == []


def test_regularize_refuses_a_lift_that_is_not_fully_regular(monkeypatch):
    # an orbit size of the lift one below a*n' is the fault the first self-check catches
    module = importlib.import_module("tametransfer.regularize")
    real = module.orbit_size
    monkeypatch.setattr(module, "orbit_size", lambda chi: real(chi) - (chi.level.deg > Q3N2.n_prime))
    with pytest.raises(OrderViolation, match="not fully regular"):
        regularize(char(level(Q3N2, 2), 1), Q3N2)


def test_regularize_refuses_a_lift_that_is_not_congruent_to_its_input(monkeypatch):
    # an ell-regular part that keeps the ell-power factor is the fault the second self-check catches
    module = importlib.import_module("tametransfer.regularize")
    monkeypatch.setattr(module, "_ell_regular", lambda chi, ell: chi)
    with pytest.raises(OrderViolation, match="not congruent"):
        regularize(char(level(Q3N2, 2), 1), Q3N2)


def test_search_budget_error_caps_a_large_b(monkeypatch):
    # b + 1 is the product of two Mersenne primes, which one curve does not split
    monkeypatch.setattr(numth, "MAX_ECM_CURVES", 1)
    with pytest.raises(FactorizationBudgetExceeded) as caught:
        zsigmondy_prime((2**521 - 1) * (2**127 - 1) - 1, 2)
    assert str(caught.value) == (
        "primitive prime for b=11679847981112819759...(196 digits), r=2: 1 ECM curves spent"
        " in the ecm stage with a 648-bit cofactor unsplit"
    )
