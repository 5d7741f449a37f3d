"""The public API, pinned so that any change to it shows up in review."""

import inspect

import tametransfer

PUBLIC_API = [
    "CharExp",
    "CyclotomicSum",
    "DiscreteSeriesShape",
    "DomainError",
    "FieldLevel",
    "GaloisOrbit",
    "LinkChain",
    "PairTransfer",
    "RectifierSpec",
    "RegularizationLift",
    "SemiSimpleEndoClass",
    "TamePairClass",
    "TowerParams",
    "ZsigmondyCertificate",
    "admissible_primes",
    "apply_transfer",
    "blow_up",
    "blowup_parity_check",
    "build_link_chain",
    "char",
    "char_order",
    "cyclotomic_sum",
    "cyclotomic_value",
    "derive_tower",
    "descend_transfer",
    "discrete_series_shape",
    "element_degree",
    "ell_linked",
    "ell_regular_part",
    "enumerate_orbits",
    "field_level",
    "green_trace",
    "is_norm_inflated",
    "is_sigma_regular",
    "kappa_twist",
    "level",
    "linked_partition",
    "norm_inflate",
    "orbit_of",
    "orbit_size",
    "orbit_to_pair",
    "pair_to_orbit",
    "rectifier",
    "regularize",
    "s_invariant",
    "semisimple_endoclass",
    "sigma_orbit_size",
    "tame_pair",
    "transfer_pair",
    "transfer_via_descent",
    "verify_certificate",
    "verify_link_chain",
    "zsigmondy_exception",
    "zsigmondy_prime",
]


def test_public_api_is_pinned():
    assert sorted(tametransfer.__all__) == PUBLIC_API


def test_every_public_name_resolves():
    for name in tametransfer.__all__:
        assert hasattr(tametransfer, name), name


REMOVED_KNOBS = {"guard", "max_enumeration", "max_bits", "max_retries", "a_override"}


def test_no_public_callable_takes_a_resource_bound():
    # each resource bound is a module constant set in one place
    # (tower.MAX_LEVEL_BITS, characters.MAX_ENUMERATION, numth.MAX_ECM_CURVES),
    # never a keyword, and so is the blow-up factor of regularize
    for name in tametransfer.__all__:
        obj = getattr(tametransfer, name)
        if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, BaseException)):
            params = set(inspect.signature(obj).parameters)
            assert not params & REMOVED_KNOBS, (name, params & REMOVED_KNOBS)


def test_resource_constants_are_pinned():
    # raising a bound changes which inputs finish, so it shows up here
    assert tametransfer.tower.MAX_LEVEL_BITS == 1500
    assert tametransfer.characters.MAX_ENUMERATION == 10**6
    assert tametransfer.numth.MAX_ECM_CURVES == 120
