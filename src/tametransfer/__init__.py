"""Finite-field character combinatorics for inertial classes of discrete series.

The package models multiplicative characters of finite fields as exponents
modulo the exact group order, enumerates their Frobenius orbits, links
orbits through congruences at each prime, regularizes characters through
primitive prime divisors of blown-up group orders, and computes the
canonical order-two transfer twist together with its translation into
admissible-pair language.  Everything is exact integer arithmetic.
"""

from .characters import (
    CharExp,
    GaloisOrbit,
    char,
    char_order,
    ell_regular_part,
    enumerate_orbits,
    is_norm_inflated,
    is_sigma_regular,
    norm_inflate,
    orbit_of,
    orbit_size,
    s_invariant,
    sigma_orbit_size,
)
from .errors import DomainError
from .green import CyclotomicSum, cyclotomic_sum, element_degree, green_trace
from .linking import (
    LinkChain,
    SemiSimpleEndoClass,
    admissible_primes,
    build_link_chain,
    ell_linked,
    linked_partition,
    semisimple_endoclass,
    verify_link_chain,
)
from .regularize import (
    RegularizationLift,
    ZsigmondyCertificate,
    cyclotomic_value,
    descend_transfer,
    regularize,
    verify_certificate,
    zsigmondy_exception,
    zsigmondy_prime,
)
from .tame import (
    DiscreteSeriesShape,
    PairTransfer,
    RectifierSpec,
    TamePairClass,
    apply_transfer,
    blowup_parity_check,
    discrete_series_shape,
    kappa_twist,
    orbit_to_pair,
    pair_to_orbit,
    rectifier,
    tame_pair,
    transfer_pair,
    transfer_via_descent,
)
from .tower import FieldLevel, TowerParams, blow_up, derive_tower, field_level, level

__all__ = [
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

__version__ = "0.1.0"
