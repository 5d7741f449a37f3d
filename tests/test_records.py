"""The contract of every public record type: an immutable slotted value."""

import copy
import inspect
import pickle

import pytest

from tametransfer import (
    CharExp,
    CyclotomicSum,
    DiscreteSeriesShape,
    FieldLevel,
    GaloisOrbit,
    LinkChain,
    PairTransfer,
    RectifierSpec,
    RegularizationLift,
    SemiSimpleEndoClass,
    TamePairClass,
    TowerParams,
    ZsigmondyCertificate,
    build_link_chain,
    char,
    cyclotomic_sum,
    derive_tower,
    discrete_series_shape,
    field_level,
    level,
    orbit_of,
    rectifier,
    regularize,
    semisimple_endoclass,
    tame_pair,
    transfer_pair,
    zsigmondy_prime,
)
from tametransfer.cli import CommandResult
from tametransfer.linking import LinkStep
from tametransfer.selftest import Criterion
from tametransfer.tower import _Record

PARAMS = derive_tower(3, 3, 2, 1, 1, 4)
LEVEL = level(PARAMS, PARAMS.n_prime)   # Q = 3, deg = 2, M = 8
CHAIN = build_link_chain(char(field_level(25, 1), 1), char(field_level(25, 1), 5))
PAIR = tame_pair(PARAMS, 1, 1)

# one instance of each record, built by the library where it builds one
SAMPLES = {
    FieldLevel: lambda: LEVEL,
    TowerParams: lambda: PARAMS,
    CharExp: lambda: char(LEVEL, 3),
    GaloisOrbit: lambda: orbit_of(char(LEVEL, 1)),
    LinkStep: lambda: CHAIN.steps[0],
    LinkChain: lambda: CHAIN,
    SemiSimpleEndoClass: lambda: semisimple_endoclass([("theta", 1, 2, 1)]),
    ZsigmondyCertificate: lambda: zsigmondy_prime(2, 14)[1],
    RegularizationLift: lambda: regularize(char(LEVEL, 1), PARAMS),
    RectifierSpec: lambda: rectifier(PARAMS),
    TamePairClass: lambda: PAIR,
    PairTransfer: lambda: transfer_pair(PAIR, PARAMS),
    DiscreteSeriesShape: lambda: discrete_series_shape(orbit_of(char(LEVEL, 1)), PARAMS),
    CyclotomicSum: lambda: cyclotomic_sum(3, [(1, -1), (2, -1)]),
    CommandResult: lambda: CommandResult("error", None, "NotPrime", "p=4 is not prime", 2),
    Criterion: lambda: Criterion("1_stub", 1.0, str),
}
RECORDS = list(SAMPLES)


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


def test_every_record_is_sampled():
    assert set(RECORDS) == set(_Record.__subclasses__())
    assert len(RECORDS) == 16


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_immutable_and_slotted(cls):
    record = SAMPLES[cls]()
    assert not hasattr(record, "__dict__")
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_a_value_of_its_own_class(cls):
    record = SAMPLES[cls]()
    values = fields(record)
    # the constructor takes the fields in slot order, by position or by name
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)
    positional, keyword = cls(*values), cls(**dict(zip(cls.__slots__, values)))
    assert positional is not record
    assert positional == record == keyword
    assert not positional != keyword
    assert hash(positional) == hash(record) == hash(keyword)
    assert record != values
    for other in RECORDS:
        if other is not cls:
            assert record != SAMPLES[other]()
            assert not record == SAMPLES[other]()
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_hand_written_equalities_compare_every_field():
    # FieldLevel, CharExp and GaloisOrbit compare without the generic base.
    # Any two fields of a level fix the third, so each level below shares one
    # field with LEVEL = (3, 2, 8) and differs in the other two.
    for other in (field_level(9, 1), field_level(3, 1), field_level(2, 2)):
        assert LEVEL != other and other != LEVEL
    assert FieldLevel(3, 2, 8) == LEVEL and FieldLevel(3, 2, 8) is not LEVEL
    same_M = field_level(9, 1)   # M = 8 as well
    assert CharExp(FieldLevel(3, 2, 8), 3) == char(LEVEL, 3) != char(LEVEL, 5)
    assert CharExp(same_M, 3) != char(LEVEL, 3)
    orbit = orbit_of(char(LEVEL, 1))
    assert GaloisOrbit(FieldLevel(3, 2, 8), orbit.members) == orbit != orbit_of(char(LEVEL, 5))
    assert GaloisOrbit(same_M, orbit.members) != orbit
    for record in (LEVEL, char(LEVEL, 3), orbit):
        assert record.__eq__(None) is NotImplemented


def test_reprs_name_the_fields():
    assert repr(field_level(3, 2)) == "FieldLevel(Q=3, deg=2)"
    assert repr(DiscreteSeriesShape(1, 2, 3, 4)) == "DiscreteSeriesShape(f=1, t=2, s=3, r=4)"
    assert repr(char(LEVEL, 3)) == "CharExp(level=FieldLevel(Q=3, deg=2), a=3)"
    assert repr(CyclotomicSum(3, ((1, -1),))) == "CyclotomicSum(modulus=3, coeffs=((1, -1),))"
