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
TOP = level(PARAMS, 7 * PARAMS.n_prime)   # the level of every lift over PARAMS

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
    CommandResult: lambda: CommandResult(2, None, "NotPrime", "p=4 is not prime"),
    Criterion: lambda: Criterion("1_stub", 1.0, str),
}
RECORDS = list(SAMPLES)


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


def taken(record) -> tuple:
    """The values of the leading fields, the ones the constructor takes."""
    return tuple(getattr(record, name) for name in type(record)._init_fields)


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
    values = taken(record)
    # the constructor takes the leading fields in slot order, by position or by name
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__[: len(values)])
    positional, keyword = cls(*values), cls(**dict(zip(cls._init_fields, values)))
    assert positional is not record
    assert positional == record == keyword
    assert fields(positional) == fields(record)
    assert not positional != keyword
    assert hash(positional) == hash(record) == hash(keyword)
    assert record != values
    for other in RECORDS:
        if other is not cls:
            assert record != SAMPLES[other]()
            assert not record == SAMPLES[other]()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and fields(twin) == fields(record)


def test_records_derive_what_their_inputs_fix():
    derived = {cls: cls.__slots__[len(cls._init_fields):] for cls in RECORDS if cls._init_fields != cls.__slots__}
    assert derived == {
        FieldLevel: ("M",),
        TowerParams: ("g", "n", "Q", "d_prime", "m_prime", "n_prime"),
        RectifierSpec: ("w", "v", "u", "y", "mu"),
        RegularizationLift: ("ell", "beta"),
        CommandResult: ("status",),
    }
    assert sum(len(cls._init_fields) for cls in RECORDS) == 43
    # a derived value is never an argument
    lift, spec = SAMPLES[RegularizationLift](), rectifier(PARAMS)
    for call in (
        lambda: FieldLevel(3, 2, 9),
        lambda: TowerParams(3, 3, 2, 1, 1, 4, 2, 4, 3, 2, 1, 3),
        lambda: derive_tower(3, 3, 2, 1, 1, 4, g=2),
        lambda: RectifierSpec(PARAMS, spec.w, spec.v, spec.u, spec.y, spec.mu),
        lambda: RegularizationLift(lift.a, lift.ell, lift.beta, lift.alpha_star, lift.certificate),
        lambda: CommandResult("error", None, "NotPrime", "p=4 is not prime", 2),
    ):
        with pytest.raises(TypeError):
            call()
    assert derive_tower is TowerParams
    assert rectifier is RectifierSpec
    assert cyclotomic_sum is CyclotomicSum


def test_a_lift_reads_ell_from_its_certificate():
    lift = regularize(char(LEVEL, 3), PARAMS)
    assert lift.ell == lift.certificate.ell == 547 and lift.alpha_star.a != 0
    assert lift.beta == lift.alpha_star * char(TOP, TOP.M // 547)
    # a certificate with another ell moves both derived fields with it
    forged = RegularizationLift(lift.a, lift.alpha_star, ZsigmondyCertificate(2, 14, 43, ()))
    assert (forged.ell, forged.beta) == (43, lift.alpha_star * char(TOP, TOP.M // 43))


def test_status_follows_the_exit_code():
    assert [CommandResult(code, None, None, None).status for code in (0, 1, 2, 3)] == ["ok"] + ["error"] * 3
    assert CommandResult(3, None, "InternalError", "RuntimeError: boom").document() == {
        "status": "error", "error_kind": "InternalError", "message": "RuntimeError: boom"}


# records with a constructor of their own, which checks or derives fields, with
# another admitted value for each field that the constructor takes; any value is
# admitted by the others' generated constructors
WRITTEN = {
    FieldLevel: {"Q": 2, "deg": 3},
    TowerParams: {"q": 9, "e_ef": 4, "f_ef": 2, "m": 2, "d": 2},   # p is fixed by q: q = 3 is a power of 3 only
    CharExp: {"level": field_level(9, 1), "a": 5},   # field_level(9, 1) has M = 8 as well
    RectifierSpec: {"params": derive_tower(3, 3, 1, 1, 2, 1)},
    RegularizationLift: {"a": 3, "alpha_star": char(TOP, 0), "certificate": zsigmondy_prime(2, 14)[1]},
    TamePairClass: {"beta": char(LEVEL, 1)},
    CyclotomicSum: {"modulus": 5, "coeffs": ((1, -2),)},
    CommandResult: {"exit_code": 0, "payload": {}, "error_kind": "UsageError", "message": "m"},
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_field_takes_part_in_equality_and_hash(cls):
    record = SAMPLES[cls]()
    values = dict(zip(cls._init_fields, taken(record)))
    assert hash(record) == hash(fields(record))
    for name in WRITTEN.get(cls, cls._init_fields):
        changed = cls(**dict(values, **{name: WRITTEN.get(cls, {}).get(name, object())}))
        assert getattr(changed, name) != values[name]
        assert record != changed and changed != record
        assert not record == changed
    assert record.__eq__(object()) is NotImplemented
    assert record.__eq__(fields(record)) is NotImplemented


def test_level_equality_compares_every_field():
    # each level below shares one field with LEVEL = (3, 2, 8) and differs in the other two
    for other in (field_level(9, 1), field_level(3, 1), field_level(2, 2)):
        assert LEVEL != other and other != LEVEL
    assert FieldLevel(3, 2) == LEVEL and FieldLevel(3, 2) is not LEVEL


def test_only_checking_or_deriving_records_write_a_constructor():
    # every record has an __init__ of its own and a _fill compiled from source that
    # names the record; a hand-written __init__ comes from the record's module
    assert all("__init__" in cls.__dict__ for cls in RECORDS)
    hand_written = {cls for cls in RECORDS if cls.__init__.__code__.co_filename == inspect.getfile(cls)}
    assert hand_written == set(WRITTEN)
    for cls in RECORDS:
        assert cls._fill.__code__.co_filename == f"<{cls.__qualname__} record>"
        assert (cls.__init__ is cls._fill) == (cls not in hand_written)


# every constructor, generated or written, binds its arguments as a function does
@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_generated_constructor_refuses_missing_and_unknown_arguments(cls):
    values = taken(SAMPLES[cls]())
    keywords = dict(zip(cls._init_fields, values))
    with pytest.raises(TypeError, match="missing 1 required positional argument"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match="takes"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(**keywords, extra=None)
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{cls.__slots__[0]}'"):
        cls(**dict(list(keywords.items())[1:]))


def test_reprs_name_the_fields():
    assert repr(field_level(3, 2)) == "FieldLevel(Q=3, deg=2)"
    assert repr(PARAMS) == "TowerParams(p=3, q=3, e_ef=2, f_ef=1, m=1, d=4)"
    assert repr(DiscreteSeriesShape(1, 2, 3, 4)) == "DiscreteSeriesShape(f=1, t=2, s=3, r=4)"
    assert repr(char(LEVEL, 3)) == "CharExp(level=FieldLevel(Q=3, deg=2), a=3)"
    assert repr(CyclotomicSum(3, ((1, -1),))) == "CyclotomicSum(modulus=3, coeffs=((1, -1),))"
    assert repr(CyclotomicSum(3, [(4, -1), (2, 0)])) == "CyclotomicSum(modulus=3, coeffs=((1, -1),))"
    assert repr(CommandResult(0, {}, None, None)) == "CommandResult(exit_code=0, payload={}, error_kind=None, message=None)"
