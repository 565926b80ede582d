"""The value records' behaviour: repr, equality and hashing, immutability,
pickling and the normalisation their constructors do."""

import pickle
from fractions import Fraction

import pytest

from frobcm.arith import HilbertSeries, Polynomial
from frobcm.invariants import (
    ConvergenceCheck,
    ConvergenceReport,
    FiniteQEstimates,
    InvariantReport,
)
from frobcm.mcm import ScrollSyzygy, SummandClass
from frobcm.oracle import ColengthResult
from frobcm.pushforward import ClassModule, Decomposition
from frobcm.rings import FrobeniusContext, RingFamily, scroll, scroll21, veronese2

S3 = "RingFamily(kind='scroll', delta=3)"
CTX = "FrobeniusContext(p=3, e=1)"
DEC = (
    f"Decomposition(family={S3}, ctx={CTX}, route='residue_classes', "
    "multiplicities=(('M(0)', 9), ('M(1)', 9), ('M(2)', 9)))"
)
REPORT = f"InvariantReport(family={S3}, s=Fraction(1, 3), ehk=Fraction(2, 1))"
CHECK = (
    "ConvergenceCheck(q=3, name='s', estimate=Fraction(1, 3), "
    "limit=Fraction(1, 3), bound=Fraction(4, 3), ok=True)"
)


def _decomposition():
    ctx = FrobeniusContext(3, 1)
    counts = (("M(0)", 9), ("M(1)", 9), ("M(2)", 9))
    return Decomposition(scroll(3), ctx, "residue_classes", counts)


def _check():
    return ConvergenceCheck(3, "s", Fraction(1, 3), Fraction(1, 3), Fraction(4, 3), True)


# (build, a field name, the exact repr); build() makes a new instance per call
RECORDS = [
    (lambda: Polynomial((1, 2, 0)), "coefficients", "Polynomial(coefficients=(1, 2))"),
    (
        lambda: HilbertSeries(Polynomial((1, 3)), 3),
        "pole_order",
        "HilbertSeries(numerator=Polynomial(coefficients=(1, 3)), pole_order=3, base=1)",
    ),
    (lambda: FrobeniusContext(3, 2), "e", "FrobeniusContext(p=3, e=2)"),
    (lambda: RingFamily("scroll", 3), "delta", S3),
    (
        lambda: SummandClass(scroll(3), "M(1)", 2, 1, 3, Fraction(1, 3), None),
        "mu",
        f"SummandClass(family={S3}, tag='M(1)', mu=2, rank=1, beta1=3, "
        "density=Fraction(1, 3), series=None)",
    ),
    (
        lambda: ScrollSyzygy((2, 1), 1, (3, 0), 2),
        "plus_basis",
        "ScrollSyzygy(plus_monomial=(2, 1), plus_basis=1, "
        "minus_monomial=(3, 0), minus_basis=2)",
    ),
    (
        lambda: ClassModule(scroll(3), FrobeniusContext(3, 1), (1, 0), ((1, 2), (4, 0))),
        "residue",
        f"ClassModule(family={S3}, ctx={CTX}, residue=(1, 0), "
        "generators=((1, 2), (4, 0)))",
    ),
    (_decomposition, "route", DEC),
    (
        lambda: InvariantReport(scroll(3), Fraction(1, 3), Fraction(2)),
        "s",
        REPORT,
    ),
    (
        lambda: FiniteQEstimates(
            scroll(3), FrobeniusContext(3, 1), _decomposition(),
            Fraction(1, 3), Fraction(2), None,
        ),
        "s_est",
        f"FiniteQEstimates(family={S3}, ctx={CTX}, decomposition={DEC}, "
        "s_est=Fraction(1, 3), ehk_est=Fraction(2, 1), canonical_est=None)",
    ),
    (_check, "ok", CHECK),
    (
        lambda: ConvergenceReport(scroll(3), (_check(),)),
        "checks",
        f"ConvergenceReport(family={S3}, checks=({CHECK},))",
    ),
    (
        lambda: ColengthResult(scroll(3), FrobeniusContext(3, 1), 45, Fraction(5, 1)),
        "colength",
        f"ColengthResult(family={S3}, ctx={CTX}, colength=45, normalized=Fraction(5, 1))",
    ),
]

IDS = [expected.split("(", 1)[0] for _, _, expected in RECORDS]


@pytest.mark.parametrize(("build", "field", "expected"), RECORDS, ids=IDS)
def test_record_repr_equality_and_hash(build, field, expected):
    a, b = build(), build()
    assert repr(a) == expected
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert not a != b


@pytest.mark.parametrize(("build", "field", "expected"), RECORDS, ids=IDS)
def test_record_is_immutable(build, field, expected):
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


@pytest.mark.parametrize(("build", "field", "expected"), RECORDS, ids=IDS)
def test_record_pickles(build, field, expected):
    record = build()
    back = pickle.loads(pickle.dumps(record))
    assert back == record and hash(back) == hash(record)
    assert repr(back) == expected


@pytest.mark.parametrize(
    ("bare", "constructor"),
    [
        (RingFamily("scroll", 3), lambda: scroll(3)),
        (RingFamily("scroll21"), scroll21),
        (RingFamily("veronese2"), veronese2),
    ],
    ids=["scroll:3", "scroll21", "veronese2"],
)
def test_bare_family_unpickles_as_the_constructors_family(bare, constructor):
    back = pickle.loads(pickle.dumps(bare))
    family = constructor()
    assert back == family
    assert back.label == family.label


# The records whose fields the base constructor sets with no __init__ of their own
FIELD_ONLY = (
    SummandClass,
    ScrollSyzygy,
    ClassModule,
    Decomposition,
    InvariantReport,
    FiniteQEstimates,
    ConvergenceCheck,
    ConvergenceReport,
    ColengthResult,
)
SAMPLES = {type(build()): build for build, _, _ in RECORDS}


@pytest.mark.parametrize("cls", FIELD_ONLY, ids=lambda cls: cls.__name__)
def test_field_only_record_constructor(cls):
    assert "__init__" not in cls.__dict__
    fields = cls.__slots__
    values = tuple(getattr(SAMPLES[cls](), name) for name in fields)
    record = cls(*values)
    assert cls(**dict(zip(fields, values))) == record
    assert cls(values[0], **dict(zip(fields[1:], values[1:]))) == record
    with pytest.raises(TypeError, match=f"missing field {fields[-1]!r}"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=f"takes {len(fields)} fields"):
        cls(*values, values[-1])
    with pytest.raises(TypeError, match="no field 'colour'"):
        cls(*values, colour="red")
    with pytest.raises(TypeError, match=f"two values for field {fields[0]!r}"):
        cls(*values, **{fields[0]: values[0]})


def test_records_of_different_types_differ():
    assert FrobeniusContext(3, 1) != (3, 1)
    assert Polynomial((1,)) != (1,)
    assert RingFamily("scroll", 3) != RingFamily("scroll", 4)
    assert FrobeniusContext(3, 1) != FrobeniusContext(3, 2)


def test_polynomial_trims_trailing_zeros():
    assert Polynomial((1, 2, 0, 0)).coefficients == (1, 2)
    assert Polynomial([0, 0]).coefficients == ()
    assert Polynomial() == Polynomial(())
    assert Polynomial(coefficients=(3, 0)) == Polynomial((3,))


def test_hilbert_series_reduces_to_canonical_form():
    # (1 - t^2) / (1 - t^2)^2 is 1 / (1 - t^2)
    series = HilbertSeries(Polynomial((1, 0, -1)), 2, base=2)
    assert (series.numerator, series.pole_order, series.base) == (Polynomial((1,)), 1, 2)
    # with no pole left the base is 1
    series = HilbertSeries(Polynomial((1, 0, -1)), 1, 2)
    assert (series.numerator, series.pole_order, series.base) == (Polynomial((1,)), 0, 1)
    # the zero series has pole order 0 and base 1
    zero = HilbertSeries(Polynomial(), 3, base=2)
    assert (zero.numerator, zero.pole_order, zero.base) == (Polynomial(), 0, 1)
    assert HilbertSeries(Polynomial((2, -2)), 4) == HilbertSeries(Polynomial((2,)), 3)
