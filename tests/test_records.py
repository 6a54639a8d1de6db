"""The record types: immutable named tuples, validated where they were
validated before, and picklable.  test_pickle_round_trip guards the
library records' own pickling for callers that send them between
processes; no CLI path uses it, since scan workers send their CLI record
dicts as marshal frames."""

import pickle
from fractions import Fraction

import pytest

from isodescent import cli
from isodescent.descent import CurveModel, RankBounds
from isodescent.family import verify_prime
from isodescent.local import Place, QuarticForm
from isodescent.points import CurvePoint, HomSpacePoint


def _records():
    """One instance of every record type."""
    report = verify_prime(1217, 60)  # has a 3p-witness and a proposition
    return [
        QuarticForm(3, 1, 294),
        Place(7),
        Place(None),
        CurveModel(0, 18 * 49),
        CurvePoint(2, 4),
        CurvePoint.identity(),
        HomSpacePoint(1, Fraction(1, 2), Fraction(5, 4)),
        report,
        report.prime_class,
        report.engine_psibar,
        report.theorem_bound,
        report.repr_3p,
        report.proposition,
        report.rank_bounds,
        cli.parse_args(["scan", "--max", "30", "--jobs", "2"]),
    ]


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: CurveModel(1, 0), "curve requires b != 0"),
        (lambda: CurveModel(2, 1), "singular curve: a^2 = 4b"),
        (lambda: QuarticForm(0, 1, 1), "quartic form requires d1 != 0 and d2 != 0"),
        (lambda: QuarticForm(1, 2, 1), "degenerate quartic form: c^2 = 4*d1*d2"),
        (lambda: Place(4), "finite place must be prime, got 4"),
        (
            lambda: HomSpacePoint(1, Fraction(0), Fraction(1)),
            "homogeneous space point requires z != 0",
        ),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_every_record_type_is_covered():
    names = {type(r).__name__ for r in _records()}
    assert len(names) == 13


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_pickle_round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is type(record)


def test_named_tuple_surface():
    E = CurveModel(0, 18 * 49)
    assert E == (0, 18 * 49)
    assert E._asdict() == {"a": 0, "b": 18 * 49}
    assert repr(E) == "CurveModel(a=0, b=882)"
    assert QuarticForm._fields == ("d1", "c", "d2")


def test_bounds_column_order():
    assert cli._BOUNDS == (
        "dim_selmer_psibar",
        "dim_selmer_psi",
        "dim_im_alpha",
        "dim_im_alphabar",
        "lower",
        "upper",
    )
    assert RankBounds._fields == cli._BOUNDS
