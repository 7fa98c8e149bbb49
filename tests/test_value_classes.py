"""The immutable value classes: equality, hashing and immutability.

Each is equal only to an instance of its own class with equal fields, hashes
as the tuple of its fields, and refuses assignment after ``__init__``.
"""

from fractions import Fraction

import pytest

from facalc import levels, novikov
from facalc.errors import FacalcError
from facalc.filtquiver import HomGenerator
from facalc.levels import INFINITY, Level
from facalc.morphisms import ConvergenceResult
from facalc.tcoalg import TruncWindow

# (instance, an instance of the same class that differs in one field)
CASES = {
    "Level": (levels.rat(Fraction(1, 2)), levels.rat(1)),
    "NovikovScalar": (novikov.monomial(2, 1, 0), novikov.monomial(2, 1, 1)),
    "HomGenerator": (
        HomGenerator("g", "X", "Y", 1, levels.rat(0)),
        HomGenerator("g", "X", "Y", 2, levels.rat(0)),
    ),
    "TruncWindow": (TruncWindow(3, levels.rat(2)), TruncWindow(3, levels.rat(3))),
    "ConvergenceResult": (ConvergenceResult("true", 2), ConvergenceResult("undecided")),
}


def fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x).__slots__)


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_and_hash_as_the_field_tuple(name):
    x, other = CASES[name]
    rebuilt = type(x)(*fields(x))
    assert rebuilt is not x
    assert rebuilt == x and not rebuilt != x
    assert hash(rebuilt) == hash(x) == hash(fields(x))
    assert x != other
    assert x != fields(x) and fields(x) != x
    assert x.__eq__(fields(x)) is NotImplemented
    assert len({x, rebuilt, other}) == 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_cannot_be_assigned_or_deleted(name):
    x, other = CASES[name]
    before = fields(x)
    for field in type(x).__slots__:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert fields(x) == before


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: HomGenerator("g", "X", "X", 0, INFINITY), "generator 'g' cannot have infinite base level"),
        (lambda: TruncWindow(-1, levels.rat(1)), "window max_len must be >= 0"),
        (lambda: TruncWindow(2, INFINITY), "window cutoff must belong to a level instance"),
        (lambda: TruncWindow(2, Level("other", Fraction(1))), "window cutoff must belong to a level instance"),
        (lambda: TruncWindow(2, levels.rat(0)), "window cutoff must be positive"),
        (lambda: TruncWindow(2, levels.discrete(0)), "window cutoff must be positive"),
    ],
)
def test_constructor_checks(build, message):
    with pytest.raises(FacalcError) as exc:
        build()
    assert str(exc.value) == message
