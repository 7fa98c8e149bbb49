"""The immutable value classes: equality, hashing and immutability.

Each is equal only to an instance of its own class with equal fields, hashes
as the tuple of its fields, and refuses assignment after ``__init__``.
"""

from fractions import Fraction

import pytest

from facalc import levels, novikov
from facalc.errors import FacalcError, ObjectMismatch
from facalc.filtquiver import HomElement, HomGenerator
from facalc.levels import INFINITY, Level
from facalc.morphisms import ConvergenceResult
from facalc.tcoalg import TensorElement, TruncWindow, Word

G = HomGenerator("g", "X", "Y", 1, levels.rat(0))
H = HomGenerator("h", "Y", "X", 0, levels.rat(1))
ONE, TWO = novikov.one(), novikov.monomial(2, 1, 0)
GH = Word.from_gens([G, H])

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
    "HomElement": (HomElement("X", "Y", [(G, TWO)]), HomElement("X", "Y", [(G, ONE)])),
    "TensorElement": (
        TensorElement("X", "X", [(GH, TWO), (Word("X"), ONE)]),
        TensorElement("X", "X", [(GH, TWO)]),
    ),
}


# The repr of the first instance of each case: field by field, except for
# the custom reprs of Level, NovikovScalar and the two element classes.
REPRS = {
    "Level": "Level(rat:1/2)",
    "NovikovScalar": "NovikovScalar('2*T^{1}*e^{0}', nov)",
    "HomGenerator": "HomGenerator(gid='g', src='X', dst='Y', sdeg=1, base_level=Level(rat:0))",
    "TruncWindow": "TruncWindow(max_len=3, cutoff=Level(rat:2))",
    "ConvergenceResult": "ConvergenceResult(kind='true', order=2)",
    "HomElement": "HomElement((2*T^{1}*e^{0})*g)",
    "TensorElement": "TensorElement((1*T^{0}*e^{0})*Word([]@X) + (2*T^{1}*e^{0})*Word(g.h))",
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr(name):
    assert repr(CASES[name][0]) == REPRS[name]


def test_custom_level_and_scalar_reprs():
    assert repr(INFINITY) == "Level(inf)"
    assert repr(levels.discrete("inf")) == "Level(discrete:inf)"
    assert repr(levels.ratplus(0)) == "Level(ratplus:0)"
    assert repr(novikov.zero("q")) == "NovikovScalar('0', q)"
    assert repr(ConvergenceResult("undecided")) == "ConvergenceResult(kind='undecided', order=None)"


def test_zero_element_reprs():
    assert repr(HomElement("X", "Y")) == "HomElement(0: X->Y)"
    assert repr(TensorElement("X", "Y")) == "TensorElement(0: X->Y)"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: HomElement("X", "X", [(G, ONE)]), "term 'g': (X,Y) does not match hom (X,X)"),
        (lambda: TensorElement("X", "Y", [(GH, ONE)]), "word Word(g.h) does not run 'X' -> 'Y'"),
        (
            lambda: HomElement.from_gen(G, ONE).add(HomElement.from_gen(H, ONE)),
            "adding hom elements with different endpoints",
        ),
        (
            lambda: TensorElement.from_word(GH, ONE).add(TensorElement.from_hom(HomElement.from_gen(G, ONE))),
            "adding tensor elements with different endpoints",
        ),
    ],
)
def test_element_endpoint_mismatches(build, message):
    with pytest.raises(ObjectMismatch) as exc:
        build()
    assert str(exc.value) == message


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
