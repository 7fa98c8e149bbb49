"""Partially ordered commutative monoids of filtration levels.

Three built-in instances index all filtrations in this package:

* ``rat``      -- the rationals under addition (a directed group),
* ``ratplus``  -- the nonnegative rationals,
* ``discrete`` -- the two-element monoid {0, inf} with 0 < inf.

A formal top element ``INFINITY`` is adjoined to every instance; it is the
level of a zero element, absorbs addition and dominates every level.

The contract any instance satisfies: addition is associative and commutative
with unit zero and is monotone in each argument; the order is directed both
ways; for all a, b there is c with a + c >= b (``dominate`` returns one such
witness); and the strictly positive part is non-empty (1 in ``rat`` and
``ratplus``, inf in ``discrete``).  Downstream code must not depend on which
witness ``dominate`` picks.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Optional, Union

from .errors import FacalcError, InstanceMismatch

RAT = "rat"
RATPLUS = "ratplus"
DISCRETE = "discrete"
_INF = "inf"

RationalLike = Union[int, str, Fraction]


class Frozen:
    """Base of the immutable value classes, which name their fields in
    ``__slots__``.  ``__init__`` sets each field once through ``_set``;
    assigning or deleting a field afterwards raises ``AttributeError``.  An
    instance is equal only to an instance of its own class with equal
    fields, hashes as the tuple of its fields and prints them by name."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = operator.attrgetter(*cls.__slots__)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _set(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Level(Frozen):
    """A filtration level: a tagged value in one of the built-in instances.

    ``value`` is a Fraction for finite levels and None for the infinite
    element (the top of the ``discrete`` instance and the formal INFINITY).
    Equal only to a Level with equal fields.
    """

    __slots__ = ("instance", "value")

    def __init__(self, instance: str, value: Optional[Fraction]):
        self._set(instance, value)

    def is_infinite(self) -> bool:
        return self.value is None

    def __repr__(self) -> str:
        if self.instance == _INF:
            return "Level(inf)"
        v = "inf" if self.value is None else str(self.value)
        return f"Level({self.instance}:{v})"


INFINITY = Level(_INF, None)


def rat(x: RationalLike) -> Level:
    return Level(RAT, Fraction(x))


def ratplus(x: RationalLike) -> Level:
    q = Fraction(x)
    if q < 0:
        raise FacalcError(f"ratplus level must be >= 0, got {q}")
    return Level(RATPLUS, q)


def discrete(x) -> Level:
    if x in (0, "0", Fraction(0)):
        return Level(DISCRETE, Fraction(0))
    if x in ("inf", None):
        return Level(DISCRETE, None)
    raise FacalcError(f"discrete level must be 0 or 'inf', got {x!r}")


def make_level(instance: str, x: RationalLike) -> Level:
    if instance == RAT:
        return rat(x)
    if instance == RATPLUS:
        return ratplus(x)
    if instance == DISCRETE:
        # Rational inputs land on 0; anything else must be the top element.
        q = Fraction(x) if not isinstance(x, str) or x != "inf" else None
        if q == 0:
            return discrete(0)
        if q is None:
            return discrete("inf")
        raise FacalcError(f"discrete instance has no level {x!r}")
    raise FacalcError(f"unknown level instance {instance!r}")


def _join_instance(a: Level, b: Level) -> str:
    if a.instance == _INF:
        return b.instance
    if b.instance == _INF or a.instance == b.instance:
        return a.instance
    raise InstanceMismatch(f"levels from instances {a.instance!r} and {b.instance!r}")


def level_add(a: Level, b: Level) -> Level:
    """Monoid sum.  INFINITY absorbs; instances must agree."""
    inst = _join_instance(a, b)
    if a.value is None or b.value is None:
        return INFINITY if inst == _INF else Level(inst, None) if inst == DISCRETE else INFINITY
    return Level(inst, a.value + b.value)


def level_leq(a: Level, b: Level) -> bool:
    """True iff a <= b.  INFINITY is the top element of every instance."""
    _join_instance(a, b)
    if b.value is None:
        return True
    if a.value is None:
        return False
    return a.value <= b.value


def level_min(a: Level, b: Level) -> Level:
    return a if level_leq(a, b) else b


def dominate(a: Level, b: Level) -> Level:
    """A witness c with a + c >= b.

    Canonical picks: b - a in the group instance, max(b - a, 0) in ratplus,
    and the 4-case table in discrete.  Other witnesses would be equally
    valid; callers may only rely on the inequality.
    """
    if a.instance == _INF:
        raise FacalcError("dominate is not defined for the formal INFINITY")
    inst = _join_instance(a, b)
    if inst == RAT:
        if b.value is None:
            return INFINITY
        return Level(RAT, b.value - a.value)
    if inst == RATPLUS:
        if b.value is None:
            return INFINITY
        if a.value is None:
            return Level(RATPLUS, Fraction(0))
        return Level(RATPLUS, max(b.value - a.value, Fraction(0)))
    if inst == DISCRETE:
        if a.value == 0 and b.value is None:
            return discrete("inf")
        return discrete(0)
    raise InstanceMismatch(f"unknown instance {inst!r}")


def _steps(start: Level, step: Level, cutoff: Level) -> Optional[int]:
    """The least m >= 0 with start + m*step >= cutoff, or None when start
    is below cutoff and step <= 0, so that no m reaches it."""
    if level_leq(cutoff, start):
        return 0
    if step.value is None:
        return 1
    if step.value <= 0:
        return None
    return math.ceil((cutoff.value - start.value) / step.value)


def zero(instance: str) -> Level:
    if instance == DISCRETE:
        return discrete(0)
    if instance in (RAT, RATPLUS):
        return Level(instance, Fraction(0))
    raise FacalcError(f"unknown level instance {instance!r}")
