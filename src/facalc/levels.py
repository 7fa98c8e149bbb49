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
import re
import sys
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
        # ``_set(self, *fields)`` calls each slot's setter in turn, written
        # out once per class, as ``dataclasses`` writes its ``__init__``.
        setters = {f"_{name}": cls.__dict__[name].__set__ for name in cls.__slots__}
        calls = "; ".join(f"_{name}(self, {name})" for name in cls.__slots__)
        namespace: dict = {}
        exec(f"def _set(self, {', '.join(cls.__slots__)}): {calls}", setters, namespace)
        cls._set = namespace["_set"]

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
    return Level(RAT, x if type(x) is Fraction else Fraction(x))


def ratplus(x: RationalLike) -> Level:
    q = x if type(x) is Fraction else Fraction(x)
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


# A written level: an integer or p/q, as in scalars, or a JSON number; q is
# not zero, and every digit is ASCII.
_WRITTEN = re.compile(
    r"-?(?:(?P<p>[0-9]+)(?:/(?P<q>[0-9]*[1-9][0-9]*))?"
    r"|(?P<int>0|[1-9][0-9]*)(?:\.(?P<frac>[0-9]+))?(?:[eE][+-]?(?P<exp>[0-9]+))?)"
)


def past_digit_bound(n: int) -> bool:
    """Whether n decimal digits are more than ``sys.get_int_max_str_digits()``,
    the most digits Python reads or prints an int with (0 sets no bound)."""
    limit = sys.get_int_max_str_digits()
    return bool(limit) and n > limit


def check_digits(*counts: int) -> None:
    """Raise if a count of decimal digits is past the bound
    (``past_digit_bound``), so that a number facalc reads is built at once
    and can be printed."""
    if past_digit_bound(max(counts)):
        raise FacalcError(f"a number of more than {sys.get_int_max_str_digits()} digits")


def read_level(instance: str, text: str) -> Level:
    """The level ``text`` writes in ``instance``, the one reader of a level
    written in a structure file or in ``--window``: ``p`` or ``p/q``, a JSON
    number read as the decimal it prints (``0.1`` is 1/10, ``1e-05`` is
    1/100000), or ``inf`` on ``discrete``, whose numbers must equal 0.
    Spaces, ``_``, a leading ``+`` and digits other than ASCII are errors,
    and so is a number of more digits than ``check_digits`` allows: p's or
    q's, or a JSON number's digits plus the size of its exponent, which
    bounds the digits of the fraction it writes."""
    m = _WRITTEN.fullmatch(text)
    if m is not None:
        if m["int"] is None:
            check_digits(len(m["p"]), len(m["q"] or ""))
        else:
            # An exponent of ten digits or more implies more digits than
            # any bound in use, and is not read.
            exp = (m["exp"] or "").lstrip("0")
            size = int(exp or 0) if len(exp) < 10 else sys.maxsize
            check_digits(len(m["int"]) + len(m["frac"] or "") + size)
        return make_level(instance, text)
    if instance == DISCRETE and text == _INF:
        return make_level(instance, text)
    raise FacalcError(f"expected p/q or a JSON number, got {text!r}")


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
    # Both are finite, so both are in inst: a zero returns the other.
    if not a.value:
        return b
    if not b.value:
        return a
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


_ZEROS = {instance: Level(instance, Fraction(0)) for instance in (RAT, RATPLUS, DISCRETE)}


def zero(instance: str) -> Level:
    """The zero of instance, built once."""
    if instance not in _ZEROS:
        raise FacalcError(f"unknown level instance {instance!r}")
    return _ZEROS[instance]
