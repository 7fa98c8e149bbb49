"""Exact arithmetic in truncated universal Novikov rings over the rationals.

A scalar is a finite sum of monomials ``a * T^lambda * e^n`` with rational
coefficient ``a``, rational energy ``lambda`` and integer exponent ``n``.
``T`` has degree 0 and carries the energy filtration; ``e`` is invertible of
degree 2, so every scalar is concentrated in even degrees and the ring is
strictly commutative.

Three variants are supported:

* ``nov``  -- arbitrary rational energies (filtered over the ``rat`` instance),
* ``nov0`` -- energies >= 0 (the subring, filtered over ``ratplus`` or ``rat``),
* ``q``    -- plain rationals: T and e do not occur (energy 0, exponent 0),
  with the unit filtration (level 0 for nonzero scalars).

Completed infinite series are represented only through truncation: every
stored scalar is finite, and working modulo an energy cutoff models one stage
of the completion limit.

Every ``NovikovScalar`` is normal: terms strictly increasing in (energy,
exponent), nonzero ``Fraction`` coefficients, each term valid for the variant.
``scalar`` and ``parse_scalar`` are the only constructors that coerce and
validate raw input, each term once (``_valid``); the ring operations rely on
the invariant and do neither.
A sum of products (``nov_dot``, and ``nov_mul`` without a monomial factor)
is one integer multiply-accumulate that builds a ``Fraction`` only for what
survives; sums of parsed terms (``_merge``) stay on ``Fraction``.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence, Tuple

from . import levels
from .errors import FacalcError, VariantMismatch
from .levels import INFINITY, Frozen, Level

NOV = "nov"
NOV0 = "nov0"
PLAIN = "q"
VARIANTS = (NOV, NOV0, PLAIN)

Term = Tuple[Fraction, Fraction, int]  # (coefficient, energy, exponent)
_energy = itemgetter(1)


def _validate_term(variant: str, coeff: Fraction, energy: Fraction, expo: int) -> Term:
    if variant == NOV0 and energy < 0:
        raise FacalcError(f"variant 'nov0' requires energy >= 0, got {energy}")
    if variant == PLAIN and (energy != 0 or expo != 0):
        raise FacalcError("variant 'q' admits only T^0 e^0 terms")
    return coeff, energy, expo


class NovikovScalar(Frozen):
    """A normalized finite sum of monomials, sorted by (energy, exponent)."""

    __slots__ = ("terms", "variant")

    def __init__(self, terms: Tuple[Term, ...], variant: str):
        self._set(terms, variant)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"NovikovScalar({format_scalar(self)!r}, {self.variant})"


def scalar(terms: Iterable[tuple] = (), variant: str = NOV) -> NovikovScalar:
    """Build a scalar from raw (coeff, energy, expo) triples, normalizing."""
    return _valid(((Fraction(c), Fraction(lam), int(n)) for c, lam, n in terms), variant)


def _valid(terms: Iterable[Term], variant: str) -> NovikovScalar:
    """``_merge`` of terms of Fractions and ints, each checked, in order,
    against variant, once that is known to be one."""
    if variant not in VARIANTS:
        raise FacalcError(f"unknown coefficient variant {variant!r}")
    return _merge((_validate_term(variant, *term) for term in terms), variant)


def zero(variant: str = NOV) -> NovikovScalar:
    return scalar((), variant)


_ONES = {variant: NovikovScalar(((Fraction(1), Fraction(0), 0),), variant) for variant in VARIANTS}


def one(variant: str = NOV) -> NovikovScalar:
    """The unit of variant, built once; an unknown variant raises as in ``scalar``."""
    return _ONES[variant] if variant in _ONES else scalar([(1, 0, 0)], variant)


def monomial(coeff, energy=0, expo: int = 0, variant: str = NOV) -> NovikovScalar:
    return scalar([(coeff, energy, expo)], variant)


def _check_variant(x: NovikovScalar, y: NovikovScalar) -> str:
    if x.variant != y.variant:
        raise VariantMismatch(f"variants {x.variant!r} and {y.variant!r}")
    return x.variant


def _merge(terms: Iterable[Term], variant: str) -> NovikovScalar:
    """Sum valid terms of equal (energy, exponent), drop zeros and sort.

    Each entry is led by floor(energy * 2**53), an int that is monotone in
    the energy and compares far faster than a ``Fraction``; equal leads fall
    back to the exact energy and then the exponent, so the order is exact.
    """
    merged: dict = {}
    for c, lam, n in terms:
        num, den = lam.numerator, lam.denominator
        key = (num, den, n)
        if key in merged:
            merged[key][3] += c
        else:
            merged[key] = [(num << 53) // den, lam, n, c]
    kept = sorted(t for t in merged.values() if t[3])
    return NovikovScalar(tuple((c, lam, n) for _, lam, n, c in kept), variant)


def nov_add(x: NovikovScalar, y: NovikovScalar) -> NovikovScalar:
    variant = _check_variant(x, y)
    if not y.terms:
        return x
    if not x.terms:
        return y
    if len(x.terms) == 1 == len(y.terms):
        (cx, lx, nx), = x.terms
        (cy, ly, ny), = y.terms
        if nx == ny and lx == ly:
            # Two monomials of one (energy, exponent): their sum is normal.
            c = cx + cy
            return NovikovScalar(((c, lx, nx),) if c else (), variant)
    return _merge(x.terms + y.terms, variant)


def nov_neg(x: NovikovScalar) -> NovikovScalar:
    return NovikovScalar(tuple((-c, lam, n) for c, lam, n in x.terms), x.variant)


def nov_mul(x: NovikovScalar, y: NovikovScalar) -> NovikovScalar:
    variant = _check_variant(x, y)
    if len(x.terms) > len(y.terms):
        x, y = y, x
    if not x.terms:
        return x
    if len(x.terms) > 1:
        return nov_dot(((x, y),))
    # A monomial factor scales and shifts y term by term, which keeps y normal.
    (c, lam, n), = x.terms
    if not (lam or n) and c == 1:
        return y
    if len(y.terms) == 1:
        (cy, ly, ny), = y.terms
        if not (ly or ny) and cy == 1:
            return x
    if lam or n:
        return NovikovScalar(tuple((c * cy, lam + ly, n + ny) for cy, ly, ny in y.terms), variant)
    return NovikovScalar(tuple((c * cy, ly, ny) for cy, ly, ny in y.terms), variant)


def nov_dot(pairs: Sequence[Tuple[NovikovScalar, NovikovScalar]], variant: str = NOV) -> NovikovScalar:
    """The sum of x * y over pairs, zero of variant for none; it raises what
    the ``nov_add`` fold of the ``nov_mul`` products raises first.  One
    integer multiply-accumulate: coefficients and energies over the lcm of
    their denominators, summed by (energy, exponent), keys that sort as the
    energies do.  Only a surviving coefficient or energy becomes a Fraction."""
    variants = [_check_variant(x, y) for x, y in pairs]
    for v in variants:
        if v != variants[0]:
            raise VariantMismatch(f"variants {variants[0]!r} and {v!r}")
    if len(pairs) == 1 and min(len(pairs[0][0].terms), len(pairs[0][1].terms)) < 2:
        return nov_mul(*pairs[0])
    operands = [x.terms for pair in pairs for x in pair]
    cden = math.lcm(*{c.denominator for terms in operands for c, _, _ in terms})
    eden = math.lcm(*{lam.denominator for terms in operands for _, lam, _ in terms})
    ints = [[(c.numerator * (cden // c.denominator), lam.numerator * (eden // lam.denominator), n)
             for c, lam, n in terms] for terms in operands]
    acc: dict = {}
    for xs, ys in zip(ints[::2], ints[1::2]):
        for a, e, n in xs:
            for b, f, m in ys:
                key = (e + f, n + m)
                acc[key] = acc.get(key, 0) + a * b
    out, energies = [], {}
    for (e, n), v in sorted(acc.items()):
        if v:
            if e not in energies:
                energies[e] = Fraction(e, eden)
            out.append((Fraction(v, cden * cden), energies[e], n))
    return NovikovScalar(tuple(out), variants[0] if pairs else variant)


def nov_rat_mul(q, x: NovikovScalar) -> NovikovScalar:
    q = Fraction(q)
    if not q:
        return NovikovScalar((), x.variant)
    return NovikovScalar(tuple((q * c, lam, n) for c, lam, n in x.terms), x.variant)


def nov_level(x: NovikovScalar, instance: str) -> Level:
    """The largest l with x in F^l: the minimum energy, which is the first
    term's, since terms are sorted by energy; INFINITY for 0."""
    if x.is_zero():
        return INFINITY
    return levels.make_level(instance, x.terms[0][1])


def nov_truncate(x: NovikovScalar, cutoff: Level) -> NovikovScalar:
    """Drop the part of x lying in F^cutoff: the monomials of energy >=
    the cutoff's value, none for an infinite one.  x is sorted by energy,
    so the kept part is a prefix; x itself when nothing drops.  An energy
    the cutoff's instance has no level for (a negative one in ``ratplus``,
    a nonzero one in ``discrete``) raises as ``levels.make_level`` does."""
    terms = x.terms
    if not terms:
        return x
    inst = cutoff.instance
    if inst == levels.RATPLUS:
        bad = terms[0][1] < 0
    elif inst == levels.DISCRETE:
        bad = any(lam for _, lam, _ in terms)
    else:
        bad = inst != levels.RAT
    if bad:
        for _, lam, _ in terms:
            levels.make_level(inst, lam)
    limit = cutoff.value
    if limit is None or terms[-1][1] < limit:
        return x
    return NovikovScalar(terms[:bisect_left(terms, limit, key=_energy)], x.variant)


# Textual monomial syntax: "a*T^{p/q}*e^{n}", sums joined by "+", "0" for zero.
# A denominator q has a nonzero digit, so that a zero one is a parse error;
# every digit is ASCII.

_MONOMIAL_RE = re.compile(
    r"^(?P<coeff>-?[0-9]+(?:/[0-9]*[1-9][0-9]*)?)"
    r"(?:\*T\^\{(?P<energy>-?[0-9]+(?:/[0-9]*[1-9][0-9]*)?)\})?"
    r"(?:\*e\^\{(?P<expo>-?[0-9]+)\})?$"
)


def parse_scalar(text: str, variant: str = NOV) -> NovikovScalar:
    text = text.strip()
    if text == "0":
        return zero(variant)
    terms = []
    for part in text.split("+"):
        part = part.strip()
        m = _MONOMIAL_RE.match(part)
        if m is None:
            raise FacalcError(f"cannot parse scalar monomial {part!r}")
        # _MONOMIAL_RE has validated each number: read its parts with int,
        # once none has too many digits, which only a monomial longer than
        # the bound can have.
        (cn, _, cd), (en, _, ed) = (t.partition("/") for t in (m.group("coeff"), m.group("energy") or "0"))
        expo = m.group("expo") or "0"
        if levels.past_digit_bound(len(part)):
            levels.check_digits(*(len(t.lstrip("-")) for t in (cn, cd, en, ed, expo)))
        terms.append((Fraction(int(cn), int(cd or 1)), Fraction(int(en), int(ed or 1)), int(expo)))
    return _valid(terms, variant)


def _frac_str(q: Fraction) -> str:
    """q as ``p`` or ``p/q``.  A result can hold a number past the digit
    bound (``levels.past_digit_bound``) though every input is within it,
    and printing it is then an error that names the bound."""
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:
        # The one ValueError of printing an int: it is past the bound.
        raise FacalcError(f"cannot print a number of more than {sys.get_int_max_str_digits()} digits") from None


def format_scalar(x: NovikovScalar) -> str:
    if x.is_zero():
        return "0"
    return "+".join(
        f"{_frac_str(c)}*T^{{{_frac_str(lam)}}}*e^{{{n}}}" for c, lam, n in x.terms
    )
