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
validate raw input; the ring operations rely on the invariant and do neither.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Tuple

from . import levels
from .errors import FacalcError, VariantMismatch
from .levels import INFINITY, Frozen, Level

NOV = "nov"
NOV0 = "nov0"
PLAIN = "q"
VARIANTS = (NOV, NOV0, PLAIN)

Term = Tuple[Fraction, Fraction, int]  # (coefficient, energy, exponent)


def _validate_term(variant: str, coeff: Fraction, energy: Fraction, expo: int) -> None:
    if variant == NOV0 and energy < 0:
        raise FacalcError(f"variant 'nov0' requires energy >= 0, got {energy}")
    if variant == PLAIN and (energy != 0 or expo != 0):
        raise FacalcError("variant 'q' admits only T^0 e^0 terms")


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
    if variant not in VARIANTS:
        raise FacalcError(f"unknown coefficient variant {variant!r}")
    valid = []
    for c, lam, n in terms:
        c, lam, n = Fraction(c), Fraction(lam), int(n)
        _validate_term(variant, c, lam, n)
        valid.append((c, lam, n))
    return _merge(valid, variant)


def zero(variant: str = NOV) -> NovikovScalar:
    return scalar((), variant)


def one(variant: str = NOV) -> NovikovScalar:
    return scalar([(1, 0, 0)], variant)


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
    return _merge(x.terms + y.terms, variant)


def nov_neg(x: NovikovScalar) -> NovikovScalar:
    return NovikovScalar(tuple((-c, lam, n) for c, lam, n in x.terms), x.variant)


def nov_sub(x: NovikovScalar, y: NovikovScalar) -> NovikovScalar:
    return nov_add(x, nov_neg(y))


def nov_mul(x: NovikovScalar, y: NovikovScalar) -> NovikovScalar:
    variant = _check_variant(x, y)
    if len(x.terms) > len(y.terms):
        x, y = y, x
    if not x.terms:
        return x
    if len(x.terms) > 1:
        prods = [(cx * cy, lx + ly, nx + ny) for cx, lx, nx in x.terms for cy, ly, ny in y.terms]
        return _merge(prods, variant)
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


def nov_rat_mul(q, x: NovikovScalar) -> NovikovScalar:
    q = Fraction(q)
    if not q:
        return NovikovScalar((), x.variant)
    return NovikovScalar(tuple((q * c, lam, n) for c, lam, n in x.terms), x.variant)


def nov_level(x: NovikovScalar, instance: str) -> Level:
    """The largest l with x in F^l: the minimum energy, or INFINITY for 0."""
    if x.is_zero():
        return INFINITY
    lowest = min(lam for _, lam, _ in x.terms)
    return levels.make_level(instance, lowest)


def nov_truncate(x: NovikovScalar, cutoff: Level) -> NovikovScalar:
    """Drop the part of x lying in F^cutoff (all terms of energy >= cutoff)."""
    kept = [
        (c, lam, n)
        for c, lam, n in x.terms
        if not levels.level_leq(cutoff, levels.make_level(cutoff.instance, lam))
    ]
    return NovikovScalar(tuple(kept), x.variant)


# Textual monomial syntax: "a*T^{p/q}*e^{n}", sums joined by "+", "0" for zero.
# A denominator q has a nonzero digit, so that a zero one is a parse error.

_MONOMIAL_RE = re.compile(
    r"^(?P<coeff>-?\d+(?:/\d*[1-9]\d*)?)"
    r"(?:\*T\^\{(?P<energy>-?\d+(?:/\d*[1-9]\d*)?)\})?"
    r"(?:\*e\^\{(?P<expo>-?\d+)\})?$"
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
        coeff = Fraction(m.group("coeff"))
        energy = Fraction(m.group("energy") or 0)
        expo = int(m.group("expo") or 0)
        terms.append((coeff, energy, expo))
    return scalar(terms, variant)


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_scalar(x: NovikovScalar) -> str:
    if x.is_zero():
        return "0"
    return "+".join(
        f"{_frac_str(c)}*T^{{{_frac_str(lam)}}}*e^{{{n}}}" for c, lam, n in x.terms
    )
