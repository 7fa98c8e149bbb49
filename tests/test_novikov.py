from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from facalc import levels
from facalc.errors import FacalcError, VariantMismatch
from facalc.levels import INFINITY, rat
from facalc.novikov import (
    NOV,
    NOV0,
    PLAIN,
    VARIANTS,
    NovikovScalar,
    format_scalar,
    monomial,
    nov_add,
    nov_level,
    nov_mul,
    nov_neg,
    nov_rat_mul,
    nov_truncate,
    one,
    parse_scalar,
    scalar,
    zero,
)

from conftest import facalc_seed

coeffs = st.fractions(max_denominator=6).filter(lambda q: q != 0)
energies = st.fractions(max_denominator=4)
expos = st.integers(min_value=-3, max_value=3)
terms = st.lists(st.tuples(coeffs, energies, expos), max_size=4)
scalars = terms.map(lambda ts: scalar(ts, "nov"))


def schoolbook_mul(x: NovikovScalar, y: NovikovScalar) -> NovikovScalar:
    """Independent oracle: accumulate products in a dict keyed by monomial."""
    acc = {}
    for cx, lx, nx in x.terms:
        for cy, ly, ny in y.terms:
            key = (lx + ly, nx + ny)
            acc[key] = acc.get(key, Fraction(0)) + cx * cy
    return scalar([(c, lam, n) for (lam, n), c in acc.items() if c], "nov")


@given(x=scalars, y=scalars)
def test_mul_matches_schoolbook_oracle(x, y):
    assert nov_mul(x, y) == schoolbook_mul(x, y)


def test_mul_examples():
    x = monomial(3, 0, 0)
    y = monomial(2, Fraction(1, 2), 1)
    assert nov_mul(x, y) == monomial(6, Fraction(1, 2), 1)
    assert nov_mul(one(), y) == y
    assert nov_mul(monomial(1, 1, 1), monomial(1, 1, -1)) == monomial(1, 2, 0)


@given(x=scalars, y=scalars, z=scalars)
@settings(max_examples=60)
def test_ring_axioms(x, y, z):
    assert nov_add(x, y) == nov_add(y, x)
    assert nov_add(nov_add(x, y), z) == nov_add(x, nov_add(y, z))
    assert nov_mul(x, y) == nov_mul(y, x)
    assert nov_mul(nov_mul(x, y), z) == nov_mul(x, nov_mul(y, z))
    assert nov_mul(x, nov_add(y, z)) == nov_add(nov_mul(x, y), nov_mul(x, z))
    assert nov_add(x, nov_neg(x)).is_zero()
    assert nov_add(x, zero()) == x


def test_add_examples():
    t = monomial(1, Fraction(1, 2), 1)
    assert nov_add(t, nov_neg(t)).is_zero()
    assert nov_add(monomial(2, 0, 0), monomial(3, 0, 0)) == monomial(5, 0, 0)


def test_truncate():
    assert nov_truncate(monomial(1, Fraction(3, 2), 1), rat(1)).is_zero()
    x = scalar([(2, Fraction(1, 2), 0), (1, 2, 0)], "nov")
    assert nov_truncate(x, rat(1)) == monomial(2, Fraction(1, 2), 0)
    assert nov_truncate(nov_truncate(x, rat(1)), rat(1)) == nov_truncate(x, rat(1))


nonneg_terms = st.lists(
    st.tuples(coeffs, energies.map(abs), expos), max_size=4
)
nonneg_scalars = nonneg_terms.map(lambda ts: scalar(ts, "nov0"))


@given(x=nonneg_scalars, y=nonneg_scalars)
@settings(max_examples=60)
def test_truncation_is_ring_congruence(x, y):
    # Holds over the nonnegative-energy subring, where the cutoff part is an
    # ideal; with negative energies a discarded factor can be pulled back
    # below the cutoff by the other factor, so no such congruence exists.
    cutoff = rat(1)
    lhs = nov_truncate(nov_mul(x, y), cutoff)
    rhs = nov_truncate(nov_mul(nov_truncate(x, cutoff), nov_truncate(y, cutoff)), cutoff)
    assert lhs == rhs


def test_truncation_congruence_fails_with_negative_energies():
    x = monomial(1, -1, 0)
    y = monomial(1, Fraction(3, 2), 0)
    cutoff = rat(1)
    assert nov_truncate(nov_mul(x, y), cutoff) == monomial(1, Fraction(1, 2), 0)
    assert nov_mul(nov_truncate(x, cutoff), nov_truncate(y, cutoff)).is_zero()


def test_level():
    assert nov_level(zero(), "rat") == INFINITY
    x = scalar([(2, Fraction(1, 2), 1), (1, 3, 0)], "nov")
    assert nov_level(x, "rat") == rat(Fraction(1, 2))
    assert nov_level(nov_mul(monomial(1, 1, 0), monomial(1, 1, 0)), "rat") == rat(2)


def test_level_multiplicative_exhaustive():
    pool = [
        zero(),
        one(),
        monomial(1, 1, 0),
        monomial(-2, Fraction(1, 2), 1),
        scalar([(1, 0, 0), (-1, 1, 1)], "nov"),
        scalar([(1, -1, 0), (1, 2, 0)], "nov"),
    ]
    for x in pool:
        for y in pool:
            lhs = nov_level(nov_mul(x, y), "rat")
            rhs = levels.level_add(nov_level(x, "rat"), nov_level(y, "rat"))
            assert levels.level_leq(rhs, lhs)


def test_parse_format_roundtrip():
    for text in ["0", "1*T^{0}*e^{0}", "3/2*T^{-1/2}*e^{2}+-1*T^{1}*e^{0}"]:
        assert format_scalar(parse_scalar(text, "nov")) == text
    with pytest.raises(FacalcError):
        parse_scalar("T^{1}", "nov")
    with pytest.raises(FacalcError):
        parse_scalar("1*T^{0.5}*e^{0}", "nov")


def test_variant_rules():
    with pytest.raises(FacalcError):
        monomial(1, -1, 0, "nov0")
    with pytest.raises(FacalcError):
        monomial(1, 1, 0, "q")
    with pytest.raises(VariantMismatch):
        nov_add(one("nov"), one("q"))
    # Plain rationals sit at level zero.
    assert nov_level(one("q"), "discrete") == levels.discrete(0)
    assert nov_level(zero("q"), "discrete") == INFINITY


# -- The kernel against the literal oracle it replaces ------------------------
#
# The oracle sends every sum and product back through the validating
# constructor, as the kernel once did; the kernel relies on its operands
# being normal instead.


def literal_scalar(terms, variant):
    merged = {}
    for c, lam, n in terms:
        c = Fraction(c)
        lam = Fraction(lam)
        n = int(n)
        if variant == NOV0 and lam < 0:
            raise FacalcError("nov0 energy below 0")
        if variant == PLAIN and (lam != 0 or n != 0):
            raise FacalcError("q admits only T^0 e^0")
        key = (lam, n)
        merged[key] = merged.get(key, Fraction(0)) + c
    normal = tuple((c, lam, n) for (lam, n), c in sorted(merged.items()) if c != 0)
    return NovikovScalar(normal, variant)


def literal_add(x, y):
    assert x.variant == y.variant
    return literal_scalar(list(x.terms) + list(y.terms), x.variant)


def literal_mul(x, y):
    assert x.variant == y.variant
    prods = [
        (cx * cy, lx + ly, nx + ny)
        for cx, lx, nx in x.terms
        for cy, ly, ny in y.terms
    ]
    return literal_scalar(prods, x.variant)


def literal_rat_mul(q, x):
    q = Fraction(q)
    return literal_scalar([(q * c, lam, n) for c, lam, n in x.terms], x.variant)


def assert_normal(x: NovikovScalar) -> None:
    keys = [(lam, n) for _, lam, n in x.terms]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for c, lam, n in x.terms:
        assert type(c) is Fraction and c != 0
        assert type(lam) is Fraction and type(n) is int
        assert x.variant != NOV0 or lam >= 0
        assert x.variant != PLAIN or (lam, n) == (0, 0)


def raw_terms(variant, min_size=0, max_size=5):
    energy = {NOV: energies, NOV0: energies.map(abs), PLAIN: st.just(Fraction(0))}[variant]
    expo = st.just(0) if variant == PLAIN else expos
    return st.lists(st.tuples(coeffs, energy, expo), min_size=min_size, max_size=max_size)


def kernel_scalars(variant):
    """Zero, the unit, monomials and sums with cancelling and merging terms."""
    return st.one_of(
        st.just(zero(variant)),
        st.just(one(variant)),
        raw_terms(variant, 1, 1).map(lambda ts: scalar(ts, variant)),
        raw_terms(variant).map(lambda ts: scalar(ts, variant)),
    )


def multi_term_scalars(variant):
    distinct = st.lists(st.tuples(energies.map(abs), expos), min_size=2, max_size=5, unique=True)
    return st.tuples(distinct, st.lists(coeffs, min_size=5, max_size=5)).map(
        lambda kc: scalar([(c, lam, n) for (lam, n), c in zip(*kc)], variant)
    )


rats = st.one_of(st.just(Fraction(0)), st.just(Fraction(1)), st.fractions(max_denominator=6))


@pytest.mark.parametrize("variant", VARIANTS)
@seed(facalc_seed())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kernel_matches_literal_oracle(variant, data):
    x = data.draw(kernel_scalars(variant), label="x")
    y = data.draw(kernel_scalars(variant), label="y")
    q = data.draw(rats, label="q")
    cases = [
        (nov_mul(x, y), literal_mul(x, y)),
        (nov_mul(y, x), literal_mul(y, x)),
        (nov_add(x, y), literal_add(x, y)),
        (nov_add(y, x), literal_add(y, x)),
        (nov_add(x, nov_neg(x)), literal_add(x, nov_neg(x))),
        (nov_rat_mul(q, x), literal_rat_mul(q, x)),
        (nov_rat_mul(0, x), literal_rat_mul(0, x)),
    ]
    for got, want in cases:
        assert got == want
        assert_normal(got)
    assert nov_add(x, nov_neg(x)) == zero(variant)
    assert nov_rat_mul(0, x) == zero(variant)


@pytest.mark.parametrize("variant", [NOV, NOV0])
@seed(facalc_seed())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_monomial_times_multi_term_matches_literal_oracle(variant, data):
    m = data.draw(raw_terms(variant, 1, 1).map(lambda ts: scalar(ts, variant)), label="m")
    z = data.draw(multi_term_scalars(variant), label="z")
    assert len(m.terms) == 1 and len(z.terms) >= 2
    for got, want in [(nov_mul(m, z), literal_mul(m, z)), (nov_mul(z, m), literal_mul(z, m))]:
        assert got == want
        assert_normal(got)
    # Adding part of z's negation cancels those terms and keeps the rest.
    part = NovikovScalar(nov_neg(z).terms[::2], variant)
    assert nov_add(z, part) == literal_add(z, part) == NovikovScalar(z.terms[1::2], variant)


@pytest.mark.parametrize("variant", VARIANTS)
@seed(facalc_seed())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unit_and_zero_operands(variant, data):
    x = data.draw(kernel_scalars(variant), label="x")
    unit, nothing = one(variant), zero(variant)
    assert nov_mul(unit, x) == nov_mul(x, unit) == literal_mul(unit, x) == x
    assert nov_mul(nothing, x) == nov_mul(x, nothing) == literal_mul(nothing, x) == nothing
    assert nov_add(nothing, x) == nov_add(x, nothing) == literal_add(nothing, x) == x
    for got in (nov_mul(unit, x), nov_mul(nothing, x), nov_add(nothing, x), nov_add(x, nothing)):
        assert got.variant == variant
        assert_normal(got)


def near_units(variant):
    """Monomials next to the unit: coefficient 1 or -1, energy and exponent
    0 or not, as far as the variant allows."""
    energy = st.just(Fraction(0)) if variant == PLAIN else st.sampled_from([Fraction(0), Fraction(1, 2)])
    expo = st.just(0) if variant == PLAIN else st.sampled_from([0, 1])
    return st.tuples(st.sampled_from([1, -1]), energy, expo).map(lambda t: scalar([t], variant))


@pytest.mark.parametrize("variant", VARIANTS)
@seed(facalc_seed())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_unit_factor_on_either_side_matches_the_general_product(variant, data):
    x = data.draw(st.one_of(kernel_scalars(variant), near_units(variant)), label="x")
    y = data.draw(near_units(variant), label="y")
    for got, want in [(nov_mul(x, y), literal_mul(x, y)), (nov_mul(y, x), literal_mul(y, x))]:
        assert got == want
        assert_normal(got)
    if y == one(variant) != x:
        # Either side: the other factor comes back as it is.
        assert nov_mul(x, y) is x and nov_mul(y, x) is x


@pytest.mark.parametrize(
    "energies",
    [
        [Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**20)],
        [-Fraction(1, 3), -Fraction(1, 3) - Fraction(1, 10**20)],
        [Fraction(10**30, 3), Fraction(10**30, 3) + Fraction(1, 10**20), Fraction(10**40 + 1, 10**40),
         Fraction(10**40 + 2, 10**40)],
        [-Fraction(10**30, 3), -Fraction(10**30, 3) - Fraction(1, 10**20), -Fraction(10**40 + 1, 10**40),
         -Fraction(10**40 + 2, 10**40)],
    ],
    ids=["third", "negative-third", "large", "negative-large"],
)
def test_merge_orders_energies_with_equal_sort_leads(energies):
    # _merge sorts by floor(energy * 2**53) first; these energies share that
    # lead in pairs, so only the exact comparison after it orders them.
    leads = [(lam.numerator << 53) // lam.denominator for lam in energies]
    assert len(set(leads)) < len(leads)
    raw = [(k + 1, lam, n) for k, lam in enumerate(energies) for n in (1, 0)]
    for terms in (raw, raw[::-1]):
        got = scalar(terms, NOV)
        assert got == literal_scalar(terms, NOV)
        assert_normal(got)
        x = scalar(terms[:2], NOV)
        y = scalar(terms[2:], NOV)
        assert nov_mul(x, y) == literal_mul(x, y)
        assert nov_add(x, y) == literal_add(x, y)


MULTI = scalar([(2, 0, 0), (-3, 1, 1)], NOV0)


@pytest.mark.parametrize(
    "op, x, y",
    [
        (nov_mul, monomial(2, 1, 1, NOV), MULTI),
        (nov_mul, MULTI, monomial(2, 1, 1, NOV)),
        (nov_mul, one(NOV), MULTI),
        (nov_mul, MULTI, one(NOV)),
        (nov_mul, one(PLAIN), one(NOV)),
        (nov_mul, zero(NOV), MULTI),
        (nov_mul, MULTI, zero(PLAIN)),
        (nov_add, zero(NOV), MULTI),
        (nov_add, MULTI, zero(PLAIN)),
        (nov_add, one(PLAIN), one(NOV0)),
    ],
)
def test_fast_paths_check_the_variant(op, x, y):
    with pytest.raises(VariantMismatch):
        op(x, y)
