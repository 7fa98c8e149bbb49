import pytest
from hypothesis import given, strategies as st

from facalc import levels
from facalc.errors import FacalcError, InstanceMismatch
from facalc.levels import (
    INFINITY,
    discrete,
    dominate,
    level_add,
    level_leq,
    rat,
    ratplus,
)

rationals = st.fractions(max_denominator=12)
nonneg_rationals = rationals.map(abs)


def rat_levels():
    return rationals.map(rat)


def ratplus_levels():
    return nonneg_rationals.map(ratplus)


def discrete_levels():
    return st.sampled_from([discrete(0), discrete("inf")])


def instance_levels(draw_from):
    return {"rat": rat_levels(), "ratplus": ratplus_levels(), "discrete": discrete_levels()}[draw_from]


@pytest.mark.parametrize("inst", ["rat", "ratplus", "discrete"])
def test_monoid_axioms(inst):
    @given(a=instance_levels(inst), b=instance_levels(inst), c=instance_levels(inst))
    def run(a, b, c):
        assert level_add(level_add(a, b), c) == level_add(a, level_add(b, c))
        assert level_add(a, b) == level_add(b, a)
        assert level_add(levels.zero(inst), a) == a
        # Monotonicity in each argument.
        if level_leq(a, b):
            assert level_leq(level_add(a, c), level_add(b, c))

    run()


@pytest.mark.parametrize("inst", ["rat", "ratplus", "discrete"])
def test_dominate_property(inst):
    @given(a=instance_levels(inst), b=instance_levels(inst))
    def run(a, b):
        c = dominate(a, b)
        assert level_leq(b, level_add(a, c))

    run()


def test_dominate_examples():
    assert dominate(rat(2), rat(5)) == rat(3)
    assert dominate(ratplus(7), ratplus(3)) == ratplus(0)
    # Exhaustive table for the two-element instance.
    table = {
        (discrete(0), discrete(0)): discrete(0),
        (discrete(0), discrete("inf")): discrete("inf"),
        (discrete("inf"), discrete(0)): discrete(0),
        (discrete("inf"), discrete("inf")): discrete(0),
    }
    for (a, b), want in table.items():
        got = dominate(a, b)
        assert got == want
        assert level_leq(b, level_add(a, got))


def test_add_examples():
    assert level_add(rat("1/2"), rat("1/3")) == rat("5/6")
    assert level_add(discrete(0), discrete("inf")) == discrete("inf")
    assert level_add(INFINITY, rat(7)) == INFINITY
    assert level_add(INFINITY, INFINITY) == INFINITY


def test_leq_examples():
    assert level_leq(rat(-1), rat(0))
    assert not level_leq(discrete("inf"), discrete(0))
    assert level_leq(discrete(0), discrete("inf"))
    assert level_leq(rat(100), INFINITY)
    assert level_leq(INFINITY, INFINITY)
    assert not level_leq(INFINITY, rat(100))


def test_instance_mismatch():
    with pytest.raises(InstanceMismatch):
        level_add(rat(1), ratplus(1))
    with pytest.raises(InstanceMismatch):
        level_leq(rat(1), discrete(0))


def test_positive_witness_unbounded():
    # Every instance has a strictly positive level, and repeated addition
    # of it passes any level of its instance.
    positive = {"rat": rat(1), "ratplus": ratplus(1), "discrete": discrete("inf")}
    for inst, p in positive.items():
        zero = levels.zero(inst)
        assert level_leq(zero, p) and p != zero
        for x in ["inf"] if inst == "discrete" else [1, "7/2", 100]:
            b = levels.make_level(inst, x)
            total, n = p, 1
            while not level_leq(b, total):
                total = level_add(total, p)
                n += 1
                assert n < 10_000


def test_ratplus_rejects_negative():
    with pytest.raises(FacalcError):
        ratplus(-1)


def test_dominate_rejects_formal_infinity():
    with pytest.raises(FacalcError):
        dominate(INFINITY, rat(0))
