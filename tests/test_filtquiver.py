from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from facalc import levels, novikov
from facalc.errors import DegreeMismatch, FacalcError, LevelViolation, ObjectMismatch
from facalc.filtquiver import (
    FiltQuiver,
    GradedMap,
    HomElement,
    HomGenerator,
    _crossing_sign,
    compose_maps,
    koszul_sign,
)
from facalc.morphisms import tensor_maps
from facalc.tcoalg import TensorElement, Word

from conftest import facalc_seed, loop_quiver

ONE = novikov.one()


def permutation_parity_sign(op_degs, arg_degs):
    """Independent check: global parity of the interleaving permutation,
    weighted by degrees.  Starting order x_1..x_n f_1..f_n, target order
    x_1 f_1 x_2 f_2 ...; the sign is the product over crossing pairs of
    (-1)^(deg*deg)."""
    n = len(op_degs)
    start = [("x", i) for i in range(n)] + [("f", i) for i in range(n)]
    target = []
    for i in range(n):
        target += [("x", i), ("f", i)]
    deg = {("x", i): arg_degs[i] for i in range(n)}
    deg.update({("f", i): op_degs[i] for i in range(n)})
    pos = {item: target.index(item) for item in start}
    sign = 1
    for i in range(len(start)):
        for j in range(i + 1, len(start)):
            if pos[start[i]] > pos[start[j]]:  # the pair crosses
                if deg[start[i]] % 2 and deg[start[j]] % 2:
                    sign = -sign
    return sign


def test_sign_oracle_against_permutation_parity():
    import random

    rng = random.Random(facalc_seed())
    for _ in range(1000):
        n = rng.randint(1, 6)
        ops = [rng.randint(-2, 3) for _ in range(n)]
        args = [rng.randint(-2, 3) for _ in range(n)]
        assert koszul_sign(ops, args) == permutation_parity_sign(ops, args)


def test_sign_oracle_small_cases():
    assert koszul_sign([0], [5]) == 1
    # One odd operator crossing one odd trailing argument.
    assert koszul_sign([1, 0], [1, 1]) == -1
    assert koszul_sign([0, 1], [1, 1]) == 1
    assert koszul_sign([1, 1], [1, 1]) == -1


@seed(facalc_seed())
@settings(max_examples=300, deadline=None)
@given(
    degs=st.lists(st.tuples(st.integers(), st.integers()), min_size=1, max_size=5),
)
def test_crossing_sign_product_is_koszul_sign(degs):
    # The code's one sign rule: each operator crosses the later arguments.
    ops = [op for op, _ in degs]
    args = [arg for _, arg in degs]
    closed = 1
    for i, op in enumerate(ops):
        closed *= _crossing_sign(op, sum(args[i + 1:]))
    assert closed == koszul_sign(ops, args)


def test_tau_squared_is_identity():
    # Swapping two elements twice returns the original with no net sign.
    for dx in range(-2, 3):
        for dy in range(-2, 3):
            s = 1 if not (dx % 2 and dy % 2) else -1
            assert s * s == 1


def quiver_with_degrees():
    gens = [
        HomGenerator("e0", "X", "X", 0, levels.rat(0)),
        HomGenerator("e1", "X", "X", 1, levels.rat(0)),
        HomGenerator("e2", "X", "X", 2, levels.rat(0)),
        HomGenerator("e3", "X", "X", -1, levels.rat(0)),
    ]
    return FiltQuiver("D", ["X"], gens)


def degree_shift_map(quiver, shift, pair_map):
    """A graded map sending each generator to its partner under pair_map."""
    action = {}
    for g in quiver.gens:
        img = pair_map.get(g.gid)
        if img is not None:
            action[g.gid] = HomElement.from_gen(quiver.gen(img), ONE)
    return GradedMap(shift, levels.rat(0), quiver, quiver, {"X": "X"}, action, "rat")


def test_interchange_law_on_generator_pairs():
    # (f (x) g)(h (x) k) = (-1)^{deg g * deg h} (fh (x) gk) on two-letter words.
    Q = quiver_with_degrees()
    f = degree_shift_map(Q, 1, {"e0": "e1", "e1": "e2"})
    g = degree_shift_map(Q, 2, {"e0": "e2"})
    h = degree_shift_map(Q, 1, {"e1": "e2"})
    k = degree_shift_map(Q, -1, {"e2": "e1", "e1": "e0"})
    sign = -1 if (g.deg % 2 and h.deg % 2) else 1
    fh = compose_maps(f, h)
    gk = compose_maps(g, k)
    for a in Q.gens:
        for b in Q.gens:
            if a.dst != b.src:
                continue
            x = TensorElement.from_word(Word.from_gens([a, b]), ONE)
            lhs = tensor_maps([h, k], tensor_maps([f, g], x))
            rhs = tensor_maps([fh, gk], x)
            rhs = rhs if sign == 1 else rhs.neg()
            assert lhs == rhs, (a.gid, b.gid)


def literal_tensor_maps(maps, x):
    """The letter expansion of f_1 (x) ... (x) f_n on words of length n, with
    each word's sign from ``koszul_sign``: the oracle for ``tensor_maps``."""
    if not maps:
        raise FacalcError("tensor_maps needs at least one map")
    obj = maps[0].obj_map
    terms = []
    for w, c in x.terms:
        if len(w) != len(maps):
            raise ObjectMismatch(f"word length {len(w)} != {len(maps)} maps")
        sign = koszul_sign([m.deg for m in maps], [g.sdeg for g in w.gens])
        expanded = [(Word(obj[w.at]), c if sign == 1 else novikov.nov_neg(c))]
        for m, g in zip(maps, w.gens):
            piece = m.apply(HomElement.from_gen(g, novikov.one(c.variant)))
            expanded = [
                (Word(prefix.at, prefix.gens + (g2,)), novikov.nov_mul(pc, c2))
                for prefix, pc in expanded
                for g2, c2 in piece.terms
            ]
        terms.extend(expanded)
    return TensorElement(obj[x.src], obj[x.dst], terms)


SCALARS = st.builds(
    novikov.monomial,
    st.integers(-3, 3).filter(bool),
    st.sampled_from([0, Fraction(1, 2), 1]),
)


@st.composite
def maps_and_words(draw):
    """1 to 3 random maps of degree -2 to 2 on ``quiver_with_degrees``: each
    generator goes to zero (no action) or to one or two generators whose
    degree its image may have, with e-exponents that make up the degree.
    Then up to three words of one letter per map."""
    Q = quiver_with_degrees()
    n = draw(st.integers(1, 3))
    maps = []
    for _ in range(n):
        deg = draw(st.integers(-2, 2))
        action = {}
        for g in Q.gens:
            fits = [h for h in Q.gens if (g.sdeg + deg - h.sdeg) % 2 == 0]
            images = draw(st.lists(st.sampled_from(fits), max_size=2, unique=True))
            if images:
                terms = [
                    (h, novikov.nov_mul(draw(SCALARS), novikov.monomial(1, 0, (g.sdeg + deg - h.sdeg) // 2)))
                    for h in images
                ]
                action[g.gid] = HomElement("X", "X", terms)
        maps.append(GradedMap(deg, levels.rat(0), Q, Q, {"X": "X"}, action, "rat"))
    words = draw(st.lists(st.lists(st.sampled_from(Q.gens), min_size=n, max_size=n), max_size=3))
    return Q, maps, [(Word.from_gens(gens), draw(SCALARS)) for gens in words]


@seed(facalc_seed())
@settings(max_examples=200, deadline=None)
@given(case=maps_and_words())
def test_tensor_maps_matches_the_letter_expansion(case):
    Q, maps, terms = case
    x = TensorElement("X", "X", terms)
    assert tensor_maps(maps, x) == literal_tensor_maps(maps, x)
    # A word of the wrong length, and no maps at all, raise alike.
    longer = TensorElement.from_word(Word.from_gens([Q.gens[0]] * (len(maps) + 1)), ONE)
    for build in (tensor_maps, literal_tensor_maps):
        with pytest.raises(ObjectMismatch) as exc:
            build(maps, longer)
        assert str(exc.value) == f"word length {len(maps) + 1} != {len(maps)} maps"
        with pytest.raises(FacalcError) as exc:
            build([], x)
        assert str(exc.value) == "tensor_maps needs at least one map"


def test_apply_identity_and_zero():
    Q = loop_quiver()
    action = {g.gid: HomElement.from_gen(g, ONE) for g in Q.gens}
    ident = GradedMap(0, levels.rat(0), Q, Q, {"X": "X"}, action, "rat")
    x = HomElement.from_gen(Q.gen("g0"), ONE)
    assert ident.apply(x) == x
    assert ident.apply(HomElement.zero("X", "X")).is_zero()


def test_apply_level_bookkeeping():
    # f: g |-> T^{1/2} h with declared level 1/2.
    gens = [
        HomGenerator("g", "X", "X", 0, levels.rat(1)),
        HomGenerator("h", "X", "X", 0, levels.rat(0)),
    ]
    Q = FiltQuiver("L", ["X"], gens)
    f = GradedMap(
        0,
        levels.rat(Fraction(1, 2)),
        Q,
        Q,
        {"X": "X"},
        {"g": HomElement.from_gen(Q.gen("h"), novikov.monomial(1, Fraction(3, 2), 0))},
        "rat",
    )
    out = f.apply(HomElement.from_gen(Q.gen("g"), novikov.monomial(3, 0, 0)))
    assert out == HomElement.from_gen(Q.gen("h"), novikov.monomial(3, Fraction(3, 2), 0))
    # Declared level is a lower bound for the actual output level.
    need = levels.level_add(Q.gen("g").base_level, f.lvl)
    assert levels.level_leq(need, out.level("rat"))


def test_graded_map_validation():
    Q = loop_quiver(sdegs=(0, 1))
    with pytest.raises(DegreeMismatch):
        GradedMap(
            0,
            levels.rat(0),
            Q,
            Q,
            {"X": "X"},
            {"g0": HomElement.from_gen(Q.gen("g1"), ONE)},
            "rat",
        )
    with pytest.raises(LevelViolation):
        GradedMap(
            0,
            levels.rat(1),
            Q,
            Q,
            {"X": "X"},
            {"g0": HomElement.from_gen(Q.gen("g0"), ONE)},
            "rat",
        )


def test_functoriality_of_apply():
    Q = quiver_with_degrees()
    f = degree_shift_map(Q, 1, {"e0": "e1", "e3": "e0"})
    g = degree_shift_map(Q, 1, {"e1": "e2", "e0": "e1"})
    fg = compose_maps(f, g)
    for a in Q.gens:
        x = HomElement.from_gen(a, novikov.monomial(Fraction(2, 3), 1, 0))
        assert fg.apply(x) == g.apply(f.apply(x))


def test_level_soundness_of_apply():
    Q = two = loop_quiver(sdegs=(0,), base=1)
    f = GradedMap(
        0,
        levels.rat(2),
        Q,
        Q,
        {"X": "X"},
        {"g0": HomElement.from_gen(Q.gen("g0"), novikov.monomial(1, 2, 0))},
        "rat",
    )
    x = HomElement.from_gen(Q.gen("g0"), novikov.monomial(1, Fraction(1, 2), 0))
    out = f.apply(x)
    declared = levels.level_add(x.level("rat"), f.lvl)
    assert levels.level_leq(declared, out.level("rat"))
