from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from facalc import levels, morphisms, novikov
from facalc.ainfty import coder_b0, coder_b1, coder_bn
from facalc.engine import _Trie
from facalc.errors import ConvergenceUndecided, DegreeMismatch, FacalcError, ObjectMismatch
from facalc.filtquiver import FiltQuiver, HomElement, HomGenerator
from facalc.morphisms import (
    Coderivation,
    ConvergenceResult,
    Cofunctor,
    chain_eval,
    chain_slots,
    coderivation_from_components,
    coderivation_slots,
    cofunctor_slots,
    cofunctor_from_components,
    comp_key,
    compose_cofunctors,
    evaluate_coderivation,
    hom_truncate,
    identity_cofunctor,
    leibniz_residual,
    pull_coderivation,
    push_coderivation,
    slot_value,
    tensor_convergent,
)
from facalc.structfile import load_model_file
from facalc.tcoalg import (
    Flag,
    TensorElement,
    TruncWindow,
    Word,
    _mod_cutoff,
    basis_words,
    cut_delta,
    mu_concat,
    truncate_element,
)

from conftest import facalc_seed, loop_quiver, two_object_quiver

ONE = novikov.one()
W = TruncWindow(6, levels.rat(3))
W4 = TruncWindow(4, levels.rat(3))
W3 = TruncWindow(3, levels.rat(3))


def hom(g, coeff=None):
    return HomElement.from_gen(g, coeff if coeff is not None else ONE)


@pytest.fixture
def pq_quiver():
    return loop_quiver(sdegs=(0, 1))


def test_identity_cofunctor_acts_as_identity(pq_quiver):
    ida = identity_cofunctor(pq_quiver, "rat", "nov")
    for w in basis_words(pq_quiver, 4):
        x = TensorElement.from_word(w, novikov.monomial(Fraction(2, 3), 1, 1))
        out, flag = slot_value(x, cofunctor_slots(ida), W)
        assert out == x and flag == Flag.SOUND


def test_evaluate_zero(pq_quiver):
    ida = identity_cofunctor(pq_quiver, "rat", "nov")
    out, _ = slot_value(TensorElement.zero("X", "X"), cofunctor_slots(ida), W)
    assert out.is_zero()


def test_owner_components_are_read_only(pq_quiver):
    # The letter table and key trie are built once per owner from comps.
    ida = identity_cofunctor(pq_quiver, "rat", "nov")
    r = Coderivation("r", ida, ida, 1, levels.rat(0), {1: {("g0",): hom(pq_quiver.gen("g1"))}})
    for owner in (ida, r):
        with pytest.raises(TypeError):
            owner.comps[2] = {}
        with pytest.raises(TypeError):
            owner.comps[1][("g1",)] = hom(pq_quiver.gen("g0"))
        with pytest.raises(TypeError):
            del owner.comps[1]


# (complete_upto, has compute) of each kind of owner.
OWNER_KINDS = {
    "exact": (None, False),
    "bounded": (1, False),
    "lazy-tailed": (1, True),
    "fully-lazy": (None, True),
}


def decision(owner, w):
    """What the table answers at w, read from the raw fields."""
    if comp_key(w) in owner.comps.get(len(w), {}):
        return "stored"
    if owner.complete_upto is not None and len(w) <= owner.complete_upto:
        return "zero"
    if owner.compute is None:
        return "zero" if owner.complete_upto is None else "raise"
    return "compute"


@pytest.mark.parametrize("noun", ["cofunctor", "coderivation"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("kind", sorted(OWNER_KINDS))
def test_one_decision_rule_per_owner(kind, k, noun):
    Q = two_object_quiver()
    a, x, y = Q.gen("a"), Q.gen("x"), Q.gen("y")
    comps = {
        0: {"X": hom(x, novikov.monomial(1, 2, 0))},
        1: {("a",): hom(a)},
        3: {("x", "a", "y"): hom(y)},
    }
    computed = []

    def lazy_value(w):
        return hom(a, novikov.monomial(1, len(w), 0))

    def compute(w):
        computed.append(w)
        return lazy_value(w)

    upto, lazy = OWNER_KINDS[kind]
    compute_or_none = compute if lazy else None
    objs = {o: o for o in Q.objects}
    if noun == "cofunctor":
        owner = Cofunctor("f", Q, Q, objs, comps, "rat", "nov", 16, upto, compute_or_none)
    else:
        ida = Cofunctor("id", Q, Q, objs, {}, "rat", "nov")
        owner = Coderivation("r", ida, ida, 0, levels.rat(0), comps, upto, compute_or_none)
    for w in (v for v in basis_words(Q, k) if len(v) == k):
        rule = decision(owner, w)
        for _ in range(2):
            if rule == "raise":
                with pytest.raises(FacalcError, match="beyond extraction bound"):
                    owner.comp_value(w)
                continue
            got = owner.comp_value(w)
            if rule == "stored":
                assert got is owner.comps[k][comp_key(w)]
            elif rule == "zero":
                assert got.is_zero() and (got.src, got.dst) == (w.src, w.dst)
            else:
                assert got == lazy_value(w)
        # compute ran once, on the first lookup only.
        assert computed == ([w] if rule == "compute" else [])
        computed.clear()
        if k:
            # The blocks from the start of w that the engine looks up.
            prefixes = [Word.from_gens(w.gens[:d]) for d in range(1, k + 1)]
            want = [(d, comp_key(v)) for d, v in enumerate(prefixes, 1) if decision(owner, v) != "zero"]
            trie = _Trie([w], "rat")
            assert sorted((trie.depth[q], key) for q, key in trie.blocks(owner, 0, {})) == want


@pytest.mark.parametrize("kind", sorted(OWNER_KINDS))
def test_zero_map_up_to_a_length(kind):
    # Zero on every block up to n: no stored component and no block of
    # length <= n that the table leaves to compute or to the bound.
    Q = two_object_quiver()
    objs = {o: o for o in Q.objects}
    ida = Cofunctor("id", Q, Q, objs, {}, "rat", "nov")
    upto, lazy = OWNER_KINDS[kind]
    compute = (lambda w: hom(Q.gen("a"))) if lazy else None
    empty = Coderivation("z", ida, ida, 0, levels.rat(0), {}, upto, compute)
    stored = Coderivation("r", ida, ida, 0, levels.rat(0), {1: {("a",): hom(Q.gen("a"))}}, upto, compute)
    assert empty.is_zero_map() and not stored.is_zero_map()
    for n in range(4):
        decided = all(decision(empty, w) == "zero" for w in basis_words(Q, n))
        assert empty.is_zero_map(n) == decided == (upto is None and not lazy or upto is not None and n <= upto)
        assert not stored.is_zero_map(n)


def test_curvature_level_is_the_least_level_of_the_curvature():
    Q = two_object_quiver()
    objs = {o: o for o in Q.objects}
    values = {
        "X": hom(Q.gen("x"), novikov.monomial(1, 2, 0)),
        "Y": hom(Q.gen("y"), novikov.monomial(1, 1, 0)),
    }
    f = Cofunctor("f", Q, Q, objs, {0: values, 1: {("a",): hom(Q.gen("a"))}}, "rat", "nov")
    assert dict(f.curvature) == values
    # x sits at level 1/2 with energy 2, y at level 0 with energy 1.
    assert f.curvature_level == levels.level_min(values["X"].level("rat"), values["Y"].level("rat"))
    assert f.curvature_level == levels.rat(1)
    strict = Cofunctor("g", Q, Q, objs, {1: {("a",): hom(Q.gen("a"))}}, "rat", "nov")
    assert not strict.curvature and strict.curvature_level == levels.INFINITY


def test_operator_builders_agree():
    # Every builder gives the plain (families, singles) pair, with the very
    # owners of the chain, and chain_eval is slot_value of chain_slots.
    Q = two_object_quiver()
    objs = {o: o for o in Q.objects}
    curvature = {o: hom(Q.gen(o.lower()), novikov.monomial(1, 1, 0)) for o in Q.objects}
    letters = {1: {("a",): hom(Q.gen("a")), ("x",): hom(Q.gen("x")), ("y",): hom(Q.gen("y"))}}
    f = Cofunctor("f", Q, Q, objs, {0: curvature, **letters}, "rat", "nov")
    g = Cofunctor("g", Q, Q, objs, letters, "rat", "nov")
    r = Coderivation("r", f, g, 1, levels.rat(0), {1: {("a",): hom(Q.gen("a"))}})
    s = Coderivation("s", g, f, 0, levels.rat(0), {1: {("x",): hom(Q.gen("x"))}})
    assert chain_slots((r,)) == coderivation_slots(r) == ((f, g), (r,))
    assert chain_slots([r, s]) == ((f, g, f), (r, s))
    assert all(a is b for a, b in zip(chain_slots((r, s))[0], (r.f, s.f, s.g)))
    assert chain_slots((), f) == cofunctor_slots(f) == ((f,), ())
    with pytest.raises(FacalcError, match="boundary"):
        chain_slots(())
    with pytest.raises(ObjectMismatch):
        chain_slots((r, r))
    x = TensorElement.from_word(Word.from_gens([Q.gen("x"), Q.gen("a"), Q.gen("y")]), ONE)
    for chain in ((r,), (s, r)):
        value = chain_eval(x, chain, W)
        assert value == slot_value(x, chain_slots(chain), W)
        # f's curvature fills an empty block: x.x.a.y is among the words.
        assert any(len(w) == 4 for w, _ in value[0].terms)


def test_counit_compatibility(pq_quiver):
    # Length-0 input maps to length-0 output with the same scalar.
    f = cofunctor_from_components(
        "f",
        pq_quiver,
        pq_quiver,
        {"X": "X"},
        {
            0: {"X": hom(pq_quiver.gen("g0"), novikov.monomial(1, 1, 0))},
            1: {("g0",): hom(pq_quiver.gen("g0"))},
        },
        W,
        "nov",
    )
    s = novikov.monomial(Fraction(5, 7), Fraction(1, 2), 2)
    out, _ = slot_value(TensorElement.from_word(Word("X"), s), cofunctor_slots(f), W)
    assert dict(out.terms)[Word("X")] == s


def test_single_component_functor_acts_letterwise(pq_quiver):
    # Only length-1 components: the value on a word is the letterwise image.
    g0, g1 = pq_quiver.gen("g0"), pq_quiver.gen("g1")
    f = cofunctor_from_components(
        "f",
        pq_quiver,
        pq_quiver,
        {"X": "X"},
        {1: {("g0",): hom(g1).rat_scale(2) if False else hom(g0).rat_scale(2), ("g1",): hom(g1)}},
        W,
        "nov",
    )
    x = TensorElement.from_word(Word.from_gens([g0, g1, g0]), ONE)
    out, _ = slot_value(x, cofunctor_slots(f), W)
    assert out == TensorElement.from_word(Word.from_gens([g0, g1, g0]), ONE).rat_scale(4)


def test_cofunctor_reconstruction_roundtrip(pq_quiver):
    g0, g1 = pq_quiver.gen("g0"), pq_quiver.gen("g1")
    comps = {
        0: {"X": hom(g0, novikov.monomial(1, 1, 0))},
        1: {("g0",): hom(g0), ("g1",): hom(g1)},
        2: {("g0", "g1"): hom(g1, novikov.monomial(2, 0, 0))},
    }
    f = cofunctor_from_components("f", pq_quiver, pq_quiver, {"X": "X"}, comps, W, "nov")
    for w in basis_words(pq_quiver, 4):
        value, _ = slot_value(TensorElement.from_word(w, ONE), cofunctor_slots(f), W)
        assert value.pr1_hom() == f.comp_value(w)


def test_coderivation_reconstruction_roundtrip(pq_quiver):
    g0, g1 = pq_quiver.gen("g0"), pq_quiver.gen("g1")
    ida = identity_cofunctor(pq_quiver, "rat", "nov")
    comps = {
        0: {"X": hom(g1, novikov.monomial(1, 1, 0))},
        1: {("g0",): hom(g1)},
        2: {("g0", "g0"): hom(g1, novikov.monomial(-1, 0, 0))},
    }
    r = coderivation_from_components("r", ida, ida, 1, levels.rat(0), comps)
    for w in basis_words(pq_quiver, 4):
        value, _ = evaluate_coderivation(r, TensorElement.from_word(w, ONE), W)
        assert value.pr1_hom() == r.comp_value(w)


def test_zero_components_give_zero_coderivation(pq_quiver):
    ida = identity_cofunctor(pq_quiver, "rat", "nov")
    r = coderivation_from_components("r", ida, ida, 1, levels.rat(0), {})
    for w in basis_words(pq_quiver, 3):
        value, _ = evaluate_coderivation(r, TensorElement.from_word(w, ONE), W)
        assert value.is_zero()


def test_coderivation_two_letter_example(pq_quiver):
    # Only a length-1 component with identity endpoints: on a two-letter
    # word the letter is rewritten in each position, with the Koszul sign
    # against the trailing letters.
    g0, g1 = pq_quiver.gen("g0"), pq_quiver.gen("g1")
    ida = identity_cofunctor(pq_quiver, "rat", "nov")
    r = coderivation_from_components(
        "r", ida, ida, 1, levels.rat(0), {1: {("g0",): hom(g1)}}
    )
    x = TensorElement.from_word(Word.from_gens([g0, g0]), ONE)
    out, _ = evaluate_coderivation(r, x, W)
    assert out == TensorElement(
        "X", "X", [(Word.from_gens([g1, g0]), ONE), (Word.from_gens([g0, g1]), ONE)]
    )
    # With odd trailing letter the second term flips.
    y = TensorElement.from_word(Word.from_gens([g0, g1]), ONE)
    out2, _ = evaluate_coderivation(r, y, W)
    assert out2 == TensorElement(
        "X", "X", [(Word.from_gens([g1, g1]), novikov.nov_neg(ONE))]
    )


def test_leibniz_law_words_up_to_4(pq_quiver):
    ida = identity_cofunctor(pq_quiver, "rat", "nov")
    g0, g1 = pq_quiver.gen("g0"), pq_quiver.gen("g1")
    rs = [
        coderivation_from_components("r1", ida, ida, 1, levels.rat(0), {1: {("g0",): hom(g1)}}),
        coderivation_from_components("r2", ida, ida, -1, levels.rat(0), {1: {("g1",): hom(g0)}}),
        coderivation_from_components(
            "r3",
            ida,
            ida,
            1,
            levels.rat(0),
            {0: {"X": hom(g1, novikov.monomial(1, 1, 0))}, 2: {("g0", "g0"): hom(g1)}},
        ),
    ]
    for r in rs:
        for w in basis_words(pq_quiver, 4):
            assert leibniz_residual(r, w, W) == {}, (r.name, w)


def literal_leibniz_residual(r, w, window):
    """``leibniz_residual`` one cut at a time: four ``slot_value`` calls per
    cut of w, the right-hand side summed on its own, then subtracted."""
    one = novikov.one(r.variant)
    lhs_elem, _ = slot_value(TensorElement.from_word(w, one), coderivation_slots(r), window)
    rhs = {}

    def accumulate(left, right, scale, sign):
        for w1, c1 in left.terms:
            for w2, c2 in right.terms:
                c = novikov.nov_mul(novikov.nov_mul(c1, c2), scale)
                if sign < 0:
                    c = novikov.nov_neg(c)
                rhs[(w1, w2)] = novikov.nov_add(rhs[(w1, w2)], c) if (w1, w2) in rhs else c

    for (u, v), c in cut_delta(TensorElement.from_word(w, one)).items():
        fu, _ = slot_value(TensorElement.from_word(u, one), cofunctor_slots(r.f), window)
        rv, _ = slot_value(TensorElement.from_word(v, one), coderivation_slots(r), window)
        accumulate(fu, rv, c, 1)
        ru, _ = slot_value(TensorElement.from_word(u, one), coderivation_slots(r), window)
        gv, _ = slot_value(TensorElement.from_word(v, one), cofunctor_slots(r.g), window)
        accumulate(ru, gv, c, morphisms._crossing_sign(r.deg, v.sdeg))
    residual = dict(cut_delta(lhs_elem))
    for key, c in rhs.items():
        residual[key] = novikov.nov_add(residual[key], novikov.nov_neg(c)) if key in residual else novikov.nov_neg(c)
    out = {}
    for (w1, w2), c in residual.items():
        if len(w1) + len(w2) > window.max_len:
            continue
        base = levels.level_add(w1.base_level(window.instance), w2.base_level(window.instance))
        c = _mod_cutoff(c, base, window.cutoff)
        if not c.is_zero():
            out[(w1, w2)] = c
    return out


@pytest.mark.parametrize("negate", [False, True])
def test_leibniz_residual_matches_the_per_cut_sum(monkeypatch, negate):
    # Every fixture coderivation and codifferential satisfies the law, so
    # every residual is {}.  With the r (x) g sign negated they are not, which
    # keeps the nonzero path of both versions under test.
    if negate:
        crossing = morphisms._crossing_sign
        monkeypatch.setattr(morphisms, "_crossing_sign", lambda deg, tail: -crossing(deg, tail))
    fixtures = Path(__file__).parent / "fixtures"
    nonzero = 0
    for name in ("b1_only", "curved_min", "assoc"):
        model = load_model_file(str(fixtures / f"{name}.json"))
        owners = [*model.coderivations.values(), *(cat.b for cat in model.cats.values())]
        for r in owners:
            for w in basis_words(r.src, 4):
                got = leibniz_residual(r, w, model.window)
                assert got == literal_leibniz_residual(r, w, model.window), (name, r.name, w)
                nonzero += bool(got)
    assert bool(nonzero) == negate


def test_validation_errors(pq_quiver):
    g0, g1 = pq_quiver.gen("g0"), pq_quiver.gen("g1")
    with pytest.raises(DegreeMismatch):
        cofunctor_from_components(
            "bad", pq_quiver, pq_quiver, {"X": "X"}, {1: {("g0",): hom(g1)}}, W, "nov"
        )
    ida = identity_cofunctor(pq_quiver, "rat", "nov")
    with pytest.raises(DegreeMismatch):
        coderivation_from_components(
            "bad", ida, ida, 1, levels.rat(0), {1: {("g0",): hom(g0)}}
        )


def test_curvature_acceptance_and_rejection(pq_quiver):
    g0 = pq_quiver.gen("g0")
    # Level 1/2 curvature at cutoff 3 needs the sixth power: accepted.
    f = cofunctor_from_components(
        "f",
        pq_quiver,
        pq_quiver,
        {"X": "X"},
        {0: {"X": hom(g0, novikov.monomial(1, Fraction(1, 2), 0))}},
        W,
        "nov",
        convergence_bound=6,
    )
    assert f.curvature
    # Bound too small: rejected as undecided.
    with pytest.raises(ConvergenceUndecided):
        cofunctor_from_components(
            "g",
            pq_quiver,
            pq_quiver,
            {"X": "X"},
            {0: {"X": hom(g0, novikov.monomial(1, Fraction(1, 2), 0))}},
            W,
            "nov",
            convergence_bound=5,
        )


def test_discrete_level_zero_curvature_is_undecided():
    gens = [HomGenerator("c", "X", "X", 0, levels.discrete(0))]
    Q = FiltQuiver("D", ["X"], gens)
    window = TruncWindow(4, levels.discrete("inf"))
    phi0 = {"X": HomElement.from_gen(Q.gen("c"), novikov.one("q"))}
    res = tensor_convergent(phi0, window, 8)
    assert res.kind == "undecided"
    with pytest.raises(ConvergenceUndecided):
        cofunctor_from_components(
            "f", Q, Q, {"X": "X"}, {0: {"X": phi0["X"]}}, window, "q", convergence_bound=8
        )


def test_tensor_convergent_cases(pq_quiver):
    g0 = pq_quiver.gen("g0")
    phi = {"X": hom(g0, novikov.monomial(1, Fraction(1, 2), 0))}
    assert tensor_convergent(phi, W, 16).order == 6
    assert tensor_convergent({"X": HomElement.zero("X", "X")}, W, 16).order == 1
    # A single level-0 monomial loop never gains level.
    flat = {"X": hom(g0)}
    assert tensor_convergent(flat, W, 8).kind == "undecided"


def literal_tensor_convergent(phi0, window, bound):
    """The rule ``tensor_convergent`` computes in closed form, literally:
    form each tensor power of every value with ``mu_concat`` until one lies
    in F^cutoff, giving up after ``bound`` powers."""
    inst = window.instance
    worst = None
    for value in phi0.values():
        if value.is_zero():
            continue
        base = TensorElement.from_hom(value)
        power = base
        for n in range(1, bound + 1):
            if levels.level_leq(window.cutoff, power.level(inst)):
                break
            power = mu_concat(power, base)
        else:
            return ConvergenceResult("undecided")
        worst = n if worst is None else max(worst, n)
    return ConvergenceResult("true", worst or 1)


# instance: (variant, generator base levels, energies, cutoffs)
CURVATURE_INSTANCES = {
    "rat": (
        "nov",
        [-1, Fraction(-1, 2), 0, Fraction(1, 3), Fraction(1, 2)],
        [Fraction(-1, 2), 0, Fraction(1, 3), Fraction(1, 2), 1],
        [Fraction(1, 2), 1, 2],
    ),
    "ratplus": (
        "nov0",
        [0, Fraction(1, 3), Fraction(1, 2)],
        [0, Fraction(1, 3), Fraction(1, 2), 1],
        [Fraction(1, 2), 1, 2],
    ),
    "discrete": ("q", [0], [0], ["inf"]),
}


@st.composite
def curvatures(draw):
    """A window and a curvature value on 1 to 3 loops at one object, in one
    of the three instances.  Each loop's coefficient has one or two
    monomials, so the value's level lies below, at or above 0, and its
    lowest energy may carry several e-exponents."""
    inst = draw(st.sampled_from(sorted(CURVATURE_INSTANCES)))
    variant, bases, energies, cutoffs = CURVATURE_INSTANCES[inst]
    gens = [
        HomGenerator(f"g{i}", "X", "X", 0, levels.make_level(inst, draw(st.sampled_from(bases))))
        for i in range(draw(st.integers(1, 3)))
    ]
    exponents = st.just(0) if variant == novikov.PLAIN else st.integers(-1, 1)
    monomial = st.tuples(st.integers(-2, 2).filter(bool), st.sampled_from(energies), exponents)
    terms = [(g, novikov.scalar(draw(st.lists(monomial, min_size=1, max_size=2)), variant)) for g in gens]
    window = TruncWindow(4, levels.make_level(inst, draw(st.sampled_from(cutoffs))))
    return {"X": HomElement("X", "X", terms)}, window


@seed(facalc_seed())
@settings(max_examples=200, deadline=None)
@given(case=curvatures(), bound=st.integers(0, 6))
def test_tensor_convergent_matches_the_power_loop(case, bound):
    phi0, window = case
    assert tensor_convergent(phi0, window, bound) == literal_tensor_convergent(phi0, window, bound)


def test_tensor_convergent_reads_a_high_order_without_forming_powers():
    # Three loops at level 1/100 under cutoff 3: the 300th power, of 3^300
    # words, is the first in F^3.
    model = load_model_file(str(Path(__file__).parent / "fixtures" / "curved_wide.json"))
    f = model.functors["fw"]
    assert tensor_convergent(f.curvature, model.window, 400) == ConvergenceResult("true", 300)
    assert tensor_convergent(f.curvature, model.window, 300).order == 300
    assert tensor_convergent(f.curvature, model.window, 299).kind == "undecided"


def test_convergence_closed_under_sum(rng):
    # Sampled pairs over the nonnegative instance: the sum of two
    # convergent curvature values is convergent.
    window = TruncWindow(6, levels.ratplus(2))
    gens = [HomGenerator("c", "X", "X", 0, levels.ratplus(0))]
    Q = FiltQuiver("R", ["X"], gens)
    c = Q.gen("c")
    for _ in range(20):
        l1 = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        l2 = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        phi = {"X": hom(c, novikov.monomial(1, l1, 0, "nov0"))}
        psi = {"X": hom(c, novikov.monomial(-2, l2, 0, "nov0"))}
        r1 = tensor_convergent(phi, window, 24)
        r2 = tensor_convergent(psi, window, 24)
        both = {"X": phi["X"].add(psi["X"])}
        r3 = tensor_convergent(both, window, 48)
        assert r1.kind == r2.kind == r3.kind == "true"


def test_convergence_closed_under_box(rng):
    # Pair a convergent value with an arbitrary nonnegative-level partner:
    # levels of paired powers add, so the pair converges as well.
    window = TruncWindow(6, levels.ratplus(2))
    gens = [HomGenerator("c", "X", "X", 0, levels.ratplus(0))]
    Q = FiltQuiver("R", ["X"], gens)
    c = Q.gen("c")
    for _ in range(20):
        l1 = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        l2 = Fraction(rng.randint(0, 3), rng.randint(1, 3))
        phi = HomElement.from_gen(c, novikov.monomial(1, l1, 0, "nov0"))
        psi = HomElement.from_gen(c, novikov.monomial(3, l2, 0, "nov0"))
        power_phi = TensorElement.from_hom(phi)
        power_psi = TensorElement.from_hom(psi)
        ok = False
        for n in range(1, 25):
            pair_level = levels.level_add(
                power_phi.level("ratplus"), power_psi.level("ratplus")
            )
            if levels.level_leq(window.cutoff, pair_level):
                ok = True
                break
            power_phi = mu_concat(power_phi, TensorElement.from_hom(phi))
            power_psi = mu_concat(power_psi, TensorElement.from_hom(psi))
        assert ok


def test_every_reduction_counts_the_base_level():
    # Loops of base level 1 and -1 under cutoff 3: a term goes exactly when
    # its base level plus its energy reaches 3, not its energy alone.
    Q = FiltQuiver("L", ["X"], [
        HomGenerator("g", "X", "X", 0, levels.rat(1)),
        HomGenerator("h", "X", "X", 0, levels.rat(-1)),
    ])
    g, h = Q.gen("g"), Q.gen("h")
    window = TruncWindow(4, levels.rat(3))

    def t(energy):
        return novikov.monomial(1, energy, 0)

    x = HomElement("X", "X", [(g, t(Fraction(5, 2))), (h, novikov.nov_add(t(3), t(1)))])
    assert hom_truncate(x, window) == HomElement("X", "X", [(h, novikov.nov_add(t(3), t(1)))])
    y = TensorElement("X", "X", [
        (Word.from_gens([g]), t(Fraction(5, 2))),
        (Word.from_gens([g, h]), t(3)),
        (Word.from_gens([h, h]), t(4)),
    ])
    out, flag = truncate_element(y, window)
    assert out == TensorElement.from_word(Word.from_gens([h, h]), t(4)) and flag == Flag.SOUND


def test_compose_strict():
    Q = loop_quiver(sdegs=(0, 1))
    g0, g1 = Q.gen("g0"), Q.gen("g1")
    ida = identity_cofunctor(Q, "rat", "nov")
    f = cofunctor_from_components(
        "f",
        Q,
        Q,
        {"X": "X"},
        {1: {("g0",): hom(g0).rat_scale(2), ("g1",): hom(g1)}},
        W,
        "nov",
    )
    g = cofunctor_from_components(
        "g",
        Q,
        Q,
        {"X": "X"},
        {1: {("g0",): hom(g0), ("g1",): hom(g1)}, 2: {("g0", "g0"): hom(g0)}},
        W,
        "nov",
    )
    h = compose_cofunctors(f, g, W4)
    assert not h.comps.get(0)
    # h_1 = f_1 then g_1.
    assert h.comp_value(Word.from_gens([g0])) == hom(g0).rat_scale(2)
    # h_2 picks up g_2 on the two f_1 letters: coefficient 4.
    assert h.comp_value(Word.from_gens([g0, g0])) == hom(g0).rat_scale(4)
    # Identity is neutral on both sides.
    assert compose_cofunctors(f, ida, W4).comps == f.comps
    assert compose_cofunctors(ida, f, W4).comps == f.comps


def test_compose_with_curvature_frozen():
    # Curvature of level 1 at cutoff 3: the empty-word component receives
    # the single insertion through g_1 and the double insertion through g_2.
    Q = loop_quiver(sdegs=(0, 0))
    u, v = Q.gen("g0"), Q.gen("g1")
    f = cofunctor_from_components(
        "f",
        Q,
        Q,
        {"X": "X"},
        {
            0: {"X": hom(u, novikov.monomial(1, 1, 0))},
            1: {("g0",): hom(u), ("g1",): hom(v)},
        },
        W,
        "nov",
    )
    g = cofunctor_from_components(
        "g",
        Q,
        Q,
        {"X": "X"},
        {1: {("g0",): hom(u), ("g1",): hom(v)}, 2: {("g0", "g0"): hom(v)}},
        W,
        "nov",
    )
    h = compose_cofunctors(f, g, W3)
    expected_h0 = HomElement(
        "X",
        "X",
        [(u, novikov.monomial(1, 1, 0)), (v, novikov.monomial(1, 2, 0))],
    )
    assert h.comp_value(Word("X")) == expected_h0


def test_push_pull_identities():
    Q = loop_quiver(sdegs=(0, 1))
    g0, g1 = Q.gen("g0"), Q.gen("g1")
    ida = identity_cofunctor(Q, "rat", "nov")
    r = coderivation_from_components(
        "r", ida, ida, 1, levels.rat(0), {1: {("g0",): hom(g1)}, 0: {"X": hom(g1, novikov.monomial(1, 1, 0))}}
    )
    pushed = push_coderivation(r, ida, W3)
    assert pushed.comps == r.comps and pushed.deg == r.deg
    pulled = pull_coderivation(ida, r, W3)
    assert pulled.comps == r.comps
    zero_r = coderivation_from_components("z", ida, ida, 1, levels.rat(0), {})
    assert pull_coderivation(ida, zero_r, W3).comps == {}


def test_push_needs_endpoint_components():
    # Strict endpoints, r given only at length 0, target consumed only by
    # h_2: the single letter has no partner, so the push vanishes at
    # length 0; adding an h_1 route revives it.
    Q = loop_quiver(sdegs=(1, 2))
    c, d = Q.gen("g0"), Q.gen("g1")
    ida = identity_cofunctor(Q, "rat", "nov")
    r = coderivation_from_components(
        "r", ida, ida, 1, levels.rat(0), {0: {"X": hom(c, novikov.monomial(1, 1, 0))}}
    )
    h_only2 = cofunctor_from_components(
        "h2only",
        Q,
        Q,
        {"X": "X"},
        {2: {("g0", "g0"): hom(d)}},
        W,
        "nov",
    )
    pushed = push_coderivation(r, h_only2, W3)
    assert pushed.comp_value(Word("X")).is_zero()
    h_full = cofunctor_from_components(
        "hfull",
        Q,
        Q,
        {"X": "X"},
        {1: {("g0",): hom(c), ("g1",): hom(d)}, 2: {("g0", "g0"): hom(d)}},
        W,
        "nov",
    )
    pushed2 = push_coderivation(r, h_full, W3)
    assert pushed2.comp_value(Word("X")) == hom(c, novikov.monomial(1, 1, 0))


def test_push_level_bound(rng):
    Q = loop_quiver(sdegs=(0, 1))
    g0, g1 = Q.gen("g0"), Q.gen("g1")
    ida = identity_cofunctor(Q, "rat", "nov")
    r = coderivation_from_components(
        "r", ida, ida, 1, levels.rat(1), {1: {("g0",): hom(g1, novikov.monomial(1, 1, 0))}}
    )
    pushed = push_coderivation(r, ida, W3)
    for k, table in pushed.comps.items():
        for key, value in table.items():
            base = levels.zero("rat")
            if k > 0:
                base = Word.from_gens([Q.gen(g) for g in key]).base_level("rat")
            assert levels.level_leq(levels.level_add(base, r.lvl), value.level("rat"))


def test_push_respects_composition():
    Q = loop_quiver(sdegs=(0, 1))
    g0, g1 = Q.gen("g0"), Q.gen("g1")
    ida = identity_cofunctor(Q, "rat", "nov")
    r = coderivation_from_components(
        "r", ida, ida, 1, levels.rat(0), {1: {("g0",): hom(g1)}}
    )
    h1 = cofunctor_from_components(
        "h1",
        Q,
        Q,
        {"X": "X"},
        {1: {("g0",): hom(g0), ("g1",): hom(g1)}, 2: {("g0", "g1"): hom(g1)}},
        W,
        "nov",
    )
    h2 = cofunctor_from_components(
        "h2",
        Q,
        Q,
        {"X": "X"},
        {1: {("g0",): hom(g0).rat_scale(3), ("g1",): hom(g1)}},
        W,
        "nov",
    )
    once = push_coderivation(push_coderivation(r, h1, W3), h2, W3)
    both = push_coderivation(r, compose_cofunctors(h1, h2, W3), W3)
    assert once.comps == both.comps


def test_undecided_on_level_zero_curvature_sums():
    Q = loop_quiver(sdegs=(0,))
    c = Q.gen("g0")
    f = Cofunctor(
        "f",
        Q,
        Q,
        {"X": "X"},
        {0: {"X": hom(c)}, 1: {("g0",): hom(c)}},
        "rat",
        "nov",
    )
    with pytest.raises(ConvergenceUndecided):
        slot_value(TensorElement.from_word(Word("X"), ONE), cofunctor_slots(f), W)


def _fixture_morphisms(cutoff):
    """compose, push, pull and the coder-quiver letters b0, b1, bn built
    from the committed fixtures, at their lengths and the given cutoff."""
    fixtures = Path(__file__).parent / "fixtures"
    b1, curved, cmin = (
        load_model_file(str(fixtures / f"{name}.json"))
        for name in ("b1_only", "curved_compose", "curved_min")
    )
    A, idA, fbad, r = b1.cats["A"], b1.functors["idA"], b1.functors["fbad"], b1.coderivations["r"]
    Am, s = cmin.cats["A"], cmin.coderivations["s"]
    W, Wc, Wm = (TruncWindow(m.window.max_len, cutoff) for m in (b1, curved, cmin))
    return [
        (compose_cofunctors(idA, idA, W), W),
        (compose_cofunctors(curved.functors["fc"], curved.functors["gq"], Wc), Wc),
        (push_coderivation(r, idA, W), W),
        (pull_coderivation(idA, r, W), W),
        (coder_b0(fbad, A, A, W), W),
        (coder_b1(r, A, A, W), W),
        (coder_b1(s, Am, Am, Wm), Wm),
        (coder_bn((r, r), A, A, W), W),
        (coder_bn((s, s), Am, Am, Wm), Wm),
    ]


@pytest.mark.parametrize("cutoff", ["3", "1"])
def test_lazy_compute_matches_extracted_components(cutoff):
    # At cutoff 1 the truncation drops terms of coder_b1(s) on curved_min, so
    # an extraction or a lazy path that skips hom_truncate fails here.
    for owner, window in _fixture_morphisms(levels.rat(cutoff)):
        assert owner.compute is not None and owner.complete_upto is not None
        for w in basis_words(owner.src, owner.complete_upto):
            stored = owner.comps.get(len(w), {}).get(comp_key(w))
            got = owner.compute(w)
            assert got == hom_truncate(got, window), (owner, w)
            if stored is None:
                assert got.is_zero(), (owner, w)
            else:
                assert got == stored, (owner, w)


# ---------------------------------------------------------------------------
# A component found at a window is a proof: a wider window, cut back to the
# narrow one, finds the same component.


def transported_tables(command, fixture, n, e):
    """The component tables of what ``command`` makes from its task in
    the fixture at the window (n, e): the composite, or the pushed or
    pulled coderivation with its two cofunctors."""
    model = load_model_file(str(Path(__file__).parent / "fixtures" / f"{fixture}.json"))
    task = model.tasks[command]
    window = TruncWindow(n, levels.rat(e))
    functors, coders = model.functors, model.coderivations
    if command == "compose":
        return [compose_cofunctors(functors[task["f"]], functors[task["g"]], window).comps]
    if command == "push":
        out = push_coderivation(coders[task["r"]], functors[task["h"]], window)
    else:
        out = pull_coderivation(functors[task["e"]], coders[task["r"]], window)
    return [out.comps, out.f.comps, out.g.comps]


@pytest.mark.parametrize("narrow, wide", [((4, 2), (6, 3)), ((5, 3), (8, 5)), ((3, 1), (6, 4))])
@pytest.mark.parametrize(
    "command, fixture", [("compose", "curved_compose"), ("compose", "b1_only"), ("push", "b1_only"), ("pull", "b1_only")]
)
def test_a_sound_component_survives_a_wider_window(command, fixture, narrow, wide):
    # Reduction modulo F^E commutes with the filtered maps of the completed
    # setting, so the components at (N, E) are those at (N', E') >= (N, E)
    # of length <= N, each reduced modulo F^E.  These components are SOUND
    # at both windows: each is a finite fold reduced by ``hom_truncate``,
    # and an undecided sum would raise instead.
    window = TruncWindow(narrow[0], levels.rat(narrow[1]))
    got = transported_tables(command, fixture, *narrow)
    wider = transported_tables(command, fixture, *wide)
    assert len(got) == len(wider)
    for small, big in zip(got, wider):
        cut = {(k, key): hom_truncate(v, window) for k, table in big.items() if k <= narrow[0] for key, v in table.items()}
        assert {(k, key): v for k, table in small.items() for key, v in table.items()} == {
            at: v for at, v in cut.items() if not v.is_zero()}
