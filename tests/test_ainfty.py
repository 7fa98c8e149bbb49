import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from facalc import levels, novikov
from facalc.ainfty import (
    _chain_name,
    _chains,
    CoderQuiver,
    ainf_category,
    chain_eval,
    check_ainf_functor,
    check_b_squared,
    check_coder_b_squared,
    check_transfer_identity,
    coder_b0,
    coder_b1,
    coder_bn,
    coder_differential_terms,
    family_value,
    shift_degree,
    word_name,
)
from facalc.filtquiver import HomElement, koszul_sign
from facalc.morphisms import (
    _crossing_sign,
    coderivation_from_components,
    coderivation_slots,
    cofunctor_from_components,
    identity_cofunctor,
    slot_value,
)
from facalc.structfile import load_model
from facalc.tcoalg import Flag, TensorElement, TruncWindow, Word, basis_words, join_flags

from conftest import facalc_seed, loop_quiver

ONE = novikov.one()
W = TruncWindow(6, levels.rat(3))
W3 = TruncWindow(3, levels.rat(3))


def hom(g, coeff=None):
    return HomElement.from_gen(g, coeff if coeff is not None else ONE)


@pytest.fixture
def chain_cat():
    """One object, p of degree 0 and q of degree 1, differential p -> q."""
    Q = loop_quiver(sdegs=(0, 1))
    cat = ainf_category(Q, {1: {("g0",): hom(Q.gen("g1"))}}, W, "nov")
    return Q, cat


@pytest.fixture
def curved_cat():
    Q = loop_quiver("Ac", sdegs=(1,))
    cat = ainf_category(Q, {0: {"X": hom(Q.gen("g0"), novikov.monomial(1, 1, 0))}}, W, "nov")
    return Q, cat


def algebra_category(table, name="Alg"):
    """Two degree-0 elements stored with shifted degree -1 and a product
    table {(i,j): value or None}."""
    Q = loop_quiver(name, sdegs=(-1, -1))
    u, v = Q.gen("g0"), Q.gen("g1")
    comp = {}
    for (i, j), out in table.items():
        if out is not None:
            comp[(f"g{i}", f"g{j}")] = hom(Q.gen(f"g{out}"))
    return Q, ainf_category(Q, {2: comp}, W, "nov")


def test_shift_helpers():
    assert shift_degree(1) == 0


def test_b_squared_differential_only(chain_cat):
    _, cat = chain_cat
    assert all(e.ok for e in check_b_squared(cat, W, 3))


def test_b_squared_curved_minimal(curved_cat):
    _, cat = curved_cat
    assert all(e.ok for e in check_b_squared(cat, W, 3))


def test_b_squared_associative_vs_not():
    # Unit element u, square-zero v: associative, all relations pass at
    # n <= 4 (higher products vanish, so n = 4 is vacuous).
    _, good = algebra_category({(0, 0): 0, (0, 1): 1, (1, 0): 1})
    entries = check_b_squared(good, W, 4)
    assert all(e.ok for e in entries)
    assert any(e.n == 4 for e in entries)
    # Mutation: m(u,u) = v, m(u,v) = u makes (uu)u = 0 while u(uu) = u.
    _, bad = algebra_category({(0, 0): 1, (0, 1): 0}, name="AlgBad")
    bad_entries = [e for e in check_b_squared(bad, W, 4) if not e.ok]
    assert bad_entries and all(e.n == 3 for e in bad_entries)
    assert any(e.word == "g0.g0.g0" and e.residual != "0" for e in bad_entries)


def test_functor_checks(chain_cat):
    Q, cat = chain_cat
    ida = identity_cofunctor(Q, "rat", "nov")
    assert all(e.ok for e in check_ainf_functor(ida, cat, cat, W, 3))
    # A degree-0 chain map: scaling both generators by the same factor.
    f = cofunctor_from_components(
        "f",
        Q,
        Q,
        {"X": "X"},
        {1: {("g0",): hom(Q.gen("g0")).rat_scale(2), ("g1",): hom(Q.gen("g1")).rat_scale(2)}},
        W,
        "nov",
    )
    assert all(e.ok for e in check_ainf_functor(f, cat, cat, W, 3))
    # Not a chain map: drops the target generator.
    fbad = cofunctor_from_components(
        "fbad", Q, Q, {"X": "X"}, {1: {("g0",): hom(Q.gen("g0"))}}, W, "nov"
    )
    bad = [e for e in check_ainf_functor(fbad, cat, cat, W, 3) if not e.ok]
    assert bad and min(e.n for e in bad) == 1


def test_b0_vanishes_exactly_on_functors(chain_cat):
    Q, cat = chain_cat
    ida = identity_cofunctor(Q, "rat", "nov")
    assert coder_b0(ida, cat, cat, W, upto=3).is_zero_map()
    fbad = cofunctor_from_components(
        "fbad", Q, Q, {"X": "X"}, {1: {("g0",): hom(Q.gen("g0"))}}, W, "nov"
    )
    b0 = coder_b0(fbad, cat, cat, W, upto=3)
    # With only first-order data the defect is f1 then b1, minus b1 then f1.
    g0, g1 = Q.gen("g0"), Q.gen("g1")
    fb = cat.b.comp_value(Word.from_gens([g0]))  # f1(g0)=g0, then b1: g1
    bf = fbad.comp_value(Word.from_gens([g1]))   # b1(g0)=g1, then f1: 0
    assert b0.comp_value(Word.from_gens([g0])) == fb.add(bf.neg())
    assert b0.deg == 1


def test_b0_zero_categories():
    Q = loop_quiver(sdegs=(0,))
    cat = ainf_category(Q, {}, W, "nov")
    ida = identity_cofunctor(Q, "rat", "nov")
    assert coder_b0(ida, cat, cat, W, upto=3).is_zero_map()


def test_b1_is_graded_commutator_on_functor_endpoints(chain_cat):
    Q, cat = chain_cat
    ida = identity_cofunctor(Q, "rat", "nov")
    g0, g1 = Q.gen("g0"), Q.gen("g1")
    r = coderivation_from_components(
        "r", ida, ida, 0, levels.rat(0), {1: {("g0",): hom(g0), ("g1",): hom(g1).rat_scale(-1)}}
    )
    out = coder_b1(r, cat, cat, W, upto=3)
    sign = -1 if r.deg % 2 else 1
    for w in basis_words(Q, 3):
        x = TensorElement.from_word(w, ONE)
        rw, _ = slot_value(x, coderivation_slots(r), W, length_truncate=False)
        rb = family_value(cat.b, rw)
        bw, _ = slot_value(x, coderivation_slots(cat.b), W, length_truncate=False)
        br = family_value(r, bw)
        commutator = rb.add(br.rat_scale(-sign))
        assert out.comp_value(w) == commutator
    # The commutator of a coderivation with the codifferential is again a
    # coderivation (Leibniz re-verified downstream); here: degree shifts.
    assert out.deg == r.deg + 1


def test_b1_low_order_formula_with_curvature():
    # Everything nonzero only in low orders: endpoint curvature, a level-0
    # coderivation value on the empty word, and a two-slot product. The
    # length-0 component of the differentiated coderivation must match the
    # explicit double sum plus the curvature correction term.
    Q = loop_quiver("LC", sdegs=(0, 1))
    u, c = Q.gen("g0"), Q.gen("g1")
    cat = ainf_category(
        Q,
        {
            0: {"X": hom(c, novikov.monomial(1, 1, 0))},
            1: {("g0",): hom(c, novikov.monomial(1, 2, 0)), ("g1",): hom(c, novikov.monomial(5, 1, 1)).rat_scale(0)},
            2: {("g0", "g0"): hom(c)},
        },
        W,
        "nov",
    )
    f = cofunctor_from_components(
        "f",
        Q,
        Q,
        {"X": "X"},
        {0: {"X": hom(u, novikov.monomial(1, 1, 0))}, 1: {("g0",): hom(u), ("g1",): hom(c)}},
        W,
        "nov",
    )
    g = cofunctor_from_components(
        "g",
        Q,
        Q,
        {"X": "X"},
        {0: {"X": hom(u, novikov.monomial(2, 1, 0))}, 1: {("g0",): hom(u), ("g1",): hom(c)}},
        W,
        "nov",
    )
    r = coderivation_from_components(
        "r",
        f,
        g,
        0,
        levels.rat(0),
        {
            0: {"X": hom(u, novikov.monomial(1, 1, 0))},
            1: {("g0",): hom(u), ("g1",): hom(c).rat_scale(3)},
        },
    )
    out = coder_b1(r, cat, cat, W, upto=1)

    # Independent expansion: sum over placements of the length-0 values
    # around the single r-insertion, fed to the product components, minus
    # the curvature consumed by the first-order part of r.
    f0 = f.comp_value(Word("X"))
    g0v = g.comp_value(Word("X"))
    r0 = r.comp_value(Word("X"))
    expected = HomElement.zero("X", "X")
    for i in range(3):
        for k in range(3):
            letters = [f0] * i + [r0] + [g0v] * k
            word_val = None
            for letter in letters:
                word_val = (
                    TensorElement.from_hom(letter)
                    if word_val is None
                    else _concat(word_val, letter)
                )
            expected = expected.add(family_value(cat.b, word_val))
    b0v = cat.b.comp_value(Word("X"))
    sign = -1 if r.deg % 2 else 1
    rc = r.comp_value(Word.from_gens([c]))
    scaled = HomElement(rc.src, rc.dst, [(gen, novikov.nov_mul(cg, _coeff(b0v))) for gen, cg in rc.terms])
    expected = expected.add(scaled.rat_scale(-sign))
    from facalc.morphisms import hom_truncate

    assert out.comp_value(Word("X")) == hom_truncate(expected, W)
    assert not out.comp_value(Word("X")).is_zero()


def _concat(elem, letter):
    from facalc.tcoalg import mu_concat

    return mu_concat(elem, TensorElement.from_hom(letter))


def _coeff(h):
    assert len(h.terms) == 1
    return h.terms[0][1]


def test_bn_zero_and_strict_insertion(chain_cat):
    Q, cat = chain_cat
    g0, g1 = Q.gen("g0"), Q.gen("g1")
    ida = identity_cofunctor(Q, "rat", "nov")
    zero_r = coderivation_from_components("z", ida, ida, 1, levels.rat(0), {})
    r = coderivation_from_components(
        "r", ida, ida, 1, levels.rat(0), {1: {("g0",): hom(g1)}}
    )
    assert coder_bn([zero_r, r], cat, cat, W, upto=2).is_zero_map()

    # b2-only target: the second component of the differential of a pair of
    # first-order coderivations is their letterwise insertion into the
    # product, with the sign produced by the transposition oracle.
    QA, alg = algebra_category({(0, 0): 0, (0, 1): 1, (1, 0): 1})
    idalg = identity_cofunctor(QA, "rat", "nov")
    u, v = QA.gen("g0"), QA.gen("g1")
    r1 = coderivation_from_components(
        "r1", idalg, idalg, 0, levels.rat(0), {1: {("g0",): hom(g1v := v)}}
    )
    r2 = coderivation_from_components(
        "r2", idalg, idalg, 0, levels.rat(0), {1: {("g1",): hom(u)}}
    )
    out = coder_bn([r1, r2], alg, alg, W, upto=2)
    for w in basis_words(QA, 2):
        if len(w) != 2:
            assert out.comp_value(w).is_zero()
            continue
        a, b = w.gens
        expect = family_value(alg.b, _pair(r1.comp_value(Word.from_gens([a])), r2.comp_value(Word.from_gens([b]))))
        got = out.comp_value(w)
        assert got == expect, (w, got, expect)
    assert out.deg == 1 + r1.deg + r2.deg


def _pair(h1, h2):
    from facalc.tcoalg import mu_concat

    return mu_concat(TensorElement.from_hom(h1), TensorElement.from_hom(h2))


def test_bn_level_additivity(chain_cat):
    Q, cat = chain_cat
    ida = identity_cofunctor(Q, "rat", "nov")
    g0, g1 = Q.gen("g0"), Q.gen("g1")
    r1 = coderivation_from_components(
        "r1", ida, ida, 1, levels.rat(1), {1: {("g0",): hom(g1, novikov.monomial(1, 1, 0))}}
    )
    r2 = coderivation_from_components(
        "r2", ida, ida, 1, levels.rat("1/2"), {1: {("g0",): hom(g1, novikov.monomial(1, "1/2", 0))}}
    )
    out = coder_bn([r1, r2], cat, cat, W, upto=3)
    assert out.lvl == levels.rat(Fraction(3, 2))
    for k, table in out.comps.items():
        for key, value in table.items():
            base = levels.zero("rat")
            if k:
                base = Word.from_gens([Q.gen(g) for g in key]).base_level("rat")
            assert levels.level_leq(levels.level_add(base, out.lvl), value.level("rat"))


def test_coder_b_squared(chain_cat, curved_cat):
    Q, cat = chain_cat
    ida = identity_cofunctor(Q, "rat", "nov")
    r = coderivation_from_components(
        "r", ida, ida, 1, levels.rat(0), {1: {("g0",): hom(Q.gen("g1"))}}
    )
    Qq = CoderQuiver(cat, cat, [ida], [r])
    assert all(e.ok for e in check_coder_b_squared(Qq, W, 2, 3))

    Qc, ccat = curved_cat
    idc = identity_cofunctor(Qc, "rat", "nov")
    s = coderivation_from_components(
        "s", idc, idc, 0, levels.rat(0), {1: {("g0",): hom(Qc.gen("g0"))}}
    )
    Qq2 = CoderQuiver(ccat, ccat, [idc], [s])
    assert all(e.ok for e in check_coder_b_squared(Qq2, W, 2, 3))


def test_coder_chains_stop_at_n_max(chain_cat):
    # n_max bounds the chain length, 0 included: n_max 0 checks the empty
    # chains alone, as check-b2 checks length 0 alone.
    Q, cat = chain_cat
    ida = identity_cofunctor(Q, "rat", "nov")
    r = coderivation_from_components(
        "r", ida, ida, 1, levels.rat(0), {1: {("g0",): hom(Q.gen("g1"))}}
    )
    Qq = CoderQuiver(cat, cat, [ida], [r])
    for n_max in range(4):
        assert [chain for chain, _ in _chains(Qq, n_max)] == [(r,) * n for n in range(n_max + 1)]
        assert {e.n for e in check_coder_b_squared(Qq, W, n_max, 1)} == set(range(n_max + 1))


def test_all_zero_differential_gives_zero_B():
    Q = loop_quiver(sdegs=(0, 1))
    cat = ainf_category(Q, {}, W, "nov")
    ida = identity_cofunctor(Q, "rat", "nov")
    r = coderivation_from_components(
        "r", ida, ida, 1, levels.rat(0), {1: {("g0",): hom(Q.gen("g1"))}}
    )
    assert coder_b0(ida, cat, cat, W, upto=2).is_zero_map()
    assert coder_b1(r, cat, cat, W, upto=2).is_zero_map()
    assert coder_bn([r, r], cat, cat, W, upto=2).is_zero_map()


def test_transfer_identity(chain_cat, curved_cat):
    Q, cat = chain_cat
    ida = identity_cofunctor(Q, "rat", "nov")
    r = coderivation_from_components(
        "r", ida, ida, 1, levels.rat(0), {1: {("g0",): hom(Q.gen("g1"))}}
    )
    Qq = CoderQuiver(cat, cat, [ida], [r])
    assert all(e.ok for e in check_transfer_identity(Qq, W, 2, 3))
    Qc, ccat = curved_cat
    idc = identity_cofunctor(Qc, "rat", "nov")
    s = coderivation_from_components(
        "s", idc, idc, 0, levels.rat(0), {1: {("g0",): hom(Qc.gen("g0"))}}
    )
    assert all(e.ok for e in check_transfer_identity(CoderQuiver(ccat, ccat, [idc], [s]), W, 2, 3))


def test_b_squared_failure_propagates_to_B():
    # A broken product makes the double differential visible on chains.
    Q, bad = algebra_category({(0, 0): 1, (0, 1): 0}, name="AlgBad2")
    ida = identity_cofunctor(Q, "rat", "nov")
    r = coderivation_from_components(
        "r", ida, ida, 0, levels.rat(0), {1: {("g0",): hom(Q.gen("g1"))}}
    )
    Qq = CoderQuiver(bad, bad, [ida], [r])
    entries = check_coder_b_squared(Qq, W3, 1, 3)
    assert any(not e.ok for e in entries)


def _coder_b2_oracle(Q, window, n_max, word_len_max):
    """The residual sum of check_coder_b_squared written literally: each
    term negated with neg() and accumulated with add()."""
    one = novikov.one(Q.source.variant)
    out = []
    for chain, boundary in _chains(Q, n_max):
        second = [
            (s1 * s2, ch2)
            for s1, ch1 in coder_differential_terms(Q, chain, boundary, window, upto=word_len_max)
            for s2, ch2 in coder_differential_terms(Q, ch1, boundary, window, upto=word_len_max)
        ]
        for a in basis_words(Q.source.quiver, word_len_max):
            residual = None
            flag = Flag.SOUND
            for s, ch in second:
                val, fl = chain_eval(TensorElement.from_word(a, one), ch, window, boundary=boundary)
                flag = join_flags(flag, fl)
                val = val if s == 1 else val.neg()
                residual = val if residual is None else residual.add(val)
            res = "0" if residual is None or residual.is_zero() else repr(residual)
            out.append((_chain_name(chain, boundary) + "|" + word_name(a), res, str(flag)))
    return out


def test_coder_b_squared_residuals_match_the_literal_sum():
    # AlgBad2 is the one case with nonzero coder-b2 residuals: pin each of
    # them, sign included.
    Q, bad = algebra_category({(0, 0): 1, (0, 1): 0}, name="AlgBad2")
    ida = identity_cofunctor(Q, "rat", "nov")
    r = coderivation_from_components(
        "r", ida, ida, 0, levels.rat(0), {1: {("g0",): hom(Q.gen("g1"))}}
    )
    entries = check_coder_b_squared(CoderQuiver(bad, bad, [ida], [r]), W3, 1, 3)
    want = _coder_b2_oracle(CoderQuiver(bad, bad, [ida], [r]), W3, 1, 3)
    assert [(e.word, e.residual, e.flag) for e in entries] == want
    assert len(entries) == 30
    assert sum(not e.ok for e in entries) == 4


def _insertion_sign(left, mid, right):
    """The Koszul sign of an odd letter inserted over mid, crossing right."""
    return koszul_sign([0] * len(left) + [1] + [0] * len(right), left + [sum(mid)] + right)


@seed(facalc_seed())
@settings(max_examples=300, deadline=None)
@given(
    left=st.lists(st.integers(-3, 3), max_size=4),
    mid=st.lists(st.integers(-3, 3), max_size=4),
    right=st.lists(st.integers(-3, 3), max_size=4),
)
def test_insertion_sign_closed_form_matches_koszul_sign(left, mid, right):
    # coder_differential_terms uses the closed form.
    assert _crossing_sign(1, sum(right)) == _insertion_sign(left, mid, right)


def test_differential_terms_carry_the_insertion_sign():
    Q, bad = algebra_category({(0, 0): 1, (0, 1): 0}, name="AlgBad2")
    ida = identity_cofunctor(Q, "rat", "nov")
    g1 = Q.gen("g1")
    r0 = coderivation_from_components("r0", ida, ida, 0, levels.rat(0), {1: {("g0",): hom(g1)}})
    r1 = coderivation_from_components("r1", ida, ida, 1, levels.rat(0), {2: {("g0", "g0"): hom(g1)}})
    Qq = CoderQuiver(bad, bad, [ida], [r0, r1])
    signs = set()
    for chain in [(r0,), (r1,), (r0, r1), (r1, r0), (r1, r1)]:
        for sign, out in coder_differential_terms(Qq, chain, ida, W3, upto=2):
            # out is chain[:i] + (letter,) + chain[j:]; the letter is new.
            i = next(p for p, x in enumerate(out) if p == len(chain) or x is not chain[p])
            right = out[i + 1:]
            degs = [r.deg for r in chain]
            want = _insertion_sign(degs[:i], degs[i:len(chain) - len(right)], degs[len(chain) - len(right):])
            assert sign == want
            signs.add(sign)
    assert signs == {1, -1}


def test_a_coderivation_named_like_a_letter_gets_its_own_letter():
    # ``b1(s)`` is both the name of the letter collapsing s and, here, of a
    # declared copy of s: the letter cache must not mix them up.
    doc = json.loads((pathlib.Path(__file__).parent / "fixtures" / "curved_min.json").read_text())
    copy = dict(next(r for r in doc["coderivations"] if r["name"] == "s"), name="b1(s)")
    doc["coderivations"].append(copy)
    doc["coder_quiver"]["coderivations"].append("b1(s)")
    model = load_model(json.dumps(doc))
    Q, window = model.coder_quiver, model.window
    decl = model.coderivations["b1(s)"]
    check_coder_b_squared(Q, window, 2, 3)
    letter = Q.differential_letter((decl,), decl.f, window, 3)
    want = coder_b1(decl, Q.source, Q.target, window, upto=3)
    assert letter.deg == want.deg == 1
    assert letter.comps == want.comps and letter.comps
    assert all(e.ok for e in check_transfer_identity(Q, window, 1, 3))
