import pathlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from facalc import cli, levels, novikov
from facalc.errors import FacalcError, InstanceMismatch, ObjectMismatch
from facalc.filtquiver import FiltQuiver, HomElement, HomGenerator
from facalc.levels import Level
from facalc.morphisms import comp_key, hom_truncate
from facalc.novikov import NovikovScalar, nov_truncate
from facalc.tcoalg import (
    Flag,
    TensorElement,
    TruncWindow,
    Word,
    _mod_cutoff,
    basis_words,
    cut_delta,
    delta_k,
    mu_concat,
    quiver_word,
    reduced_delta_k,
    term_level,
    truncate_element,
    word_blocks,
)

from conftest import facalc_seed, loop_quiver, seq_splits, three_object_quiver, two_object_quiver

ONE = novikov.one()


def oracle_splits(letters, k, allow_empty):
    """Independent enumeration: choose the first block, recurse on the rest."""
    if k == 1:
        if letters or allow_empty:
            yield (tuple(letters),)
        return
    sizes = range(0, len(letters) + 1) if allow_empty else range(1, len(letters) + 1)
    for size in sizes:
        head = tuple(letters[:size])
        if not allow_empty and not head:
            continue
        for rest in oracle_splits(letters[size:], k - 1, allow_empty):
            yield (head,) + rest


def blocks_of(word, k, allow_empty):
    out = {}
    for key in (delta_k if allow_empty else reduced_delta_k)(
        TensorElement.from_word(word, ONE), k
    ):
        out[tuple(tuple(g.gid for g in w.gens) for w in key)] = 1
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_splits_match_oracle(k):
    Q = loop_quiver(sdegs=(0, 1))
    for word in basis_words(Q, 4):
        got = set(blocks_of(word, k, True))
        want = {
            tuple(tuple(g.gid for g in blk) for blk in split)
            for split in oracle_splits(list(word.gens), k, True)
        }
        assert got == want
        got_r = set(blocks_of(word, k, False))
        want_r = {
            tuple(tuple(g.gid for g in blk) for blk in split)
            for split in oracle_splits(list(word.gens), k, False)
            if len(word) > 0
        }
        assert got_r == want_r


@pytest.mark.parametrize("k", range(1, 8))
def test_delta_lists_the_cuts_of_the_split_enumerator(k):
    # The same blocks in the same order as seq_splits, which also lists
    # no split at all for the reduced k = 1 iterate of an empty word.
    Q = loop_quiver(sdegs=(0,))
    for word in basis_words(Q, 6):
        x = TensorElement.from_word(word, ONE)
        for allow_empty, delta in ((True, delta_k), (False, reduced_delta_k)):
            want = [word_blocks(word, cuts) for cuts in seq_splits(len(word), k, allow_empty)]
            assert list(delta(x, k)) == want


def test_cut_examples():
    Q = loop_quiver(sdegs=(0, 1))
    g1, g2 = Q.gen("g0"), Q.gen("g1")
    # The empty word splits as empty (x) empty only.
    d = cut_delta(TensorElement.from_word(Word("X"), ONE))
    assert list(d) == [(Word("X"), Word("X"))]
    # A two-letter word has three cuts, with both empty ends.
    d2 = cut_delta(TensorElement.from_word(Word.from_gens([g1, g2]), ONE))
    assert set((len(a), len(b)) for a, b in d2) == {(0, 2), (1, 1), (2, 0)}
    # A single letter: two cuts.
    d1 = cut_delta(TensorElement.from_word(Word.from_gens([g1]), ONE))
    assert set((len(a), len(b)) for a, b in d1) == {(0, 1), (1, 0)}


def test_delta3_placements_of_single_letter():
    Q = loop_quiver(sdegs=(0,))
    g = Q.gen("g0")
    d = delta_k(TensorElement.from_word(Word.from_gens([g]), ONE), 3)
    assert set(tuple(len(w) for w in key) for key in d) == {
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    }
    assert all(c == ONE for c in d.values())




def test_coassociativity():
    for Q in (loop_quiver(sdegs=(0, 1)), two_object_quiver(), three_object_quiver()):
        for word in basis_words(Q, 5):
            x = TensorElement.from_word(word, ONE)
            # (Delta (x) 1) Delta vs (1 (x) Delta) Delta, both as 3-block splits.
            left = {}
            for (a, b), c in cut_delta(x).items():
                for (a1, a2), c2 in cut_delta(TensorElement.from_word(a, c)).items():
                    key = (a1, a2, b)
                    left[key] = novikov.nov_add(left[key], c2) if key in left else c2
            right = {}
            for (a, b), c in cut_delta(x).items():
                for (b1, b2), c2 in cut_delta(TensorElement.from_word(b, c)).items():
                    key = (a, b1, b2)
                    right[key] = novikov.nov_add(right[key], c2) if key in right else c2
            three = delta_k(x, 3)
            assert left == right == three


def test_counitality():
    Q = two_object_quiver()
    for word in basis_words(Q, 5):
        x = TensorElement.from_word(word, ONE)
        # (eps (x) 1) Delta = id = (1 (x) eps) Delta.
        left = TensorElement.zero(x.src, x.dst)
        right = TensorElement.zero(x.src, x.dst)
        for (a, b), c in cut_delta(x).items():
            if len(a) == 0:
                left = left.add(TensorElement.from_word(b, c))
            if len(b) == 0:
                right = right.add(TensorElement.from_word(a, c))
        assert left == x
        assert right == x


def test_conilpotence():
    Q = two_object_quiver()
    for word in basis_words(Q, 5, include_empty=False):
        n = len(word)
        assert reduced_delta_k(TensorElement.from_word(word, ONE), n + 1) == {}
        assert reduced_delta_k(TensorElement.from_word(word, ONE), n) != {}


def test_reduced_examples():
    Q = loop_quiver(sdegs=(0, 1))
    g1, g2 = Q.gen("g0"), Q.gen("g1")
    assert reduced_delta_k(TensorElement.from_word(Word.from_gens([g1]), ONE), 2) == {}
    d = reduced_delta_k(TensorElement.from_word(Word.from_gens([g1, g2]), ONE), 2)
    assert list(d) == [(Word.from_gens([g1]), Word.from_gens([g2]))]


def test_projection_compatibility():
    # Killing empty ends of the cut equals the reduced cut on positive parts.
    Q = two_object_quiver()
    for word in basis_words(Q, 5, include_empty=False):
        x = TensorElement.from_word(word, ONE)
        projected = {
            key: c for key, c in cut_delta(x).items() if len(key[0]) and len(key[1])
        }
        assert projected == reduced_delta_k(x, 2)


def test_mu_concat():
    Q = loop_quiver(sdegs=(0, 1))
    g1, g2 = Q.gen("g0"), Q.gen("g1")
    x = TensorElement.from_word(Word.from_gens([g1]), ONE)
    y = TensorElement.from_word(Word.from_gens([g2]), ONE)
    unit = TensorElement.from_word(Word("X"), ONE)
    assert mu_concat(unit, x) == x
    assert mu_concat(x, unit) == x
    assert mu_concat(x, y) == TensorElement.from_word(Word.from_gens([g1, g2]), ONE)


def test_mu_associativity_against_list_oracle(rng):
    Q = two_object_quiver()
    words = basis_words(Q, 3)
    for _ in range(30):
        ws = [rng.choice(words) for _ in range(3)]
        if ws[0].dst != ws[1].src or ws[1].dst != ws[2].src:
            continue
        expect_gens = tuple(ws[0].gens + ws[1].gens + ws[2].gens)
        xs = [TensorElement.from_word(w, ONE) for w in ws]
        left = mu_concat(mu_concat(xs[0], xs[1]), xs[2])
        right = mu_concat(xs[0], mu_concat(xs[1], xs[2]))
        assert left == right
        assert [g.gid for w, _ in left.terms for g in w.gens] == [
            g.gid for g in expect_gens
        ]


def test_counit_is_concat_homomorphism_on_length_zero():
    s = novikov.monomial(2, 1, 0)
    t = novikov.monomial(Fraction(1, 2), 0, 1)
    x = TensorElement.from_word(Word("X"), s)
    y = TensorElement.from_word(Word("X"), t)
    assert mu_concat(x, y).terms == ((Word("X"), novikov.nov_mul(s, t)),)


def test_truncate_element():
    Q = loop_quiver(sdegs=(0,))
    g = Q.gen("g0")
    w3 = Word.from_gens([g, g, g])
    window = TruncWindow(2, levels.rat(2))
    # Level-0 word of length 3: dropped for length, information lost.
    x = TensorElement.from_word(w3, ONE)
    out, flag = truncate_element(x, window)
    assert out.is_zero() and flag == Flag.LOSSY
    # Same word carrying level 2: dropped but provably above the cutoff.
    y = TensorElement.from_word(w3, novikov.monomial(1, 2, 0))
    out, flag = truncate_element(y, window)
    assert out.is_zero() and flag == Flag.SOUND
    # Idempotence.
    z = x.add(TensorElement.from_word(Word.from_gens([g]), ONE))
    once, _ = truncate_element(z, window)
    twice, flag2 = truncate_element(once, window)
    assert once == twice and flag2 == Flag.SOUND


def test_window_validation():
    with pytest.raises(FacalcError):
        TruncWindow(2, levels.rat(0))
    with pytest.raises(FacalcError):
        TruncWindow(-1, levels.rat(1))
    with pytest.raises(FacalcError):
        TruncWindow(2, levels.INFINITY)
    TruncWindow(0, levels.discrete("inf"))


def test_base_level_is_kept_per_instance():
    Q = two_object_quiver()
    w = Word.from_gens([Q.gen("x"), Q.gen("a"), Q.gen("y")])
    # x sits at level 1/2, a and y at 0.
    first = w.base_level("rat")
    assert first == levels.rat(Fraction(1, 2))
    assert w.base_level("rat") is first
    # The generators are rational levels: another instance does not mix.
    for _ in range(2):
        with pytest.raises(InstanceMismatch):
            w.base_level("ratplus")
    assert w.base_level("rat") is first
    empty = Word("X")
    assert empty.base_level("rat") == levels.rat(0)
    assert empty.base_level("discrete") == levels.discrete(0)
    assert empty.base_level("rat") == levels.rat(0)


def test_basis_words_are_built_once_per_quiver_and_key():
    # Each call gives a new list, of the quiver's kept words: every list,
    # with or without its empty words, shares one object per word.
    Q = two_object_quiver()
    first = basis_words(Q, 3)
    again = basis_words(Q, 3)
    assert again is not first and again == first
    assert all(w is v for w, v in zip(again, first))
    assert all(w is Q.words[comp_key(w)] for w in first)
    nonempty = basis_words(Q, 3, include_empty=False)
    assert nonempty == [w for w in first if len(w)]
    assert all(w is v for w, v in zip(nonempty, (w for w in first if len(w))))
    assert all(w is v for w, v in zip(basis_words(Q, 2), first))
    # A quiver with the same contents keeps its own words, equal ones.
    other = basis_words(two_object_quiver(), 3)
    assert other == first and not any(w is v for w, v in zip(other, first))


# ---------------------------------------------------------------------------
# A quiver's kept words (``quiver_word``, ``Word.then``) against fresh ones.


@st.composite
def paths(draw, quiver, max_len=5):
    """A fresh ``Word(at, gens)`` of quiver, of at most max_len letters."""
    at = draw(st.sampled_from(quiver.objects), label="at")
    gens = []
    for _ in range(draw(st.integers(0, max_len), label="len")):
        out = quiver.gens_from(gens[-1].dst if gens else at)
        if not out:
            break
        gens.append(draw(st.sampled_from(out), label="gen"))
    return Word(at, tuple(gens))


INSTANCES = [levels.RAT, levels.RATPLUS, levels.DISCRETE]
CUTOFFS = [levels.rat(1), levels.rat(Fraction(5, 2)), levels.ratplus(2), levels.discrete("inf")]


@seed(facalc_seed())
@settings(max_examples=200, deadline=None)
@given(data=st.data(), make=st.sampled_from([loop_quiver, two_object_quiver, three_object_quiver]))
def test_kept_words_are_the_fresh_words_made_once(data, make):
    # The kept word, made from its longest kept prefix, equals the fresh
    # one in every field; its base level and bound too, asked in any
    # order and in any instance (a wrong one raises the fresh word's
    # error); and a second call gives the same object.
    q = make()
    for fresh in data.draw(st.lists(paths(q), min_size=1, max_size=6), label="words"):
        kept = quiver_word(q, comp_key(fresh))
        assert quiver_word(q, comp_key(fresh)) is kept
        assert (kept, hash(kept), kept.at, kept.gens, kept.sdeg, kept.gids, kept.sort_key()) == (
            fresh, hash(fresh), fresh.at, fresh.gens, fresh.sdeg, fresh.gids, fresh.sort_key())
        for inst in data.draw(st.lists(st.sampled_from(INSTANCES), max_size=3), label="instances"):
            assert result(lambda: kept.base_level(inst)) == result(lambda: fresh.base_level(inst))
        cutoff = data.draw(st.sampled_from(CUTOFFS), label="cutoff")
        assert result(lambda: kept.bound(cutoff)) == result(lambda: fresh.bound(cutoff))
    for n in range(4):
        for include_empty in (True, False):
            assert all(w is quiver_word(q, comp_key(w)) for w in basis_words(q, n, include_empty))


def test_a_word_past_the_recursion_limit_needs_no_recursion():
    # Made in one call and asked its base level deepest first, so no
    # prefix knows its own yet.
    n = 4 * sys.getrecursionlimit()
    q = loop_quiver(sdegs=(1,), base=1)
    deep = quiver_word(q, ("g0",) * n)
    assert (len(deep), deep.sdeg) == (n, n)
    assert deep.base_level(levels.RAT) == levels.rat(n)
    assert quiver_word(q, ("g0",) * (n // 2)).base_level(levels.RAT) == levels.rat(n // 2)
    assert deep == Word("X", deep.gens)


def test_a_basis_past_the_recursion_limit_keeps_its_report(monkeypatch, capsys):
    monkeypatch.chdir(pathlib.Path(__file__).parent.parent)
    assert cli.main(["check-b2", "tests/fixtures/curved_min.json", "--n-max", "1100"]) == 0
    entries = [f"check b2 n={n} word={'.'.join(['c'] * n) or '[]@X'} residual=0 flag=SOUND" for n in range(1101)]
    want = ["facalc check-b2 tests/fixtures/curved_min.json", *entries, "summary: checked=1101 failed=0 lossy=0 undecided=0",
            "exit 0"]
    assert tuple(capsys.readouterr()) == ("\n".join(want) + "\n", "")


def test_a_word_that_does_not_compose_raises_one_error():
    Q = FiltQuiver("M", ["X", "Y"], [HomGenerator("xX", "X", "X", 0, levels.rat(0)),
                                     HomGenerator("xY", "Y", "Y", 0, levels.rat(0))])
    want = "word is not composable at 'xY': expected src 'X'"
    with pytest.raises(ObjectMismatch) as fresh:
        Word("X", (Q.gen("xX"), Q.gen("xY")))
    with pytest.raises(ObjectMismatch) as made:
        Word("X", (Q.gen("xX"),)).then(Q.gen("xY"))
    with pytest.raises(ObjectMismatch) as kept:
        quiver_word(Q, ("xX", "xY"))
    assert str(fresh.value) == str(made.value) == str(kept.value) == want


# ---------------------------------------------------------------------------
# Reduction modulo F^cutoff against the literal rule it replaced: a level
# per monomial, compared with the bound by ``level_leq``.


def literal_truncate(x: NovikovScalar, bound: Level) -> NovikovScalar:
    kept = tuple(t for t in x.terms if not levels.level_leq(bound, levels.make_level(bound.instance, t[1])))
    return NovikovScalar(kept, x.variant)


def literal_mod_cutoff(c, base, cutoff):
    return literal_truncate(c, levels.dominate(base, cutoff))


def literal_truncate_element(x, window):
    kept, flag = [], Flag.SOUND
    inst = window.instance
    for w, c in x.terms:
        c = literal_mod_cutoff(c, w.base_level(inst), window.cutoff)
        if c.is_zero():
            continue
        if len(w) > window.max_len:
            if not levels.level_leq(window.cutoff, term_level(w, c, inst)):
                flag = Flag.LOSSY
            continue
        kept.append((w, c))
    return TensorElement(x.src, x.dst, kept), flag


def literal_hom_truncate(h, window):
    return HomElement(h.src, h.dst, [(g, literal_mod_cutoff(c, g.base_level, window.cutoff)) for g, c in h.terms])


def result(fn):
    try:
        return "ok", fn()
    except FacalcError as exc:
        return "raised", type(exc), str(exc)


# Levels of each instance, and energies with no level there: the file format
# produces none (nov0 scalars on ratplus, q scalars on discrete).
HALVES = st.fractions(-2, 3, max_denominator=2)
LEVEL_VALUES = {
    levels.RAT: HALVES,
    levels.RATPLUS: st.fractions(0, 3, max_denominator=2),
    levels.DISCRETE: st.sampled_from([Fraction(0), None]),
}
ENERGIES = {
    levels.RAT: (HALVES, st.nothing()),
    levels.RATPLUS: (st.fractions(0, 3, max_denominator=2), st.fractions(-2, -1, max_denominator=2)),
    levels.DISCRETE: (st.just(Fraction(0)), HALVES.filter(bool)),
}


@seed(facalc_seed())
@settings(max_examples=300, deadline=None)
@given(data=st.data(), inst=st.sampled_from(sorted(LEVEL_VALUES)))
def test_reduction_kernel_matches_the_literal_rule(data, inst):
    if inst == levels.DISCRETE:
        cutoff = levels.discrete("inf")
    else:
        cutoff = Level(inst, data.draw(st.fractions(Fraction(1, 2), 3, max_denominator=2), label="cutoff"))
    base = Level(inst, data.draw(LEVEL_VALUES[inst], label="base"))
    bound = levels.dominate(base, cutoff)
    valid, invalid = ENERGIES[inst]
    at_bound = st.just(bound.value) if bound.value is not None else st.nothing()
    bad = data.draw(st.sampled_from([False, False, True]), label="bad")
    energies = st.one_of(valid, at_bound, invalid if bad else st.nothing())
    monomial = st.tuples(st.sampled_from([1, -2, Fraction(1, 3)]), energies, st.integers(-1, 1))
    scalars = st.lists(monomial, max_size=4).map(novikov.scalar)

    x = data.draw(scalars, label="x")
    got = result(lambda: nov_truncate(x, bound))
    assert got == result(lambda: literal_truncate(x, bound))
    assert result(lambda: _mod_cutoff(x, base, cutoff)) == got
    if got[0] == "ok" and got[1] == x:
        assert got[1] is x

    # Loops at one object at finite levels of the instance; words up to
    # length 3 against windows that keep 0 to 3 letters.
    finite = LEVEL_VALUES[inst].filter(lambda v: v is not None)
    gen_levels = data.draw(st.lists(finite, min_size=1, max_size=2), label="gens")
    Q = FiltQuiver("L", ["X"], [HomGenerator(f"g{i}", "X", "X", 0, Level(inst, v)) for i, v in enumerate(gen_levels)])
    window = TruncWindow(data.draw(st.integers(0, 3), label="max_len"), cutoff)
    words = data.draw(st.lists(st.sampled_from(basis_words(Q, 3)), max_size=5, unique=True), label="words")
    elem = TensorElement("X", "X", [(w, data.draw(scalars)) for w in words])
    got = result(lambda: truncate_element(elem, window))
    assert got == result(lambda: literal_truncate_element(elem, window))
    if got[0] == "ok" and got[1][0] == elem:
        assert got[1][0] is elem
    h = HomElement("X", "X", [(g, data.draw(scalars)) for g in Q.gens])
    got = result(lambda: hom_truncate(h, window))
    assert got == result(lambda: literal_hom_truncate(h, window))
    if got[0] == "ok" and got[1] == h:
        assert got[1] is h


def test_reduction_kernel_keeps_the_errors_of_levels_it_cannot_make():
    x = novikov.scalar([(1, -1, 0), (1, 2, 0)])
    with pytest.raises(FacalcError, match="ratplus level must be >= 0, got -1"):
        nov_truncate(x, levels.ratplus(5))
    with pytest.raises(FacalcError, match="discrete instance has no level"):
        nov_truncate(novikov.scalar([(1, 0, 0), (1, 2, 0)]), levels.discrete("inf"))
    with pytest.raises(FacalcError, match="unknown level instance 'inf'"):
        nov_truncate(x, levels.INFINITY)
    assert nov_truncate(novikov.zero(), levels.INFINITY).is_zero()


@seed(facalc_seed())
@settings(max_examples=100, deadline=None)
@given(data=st.data(), inst=st.sampled_from(sorted(LEVEL_VALUES)))
def test_a_word_asked_under_alternating_cutoffs_gets_each_bound(data, inst):
    # A word keeps the bound of the cutoff last asked only: asked in turn
    # under two cutoffs (equal ones built apart among them), it gets
    # ``levels.dominate``'s bound each time, and so does every truncation
    # of an element over the same word objects.
    if inst == levels.DISCRETE:
        values = [None, None]
    else:
        values = data.draw(st.lists(st.fractions(Fraction(1, 2), 3, max_denominator=2), min_size=2, max_size=2),
                           label="cutoffs")
    finite = LEVEL_VALUES[inst].filter(lambda v: v is not None)
    gen_levels = data.draw(st.lists(finite, min_size=1, max_size=2), label="gens")
    Q = FiltQuiver("L", ["X"], [HomGenerator(f"g{i}", "X", "X", 0, Level(inst, v)) for i, v in enumerate(gen_levels)])
    words = basis_words(Q, 2)
    energies = st.fractions(0, 3, max_denominator=2) if inst != levels.DISCRETE else st.just(Fraction(0))
    scalars = st.lists(st.tuples(st.just(1), energies, st.just(0)), max_size=3).map(novikov.scalar)
    elem = TensorElement("X", "X", [(w, data.draw(scalars, label=f"c {w!r}")) for w in words])
    for k in data.draw(st.lists(st.integers(0, 1), min_size=2, max_size=6), label="asks"):
        cutoff = Level(inst, values[k])  # equal to, not the same object as, the last one of its value
        w = data.draw(st.sampled_from(words), label="word")
        assert w.bound(cutoff) == levels.dominate(w.base_level(inst), cutoff)
        window = TruncWindow(1, cutoff)
        assert truncate_element(elem, window) == literal_truncate_element(elem, window)
