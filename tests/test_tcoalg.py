from fractions import Fraction

import pytest

from facalc import levels, novikov
from facalc.errors import FacalcError, InstanceMismatch
from facalc.tcoalg import (
    Flag,
    TensorElement,
    TruncWindow,
    Word,
    basis_words,
    cut_delta,
    delta_k,
    mu_concat,
    reduced_delta_k,
    truncate_element,
    word_blocks,
)

from conftest import loop_quiver, seq_splits, three_object_quiver, two_object_quiver

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
