"""The path-sum block engine against the literal split enumeration.

``_term_value`` and ``_assemble`` below are the enumerator the engine
replaced, kept unchanged as the oracle: it lists every split of a word into
blocks and every placement of the single slots, and signs each
configuration with the literal ``koszul_sign``.  The engine must agree with
it on the value, on the truncation flag, on the components it looks up and
on the errors lazy components raise.  The engine walks only the stored keys
of a table, so it looks up a subset of what the enumerator looks up; the two
sets agree on every effective lookup (see ``effective``): lazy components
are computed exactly where the enumerator computes them.
"""

import gc
import re
import sys
import weakref
import zlib
from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, seed, settings, strategies as st

from facalc import engine, levels, novikov, tcoalg
from facalc.errors import ConvergenceUndecided, FacalcError, ObjectMismatch, VariantMismatch
from facalc.filtquiver import FiltQuiver, HomElement, HomGenerator, koszul_sign
from facalc.ainfty import _hom_str, _word_checks, word_name
from facalc.engine import _END, Basis, _Trie, _path_sum
from facalc.morphisms import (
    Coderivation,
    Cofunctor,
    Slots,
    _crossing_sign,
    _empty_caps,
    _extract_components,
    _in_order,
    _transport,
    chain_eval,
    chain_slots,
    chain_sum,
    cofunctor_slots,
    coderivation_slots,
    comp_key,
    family_value,
    hom_truncate,
    identity_cofunctor,
    slot_value,
)
from facalc.novikov import NovikovScalar
from facalc.tcoalg import (
    Flag,
    TensorElement,
    TruncWindow,
    Word,
    basis_words,
    truncate_element,
    word_blocks,
)

from conftest import facalc_seed, seq_splits

# ---------------------------------------------------------------------------
# The oracle: the split enumerator, unchanged.


def _term_value(
    w: Word,
    c: NovikovScalar,
    slots: Slots,
    n_singles: int,
    cap: int,
    any_curved: bool,
    instance: str,
    out_src: str,
    out_dst: str,
) -> TensorElement:
    terms: List[Tuple[Word, NovikovScalar]] = []
    n = len(w)
    family_owners, single_owners = slots
    single_degs = [o.deg for o in single_owners]

    def assignments(k: int):
        """Positions of single-slot blocks among k blocks, in slot order."""
        if n_singles == 0:
            yield ()
            return
        yield from combinations(range(k), n_singles)

    # A split with e empty blocks can carry at most one empty per single
    # slot plus (cap - 1) curvature insertions; prune before building any
    # block words.
    family_empty_cap = max(cap - 1, 0) if any_curved else 0
    max_empties = n_singles + family_empty_cap
    max_k = n + max_empties
    for k in range(n_singles, max_k + 1):
        if k == 0:
            # Empty split: pure counit/augmentation passage.
            if n == 0:
                terms.append((Word(out_src), c))
            continue
        for cuts in seq_splits(n, k, allow_empty=True):
            bounds = (0,) + cuts + (n,)
            empties = sum(1 for a, b in zip(bounds, bounds[1:]) if a == b)
            if empties > max_empties:
                continue
            blocks = word_blocks(w, cuts)
            for positions in assignments(k):
                config = _assemble(
                    blocks, positions, single_owners, single_degs,
                    family_owners, cap, c,
                )
                if config is not None:
                    terms.extend(config)
    return TensorElement(out_src, out_dst, terms)


def _assemble(
    blocks: Tuple[Word, ...],
    positions: Tuple[int, ...],
    single_owners: Sequence["Coderivation"],
    single_degs: List[int],
    family_owners: Sequence["Cofunctor"],
    cap: int,
    coeff: NovikovScalar,
) -> Optional[List[Tuple[Word, NovikovScalar]]]:
    letters = []
    op_degs = []
    empties = 0
    next_single = 0
    for j, block in enumerate(blocks):
        if next_single < len(positions) and positions[next_single] == j:
            owner = single_owners[next_single]
            op_degs.append(single_degs[next_single])
            next_single += 1
        else:
            # Blocks between the t-th and (t+1)-st single belong to the
            # (t+1)-st family zone.
            owner = family_owners[next_single]
            op_degs.append(0)
            if len(block) == 0:
                if not owner.curvature:
                    return None
                empties += 1
                if empties >= cap:
                    return None
        letter = owner.comp_value(block)
        if letter.is_zero():
            return None
        letters.append(letter)

    sign = koszul_sign(op_degs, [b.sdeg for b in blocks])
    start = coeff if sign == 1 else novikov.nov_neg(coeff)
    expanded: List[Tuple[Tuple[HomGenerator, ...], NovikovScalar]] = [((), start)]
    for letter in letters:
        nxt = []
        for gens, cc in expanded:
            for g2, c2 in letter.terms:
                nxt.append((gens + (g2,), novikov.nov_mul(cc, c2)))
        expanded = nxt
    return [(Word.from_gens(gens), cc) for gens, cc in expanded]


def curvature_floor(families) -> Tuple[bool, levels.Level]:
    """(any curved family present, least level of a curvature component),
    read from the k = 0 tables."""
    values = [(f, v) for f in families for v in f.comps.get(0, {}).values()]
    floor = levels.INFINITY
    for f, v in values:
        floor = levels.level_min(floor, v.level(f.instance))
    return bool(values), floor


def oracle_empty_cap(term_lvl, floor, cutoff) -> int:
    """How many empty blocks a term may carry, counted from the levels
    alone: add the least curvature level one block at a time until the
    term's level reaches the cutoff.  Curvature of level <= 0 never lifts a
    term below the cutoff there, so its sum cannot be bounded."""
    blocks, lvl = 0, term_lvl
    while not levels.level_leq(cutoff, lvl):
        if levels.level_leq(floor, levels.zero(cutoff.instance)):
            raise ConvergenceUndecided("curvature of level <= 0")
        lvl = levels.level_add(lvl, floor)
        blocks += 1
    return blocks


def oracle_slot_value(x, slots, window, length_truncate=True):
    """``slot_value`` as it was around the enumerator."""
    inst = window.instance
    families, singles = slots
    n_singles = len(singles)
    out = TensorElement.zero(families[0].obj_map[x.src], families[-1].obj_map[x.dst])
    any_curved, floor = curvature_floor(families)
    for w, c in x.terms:
        term_lvl = levels.level_add(w.base_level(inst), novikov.nov_level(c, inst))
        cap = oracle_empty_cap(term_lvl, floor, window.cutoff) if any_curved else 0
        out = out.add(_term_value(w, c, slots, n_singles, cap, any_curved, inst, out.src, out.dst))
    if length_truncate:
        return truncate_element(out, window)
    return out, Flag.SOUND


# ---------------------------------------------------------------------------
# Random owners over a 2-object quiver with odd and even degrees.

R0 = levels.rat(0)
QUIVER = FiltQuiver(
    "Q",
    ["X", "Y"],
    [
        HomGenerator("a", "X", "Y", 0, R0),
        HomGenerator("c", "X", "Y", 1, R0),
        HomGenerator("b", "Y", "X", 1, levels.rat("1/2")),
        HomGenerator("x", "X", "X", 1, R0),
        HomGenerator("y", "Y", "Y", 2, R0),
    ],
)
IDENTITY = {"X": "X", "Y": "Y"}
WORDS = basis_words(QUIVER, 6)
TABLE_WORDS = [w for w in WORDS if 1 <= len(w) <= 3]
SCALARS = [
    novikov.one(),
    novikov.monomial(-1),
    novikov.monomial(2, 0, 1),
    novikov.monomial(Fraction(1, 2), 1),
    novikov.scalar([(1, 0, 0), (-3, Fraction(1, 2), 0)]),
]
# Curvature must have positive level for the sums to be bounded.
CURVATURES = [
    novikov.monomial(1, 1),
    novikov.monomial(-2, Fraction(3, 2), 1),
    novikov.scalar([(1, 1, 0), (1, 2, 0)]),
]


def _hash(salt: int, w: Word) -> int:
    return zlib.crc32(f"{salt}:{comp_key(w)!r}".encode())


def letter_for(salt: int, sparsity: int, w: Word, scalars=SCALARS) -> HomElement:
    """A deterministic pseudo-random letter on w; zero on most words."""
    h = _hash(salt, w)
    if h % sparsity:
        return HomElement.zero(w.src, w.dst)
    terms = []
    for k, g in enumerate(g for g in QUIVER.gens if (g.src, g.dst) == (w.src, w.dst)):
        pick = (h >> (5 + 3 * k)) % 8
        if pick < len(scalars):
            terms.append((g, scalars[pick]))
    return HomElement(w.src, w.dst, terms)


class RaisingCompute:
    """A lazy component rule that raises on the words chosen by ``hits``."""

    def __init__(self, salt: int, sparsity: int, hits, scalars=SCALARS):
        self.salt, self.sparsity, self.hits, self.scalars = salt, sparsity, hits, scalars

    def __call__(self, w: Word) -> HomElement:
        if self.hits(w):
            raise ConvergenceUndecided(f"lazy component on {w!r}")
        return letter_for(self.salt, self.sparsity, w, self.scalars)


def _table(salt: int, sparsity: int, empties: bool, curved_scalars=CURVATURES):
    comps = {}
    for w in TABLE_WORDS:
        v = letter_for(salt, sparsity, w)
        if not v.is_zero():
            comps.setdefault(len(w), {})[comp_key(w)] = v
    if empties:
        for obj in QUIVER.objects:
            v = letter_for(salt + 1, 1, Word(obj), curved_scalars)
            if not v.is_zero():
                comps.setdefault(0, {})[obj] = v
    return comps


@st.composite
def owner_specs(draw):
    return {
        "salt": draw(st.integers(0, 10**6)),
        "sparsity": draw(st.integers(1, 3)),
        "curved": draw(st.booleans()),
        "lazy": draw(st.booleans()),
        "raise_mod": draw(st.sampled_from([None, 5, 13])),
        "deg": draw(st.integers(-1, 2)),
        # complete_upto of a lazy or bounded owner (see ``_upto``).
        "upto": draw(st.sampled_from([None, 0, 1, 2])),
    }


def _compute(spec):
    if not spec["lazy"]:
        return None
    mod = spec["raise_mod"]
    return RaisingCompute(
        spec["salt"] + 7,
        spec["sparsity"],
        (lambda w: _hash(spec["salt"] + 9, w) % mod == 0) if mod else (lambda w: False),
    )


# Curvature of level 1 on both objects: with a cutoff of 3 and a term of
# level <= 1, every path sum may insert at least two empty blocks.
FIXED_CURVATURE = {
    "X": HomElement.from_gen(QUIVER.gen("x"), novikov.monomial(1, 1)),
    "Y": HomElement.from_gen(QUIVER.gen("y"), novikov.monomial(1, 1)),
}


def _upto(spec):
    """complete_upto: set for lazy owners and for tables extracted with a
    bound (``bounded``, no compute: lookups past the bound raise)."""
    return spec["upto"] if spec["lazy"] or spec.get("bounded") else None


def _family_table(spec):
    comps = _table(spec["salt"], spec["sparsity"], spec["curved"])
    if spec.get("fixed_curvature"):
        comps[0] = dict(FIXED_CURVATURE)
    if spec.get("flat_curvature") is not None:
        # Curvature of level <= 0: no sum through this family can be bounded.
        energy = spec["flat_curvature"]
        comps[0] = {
            "X": HomElement.from_gen(QUIVER.gen("x"), novikov.monomial(1, energy)),
            "Y": HomElement.from_gen(QUIVER.gen("y"), novikov.monomial(1, energy)),
        }
    return comps


def build_owners(family_specs, single_specs):
    """The families f0, f1, ... and the chain r0, r1, ... with r_i from f_i
    to f_(i+1), each built anew from its spec."""
    families = [
        Cofunctor(
            f"f{i}", QUIVER, QUIVER, IDENTITY, _family_table(sp),
            "rat", "nov", complete_upto=_upto(sp), compute=_compute(sp),
        )
        for i, sp in enumerate(family_specs)
    ]
    chain = [
        Coderivation(
            f"r{i}", families[i], families[i + 1], sp["deg"], R0,
            _table(sp["salt"], sp["sparsity"], True, SCALARS),
            complete_upto=_upto(sp), compute=_compute(sp),
        )
        for i, sp in enumerate(single_specs)
    ]
    return families, chain


def build_slots(family_specs, single_specs) -> Slots:
    families, chain = build_owners(family_specs, single_specs)
    return chain_slots(chain, families[0])


def slot_owners(slots):
    families, singles = slots
    return [*families, *singles]


@st.composite
def slot_sequences(draw, max_singles=3):
    n_singles = draw(st.sampled_from([0, 1, 2, 3][: max_singles + 1]))
    family_specs = draw(st.lists(owner_specs(), min_size=n_singles + 1, max_size=n_singles + 1))
    single_specs = draw(st.lists(owner_specs(), min_size=n_singles, max_size=n_singles))
    return family_specs, single_specs


def _max_word_len(n_singles: int, cap: int) -> int:
    # The enumerator's cost grows like C(n + k, k) * C(k, singles) with up to
    # k = n + singles + cap blocks; keep each example well under a second.
    return max(2, min(6, 8 - n_singles - max(cap - 1, 0)))


@st.composite
def words(draw, max_len):
    start = draw(st.sampled_from(QUIVER.objects))
    gens = []
    at = start
    for _ in range(draw(st.integers(0, max_len))):
        g = draw(st.sampled_from(QUIVER.gens_from(at)))
        gens.append(g)
        at = g.dst
    return Word(start, tuple(gens))


def record_lookups(slots, log):
    """Shadow every owner's ``comp_value`` with one that logs its lookups."""
    for owner in slot_owners(slots):
        owner.__dict__.pop("comp_value", None)
        lookup = owner.comp_value

        def logged(block, owner=owner, lookup=lookup):
            log.add((owner.name, block))
            return lookup(block)

        owner.comp_value = logged


def effective(slots, seen):
    """The lookups in ``seen`` that a table alone cannot answer with zero:
    a stored key, a k = 0 key, or a length at which the lazy ``compute``
    runs or the extraction bound raises.  Read from the owners' own
    ``comps``, ``complete_upto`` and ``compute``."""
    owners = {owner.name: owner for owner in slot_owners(slots)}

    def counts(name, block):
        owner = owners[name]
        k = len(block)
        if k == 0 or comp_key(block) in owner.comps.get(k, {}):
            return True
        if owner.complete_upto is not None:
            return k > owner.complete_upto
        return owner.compute is not None

    return {(name, block) for name, block in seen if counts(name, block)}


def assert_same_lookups(slots, seen_engine, seen_oracle):
    # Lookups are compared on fresh owners: every test builds its owners
    # anew, and the oracle calls ``comp_value`` directly, so the engine's
    # letter tables start empty and its first lookup of each block is
    # logged here.  Later lookups of a block are table reads.
    assert seen_engine <= seen_oracle
    assert effective(slots, seen_engine) == effective(slots, seen_oracle)


def outcome(fn, catch=ConvergenceUndecided):
    try:
        return "ok", fn()
    except catch as exc:
        return "raised", type(exc)


def path_sum_element(w, c, slots, cap):
    """The engine on the one word w, every cap set to ``cap``."""
    families, singles = slots
    terms = dict(_path_sum([w], c, families, singles, lambda base: cap)).get(w, ())
    return TensorElement(w.src, w.dst, terms)


# ---------------------------------------------------------------------------
# Tests


@seed(facalc_seed())
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_path_sum_matches_enumeration_per_term(data):
    family_specs, single_specs = data.draw(slot_sequences())
    cap = data.draw(st.integers(0, 4), label="cap")
    w = data.draw(words(_max_word_len(len(single_specs), cap)), label="word")
    c = data.draw(st.sampled_from(SCALARS), label="coeff")
    slots = build_slots(family_specs, single_specs)
    any_curved = curvature_floor(slots[0])[0]

    seen_oracle, seen_engine = set(), set()
    record_lookups(slots, seen_oracle)
    expected = outcome(lambda: _term_value(
        w, c, slots, len(single_specs), cap, any_curved, "rat", w.src, w.dst
    ))
    record_lookups(slots, seen_engine)
    got = outcome(lambda: path_sum_element(w, c, slots, cap))

    assert got == expected
    if expected[0] == "ok":
        assert_same_lookups(slots, seen_engine, seen_oracle)


@st.composite
def elements(draw, max_len=4):
    src = draw(st.sampled_from(QUIVER.objects))
    dst = draw(st.sampled_from(QUIVER.objects))
    pool = [w for w in WORDS if w.src == src and w.dst == dst and len(w) <= max_len]
    picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    return TensorElement(src, dst, [(w, draw(st.sampled_from(SCALARS))) for w in picked])


@seed(facalc_seed())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_slot_value_matches_enumeration(data):
    family_specs, single_specs = data.draw(slot_sequences(max_singles=2))
    for sp in family_specs + single_specs:
        sp["raise_mod"] = None
    x = data.draw(elements(max_len=4 - len(single_specs)), label="x")
    window = TruncWindow(
        data.draw(st.integers(1, 6), label="max_len"),
        levels.rat(data.draw(st.integers(1, 3), label="cutoff")),
    )
    truncate = data.draw(st.booleans(), label="length_truncate")
    slots = build_slots(family_specs, single_specs)

    seen_oracle, seen_engine = set(), set()
    record_lookups(slots, seen_oracle)
    expected = oracle_slot_value(x, slots, window, truncate)
    record_lookups(slots, seen_engine)
    got = slot_value(x, slots, window, truncate)

    assert got == expected
    assert_same_lookups(slots, seen_engine, seen_oracle)


def _lazy_family(hits) -> Cofunctor:
    # Tabled letters on a and x only: the letter on b is zero, so no split
    # of b.x.a reaches position 1 and the word x.a is never looked up.
    compute = RaisingCompute(0, 1, hits)
    table = {
        1: {
            ("a",): HomElement.from_gen(QUIVER.gen("a"), novikov.one()),
            ("x",): HomElement.from_gen(QUIVER.gen("x"), novikov.one()),
        }
    }
    return Cofunctor("lazy", QUIVER, QUIVER, IDENTITY, table, "rat", "nov",
                     complete_upto=1, compute=compute)


@pytest.mark.parametrize(
    "chosen, raises",
    [
        (("b", "x", "a"), True),  # the one-block split looks up the whole word
        (("x",), False),  # length 1 is tabled, never computed
        (("x", "a"), False),  # reachable only behind the zero letter on b
    ],
)
def test_lazy_errors_match_enumeration(chosen, raises):
    w = Word.from_gens([QUIVER.gen(g) for g in ("b", "x", "a")])
    for engine in ("oracle", "engine"):
        slots = cofunctor_slots(_lazy_family(lambda u: comp_key(u) == chosen))
        if engine == "oracle":
            run = lambda: _term_value(w, novikov.one(), slots, 0, 0, False, "rat", w.src, w.dst)
        else:
            run = lambda: path_sum_element(w, novikov.one(), slots, 0)
        got = outcome(run)
        if raises:
            assert got == ("raised", ConvergenceUndecided), engine
        else:
            assert got[0] == "ok", engine


@seed(facalc_seed())
@settings(max_examples=200, deadline=None)
@given(
    arg_degs=st.lists(st.integers(-3, 3), min_size=1, max_size=7),
    data=st.data(),
)
def test_crossing_sign_is_koszul_sign(arg_degs, data):
    # Family letters have degree 0; single slots any degree.
    op_degs = data.draw(st.lists(
        st.one_of(st.just(0), st.integers(-3, 3)),
        min_size=len(arg_degs), max_size=len(arg_degs),
    ))
    closed = 1
    for i, d in enumerate(op_degs):
        closed *= _crossing_sign(d, sum(arg_degs[i + 1:]))
    assert closed == koszul_sign(op_degs, arg_degs)


def test_cancelled_state_still_looks_up_its_components():
    # On x.x.a the splits f(x) r(x) | ... and r(x) g(x) | ... reach the same
    # cut with the same generators and opposite signs (r is odd and crosses
    # one more odd x on the second).  The sum there is zero, yet the
    # enumerator still looks up g on the last block a.
    x, a = QUIVER.gen("x"), QUIVER.gen("a")
    w = Word.from_gens([x, x, a])
    one = novikov.one()
    table = {1: {("x",): HomElement.from_gen(x, one)}}
    for engine in ("oracle", "engine"):
        f = Cofunctor("f", QUIVER, QUIVER, IDENTITY, table, "rat", "nov")
        g = Cofunctor("g", QUIVER, QUIVER, IDENTITY,
                      {1: {**table[1], ("a",): HomElement.from_gen(a, one)}}, "rat", "nov")
        r = Coderivation("r", f, g, 1, R0, table)
        slots = coderivation_slots(r)
        seen = set()
        record_lookups(slots, seen)
        if engine == "oracle":
            value = _term_value(w, one, slots, 1, 0, False, "rat", w.src, w.dst)
        else:
            value = path_sum_element(w, one, slots, 0)
        assert value.is_zero(), engine
        assert ("g", Word.from_gens([a])) in seen, engine


# ---------------------------------------------------------------------------
# Pruning against the fold


def fold_owner(kind: str, salt: int, sparsity: int, upto: int) -> Cofunctor:
    """The owner a value is folded through: an exact table, one with a lazy
    tail beyond ``upto``, one extracted up to ``upto`` (raising beyond), or
    an exact curved one."""
    comps = _table(salt, sparsity, False)
    if kind == "curved":
        comps[0] = dict(FIXED_CURVATURE)
    return Cofunctor(
        "fold", QUIVER, QUIVER, IDENTITY, comps, "rat", "nov",
        complete_upto=upto if kind in ("lazy", "bounded") else None,
        compute=RaisingCompute(salt + 7, sparsity, lambda w: False) if kind == "lazy" else None,
    )


def record_computes(owners, log):
    """Log every run of each owner's lazy ``compute``, in order."""
    for owner in owners:
        if owner.compute is not None:
            def logged(w, owner=owner, compute=owner.compute):
                log.append((owner.name, comp_key(w)))
                return compute(w)

            owner.compute = logged


@seed(facalc_seed())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fold_pruning_keeps_the_folded_value(data):
    family_specs, single_specs = data.draw(slot_sequences(max_singles=2))
    for sp in family_specs + single_specs:
        sp["raise_mod"] = None
        sp["bounded"] = data.draw(st.sampled_from([False, False, False, True]))
    kind = data.draw(st.sampled_from(["exact", "lazy", "bounded", "curved"]), label="fold")
    fold_args = (
        kind,
        data.draw(st.integers(0, 10**6), label="fold_salt"),
        data.draw(st.integers(1, 3), label="fold_sparsity"),
        data.draw(st.integers(0, 2), label="fold_upto"),
    )
    if kind == "curved":
        family_specs[0]["fixed_curvature"] = True
        x = TensorElement.from_word(data.draw(words(3), label="word"), novikov.one())
        window = TruncWindow(6, levels.rat(3))
        slots = build_slots(family_specs, single_specs)
        floor = curvature_floor(slots[0])[1]
        (w, c), = x.terms
        assert oracle_empty_cap(tcoalg.term_level(w, c, "rat"), floor, window.cutoff) >= 2
    else:
        x = data.draw(elements(max_len=4 - len(single_specs)), label="x")
        window = TruncWindow(6, levels.rat(data.draw(st.integers(1, 3), label="cutoff")))

    def run(evaluate):
        """Fresh owners, so every compute runs (and is logged) once.  Each
        term of x is evaluated and folded on its own, as ``_transport``
        takes one basis word; the computes are compared as a multiset, since
        the fold may visit the words of one value in any order."""
        slots = build_slots(family_specs, single_specs)
        fold = fold_owner(*fold_args)
        hits = []
        record_computes(slot_owners(slots) + [fold], hits)
        value = outcome(lambda: reduce(HomElement.add, [
            evaluate(slots, fold, w, c) for w, c in x.terms
        ]), FacalcError)
        return value, sorted(hits, key=repr)

    def then_fold(value):
        """value on c*w, untruncated, then folded through ``fold``."""
        return lambda slots, fold, w, c: family_value(
            fold, value(TensorElement.from_word(w, c), slots, window, False)[0])

    pruned = run(lambda slots, fold, w, c: _transport([w], slots, fold, window, c)[0])
    unpruned = run(then_fold(slot_value))
    oracle = run(then_fold(oracle_slot_value))

    assert pruned == unpruned
    assert pruned[0] == oracle[0]
    if oracle[0][0] == "ok":
        assert set(pruned[1]) == set(oracle[1])


@seed(facalc_seed())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dead_states_are_dropped_only_where_every_owner_decides(data):
    family_specs, single_specs = data.draw(kinded_owners(), label="owners")
    w = data.draw(words(4 - len(single_specs)), label="word")
    n = len(w)
    specs = family_specs + single_specs
    deciding = data.draw(st.booleans(), label="deciding")
    if deciding:
        # Lazy and bounded owners are extracted up to len(w) or beyond.
        for sp in specs:
            sp["upto"] = n + data.draw(st.integers(0, 1))
    else:
        # One owner is lazy from a length up to len(w) on.
        sp = specs[data.draw(st.integers(0, len(specs) - 1), label="undecided owner")]
        sp["lazy"], sp["bounded"] = True, False
        sp["upto"] = data.draw(st.sampled_from([None, *range(n)]), label="undecided upto")
    # A sparse exact fold: where it prunes the sweep, its trie drops many products.
    fold_args = (
        data.draw(st.sampled_from(["exact", "curved"]), label="fold"),
        data.draw(st.integers(0, 10**6), label="fold_salt"),
        data.draw(st.integers(4, 16), label="fold_sparsity"),
        0,
    )
    window = TruncWindow(6, levels.rat(data.draw(st.integers(1, 3), label="cutoff")))
    c = data.draw(st.sampled_from(SCALARS), label="coeff")

    def run(evaluate, specs=(family_specs, single_specs)):
        """Fresh owners: the value, the computes that ran and the blocks
        looked up."""
        slots = build_slots(*specs)
        fold = fold_owner(*fold_args)
        hits, seen = [], set()
        record_computes(slot_owners(slots) + [fold], hits)
        record_lookups(slots, seen)
        return outcome(lambda: evaluate(slots, fold), FacalcError), sorted(hits, key=repr), seen

    transport = lambda slots, fold: _transport([w], slots, fold, window, c)[0]
    got = run(transport)
    want = run(lambda slots, fold: family_value(
        fold, oracle_slot_value(TensorElement.from_word(w, c), slots, window, False)[0]))
    assert got[0] == want[0]
    if deciding:
        assert got[1] == want[1] == []
        # The drop rests on what the owners decide, not on how they store
        # it: the same tables, held exact, walk the same states.
        exact = [[dict(sp, lazy=False, bounded=False) for sp in part]
                 for part in (family_specs, single_specs)]
        assert got[2] == run(transport, exact)[2]
    elif want[0][0] == "ok":
        assert set(got[1]) == set(want[1])


@pytest.mark.parametrize("upto, unpruned", [(None, False), (2, False), (1, True)])
def test_a_word_is_pruned_only_where_every_owner_decides_its_blocks(upto, unpruned):
    # On x.a the fold's only key is a, so pruning drops the product f(x) and
    # with it the state after x, whose one lookup is f on a.  That lookup
    # can matter only when f does not decide a block of x.a (here a lazy
    # tail from length 2), and then the sweep is not pruned.
    x, a = QUIVER.gen("x"), QUIVER.gen("a")
    w = Word.from_gens([x, a])
    one = novikov.one()
    table = {1: {("x",): HomElement.from_gen(x, one), ("a",): HomElement.from_gen(a, one)}}
    lazy = upto is not None and upto < len(w)
    f = Cofunctor("f", QUIVER, QUIVER, IDENTITY, table, "rat", "nov", complete_upto=upto,
                  compute=RaisingCompute(0, 2, lambda u: False) if lazy else None)
    fold = Cofunctor("fold", QUIVER, QUIVER, IDENTITY, {1: {("a",): table[1][("a",)]}}, "rat", "nov")
    seen = set()
    slots = cofunctor_slots(f)
    record_lookups(slots, seen)
    window = TruncWindow(6, levels.rat(3))
    (value,) = _transport([w], slots, fold, window, one)
    assert (("f", Word.from_gens([a])) in seen) == unpruned
    unfolded, _ = oracle_slot_value(TensorElement.from_word(w, one), slots, window, False)
    assert value == family_value(fold, unfolded)


@pytest.mark.parametrize("upto, pruned", [(2, False), (3, True)])
def test_a_batch_is_pruned_only_where_every_owner_decides_its_longest_word(upto, pruned):
    # The words x.a and x.x.x share the prefix x, and the fold's only key is
    # a, so pruning would drop the product f(x) and the state after x.  With
    # f lazy from length 3, x.x.x has a block f does not decide, so the
    # batch is swept unpruned: it looks up and computes what the split
    # enumeration of each word does, f on the block a after x included.
    # With f complete up to length 3 the sweep is pruned, and f is never
    # asked for a after x.
    x, a = QUIVER.gen("x"), QUIVER.gen("a")
    one = novikov.one()
    table = {1: {("x",): HomElement.from_gen(x, one), ("a",): HomElement.from_gen(a, one)}}
    fold_table = {1: {("a",): table[1][("a",)]}}
    batch = [Word.from_gens([x, a]), Word.from_gens([x, x, x])]
    window = TruncWindow(6, levels.rat(3))

    def run(evaluate):
        """Fresh owners: the value, the slots, the blocks looked up and the
        computes that ran."""
        f = Cofunctor("f", QUIVER, QUIVER, IDENTITY, table, "rat", "nov", complete_upto=upto,
                      compute=RaisingCompute(0, 2, lambda u: False))
        fold = Cofunctor("fold", QUIVER, QUIVER, IDENTITY, fold_table, "rat", "nov")
        slots = cofunctor_slots(f)
        seen, hits = set(), []
        record_lookups(slots, seen)
        record_computes([f, fold], hits)
        return evaluate(slots, fold), slots, seen, hits

    values, slots, seen, hits = run(lambda slots, fold: _transport(batch, slots, fold, window, one))
    singles = [run(lambda slots, fold: _transport([w], slots, fold, window, one))[0] for w in batch]
    oracle = [run(lambda slots, fold: family_value(
        fold, oracle_slot_value(TensorElement.from_word(w, one), slots, window, False)[0])) for w in batch]
    assert values == [value for value, in singles] == [value for value, _, _, _ in oracle]
    assert sorted(hits) == sorted(h for _, _, _, part in oracle for h in part)
    if pruned:
        assert ("f", Word("X", (a,))) not in seen
    else:
        assert_same_lookups(slots, seen, set().union(*(part for _, _, part, _ in oracle)))


def test_path_sum_yields_each_output_word_once():
    # f sends a.b to y through [a][b] and, with one curvature insertion,
    # through [a.b][] to y.x: two final states at the node a.b with the
    # output y.x, whose terms are yielded as one sum.
    gens = {g: HomGenerator(g, "X", "X", 0, R0) for g in "abxy"}
    loops = FiltQuiver("loops", ["X"], list(gens.values()))
    one, t1 = novikov.one(), novikov.monomial(1, 1)
    comps = {
        0: {"X": HomElement.from_gen(gens["x"], t1)},
        1: {("a",): HomElement.from_gen(gens["y"], one), ("b",): HomElement.from_gen(gens["x"], one)},
        2: {("a", "b"): HomElement.from_gen(gens["y"], one)},
    }
    f = Cofunctor("f", loops, loops, {"X": "X"}, comps, "rat", "nov")
    w = Word.from_gens([gens["a"], gens["b"]])
    window = TruncWindow(6, levels.rat(3))
    (got, terms), = _path_sum([w], one, [f], [], _empty_caps([f], window, one))
    yx = Word.from_gens([gens["y"], gens["x"]])
    assert got == w
    assert [cu for u, cu in terms if u == yx] == [novikov.nov_add(one, t1)]
    assert len({u for u, _ in terms}) == len(terms)


def test_transport_folds_no_word_of_zero_sum():
    # On x.x.a the two paths of the cancelled-state example output x.x.a
    # with opposite signs.  The value is zero, so a lazy fold runs no
    # compute, as folding the value built by ``slot_value`` runs none.
    x, a = QUIVER.gen("x"), QUIVER.gen("a")
    w = Word.from_gens([x, x, a])
    one = novikov.one()
    table = {1: {("x",): HomElement.from_gen(x, one)}}
    f = Cofunctor("f", QUIVER, QUIVER, IDENTITY, table, "rat", "nov")
    g_table = {1: {**table[1], ("a",): HomElement.from_gen(a, one)}}
    g = Cofunctor("g", QUIVER, QUIVER, IDENTITY, g_table, "rat", "nov")
    r = Coderivation("r", f, g, 1, R0, table)
    fold = Coderivation("fold", f, g, 1, R0, {}, compute=RaisingCompute(0, 1, lambda u: False))
    hits = []
    record_computes([fold], hits)
    window = TruncWindow(6, levels.rat(3))
    assert _transport([w], coderivation_slots(r), fold, window, one)[0].is_zero()
    assert not hits
    assert slot_value(TensorElement.from_word(w, one), coderivation_slots(r), window, False)[0].is_zero()


# ---------------------------------------------------------------------------
# The fold against the per-term fold it replaces

# Multi-term scalars: energies over different denominators, negative ones,
# exponents other than 0, and a negated copy whose products cancel.
MULTI = novikov.scalar(
    [(Fraction(3, 2), Fraction(-1, 3), 0), (Fraction(-5, 4), Fraction(1, 6), 0), (7, Fraction(3, 4), 0)]
)
MULTI_SCALARS = [
    MULTI,
    novikov.nov_neg(MULTI),
    novikov.scalar([(1, Fraction(-1, 10), 1), (Fraction(2, 3), Fraction(1, 5), 1)]),
    novikov.scalar([(Fraction(1, 7), Fraction(2, 5), -1), (-2, Fraction(1, 2), -1), (3, 1, -1)]),
    novikov.monomial(Fraction(-1, 6), Fraction(-1, 8)),
    novikov.one(),
]
# Plain-rational scalars, to mix variants.
PLAIN_SCALARS = [novikov.one("q"), novikov.monomial(Fraction(-2, 3), 0, 0, "q")]


def literal_fold(owner, x: TensorElement) -> HomElement:
    """``nov_mul`` of every (component, coefficient) pair, merged by
    ``HomElement``: the fold before ``nov_dot``."""
    terms = [(g, novikov.nov_mul(cg, c)) for w, c in x.terms for g, cg in owner.comp_value(w).terms]
    return HomElement(owner.src_map[x.src], owner.dst_map[x.dst], terms)


def multi_owner(salt: int, sparsity: int, upto: Optional[int], raise_mod: Optional[int], scalars) -> Cofunctor:
    """A table of letters drawn from scalars and, past ``upto``, a lazy
    compute of the same kind that raises on some words."""
    comps = {}
    for w in TABLE_WORDS:
        v = letter_for(salt, sparsity, w, scalars)
        if not v.is_zero():
            comps.setdefault(len(w), {})[comp_key(w)] = v
    hits = (lambda w: _hash(salt + 9, w) % raise_mod == 0) if raise_mod else (lambda w: False)
    compute = None if upto is None else RaisingCompute(salt + 7, sparsity, hits, scalars)
    return Cofunctor("fold", QUIVER, QUIVER, IDENTITY, comps, "rat", "nov", complete_upto=upto, compute=compute)


@st.composite
def multi_elements(draw, scalars, max_len=3):
    src = draw(st.sampled_from(QUIVER.objects))
    dst = draw(st.sampled_from(QUIVER.objects))
    pool = [w for w in WORDS if w.src == src and w.dst == dst and len(w) <= max_len]
    picked = draw(st.lists(st.sampled_from(pool), min_size=0, max_size=5, unique=True))
    return TensorElement(src, dst, [(w, draw(st.sampled_from(scalars))) for w in picked])


@seed(facalc_seed())
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_family_value_matches_the_per_term_fold(data):
    # Mixed pools give pairs of two variants (the product's error), products
    # of one generator in two variants (the sum's error), and generators of
    # different variants (no error).
    scalars = data.draw(st.sampled_from([MULTI_SCALARS, MULTI_SCALARS + PLAIN_SCALARS]), label="pool")
    args = (
        data.draw(st.integers(0, 10**6), label="salt"),
        data.draw(st.integers(1, 2), label="sparsity"),
        data.draw(st.sampled_from([None, 0, 1, 2]), label="upto"),
        data.draw(st.sampled_from([None, 3, 7]), label="raise_mod"),
        scalars,
    )
    x = data.draw(multi_elements(scalars), label="x")

    def run(fold):
        owner = multi_owner(*args)
        computes = []
        record_computes([owner], computes)
        try:
            result = "ok", fold(owner, x)
        except FacalcError as exc:
            result = "raised", type(exc), str(exc)
        return result, computes

    got, want = run(family_value), run(literal_fold)
    assert got == want
    if got[0][0] == "ok":
        for _, c in got[0][1].terms:
            assert all(type(a) is Fraction and type(lam) is Fraction and type(n) is int for a, lam, n in c.terms)


def test_fold_raises_the_first_mismatch_in_term_order():
    # Generator a is met first, but c's products change variant first
    # (on x.a), so the per-term fold raises c's mismatch, not a's.
    a, c, xl = QUIVER.gen("a"), QUIVER.gen("c"), QUIVER.gen("x")
    nov, q = novikov.one(), novikov.one("q")
    table = {
        1: {("a",): HomElement.from_gen(a, nov), ("c",): HomElement.from_gen(c, q)},
        2: {("x", "a"): HomElement.from_gen(c, nov), ("x", "c"): HomElement.from_gen(a, q)},
    }
    owner = Cofunctor("fold", QUIVER, QUIVER, IDENTITY, table, "rat", "nov")
    words_ = [Word.from_gens(gs) for gs in ([a], [c], [xl, a], [xl, c])]
    x = TensorElement("X", "Y", list(zip(words_, [nov, q, nov, q])))
    for fold in (family_value, literal_fold):
        with pytest.raises(VariantMismatch, match=r"^variants 'q' and 'nov'$"):
            fold(owner, x)
    # Variants that differ only across generators raise nothing.
    y = TensorElement("X", "Y", list(zip(words_[:2], [nov, q])))
    assert family_value(owner, y) == literal_fold(owner, y) == HomElement("X", "Y", [(a, nov), (c, q)])


# ---------------------------------------------------------------------------
# The per-owner letter table

OWNER_KINDS = ["exact", "lazy", "lazy-tailed", "bounded", "curved"]


@st.composite
def kinded_owners(draw, max_singles=2):
    """Specs of families and a chain, each owner of a drawn kind: an exact
    table, a fully lazy one, one with a lazy tail, one extracted up to a
    bound (raising beyond it) or a curved one.  Lazy components raise on
    some words."""
    family_specs, single_specs = draw(slot_sequences(max_singles))
    for sp in family_specs + single_specs:
        kind = draw(st.sampled_from(OWNER_KINDS))
        sp["lazy"] = kind in ("lazy", "lazy-tailed")
        sp["bounded"] = kind == "bounded"
        sp["fixed_curvature"] = kind == "curved"
        if kind == "lazy":
            sp["upto"] = None
        elif kind in ("lazy-tailed", "bounded"):
            sp["upto"] = sp["upto"] if sp["upto"] is not None else 1
    return family_specs, single_specs


@st.composite
def shared_calls(draw, n_singles):
    """A sequence of (element, a, b) calls, with repeats: evaluate the
    element through the sub-chain r_a .. r_(b-1), or through f_a alone
    when a == b, as the solver evaluates sub-chains of one family."""
    spans = [(a, b) for a in range(n_singles + 1) for b in range(a, n_singles + 1)]
    pool = draw(st.lists(
        st.tuples(elements(max_len=4 - n_singles), st.sampled_from(spans)),
        min_size=1, max_size=3,
    ))
    return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=6))


@seed(facalc_seed())
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_shared_owners_match_fresh_owners(data):
    family_specs, single_specs = data.draw(kinded_owners(), label="owners")
    calls = data.draw(shared_calls(len(single_specs)), label="calls")
    window = TruncWindow(6, levels.rat(data.draw(st.integers(1, 3), label="cutoff")))
    families, chain = build_owners(family_specs, single_specs)
    computes = []
    record_computes(families + chain, computes)

    def call(families, chain, x, a, b):
        return outcome(lambda: slot_value(x, chain_slots(chain[a:b], families[a]), window), FacalcError)

    for x, (a, b) in calls:
        got = call(families, chain, x, a, b)
        assert got == call(*build_owners(family_specs, single_specs), x, a, b)
        ran = len(computes)
        again = call(families, chain, x, a, b)
        # The same value, with no compute run, or the same error again.
        assert again == got
        if got[0] == "ok":
            assert len(computes) == ran


@seed(facalc_seed())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_letter_rows_are_the_components(data):
    family_specs, single_specs = data.draw(kinded_owners(), label="owners")
    calls = data.draw(shared_calls(len(single_specs)), label="calls")
    window = TruncWindow(6, levels.rat(3))
    families, chain = build_owners(family_specs, single_specs)
    for x, (a, b) in calls:
        outcome(lambda: slot_value(x, chain_slots(chain[a:b], families[a]), window), FacalcError)
    for owner in families + chain:
        for key, row in owner.rows.items():
            block = Word(key) if isinstance(key, str) else Word.from_gens([QUIVER.gen(g) for g in key])
            terms = owner.comp_value(block).terms
            assert row == tuple((g.gid, cl) for g, cl in terms), (owner, key)


def test_owners_of_one_name_keep_their_own_letters():
    # Two owners named alike, as the synthetic letters of two solver runs
    # are, with different components: a cache keyed by name would hand the
    # second the first one's letters.
    x, a = QUIVER.gen("x"), QUIVER.gen("a")
    w = Word.from_gens([x, a])
    one = novikov.one()
    tables = [
        {1: {("x",): HomElement.from_gen(x, one), ("a",): HomElement.from_gen(a, one)}},
        {1: {("x",): HomElement.from_gen(x, novikov.monomial(-2)), ("x", "a"): HomElement.from_gen(a, one)}},
    ]
    owners = [Cofunctor("L.r0", QUIVER, QUIVER, IDENTITY, t, "rat", "nov") for t in tables]
    window = TruncWindow(6, levels.rat(3))
    x_elem = TensorElement.from_word(w, one)
    values = [slot_value(x_elem, cofunctor_slots(f), window) for f in owners]
    assert values[0] != values[1]
    for f, value in zip(owners, values):
        assert value == oracle_slot_value(x_elem, cofunctor_slots(f), window)
        assert f.rows[("x",)] == tuple((g.gid, c) for g, c in f.comps[1][("x",)].terms)



# ---------------------------------------------------------------------------
# Chain sums, and the engine's one rule for a chain that vanishes

ZERO_KINDS = ["exact", "bounded-at-n", "bounded-below-n", "lazy"]


def zero_single(kind: str, f: Cofunctor, g: Cofunctor, deg: int, n: int, salt: int) -> Coderivation:
    """A coderivation from f to g that stores no component, for words of x
    up to length n: an exact table, one extracted up to n or beyond (both
    decide every block of x), one extracted below n (its lookups of longer
    blocks raise) or a lazy one (its compute runs, may raise and may give a
    nonzero letter).  Its name carries the salt, so that the lookups of
    two zero singles are told apart."""
    name = f"z{salt}"
    if kind == "exact":
        return Coderivation(name, f, g, deg, R0, {})
    if kind == "bounded-at-n":
        return Coderivation(name, f, g, deg, R0, {}, complete_upto=n + salt % 2)
    if kind == "bounded-below-n":
        return Coderivation(name, f, g, deg, R0, {}, complete_upto=n - 1)
    hits = lambda w: _hash(salt + 9, w) % 5 == 0
    upto = None if salt % 2 else n - 1
    return Coderivation(name, f, g, deg, R0, {}, complete_upto=upto, compute=RaisingCompute(salt, 2, hits))


def decides(owner, n: int) -> bool:
    """Whether owner answers every block up to length n from its stored
    table, read from its raw fields."""
    if owner.complete_upto is not None:
        return owner.complete_upto >= n
    return owner.compute is None


def vanishes(chain, n: int) -> bool:
    """The engine's skip, read from the raw fields: some single stores
    nothing, and every owner decides every block up to n."""
    owners = [r.f for r in chain] + [chain[-1].g] + list(chain)
    return any(not r.comps for r in chain) and all(decides(owner, n) for owner in owners)


def traced(run, chain):
    """``run`` of the chain's pair on fresh owners: its outcome, the
    computes that ran, in order, and the blocks looked up."""
    slots = chain_slots(chain)
    hits, seen = [], set()
    record_computes(slot_owners(slots), hits)
    record_lookups(slots, seen)
    return outcome(lambda: run(slots), FacalcError), hits, seen, slots


def literal_chain_sum(x, signed_chains, window):
    """The signed sum of ``chain_eval`` over every chain, one chain and one
    word at a time."""
    pieces, flags = [], []
    for sign, chain in signed_chains:
        piece, flag = chain_eval(x, chain, window)
        pieces.append((sign, piece))
        flags.append(flag)
    return tcoalg._signed_sum(pieces), tcoalg.join_flags(*flags)


@seed(facalc_seed())
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_chain_sum_matches_the_literal_sum(data):
    n_singles = data.draw(st.sampled_from([1, 2]), label="singles")
    family_specs = data.draw(st.lists(owner_specs(), min_size=n_singles + 1, max_size=n_singles + 1))
    single_specs = data.draw(st.lists(owner_specs(), min_size=n_singles, max_size=n_singles))
    for sp in family_specs + single_specs:
        sp["bounded"] = data.draw(st.sampled_from([False, False, True]))
    for sp in family_specs:
        sp["flat_curvature"] = data.draw(st.sampled_from([None, None, None, 0, -1]))
    zeros = data.draw(st.lists(
        st.one_of(st.none(), st.sampled_from(ZERO_KINDS)), min_size=n_singles, max_size=n_singles
    ), label="zeros")
    salt = data.draw(st.integers(0, 10**6), label="salt")
    words = [w for w, _ in data.draw(elements(max_len=4 - n_singles), label="x").terms]
    c = data.draw(st.sampled_from(SCALARS), label="coeff")
    x = TensorElement(words[0].src, words[0].dst, [(w, c) for w in words])
    n = max(len(w) for w in words)
    window = TruncWindow(6, levels.rat(data.draw(st.integers(1, 3), label="cutoff")))
    spans = [(a, b) for a in range(n_singles) for b in range(a + 1, n_singles + 1)]
    picked = data.draw(st.lists(
        st.tuples(st.sampled_from([1, -1]), st.sampled_from(spans)), min_size=1, max_size=4
    ), label="chains")

    def signed_chains():
        """Fresh owners: the chain with its zero singles swapped in."""
        families, chain = build_owners(family_specs, single_specs)
        for i, kind in enumerate(zeros):
            if kind is not None:
                chain[i] = zero_single(kind, families[i], families[i + 1], chain[i].deg, n, salt + i)
        return [(sign, tuple(chain[a:b])) for sign, (a, b) in picked]

    def batched():
        """One sweep per chain over the words, one word at a time if that
        raises."""
        chains = signed_chains()
        return list(_in_order(lambda ws: chain_sum(ws, c, chains, window), words))

    def literal():
        chains = signed_chains()
        return [literal_chain_sum(TensorElement.from_word(w, c), chains, window) for w in words]

    got = outcome(batched, FacalcError)
    assert got == outcome(literal, FacalcError)

    # Each chain's sweep against the enumerator, which skips nothing.  Where
    # the chain vanishes on the longest word, the sweep yields nothing and
    # makes no lookup and no compute, or raises where the curvature cannot
    # be bounded, as the enumerator does; elsewhere its lookups are the
    # enumerator's.
    def sweep(slots):
        return dict(_path_sum(words, c, *slots, _empty_caps(slots[0], window, c)))

    def enumerated(slots):
        return [oracle_slot_value(TensorElement.from_word(w, c), slots, window) for w in words]

    for k in range(len(picked)):
        chain = signed_chains()[k][1]
        got, hits, seen, slots = traced(sweep, chain)
        want, want_hits, want_seen, _ = traced(enumerated, signed_chains()[k][1])
        if vanishes(chain, n):
            assert got == (("ok", {}) if want[0] == "ok" else want)
            assert not hits and not seen
        elif got[0] == want[0] == "ok":
            assert set(hits) == set(want_hits)
            assert_same_lookups(slots, seen, want_seen)
        else:
            assert got[0] == want[0]


@seed(facalc_seed())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_mixed_length_batch_matches_the_literal_sum(data):
    # One batch of words both below and above a lazy family's
    # ``undecided``, with a single that stores nothing: each chain sweeps
    # every word of the batch, the short ones too, and gives the literal
    # sum's values, flags, computes in order and first error.  Only the
    # long word reaches a length the family does not decide, so it makes
    # every compute, in the same order in the batch as alone.
    n_singles = data.draw(st.sampled_from([1, 2]), label="singles")
    family_specs = data.draw(st.lists(owner_specs(), min_size=n_singles + 1, max_size=n_singles + 1))
    single_specs = data.draw(st.lists(owner_specs(), min_size=n_singles, max_size=n_singles))
    upto = data.draw(st.integers(0, 3 - n_singles), label="upto")
    lazy = data.draw(st.integers(0, n_singles), label="lazy family")
    for i, sp in enumerate(family_specs + single_specs):
        sp.update(lazy=i == lazy, bounded=False, upto=upto)
    zero = data.draw(st.integers(0, n_singles - 1), label="zero single")
    short = data.draw(st.lists(words(upto), min_size=1, max_size=3), label="short")
    long = data.draw(words(4 - n_singles).filter(lambda w: len(w) > upto), label="long")
    batch = data.draw(st.permutations(list(dict.fromkeys(short + [long]))), label="batch")
    c = data.draw(st.sampled_from(SCALARS), label="coeff")
    window = TruncWindow(6, levels.rat(data.draw(st.integers(1, 3), label="cutoff")))
    spans = [(a, b) for a in range(n_singles) for b in range(a + 1, n_singles + 1)]
    picked = data.draw(st.lists(
        st.tuples(st.sampled_from([1, -1]), st.sampled_from(spans)), min_size=1, max_size=3
    ), label="chains")

    def run(evaluate):
        """Fresh owners: the outcome and the computes that ran, in order."""
        families, chain = build_owners(family_specs, single_specs)
        chain[zero] = zero_single("exact", families[zero], families[zero + 1], chain[zero].deg, 0, 0)
        hits = []
        record_computes(families + chain, hits)
        chains = [(sign, tuple(chain[a:b])) for sign, (a, b) in picked]
        return outcome(lambda: evaluate(chains), FacalcError), hits

    got, hits = run(lambda chains: list(_in_order(lambda ws: chain_sum(ws, c, chains, window), batch)))
    want, want_hits = run(lambda chains: [
        literal_chain_sum(TensorElement.from_word(w, c), chains, window) for w in batch
    ])
    assert got == want
    # A batch that raises runs again one word or term at a time, and so
    # does the raising compute; the first runs come in the same order.
    assert list(dict.fromkeys(hits)) == list(dict.fromkeys(want_hits))
    if want[0] == "ok":
        assert hits == want_hits
    # The enumerator, which skips nothing, computes the same blocks.
    unskipped, every_hit = run(lambda chains: [
        oracle_slot_value(TensorElement.from_word(w, c), chain_slots(chain), window)
        for w in batch for _, chain in chains
    ])
    if unskipped[0] == "ok":
        assert set(hits) == set(every_hit)


@pytest.mark.parametrize("kinds", [("exact",), ("bounded-at-n",), ("exact", "bounded-at-n")])
def test_chain_sum_of_vanishing_chains_is_the_zero_element(kinds):
    a = QUIVER.gen("a")
    table = {1: {("a",): HomElement.from_gen(a, novikov.one())}}
    f = Cofunctor("f", QUIVER, QUIVER, IDENTITY, table, "rat", "nov")
    # g swaps the objects, h fixes them: the chains end on different objects.
    g = Cofunctor("g", QUIVER, QUIVER, {"X": "Y", "Y": "X"}, {}, "rat", "nov")
    h = Cofunctor("h", QUIVER, QUIVER, IDENTITY, {}, "rat", "nov")
    ab = Word.from_gens([a, QUIVER.gen("b")])
    x = TensorElement.from_word(ab, novikov.one())
    window = TruncWindow(6, levels.rat(3))
    chains = [
        (sign, (zero_single(kind, f, end, 1, len(ab), 0),))
        for sign, kind, end in zip((-1, 1), kinds, (g, h))
    ]
    seen = set()
    record_lookups(((f, g, h), tuple(c for _, (c,) in chains)), seen)
    (w, one), = x.terms
    (value, flag), = chain_sum([w], one, chains, window)
    assert not seen  # no chain was evaluated
    # The zero element on the first chain's endpoints: f on the source, g on
    # the target.
    assert (value.src, value.dst) == ("X", "Y")
    assert value == TensorElement.zero("X", "Y") == literal_chain_sum(x, chains, window)[0]
    assert flag is Flag.SOUND


def test_vanishing_chains_keep_the_curvature_error():
    # A zero single between families curved at level 0: the literal sum
    # raises in ``_empty_caps``, and so must the skip.
    spec = {"salt": 1, "sparsity": 1, "curved": False, "lazy": False, "raise_mod": None, "deg": 1,
            "upto": None, "flat_curvature": 0}
    families, _ = build_owners([spec, dict(spec, flat_curvature=None)], [])
    z = zero_single("exact", families[0], families[1], 1, 2, 0)
    x = TensorElement.from_word(Word.from_gens([QUIVER.gen("a"), QUIVER.gen("b")]), novikov.one())
    window = TruncWindow(6, levels.rat(3))
    (w, one), = x.terms
    assert outcome(lambda: chain_sum([w], one, [(1, (z,))], window)) == ("raised", ConvergenceUndecided)
    assert outcome(lambda: literal_chain_sum(x, [(1, (z,))], window)) == ("raised", ConvergenceUndecided)


def test_chain_sum_does_not_skip_a_chain_that_does_not_compose():
    families, _ = build_owners([{"salt": s, "sparsity": 1, "curved": False, "lazy": False,
                                     "raise_mod": None, "deg": 0, "upto": None} for s in range(3)], [])
    x = TensorElement.from_word(Word.from_gens([QUIVER.gen("a")]), novikov.one())
    z = zero_single("exact", families[0], families[1], 0, 1, 0)
    # z ends at f1, the next entry starts at f2.
    broken = (z, zero_single("exact", families[2], families[0], 0, 1, 0))
    window = TruncWindow(6, levels.rat(3))
    (w, one), = x.terms
    got = outcome(lambda: chain_sum([w], one, [(1, broken)], window), FacalcError)
    assert got == outcome(lambda: literal_chain_sum(x, [(1, broken)], window), FacalcError) == ("raised", ObjectMismatch)


def test_chain_sum_flags_each_chain_before_the_sum():
    # r and s agree on the empty block at X, whose letter x lengthens a past
    # the window, and differ on a.  In r - s the long terms cancel, but each
    # chain alone drops a term below the cutoff for length: LOSSY.
    a, c, x = (QUIVER.gen(name) for name in "acx")
    one = novikov.one()
    f = Cofunctor("f", QUIVER, QUIVER, IDENTITY, {1: {(g.gid,): HomElement.from_gen(g, one) for g in QUIVER.gens}},
                  "rat", "nov")

    def single(name, k):
        comps = {0: {"X": HomElement.from_gen(x, one)}, 1: {("a",): HomElement.from_gen(c, novikov.monomial(k))}}
        return Coderivation(name, f, f, 1, R0, comps)

    chains = [(1, (single("r", 1),)), (-1, (single("s", 2),))]
    w = Word.from_gens([a])
    elem = TensorElement.from_word(w, one)
    window = TruncWindow(1, levels.rat(3))
    longs = [
        {u: cu for u, cu in chain_eval(elem, chain, window, length_truncate=False)[0].terms if len(u) > 1}
        for _, chain in chains
    ]
    assert longs[0] and longs[0] == longs[1]
    assert all(chain_eval(elem, chain, window)[1] is Flag.LOSSY for _, chain in chains)
    (value, flag), = chain_sum([w], one, chains, window)
    assert flag is Flag.LOSSY and not value.is_zero()
    assert (value, flag) == literal_chain_sum(elem, chains, window)


def test_chain_sum_checks_the_endpoints_of_every_term_before_the_window():
    # r sends a (X -> Y) to b (Y -> X) far above the cutoff.  The window
    # would drop the term, but a term off the chain's endpoints raises first.
    a, b = QUIVER.gen("a"), QUIVER.gen("b")
    f = Cofunctor("f", QUIVER, QUIVER, IDENTITY, {}, "rat", "nov")
    r = Coderivation("r", f, f, 1, R0, {1: {("a",): HomElement.from_gen(b, novikov.monomial(1, 5))}})
    w = Word.from_gens([a])
    window = TruncWindow(6, levels.rat(3))

    def message(fn):
        with pytest.raises(ObjectMismatch) as info:
            fn()
        return str(info.value)

    got = message(lambda: chain_sum([w], novikov.one(), [(1, (r,))], window))
    want = message(lambda: literal_chain_sum(TensorElement.from_word(w, novikov.one()), [(1, (r,))], window))
    assert got == want == "word Word(b) does not run 'X' -> 'Y'"


@seed(facalc_seed())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reused_output_words_equal_fresh_ones(data):
    family_specs, single_specs = data.draw(slot_sequences(max_singles=2))
    for sp in family_specs + single_specs:
        sp["raise_mod"] = None
    x = data.draw(elements(max_len=4 - len(single_specs)), label="x")
    window = TruncWindow(6, levels.rat(3))
    slots = build_slots(family_specs, single_specs)
    first, _ = slot_value(x, slots, window, length_truncate=False)
    again, _ = slot_value(x, slots, window, length_truncate=False)
    assert first == again
    for (w, _), (w2, _) in zip(first.terms, again.terms):
        fresh = Word(w.at, tuple(w.gens))
        assert w == fresh and hash(w) == hash(fresh)
        if len(w):
            # The second evaluation hands out the word the first one built.
            assert w2 is w
            assert QUIVER.words[tuple(g.gid for g in w.gens)] is w


# ---------------------------------------------------------------------------
# One sweep over many words


@st.composite
def word_sets(draw, max_len):
    """Words of mixed lengths that share prefixes: some drawn words, each
    with a few of its prefixes, in any order, repeats allowed."""
    out = []
    for w in draw(st.lists(words(max_len), min_size=1, max_size=4)):
        cuts = draw(st.sets(st.integers(0, len(w)), max_size=3)) | {len(w)}
        out.extend(Word(w.at, w.gens[:d]) for d in sorted(cuts))
    return draw(st.permutations(out))


@seed(facalc_seed())
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sweep_matches_the_per_word_oracle(data):
    family_specs, single_specs = data.draw(kinded_owners(), label="owners")
    batch = data.draw(word_sets(4 - len(single_specs)), label="words")
    c = data.draw(st.sampled_from(SCALARS), label="coeff")
    window = TruncWindow(6, levels.rat(data.draw(st.integers(1, 3), label="cutoff")))
    kind = data.draw(st.sampled_from(["none", "exact", "lazy", "bounded", "curved"]), label="fold")
    fold_args = (
        kind,
        data.draw(st.integers(0, 10**6), label="fold_salt"),
        data.draw(st.integers(1, 8), label="fold_sparsity"),
        data.draw(st.integers(0, 2), label="fold_upto"),
    )

    def run(evaluate):
        """Fresh owners: the values in order (one word at a time where the
        batch raises), the computes that ran and the blocks looked up."""
        slots = build_slots(family_specs, single_specs)
        fold = None if kind == "none" else fold_owner(*fold_args)
        hits, seen = [], set()
        record_computes(slot_owners(slots) + ([fold] if fold else []), hits)
        record_lookups(slots, seen)
        got = outcome(lambda: list(_in_order(lambda ws: evaluate(ws, slots, fold), batch)), FacalcError)
        return got, set(hits), seen, slots

    def sweep(ws, slots, fold):
        if fold is None:
            return chain_sum(ws, c, [(1, slots[1])], window, slots[0][0])
        return _transport(ws, slots, fold, window, c)

    def per_word(ws, slots, fold):
        out = []
        for w in ws:
            value = oracle_slot_value(TensorElement.from_word(w, c), slots, window, fold is None)
            out.append(value if fold is None else family_value(fold, value[0]))
        return out

    got, hits, seen, slots = run(sweep)
    want, want_hits, want_seen, _ = run(per_word)
    # Where two lookups raise different errors, the engine and the
    # enumerator meet them in different orders, word by word as in one
    # sweep, so only the outcome is compared then.
    assert got[0] == want[0]
    if want[0] == "ok":
        assert got == want
        assert hits == want_hits
        assert seen <= want_seen
        if kind == "none":
            assert effective(slots, seen) == effective(slots, want_seen)


# ---------------------------------------------------------------------------
# Sparse owners over a whole basis: most basis words are never reached

SPARSE_GENS = (("a", "X", "Y"), ("x", "X", "X"), ("y", "Y", "Y"), ("b", "Y", "X"))


def sparse_letter(quiver: FiltQuiver, salt: int, sparsity: int, w: Word) -> HomElement:
    """A deterministic pseudo-random letter on w over quiver; zero on most
    words when sparsity > 1."""
    h = _hash(salt, w)
    if h % sparsity:
        return HomElement.zero(w.src, w.dst)
    parallel = [g for g in quiver.gens if (g.src, g.dst) == (w.src, w.dst)]
    return HomElement(w.src, w.dst, [(g, SCALARS[(h >> (5 + 3 * k)) % len(SCALARS)]) for k, g in enumerate(parallel)])


@st.composite
def sparse_owner_specs(draw, keys, mode):
    """A few stored keys, most of one letter, and a kind: exact, lazy from a
    length on (its compute may raise ConvergenceUndecided in the
    "undecided" mode), or extracted up to a length and raising past it (the
    "bounded" mode)."""
    kinds = ["exact", "exact", "lazy-tailed"] + (["bounded"] if mode == "bounded" else [])
    letters = [key for key in keys if len(key) == 1]
    return {
        "keys": draw(st.lists(st.sampled_from(letters), min_size=1, max_size=4, unique=True))
        + draw(st.lists(st.sampled_from([key for key in keys if len(key) > 1]), max_size=2, unique=True)),
        "salt": draw(st.integers(0, 10**6)),
        "kind": draw(st.sampled_from(kinds)),
        "upto": draw(st.integers(1, 3)),
        "raises": mode == "undecided" and draw(st.booleans()),
        "deg": draw(st.integers(-1, 2)),
    }


def sparse_owner(quiver, spec, make):
    """``make(comps, complete_upto, compute)`` on the spec's table."""
    comps = {}
    for key in spec["keys"]:
        v = sparse_letter(quiver, spec["salt"], 1, Word.from_gens([quiver.gen(g) for g in key]))
        if not v.is_zero():
            comps.setdefault(len(key), {})[key] = v
    if spec.get("curvature") is not None:
        # Loops at both objects, at the drawn level whatever their base level.
        comps[0] = {
            obj: HomElement.from_gen(g, novikov.monomial(1, spec["curvature"] - g.base_level.value))
            for obj, g in (("X", quiver.gen("x")), ("Y", quiver.gen("y")))
        }
    kind = spec["kind"]
    compute = None
    if kind == "lazy-tailed":
        hits = (lambda w: _hash(spec["salt"] + 9, w) % 5 == 0) if spec["raises"] else (lambda w: False)

        def compute(w):
            if hits(w):
                raise ConvergenceUndecided(f"lazy component on {w!r}")
            return sparse_letter(quiver, spec["salt"] + 7, 3, w)

    return make(comps, spec["upto"] if kind in ("lazy-tailed", "bounded") else None, compute)


@seed(facalc_seed())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sparse_owners_match_the_per_word_oracle_over_the_basis(data):
    # Curvature on rat with negative generator levels exercises the room
    # bound; curvature of level <= 0 makes the words below the cutoff
    # UNDECIDED, each on its own, and the extraction raise on the first.
    mode = data.draw(st.sampled_from(["undecided", "bounded"]), label="mode")
    gens = [
        HomGenerator(gid, src, dst, data.draw(st.integers(-1, 2), label=f"deg {gid}"),
                     levels.rat(data.draw(st.sampled_from(["-1/2", "0", "1/2", "1"]), label=f"level {gid}")))
        for gid, src, dst in SPARSE_GENS[:data.draw(st.integers(3, 4), label="generators")]
    ]
    quiver = FiltQuiver("S", ["X", "Y"], gens)
    keys = [tuple(g.gid for g in w.gens) for w in basis_words(quiver, 3) if len(w)]
    n_singles = data.draw(st.integers(0, 1), label="singles")
    family_specs = [data.draw(sparse_owner_specs(keys, mode), label=f"f{i}") for i in range(n_singles + 1)]
    single_specs = [data.draw(sparse_owner_specs(keys, mode), label=f"r{i}") for i in range(n_singles)]
    curved = data.draw(st.sampled_from((["flat"] if mode == "undecided" else []) + ["bounded", None]), label="curved")
    if curved is not None:
        spec = family_specs[data.draw(st.integers(0, n_singles), label="curved family")]
        spec["curvature"] = Fraction(data.draw(st.sampled_from(["1", "3/2"] if curved == "bounded" else ["0", "-1/2"])))
    fold_spec = data.draw(sparse_owner_specs(keys, mode), label="fold")
    n = min(data.draw(st.sampled_from([6, 5, 4, 2]), label="n"), 6 - n_singles - (2 if curved else 0))
    window = TruncWindow(n, levels.rat(data.draw(st.integers(1, 3), label="cutoff")))
    c = data.draw(st.sampled_from(SCALARS), label="coeff")
    basis = basis_words(quiver, n)
    ident = {"X": "X", "Y": "Y"}

    def owners():
        """Fresh owners, their computes and lookups logged."""
        families = [
            sparse_owner(quiver, sp, lambda comps, upto, compute, i=i: Cofunctor(
                f"f{i}", quiver, quiver, ident, comps, "rat", "nov", complete_upto=upto, compute=compute))
            for i, sp in enumerate(family_specs)
        ]
        chain = [
            sparse_owner(quiver, sp, lambda comps, upto, compute, i=i: Coderivation(
                f"r{i}", families[i], families[i + 1], sp["deg"], R0, comps, complete_upto=upto, compute=compute))
            for i, sp in enumerate(single_specs)
        ]
        fold = sparse_owner(quiver, fold_spec, lambda comps, upto, compute: Cofunctor(
            "fold", quiver, quiver, ident, comps, "rat", "nov", complete_upto=upto, compute=compute))
        slots = chain_slots(chain, families[0])
        hits, seen = [], set()
        record_computes(slot_owners(slots) + [fold], hits)
        record_lookups(slots, seen)
        return slots, fold, hits, seen

    def literal_run(reduce_words, folded=True):
        """The per-word enumerator on fresh owners, folded or not."""
        slots, fold, hits, seen = owners()

        def value(w):
            unfolded, _ = oracle_slot_value(TensorElement.from_word(w, c), slots, window, False)
            return family_value(fold, unfolded) if folded else unfolded

        return reduce_words(value), set(hits), seen, slots

    def swept_run(call):
        """``call(slots, values)`` on fresh owners, ``values`` the transport."""
        slots, fold, hits, seen = owners()
        return call(slots, lambda ws: _transport(ws, slots, fold, window, c)), set(hits), seen, slots

    def same_work(got, want, pruned=fold_spec["kind"] == "exact"):
        assert got[1] == want[1]  # the lazy computes that ran
        assert got[2] <= want[2]
        if not pruned:  # every effective lookup
            assert effective(got[3], got[2]) == effective(want[3], want[2])

    # The sweep itself, unfolded: the terms of each word it reaches.
    def path_sums(slots):
        families, singles = slots
        swept = _path_sum(Basis(quiver, n), c, families, singles, _empty_caps(families, window, c))
        return {w: TensorElement(w.src, w.dst, terms) for w, terms in swept}

    got = swept_run(lambda slots, values: outcome(lambda: path_sums(slots), FacalcError))
    want = literal_run(lambda value: outcome(lambda: {w: value(w) for w in basis}, FacalcError), folded=False)
    assert got[0][0] == want[0][0]
    if want[0][0] == "ok":
        for w in basis:
            assert got[0][1].get(w, TensorElement.zero(w.src, w.dst)) == want[0][1][w]
        same_work(got, want, pruned=False)

    # The transport over the basis: the reached words, every other one zero.
    got = swept_run(lambda slots, values: outcome(lambda: values(Basis(quiver, n)), FacalcError))
    want = literal_run(lambda value: outcome(lambda: {w: value(w) for w in basis}, FacalcError))
    assert got[0][0] == want[0][0]
    if want[0][0] == "ok":
        swept, literal_values = got[0][1], want[0][1]
        assert set(swept) <= set(basis)
        for w in basis:
            assert swept[w] == literal_values[w] if w in swept else literal_values[w].is_zero()
        same_work(got, want)

    # Extraction: the truncated nonzero values, or the first word's error.
    def extracted(value):
        comps = {}
        for w in basis:
            v = hom_truncate(value(w), window)
            if not v.is_zero():
                comps.setdefault(len(w), {})[comp_key(w)] = v
        return comps

    got = swept_run(lambda slots, values: outcome(lambda: _extract_components(values, quiver, window)[0], FacalcError))
    want = literal_run(lambda value: outcome(lambda: extracted(value), FacalcError))
    assert got[0] == want[0] if want[0][0] == "ok" else got[0][0] == want[0][0]
    if want[0][0] == "ok":
        same_work(got, want)

    # The check report: every basis word, UNDECIDED exactly where that word
    # alone cannot be bounded.
    def report(value):
        entries = []
        for w in basis:
            try:
                entries.append((word_name(w), _hom_str(hom_truncate(value(w), window)), "SOUND"))
            except ConvergenceUndecided:
                entries.append((word_name(w), "?", "UNDECIDED"))
        return entries

    got = swept_run(lambda slots, values: outcome(lambda: [
        (e.word, e.residual, e.flag) for e in _word_checks("b2", quiver, n, values, window)
    ], FacalcError))
    want = literal_run(lambda value: outcome(lambda: report(value), FacalcError))
    assert got[0] == want[0] if want[0][0] == "ok" else got[0][0] == want[0][0]


@pytest.mark.parametrize("raisers", [(("a", "b", "a"),), (("a", "b", "a"), ("a", "b", "x"))])
def test_a_raising_word_keeps_its_own_error(raisers):
    # f and r compute every block of length 3, and raise on the chosen
    # words.  The batch meets a.b.x first, as f's block from the root, and
    # a.b.a only after it, as r's: run one at a time, each error lands on
    # its own word, and the first error is the first word's.
    one = novikov.one()
    a = QUIVER.gen("a")
    table = {1: {(g.gid,): HomElement.from_gen(g, one) for g in QUIVER.gens}}

    def owners():
        f_hits = lambda w: comp_key(w) == ("a", "b", "x") and comp_key(w) in raisers
        r_hits = lambda w: comp_key(w) == ("a", "b", "a") and comp_key(w) in raisers
        f = Cofunctor("f", QUIVER, QUIVER, IDENTITY, table, "rat", "nov", complete_upto=2,
                      compute=RaisingCompute(3, 1, f_hits))
        r = Coderivation("r", f, f, 1, R0, {1: {("a",): HomElement.from_gen(a, one)}}, complete_upto=2,
                         compute=RaisingCompute(5, 1, r_hits))
        return coderivation_slots(r), Cofunctor("fold", QUIVER, QUIVER, IDENTITY, table, "rat", "nov")

    window = TruncWindow(3, levels.rat(3))
    words = basis_words(QUIVER, 3)
    slots, fold = owners()
    values = lambda ws: _transport(ws, slots, fold, window, one)
    first = Word.from_gens([QUIVER.gen(g) for g in raisers[-1]])
    with pytest.raises(ConvergenceUndecided, match=re.escape(repr(first))):
        values(words)
    entries = _word_checks("b2", QUIVER, 3, values, window)
    undecided = [e.word for e in entries if e.flag == "UNDECIDED"]
    assert sorted(undecided) == sorted(".".join(w) for w in raisers)
    for e in entries:
        if e.flag == "SOUND":
            (want,) = _transport([next(w for w in words if word_name(w) == e.word)], *owners(), window, one)
            assert e.residual == _hom_str(hom_truncate(want, window))
    with pytest.raises(ConvergenceUndecided, match=re.escape(repr(Word.from_gens([QUIVER.gen(g) for g in raisers[0]])))):
        _extract_components(values, QUIVER, window)


def level_quiver(data, instance: str) -> FiltQuiver:
    """Generators of drawn base levels in the instance: negative ones too in
    rat, 0 alone in discrete."""
    low = {"rat": -2, "ratplus": 0, "discrete": 0}[instance]
    high = 0 if instance == "discrete" else 2
    pool = st.fractions(low, high, max_denominator=4)
    gens = [
        HomGenerator(gid, src, dst, sdeg, levels.make_level(instance, data.draw(pool, label=gid)))
        for gid, src, dst, sdeg in (("a", "X", "Y", 0), ("b", "Y", "X", 1), ("x", "X", "X", 1), ("y", "Y", "Y", 2))
    ]
    return FiltQuiver("L", ["X", "Y"], gens)


def grown(quiver: FiltQuiver, n: int, instance: str) -> _Trie:
    """The trie of ``Basis(quiver, n)`` with every node made: a fully lazy
    owner's blocks reach every node below a root."""
    trie = _Trie(Basis(quiver, n), instance)
    everything = Cofunctor("lazy", quiver, quiver, IDENTITY, {}, instance, "nov", compute=lambda w: None)
    for root in list(trie.roots):
        trie.blocks(everything, root, {})
    return trie


def node_word(trie: _Trie, q: int) -> Word:
    """The word of node q, built anew: its base level is summed from
    scratch."""
    return Word(trie.words[q].at, trie.words[q].gens)


def node_key(trie: _Trie, q: int):
    return trie.words[q].at, trie.words[q].gids


@seed(facalc_seed())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_trie_base_levels_are_the_words_base_levels(data):
    instance = data.draw(st.sampled_from(["rat", "ratplus", "discrete"]), label="instance")
    quiver = level_quiver(data, instance)
    batch = data.draw(st.lists(st.sampled_from(basis_words(quiver, 5)), min_size=1, max_size=12), label="words")
    n = data.draw(st.integers(0, 5), label="n")
    listed, swept = _Trie(batch, instance), grown(quiver, n, instance)
    assert len(swept.kids) == len(basis_words(quiver, n))
    for trie in (listed, swept):
        for q, word in enumerate(trie.words):
            fresh = node_word(trie, q)
            assert word.base_level(instance) == fresh.base_level(instance)
            assert trie.depth[q] == len(fresh) and word.sdeg == fresh.sdeg and word.dst == fresh.dst
            assert word == fresh and word.gids == fresh.gids
    assert all(swept.word(q) == node_word(swept, q) for q in range(len(swept.kids)))
    assert set(listed.ends.values()) == set(batch)
    assert all(node_word(listed, q) == w for q, w in listed.ends.items())


@seed(facalc_seed())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_basis_rooms_are_the_largest_caps_below(data):
    # A basis grown node by node bounds each node's room by the least base
    # level a word below it can have; that must be the room the list of
    # every basis word gives the same node, the largest cap below it.
    instance = data.draw(st.sampled_from(["rat", "ratplus", "discrete"]), label="instance")
    quiver = level_quiver(data, instance)
    n = data.draw(st.integers(0, 5), label="n")
    if instance == "discrete":
        floor, cutoff = levels.discrete("inf"), levels.discrete("inf")
    else:
        floor = levels.make_level(instance, data.draw(st.sampled_from(["1/4", "1/2", "1"]), label="floor"))
        cutoff = levels.make_level(instance, data.draw(st.integers(0, 3), label="cutoff"))
    cap = lambda base: levels._steps(base, floor, cutoff)
    listed = _Trie(basis_words(quiver, n), instance)
    swept = grown(quiver, n, instance)
    listed_rooms, swept_rooms = listed.rooms(cap), swept.rooms(cap)
    nodes = {node_key(listed, q): q for q in range(len(listed.kids))}
    for q in range(len(swept.kids)):
        p = nodes[node_key(swept, q)]
        assert swept_rooms[q] == listed_rooms[p]
        assert swept.word(q) == listed.ends[p] and swept.room(cap, q) == listed.room(cap, p)


def test_a_long_basis_needs_no_recursion():
    # The least base level below a node is tabled from the shortest paths
    # up, so a basis far longer than the recursion limit still gives each
    # root its room: x^n at X, of level -n/4, and y^n (level 0) at Y.
    gens = [
        HomGenerator("x", "X", "X", 0, levels.rat("-1/4")),
        HomGenerator("a", "X", "Y", 0, levels.rat(1)),
        HomGenerator("y", "Y", "Y", 0, R0),
    ]
    n = 4 * sys.getrecursionlimit()
    cap = lambda base: levels._steps(base, levels.rat(1), levels.rat(3))
    trie = _Trie(Basis(FiltQuiver("long", ["X", "Y"], gens), n), "rat")
    rooms = trie.rooms(cap)
    assert [rooms[q] for q in trie.roots] == [3 + n // 4, 3]


# ---------------------------------------------------------------------------
# Kept tries: a basis keeps one trie per instance on its quiver, and each
# trie keeps its owners' block walks, across calls.


def unbounded_blocks(trie: _Trie, owner, p: int, walks=None):
    """The walk of ``_Trie.blocks`` with no height bound, nothing kept in
    ``walks``: a lazy owner's walk covers the whole subtree below p."""
    lazy = None if owner.undecided is None else max(owner.undecided, 1)
    start = trie.depth[p]
    out, todo = [], [(p, owner.trie)]
    while todo:
        node, keys = todo.pop()
        for g in trie.allowed[node]:
            sub = None if keys is None else keys.get(g.gid)
            if sub is None and lazy is None:
                continue
            q = trie.kids[node].get(g.gid)
            if q is None:
                q = trie._make(node, g)
            if (sub is not None and _END in sub) or (lazy is not None and trie.depth[q] - start >= lazy):
                out.append((q, trie.words[q].gids[start:]))
            todo.append((q, sub))
    return out


SWEEPS = ["list", "basis", "chain_sum", "transport"]


def basis_sweep(mode: str, specs, n: int, c: NovikovScalar, cutoff: int, fresh: bool = False):
    """One sweep of the basis of ``QUIVER`` up to n, on fresh owners built
    from specs: the engine over the kept list ``basis_words`` or over
    ``Basis``, ``chain_sum`` over the list, or the transport over ``Basis``
    through an exact fold.  With ``fresh``, the quiver's kept tries are set
    aside, so the sweep makes its own.  Returns the outcome, the computes
    that ran, in order, and the blocks looked up."""
    families, chain = build_owners(*specs)
    slots = chain_slots(chain, families[0])
    window = TruncWindow(6, levels.rat(cutoff))
    hits, seen = [], set()
    record_computes(slot_owners(slots), hits)
    record_lookups(slots, seen)
    words = basis_words(QUIVER, n)

    def sweep():
        if mode in ("list", "basis"):
            swept = _path_sum(words if mode == "list" else Basis(QUIVER, n), c, *slots, _empty_caps(families, window, c))
            return dict(swept)
        if mode == "chain_sum":
            return chain_sum(words, c, [(1, tuple(chain))], window, families[0])
        return _transport(Basis(QUIVER, n), slots, fold_owner("exact", cutoff, 2, 0), window, c)

    kept = QUIVER.tries
    if fresh:
        QUIVER.tries = {}
    try:
        return outcome(sweep, FacalcError), hits, seen
    finally:
        QUIVER.tries = kept


@st.composite
def basis_sweeps(draw):
    """A few sweeps of one basis by owners of drawn kinds, coefficients and
    cutoffs, so that its kept trie meets different caps, in any order."""
    n = draw(st.integers(1, 3), label="n")
    calls = draw(st.lists(st.tuples(
        st.sampled_from(SWEEPS), kinded_owners(max_singles=1), st.sampled_from(SCALARS), st.integers(1, 3),
    ), min_size=2, max_size=5), label="calls")
    return n, calls


@seed(facalc_seed())
@settings(max_examples=60, deadline=None)
@given(sweeps=basis_sweeps())
def test_kept_tries_sweep_as_fresh_ones(sweeps):
    # Each sweep on the kept trie, after the sweeps before it, equals the
    # same sweep on a trie of its own: values, flags, computes in order,
    # lookups and error kind.
    n, calls = sweeps
    for mode, specs, c, cutoff in calls:
        assert basis_sweep(mode, specs, n, c, cutoff) == basis_sweep(mode, specs, n, c, cutoff, fresh=True)


def test_a_kept_trie_keeps_no_owner_alive():
    # A kept basis trie holds its block walks weakly by owner: an owner
    # dropped after its sweep is collected, and the walks of the owners
    # still alive answer as before, with the same sweep.
    quiver = FiltQuiver("Q", QUIVER.objects, QUIVER.gens)
    one = novikov.one()

    def owner(salt):
        return Cofunctor(f"f{salt}", quiver, quiver, IDENTITY, _table(salt, 1, False), "rat", "nov")

    kept, dropped = owner(1), owner(2)
    first = dict(_path_sum(Basis(quiver, 3), one, (kept,), ()))
    dict(_path_sum(Basis(quiver, 3), one, (dropped,), ()))
    trie = quiver.tries[3, "rat"]
    walks = trie.found[kept]
    found = dict(walks)
    assert found and dropped in trie.found
    gone = weakref.ref(dropped)
    del dropped
    gc.collect()
    assert gone() is None
    assert list(trie.found) == [kept] and trie.found[kept] is walks
    assert all(trie.blocks(kept, p, walks) is out for p, out in found.items())
    assert dict(_path_sum(Basis(quiver, 3), one, (kept,), ())) == first
    assert quiver.tries[3, "rat"] is trie


def test_a_kept_basis_list_sweeps_its_basis_trie():
    # The kept list ``basis_words(quiver, n)`` is swept on the kept trie of
    # ``Basis(quiver, n)``, found from the list itself: also where no word
    # reaches length n, since a: X -> Y does not compose with itself.
    quiver = FiltQuiver("short", ["X", "Y"], [HomGenerator("a", "X", "Y", 0, R0)])
    words = basis_words(quiver, 3)
    assert max(len(w) for w in words) == 1
    f = identity_cofunctor(quiver, "rat", "nov")
    values = chain_sum(words, novikov.one(), [(1, ())], TruncWindow(3, levels.rat(2)), f)
    assert list(quiver.tries) == [(3, "rat")]
    assert [value for value, _ in values] == [TensorElement.from_word(w, novikov.one()) for w in words]
    trie = quiver.tries[3, "rat"]
    chain_sum(words, novikov.one(), [(1, ())], TruncWindow(3, levels.rat(2)), f)
    assert quiver.tries == {(3, "rat"): trie}


@seed(facalc_seed())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_blocks_keep_to_the_stored_keys_where_no_word_is_undecided(data):
    # Below a node where no word reaches the first length a lazy owner does
    # not decide, ``blocks`` walks the stored keys only; its blocks are the
    # unbounded walk's, in order, from every node of a list or basis trie.
    family_specs, single_specs = data.draw(kinded_owners(max_singles=1), label="owners")
    owners = slot_owners(build_slots(family_specs, single_specs))
    n = data.draw(st.integers(0, 4), label="n")
    words = Basis(QUIVER, n) if data.draw(st.booleans(), label="basis") else data.draw(word_sets(n), label="words")
    bounded, literal = grown_or_listed(words), grown_or_listed(words)
    nodes = {node_key(literal, q): q for q in range(len(literal.kids))}
    for owner in owners:
        for p in range(len(bounded.kids)):
            got = [(node_key(bounded, q), key) for q, key in bounded.blocks(owner, p, bounded.found.setdefault(owner, {}))]
            want = unbounded_blocks(literal, owner, nodes[node_key(bounded, p)])
            assert got == [(node_key(literal, q), key) for q, key in want]
    # On a basis trie, a walk that keeps to the stored keys makes only
    # their nodes.
    for owner in owners:
        if owner.undecided is not None and max(owner.undecided, 1) > n:
            trie = _Trie(Basis(QUIVER, n), "rat")
            trie.blocks(owner, trie.roots[0], {})
            stored = {gids[:d] for k, table in owner.comps.items() if k for gids in table for d in range(k + 1)}
            assert {w.gids for w in trie.words} <= stored


def grown_or_listed(words) -> _Trie:
    """The trie of a list, or of a basis with every node made."""
    return grown(words.quiver, words.max_len, "rat") if isinstance(words, Basis) else _Trie(words, "rat")


@seed(facalc_seed())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bounded_blocks_sweep_as_the_unbounded_walk(data):
    # The same sweeps with the unbounded walk in place of ``blocks``, each
    # on its own trie: values, flags, computes in order, lookups and error
    # kind.
    n, calls = data.draw(basis_sweeps(), label="sweeps")
    for mode, specs, c, cutoff in calls:
        got = basis_sweep(mode, specs, n, c, cutoff, fresh=True)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Trie, "blocks", unbounded_blocks)
            want = basis_sweep(mode, specs, n, c, cutoff, fresh=True)
        assert got == want


# ---------------------------------------------------------------------------
# Steps by a unit letter, against the product they skip

# Pools in which most letters are a unit, of one variant or of two, among
# multi-term and plain scalars: a unit step then meets partials of both
# variants, and the first product of two variants is an error.
UNIT_POOLS = [
    [novikov.one(), novikov.one(), MULTI, novikov.one(), novikov.monomial(-1), novikov.nov_neg(MULTI)],
    [novikov.one(), novikov.one("q"), MULTI, novikov.one(), *PLAIN_SCALARS, novikov.monomial(2, 0, 1),
     novikov.one("q")],
]


def pool_table(salt: int, sparsity: int, pool, empties: bool):
    """Letters drawn from pool on the table words and, with empties, on the
    empty words."""
    comps = {}
    for w in TABLE_WORDS + ([Word(obj) for obj in QUIVER.objects] if empties else []):
        v = letter_for(salt, sparsity, w, pool)
        if not v.is_zero():
            comps.setdefault(len(w), {})[comp_key(w)] = v
    return comps


@st.composite
def pool_specs(draw, n_singles):
    """(salt, sparsity, complete_upto or None, lazy) per owner: the families,
    then the singles."""
    return draw(st.lists(st.tuples(
        st.integers(0, 10**6), st.integers(1, 2), st.sampled_from([None, 1, 2]), st.booleans(),
    ), min_size=2 * n_singles + 1, max_size=2 * n_singles + 1))


def pool_owners(specs, degs, pool):
    """Flat families and a chain between them, their letters from pool; a
    lazy owner's compute raises on some words."""
    n_singles = len(degs)

    def kw(salt, sparsity, upto, lazy):
        if not lazy:
            return {}
        hits = lambda w: _hash(salt + 9, w) % 7 == 0
        return {"complete_upto": upto, "compute": RaisingCompute(salt + 7, sparsity, hits, pool)}

    families = [
        Cofunctor(f"f{i}", QUIVER, QUIVER, IDENTITY, pool_table(salt, sparsity, pool, False), "rat", "nov",
                  **kw(salt, sparsity, upto, lazy))
        for i, (salt, sparsity, upto, lazy) in enumerate(specs[: n_singles + 1])
    ]
    chain = [
        Coderivation(f"r{i}", families[i], families[i + 1], deg, R0, pool_table(salt, sparsity, pool, True),
                     **kw(salt, sparsity, upto, lazy))
        for i, (deg, (salt, sparsity, upto, lazy)) in enumerate(zip(degs, specs[n_singles + 1:]))
    ]
    return families, chain


class ProductRow(tuple):
    """A letter row with no unit marked."""

    def __new__(cls, terms):
        row = super().__new__(cls, terms)
        row.units = (False,) * len(row)
        return row


@seed(facalc_seed())
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_unit_steps_match_the_products_on_mixed_pools(data):
    # The same sweeps with letter rows that mark no coefficient as the
    # unit, so that every step calls ``nov_mul``: values, flags, term types,
    # computes in order and the first error, with its message.
    pool = data.draw(st.sampled_from(UNIT_POOLS), label="pool")
    n_singles = data.draw(st.integers(0, 2), label="singles")
    specs = data.draw(pool_specs(n_singles), label="owners")
    degs = data.draw(st.lists(st.integers(-1, 2), min_size=n_singles, max_size=n_singles), label="degs")
    x = data.draw(multi_elements(pool, max_len=4 - n_singles), label="x")
    window = TruncWindow(6, levels.rat(data.draw(st.integers(1, 3), label="cutoff")))

    def run():
        families, chain = pool_owners(specs, degs, pool)
        computes = []
        record_computes(families + chain, computes)
        try:
            result = "ok", slot_value(x, chain_slots(chain, families[0]), window)
        except FacalcError as exc:
            result = "raised", type(exc), str(exc)
        return result, computes

    got = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_Row", ProductRow)
        want = run()
    assert got == want
    if got[0][0] == "ok":
        for _, c in got[0][1][0].terms:
            assert all(type(a) is Fraction and type(lam) is Fraction and type(n) is int for a, lam, n in c.terms)


def test_a_unit_step_keeps_the_variant_check():
    # The one letter of f is the unit of 'nov'; the element's coefficient
    # is of 'q', so the product, skipped or not, is an error.
    a = QUIVER.gen("a")
    f = Cofunctor("f", QUIVER, QUIVER, IDENTITY, {1: {("a",): HomElement.from_gen(a, novikov.one())}}, "rat", "nov")
    x = TensorElement.from_word(Word.from_gens([a]), novikov.monomial(3, 0, 0, "q"))
    with pytest.raises(VariantMismatch, match=r"^variants 'q' and 'nov'$"):
        slot_value(x, cofunctor_slots(f), TruncWindow(6, levels.rat(3)))
    assert f.rows[("a",)].units == (True,)


# ---------------------------------------------------------------------------
# chain_sum builds each element once, from its accumulation


@seed(facalc_seed())
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_chain_sum_builds_each_element_as_the_constructor_would(data):
    # Every element chain_sum returns is built once, by
    # ``TensorElement.merged``, from its word's accumulation; the
    # constructor, given the same terms, builds the same element, with the
    # same word and coefficient objects in the same order.  Chains of one
    # span drawn with both signs cancel, so some accumulations hold zeros.
    n_singles = data.draw(st.sampled_from([1, 2]), label="singles")
    family_specs = data.draw(st.lists(owner_specs(), min_size=n_singles + 1, max_size=n_singles + 1))
    single_specs = data.draw(st.lists(owner_specs(), min_size=n_singles, max_size=n_singles))
    for sp in family_specs + single_specs:
        sp["raise_mod"] = None
    words_ = [w for w, _ in data.draw(elements(max_len=4 - n_singles), label="x").terms]
    c = data.draw(st.sampled_from(SCALARS), label="coeff")
    window = TruncWindow(data.draw(st.integers(1, 6), label="length"), levels.rat(data.draw(st.integers(1, 3))))
    spans = [(a, b) for a in range(n_singles) for b in range(a + 1, n_singles + 1)]
    picked = data.draw(st.lists(
        st.tuples(st.sampled_from([1, -1]), st.sampled_from(spans)), min_size=1, max_size=4
    ), label="chains")
    families, chain = build_owners(family_specs, single_specs)
    chains = [(sign, tuple(chain[a:b])) for sign, (a, b) in picked]

    built = []
    merged = TensorElement.merged

    def recorded(src, dst, acc):
        out = merged(src, dst, acc)
        built.append((src, dst, list(acc.items()), out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TensorElement, "merged", recorded)
        got = outcome(lambda: chain_sum(words_, c, chains, window), FacalcError)
    if got[0] != "ok":
        return
    assert [value for value, _ in got[1]] == [out for _, _, _, out in built]
    for src, dst, terms, out in built:
        want = TensorElement(src, dst, terms)
        assert (out.src, out.dst) == (want.src, want.dst)
        assert len(out.terms) == len(want.terms)
        assert all(w is v and cw is cv for (w, cw), (v, cv) in zip(out.terms, want.terms))


def test_chain_sum_raises_the_first_term_off_a_words_ends():
    # r runs from f to h, which keep the objects, and s from f to g, which
    # swaps them: on a (X -> Y) r gives a, from X to Y, and s gives x, from
    # X to X; on b (Y -> X) r gives b and s gives y.  The sum of the two
    # chains has no ends, so the word's element is the first chain's ends
    # with the second chain's first kept word off them.  t, swept last,
    # gives b on a, off its own chain's ends: that error comes first.
    a, b, xl, yl = (QUIVER.gen(n) for n in "abxy")
    one = novikov.one()
    f = Cofunctor("f", QUIVER, QUIVER, IDENTITY, {}, "rat", "nov")
    g = Cofunctor("g", QUIVER, QUIVER, {"X": "Y", "Y": "X"}, {}, "rat", "nov")
    h = Cofunctor("h", QUIVER, QUIVER, IDENTITY, {}, "rat", "nov")

    def single(name, end, letters):
        return Coderivation(name, f, end, 1, R0, {1: {(w,): HomElement.from_gen(v, one) for w, v in letters}})

    r = single("r", h, [("a", a), ("b", b)])
    s = single("s", g, [("a", xl), ("b", yl)])
    t = single("t", h, [("a", b)])
    window = TruncWindow(6, levels.rat(3))
    wa, wb = Word.from_gens([a]), Word.from_gens([b])

    def message(words_, chains):
        with pytest.raises(ObjectMismatch) as info:
            chain_sum(words_, one, chains, window)
        return str(info.value)

    chains = [(1, (r,)), (-1, (s,))]
    assert message([wa, wb], chains) == "word Word(x) does not run 'X' -> 'Y'"
    assert message([wb, wa], chains) == "word Word(y) does not run 'Y' -> 'X'"
    for w in (wa, wb):
        with pytest.raises(ObjectMismatch) as info:
            literal_chain_sum(TensorElement.from_word(w, one), chains, window)
        assert str(info.value) == message([w], chains)
    assert message([wa, wb], chains + [(1, (t,))]) == "word Word(b) does not run 'X' -> 'Y'"


# ---------------------------------------------------------------------------
# The least base level below a basis node


def test_the_least_base_level_reads_its_table_only_below_zero():
    # u has level -1: the least base level of a word of at most 3 letters
    # from X is -3 (u.u.u), so the room at the root is the cap of -3.
    # Without a negative generator it is the cap of 0, and no table is
    # filled.
    cap = lambda base: int(3 - base.value)
    for levels_, room, table in (((-1, 2), 6, True), ((0, 2), 3, False)):
        quiver = FiltQuiver("N", ["X"], [
            HomGenerator(gid, "X", "X", 0, levels.rat(lvl)) for gid, lvl in zip("uv", levels_)
        ])
        trie = _Trie(Basis(quiver, 3), "rat")
        (root,) = trie.roots
        assert trie.rooms(cap)[root] == room
        assert bool(trie.lows) is table
