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

import re
import sys
import zlib
from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, seed, settings, strategies as st

from facalc import levels, novikov, tcoalg
from facalc.errors import ConvergenceUndecided, FacalcError, ObjectMismatch
from facalc.filtquiver import FiltQuiver, HomElement, HomGenerator, koszul_sign
from facalc.ainfty import _hom_str, _word_checks, word_name
from facalc.engine import Basis, _Trie, _path_sum
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
    chain_ops,
    chain_slots,
    chain_sum,
    cofunctor_slots,
    coderivation_slots,
    comp_key,
    family_value,
    hom_truncate,
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

    def __init__(self, salt: int, sparsity: int, hits):
        self.salt, self.sparsity, self.hits = salt, sparsity, hits

    def __call__(self, w: Word) -> HomElement:
        if self.hits(w):
            raise ConvergenceUndecided(f"lazy component on {w!r}")
        return letter_for(self.salt, self.sparsity, w)


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
    # A sparse exact fold: its trie prunes many products, leaving dead states.
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


@pytest.mark.parametrize("upto, walked", [(None, False), (2, False), (1, True)])
def test_a_dead_state_is_walked_only_where_some_owner_is_undecided(upto, walked):
    # On x.a the fold's only key is a, so the product f(x) is pruned and the
    # state after x is dead: its one lookup, f on a, can matter only when f
    # does not decide a block of x.a (here a lazy tail from length 2).
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
    assert (("f", Word.from_gens([a])) in seen) == walked
    unfolded, _ = oracle_slot_value(TensorElement.from_word(w, one), slots, window, False)
    assert value == family_value(fold, unfolded)


def test_a_dead_state_steps_only_where_some_word_below_is_undecided():
    # The words x.a and x.x.x share the prefix x.  The fold's only key is a,
    # so the product f(x) is pruned and the state after x is dead.  f is
    # lazy from length 3, so only x.x.x, the longer word, walks that state:
    # into x.x, never into x.a, whose own sweep drops it.  So f is never
    # asked for the block a after x, which no sweep of one word asks for.
    x, a = QUIVER.gen("x"), QUIVER.gen("a")
    one = novikov.one()
    table = {1: {("x",): HomElement.from_gen(x, one), ("a",): HomElement.from_gen(a, one)}}
    fold_table = {1: {("a",): table[1][("a",)]}}
    batch = [Word.from_gens([x, a]), Word.from_gens([x, x, x])]
    window = TruncWindow(6, levels.rat(3))

    def run(ws):
        f = Cofunctor("f", QUIVER, QUIVER, IDENTITY, table, "rat", "nov", complete_upto=2,
                      compute=RaisingCompute(0, 2, lambda u: False))
        fold = Cofunctor("fold", QUIVER, QUIVER, IDENTITY, fold_table, "rat", "nov")
        seen = set()
        record_lookups(cofunctor_slots(f), seen)
        return _transport(ws, cofunctor_slots(f), fold, window, one), seen

    values, seen = run(batch)
    singles = [run([w]) for w in batch]
    assert values == [value for (value,), _ in singles]
    assert seen == set().union(*(s for _, s in singles))
    assert ("f", Word("X", (a,))) not in seen


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
            assert row == tuple((id(g), g.gid, cl) for g, cl in terms), (owner, key)
            assert all(owner.gens[id(g)] is g for g, _ in terms)


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
        assert f.rows[("x",)] == tuple((id(g), g.gid, c) for g, c in f.comps[1][("x",)].terms)



# ---------------------------------------------------------------------------
# Chain sums that skip vanishing chains

ZERO_KINDS = ["exact", "bounded-at-n", "bounded-below-n", "lazy"]


def zero_single(kind: str, f: Cofunctor, g: Cofunctor, deg: int, n: int, salt: int) -> Coderivation:
    """A coderivation from f to g that stores no component, for words of x
    up to length n: an exact table, one extracted up to n or beyond (both
    decide every block of x), one extracted below n (its lookups of longer
    blocks raise) or a lazy one (its compute runs, may raise and may give a
    nonzero letter)."""
    if kind == "exact":
        return Coderivation("z", f, g, deg, R0, {})
    if kind == "bounded-at-n":
        return Coderivation("z", f, g, deg, R0, {}, complete_upto=n + salt % 2)
    if kind == "bounded-below-n":
        return Coderivation("z", f, g, deg, R0, {}, complete_upto=n - 1)
    hits = lambda w: _hash(salt + 9, w) % 5 == 0
    upto = None if salt % 2 else n - 1
    return Coderivation("z", f, g, deg, R0, {}, complete_upto=upto, compute=RaisingCompute(salt, 2, hits))


def decides(owner, n: int) -> bool:
    """Whether owner answers every block up to length n from its stored
    table, read from its raw fields."""
    if owner.complete_upto is not None:
        return owner.complete_upto >= n
    return owner.compute is None


def vanishes(chain, n: int) -> bool:
    """The skip, read from the raw fields: some single stores nothing and
    decides every block up to n, every owner decides every block up to n,
    and no family is curved at level <= 0."""
    families = [r.f for r in chain] + [chain[-1].g]
    flat = any(levels.level_leq(v.level("rat"), R0) for f in families for v in f.comps.get(0, {}).values())
    return (
        any(not r.comps and decides(r, n) for r in chain)
        and all(decides(owner, n) for owner in families + list(chain))
        and not flat
    )


def literal_chain_sum(x, signed_chains, window):
    """The signed sum of ``chain_eval`` over every chain, none skipped."""
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
    n = x.max_len()
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
        ops = chain_ops(signed_chains())
        return list(_in_order(lambda ws: chain_sum(ws, c, ops, window), words))

    def literal():
        chains = signed_chains()
        return [literal_chain_sum(TensorElement.from_word(w, c), chains, window) for w in words]

    got = outcome(batched, FacalcError)
    assert got == outcome(literal, FacalcError)

    for _, chain in signed_chains():
        # The skip bound is the literal skip at every length up to one past
        # the largest ``undecided`` of the chain's owners.
        (_, _, bound), = chain_ops([(1, chain)])
        owners = [r.f for r in chain] + [chain[-1].g] + list(chain)
        top = max((o.undecided for o in owners if o.undecided is not None), default=0)
        for m in range(top + 2):
            assert (m <= bound) == vanishes(chain, m), m
        if vanishes(chain, n):
            assert chain_eval(x, chain, window) == (TensorElement.zero(x.src, x.dst), Flag.SOUND)


@pytest.mark.parametrize("kinds", [("exact",), ("bounded-at-n",), ("exact", "bounded-at-n")])
def test_chain_sum_of_vanishing_chains_is_the_zero_element(kinds):
    a = QUIVER.gen("a")
    table = {1: {("a",): HomElement.from_gen(a, novikov.one())}}
    f = Cofunctor("f", QUIVER, QUIVER, IDENTITY, table, "rat", "nov")
    # g swaps the objects, h fixes them: the chains end on different objects.
    g = Cofunctor("g", QUIVER, QUIVER, {"X": "Y", "Y": "X"}, {}, "rat", "nov")
    h = Cofunctor("h", QUIVER, QUIVER, IDENTITY, {}, "rat", "nov")
    x = TensorElement.from_word(Word.from_gens([a, QUIVER.gen("b")]), novikov.one())
    window = TruncWindow(6, levels.rat(3))
    chains = [
        (sign, (zero_single(kind, f, end, 1, x.max_len(), 0),))
        for sign, kind, end in zip((-1, 1), kinds, (g, h))
    ]
    seen = set()
    record_lookups(((f, g, h), tuple(c for _, (c,) in chains)), seen)
    (w, one), = x.terms
    (value, flag), = chain_sum([w], one, chain_ops(chains), window)
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
    assert chain_ops([(1, (z,))])[0][2] == -1
    (w, one), = x.terms
    assert outcome(lambda: chain_sum([w], one, chain_ops([(1, (z,))]), window)) == ("raised", ConvergenceUndecided)
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
    got = outcome(lambda: chain_sum([w], one, chain_ops([(1, broken)]), window), FacalcError)
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
    (value, flag), = chain_sum([w], one, chain_ops(chains), window)
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

    got = message(lambda: chain_sum([w], novikov.one(), chain_ops([(1, (r,))]), window))
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
            assert QUIVER.words[tuple(id(g) for g in w.gens)] is w


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
            return chain_sum(ws, c, [(1, slots, -1)], window)
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


def grown(quiver: FiltQuiver, n: int, instance: str, cap, walked=0) -> _Trie:
    """The trie of ``Basis(quiver, n)`` with every node made: a fully lazy
    owner's blocks reach every node below a root."""
    trie = _Trie(Basis(quiver, n), instance, cap, walked)
    everything = Cofunctor("lazy", quiver, quiver, IDENTITY, {}, instance, "nov", compute=lambda w: None)
    for root in list(trie.roots):
        trie.blocks(everything, root)
    return trie


def node_word(trie: _Trie, q: int) -> Word:
    """The word of node q, built anew: its base level is summed from
    scratch."""
    gens = trie.gens[q]
    return Word(gens[0].src if gens else trie.obj[q], tuple(gens))


@seed(facalc_seed())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_trie_base_levels_are_the_words_base_levels(data):
    instance = data.draw(st.sampled_from(["rat", "ratplus", "discrete"]), label="instance")
    quiver = level_quiver(data, instance)
    batch = data.draw(st.lists(st.sampled_from(basis_words(quiver, 5)), min_size=1, max_size=12), label="words")
    n = data.draw(st.integers(0, 5), label="n")
    cap = lambda base: 0  # any cap makes the trie keep base levels
    listed, swept = _Trie(batch, instance, cap), grown(quiver, n, instance, cap)
    assert len(swept.kids) == len(basis_words(quiver, n))
    for trie in (listed, swept):
        for q in range(len(trie.kids)):
            fresh = node_word(trie, q)
            assert trie.base[q] == fresh.base_level(instance)
            assert trie.depth[q] == len(fresh) and trie.head[q] == fresh.sdeg and trie.obj[q] == fresh.dst
    assert all(swept.end(q)[0] == node_word(swept, q) for q in range(len(swept.kids)))
    assert {w for w, _ in listed.ends.values()} == set(batch)
    assert all(node_word(listed, q) == w for q, (w, _) in listed.ends.items())


@seed(facalc_seed())
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_basis_rooms_are_the_largest_caps_below(data):
    # A basis grown node by node bounds each node's room by the least base
    # level a word below it can have; that must be the room the list of
    # every basis word gives the same node, the largest cap below it, for
    # the live states and for the dead ones walked from ``walked`` letters.
    instance = data.draw(st.sampled_from(["rat", "ratplus", "discrete"]), label="instance")
    quiver = level_quiver(data, instance)
    n = data.draw(st.integers(0, 5), label="n")
    walked = data.draw(st.sampled_from([None, 0, 1, 2, 3, 6]), label="walked")
    if instance == "discrete":
        floor, cutoff = levels.discrete("inf"), levels.discrete("inf")
    else:
        floor = levels.make_level(instance, data.draw(st.sampled_from(["1/4", "1/2", "1"]), label="floor"))
        cutoff = levels.make_level(instance, data.draw(st.integers(0, 3), label="cutoff"))
    cap = lambda base: levels._steps(base, floor, cutoff)
    listed = _Trie(basis_words(quiver, n), instance, cap, walked)
    swept = grown(quiver, n, instance, cap, walked)
    nodes = {(node_word(listed, q).at, listed.gids[q]): q for q in range(len(listed.kids))}
    for q in range(len(swept.kids)):
        p = nodes[node_word(swept, q).at, swept.gids[q]]
        assert (swept.live[q], swept.dead[q]) == (listed.live[p], listed.dead[p])
        assert swept.end(q) == listed.ends[p]


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
    trie = _Trie(Basis(FiltQuiver("long", ["X", "Y"], gens), n), "rat", cap)
    assert [trie.live[q] for q in trie.roots] == [3 + n // 4, 3]
