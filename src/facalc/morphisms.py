"""Cofunctors and coderivations into completed tensor cocategories.

Both kinds of morphism are stored by their components: for each word length
k a sparse table sending basis words to single letters of the target quiver
(k = 0 components are indexed by source object and encode curvature-like
values on empty words).  Reconstruction of the full action follows the
component calculus:

* a cofunctor f acts by summing, over all splits of a word into k possibly
  empty blocks, the concatenation of the letters f_k(block);
* an (f,g)-coderivation r acts through exactly one r-letter: split into
  three zones, apply f on the left zone, one component of r in the middle,
  g on the right, and concatenate.

The engine evaluates chains of these, cofunctors on the even zones and one
component of each coderivation on the odd ones, as the pair ``(families,
singles)``: a tuple of cofunctors, one longer than the tuple of
coderivations (``Slots``, built by ``chain_slots``).

Rather than list every split, ``_path_sum`` sums over paths of cut
positions that only nonzero letters extend.  Family letters have degree 0,
so the Koszul sign is one factor per single (``_crossing_sign``).
From each cut it walks the trie of the owner's stored keys along the word
(``_block_ends``), so it reads only stored blocks, plus every block of a
length the table does not decide: lazy ``compute`` runs, and extraction
bounds raise, exactly where the split enumeration would run or raise them.
It reads each owner's letter table (``_ComponentTable``), which keeps only
returned rows, so every lookup with a side effect happens first where it
always did.  Each output word is built once and kept on the target quiver
(``FiltQuiver.words``), keyed by the ids of its generators, as the partial
sums are.  ``tensor_maps`` is this engine too: its graded maps are singles
with length-1 components, between families with no components.

``chain_sum`` takes every signed sum of coderivation chains, building each
chain's pair once; it skips a chain that provably vanishes without a side
effect (``_vanishes``).

Composition, push and pull are one operation: evaluate a basis word, then
read the value through a second morphism's components (``family_value``,
via ``_transport``).  When that morphism's table is exact, the path sum
drops every product whose output is not a prefix of one of its keys, since
the fold would send it to zero.  ``_extract_components`` turns any such
value map into a component table and the matching lazy ``compute``;
``ainfty`` and ``evalhom`` extract through it too.

All infinite sums are bounded by level accounting: every empty block filled
by a curvature component raises the level by at least the component's
minimal level, so sums are cut off soundly at the window's energy cutoff.
If curvature of level <= 0 is present the sum cannot be bounded and
ConvergenceUndecided is raised instead of silently truncating.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from . import levels, novikov, tcoalg
from .errors import (
    ConvergenceUndecided,
    DegreeMismatch,
    FacalcError,
    LevelViolation,
    ObjectMismatch,
)
from .filtquiver import FiltQuiver, GradedMap, HomElement, HomGenerator, _crossing_sign
from .levels import INFINITY, Frozen, Level
from .novikov import NovikovScalar
from .tcoalg import (
    Flag,
    TensorElement,
    TruncWindow,
    Word,
    basis_words,
    join_flags,
    truncate_element,
)

# Component tables: {k: {key: HomElement}} with key = tuple of generator ids
# for k >= 1 and the source object name for k = 0.
CompKey = Union[str, Tuple[str, ...]]
Components = Dict[int, Dict[CompKey, HomElement]]

_END = None  # the trie entry marking the end of a stored key

# A letter row: one (id(g), gid, coefficient) per term of a component.
Letter = Tuple[Tuple[int, str, NovikovScalar], ...]
# The partial sums at one path-sum state, keyed by output generator ids.
Partial = Dict[Tuple[int, ...], NovikovScalar]


def comp_key(w: Word) -> CompKey:
    return w.at if len(w) == 0 else tuple(g.gid for g in w.gens)


def normalize_components(comps: Components) -> Mapping[int, Mapping[CompKey, HomElement]]:
    """The nonzero entries of comps, as read-only tables: an owner's
    components never change after ``__init__``, which everything
    ``_ComponentTable`` derives from them relies on."""
    out = {}
    for k, table in comps.items():
        kept = {key: v for key, v in table.items() if not v.is_zero()}
        if kept:
            out[int(k)] = MappingProxyType(kept)
    return MappingProxyType(out)


def hom_truncate(h: HomElement, window: TruncWindow) -> HomElement:
    """Reduce a hom element modulo F^cutoff (termwise, hence canonical)."""
    kept = []
    for g, c in h.terms:
        threshold = levels.dominate(g.base_level, window.cutoff)
        kept.append((g, novikov.nov_truncate(c, threshold)))
    return HomElement(h.src, h.dst, kept)


def _validate_table(owner: Union[Cofunctor, Coderivation], lvl: Level) -> None:
    what = f"{owner.noun} {owner.name!r}"
    instance = owner.instance
    for k, table in owner.comps.items():
        for key, value in table.items():
            if value.is_zero():
                continue
            if k == 0:
                src = dst = key
                sdeg = 0
                base = levels.zero(instance)
            else:
                gens = [owner.src.gen(gid) for gid in key]
                w = Word.from_gens(gens)
                src, dst = w.src, w.dst
                sdeg = w.sdeg
                base = w.base_level(instance)
            want = (owner.src_map[src], owner.dst_map[dst])
            if (value.src, value.dst) != want:
                raise ObjectMismatch(
                    f"{what}: component at {key!r} lands in {(value.src, value.dst)}, expected {want}"
                )
            for d in value.degree_pieces():
                if d != sdeg + owner.deg:
                    raise DegreeMismatch(
                        f"{what}: component at {key!r} has degree {d}, expected {sdeg + owner.deg}"
                    )
            need = levels.level_add(base, lvl)
            if not levels.level_leq(need, value.level(instance)):
                raise LevelViolation(f"{what}: component at {key!r} violates level {need}")


def _comp_value(self, w: Word) -> HomElement:
    """The component of a cofunctor or coderivation at a basis word: the
    stored value; zero below ``undecided``; else the memoized lazy
    ``compute``, or an error past the bound of an extracted table."""
    key = comp_key(w)
    value = self.comps.get(len(w), {}).get(key)
    if value is not None:
        return value
    if self.undecided is None or len(w) < self.undecided:
        return HomElement.zero(self.src_map[w.src], self.dst_map[w.dst])
    if self.compute is None:
        raise FacalcError(
            f"{self.noun} {self.name!r}: component at length {len(w)} beyond extraction bound"
        )
    value = self.memo.get(key)
    if value is None:
        value = self.memo[key] = self.compute(w)
    return value


class _ComponentTable:
    """The component table of a cofunctor or coderivation, and everything
    read from it, set up once: ``comps`` is read-only from here on.

    ``undecided`` is the least block length the stored table does not
    decide: from there on the lazy ``compute`` runs or, without one, the
    extraction bound raises.  It is None for an exact table, which is zero
    off its keys, and 0 for a table with ``compute`` and no bound.

    The letter table is what ``_path_sum`` reads.  ``trie`` holds the
    stored keys of length >= 1 over generator ids, with ``_END`` where a
    key ends; ``ends`` keeps ``_block_ends`` of each gid suffix asked for.
    ``rows`` maps a block's ``comp_key`` to its letter row, filled from
    ``comp_value`` on the first lookup of that block, and ``gens`` maps the
    ids in the rows back to their generators.  Only returned values are
    kept, so a lookup that raises raises again.  ``memo`` holds the lazy
    ``compute`` values by ``comp_key``."""

    def __init__(
        self,
        name: str,
        comps: Components,
        complete_upto: Optional[int],
        compute: Optional[Callable[[Word], HomElement]],
    ):
        self.name = name
        self.comps = normalize_components(comps)
        self.complete_upto = complete_upto
        self.compute = compute
        if complete_upto is not None:
            self.undecided: Optional[int] = complete_upto + 1
        else:
            self.undecided = None if compute is None else 0
        self.trie: dict = {}
        for k, table in self.comps.items():
            for key in table if k else ():
                node = self.trie
                for gid in key:
                    node = node.setdefault(gid, {})
                node[_END] = True
        self.ends: Dict[Tuple[str, ...], List[int]] = {}
        self.rows: Dict[CompKey, Letter] = {}
        self.gens: Dict[int, HomGenerator] = {}
        self.memo: Dict[CompKey, HomElement] = {}


class Cofunctor(_ComponentTable):
    """A degree-0, level-0 morphism into a completed tensor cocategory.

    ``curvature`` holds its k = 0 components and ``curvature_level`` their
    least level, INFINITY when the cofunctor is strict."""

    deg = 0
    noun = "cofunctor"
    comp_value = _comp_value

    def __init__(
        self,
        name: str,
        src: FiltQuiver,
        dst: FiltQuiver,
        obj_map: Dict[str, str],
        comps: Components,
        instance: str,
        variant: str,
        convergence_bound: int = 16,
        complete_upto: Optional[int] = None,
        compute: Optional[Callable[[Word], HomElement]] = None,
    ):
        super().__init__(name, comps, complete_upto, compute)
        self.src = src
        self.dst = dst
        self.obj_map = dict(obj_map)
        self.instance = instance
        self.variant = variant
        self.convergence_bound = convergence_bound
        self.curvature: Mapping[CompKey, HomElement] = self.comps.get(0, {})
        self.curvature_level = INFINITY
        for v in self.curvature.values():
            self.curvature_level = levels.level_min(self.curvature_level, v.level(instance))

    @property
    def src_map(self) -> Dict[str, str]:
        return self.obj_map

    @property
    def dst_map(self) -> Dict[str, str]:
        return self.obj_map

    def __repr__(self) -> str:
        return f"Cofunctor({self.name!r}: {self.src.name}->{self.dst.name})"


class Coderivation(_ComponentTable):
    """An (f,g)-coderivation of a fixed degree and level, by components."""

    noun = "coderivation"
    comp_value = _comp_value

    def __init__(
        self,
        name: str,
        f: Cofunctor,
        g: Cofunctor,
        deg: int,
        lvl: Level,
        comps: Components,
        complete_upto: Optional[int] = None,
        compute: Optional[Callable[[Word], HomElement]] = None,
    ):
        if (f.src.name, f.dst.name) != (g.src.name, g.dst.name):
            raise ObjectMismatch("coderivation endpoints live between different quivers")
        super().__init__(name, comps, complete_upto, compute)
        self.f = f
        self.g = g
        self.deg = deg
        self.lvl = lvl
        self.instance = f.instance
        self.variant = f.variant

    @property
    def src(self) -> FiltQuiver:
        return self.f.src

    @property
    def dst(self) -> FiltQuiver:
        return self.f.dst

    @property
    def src_map(self) -> Dict[str, str]:
        return self.f.obj_map

    @property
    def dst_map(self) -> Dict[str, str]:
        return self.g.obj_map

    def is_zero_map(self, upto: Optional[int] = None) -> bool:
        """No stored component.  Given ``upto``, zero on every block up to
        that length: also no lazy ``compute`` or extraction bound there."""
        if any(self.comps.values()):
            return False
        return upto is None or self.undecided is None or self.undecided > upto

    def __repr__(self) -> str:
        return f"Coderivation({self.name!r}: {self.f.name}->{self.g.name}, deg {self.deg})"


def cofunctor_from_components(
    name: str,
    src: FiltQuiver,
    dst: FiltQuiver,
    obj_map: Dict[str, str],
    comps: Components,
    window: TruncWindow,
    variant: str,
    convergence_bound: int = 16,
    complete_upto: Optional[int] = None,
    compute: Optional[Callable[[Word], HomElement]] = None,
) -> Cofunctor:
    """Validate degree/level/object constraints and the curvature condition."""
    f = Cofunctor(
        name, src, dst, obj_map, comps, window.instance, variant, convergence_bound, complete_upto, compute
    )
    _validate_table(f, levels.zero(window.instance))
    if tensor_convergent(f.curvature, window, convergence_bound).kind != "true":
        raise ConvergenceUndecided(
            f"cofunctor {name!r}: curvature not tensor convergent within bound"
        )
    return f


def coderivation_from_components(
    name: str,
    f: Cofunctor,
    g: Cofunctor,
    deg: int,
    lvl: Level,
    comps: Components,
    complete_upto: Optional[int] = None,
    compute: Optional[Callable[[Word], HomElement]] = None,
) -> Coderivation:
    r = Coderivation(name, f, g, deg, lvl, comps, complete_upto, compute)
    _validate_table(r, lvl)
    return r


def identity_cofunctor(quiver: FiltQuiver, instance: str, variant: str) -> Cofunctor:
    comps: Components = {
        1: {
            (g.gid,): HomElement.from_gen(g, novikov.one(variant))
            for g in quiver.gens
        }
    }
    return Cofunctor(
        f"id_{quiver.name}", quiver, quiver, {x: x for x in quiver.objects}, comps, instance, variant
    )


# ---------------------------------------------------------------------------
# The block evaluation engine

Slots = Tuple[Tuple[Cofunctor, ...], Tuple[Coderivation, ...]]


def cofunctor_slots(f: Cofunctor) -> Slots:
    return (f,), ()


def coderivation_slots(r: Coderivation) -> Slots:
    return (r.f, r.g), (r,)


def _empty_cap(term_lvl: Level, floor: Level, cutoff: Level) -> int:
    """Smallest m with term_lvl + m*floor >= cutoff; drops are sound beyond."""
    if levels.level_leq(cutoff, term_lvl):
        return 0
    if floor.is_infinite():
        return 1
    if not levels.level_leq(levels.zero(floor.instance), floor) or floor.value == 0:
        raise ConvergenceUndecided("curvature of level <= 0: sum cannot be bounded")
    diff = cutoff.value - term_lvl.value
    return max(0, math.ceil(diff / floor.value))


def slot_value(
    x: TensorElement,
    slots: Slots,
    window: TruncWindow,
    length_truncate: bool = True,
    fold: Optional[Union[Cofunctor, Coderivation]] = None,
) -> Tuple[TensorElement, Flag]:
    """Apply the operator ``slots = (families, singles)`` to x.

    Each term of x is evaluated by ``_path_sum``; the terms of all of them
    are summed once, into a single ``TensorElement`` between the objects
    families[0] and families[-1] send x's ends to.  The least
    ``curvature_level`` of the families bounds the empty blocks.

    ``fold`` is for an untruncated value that is folded at once through
    that owner: terms that ``family_value(fold, ...)`` sends to zero may
    then be left out, so the returned element is not the operator's value.
    It cannot be combined with ``length_truncate``.
    """
    if fold is not None and length_truncate:
        raise ValueError("slot_value: fold needs length_truncate=False")
    inst = window.instance
    families, singles = slots
    floor = INFINITY
    for f in families:
        if f.curvature:
            floor = levels.level_min(floor, f.curvature_level)
    prefixes = fold.trie if fold is not None and fold.undecided is None else None

    terms: List[Tuple[Word, NovikovScalar]] = []
    for w, c in x.terms:
        cap = 0 if floor.is_infinite() else _empty_cap(tcoalg.term_level(w, c, inst), floor, window.cutoff)
        terms.extend(_path_sum(w, c, families, singles, cap, prefixes))
    out = TensorElement(families[0].obj_map[x.src], families[-1].obj_map[x.dst], terms)
    if length_truncate:
        return truncate_element(out, window)
    return out, Flag.SOUND


def _block_ends(owner: _ComponentTable, suffix: Tuple[str, ...]) -> List[int]:
    """The lengths d >= 1, ascending, of the prefixes suffix[:d] whose
    component the owner may not send to zero: the stored keys along the
    suffix, then every d from the first length the table does not
    decide."""
    ends = owner.ends.get(suffix)
    if ends is None:
        n = len(suffix)
        stop = n + 1 if owner.undecided is None else min(max(owner.undecided, 1), n + 1)
        ends = []
        node = owner.trie
        for d in range(1, stop):
            node = node.get(suffix[d - 1])
            if node is None:
                break
            if _END in node:
                ends.append(d)
        ends.extend(range(stop, n + 1))
        owner.ends[suffix] = ends
    return ends


def _path_sum(
    w: Word,
    c: NovikovScalar,
    families: Sequence[Cofunctor],
    singles: Sequence[Coderivation],
    cap: int,
    prefixes: Optional[dict] = None,
) -> List[Tuple[Word, NovikovScalar]]:
    """The terms of c times the value of the slots on the word w.

    A left-to-right sweep over states (i, t, e): cut position i, zone t (the
    number of singles used) and e family empty blocks used so far.
    Zone t reads letters of families[t] on blocks w[i:j], j > i, plus
    curvature letters on w[i:i] while e + 1 < cap; the next single
    reads w[i:j], j >= i, and crosses w[j:].  Every step goes to a
    lexicographically larger state, so one pass in that order completes
    each state before it is read.

    Letters are read from each owner's letter table, set up with the owner
    (``_ComponentTable``) and filled through ``comp_value`` on the first
    lookup of each block, so a lookup happens at most once per owner and
    block, and the first one where it always did.  Nonempty blocks are
    walked along the owner's key trie (``_block_ends``): only stored keys
    are looked up, and every block of a length the table does not decide,
    so lazy components are computed, and bound errors raised, exactly where
    the split enumeration would compute or raise them.  A state counts as reached as soon as a chain of nonzero
    letters arrives, even if its partial sums cancel or are all pruned.
    Partial sums are keyed by the ids of the output generators, which hash
    fast.  Given ``prefixes``, the key trie of an exact table the result is
    folded through, a product whose output gids are not a path of that trie
    is dropped: no key of the table extends it.
    """
    n = len(w)
    n_singles = len(singles)
    objs = [w.at] + [g.dst for g in w.gens]
    gids = tuple(g.gid for g in w.gens)
    tail = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        tail[i] = tail[i + 1] + w.gens[i].sdeg

    def letter(owner: _ComponentTable, i: int, j: int) -> Letter:
        key = gids[i:j] if j > i else objs[i]
        row = owner.rows.get(key)
        if row is None:
            terms = owner.comp_value(Word(objs[i], w.gens[i:j])).terms
            owner.gens.update((id(g), g) for g, _ in terms)
            row = owner.rows[key] = tuple((id(g), g.gid, cl) for g, cl in terms)
        return row

    states: Dict[Tuple[int, int, int], Partial] = {(0, 0, 0): {(): c}}
    nodes = None if prefixes is None else {(): prefixes}
    finals: List[Partial] = []

    def step(partial: Partial, target, value: Letter, sign: int = 1) -> None:
        if not value:
            return
        into = states.setdefault(target, {})
        for prefix, cp in partial.items():
            node = None if nodes is None else nodes[prefix]
            for gid, name, cl in value:
                key = prefix + (gid,)
                if node is not None:
                    child = node.get(name)
                    if child is None:
                        continue
                    nodes[key] = child
                term = novikov.nov_mul(cp, cl)
                if sign < 0:
                    term = novikov.nov_neg(term)
                into[key] = novikov.nov_add(into[key], term) if key in into else term

    empties = range(max(cap, 1))
    for i in range(n + 1):
        suffix = gids[i:]
        for t in range(n_singles + 1):
            family = families[t]
            for e in empties:
                partial = states.pop((i, t, e), None)
                if partial is None:
                    continue
                if i == n and t == n_singles:
                    finals.append(partial)
                for d in _block_ends(family, suffix):
                    step(partial, (i + d, t, e), letter(family, i, i + d))
                if e + 1 < cap and family.curvature:
                    step(partial, (i, t, e + 1), letter(family, i, i))
                if t < n_singles:
                    single = singles[t]
                    for d in (0, *_block_ends(single, suffix)):
                        j = i + d
                        sign = _crossing_sign(single.deg, tail[j])
                        step(partial, (j, t + 1, e), letter(single, i, j), sign)
    if not finals:
        return []
    words = families[0].dst.words
    gens: Dict[int, HomGenerator] = {}
    out = []
    for partial in finals:
        for key, cp in partial.items():
            word = words.get(key) if key else Word(families[0].obj_map[w.at])
            if word is None:
                if not gens:
                    for owner in (*families, *singles):
                        gens.update(owner.gens)
                word = words[key] = Word.from_gens([gens[g] for g in key])
            out.append((word, cp))
    return out


# ---------------------------------------------------------------------------
# Public evaluation operations

def evaluate_coderivation(r: Coderivation, x: TensorElement, window: TruncWindow) -> Tuple[TensorElement, Flag]:
    return slot_value(x, coderivation_slots(r), window)


def tensor_maps(maps: Sequence[GradedMap], x: TensorElement) -> TensorElement:
    """Apply f_1 (x) ... (x) f_n letterwise to words of length n: the engine
    on n singles, map j's action as length-1 components, over families with
    no components.  A ``GradedMap`` has no coefficient variant and
    ``_path_sum`` reads none, so the family's ``NOV`` is a placeholder."""
    if not maps:
        raise FacalcError("tensor_maps needs at least one map")
    m = maps[0]
    family = Cofunctor("letters", m.src_quiver, m.dst_quiver, m.obj_map, {}, m.instance, novikov.NOV)
    families = [family] * (len(maps) + 1)
    singles = []
    for j, f in enumerate(maps):
        comps = {1: {(gid,): value for gid, value in f.action.items()}}
        singles.append(Coderivation(f"map {j}", family, family, f.deg, f.lvl, comps))
    terms: List[Tuple[Word, NovikovScalar]] = []
    for w, c in x.terms:
        if len(w) != len(maps):
            raise ObjectMismatch(f"word length {len(w)} != {len(maps)} maps")
        terms.extend(_path_sum(w, c, families, singles, 0))
    return TensorElement(family.obj_map[x.src], family.obj_map[x.dst], terms)


def family_value(owner: Union[Cofunctor, Coderivation], x: TensorElement) -> HomElement:
    """Feed every word of x through the component of its own length: the
    one fold that reads a value through a morphism's components."""
    terms = [(g, novikov.nov_mul(cg, c)) for w, c in x.terms for g, cg in owner.comp_value(w).terms]
    return HomElement(owner.src_map[x.src], owner.dst_map[x.dst], terms)


def _transport(
    w: Word,
    slots: Slots,
    owner: Union[Cofunctor, Coderivation],
    window: TruncWindow,
    one: NovikovScalar,
) -> HomElement:
    """Evaluate the basis word w through slots, then fold the untruncated
    value through owner's components."""
    value, _ = slot_value(
        TensorElement.from_word(w, one), slots, window, length_truncate=False, fold=owner
    )
    return family_value(owner, value)


def _extract_components(
    value: Callable[[Word], HomElement],
    src_quiver: FiltQuiver,
    window: TruncWindow,
    max_len: Optional[int] = None,
) -> Tuple[Components, Callable[[Word], HomElement]]:
    """The components of a morphism from its value on each basis word of
    src_quiver up to max_len (default: the window length), in basis_words
    order, each reduced by hom_truncate once; zeros are dropped.  Also
    returns that truncated value map, the morphism's lazy ``compute``."""

    def compute(w: Word) -> HomElement:
        return hom_truncate(value(w), window)

    comps: Components = {}
    for w in basis_words(src_quiver, window.max_len if max_len is None else max_len):
        v = compute(w)
        if not v.is_zero():
            comps.setdefault(len(w), {})[comp_key(w)] = v
    return comps, compute


def compose_cofunctors(f: Cofunctor, g: Cofunctor, window: TruncWindow) -> Cofunctor:
    """Components of f then g: feed the full value of f through g's letters."""
    if f.dst.name != g.src.name:
        raise ObjectMismatch(f"cannot compose {f.name!r} with {g.name!r}")
    one = novikov.one(f.variant)
    comps, compute = _extract_components(
        lambda w: _transport(w, cofunctor_slots(f), g, window, one), f.src, window
    )
    h = Cofunctor(
        f"{f.name}*{g.name}",
        f.src,
        g.dst,
        {x: g.obj_map[y] for x, y in f.obj_map.items()},
        comps,
        window.instance,
        f.variant,
        convergence_bound=max(f.convergence_bound, g.convergence_bound),
        complete_upto=window.max_len,
        compute=compute,
    )
    if tensor_convergent(h.curvature, window, h.convergence_bound).kind != "true":
        raise ConvergenceUndecided(f"composite {h.name!r}: curvature not tensor convergent")
    return h


def push_coderivation(r: Coderivation, h: Cofunctor, window: TruncWindow) -> Coderivation:
    """The coderivation r pushed along h, between f.h and g.h."""
    if r.dst.name != h.src.name:
        raise ObjectMismatch("push: coderivation does not land in the source of h")
    one = novikov.one(r.variant)
    comps, compute = _extract_components(
        lambda w: _transport(w, coderivation_slots(r), h, window, one), r.src, window
    )
    return Coderivation(
        f"{r.name}*{h.name}",
        compose_cofunctors(r.f, h, window),
        compose_cofunctors(r.g, h, window),
        r.deg,
        r.lvl,
        comps,
        complete_upto=window.max_len,
        compute=compute,
    )


def pull_coderivation(e: Cofunctor, r: Coderivation, window: TruncWindow) -> Coderivation:
    """The coderivation r pulled back along e, between e.f and e.g."""
    if e.dst.name != r.src.name:
        raise ObjectMismatch("pull: cofunctor does not land in the source of r")
    one = novikov.one(e.variant)
    comps, compute = _extract_components(
        lambda w: _transport(w, cofunctor_slots(e), r, window, one), e.src, window
    )
    return Coderivation(
        f"{e.name}*{r.name}",
        compose_cofunctors(e, r.f, window),
        compose_cofunctors(e, r.g, window),
        r.deg,
        r.lvl,
        comps,
        complete_upto=window.max_len,
        compute=compute,
    )


def chain_slots(chain: Sequence[Coderivation], boundary: Optional[Cofunctor] = None) -> Slots:
    """The families r.f of a composable chain, then chain[-1].g, and the
    chain as singles; the boundary cofunctor alone for the empty chain."""
    if not chain:
        if boundary is None:
            raise FacalcError("empty chains need an explicit boundary cofunctor")
        return cofunctor_slots(boundary)
    for a, b in zip(chain, chain[1:]):
        if a.g.name != b.f.name:
            raise ObjectMismatch("coderivation chain is not composable")
    return (*(r.f for r in chain), chain[-1].g), tuple(chain)


def chain_eval(
    a: TensorElement,
    chain: Sequence[Coderivation],
    window: TruncWindow,
    boundary: Optional[Cofunctor] = None,
    length_truncate: bool = True,
) -> Tuple[TensorElement, Flag]:
    """Evaluate a chain of coderivations against a source element: split a
    into alternating zones, apply the endpoint cofunctors on even zones and
    one component of each chain entry on odd zones, then concatenate.  Pass
    length_truncate=False when the value feeds a further evaluation whose
    zone maps may shorten words again: truncating in between would lose
    contributions that belong inside the window."""
    return slot_value(a, chain_slots(chain, boundary), window, length_truncate=length_truncate)


def _vanishes(slots: Slots, n: int) -> bool:
    """True when ``slot_value`` of the operator is zero, SOUND and free of
    side effects on every element of words up to length n: some single is
    zero on every block up to n, every owner decides every block up to n
    (no lazy ``compute`` runs and no extraction bound raises), and no
    family is curved at level <= 0 (``_empty_cap`` cannot raise)."""
    families, singles = slots
    if not any(r.is_zero_map(n) for r in singles):
        return False
    for owner in (*families, *singles):
        if owner.undecided is not None and owner.undecided <= n:
            return False
    return not any(
        f.curvature and levels.level_leq(f.curvature_level, levels.zero(f.instance)) for f in families
    )


def chain_sum(
    x: TensorElement,
    signed_chains: Sequence[Tuple[int, Sequence[Coderivation]]],
    window: TruncWindow,
    boundary: Optional[Cofunctor] = None,
) -> Tuple[Optional[TensorElement], Flag]:
    """The sum of sign * chain_eval(x, chain) over the (sign, chain) pairs,
    with the join of their flags; None for an empty list.  ``boundary``
    serves the empty chain.  Every signed sum of chains is taken here.

    A chain whose operator provably vanishes on x (``_vanishes`` at
    ``x.max_len()``) is not evaluated: its value is the zero element on the
    endpoints ``slot_value`` would give it, flagged SOUND, and only the
    first chain's value is needed to stand for an all-zero sum.  The skip
    omits no lookup with a side effect: every owner of such a chain answers
    each block of x from its stored table, so the lookups it omits could
    only have read a stored letter or zero, never run a lazy ``compute``,
    raised at an extraction bound or raised ``ConvergenceUndecided`` in
    ``_empty_cap``."""
    if not signed_chains:
        return None, Flag.SOUND
    n = x.max_len()
    pieces = []
    flag = Flag.SOUND
    for sign, chain in signed_chains:
        slots = chain_slots(chain, boundary)
        if _vanishes(slots, n):
            if not pieces:
                families, _ = slots
                zero = TensorElement.zero(families[0].obj_map[x.src], families[-1].obj_map[x.dst])
                pieces.append((sign, zero))
            continue
        piece, fl = slot_value(x, slots, window)
        flag = join_flags(flag, fl)
        pieces.append((sign, piece))
    return tcoalg._signed_sum(pieces), flag


# ---------------------------------------------------------------------------
# Tensor convergence

class ConvergenceResult(Frozen):
    """What ``tensor_convergent`` found: ``kind`` "true" with the ``order``
    N, or "undecided" with none."""

    __slots__ = ("kind", "order")

    def __init__(self, kind: str, order: Optional[int] = None):
        self._set(kind, order)


def tensor_convergent(
    phi0: Dict[str, HomElement],
    window: TruncWindow,
    bound: int,
) -> ConvergenceResult:
    """Search for N <= bound with the N-th tensor power of every value in
    F^cutoff.  Exhausting the bound yields "undecided", with no order."""
    inst = window.instance
    worst: Optional[int] = None
    for obj, value in phi0.items():
        if value.is_zero():
            continue
        if value.src != value.dst:
            raise ObjectMismatch("curvature values must be endomorphism-like")
        power = TensorElement.from_hom(value)
        base = TensorElement.from_hom(value)
        found = None
        for n in range(1, bound + 1):
            if levels.level_leq(window.cutoff, power.level(inst)):
                found = n
                break
            power = tcoalg.mu_concat(power, base)
        if found is None:
            return ConvergenceResult("undecided")
        worst = found if worst is None else max(worst, found)
    return ConvergenceResult("true", worst or 1)


# ---------------------------------------------------------------------------
# Consistency checks

def leibniz_residual(
    r: Coderivation, w: Word, window: TruncWindow
) -> Dict[Tuple[Word, Word], NovikovScalar]:
    """Difference of r.Delta and Delta.(f (x) r + r (x) g) on a basis word.

    Zero (modulo the window) for every genuine coderivation.
    """
    one = novikov.one(r.variant)
    lhs_elem, _ = slot_value(TensorElement.from_word(w, one), coderivation_slots(r), window)
    lhs = tcoalg.cut_delta(lhs_elem)

    rhs: Dict[Tuple[Word, Word], NovikovScalar] = {}

    def accumulate(left: TensorElement, right: TensorElement, scale: NovikovScalar, sign: int):
        for w1, c1 in left.terms:
            for w2, c2 in right.terms:
                c = novikov.nov_mul(novikov.nov_mul(c1, c2), scale)
                if sign < 0:
                    c = novikov.nov_neg(c)
                key = (w1, w2)
                rhs[key] = novikov.nov_add(rhs[key], c) if key in rhs else c

    for (u, v), c in tcoalg.cut_delta(TensorElement.from_word(w, one)).items():
        fu, _ = slot_value(TensorElement.from_word(u, one), cofunctor_slots(r.f), window)
        rv, _ = slot_value(TensorElement.from_word(v, one), coderivation_slots(r), window)
        accumulate(fu, rv, c, 1)
        ru, _ = slot_value(TensorElement.from_word(u, one), coderivation_slots(r), window)
        gv, _ = slot_value(TensorElement.from_word(v, one), cofunctor_slots(r.g), window)
        # In r (x) g the r factor crosses the second block.
        sign = _crossing_sign(r.deg, v.sdeg)
        accumulate(ru, gv, c, sign)

    residual: Dict[Tuple[Word, Word], NovikovScalar] = dict(lhs)
    for key, c in rhs.items():
        residual[key] = novikov.nov_sub(residual[key], c) if key in residual else novikov.nov_neg(c)

    # Compare inside the window only: pairs of total length <= N, scalar
    # parts below the cutoff (both sides agree above it by construction).
    inst = window.instance
    out: Dict[Tuple[Word, Word], NovikovScalar] = {}
    for (w1, w2), c in residual.items():
        if len(w1) + len(w2) > window.max_len:
            continue
        base = levels.level_add(w1.base_level(inst), w2.base_level(inst))
        c = novikov.nov_truncate(c, levels.dominate(base, window.cutoff))
        if not c.is_zero():
            out[(w1, w2)] = c
    return out
