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

The block engine (``engine._path_sum``) evaluates chains of these on all
the words of a call in one sweep: cofunctors on the even zones and one
component of each coderivation on the odd ones, as the pair ``(families,
singles)``, a tuple of cofunctors one longer than the tuple of
coderivations (``Slots``, built by ``chain_slots``).  ``slot_value``,
``tensor_maps`` and ``chain_sum``, every signed sum of chains, run on it;
``chain_sum`` skips a chain on the words no longer than its skip bound
(``chain_ops``), where it provably vanishes without a side effect, and
sums the chains into one accumulation per word.
Composition, push and pull are one sweep too (``_transport``): each word's
path sum, pruned by the key trie of an exact second morphism, is summed by
word and folded through that morphism's components (``_fold``).
``_extract_components`` turns a batch of values into a component table and
its lazy ``compute``; ``ainfty`` and ``evalhom`` extract through it too.  A
batch that raises is run again one word at a time (``_in_order``), so each
error lands on its own word.

All infinite sums are bounded by level accounting: every empty block filled
by a curvature component raises the level by at least the component's
minimal level, so sums are cut off soundly at the window's energy cutoff.
If curvature of level <= 0 is present the sum cannot be bounded and
ConvergenceUndecided is raised instead of silently truncating.  The cap on
empty blocks (``_empty_caps``) and the order of tensor convergence
(``tensor_convergent``) are the same count, ``levels._steps``, and every
reduction modulo the cutoff is ``novikov.nov_truncate`` by the bound
``levels.dominate`` gives (``tcoalg._mod_cutoff`` for one term,
``tcoalg._window_terms`` with one bound per output word).
"""

from __future__ import annotations

import math
from functools import reduce
from types import MappingProxyType
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from . import levels, novikov, tcoalg
from .errors import ConvergenceUndecided, FacalcError, ObjectMismatch
from .filtquiver import FiltQuiver, GradedMap, HomElement, HomGenerator, _check_member, _crossing_sign
from .levels import INFINITY, Frozen, Level
from .engine import _END, Basis, Letter, _path_sum
from .novikov import NovikovScalar
from .tcoalg import (
    Flag,
    TensorElement,
    TruncWindow,
    Word,
    basis_words,
    truncate_element,
)

# Component tables: {k: {key: HomElement}} with key = tuple of generator ids
# for k >= 1 and the source object name for k = 0.
CompKey = Union[str, Tuple[str, ...]]
Components = Dict[int, Dict[CompKey, HomElement]]



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
    """Reduce a hom element modulo F^cutoff (termwise, hence canonical);
    h itself when nothing drops."""
    kept = [(g, tcoalg._mod_cutoff(c, g.base_level, window.cutoff)) for g, c in h.terms]
    if all(c is k for (_, c), (_, k) in zip(h.terms, kept)):
        return h
    return HomElement(h.src, h.dst, kept)


def _validate_table(owner: Union[Cofunctor, Coderivation], lvl: Level) -> None:
    instance = owner.instance
    for k, table in owner.comps.items():
        for key, value in table.items():
            w = Word.from_gens([owner.src.gen(gid) for gid in key]) if k else Word(key)
            want = (owner.src_map[w.src], owner.dst_map[w.dst])
            need = levels.level_add(w.base_level(instance), lvl)
            _check_member(
                value, want, w.sdeg + owner.deg, need, instance,
                lambda: f"{owner.noun} {owner.name!r}: component at {key!r}",
            )


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
    key ends.  ``rows`` maps a block's ``comp_key`` to its letter row,
    filled from ``comp_value`` on the first lookup of that block, and
    ``gens`` maps the ids in the rows back to their generators.  Only
    returned values are kept, so a lookup that raises raises again.
    ``memo`` holds the lazy ``compute`` values by ``comp_key``."""

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
        self.obj_map = self.src_map = self.dst_map = dict(obj_map)
        self.instance = instance
        self.variant = variant
        self.convergence_bound = convergence_bound
        self.curvature: Mapping[CompKey, HomElement] = self.comps.get(0, {})
        self.curvature_level = INFINITY
        for v in self.curvature.values():
            self.curvature_level = levels.level_min(self.curvature_level, v.level(instance))

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
        self.src, self.dst, self.src_map, self.dst_map = f.src, f.dst, f.obj_map, g.obj_map

    def is_zero_map(self, upto: Optional[int] = None) -> bool:
        """No stored component; given ``upto``, also no lookup of a block up
        to that length runs ``compute`` or raises, so it is zero there."""
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
    comps: Components = {1: {(g.gid,): HomElement.from_gen(g, novikov.one(variant)) for g in quiver.gens}}
    objs = {x: x for x in quiver.objects}
    return Cofunctor(f"id_{quiver.name}", quiver, quiver, objs, comps, instance, variant)


# ---------------------------------------------------------------------------
# The block evaluation engine

Slots = Tuple[Tuple[Cofunctor, ...], Tuple[Coderivation, ...]]


def cofunctor_slots(f: Cofunctor) -> Slots:
    return (f,), ()


def coderivation_slots(r: Coderivation) -> Slots:
    return (r.f, r.g), (r,)


def _empty_caps(families: Sequence[Cofunctor], window: TruncWindow, c: NovikovScalar) -> Optional[Callable]:
    """The cap on the empty blocks of c times a word, by the word's base
    level: ``levels._steps`` from the term's level by the families' least
    ``curvature_level``; None with no curvature."""
    floor = reduce(levels.level_min, (f.curvature_level for f in families if f.curvature), INFINITY)
    if floor.is_infinite():
        return None
    energy = novikov.nov_level(c, window.instance)

    def cap(base: Level) -> int:
        m = levels._steps(levels.level_add(base, energy), floor, window.cutoff)
        if m is None:
            raise ConvergenceUndecided("curvature of level <= 0: sum cannot be bounded")
        return m

    return cap


def _in_order(values: Callable[[Sequence], list], items: Sequence) -> Iterator:
    """The list ``values(items)`` as an iterator; if that batch raises a
    FacalcError, the items one at a time, so the error is raised at the
    first item that raises on its own, after the values before it."""
    try:
        return iter(values(items))
    except FacalcError:
        return (values([item])[0] for item in items)


def slot_value(
    x: TensorElement, slots: Slots, window: TruncWindow, length_truncate: bool = True
) -> Tuple[TensorElement, Flag]:
    """Apply the operator ``slots = (families, singles)`` to x: the terms
    of all of x's path sums (``_term_values``), summed once into a single
    ``TensorElement`` between the objects families[0] and families[-1] send
    x's ends to."""
    families, singles = slots
    parts = _in_order(lambda terms: _term_values(terms, families, singles, window), x.terms)
    terms = [t for part in parts for t in part]
    out = TensorElement(families[0].obj_map[x.src], families[-1].obj_map[x.dst], terms)
    if length_truncate:
        return truncate_element(out, window)
    return out, Flag.SOUND


def _term_values(terms, families, singles, window: Optional[TruncWindow]) -> list:
    """The path-sum terms of each (w, c) of terms, in order: one sweep per
    coefficient, with the window's caps on empty blocks given one."""
    out: list = [None] * len(terms)
    groups: Dict[NovikovScalar, List[int]] = {}
    for k, (_, c) in enumerate(terms):
        groups.setdefault(c, []).append(k)
    for c, ks in groups.items():
        cap = None if window is None else _empty_caps(families, window, c)
        parts = dict(_path_sum([terms[k][0] for k in ks], c, families, singles, cap))
        for k in ks:
            out[k] = parts.get(terms[k][0], ())
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
    for w, _ in x.terms:
        if len(w) != len(maps):
            raise ObjectMismatch(f"word length {len(w)} != {len(maps)} maps")
    parts = _term_values(x.terms, families, singles, None)
    return TensorElement(family.obj_map[x.src], family.obj_map[x.dst], [t for part in parts for t in part])


def family_value(owner: Union[Cofunctor, Coderivation], x: TensorElement) -> HomElement:
    """``_fold`` of the terms of x."""
    return _fold(owner, x.src, x.dst, x.terms)


def _fold(owner: Union[Cofunctor, Coderivation], src: str, dst: str, terms) -> HomElement:
    """Feed every word of terms, a value from src to dst, through the
    component of its own length: the one fold that reads a value through a
    morphism's components."""
    terms = [(g, novikov.nov_mul(cg, c)) for w, c in terms for g, cg in owner.comp_value(w).terms]
    return HomElement(owner.src_map[src], owner.dst_map[dst], terms)


def _transport(
    words: Union[Sequence[Word], Basis], slots: Slots, owner: _ComponentTable, window: TruncWindow,
    c: NovikovScalar,
) -> Union[List[HomElement], Dict[Word, HomElement]]:
    """c times each word through slots, folded untruncated through owner's
    components, in one sweep: each word's path sum, pruned by an exact
    owner's key trie, is summed by word as soon as the sweep yields it, and
    only words of nonzero sum are folded, as in a value.  For a list of
    words, the list of their values; for a ``Basis``, the values of the
    words of nonzero sum by word, every other basis word's value being
    zero."""
    families, singles = slots
    prefixes = owner.trie if owner.undecided is None else None
    src, dst = families[0].obj_map, families[-1].obj_map
    out: Dict[Word, HomElement] = {}
    for w, terms in _path_sum(words, c, families, singles, _empty_caps(families, window, c), prefixes):
        summed: Dict[Word, NovikovScalar] = {}
        for u, cu in terms:
            summed[u] = novikov.nov_add(summed[u], cu) if u in summed else cu
        kept = [(u, cu) for u, cu in summed.items() if not cu.is_zero()]
        if kept:
            out[w] = _fold(owner, src[w.src], dst[w.dst], kept)
    if isinstance(words, Basis):
        return out
    return [out[w] if w in out else _fold(owner, src[w.src], dst[w.dst], ()) for w in words]


def _extract_components(
    values: Callable, src_quiver: FiltQuiver, window: TruncWindow, max_len: Optional[int] = None,
) -> Tuple[Components, Callable[[Word], HomElement]]:
    """The components of a morphism from its values on the basis words of
    src_quiver up to max_len (default: the window length), each reduced by
    hom_truncate once; zeros are dropped.  ``values`` maps a list of words
    to their values and a ``Basis`` to the values of the words it does not
    send to zero, by word: the basis is taken in one sweep, and only the
    words it reaches are stored.  If that sweep raises a FacalcError, the
    basis words run one at a time, as in ``_in_order``.  Also returns the
    truncated value on one word, the morphism's lazy ``compute``."""

    def compute(w: Word) -> HomElement:
        return hom_truncate(values([w])[0], window)

    comps: Components = {}
    n = window.max_len if max_len is None else max_len
    try:
        reached = values(Basis(src_quiver, n)).items()
    except FacalcError:
        reached = ((w, values([w])[0]) for w in basis_words(src_quiver, n))
    for w, v in reached:
        v = hom_truncate(v, window)
        if not v.is_zero():
            comps.setdefault(len(w), {})[comp_key(w)] = v
    return comps, compute


def _transported(slots: Slots, owner: Union[Cofunctor, Coderivation], window: TruncWindow):
    """The components, on the source quiver, of the value of slots folded
    through owner, with the matching lazy ``compute``."""
    first = slots[0][0]
    one = novikov.one(first.variant)
    return _extract_components(lambda words: _transport(words, slots, owner, window, one), first.src, window)


def compose_cofunctors(f: Cofunctor, g: Cofunctor, window: TruncWindow) -> Cofunctor:
    """Components of f then g: feed the full value of f through g's letters."""
    if f.dst.name != g.src.name:
        raise ObjectMismatch(f"cannot compose {f.name!r} with {g.name!r}")
    comps, compute = _transported(cofunctor_slots(f), g, window)
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
    comps, compute = _transported(coderivation_slots(r), h, window)
    f, g = compose_cofunctors(r.f, h, window), compose_cofunctors(r.g, h, window)
    return Coderivation(f"{r.name}*{h.name}", f, g, r.deg, r.lvl, comps, window.max_len, compute)


def pull_coderivation(e: Cofunctor, r: Coderivation, window: TruncWindow) -> Coderivation:
    """The coderivation r pulled back along e, between e.f and e.g."""
    if e.dst.name != r.src.name:
        raise ObjectMismatch("pull: cofunctor does not land in the source of r")
    comps, compute = _transported(cofunctor_slots(e), r, window)
    f, g = compose_cofunctors(e, r.f, window), compose_cofunctors(e, r.g, window)
    return Coderivation(f"{e.name}*{r.name}", f, g, r.deg, r.lvl, comps, window.max_len, compute)


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


def chain_ops(
    signed_chains: Sequence[Tuple[int, Sequence[Coderivation]]], boundary: Optional[Cofunctor] = None
) -> List[Tuple[int, Slots, float]]:
    """Each (sign, chain) as (sign, its pair, its skip bound), built once
    where the chain list is; ``boundary`` serves the empty chain.  The skip
    bound is the largest n (-1 for none) such that ``slot_value`` of the
    pair is zero, SOUND and free of side effects on words up to length n:
    some single stores no component, every owner decides every block up to
    n (``undecided`` is None or above n), and no family is curved at level <= 0 (``_empty_caps`` cannot
    raise)."""
    out = []
    for sign, chain in signed_chains:
        families, singles = slots = chain_slots(chain, boundary)
        flat = (f.curvature and levels.level_leq(f.curvature_level, levels.zero(f.instance)) for f in families)
        undecided = [o.undecided - 1 for o in (*families, *singles) if o.undecided is not None]
        skip = not any(flat) and any(r.is_zero_map() for r in singles)
        out.append((sign, slots, min(undecided, default=math.inf) if skip else -1))
    return out


def chain_sum(
    words: Sequence[Word], c: NovikovScalar, ops: Sequence[Tuple[int, Slots, float]], window: TruncWindow
) -> List[Tuple[Optional[TensorElement], Flag]]:
    """For each word w, the sum of sign * chain_eval(c*w, chain) over the
    ``chain_ops``, with the join of their flags, or None for no chain: each
    chain in one sweep over the words longer than its bound.  A chain's
    terms on w are merged per output word, reduced and cut to the window
    with that chain's own flag, as ``truncate_element`` would (one bound
    per output word for the whole call), and added, signed, into w's one
    accumulation; one ``TensorElement`` per word is built at the end, on the
    endpoints of the first chain that kept a term, else of the first chain.
    A skipped chain adds nothing: no owner there can run a lazy ``compute``
    or raise, so the skip omits no side effect."""
    if not ops:
        return [(None, Flag.SOUND)] * len(words)
    sums: List[Dict[Word, NovikovScalar]] = [{} for _ in words]
    ends: List[Optional[Tuple[str, str]]] = [None] * len(words)
    flags = [Flag.SOUND] * len(words)
    bounds: Dict[Word, Level] = {}
    lengths = [len(w) for w in words]
    for sign, (families, singles), bound in ops:
        src, dst = families[0].obj_map, families[-1].obj_map
        live = [k for k, n in enumerate(lengths) if n > bound]
        for k, terms in zip(live, _term_values([(words[k], c) for k in live], families, singles, window)):
            end = src[words[k].src], dst[words[k].dst]
            merged: Dict[Word, NovikovScalar] = {}
            for u, cu in terms:
                if (u.src, u.dst) != end:
                    raise ObjectMismatch(f"word {u!r} does not run {end[0]!r} -> {end[1]!r}")
                merged[u] = novikov.nov_add(merged[u], cu) if u in merged else cu
            kept, flag = tcoalg._window_terms(merged.items(), window, bounds)
            flags[k] = max(flags[k], flag)
            if kept:
                ends[k] = ends[k] or end
                acc = sums[k]
                for u, cu in kept:
                    cu = cu if sign == 1 else novikov.nov_neg(cu)
                    acc[u] = novikov.nov_add(acc[u], cu) if u in acc else cu
    first = ops[0][1][0]
    return [
        (TensorElement(*(end or (first[0].obj_map[w.src], first[-1].obj_map[w.dst])), acc.items()), flag)
        for w, end, acc, flag in zip(words, ends, sums, flags)
    ]


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
    """Find, for every value, the least N <= bound with its N-th tensor
    power in F^cutoff; "true" with the largest such N, or "undecided", with
    no order, when some value has none.

    The power of a value of level l has level exactly N*l, so N is read
    off in closed form.  Every term of a value is a generator X -> X, so
    each word of N generators occurs once in the power, with the product of
    its N coefficients.  The lowest-energy part of that product is the
    product of their lowest-energy parts, which is nonzero since Q[e, 1/e]
    has no zero divisors; so the term's level is the sum of the N terms'
    levels, and the least of these sums is N*l."""
    inst = window.instance
    worst = 1
    for value in phi0.values():
        if value.is_zero():
            continue
        if value.src != value.dst:
            raise ObjectMismatch("curvature values must be endomorphism-like")
        lvl = value.level(inst)
        steps = levels._steps(lvl, lvl, window.cutoff)
        if steps is None or steps >= bound:
            return ConvergenceResult("undecided")
        worst = max(worst, steps + 1)
    return ConvergenceResult("true", worst)


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
        c = tcoalg._mod_cutoff(c, base, window.cutoff)
        if not c.is_zero():
            out[(w1, w2)] = c
    return out
