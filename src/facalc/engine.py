"""The block engine: the operator pair ``(families, singles)`` of
``morphisms`` on all the words of a call in one sweep.

Rather than list every split of each word, ``_path_sum`` sweeps the trie of
the words' prefixes (``_Trie``), node by node in depth order, over states
(node, zone, empty blocks used) that only nonzero letters reach.  A block
runs from a node to a node below it.  Each owner's letters are read along
the trie of its stored keys, plus every block of a length the table does
not decide.  A single steps with the sign of crossing the prefix it ends at
(``_crossing_sign``): times (-1)^(deg * S(w)), S(w) the word's shifted
degree, that is the sign of crossing the rest of the word, so a word's
terms are negated when S(w) times the singles' total degree is odd.  Each
word's cap on empty blocks comes from its node's base level before the
sweep, and a node's cap is the largest cap below it: a step into node q
needs e < max(cap(q), 1), a curvature step at node p needs e + 1 < cap(p),
and a word keeps its final states with e < max(its cap, 1).  Given the key
trie of an exact table the result is folded through, a product no key
extends is dropped, and a state left with no product is dead.  Its lookups
matter only to the words below it of a length some owner does not decide,
so it is created, and walked, only where such a word can hold it: by the
cap rules with the caps of those words alone.  So every lookup is one the
sweep of a single word below it makes, and a lazy ``compute`` runs, or an
extraction bound raises, only where the split enumeration of some word
would.  Each output word is built once and kept on the target quiver
(``FiltQuiver.words``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import levels, novikov
from .filtquiver import HomGenerator, _crossing_sign
from .levels import Level
from .novikov import NovikovScalar
from .tcoalg import Word

if TYPE_CHECKING:
    from .morphisms import Coderivation, Cofunctor, CompKey, _ComponentTable

_END = None  # the trie entry marking the end of a stored key

# A letter row: one (id(g), gid, coefficient) per term of a component.
Letter = Tuple[Tuple[int, str, NovikovScalar], ...]
# The partial sums at one path-sum state, keyed by output generator ids.
Partial = Dict[Tuple[int, ...], NovikovScalar]


class _Trie:
    """The trie of the prefixes of a list of words, which ``_path_sum``
    sweeps.  Node q is a prefix: ``kids[q]`` maps a gid to the prefix one
    letter longer, ``parent[q]`` is the prefix one letter shorter (None for
    the empty prefix at an object), ``depth[q]`` its length, ``ref[q]`` a
    word through it, ``obj[q]`` the object it ends at, ``head[q]`` its
    shifted degree and, given an instance, ``base[q]`` its base level: the
    parent's plus one ``level_add``.  ``roots`` lists the empty prefixes,
    ``node_of[k]`` is the node of words[k] and ``members[q]`` the k with
    node q; ``order`` lists the nodes by depth.  ``found`` keeps the
    ``blocks`` asked for."""

    def __init__(self, words: Sequence[Word], instance: Optional[str] = None):
        self.kids, self.parent, self.depth, self.ref, self.obj, self.head, self.base = ([] for _ in range(7))
        self.instance, self.roots = instance, []
        self.index: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self.found: Dict[Tuple[_ComponentTable, int], List[Tuple[int, CompKey]]] = {}
        self.node_of = [self._node(w, len(w)) for w in words]
        self.members: Dict[int, List[int]] = {}
        for k, q in enumerate(self.node_of):
            self.members.setdefault(q, []).append(k)
        self.order = sorted(range(len(self.kids)), key=self.depth.__getitem__)

    def _node(self, w: Word, d: int) -> int:
        """The node of w's prefix of length d, made, with its own prefixes,
        when it is new."""
        key = (w.at, w._gids[:d])
        q = self.index.get(key)
        if q is None:
            if d:
                p, g = self._node(w, d - 1), w.gens[d - 1]
                base = self.instance and levels.level_add(self.base[p], g.base_level)
                row = (p, d, w, g.dst, self.head[p] + g.sdeg, base)
            else:
                self.roots.append(len(self.kids))
                row = (None, 0, w, w.at, 0, self.instance and levels.zero(self.instance))
            q = self.index[key] = len(self.kids)
            columns = (self.kids, self.parent, self.depth, self.ref, self.obj, self.head, self.base)
            for column, value in zip(columns, ({}, *row)):
                column.append(value)
            if d:
                self.kids[p][g.gid] = q
        return q

    def largest(self, values: Sequence[int]) -> List[int]:
        """The largest values[k] of the words k at or below each node, or -1."""
        out = [-1] * len(self.kids)
        for k, q in enumerate(self.node_of):
            out[q] = max(out[q], values[k])
        for q in reversed(self.order):
            if self.parent[q] is not None:
                out[self.parent[q]] = max(out[self.parent[q]], out[q])
        return out

    def blocks(self, owner: _ComponentTable, p: int) -> List[Tuple[int, CompKey]]:
        """The nodes q below p, each with the ``comp_key`` of the block from
        p to q, whose component the owner may not send to zero: its stored
        keys along the trie, and every q from the first length the table
        does not decide on."""
        out = self.found.get((owner, p))
        if out is not None:
            return out
        lazy = None if owner.undecided is None else max(owner.undecided, 1)
        start = self.depth[p]
        out = self.found[owner, p] = []
        todo = [(p, owner.trie)]
        while todo:
            node, keys = todo.pop()
            for gid, q in self.kids[node].items():
                sub = None if keys is None else keys.get(gid)
                end = self.depth[q]
                if (sub is not None and _END in sub) or (lazy is not None and end - start >= lazy):
                    out.append((q, self.ref[q]._gids[start:end]))
                if sub is not None or lazy is not None:
                    todo.append((q, sub))
        return out


def _path_sum(
    words: Sequence[Word], c: NovikovScalar, families: Sequence[Cofunctor], singles: Sequence[Coderivation],
    cap: Optional[Callable[[Level], int]] = None, prefixes: Optional[dict] = None,
) -> Iterator[Tuple[int, List[Tuple[Word, NovikovScalar]]]]:
    """Yield (k, the terms of c times the value of the slots on words[k])
    for every k, as soon as the sweep has passed words[k].  ``cap`` maps a
    word's base level to its cap, 0 without it; ``prefixes`` is the key trie
    of an exact table the result is folded through.  A state (q, t, e) has
    zone t (the number of singles used) and e family empty blocks, and each
    step goes to a deeper node or to a larger (t, e) at the same node, so
    one pass completes each state before it is read.  A state counts as
    reached as soon as a chain of nonzero letters arrives, even if its
    partial sums cancel or are all pruned."""
    n_singles = len(singles)
    trie = _Trie(words, None if cap is None else families[0].instance)
    caps = [0 if cap is None else cap(trie.base[q]) for q in trie.node_of]
    owners = (*families, *singles)
    least = min((o.undecided for o in owners if o.undecided is not None), default=None)
    # The largest cap at or below each node: of every word (live), and of
    # the words whose dead states are walked (dead).
    live = trie.largest(caps)
    walked = [m if least is not None and len(w) >= least else -1 for m, w in zip(caps, words)]
    dead = live if prefixes is None else trie.largest(walked)
    live_room = [max(m, 1) for m in live]
    dead_room = [max(m, 1) if m >= 0 else 0 for m in dead]

    states: Dict[int, Dict[Tuple[int, int], Partial]] = {q: {(0, 0): {(): c}} for q in trie.roots}
    nodes = None if prefixes is None else {(): prefixes}
    odd = sum(r.deg for r in singles) % 2

    def letter(owner: _ComponentTable, key: CompKey, p: int, q: int) -> Letter:
        row = owner.rows.get(key)
        if row is None:
            gens = trie.ref[q].gens[trie.depth[p]:trie.depth[q]]
            terms = owner.comp_value(Word(trie.obj[p], gens)).terms
            owner.gens.update((id(g), g) for g, _ in terms)
            row = owner.rows[key] = tuple((id(g), g.gid, cl) for g, cl in terms)
        return row

    def step(partial: Partial, q: int, t: int, e: int, value: Letter, sign: int = 1) -> None:
        if not value:
            return
        # Where no dead state can matter, the state is created on its first
        # surviving product.
        into = states.setdefault(q, {}).setdefault((t, e), {}) if e < dead_room[q] else None
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
                if into is None:
                    into = states.setdefault(q, {}).setdefault((t, e), {})
                into[key] = novikov.nov_add(into[key], term) if key in into else term

    words_out = families[0].dst.words
    gens: Dict[int, HomGenerator] = {}
    for p in trie.order:
        at_p = states.get(p)
        finals: List[Tuple[int, Partial]] = []
        if at_p is not None:
            obj = trie.obj[p]
            for t in range(n_singles + 1):
                family = families[t]
                for e in range(live_room[p]):
                    partial = at_p.pop((t, e), None)
                    if partial:
                        room, curvature = live_room, live[p]
                    elif partial is not None and e < dead_room[p]:
                        room, curvature = dead_room, dead[p]
                    else:
                        continue
                    if t == n_singles:
                        finals.append((e, partial))
                    for q, key in trie.blocks(family, p):
                        if e < room[q]:
                            step(partial, q, t, e, letter(family, key, p, q))
                    if e + 1 < curvature and family.curvature:
                        step(partial, p, t, e + 1, letter(family, obj, p, p))
                    if t < n_singles:
                        single = singles[t]
                        for q, key in ((p, obj), *trie.blocks(single, p)):
                            if e < room[q]:
                                sign = _crossing_sign(single.deg, trie.head[q])
                                step(partial, q, t + 1, e, letter(single, key, p, q), sign)
            del states[p]
        for k in trie.members.get(p, ()):
            negate = odd and trie.head[p] % 2
            out = []
            for partial in [partial for e, partial in finals if e < max(caps[k], 1)]:
                for key, cp in partial.items():
                    word = words_out.get(key) if key else Word(families[0].obj_map[words[k].at])
                    if word is None:
                        for owner in owners:
                            gens.update(owner.gens)
                        word = words_out[key] = Word.from_gens([gens[g] for g in key])
                    out.append((word, novikov.nov_neg(cp) if negate else cp))
            yield k, out
