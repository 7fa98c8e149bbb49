"""The block engine: the operator pair ``(families, singles)`` of
``morphisms`` on all the words of a call in one sweep.

The words of a call are a list, or every basis word of a quiver up to a
length (``Basis``).  Rather than list every split of each word,
``_path_sum`` sweeps a trie of their prefixes (``_Trie``), depth by depth,
over states (node, zone, empty blocks used) that only nonzero letters reach.
The trie grows with the sweep: a node's children are made only when a state
sits at the node, from the generators out of its object up to the basis
length, or along the listed words' prefixes.  A block runs from a node to a
node below it.  Each owner's letters are read along the trie of its stored
keys, so an exact owner's steps make only the nodes on its keys, plus every
block of a length the table does not decide.  A word the sweep never reaches
is zero and SOUND, and it made no lookup.  A single steps with the sign of
crossing the prefix it ends at (``_crossing_sign``): times (-1)^(deg * S(w)),
S(w) the word's shifted degree, that is the sign of crossing the rest of the
word, so a word's terms are negated when S(w) times the singles' total
degree is odd.  A word's room on empty blocks is max(its cap, 1), and a
node's room is the room of the least base level a word below it can have,
which is the largest room of the words below it: of a basis, the node's base
level plus the least base level of a path of at most the remaining length
(``_Trie._least``; on ``ratplus`` and ``discrete``, and whenever no
generator is of negative level, the node's own), and of a list, the largest
room of the listed words below.  A step into node q needs e < room(q), a
curvature step at node p needs e + 1 < room(p), and each word keeps its
final states with e < its own room.  Given the key trie of an exact table
the result is folded through, a product no key extends is dropped, and a
state left with no product is dead.  Its lookups matter only to the words
below it of a length some owner does not decide, so it is created, and
walked, only where such a word can hold it: by the same rules with the
rooms of those words alone.  So every lookup is one the sweep of a single
word below it makes, and a lazy ``compute`` runs, or an extraction bound
raises, only where the split enumeration of some word would.  Each output
word is built once and kept on the target quiver (``FiltQuiver.words``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import levels, novikov
from .filtquiver import FiltQuiver, HomGenerator, _crossing_sign
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


class Basis(NamedTuple):
    """Every basis word of ``quiver`` up to ``max_len`` letters, as the words
    of a sweep that yields only the ones it reaches."""

    quiver: FiltQuiver
    max_len: int


class _Trie:
    """The trie of the word prefixes a sweep reaches.  Node q is a prefix:
    ``kids[q]`` maps a gid to the prefix one letter longer, made on demand
    (``blocks``) along the generators ``allowed[q]`` lists, ``parent[q]`` is
    the prefix one letter shorter (None for the empty prefix at an object),
    ``depth[q]`` its length, ``gens[q]`` and ``gids[q]`` its generators and
    their ids, ``obj[q]`` the object it ends at, ``head[q]`` its shifted
    degree and, given a cap, ``base[q]`` its base level: the parent's plus
    one ``level_add``.  ``roots`` lists the empty prefixes and ``height`` is
    the longest word.  Of a list of words, every prefix is made at once, a
    node's children are the listed words' prefixes, and ``ends[q]`` is the
    word at q with its cap; of a ``Basis``, a node's children are the
    generators out of its object, up to ``height``, and every node is a
    word.  A word's room is max(its cap, 1); ``live[q]`` is the largest room
    of a word below q, ``dead[q]`` that of a word below q of ``walked``
    letters or more (0 for none).  ``found`` keeps the ``blocks`` asked
    for."""

    def __init__(
        self, words: Union[Sequence[Word], Basis], instance: str,
        cap: Optional[Callable[[Level], int]] = None, walked: Optional[int] = 0,
    ):
        self.kids, self.parent, self.depth, self.gens, self.gids, self.obj, self.head, self.base = (
            [] for _ in range(8))
        self.allowed, self.live, self.dead = [], [], []
        self.instance, self.cap, self.walked = instance, cap, walked
        self.roots: List[int] = []
        self.ends: Dict[int, Tuple[Word, int]] = {}
        self.found: Dict[Tuple[_ComponentTable, int], List[Tuple[int, CompKey]]] = {}
        if isinstance(words, Basis):
            quiver, self.height = words
            self.out = {x: sorted(quiver.gens_from(x), key=lambda g: g.gid) for x in quiver.objects}
            self.negative = any(g.base_level.value is not None and g.base_level.value < 0 for g in quiver.gens)
            self.lows: Dict[Tuple[str, int, int], Optional[Level]] = {}
            for x in quiver.objects:
                self._make(None, x)
            return
        self.out = None
        self.height = max((len(w) for w in words), default=0)
        roots: Dict[str, int] = {}
        for w in words:
            q = roots.get(w.at)
            if q is None:
                q = roots[w.at] = self._make(None, w.at)
            for g in w.gens:
                kid = self.kids[q].get(g.gid)
                q = self._make(q, g) if kid is None else kid
            if q not in self.ends:
                self.ends[q] = (w, 1 if cap is None else max(cap(self.base[q]), 1))
        self.live.extend([0] * len(self.kids))
        self.dead.extend([0] * len(self.kids))
        for q, (w, m) in self.ends.items():
            self.live[q] = m
            if walked is not None and len(w) >= walked:
                self.dead[q] = m
        for q in reversed(range(len(self.kids))):  # a node is made after its parent
            p = self.parent[q]
            if p is not None:
                self.live[p] = max(self.live[p], self.live[q])
                self.dead[p] = max(self.dead[p], self.dead[q])

    def _make(self, p: Optional[int], g) -> int:
        """A new node: the child of p along the generator g, or, for p None,
        the root at the object g."""
        q = len(self.kids)
        if p is None:
            row = (None, 0, (), (), g, 0, self.cap and levels.zero(self.instance))
            self.roots.append(q)
        else:
            base = self.cap and levels.level_add(self.base[p], g.base_level)
            row = (p, self.depth[p] + 1, self.gens[p] + (g,), self.gids[p] + (g.gid,), g.dst,
                   self.head[p] + g.sdeg, base)
            self.kids[p][g.gid] = q
        columns = (self.kids, self.parent, self.depth, self.gens, self.gids, self.obj, self.head, self.base)
        for column, value in zip(columns, ({}, *row)):
            column.append(value)
        if self.out is None:
            self.allowed.append([])
            if p is not None:
                self.allowed[p].append(g)
            return q
        self.allowed.append(self.out[self.obj[q]] if self.depth[q] < self.height else ())
        live = self._room(q, 0)
        d, walked = self.depth[q], self.walked
        self.live.append(live)
        self.dead.append(0 if walked is None else live if walked <= d else self._room(q, walked - d))
        return q

    def _room(self, q: int, shortest: int) -> int:
        """The largest room of a basis word below q with ``shortest`` more
        letters or more, 0 for none: the room of the least base level such a
        word can have."""
        base = self.base[q]
        if shortest or (self.cap and self.negative):
            low = self._least(self.obj[q], shortest, self.height - self.depth[q])
            if low is None:
                return 0
            base = self.cap and levels.level_add(base, low)
        return 1 if self.cap is None else max(self.cap(base), 1)

    def _least(self, at: str, shortest: int, longest: int) -> Optional[Level]:
        """The least base level of a path from ``at`` of ``shortest`` to
        ``longest`` letters, None for no such path.  The table is filled for
        every object from the paths of no letter up, so a long basis needs
        no recursion."""
        if (at, shortest, longest) in self.lows:
            return self.lows[at, shortest, longest]
        for k in range(longest, -1, -1):
            s, n = max(shortest - k, 0), longest - k
            for x, gens in self.out.items():
                if (x, s, n) in self.lows:
                    continue
                best = levels.zero(self.instance) if s == 0 else None
                for g in gens if n else ():
                    rest = self.lows[g.dst, max(s - 1, 0), n - 1]
                    if rest is not None:
                        low = levels.level_add(g.base_level, rest)
                        best = low if best is None else levels.level_min(best, low)
                self.lows[x, s, n] = best
        return self.lows[at, shortest, longest]

    def end(self, q: int) -> Optional[Tuple[Word, int]]:
        """The word at node q with its room, or None where no word of the
        call ends."""
        if self.out is None:
            return self.ends.get(q)
        gens = self.gens[q]
        own = max(self.cap(self.base[q]), 1) if self.cap and self.negative else self.live[q]
        return Word(gens[0].src if gens else self.obj[q], gens), own

    def blocks(self, owner: _ComponentTable, p: int) -> List[Tuple[int, CompKey]]:
        """The nodes q below p, each with the ``comp_key`` of the block from
        p to q, whose component the owner may not send to zero: its stored
        keys along the trie, and every q from the first length the table
        does not decide on.  Only the nodes on that walk are made."""
        out = self.found.get((owner, p))
        if out is not None:
            return out
        lazy = None if owner.undecided is None else max(owner.undecided, 1)
        start = self.depth[p]
        out = self.found[owner, p] = []
        todo = [(p, owner.trie)]
        while todo:
            node, keys = todo.pop()
            kids = self.kids[node]
            for g in self.allowed[node]:
                sub = None if keys is None else keys.get(g.gid)
                if sub is None and lazy is None:
                    continue
                q = kids.get(g.gid)
                if q is None:
                    q = self._make(node, g)
                if (sub is not None and _END in sub) or (lazy is not None and self.depth[q] - start >= lazy):
                    out.append((q, self.gids[q][start:]))
                todo.append((q, sub))
        return out


def _path_sum(
    words: Union[Sequence[Word], Basis], c: NovikovScalar, families: Sequence[Cofunctor],
    singles: Sequence[Coderivation], cap: Optional[Callable[[Level], int]] = None, prefixes: Optional[dict] = None,
) -> Iterator[Tuple[Word, List[Tuple[Word, NovikovScalar]]]]:
    """Yield (w, the terms of c times the value of the slots on w) for each
    word w of ``words``, a list or a ``Basis``, that the sweep reaches with
    a final state, as soon as the sweep has passed it; every other word's
    value is zero.  ``cap`` maps a word's base level to its cap, 0 without
    it; ``prefixes`` is the key trie of an exact table the result is folded
    through.  A state (q, t, e) has zone t (the number of singles used) and
    e family empty blocks, and each step goes to a deeper node or to a
    larger (t, e) at the same node, so one pass, depth by depth, completes
    each state before it is read.  A state counts as reached as soon as a
    chain of nonzero letters arrives, even if its partial sums cancel or
    are all pruned."""
    n_singles = len(singles)
    owners = (*families, *singles)
    least = min((o.undecided for o in owners if o.undecided is not None), default=None)
    # Dead states are walked for the words of ``walked`` letters or more:
    # every word without a fold, none where every owner decides every block.
    trie = _Trie(words, families[0].instance, cap, 0 if prefixes is None else least)
    live, dead, depth = trie.live, trie.dead, trie.depth

    states: Dict[int, Dict[Tuple[int, int], Partial]] = {q: {(0, 0): {(): c}} for q in trie.roots}
    layers: List[List[int]] = [list(trie.roots)] + [[] for _ in range(trie.height)]
    nodes = None if prefixes is None else {(): prefixes}
    odd = sum(r.deg for r in singles) % 2

    def letter(owner: _ComponentTable, key: CompKey, p: int, q: int) -> Letter:
        row = owner.rows.get(key)
        if row is None:
            terms = owner.comp_value(Word(trie.obj[p], trie.gens[q][depth[p]:])).terms
            owner.gens.update((id(g), g) for g, _ in terms)
            row = owner.rows[key] = tuple((id(g), g.gid, cl) for g, cl in terms)
        return row

    def state(q: int, t: int, e: int) -> Partial:
        at_q = states.get(q)
        if at_q is None:
            at_q = states[q] = {}
            layers[depth[q]].append(q)
        return at_q.setdefault((t, e), {})

    def step(partial: Partial, q: int, t: int, e: int, value: Letter, sign: int = 1) -> None:
        if not value:
            return
        # Where no dead state can matter, the state is created on its first
        # surviving product.
        into = state(q, t, e) if e < dead[q] else None
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
                    into = state(q, t, e)
                into[key] = novikov.nov_add(into[key], term) if key in into else term

    words_out = families[0].dst.words
    gens: Dict[int, HomGenerator] = {}
    for layer in layers:
        for p in layer:
            at_p = states[p]
            finals: List[Tuple[int, Partial]] = []
            obj = trie.obj[p]
            for t in range(n_singles + 1):
                family = families[t]
                for e in range(live[p]):
                    partial = at_p.pop((t, e), None)
                    if partial:
                        room = live
                    elif partial is not None and e < dead[p]:
                        room = dead
                    else:
                        continue
                    if t == n_singles:
                        finals.append((e, partial))
                    for q, key in trie.blocks(family, p):
                        if e < room[q]:
                            step(partial, q, t, e, letter(family, key, p, q))
                    if e + 1 < room[p] and family.curvature:
                        step(partial, p, t, e + 1, letter(family, obj, p, p))
                    if t < n_singles:
                        single = singles[t]
                        for q, key in ((p, obj), *trie.blocks(single, p)):
                            if e < room[q]:
                                sign = _crossing_sign(single.deg, trie.head[q])
                                step(partial, q, t + 1, e, letter(single, key, p, q), sign)
            del states[p]
            end = trie.end(p) if finals else None
            if end is None:
                continue
            w, own = end
            negate = odd and trie.head[p] % 2
            out = []
            for partial in [partial for e, partial in finals if e < own]:
                for key, cp in partial.items():
                    word = words_out.get(key) if key else Word(families[0].obj_map[w.at])
                    if word is None:
                        for owner in owners:
                            gens.update(owner.gens)
                        word = words_out[key] = Word.from_gens([gens[g] for g in key])
                    out.append((word, novikov.nov_neg(cp) if negate else cp))
            if out:
                yield w, out
