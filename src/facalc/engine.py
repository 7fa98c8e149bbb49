"""The block engine: the operator pair ``(families, singles)`` of
``morphisms`` on all the words of a call in one sweep.

The words of a call are a list, or every basis word of a quiver up to a
length (``Basis``).  Rather than list every split of each word,
``_path_sum`` sweeps a trie of their prefixes (``_Trie``), depth by depth,
over states (node, zone, empty blocks used) that only nonzero letters reach.
The trie grows with the sweep: a node's children are made only when a state
sits at the node, from the generators out of its object up to the basis
length, or along the listed words' prefixes.  Each node is the ``Word`` of
its prefix, made from its parent's; of a basis, its quiver's kept word.  A
basis, as a ``Basis`` or as a list ``tcoalg.basis_words`` gives, which
carries its ``Basis``, has one trie per instance, kept on its quiver
(``FiltQuiver.tries``, ``_trie``) with each owner's block walks, so the
repeated sweeps of a command make its nodes and walk its owners' blocks
once; any other list gets a trie of its own.  What
depends on the call is made per call: its rooms from its cap
(``_Trie.rooms``), its states and its layers.  A block runs from a node to a
node below it.  Each owner's letters are read along the trie of its stored
keys, so an exact owner's steps make only the nodes on its keys, plus every
block of a length the table does not decide, where a word below the node
reaches that length.  A word the sweep never reaches is zero and SOUND, and
it made no lookup.  A single steps with the sign of crossing the prefix it
ends at (``_crossing_sign``): times (-1)^(deg * S(w)), S(w) the word's
shifted degree, that is the sign of crossing the rest of the word, so a
word's terms are negated when S(w) times the singles' total degree is odd.
A word's room on empty blocks is max(its cap, 1), and a node's room is the
room of the least base level a word below it can have, which is the largest
room of the words below it: of a basis, the node's base level plus the least
base level of a path of at most the remaining length (``_Trie._least``), and
of a list, the largest room of the listed words below.  A step into node q
needs e < room(q), a curvature step at node p needs e + 1 < room(p), and
each word keeps its final states with e < its own room.  Only where every
owner decides every block up to the longest word of the call, so that no
lookup can run a ``compute`` or raise, does a sweep skip work: a single that
stores nothing ends the call, once its rooms are made, and a product that no
key of the exact table the result is folded through extends is dropped.
Every other call sweeps unpruned, as the split enumeration of each word
does.  So a lazy ``compute`` runs, or an extraction bound raises, exactly
where the split enumeration of some word would.  A letter row marks each
coefficient that is the unit 1*T^0*e^0 (``_Row``): a step by it keeps the
partial's scalar, after ``nov_mul``'s variant check, and makes no product.
A single's k = 0 row at an object, which every state at a node of that
object would try, is read once per call, on the first such state, and a
row that is empty is not stepped by.  At each word's end its
final states are summed by output word, keyed by its generator ids as
``comp_key`` keys a block, negated once per output word where the sign asks,
and each output word is the target quiver's kept word, as the word a letter
is read at is the owner's source quiver's (``tcoalg.quiver_word``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union
from weakref import WeakKeyDictionary

from . import levels, novikov
from .filtquiver import HomGenerator, _crossing_sign
from .levels import Level
from .novikov import NovikovScalar
from .tcoalg import Basis, Word, quiver_word

if TYPE_CHECKING:
    from .morphisms import Coderivation, Cofunctor, CompKey, _ComponentTable

_END = None  # the trie entry marking the end of a stored key

# A letter row: one (gid, coefficient) per term of a component.
Letter = Tuple[Tuple[str, NovikovScalar], ...]
_ONE = novikov.one().terms  # the terms of the unit 1*T^0*e^0, in any variant


class _Row(tuple):
    """A ``Letter`` as ``letter`` keeps it: ``units`` marks each coefficient
    that is the unit, which a step does not multiply by."""

    def __new__(cls, terms: Letter):
        row = super().__new__(cls, terms)
        row.units = tuple(cl.terms == _ONE for _, cl in terms)
        return row


# The partial sums at one path-sum state, keyed by the gids of the output
# word, the key ``comp_key`` uses.
Partial = Dict[Tuple[str, ...], NovikovScalar]


class _Rooms(dict):
    """One call's rooms on a trie, by node, each made by ``room`` on its
    first lookup."""

    def __init__(self, room: Callable[[int], int]):
        super().__init__()
        self.room = room

    def __missing__(self, q: int) -> int:
        out = self[q] = self.room(q)
        return out


class _Trie:
    """The trie of the word prefixes a sweep reaches.  Node q is a prefix,
    ``words[q]``, the ``Word`` that holds its generators, their ids, the
    object it ends at, its shifted degree and its base level: ``kids[q]``
    maps a gid to the prefix one letter longer, made on demand (``blocks``)
    along the generators ``allowed[q]`` lists, ``parent[q]`` is the prefix
    one letter shorter (None for the empty prefix at an object) and
    ``depth[q]`` its length.  ``roots`` lists the empty prefixes and
    ``height`` is the longest word.  Of a list of words, every prefix is
    made at once, a node's children are the listed words' prefixes, and
    ``ends[q]`` is the listed word at q; of a ``Basis``, a node's children
    are the generators out of its object, up to ``height``, and every node
    is a word of the call, its quiver's kept word.  ``found`` keeps the
    ``blocks`` asked for, by node, in a table per owner that is keyed
    weakly, so a kept trie keeps no owner alive.  Nothing here depends on a
    call, so a basis trie is kept (``_trie``); a call's rooms are
    ``rooms(cap)``."""

    def __init__(self, words: Union[Sequence[Word], Basis], instance: str):
        self.kids, self.parent, self.depth, self.words = [], [], [], []
        self.allowed: List[Sequence[HomGenerator]] = []
        self.instance = instance
        self.roots: List[int] = []
        self.ends: Dict[int, Word] = {}
        self.found: WeakKeyDictionary[_ComponentTable, Dict[int, List[Tuple[int, CompKey]]]] = WeakKeyDictionary()
        if isinstance(words, Basis):
            self.quiver, self.height = words
            self.out = {x: sorted(self.quiver.gens_from(x), key=lambda g: g.gid) for x in self.quiver.objects}
            # The least base level of a path is 0 when no generator's is
            # negative: ``_least`` then needs no table.
            nonneg = all(g.base_level.instance == instance and g.base_level.value >= 0 for g in self.quiver.gens)
            self.lows: Optional[Dict[Tuple[str, int], Level]] = None if nonneg else {}
            for x in self.quiver.objects:
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
            self.ends.setdefault(q, w)

    def _make(self, p: Optional[int], g) -> int:
        """A new node: the child of p along the generator g, or, for p None,
        the root at the object g.  A basis node is its quiver's kept word
        (``quiver_word``); a list's is made from its parent's."""
        q = len(self.kids)
        if self.out is None:
            word = Word(g) if p is None else self.words[p].then(g)
            self.allowed.append([])
            if p is not None:
                self.allowed[p].append(g)
        else:
            word = quiver_word(self.quiver, g if p is None else self.words[p].gids + (g.gid,))
            self.allowed.append(self.out[word.dst] if len(word) < self.height else ())
        self.kids.append({})
        self.parent.append(p)
        self.depth.append(len(word))
        self.words.append(word)
        if p is None:
            self.roots.append(q)
        else:
            self.kids[p][g.gid] = q
        return q

    def rooms(self, cap: Optional[Callable[[Level], int]]) -> Union[List[int], _Rooms]:
        """A call's rooms by node: the largest room of a word below the
        node, a word's room being ``room(cap, q)``.  Of a basis, that is the
        room of the least base level a word below the node can have: its
        own base level plus that of the lowest path of at most the
        remaining length (``_least``), which is 0 when no generator is of
        negative level.  The roots' rooms are made at once, so a cap that
        raises raises before the sweep starts."""
        if cap is None:
            return _Rooms(lambda q: 1)
        if self.out is None:
            rooms = [0] * len(self.kids)
            for q in self.ends:
                rooms[q] = self.room(cap, q)
            for q in reversed(range(len(self.kids))):  # a node is made after its parent
                p = self.parent[q]
                if p is not None:
                    rooms[p] = max(rooms[p], rooms[q])
            return rooms
        words = self.words
        rooms = _Rooms(lambda q: max(cap(levels.level_add(words[q].base_level(self.instance), self._least(
            words[q].dst, self.height - self.depth[q]))), 1))
        for q in self.roots:
            rooms[q]
        return rooms

    def room(self, cap: Optional[Callable[[Level], int]], q: int) -> int:
        """The room of the word at node q on empty blocks: max(its cap, 1),
        1 without a cap."""
        return 1 if cap is None else max(cap(self.words[q].base_level(self.instance)), 1)

    def _least(self, at: str, longest: int) -> Level:
        """The least base level of a path from ``at`` of at most ``longest``
        letters: 0 where no generator's is negative, else read from a table
        that is filled for every object from the paths of no letter up, so a
        long basis needs no recursion."""
        if self.lows is None:
            return levels.zero(self.instance)
        if (at, longest) in self.lows:
            return self.lows[at, longest]
        for n in range(longest + 1):
            for x, gens in self.out.items():
                if (x, n) in self.lows:
                    continue
                best = levels.zero(self.instance)
                for g in gens if n else ():
                    best = levels.level_min(best, levels.level_add(g.base_level, self.lows[g.dst, n - 1]))
                self.lows[x, n] = best
        return self.lows[at, longest]

    def word(self, q: int) -> Optional[Word]:
        """The word at node q, or None where no word of the call ends."""
        return self.ends.get(q) if self.out is None else self.words[q]

    def blocks(self, owner: _ComponentTable, p: int, walks: dict) -> List[Tuple[int, CompKey]]:
        """The nodes q below p, each with the ``comp_key`` of the block from
        p to q, whose component the owner may not send to zero: its stored
        keys along the trie, and every q from the first length the table
        does not decide on.  Where no word reaches that length below p, the
        walk keeps to the stored keys.  Only the nodes on the walk are
        made.  The result is kept in ``walks``, the owner's table in
        ``found``, which a call looks up once, not once per node."""
        out = walks.get(p)
        if out is not None:
            return out
        start = self.depth[p]
        lazy = None if owner.undecided is None else max(owner.undecided, 1)
        if lazy is not None and start + lazy > self.height:
            lazy = None
        out = walks[p] = []
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
                    out.append((q, self.words[q].gids[start:]))
                todo.append((q, sub))
        return out


def _trie(words: Union[Sequence[Word], Basis], instance: str) -> _Trie:
    """The trie of ``words``.  A basis, ``Basis(quiver, n)`` or a list
    ``basis_words(quiver, n)``, which carries its ``Basis``, has one trie per
    instance, kept in its quiver's ``tries``; any other list gets its own."""
    basis = words if isinstance(words, Basis) else getattr(words, "basis", None)
    if basis is None:
        return _Trie(words, instance)
    key = (basis.max_len, instance)
    trie = basis.quiver.tries.get(key)
    if trie is None:
        trie = basis.quiver.tries[key] = _Trie(basis, instance)
    return trie


def _path_sum(
    words: Union[Sequence[Word], Basis], c: NovikovScalar, families: Sequence[Cofunctor],
    singles: Sequence[Coderivation], cap: Optional[Callable[[Level], int]] = None, prefixes: Optional[dict] = None,
) -> Iterator[Tuple[Word, List[Tuple[Word, NovikovScalar]]]]:
    """Yield (w, the terms of c times the value of the slots on w, one per
    output word) for each word w of ``words``, a list or a ``Basis``, that
    the sweep reaches with a final state, as soon as the sweep has passed
    it; every other word's value is zero.  ``cap`` maps a word's base level
    to its cap, 0 without it; ``prefixes`` is the key trie of an exact
    table the result is folded through.  Where every owner decides every
    block up to the longest word, a single that stores nothing ends the
    call with nothing yielded, and ``prefixes`` prunes the sweep.  A state
    (q, t, e) has zone t (the number of singles used) and e family empty
    blocks, and each step goes to a deeper node or to a larger (t, e) at
    the same node, so one pass, depth by depth, completes each state before
    it is read.  A state is made on its first product that survives the
    pruning; a word's terms may sum to zero."""
    n_singles = len(singles)
    owners = (*families, *singles)
    least = min((o.undecided for o in owners if o.undecided is not None), default=None)
    trie = _trie(words, families[0].instance)
    rooms, depth, node_words = trie.rooms(cap), trie.depth, trie.words
    # Where every owner decides every block of the call, no lookup can run
    # a ``compute`` or raise.  The rooms come first, so that a cap that
    # cannot be bounded still raises.
    if least is None or least > trie.height:
        if any(r.is_zero_map() for r in singles):
            return
    else:
        prefixes = None

    states: Dict[int, Dict[Tuple[int, int], Partial]] = {q: {(0, 0): {(): c}} for q in trie.roots}
    layers: List[List[int]] = [list(trie.roots)] + [[] for _ in range(trie.height)]
    nodes = None if prefixes is None else {(): prefixes}
    odd = sum(r.deg for r in singles) % 2

    def letter(owner: _ComponentTable, key: CompKey) -> Letter:
        row = owner.rows.get(key)
        if row is None:
            terms = owner.comp_value(quiver_word(owner.src, key)).terms
            row = owner.rows[key] = _Row(tuple((g.gid, cl) for g, cl in terms))
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
        into = None  # the state is created on its first surviving product
        for prefix, cp in partial.items():
            node = None if nodes is None else nodes[prefix]
            for (gid, cl), unit in zip(value, value.units):
                key = prefix + (gid,)
                if node is not None:
                    child = node.get(gid)
                    if child is None:
                        continue
                    nodes[key] = child
                if unit:
                    # The product by the unit, with nov_mul's variant check.
                    if cp.variant != cl.variant:
                        novikov._check_variant(cp, cl)
                    term = cp
                else:
                    term = novikov.nov_mul(cp, cl)
                if sign < 0:
                    term = novikov.nov_neg(term)
                if into is None:
                    into = state(q, t, e)
                into[key] = novikov.nov_add(into[key], term) if key in into else term

    walks = [trie.found.setdefault(owner, {}) for owner in owners]
    # Each single's k = 0 row, by object, read once per call.
    heads: List[Dict[str, Letter]] = [{} for _ in singles]
    dst = families[0].dst
    for layer in layers:
        for p in layer:
            at_p = states[p]
            finals: List[Tuple[int, Partial]] = []
            obj = node_words[p].dst
            for t in range(n_singles + 1):
                family = families[t]
                for e in range(rooms[p]):
                    partial = at_p.pop((t, e), None)
                    if partial is None:
                        continue
                    if t == n_singles:
                        finals.append((e, partial))
                    for q, key in trie.blocks(family, p, walks[t]):
                        if e < rooms[q]:
                            step(partial, q, t, e, letter(family, key))
                    if e + 1 < rooms[p] and family.curvature:
                        step(partial, p, t, e + 1, letter(family, obj))
                    if t < n_singles:
                        single = singles[t]
                        head = heads[t].get(obj)
                        if head is None:
                            head = heads[t][obj] = letter(single, obj)
                        if head:
                            step(partial, p, t + 1, e, head, _crossing_sign(single.deg, node_words[p].sdeg))
                        for q, key in trie.blocks(single, p, walks[n_singles + 1 + t]):
                            if e < rooms[q]:
                                sign = _crossing_sign(single.deg, node_words[q].sdeg)
                                step(partial, q, t + 1, e, letter(single, key), sign)
            del states[p]
            w = trie.word(p) if finals else None
            if w is None:
                continue
            own = trie.room(cap, p)
            summed: Partial = {}
            for e, partial in finals:
                if e < own:
                    for key, cp in partial.items():
                        summed[key] = novikov.nov_add(summed[key], cp) if key in summed else cp
            negate = odd and node_words[p].sdeg % 2
            out = [(quiver_word(dst, key or families[0].obj_map[w.at]), novikov.nov_neg(cp) if negate else cp)
                   for key, cp in summed.items()]
            if out:
                yield w, out
