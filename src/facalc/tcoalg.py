"""Tensor cocategories with the cut comultiplication, and truncation windows.

Elements are finite linear combinations of composable generator words over a
filtered quiver, with the module operations of ``filtquiver._Combination``.
The comultiplication cuts a word at every position (including both empty
ends); the reduced variant keeps both sides non-empty; ``mu_concat``
concatenates.  Completions are modeled by truncation windows: a maximal
word length N and an energy cutoff E.  Every truncation reports
whether it was SOUND (everything discarded provably lies above E, so the
truncated statement certifies the completed one at that cutoff) or LOSSY.
A coefficient is reduced modulo F^E by comparing each monomial's energy
with one bound per word, ``levels.dominate`` of the word's base level and E
(``novikov.nov_truncate``).  Each ``Word`` keeps its bound for the cutoff
last asked (``Word.bound``), so ``_window_terms``, the reduction of
``truncate_element`` and ``morphisms.chain_sum``, computes it once per word
of a command.  A quiver keeps one word per path (``quiver_word``), made
from its parent (``Word.then``), which basis lists (``basis_words``), the
engine's basis tries, output words and letter lookups share.
Operators on words, tensor products of graded maps included, act in
``morphisms``, through its block engine.
"""

from __future__ import annotations

import enum
import itertools
from functools import lru_cache
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

from . import levels, novikov
from .errors import FacalcError, ObjectMismatch
from .filtquiver import FiltQuiver, HomElement, HomGenerator, _Combination
from .levels import Frozen, Level
from .novikov import NovikovScalar


class Word:
    """A composable list of generators; the empty word sits at one object.

    A word keeps its generators, their ids (``gids``) and its shifted
    degree (``sdeg``).  Hashing and equality go through the object name and
    the generator ids, which identify a basis word within a fixed quiver.
    The base level is computed once per instance it is asked for, and the
    truncation bound (``bound``) once per cutoff, kept for the cutoff last
    asked.  ``then`` makes a word from its parent (``quiver_word``).
    """

    __slots__ = ("at", "gens", "sdeg", "gids", "_hash", "_base", "_bound", "_parent")

    def __init__(self, at: str, gens: Tuple[HomGenerator, ...] = ()):
        prev = at
        for g in gens:
            if g.src != prev:
                raise ObjectMismatch(f"word is not composable at {g.gid!r}: expected src {prev!r}")
            prev = g.dst
        self.at, self.gens, self.sdeg = at, tuple(gens), sum(g.sdeg for g in gens)
        self.gids = tuple(g.gid for g in self.gens)
        self._hash, self._base, self._bound, self._parent = hash((at, self.gids)), None, None, None

    def then(self, g: HomGenerator) -> "Word":
        """This word followed by the generator g: its degree plus g's, its
        ids plus g's, and, once asked, its base level plus g's."""
        if g.src != self.dst:
            raise ObjectMismatch(f"word is not composable at {g.gid!r}: expected src {self.dst!r}")
        w = Word.__new__(Word)
        w.at, w.gens, w.sdeg, w.gids = self.at, self.gens + (g,), self.sdeg + g.sdeg, self.gids + (g.gid,)
        w._hash, w._base, w._bound, w._parent = hash((w.at, w.gids)), None, None, self
        return w

    @staticmethod
    def from_gens(gens: Sequence[HomGenerator]) -> "Word":
        if not gens:
            raise FacalcError("empty words need an explicit object; use Word(at)")
        return Word(gens[0].src, tuple(gens))

    @property
    def src(self) -> str:
        return self.at

    @property
    def dst(self) -> str:
        return self.gens[-1].dst if self.gens else self.at

    def __len__(self) -> int:
        return len(self.gens)

    def __eq__(self, other) -> bool:
        # The hash ignores generator payloads, so equality must compare the
        # generators themselves: distinct quivers may reuse names.
        return (
            isinstance(other, Word)
            and self._hash == other._hash
            and self.at == other.at
            and self.gens == other.gens
        )

    def __hash__(self) -> int:
        return self._hash

    def base_level(self, instance: str) -> Level:
        """The sum of the letters' base levels, kept per instance: a word made
        by ``then`` adds its last letter's to its parent's, walking up in a loop."""
        todo, w = [], self
        while w is not None and instance not in (w._base or ()):
            todo.append(w)
            w = w._parent
        out = None if w is None else w._base[instance]
        for w in reversed(todo):
            out, gens = (levels.zero(instance), w.gens) if out is None else (out, w.gens[-1:])
            for g in gens:
                out = levels.level_add(out, g.base_level)
            w._base = {**(w._base or {}), instance: out}
        return out

    def bound(self, cutoff: Level) -> Level:
        """The bound a coefficient's monomials are cut at modulo F^cutoff:
        ``levels.dominate`` of the word's base level and cutoff."""
        kept = self._bound
        if kept is None or not (kept[0] is cutoff or kept[0] == cutoff):
            kept = self._bound = (cutoff, levels.dominate(self.base_level(cutoff.instance), cutoff))
        return kept[1]

    def sort_key(self):
        return (len(self.gens), self.gids, self.at)

    def __repr__(self) -> str:
        if not self.gens:
            return f"Word([]@{self.at})"
        return "Word(" + ".".join(self.gids) + ")"


def quiver_word(quiver: FiltQuiver, key) -> Word:
    """The kept word of ``quiver`` at ``key``, a gid tuple or the object of an
    empty word, as ``morphisms.comp_key`` keys a block; made from its longest
    kept prefix, one ``Word.then`` per letter, keeping each prefix made."""
    words = quiver.words
    out = words.get(key)
    if out is None:
        gids, at = ((), key) if isinstance(key, str) else (key, quiver.gen(key[0]).src)
        n = len(gids)
        while out is None and n:
            n -= 1
            out = words.get(gids[:n] or at)
        if out is None:
            out = words[at] = Word(at)
        for gid in gids[n:]:
            out = out.then(quiver.gen(gid))
            words[out.gids] = out
    return out


class TensorElement(_Combination, Frozen):
    """A normalized linear combination of words with common endpoints."""

    __slots__ = ("src", "dst", "terms")
    _base = staticmethod(Word.base_level)
    _label = repr
    _noun = "tensor"

    def __init__(self, src: str, dst: str, terms: Iterable[Tuple[Word, NovikovScalar]] = ()):
        merged: Dict[Word, NovikovScalar] = {}
        for w, c in terms:
            if w.src != src or w.dst != dst:
                raise ObjectMismatch(f"word {w!r} does not run {src!r} -> {dst!r}")
            if w in merged:
                merged[w] = novikov.nov_add(merged[w], c)
            else:
                merged[w] = c
        self._set(src, dst, tuple(
            (w, c) for w, c in sorted(merged.items(), key=lambda t: t[0].sort_key()) if not c.is_zero()
        ))

    @classmethod
    def merged(cls, src: str, dst: str, merged: Dict[Word, NovikovScalar]) -> "TensorElement":
        """The element of terms already merged by word, every word running
        src -> dst: built once, its zeros dropped and its words sorted, with
        none of ``__init__``'s merging and checks."""
        terms = sorted(((w, c) for w, c in merged.items() if c.terms), key=lambda t: t[0].sort_key())
        out = cls.__new__(cls)
        out._set(src, dst, tuple(terms))
        return out

    @staticmethod
    def from_word(w: Word, coeff: NovikovScalar) -> "TensorElement":
        return TensorElement(w.src, w.dst, [(w, coeff)])

    @staticmethod
    def from_hom(h: HomElement) -> "TensorElement":
        return TensorElement(
            h.src, h.dst, [(Word.from_gens([g]), c) for g, c in h.terms]
        )

    def pr1_hom(self) -> HomElement:
        """Project to word length 1, viewed as a hom element."""
        return HomElement(
            self.src, self.dst, [(w.gens[0], c) for w, c in self.terms if len(w) == 1]
        )


def _signed_sum(pieces: Sequence[Tuple[int, TensorElement]]) -> TensorElement:
    """The sum of sign * x over a non-empty list of (sign, x), built once
    from the terms; a lone nonzero piece of sign 1 (the first piece when all
    are zero) is returned as it is."""
    live = [(sign, x) for sign, x in pieces if not x.is_zero()] or [pieces[0]]
    sign, first = live[0]
    if len(live) == 1 and sign == 1:
        return first
    terms = [(w, c if s == 1 else novikov.nov_neg(c)) for s, x in live for w, c in x.terms]
    return TensorElement(first.src, first.dst, terms)


# ---------------------------------------------------------------------------
# Splits

@lru_cache(maxsize=65536)
def word_blocks(w: Word, cuts: Tuple[int, ...]) -> Tuple[Word, ...]:
    """The blocks of w determined by interior cut points."""
    bounds = (0,) + cuts + (len(w.gens),)
    return tuple(Word(w.gens[a - 1].dst if a else w.at, w.gens[a:b]) for a, b in zip(bounds, bounds[1:]))


def _delta(x: TensorElement, k: int, allow_empty: bool) -> Dict[Tuple[Word, ...], NovikovScalar]:
    if k < 1:
        raise FacalcError(f"{'' if allow_empty else 'reduced_'}delta_k needs k >= 1")
    # Cuts 0 <= i_1 <= ... <= i_(k-1) <= n; reduced: 0 < i_1 < ... < n.
    out: Dict[Tuple[Word, ...], NovikovScalar] = {}
    for w, c in x.terms:
        n = len(w)
        if allow_empty:
            splits = itertools.combinations_with_replacement(range(n + 1), k - 1)
        else:
            splits = itertools.combinations(range(1, n), k - 1) if k <= n else ()
        for cuts in splits:
            key = word_blocks(w, cuts)
            out[key] = novikov.nov_add(out[key], c) if key in out else c
    return {key: c for key, c in out.items() if not c.is_zero()}


def delta_k(x: TensorElement, k: int) -> Dict[Tuple[Word, ...], NovikovScalar]:
    """The k-fold cut comultiplication; Delta^(1) is the identity."""
    return _delta(x, k, allow_empty=True)


def cut_delta(x: TensorElement) -> Dict[Tuple[Word, Word], NovikovScalar]:
    return delta_k(x, 2)


def reduced_delta_k(x: TensorElement, k: int) -> Dict[Tuple[Word, ...], NovikovScalar]:
    """Iterated reduced comultiplication: all blocks non-empty; the k=1
    iterate is the identity restricted to positive lengths."""
    return _delta(x, k, allow_empty=False)


def mu_concat(x: TensorElement, y: TensorElement) -> TensorElement:
    """Concatenation product; sign-free since it has degree 0."""
    if x.dst != y.src:
        raise ObjectMismatch(f"cannot concatenate: {x.dst!r} != {y.src!r}")
    terms = []
    for w1, c1 in x.terms:
        for w2, c2 in y.terms:
            w = Word(w1.at, w1.gens + w2.gens)
            terms.append((w, novikov.nov_mul(c1, c2)))
    return TensorElement(x.src, y.dst, terms)


# ---------------------------------------------------------------------------
# Truncation windows

class Flag(enum.IntEnum):
    SOUND = 0
    LOSSY = 1

    def __str__(self) -> str:  # report-friendly
        return self.name


def join_flags(*flags: Flag) -> Flag:
    return Flag(max(int(f) for f in flags)) if flags else Flag.SOUND


class TruncWindow(Frozen):
    """Work modulo F^cutoff, keeping words of length <= max_len."""

    __slots__ = ("max_len", "cutoff")

    def __init__(self, max_len: int, cutoff: Level):
        if max_len < 0:
            raise FacalcError("window max_len must be >= 0")
        if cutoff.instance not in (levels.RAT, levels.RATPLUS, levels.DISCRETE):
            raise FacalcError("window cutoff must belong to a level instance")
        if levels.level_leq(cutoff, levels.zero(cutoff.instance)):
            raise FacalcError("window cutoff must be positive")
        self._set(max_len, cutoff)

    @property
    def instance(self) -> str:
        return self.cutoff.instance


def term_level(w: Word, c: NovikovScalar, instance: str) -> Level:
    """The level of the term c*w: its base level plus the level of c."""
    return levels.level_add(w.base_level(instance), novikov.nov_level(c, instance))


def _mod_cutoff(c: NovikovScalar, base: Level, cutoff: Level) -> NovikovScalar:
    """The coefficient c of a term of base level ``base``, modulo F^cutoff:
    the monomials whose energy lifts the term to the cutoff are dropped, by
    one comparison each with the bound ``levels.dominate`` gives."""
    return novikov.nov_truncate(c, levels.dominate(base, cutoff))


def _window_terms(
    terms: Iterable[Tuple[Word, NovikovScalar]], window: TruncWindow
) -> Tuple[List[Tuple[Word, NovikovScalar]], Flag]:
    """The terms (w, c) reduced modulo F^cutoff, each by its word's kept
    bound (``Word.bound``), and cut to the window's length, with their
    flag: LOSSY when a term dropped for length alone lies below the
    cutoff."""
    kept = []
    flag = Flag.SOUND
    inst, cutoff = window.instance, window.cutoff
    for w, c in terms:
        c = novikov.nov_truncate(c, w.bound(cutoff))
        if not c.terms:
            continue
        if len(w) > window.max_len:
            if not levels.level_leq(cutoff, term_level(w, c, inst)):
                flag = Flag.LOSSY
            continue
        kept.append((w, c))
    return kept, flag


def truncate_element(x: TensorElement, window: TruncWindow) -> Tuple[TensorElement, Flag]:
    """Drop terms beyond the window (``_window_terms``); x itself when
    nothing drops."""
    kept, flag = _window_terms(x.terms, window)
    if len(kept) == len(x.terms) and all(c is k for (_, c), (_, k) in zip(x.terms, kept)):
        return x, flag
    return TensorElement(x.src, x.dst, kept), flag


# ---------------------------------------------------------------------------
# Basis enumeration

class Basis(NamedTuple):
    """Every basis word of ``quiver`` up to ``max_len`` letters, as the words
    of an engine sweep that yields only the ones it reaches."""

    quiver: FiltQuiver
    max_len: int


class _BasisWords(list):
    """A ``basis_words`` list; ``basis`` is the ``Basis`` it lists, None
    without its empty words."""

    __slots__ = ("basis",)


def basis_words(quiver: FiltQuiver, max_len: int, include_empty: bool = True) -> List[Word]:
    """All composable generator words of length <= max_len, sorted, each
    the quiver's kept word (``quiver_word``), so every list, the kept basis
    trie and the engine's outputs share one object per word.  A list with
    its empty words carries its ``Basis``, so the engine sweeps it on the
    basis's kept trie."""
    layer = [quiver_word(quiver, obj) for obj in quiver.objects]
    words = list(layer) if include_empty else []
    for _ in range(max_len):
        layer = [quiver_word(quiver, w.gids + (g.gid,)) for w in layer for g in quiver.gens_from(w.dst)]
        words += layer
    out = _BasisWords(sorted(words, key=Word.sort_key))
    out.basis = Basis(quiver, max_len) if include_empty else None
    return out
