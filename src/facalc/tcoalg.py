"""Tensor cocategories with the cut comultiplication, and truncation windows.

Elements are finite linear combinations of composable generator words over a
filtered quiver.  The comultiplication cuts a word at every position
(including both empty ends); the reduced variant keeps both sides non-empty;
``mu_concat`` concatenates.  Completions are modeled by truncation windows: a
maximal word length N and an energy cutoff E.  Every truncation reports
whether it was SOUND (everything discarded provably lies above E, so the
truncated statement certifies the completed one at that cutoff) or LOSSY.
Operators on words, tensor products of graded maps included, act in
``morphisms``, through its block engine.
"""

from __future__ import annotations

import enum
import itertools
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

from . import levels, novikov
from .errors import FacalcError, ObjectMismatch
from .filtquiver import FiltQuiver, HomElement, HomGenerator
from .levels import INFINITY, Frozen, Level
from .novikov import NovikovScalar


class Word:
    """A composable list of generators; the empty word sits at one object.

    Hashing and equality go through the object name and the generator id
    sequence, which identify a basis word within a fixed quiver.  The base
    level is computed once per instance it is asked for.
    """

    __slots__ = ("at", "gens", "_sdeg", "_gids", "_hash", "_base")

    def __init__(self, at: str, gens: Tuple[HomGenerator, ...] = ()):
        prev = at
        sdeg = 0
        for g in gens:
            if g.src != prev:
                raise ObjectMismatch(
                    f"word is not composable at {g.gid!r}: expected src {prev!r}"
                )
            prev = g.dst
            sdeg += g.sdeg
        self.at = at
        self.gens = tuple(gens)
        self._sdeg = sdeg
        self._gids = tuple(g.gid for g in self.gens)
        self._hash = hash((at, self._gids))
        self._base = None

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

    @property
    def sdeg(self) -> int:
        return self._sdeg

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
        if self._base is None:
            self._base = {}
        out = self._base.get(instance)
        if out is None:
            out = levels.zero(instance)
            for g in self.gens:
                out = levels.level_add(out, g.base_level)
            self._base[instance] = out
        return out

    def sort_key(self):
        return (len(self.gens), self._gids, self.at)

    def __repr__(self) -> str:
        if not self.gens:
            return f"Word([]@{self.at})"
        return "Word(" + ".".join(self._gids) + ")"


class TensorElement:
    """A normalized linear combination of words with common endpoints."""

    __slots__ = ("src", "dst", "terms")

    def __init__(self, src: str, dst: str, terms: Iterable[Tuple[Word, NovikovScalar]] = ()):
        merged: Dict[Word, NovikovScalar] = {}
        for w, c in terms:
            if w.src != src or w.dst != dst:
                raise ObjectMismatch(f"word {w!r} does not run {src!r} -> {dst!r}")
            if w in merged:
                merged[w] = novikov.nov_add(merged[w], c)
            else:
                merged[w] = c
        self.src = src
        self.dst = dst
        self.terms: Tuple[Tuple[Word, NovikovScalar], ...] = tuple(
            (w, c) for w, c in sorted(merged.items(), key=lambda t: t[0].sort_key()) if not c.is_zero()
        )

    @staticmethod
    def zero(src: str, dst: str) -> "TensorElement":
        return TensorElement(src, dst)

    @staticmethod
    def from_word(w: Word, coeff: NovikovScalar) -> "TensorElement":
        return TensorElement(w.src, w.dst, [(w, coeff)])

    @staticmethod
    def from_hom(h: HomElement) -> "TensorElement":
        return TensorElement(
            h.src, h.dst, [(Word.from_gens([g]), c) for g, c in h.terms]
        )

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "TensorElement") -> "TensorElement":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if (self.src, self.dst) != (other.src, other.dst):
            raise ObjectMismatch("adding tensor elements with different endpoints")
        return TensorElement(self.src, self.dst, list(self.terms) + list(other.terms))

    def neg(self) -> "TensorElement":
        return TensorElement(self.src, self.dst, [(w, novikov.nov_neg(c)) for w, c in self.terms])

    def rat_scale(self, q) -> "TensorElement":
        return TensorElement(self.src, self.dst, [(w, novikov.nov_rat_mul(q, c)) for w, c in self.terms])

    def pr1_hom(self) -> HomElement:
        """Project to word length 1, viewed as a hom element."""
        return HomElement(
            self.src, self.dst, [(w.gens[0], c) for w, c in self.terms if len(w) == 1]
        )

    def max_len(self) -> int:
        return max((len(w) for w, _ in self.terms), default=0)

    def level(self, instance: str) -> Level:
        best = INFINITY
        for w, c in self.terms:
            best = levels.level_min(best, term_level(w, c, instance))
        return best

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.src == other.src
            and self.dst == other.dst
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.src, self.dst, self.terms))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"TensorElement(0: {self.src}->{self.dst})"
        body = " + ".join(f"({novikov.format_scalar(c)})*{w!r}" for w, c in self.terms)
        return f"TensorElement({body})"


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
    blocks = []
    for a, b in zip(bounds, bounds[1:]):
        if a == b:
            at = w.gens[a - 1].dst if a > 0 else w.at
            blocks.append(Word(at))
        else:
            blocks.append(Word.from_gens(w.gens[a:b]))
    return tuple(blocks)


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
    the monomials whose energy lifts the term to the cutoff are dropped.
    The one reduction of a coefficient by the window's energy cutoff."""
    return novikov.nov_truncate(c, levels.dominate(base, cutoff))


def truncate_element(x: TensorElement, window: TruncWindow) -> Tuple[TensorElement, Flag]:
    """Drop terms beyond the window.  SOUND when every term dropped for
    length alone already sat above the cutoff."""
    kept = []
    flag = Flag.SOUND
    inst = window.instance
    for w, c in x.terms:
        c_red = _mod_cutoff(c, w.base_level(inst), window.cutoff)
        if c_red.is_zero():
            continue
        if len(w) > window.max_len:
            if not levels.level_leq(window.cutoff, term_level(w, c_red, inst)):
                flag = Flag.LOSSY
            continue
        kept.append((w, c_red))
    return TensorElement(x.src, x.dst, kept), flag


# ---------------------------------------------------------------------------
# Basis enumeration

def basis_words(quiver: FiltQuiver, max_len: int, include_empty: bool = True) -> List[Word]:
    """All composable generator words of length <= max_len, sorted."""
    words: List[Word] = [Word(obj) for obj in quiver.objects] if include_empty else []
    frontier: List[Tuple[str, Tuple[HomGenerator, ...]]] = [(obj, ()) for obj in quiver.objects]
    for _ in range(max_len):
        nxt = []
        for start, gens in frontier:
            tail = gens[-1].dst if gens else start
            for g in quiver.gens_from(tail):
                seq = gens + (g,)
                nxt.append((start, seq))
                words.append(Word(start, seq))
        frontier = nxt
    return sorted(words, key=Word.sort_key)

