"""Filtered A-infinity structures: codifferentials, functor checks, and the
induced differential on coderivation quivers.

An A-infinity structure on a quiver (stored with shifted degrees) is a
degree-1, level-0 coderivation ``b`` from the identity to itself, given by
components b_n on length-n words; the defining relations say its square
vanishes.  The checkers here verify rather than impose: any component family
is accepted, and residuals of the relations are reported word by word.

On the quiver whose objects are cofunctors and whose morphisms are
coderivations there is a unique induced degree-1 differential; its
components are computed from the evaluation of coderivation chains against
quiver words, and its square is checked by double insertion evaluated
against basis words.

Every check and every letter b0, b1, bn evaluates all its basis words in
one sweep and folds each value through one morphism's components as the
sweep passes it (``_transport``; ``family_value``, re-exported here, folds
a given value).  The letters come from one builder, ``_letter``, over one
value map, ``_letter_value``; ``check_ainf_functor`` reads its residual
from that map.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import levels, novikov, tcoalg
from .errors import ConvergenceUndecided, FacalcError, ObjectMismatch
from .filtquiver import FiltQuiver, HomElement, _crossing_sign
from .morphisms import (
    Basis,
    Coderivation,
    Cofunctor,
    Components,
    _extract_components,
    _transport,
    _in_order,
    chain_eval,
    chain_ops,
    chain_slots,
    chain_sum,
    coderivation_from_components,
    coderivation_slots,
    family_value,  # re-exported: the fold is part of this module's API
    hom_truncate,
    identity_cofunctor,
    slot_value,
)
from .tcoalg import Flag, TensorElement, TruncWindow, Word, basis_words


def shift_degree(declared: int) -> int:
    """Stored degree of a generator declared with its unshifted degree."""
    return declared - 1


SHIFT_MAP_DEGREE = -1


class AInfCategory:
    """A quiver (shifted degrees) with a candidate codifferential."""

    def __init__(self, quiver: FiltQuiver, b: Coderivation):
        if b.deg != 1:
            raise FacalcError("codifferential must have degree 1")
        if not levels.level_leq(levels.zero(b.instance), b.lvl) and not b.lvl.is_infinite():
            raise FacalcError("codifferential must have level >= 0")
        self.quiver = quiver
        self.b = b

    @property
    def instance(self) -> str:
        return self.b.instance

    @property
    def variant(self) -> str:
        return self.b.variant


def ainf_category(
    quiver: FiltQuiver,
    b_comps: Components,
    window: TruncWindow,
    variant: str,
    name: Optional[str] = None,
) -> AInfCategory:
    ident = identity_cofunctor(quiver, window.instance, variant)
    b = coderivation_from_components(
        name or f"b_{quiver.name}", ident, ident, 1, levels.zero(window.instance), b_comps
    )
    return AInfCategory(quiver, b)


class CheckEntry:
    def __init__(self, relation: str, n: int, word: str, residual: str, flag: str):
        self.relation = relation
        self.n = n
        self.word = word
        self.residual = residual
        self.flag = flag

    @property
    def ok(self) -> bool:
        return self.residual == "0"


def _hom_str(h: HomElement) -> str:
    if h.is_zero():
        return "0"
    return " + ".join(f"({novikov.format_scalar(c)})*{g.gid}" for g, c in h.terms)


def word_name(w: Word) -> str:
    return f"[]@{w.at}" if len(w) == 0 else ".".join(g.gid for g in w.gens)


def _word_checks(
    relation: str, quiver: FiltQuiver, n_max: int, values: Callable[[Sequence[Word]], List[HomElement]],
    window: TruncWindow,
) -> List[CheckEntry]:
    """One entry per basis word w: the residual, its value modulo the
    window, or UNDECIDED when its sums cannot be bounded.  The values are
    taken in one sweep over the basis (``Basis``), which gives only the
    words it does not send to zero: every other word's residual is 0.  If
    that sweep raises, the words run one at a time (as in ``_in_order``),
    and the words after an UNDECIDED one in another batch."""
    words = basis_words(quiver, n_max)
    try:
        swept = values(Basis(quiver, n_max))
        batch = (swept.get(w) for w in words)
    except FacalcError:
        batch = (values([w])[0] for w in words)
    entries: List[CheckEntry] = []
    for k, w in enumerate(words):
        try:
            value = next(batch)
            res_str, flag = "0" if value is None else _hom_str(hom_truncate(value, window)), "SOUND"
        except ConvergenceUndecided:
            res_str, flag = "?", "UNDECIDED"
            batch = _in_order(values, words[k + 1:])
        entries.append(CheckEntry(relation, len(w), word_name(w), res_str, flag))
    return entries


def check_b_squared(cat: AInfCategory, window: TruncWindow, n_max: int) -> List[CheckEntry]:
    """Residuals of the square of the codifferential on basis words."""
    one = novikov.one(cat.variant)
    slots = coderivation_slots(cat.b)
    return _word_checks("b2", cat.quiver, n_max, lambda ws: _transport(ws, slots, cat.b, window, one), window)


def check_ainf_functor(
    f: Cofunctor, src_cat: AInfCategory, dst_cat: AInfCategory, window: TruncWindow, n_max: int
) -> List[CheckEntry]:
    """Compare both composites of f with the codifferentials, word by word:
    the residual of the letter b0(f)."""
    if f.src.name != src_cat.quiver.name or f.dst.name != dst_cat.quiver.name:
        raise ObjectMismatch("functor does not run between the given structures")
    value = _letter_value((), f, src_cat, dst_cat, window)
    return _word_checks("functor", src_cat.quiver, n_max, value, window)


# ---------------------------------------------------------------------------
# The induced differential on coderivation quivers

def _letter_value(
    chain: Sequence[Coderivation], boundary: Cofunctor, src_cat: AInfCategory,
    dst_cat: AInfCategory, window: TruncWindow,
) -> Callable[[Sequence[Word]], List[HomElement]]:
    """The letter collapsing ``chain`` on a list of basis words: the chain
    (the boundary cofunctor when empty), then dst_cat.b; for a chain of
    length 0 or 1, minus (-1)^deg times src_cat.b folded through its entry
    or the boundary."""
    one = novikov.one(boundary.variant)
    slots = chain_slots(chain, boundary)
    src_slots = coderivation_slots(src_cat.b)
    inner = None if len(chain) > 1 else (chain[0] if chain else boundary)
    sign = -_crossing_sign(1, sum(r.deg for r in chain))

    def values(words):
        """As ``_transport``: a list for a list of words, by word for a
        ``Basis``."""
        outs = _transport(words, slots, dst_cat.b, window, one)
        if inner is None:
            return outs
        backs = _transport(words, src_slots, inner, window, one)
        for k, back in backs.items() if isinstance(words, Basis) else enumerate(backs):
            if not back.is_zero():
                signed = [(g, c if sign > 0 else novikov.nov_neg(c)) for g, c in back.terms]
                before = outs[k].terms if isinstance(outs, list) or k in outs else ()
                outs[k] = HomElement(back.src, back.dst, [*before, *signed])
        return outs

    return values


def _letter(
    chain: Sequence[Coderivation], boundary: Cofunctor, src_cat: AInfCategory,
    dst_cat: AInfCategory, window: TruncWindow, upto: Optional[int],
) -> Coderivation:
    """``_letter_value`` as the coderivation b{len}(names or boundary),
    extracted up to ``upto`` (default: the window length), lazy beyond."""
    f = chain[0].f if chain else boundary
    names = ",".join(r.name for r in chain) or boundary.name
    lvl = reduce(levels.level_add, (r.lvl for r in chain)) if chain else levels.zero(window.instance)
    bound = window.max_len if upto is None else upto
    value = _letter_value(chain, f, src_cat, dst_cat, window)
    comps, compute = _extract_components(value, f.src, window, bound)
    return coderivation_from_components(
        f"b{len(chain)}({names})", f, chain[-1].g if chain else f,
        1 + sum(r.deg for r in chain), lvl, comps, complete_upto=bound, compute=compute,
    )


def coder_b0(
    f: Cofunctor, src_cat: AInfCategory, dst_cat: AInfCategory, window: TruncWindow,
    upto: Optional[int] = None,
) -> Coderivation:
    """The (f,f)-coderivation measuring the failure of f to be a functor:
    f then b, minus b then f."""
    return _letter((), f, src_cat, dst_cat, window, upto)


def coder_b1(
    r: Coderivation, src_cat: AInfCategory, dst_cat: AInfCategory, window: TruncWindow,
    upto: Optional[int] = None,
) -> Coderivation:
    """Differential of a single coderivation: r then b, minus (-1)^r b then r."""
    return _letter((r,), r.f, src_cat, dst_cat, window, upto)


def coder_bn(
    chain: Sequence[Coderivation], src_cat: AInfCategory, dst_cat: AInfCategory, window: TruncWindow,
    upto: Optional[int] = None,
) -> Coderivation:
    """Higher components: evaluate the chain, then one codifferential letter."""
    if len(chain) < 2:
        raise FacalcError("coder_bn needs a chain of length >= 2")
    return _letter(chain, chain[0].f, src_cat, dst_cat, window, upto)


class CoderQuiver:
    """Finite slice of the quiver of cofunctors and coderivations."""

    def __init__(
        self,
        source: AInfCategory,
        target: AInfCategory,
        functors: List[Cofunctor],
        coderivations: List[Coderivation],
    ):
        self.source = source
        self.target = target
        self.functors = functors
        self.coderivations = coderivations
        self.b_cache: Dict[Tuple, Coderivation] = {}

    def differential_letter(
        self,
        chain: Tuple[Coderivation, ...],
        boundary: Cofunctor,
        window: TruncWindow,
        upto: Optional[int] = None,
    ) -> Coderivation:
        """The single coderivation obtained by collapsing a (possibly empty)
        sub-chain with one codifferential; cached by names and bound (the
        boundary names the letter only when the sub-chain is empty)."""
        key = (tuple(r.name for r in chain) or boundary.name, upto)
        if key not in self.b_cache:
            build, arg = (
                (coder_bn, chain) if len(chain) > 1 else (coder_b1, chain[0]) if chain else (coder_b0, boundary)
            )
            self.b_cache[key] = build(arg, self.source, self.target, window, upto)
        return self.b_cache[key]


def coder_differential_terms(
    Q: CoderQuiver,
    chain: Tuple[Coderivation, ...],
    boundary: Cofunctor,
    window: TruncWindow,
    upto: Optional[int] = None,
) -> List[Tuple[int, Tuple[Coderivation, ...]]]:
    """Expand the induced differential on a chain: insert one collapsed
    letter over every sub-chain, with the sign of crossing the trailing
    letters (the differential has odd degree)."""
    out: List[Tuple[int, Tuple[Coderivation, ...]]] = []
    n = len(chain)
    for i in range(n + 1):
        for j in range(i, n + 1):
            left = chain[:i]
            mid = chain[i:j]
            right = chain[j:]
            bound = left[-1].g if left else (mid[0].f if mid else (right[0].f if right else boundary))
            letter = Q.differential_letter(mid, bound, window, upto)
            if letter.is_zero_map(upto):
                continue
            # The inserted letter has odd degree and crosses the trailing
            # chain entries.
            sign = _crossing_sign(1, sum(r.deg for r in right))
            out.append((sign, left + (letter,) + right))
    return out


def _chain_checks(
    relation: str, Q: CoderQuiver, n_max: int, word_len_max: int, residual
) -> List[CheckEntry]:
    """One entry per listed chain and basis word a; ``residual(chain,
    boundary)`` maps a list of words to their (residual or None for an
    empty sum, flag), taken in one batch (``_in_order``).  A chain whose
    sums cannot be bounded ends with one UNDECIDED entry."""
    entries: List[CheckEntry] = []
    words = basis_words(Q.source.quiver, word_len_max)
    for chain, boundary in _chains(Q, n_max):
        name = _chain_name(chain, boundary)
        try:
            values = residual(chain, boundary)
            for a, (res, flag) in zip(words, _in_order(values, words)):
                res_str = "0" if res is None or res.is_zero() else repr(res)
                entries.append(CheckEntry(relation, len(chain), f"{name}|{word_name(a)}", res_str, str(flag)))
        except ConvergenceUndecided:
            entries.append(CheckEntry(relation, len(chain), name, "?", "UNDECIDED"))
    return entries


def check_coder_b_squared(
    Q: CoderQuiver, window: TruncWindow, n_max: int, word_len_max: int
) -> List[CheckEntry]:
    """Square of the induced differential, evaluated against basis words."""
    one = novikov.one(Q.source.variant)

    def residual(chain, boundary):
        second = chain_ops([
            (s1 * s2, ch2)
            for s1, ch1 in coder_differential_terms(Q, chain, boundary, window, upto=word_len_max)
            for s2, ch2 in coder_differential_terms(Q, ch1, boundary, window, upto=word_len_max)
        ], boundary)
        return lambda words: chain_sum(words, one, second, window)

    return _chain_checks("coder-b2", Q, n_max, word_len_max, residual)


def check_transfer_identity(
    Q: CoderQuiver, window: TruncWindow, n_max: int, word_len_max: int
) -> List[CheckEntry]:
    """The identity characterizing the induced differential: evaluating a
    chain then applying the codifferential equals evaluating the
    differentiated chain plus (sign) evaluating against the differentiated
    word."""
    one = novikov.one(Q.source.variant)

    def residual(chain, boundary):
        expansion = chain_ops([
            (-s, ch) for s, ch in coder_differential_terms(Q, chain, boundary, window, upto=word_len_max)
        ], boundary)

        def values(words: Sequence[Word]) -> List[Tuple[TensorElement, Flag]]:
            out = []
            for a, (expanded, f3) in zip(words, chain_sum(words, one, expansion, window)):
                elem = TensorElement.from_word(a, one)
                val, f1 = chain_eval(elem, chain, window, boundary=boundary)
                lhs, f2 = slot_value(val, coderivation_slots(Q.target.b), window)
                ba, f4 = slot_value(elem, coderivation_slots(Q.source.b), window)
                piece, f5 = chain_eval(ba, chain, window, boundary=boundary)
                pieces = [(1, lhs), (-_crossing_sign(1, sum(r.deg for r in chain)), piece)]
                if expanded is not None:
                    pieces.append((1, expanded))
                res, f6 = tcoalg.truncate_element(tcoalg._signed_sum(pieces), window)
                out.append((res, tcoalg.join_flags(f1, f2, f3, f4, f5, f6)))
            return out

        return values

    return _chain_checks("transfer", Q, n_max, word_len_max, residual)


def _chain_name(chain: Tuple[Coderivation, ...], boundary: Cofunctor) -> str:
    return "1_" + boundary.name if not chain else "(" + ",".join(r.name for r in chain) + ")"


def _chains(Q: CoderQuiver, n_max: int):
    """All composable chains of listed coderivations up to length n_max,
    including the empty chain at every listed functor."""
    for f in Q.functors:
        yield (), f
    frontier: List[Tuple[Coderivation, ...]] = [(r,) for r in Q.coderivations]
    for ch in frontier:
        yield ch, ch[0].f
    length = 1
    while length < n_max:
        nxt: List[Tuple[Coderivation, ...]] = []
        for ch in frontier:
            for r in Q.coderivations:
                if ch[-1].g.name == r.f.name:
                    ext = ch + (r,)
                    nxt.append(ext)
                    yield ext, ext[0].f
        frontier = nxt
        length += 1
