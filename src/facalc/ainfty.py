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

Every check and every letter b0, b1, bn evaluates a basis word and folds
the value through one morphism's components (``morphisms.family_value``,
re-exported here); the letters are extracted with
``morphisms._extract_components``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import levels, novikov, tcoalg
from .errors import ConvergenceUndecided, FacalcError, ObjectMismatch
from .filtquiver import FiltQuiver, HomElement, koszul_sign
from .levels import Level
from .morphisms import (
    Coderivation,
    Cofunctor,
    Components,
    _extract_components,
    _transport,
    chain_eval,
    chain_slots,
    coderivation_from_components,
    coderivation_slots,
    cofunctor_slots,
    family_value,  # re-exported: the fold is part of this module's API
    hom_truncate,
    identity_cofunctor,
    slot_value,
)
from .tcoalg import Flag, TensorElement, TruncWindow, Word, basis_words


def shift_degree(declared: int) -> int:
    """Stored degree of a generator declared with its unshifted degree."""
    return declared - 1


def unshift_degree(sdeg: int) -> int:
    return sdeg + 1


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

    def is_curved(self) -> bool:
        return bool(self.b.comps.get(0))


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


@dataclass
class CheckEntry:
    relation: str
    n: int
    word: str
    residual: str
    flag: str

    @property
    def ok(self) -> bool:
        return self.residual == "0"


def _hom_str(h: HomElement) -> str:
    if h.is_zero():
        return "0"
    return " + ".join(f"({novikov.format_scalar(c)})*{g.gid}" for g, c in h.terms)


def word_name(w: Word) -> str:
    return f"[]@{w.at}" if len(w) == 0 else ".".join(g.gid for g in w.gens)


def check_b_squared(cat: AInfCategory, window: TruncWindow, n_max: int) -> List[CheckEntry]:
    """Residuals of the square of the codifferential on basis words."""
    entries: List[CheckEntry] = []
    one = novikov.one(cat.variant)
    slots = coderivation_slots(cat.b)
    for w in basis_words(cat.quiver, n_max):
        try:
            residual = hom_truncate(_transport(w, slots, cat.b, window, one), window)
            res_str = "0" if residual.is_zero() else _hom_str(residual)
            flag = "SOUND"
        except ConvergenceUndecided:
            res_str, flag = "?", "UNDECIDED"
        entries.append(CheckEntry("b2", len(w), word_name(w), res_str, flag))
    return entries


def check_ainf_functor(
    f: Cofunctor, src_cat: AInfCategory, dst_cat: AInfCategory, window: TruncWindow, n_max: int
) -> List[CheckEntry]:
    """Compare both composites of f with the codifferentials, word by word."""
    if f.src.name != src_cat.quiver.name or f.dst.name != dst_cat.quiver.name:
        raise ObjectMismatch("functor does not run between the given structures")
    entries: List[CheckEntry] = []
    one = novikov.one(f.variant)
    for w in basis_words(src_cat.quiver, n_max):
        try:
            then_b = _transport(w, cofunctor_slots(f), dst_cat.b, window, one)
            then_f = _transport(w, coderivation_slots(src_cat.b), f, window, one)
            residual = hom_truncate(then_b.add(then_f.neg()), window)
            res_str = "0" if residual.is_zero() else _hom_str(residual)
            flag = "SOUND"
        except ConvergenceUndecided:
            res_str, flag = "?", "UNDECIDED"
        entries.append(CheckEntry("functor", len(w), word_name(w), res_str, flag))
    return entries


# ---------------------------------------------------------------------------
# The induced differential on coderivation quivers

def _extract_coderivation(
    name: str,
    f: Cofunctor,
    g: Cofunctor,
    deg: int,
    lvl: Level,
    component,
    window: TruncWindow,
    upto: Optional[int] = None,
) -> Coderivation:
    bound = window.max_len if upto is None else upto
    comps, compute = _extract_components(component, f.src, window, bound)
    out = coderivation_from_components(
        name, f, g, deg, lvl, comps, complete_upto=bound
    )
    out.compute = compute
    return out


def coder_b0(
    f: Cofunctor,
    src_cat: AInfCategory,
    dst_cat: AInfCategory,
    window: TruncWindow,
    upto: Optional[int] = None,
) -> Coderivation:
    """The (f,f)-coderivation measuring the failure of f to be a functor:
    f then b, minus b then f."""
    one = novikov.one(f.variant)

    def component(w: Word) -> HomElement:
        fb = _transport(w, cofunctor_slots(f), dst_cat.b, window, one)
        bf = _transport(w, coderivation_slots(src_cat.b), f, window, one)
        return fb.add(bf.neg())

    return _extract_coderivation(
        f"b0({f.name})", f, f, 1, levels.zero(window.instance), component, window, upto
    )


def coder_b1(
    r: Coderivation,
    src_cat: AInfCategory,
    dst_cat: AInfCategory,
    window: TruncWindow,
    upto: Optional[int] = None,
) -> Coderivation:
    """Differential of a single coderivation: r then b, minus (-1)^r b then r."""
    one = novikov.one(r.variant)
    sign = -1 if r.deg % 2 else 1

    def component(w: Word) -> HomElement:
        rb = _transport(w, coderivation_slots(r), dst_cat.b, window, one)
        br = _transport(w, coderivation_slots(src_cat.b), r, window, one).rat_scale(-sign)
        return rb.add(br)

    return _extract_coderivation(
        f"b1({r.name})", r.f, r.g, r.deg + 1, r.lvl, component, window, upto
    )


def coder_bn(
    chain: Sequence[Coderivation],
    src_cat: AInfCategory,
    dst_cat: AInfCategory,
    window: TruncWindow,
    upto: Optional[int] = None,
) -> Coderivation:
    """Higher components: evaluate the chain, then one codifferential letter."""
    if len(chain) < 2:
        raise FacalcError("coder_bn needs a chain of length >= 2")
    one = novikov.one(chain[0].variant)
    deg = 1 + sum(r.deg for r in chain)
    lvl = levels.zero(window.instance)
    for r in chain:
        lvl = levels.level_add(lvl, r.lvl)

    def component(w: Word) -> HomElement:
        return _transport(w, chain_slots(chain, chain[0].f), dst_cat.b, window, one)

    name = f"b{len(chain)}(" + ",".join(r.name for r in chain) + ")"
    return _extract_coderivation(
        name, chain[0].f, chain[-1].g, deg, lvl, component, window, upto
    )


@dataclass
class CoderQuiver:
    """Finite slice of the quiver of cofunctors and coderivations."""

    source: AInfCategory
    target: AInfCategory
    functors: List[Cofunctor]
    coderivations: List[Coderivation]
    b_cache: Dict[Tuple, Coderivation] = field(default_factory=dict)

    def differential_letter(
        self,
        chain: Tuple[Coderivation, ...],
        boundary: Cofunctor,
        window: TruncWindow,
        upto: Optional[int] = None,
    ) -> Coderivation:
        """The single coderivation obtained by collapsing a (possibly empty)
        sub-chain with one codifferential; cached by names and bound."""
        if not chain:
            key = ("b0", boundary.name, upto)
            if key not in self.b_cache:
                self.b_cache[key] = coder_b0(boundary, self.source, self.target, window, upto)
        elif len(chain) == 1:
            key = ("b1", chain[0].name, upto)
            if key not in self.b_cache:
                self.b_cache[key] = coder_b1(chain[0], self.source, self.target, window, upto)
        else:
            key = ("bn",) + tuple(r.name for r in chain) + (upto,)
            if key not in self.b_cache:
                self.b_cache[key] = coder_bn(chain, self.source, self.target, window, upto)
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
            if letter.is_zero_map():
                continue
            # The inserted letter has odd degree and crosses the trailing
            # chain entries.
            sign = koszul_sign(
                [0] * len(left) + [1] + [0] * len(right),
                [r.deg for r in left] + [sum(r.deg for r in mid)] + [r.deg for r in right],
            )
            out.append((sign, left + (letter,) + right))
    return out


def check_coder_b_squared(
    Q: CoderQuiver, window: TruncWindow, n_max: int, word_len_max: int
) -> List[CheckEntry]:
    """Square of the induced differential, evaluated against basis words."""
    entries: List[CheckEntry] = []
    one = novikov.one(Q.source.variant)
    for chain, boundary in _chains(Q, n_max):
        try:
            first = coder_differential_terms(Q, chain, boundary, window, upto=word_len_max)
            second: List[Tuple[int, Tuple[Coderivation, ...]]] = []
            for s1, ch1 in first:
                for s2, ch2 in coder_differential_terms(Q, ch1, boundary, window, upto=word_len_max):
                    second.append((s1 * s2, ch2))
            for a in basis_words(Q.source.quiver, word_len_max):
                residual = None
                flag = Flag.SOUND
                for s, ch in second:
                    val, fl = chain_eval(
                        TensorElement.from_word(a, one), ch, window, boundary=boundary
                    )
                    flag = tcoalg.join_flags(flag, fl)
                    val = val if s == 1 else val.neg()
                    residual = val if residual is None else residual.add(val)
                res_str = "0" if residual is None or residual.is_zero() else repr(residual)
                entries.append(
                    CheckEntry(
                        "coder-b2",
                        len(chain),
                        _chain_name(chain, boundary) + "|" + word_name(a),
                        res_str,
                        str(flag),
                    )
                )
        except ConvergenceUndecided:
            entries.append(
                CheckEntry("coder-b2", len(chain), _chain_name(chain, boundary), "?", "UNDECIDED")
            )
    return entries


def check_transfer_identity(
    Q: CoderQuiver, window: TruncWindow, n_max: int, word_len_max: int
) -> List[CheckEntry]:
    """The identity characterizing the induced differential: evaluating a
    chain then applying the codifferential equals evaluating the
    differentiated chain plus (sign) evaluating against the differentiated
    word."""
    entries: List[CheckEntry] = []
    one = novikov.one(Q.source.variant)
    for chain, boundary in _chains(Q, n_max):
        try:
            expansion = coder_differential_terms(Q, chain, boundary, window, upto=word_len_max)
            for a in basis_words(Q.source.quiver, word_len_max):
                elem = TensorElement.from_word(a, one)
                val, f1 = chain_eval(elem, chain, window, boundary=boundary)
                lhs, f2 = slot_value(val, coderivation_slots(Q.target.b), window)
                rhs = None
                flag = tcoalg.join_flags(f1, f2)
                for s, ch in expansion:
                    piece, fl = chain_eval(elem, ch, window, boundary=boundary)
                    flag = tcoalg.join_flags(flag, fl)
                    piece = piece if s == 1 else piece.neg()
                    rhs = piece if rhs is None else rhs.add(piece)
                ba, f3 = slot_value(elem, coderivation_slots(Q.source.b), window)
                flag = tcoalg.join_flags(flag, f3)
                piece, f4 = chain_eval(ba, chain, window, boundary=boundary)
                flag = tcoalg.join_flags(flag, f4)
                total_deg = sum(r.deg for r in chain)
                if total_deg % 2:
                    piece = piece.neg()
                rhs = piece if rhs is None else rhs.add(piece)
                residual = lhs.add(rhs.neg())
                residual, f5 = tcoalg.truncate_element(residual, window)
                flag = tcoalg.join_flags(flag, f5)
                res_str = "0" if residual.is_zero() else repr(residual)
                entries.append(
                    CheckEntry(
                        "transfer",
                        len(chain),
                        _chain_name(chain, boundary) + "|" + word_name(a),
                        res_str,
                        str(flag),
                    )
                )
        except ConvergenceUndecided:
            entries.append(
                CheckEntry("transfer", len(chain), _chain_name(chain, boundary), "?", "UNDECIDED")
            )
    return entries


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
