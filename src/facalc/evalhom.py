"""Evaluation of coderivation chains, the component solver, and chain
composition.

``ev`` evaluates a mixed element (source element paired with a chain of
coderivations) by splitting the element into alternating zones, applying the
endpoint cofunctors and one component of each chain entry, and concatenating.

``multi_box_splits`` splits a product of factor words into blocks; its
interchange sign is ``koszul_sign`` per pair of factors.

``solve_psi`` inverts the pairing: given the values of a cofunctor on mixed
elements (with the chain side a product of tensor factors), it recovers the
unique family of coderivations whose evaluation reproduces those values.
The recursion runs over the product of word lengths: the correction sum only
involves strictly shorter factor words, and terminates because long words
split trivially.  Components are read off the values with
``morphisms._extract_components``.  Every solved component is re-evaluated
and compared against its defining values; a mismatch (the input was not
actually compatible with the comultiplications) raises LeibnizResidual.

``compose_chain`` realizes composition of coderivation chains through the
solver applied to iterated evaluation, and ``unit_chain`` the two-sided unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import levels, novikov
from .errors import FacalcError, LeibnizResidual
from .filtquiver import FiltQuiver, HomGenerator, koszul_sign
from .morphisms import (
    Coderivation,
    Cofunctor,
    _extract_components,
    chain_eval,
    coderivation_from_components,
    coderivation_slots,
    cofunctor_from_components,
    hom_truncate,
    identity_cofunctor,
    slot_value,
)
from .tcoalg import (
    Flag,
    TensorElement,
    TruncWindow,
    Word,
    _signed_sum,
    basis_words,
    join_flags,
    seq_splits,
    truncate_element,
    word_blocks,
)


def ev(
    a: TensorElement,
    chain: Sequence[Coderivation],
    window: TruncWindow,
    boundary: Optional[Cofunctor] = None,
    length_truncate: bool = True,
) -> Tuple[TensorElement, Flag]:
    """Evaluate a source element against a chain of coderivations.

    For the empty chain this is the boundary cofunctor's action; for a
    single entry it agrees with evaluating that coderivation.  Pass
    length_truncate=False when the value feeds a further evaluation whose
    zone maps may shorten words again; truncating in between would lose
    contributions that belong inside the window.
    """
    return chain_eval(a, chain, window, boundary=boundary, length_truncate=length_truncate)


# ---------------------------------------------------------------------------
# Splits of products of tensor factors

CWordKey = Tuple[Tuple[str, Tuple[str, ...]], ...]
CObjKey = Tuple[str, ...]


def cword_key(cwords: Sequence[Word]) -> CWordKey:
    # The base object disambiguates empty factor words.
    return tuple((w.src, tuple(g.gid for g in w.gens)) for w in cwords)


def cword_src(cwords: Sequence[Word]) -> CObjKey:
    return tuple(w.src for w in cwords)


def cword_dst(cwords: Sequence[Word]) -> CObjKey:
    return tuple(w.dst for w in cwords)


def multi_box_splits(
    cwords: Sequence[Word], k: int, nonempty: bool
) -> Iterator[Tuple[Tuple[Tuple[Word, ...], ...], int]]:
    """Split a product word into k blocks of factor sub-words.

    A block is a tuple with one sub-word per factor; with nonempty=True every
    block has positive total length.  The sign is the interchange sign of the
    unshuffle: for each pair of factors s < t, the ``koszul_sign`` of factor
    t's blocks acting as operators on factor s's blocks.
    """
    q = len(cwords)
    per_factor = [list(seq_splits(len(w), k, allow_empty=True)) for w in cwords]
    for combo in product(*per_factor):
        blocks = [word_blocks(cwords[s], combo[s]) for s in range(q)]
        if nonempty and any(
            sum(len(blocks[s][i]) for s in range(q)) == 0 for i in range(k)
        ):
            continue
        sign = 1
        for s in range(q):
            for t in range(s + 1, q):
                sign *= koszul_sign([b.sdeg for b in blocks[t]], [b.sdeg for b in blocks[s]])
        yield tuple(tuple(blocks[s][i] for s in range(q)) for i in range(k)), sign


# ---------------------------------------------------------------------------
# The solver

@dataclass
class PsiSolution:
    """Cofunctors at factor objects plus one coderivation per factor word."""

    a_quiver: FiltQuiver
    factors: Tuple[FiltQuiver, ...]
    objects: Dict[CObjKey, Cofunctor] = field(default_factory=dict)
    comps: Dict[CWordKey, Coderivation] = field(default_factory=dict)

    def object_at(self, key: CObjKey) -> Cofunctor:
        try:
            return self.objects[key]
        except KeyError:
            raise FacalcError(f"no solved cofunctor at objects {key!r}") from None

    def component(self, cwords: Sequence[Word]) -> Coderivation:
        key = cword_key(cwords)
        try:
            return self.comps[key]
        except KeyError:
            raise FacalcError(f"no solved component at {key!r}") from None

    def full_chains(
        self, cwords: Sequence[Word]
    ) -> List[Tuple[int, Tuple[Coderivation, ...], Cofunctor]]:
        """Expansion of the full cofunctor value on a factor word: all
        reduced splits, each block replaced by its solved coderivation."""
        total = sum(len(w) for w in cwords)
        boundary = self.object_at(cword_src(cwords))
        if total == 0:
            return [(1, (), boundary)]
        out = []
        for k in range(1, total + 1):
            for blocks, sign in multi_box_splits(cwords, k, nonempty=True):
                out.append((sign, tuple(self.component(b) for b in blocks), boundary))
        return out

    def apply(
        self, a: TensorElement, cwords: Sequence[Word], window: TruncWindow
    ) -> Tuple[TensorElement, Flag]:
        """Evaluate (a, factor word) through the solved family: the pairing
        this solution was solved from, reconstructed."""
        pieces = []
        flag = Flag.SOUND
        for sign, chain, boundary in self.full_chains(cwords):
            piece, fl = ev(a, chain, window, boundary=boundary)
            flag = join_flags(flag, fl)
            pieces.append((sign, piece))
        return _signed_sum(pieces), flag


PhiValues = Callable[[TensorElement, Sequence[Word]], TensorElement]
PhiObjMap = Callable[[str, CObjKey], str]


def solve_psi(
    phi: PhiValues,
    phi_obj: PhiObjMap,
    a_quiver: FiltQuiver,
    target: FiltQuiver,
    factors: Sequence[FiltQuiver],
    window: TruncWindow,
    variant: str,
    max_factor_len: Optional[Tuple[int, ...]] = None,
) -> PsiSolution:
    """Recover the coderivation family from the values of a pairing.

    ``phi`` must return, for a source element and a tuple of factor words,
    the value of a comultiplication-compatible pairing into the completed
    tensor cocategory of ``target``.  Components are extracted for source
    words up to the window length and factor words up to ``max_factor_len``
    (defaulting to the window length per factor).
    """
    q = len(factors)
    if q < 1:
        raise FacalcError("solve_psi needs at least one factor")
    bounds = max_factor_len or tuple(window.max_len for _ in factors)
    sol = PsiSolution(a_quiver, tuple(factors))
    one = novikov.one(variant)
    a_words = basis_words(a_quiver, window.max_len)

    # Objects: empty factor words define plain cofunctors.
    for objs in product(*(f.objects for f in factors)):
        empties = tuple(Word(o) for o in objs)
        comps, compute = _extract_components(
            lambda w, _e=empties: phi(TensorElement.from_word(w, one), _e).pr1_hom(),
            a_quiver,
            window,
        )
        obj_map = {x: phi_obj(x, objs) for x in a_quiver.objects}
        g = cofunctor_from_components(
            f"psi@{','.join(objs)}",
            a_quiver,
            target,
            obj_map,
            comps,
            window,
            variant,
        )
        g.complete_upto = window.max_len
        g.compute = compute
        sol.objects[objs] = g
        # Consistency: the full cofunctor must reproduce phi on all words.
        for w in a_words:
            got, _ = chain_eval(TensorElement.from_word(w, one), (), window, boundary=g)
            want, _ = truncate_element(phi(TensorElement.from_word(w, one), empties), window)
            if got != want:
                raise LeibnizResidual(
                    f"pairing is not comultiplication-compatible at objects {objs}, word {w!r}"
                )

    # Components, by increasing total factor length.
    cwords_by_len: Dict[int, List[Tuple[Word, ...]]] = {}
    factor_words = [basis_words(f, b) for f, b in zip(factors, bounds)]
    for combo in product(*factor_words):
        total = sum(len(w) for w in combo)
        if total >= 1:
            cwords_by_len.setdefault(total, []).append(tuple(combo))

    for total in sorted(cwords_by_len):
        for cwords in cwords_by_len[total]:
            rhs: Dict[Word, TensorElement] = {}
            for w in a_words:
                elem = TensorElement.from_word(w, one)
                rhs[w], _ = truncate_element(
                    _rhs_value(phi, sol, elem, cwords, window), window
                )
            # Read the components off the values the check below needs;
            # the lazy compute below evaluates words beyond the window.
            comps, _ = _extract_components(lambda w: rhs[w].pr1_hom(), a_quiver, window)
            f0 = sol.object_at(cword_src(cwords))
            g0 = sol.object_at(cword_dst(cwords))
            deg = sum(w.sdeg for w in cwords)
            lvl = levels.zero(window.instance)
            for w in cwords:
                lvl = levels.level_add(lvl, w.base_level(window.instance))
            r = coderivation_from_components(
                f"psi({_key_name(cword_key(cwords))})",
                f0,
                g0,
                deg,
                lvl,
                comps,
                complete_upto=window.max_len,
            )
            r.compute = lambda w, _c=cwords: hom_truncate(
                _rhs_value(phi, sol, TensorElement.from_word(w, one), _c, window).pr1_hom(),
                window,
            )
            # Coderivation consistency: the reconstruction must reproduce
            # the defining values on every tested word.
            for w in a_words:
                got, _ = slot_value(
                    TensorElement.from_word(w, one), coderivation_slots(r), window
                )
                if got != rhs[w]:
                    raise LeibnizResidual(
                        f"solved component at {cword_key(cwords)} fails on {w!r}"
                    )
            sol.comps[cword_key(cwords)] = r
    return sol


def _rhs_value(
    phi: "PhiValues",
    sol: PsiSolution,
    elem: TensorElement,
    cwords: Sequence[Word],
    window: TruncWindow,
) -> TensorElement:
    """Pairing value minus the correction sum over proper factor splits."""
    total = sum(len(w) for w in cwords)
    pieces = [(1, phi(elem, cwords))]
    for k in range(2, total + 1):
        for blocks, sign in multi_box_splits(cwords, k, nonempty=True):
            chain = tuple(sol.component(b) for b in blocks)
            piece, _ = ev(elem, chain, window)
            pieces.append((-sign, piece))
    return _signed_sum(pieces)


def _key_name(key: CWordKey) -> str:
    return ";".join(".".join(gids) if gids else f"()@{src}" for src, gids in key)


# ---------------------------------------------------------------------------
# Composition of chains through the solver

def _letter_quiver(
    name: str, chain: Sequence[Coderivation], boundary: Optional[Cofunctor]
) -> Tuple[FiltQuiver, Dict[str, Coderivation], Dict[str, Cofunctor]]:
    """A synthetic one-lane quiver whose letters name the chain entries and
    whose objects name the endpoint cofunctors."""
    functors: Dict[str, Cofunctor] = {}
    letters: Dict[str, Coderivation] = {}
    objs: List[str] = []
    gens: List[HomGenerator] = []
    seq = list(chain)
    endpoints = [seq[0].f] + [r.g for r in seq] if seq else [boundary]
    for i, f in enumerate(endpoints):
        oname = f"{name}.o{i}"
        objs.append(oname)
        functors[oname] = f
    for i, r in enumerate(seq):
        gid = f"{name}.r{i}"
        letters[gid] = r
        gens.append(HomGenerator(gid, f"{name}.o{i}", f"{name}.o{i+1}", r.deg, r.lvl))
    return FiltQuiver(name, objs, gens), letters, functors


def _chain_of(words: Sequence[Word], letters: Dict[str, Coderivation]) -> Tuple[Coderivation, ...]:
    out: List[Coderivation] = []
    for w in words:
        out.extend(letters[g.gid] for g in w.gens)
    return tuple(out)


def compose_chain(
    rchain: Sequence[Coderivation],
    tchain: Sequence[Coderivation],
    window: TruncWindow,
    r_boundary: Optional[Cofunctor] = None,
    t_boundary: Optional[Cofunctor] = None,
) -> PsiSolution:
    """Solve the composition pairing for two chains: evaluating the first
    chain and feeding the result to the second.  The returned solution holds
    the composite cofunctors at empty words and one coderivation per pair of
    sub-words; the full input pair's component is ``solution.component`` at
    the corresponding key."""
    C1, letters1, functors1 = _letter_quiver("L", rchain, r_boundary)
    C2, letters2, functors2 = _letter_quiver("R", tchain, t_boundary)
    a_quiver = (rchain[0].f if rchain else r_boundary).src
    target = (tchain[0].f if tchain else t_boundary).dst
    variant = (rchain[0] if rchain else r_boundary).variant

    def phi(a: TensorElement, cwords: Sequence[Word]) -> TensorElement:
        u, v = cwords
        mid, _ = ev(
            a, _chain_of([u], letters1), window,
            boundary=functors1[u.src], length_truncate=False,
        )
        out, _ = ev(
            mid, _chain_of([v], letters2), window,
            boundary=functors2[v.src], length_truncate=False,
        )
        return out

    def phi_obj(a_obj: str, c_objs: CObjKey) -> str:
        f = functors1[c_objs[0]]
        h = functors2[c_objs[1]]
        return h.obj_map[f.obj_map[a_obj]]

    return solve_psi(
        phi,
        phi_obj,
        a_quiver,
        target,
        [C1, C2],
        window,
        variant,
        max_factor_len=(len(rchain), len(tchain)),
    )


def compose_chain_component(
    rchain: Sequence[Coderivation],
    tchain: Sequence[Coderivation],
    window: TruncWindow,
    r_boundary: Optional[Cofunctor] = None,
    t_boundary: Optional[Cofunctor] = None,
):
    """The top component of the composition pairing: a coderivation when
    either chain is non-empty, the composite cofunctor otherwise."""
    sol = compose_chain(rchain, tchain, window, r_boundary, t_boundary)
    if not rchain and not tchain:
        return sol.object_at(("L.o0", "R.o0"))
    key = (
        ("L.o0", tuple(f"L.r{i}" for i in range(len(rchain)))),
        ("R.o0", tuple(f"R.r{i}" for i in range(len(tchain)))),
    )
    return sol.comps[key]


def unit_chain(quiver: FiltQuiver, window: TruncWindow, variant: str) -> Cofunctor:
    """The unit for chain composition: the identity cofunctor, so that
    evaluating any element against the empty chain at it is the identity."""
    return identity_cofunctor(quiver, window.instance, variant)
