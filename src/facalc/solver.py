"""The component solver: it recovers a cofunctor's components from the
values of a pairing, one factor word at a time.

``PsiSolution.full_chains`` splits a product of factor words in one walk
over cut positions that carries the interchange sign step by step, and
turns each split into a signed chain of solved components, which
``morphisms.chain_sum`` evaluates and sums over all the source words of a
call, one sweep of the block engine per chain into one accumulation per
word; a chain the engine finds zero sweeps nothing.

``solve_psi`` inverts the pairing: given the values of a cofunctor on mixed
elements (with the chain side a product of tensor factors), it recovers the
unique family indexed by the factor words whose evaluation reproduces those
values.  It takes one step per factor word, in order of total length.  The
values on all the source words are the pairing (``PhiValues``, on a list of
words) minus the correction sum over the word's proper splits, whose
chains only involve strictly shorter factor words, are built once per
word, and are empty at total length 0 and 1.  Their components are read
off with ``morphisms._extract_components`` and built into a cofunctor at an
empty factor word (the objects) or a coderivation at any other word.  The
reconstruction is then re-evaluated on every source word and compared with
the values; a mismatch (the input was not actually compatible with the
comultiplications) raises LeibnizResidual.

``psi_fixture`` assembles a structure file's declared solver section into
the family ``solve-psi`` evaluates.  That command is the only one that
imports this module; ``evalhom`` builds chain composition on it.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from . import levels, novikov
from .errors import FacalcError, LeibnizResidual, ParseError, ResolveError
from .filtquiver import FiltQuiver, _crossing_sign
from .morphisms import (
    Basis,
    Coderivation,
    Cofunctor,
    _extract_components,
    _in_order,
    chain_sum,
    coderivation_from_components,
    cofunctor_from_components,
)
from .novikov import NovikovScalar
from .tcoalg import (
    Flag,
    TensorElement,
    TruncWindow,
    Word,
    _signed_sum,
    basis_words,
    quiver_word,
    truncate_element,
)

if TYPE_CHECKING:
    from .structfile import Model


# ---------------------------------------------------------------------------
# Splits of products of tensor factors

CWordKey = Tuple[Tuple[str, Tuple[str, ...]], ...]
CObjKey = Tuple[str, ...]


def cword_key(cwords: Sequence[Word]) -> CWordKey:
    # The base object disambiguates empty factor words.
    return tuple((w.src, w.gids) for w in cwords)


def cword_src(cwords: Sequence[Word]) -> CObjKey:
    return tuple(w.src for w in cwords)


def cword_dst(cwords: Sequence[Word]) -> CObjKey:
    return tuple(w.dst for w in cwords)


# ---------------------------------------------------------------------------
# The solver

class PsiSolution:
    """Cofunctors at factor objects plus one coderivation per factor word,
    each set once and never replaced (``solve_psi`` sets them in order of
    total length)."""

    def __init__(self, a_quiver: Optional[FiltQuiver], factors: Tuple[FiltQuiver, ...]):
        self.a_quiver = a_quiver
        self.factors = factors
        self.objects: Dict[CObjKey, Cofunctor] = {}
        self.comps: Dict[CWordKey, Coderivation] = {}

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
        self, cwords: Sequence[Word], least: int = 1
    ) -> List[Tuple[int, Tuple[Coderivation, ...]]]:
        """The signed chains of the splits of a factor word into at least
        ``least`` nonempty blocks, each block replaced by its solved
        coderivation.  ``least=1`` expands the full cofunctor value, which
        on an empty factor word is the empty chain at the boundary
        ``object_at(cword_src(cwords))``; ``least=2`` the proper splits.

        One walk over cut positions: a step takes the next block of every
        factor, nonempty in total.  The interchange sign, ``koszul_sign`` of
        factor t's blocks on factor s's for each s < t, is carried per step:
        factor s's new block crosses the blocks every later factor has
        taken so far.  A step that would end the word with fewer than
        ``least`` blocks is skipped before its lookup (at ``least=2``, the
        unsplit word, which is the one being solved)."""
        ends = tuple(len(w) for w in cwords)
        if not any(ends):
            return [(1, ())] if least <= 1 else []
        # sub[s][i][j]: factor s's block between cut positions i <= j, a kept word.
        sub = [[[quiver_word(f, w.gids[i:j] or at) for j in range(len(w) + 1)]
                for i, at in enumerate([w.src] + [g.dst for g in w.gens])] for f, w in zip(self.factors, cwords)]
        out: List[Tuple[int, Tuple[Coderivation, ...]]] = []

        def walk(cuts: Tuple[int, ...], sign: int, chain: Tuple[Coderivation, ...]) -> None:
            if cuts == ends:
                out.append((sign, chain))
                return
            taken = [sub[t][0][c].sdeg for t, c in enumerate(cuts)]
            for nxt in product(*(range(c, n + 1) for c, n in zip(cuts, ends))):
                if nxt == cuts or (nxt == ends and len(chain) + 1 < least):
                    continue
                blocks = [sub[s][c][d] for s, (c, d) in enumerate(zip(cuts, nxt))]
                step = sign
                for s, b in enumerate(blocks):
                    step *= _crossing_sign(b.sdeg, sum(taken[s + 1:]))
                walk(nxt, step, chain + (self.component(blocks),))

        walk(tuple(0 for _ in ends), 1, ())
        return out

    def apply(
        self, words: Sequence[Word], c: NovikovScalar, cwords: Sequence[Word], window: TruncWindow
    ) -> List[Tuple[TensorElement, Flag]]:
        """Evaluate (c*w, factor word) through the solved family, for each
        w of words: the pairing this solution was solved from,
        reconstructed, as one ``chain_sum`` over the factor word's chains
        (``full_chains``)."""
        return chain_sum(words, c, self.full_chains(cwords), window, self.object_at(cword_src(cwords)))


# The pairing on source words (coefficient 1) and a factor word: one value each.
PhiValues = Callable[[Sequence[Word], Sequence[Word]], List[TensorElement]]
PhiObjMap = Callable[[str, CObjKey], str]


def psi_fixture(model: Model, window: TruncWindow, max_len: int) -> PsiSolution:
    """Assemble the file's declared solver section (``model.psi``) into an
    evaluable family on factor words up to max_len.  The checks name
    ``solve-psi``, the one command that reads the section; the ``gen_map``
    ones run if max_len or the window length is at least 1."""
    spec = model.psi
    assert spec is not None
    if not spec.source.objects:
        # The solver's source and target quivers are those of a declared object.
        raise ParseError("$.psi.source", f"source quiver {spec.source.name!r} has no objects")
    sol = PsiSolution(None, (spec.source,))
    for o in spec.source.objects:
        sol.objects[(o,)] = model.functors[spec.obj_map[o]]
    for w in basis_words(spec.source, max(max_len, min(window.max_len, 1)), include_empty=False):
        key = cword_key((w,))
        if len(w) == 1:
            gid = w.gens[0].gid
            if gid not in spec.gen_map:
                raise ResolveError(f"solve-psi: generator {gid!r} missing from gen_map")
            r = model.coderivations[spec.gen_map[gid]]
            g = spec.source.gen(gid)
            if g.sdeg != r.deg:
                raise ResolveError(f"solve-psi: degree of {gid!r} differs from {r.name!r}")
            if (r.f.name, r.g.name) != (
                spec.obj_map[g.src],
                spec.obj_map[g.dst],
            ):
                raise ResolveError(f"solve-psi: endpoints of {gid!r} differ from {r.name!r}")
            sol.comps[key] = r
        else:
            f0 = sol.objects[(w.src,)]
            g0 = sol.objects[(w.dst,)]
            sol.comps[key] = coderivation_from_components(
                f"zero@{key}", f0, g0, w.sdeg, w.base_level(window.instance), {}
            )
    sol.a_quiver = next(iter(sol.objects.values())).src
    return sol


def solve_psi(
    phi: PhiValues,
    phi_obj: PhiObjMap,
    a_quiver: FiltQuiver,
    target: FiltQuiver,
    factors: Sequence[FiltQuiver],
    window: TruncWindow,
    variant: str,
    max_factor_len: Tuple[int, ...],
) -> PsiSolution:
    """Recover the coderivation family from the values of a pairing.

    ``phi`` must return, for a source element and a tuple of factor words,
    the value of a comultiplication-compatible pairing into the completed
    tensor cocategory of ``target``.  Components are extracted for source
    words up to the window length and factor words up to ``max_factor_len``,
    one bound per factor.
    """
    if not factors:
        raise FacalcError("solve_psi needs at least one factor")
    sol = PsiSolution(a_quiver, tuple(factors))
    one = novikov.one(variant)
    a_words = basis_words(a_quiver, window.max_len)
    factor_words = product(*(basis_words(f, b) for f, b in zip(factors, max_factor_len)))

    for cwords in sorted(factor_words, key=lambda cw: sum(len(w) for w in cw)):
        chains = sol.full_chains(cwords, least=2)

        def value(words: Sequence[Word], _c=cwords, _chains=chains) -> List[TensorElement]:
            """The pairing minus the correction sum over the proper splits."""
            corrections = chain_sum(words, one, _chains, window)
            return [v if corr is None else _signed_sum([(1, v), (-1, corr)])
                    for v, (corr, _) in zip(phi(words, _c), corrections)]

        values = dict(zip(a_words, _in_order(value, a_words)))

        def extracted(words, _v=values, _f=value):
            """The values, with the whole basis up to the window length
            (a_words) at once; beyond it, computed on demand."""
            if isinstance(words, Basis):
                return {w: v.pr1_hom() for w, v in _v.items()}
            return [(_v[w] if w in _v else _f([w])[0]).pr1_hom() for w in words]

        comps, compute = _extract_components(extracted, a_quiver, window)
        objs = cword_src(cwords)
        if all(len(w) == 0 for w in cwords):
            obj_map = {x: phi_obj(x, objs) for x in a_quiver.objects}
            built = sol.objects[objs] = cofunctor_from_components(
                f"psi@{','.join(objs)}", a_quiver, target, obj_map, comps, window, variant,
                complete_upto=window.max_len, compute=compute,
            )
            rebuilt, boundary = (), built
        else:
            lvl = levels.zero(window.instance)
            for w in cwords:
                lvl = levels.level_add(lvl, w.base_level(window.instance))
            built = sol.comps[cword_key(cwords)] = coderivation_from_components(
                f"psi({_key_name(cword_key(cwords))})",
                sol.object_at(objs),
                sol.object_at(cword_dst(cwords)),
                sum(w.sdeg for w in cwords),
                lvl,
                comps,
                complete_upto=window.max_len,
                compute=compute,
            )
            rebuilt, boundary = (built,), None
        # The reconstruction must reproduce the defining values on every
        # tested word, else the pairing was not comultiplication-compatible.
        got = _in_order(lambda words: chain_sum(words, one, [(1, rebuilt)], window, boundary), a_words)
        for w, (value_w, _) in zip(a_words, got):
            if value_w != truncate_element(values[w], window)[0]:
                raise LeibnizResidual(
                    f"pairing is not comultiplication-compatible: {built.name} fails on {w!r}"
                )
    return sol


def _key_name(key: CWordKey) -> str:
    return ";".join(".".join(gids) if gids else f"()@{src}" for src, gids in key)
