"""Evaluation of coderivation chains, the component solver, and chain
composition.

``ev`` is ``morphisms.chain_eval``, which evaluates a source element
against a chain of coderivations, under its acceptance name.

``PsiSolution.full_chains`` splits a product of factor words in one walk
over cut positions that carries the interchange sign step by step, and
turns each split into a signed chain of solved components, which
``morphisms.chain_sum`` evaluates and sums over all the source words of a
call, one sweep of the block engine per chain into one accumulation per
word (``chain_ops`` builds each chain's pair and skip bound once per factor
word).

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
imports this module.

``compose_chain`` realizes composition of coderivation chains through the
solver applied to iterated evaluation.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from . import levels, novikov
from .errors import FacalcError, LeibnizResidual, ParseError, ResolveError
from .filtquiver import FiltQuiver, HomGenerator, _crossing_sign
from .morphisms import (
    Basis,
    Coderivation,
    Cofunctor,
    _extract_components,
    _in_order,
    chain_eval,
    chain_eval as ev,  # re-exported: the acceptance name of chain_eval
    chain_ops,
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
    return tuple((w.src, tuple(g.gid for g in w.gens)) for w in cwords)


def cword_src(cwords: Sequence[Word]) -> CObjKey:
    return tuple(w.src for w in cwords)


def cword_dst(cwords: Sequence[Word]) -> CObjKey:
    return tuple(w.dst for w in cwords)


# ---------------------------------------------------------------------------
# The solver

class PsiSolution:
    """Cofunctors at factor objects plus one coderivation per factor word.

    Each object and component is set once and never replaced (``solve_psi``
    sets them in order of total length), so the ``chain_ops`` ``apply``
    keeps per factor word in ``chains`` cannot go stale."""

    def __init__(self, a_quiver: Optional[FiltQuiver], factors: Tuple[FiltQuiver, ...]):
        self.a_quiver = a_quiver
        self.factors = factors
        self.objects: Dict[CObjKey, Cofunctor] = {}
        self.comps: Dict[CWordKey, Coderivation] = {}
        self.chains: Dict[CWordKey, list] = {}

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
        # sub[s][i][j]: factor s's block between cut positions i <= j.
        sub = [[[Word(at, w.gens[i:j]) for j in range(len(w) + 1)]
                for i, at in enumerate([w.src] + [g.dst for g in w.gens])] for w in cwords]
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
        reconstructed.  The factor word's chains (``full_chains``, as
        ``chain_ops``) are built on its first call."""
        key = cword_key(cwords)
        ops = self.chains.get(key)
        if ops is None:
            ops = self.chains[key] = chain_ops(self.full_chains(cwords), self.object_at(cword_src(cwords)))
        return chain_sum(words, c, ops, window)


# The pairing on source words (coefficient 1) and a factor word: one value each.
PhiValues = Callable[[Sequence[Word], Sequence[Word]], List[TensorElement]]
PhiObjMap = Callable[[str, CObjKey], str]


def psi_fixture(model: Model, window: TruncWindow, max_len: int) -> PsiSolution:
    """Assemble the file's declared solver section (``model.psi``) into an
    evaluable family on factor words up to max_len.  The checks name
    ``solve-psi``, the one command that reads the section."""
    spec = model.psi
    assert spec is not None
    if not spec.source.objects:
        # The solver's source and target quivers are those of a declared object.
        raise ParseError("$.psi.source", f"source quiver {spec.source.name!r} has no objects")
    sol = PsiSolution(None, (spec.source,))
    for o in spec.source.objects:
        sol.objects[(o,)] = model.functors[spec.obj_map[o]]
    for w in basis_words(spec.source, max_len, include_empty=False):
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
    max_factor_len: Optional[Tuple[int, ...]] = None,
) -> PsiSolution:
    """Recover the coderivation family from the values of a pairing.

    ``phi`` must return, for a source element and a tuple of factor words,
    the value of a comultiplication-compatible pairing into the completed
    tensor cocategory of ``target``.  Components are extracted for source
    words up to the window length and factor words up to ``max_factor_len``
    (defaulting to the window length per factor).
    """
    if not factors:
        raise FacalcError("solve_psi needs at least one factor")
    bounds = max_factor_len or tuple(window.max_len for _ in factors)
    sol = PsiSolution(a_quiver, tuple(factors))
    one = novikov.one(variant)
    a_words = basis_words(a_quiver, window.max_len)
    factor_words = product(*(basis_words(f, b) for f, b in zip(factors, bounds)))

    for cwords in sorted(factor_words, key=lambda cw: sum(len(w) for w in cw)):
        ops = chain_ops(sol.full_chains(cwords, least=2))

        def value(words: Sequence[Word], _c=cwords, _ops=ops) -> List[TensorElement]:
            """The pairing minus the correction sum over the proper splits."""
            corrections = chain_sum(words, one, _ops, window)
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
            rebuilt = chain_ops([(1, ())], built)
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
            rebuilt = chain_ops([(1, (built,))])
        # The reconstruction must reproduce the defining values on every
        # tested word, else the pairing was not comultiplication-compatible.
        got = _in_order(lambda words, _ops=rebuilt: chain_sum(words, one, _ops, window), a_words)
        for w, (value_w, _) in zip(a_words, got):
            if value_w != truncate_element(values[w], window)[0]:
                raise LeibnizResidual(
                    f"pairing is not comultiplication-compatible: {built.name} fails on {w!r}"
                )
    return sol


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
    return tuple(letters[g.gid] for w in words for g in w.gens)


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

    one = novikov.one(variant)

    def then(x: TensorElement, w: Word, letters, functors) -> TensorElement:
        return chain_eval(x, _chain_of([w], letters), window, functors[w.src], length_truncate=False)[0]

    def phi(words: Sequence[Word], cwords: Sequence[Word]) -> List[TensorElement]:
        u, v = cwords
        return [then(then(TensorElement.from_word(a, one), u, letters1, functors1), v, letters2, functors2)
                for a in words]

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
