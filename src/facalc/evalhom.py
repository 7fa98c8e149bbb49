"""Evaluation of coderivation chains, and chain composition.

``ev`` is ``morphisms.chain_eval``, which evaluates a source element
against a chain of coderivations, under its acceptance name.

``compose_chain`` realizes composition of coderivation chains through the
solver (``facalc.solver``) applied to iterated evaluation.  The solver's
names are re-exported here, under the names the acceptance suite imports;
``solve-psi`` imports ``facalc.solver`` alone, so no command loads this
module.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import novikov
from .filtquiver import FiltQuiver, HomGenerator
from .morphisms import (
    Coderivation,
    Cofunctor,
    chain_eval,
    chain_eval as ev,  # re-exported: the acceptance name of chain_eval
)
from .solver import (
    CObjKey,
    PsiSolution,
    cword_key,  # re-exported
    cword_src,  # re-exported
    solve_psi,
)
from .tcoalg import TensorElement, TruncWindow, Word


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
