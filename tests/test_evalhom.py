from collections import Counter
from itertools import product

import pytest
from hypothesis import given, seed, settings, strategies as st

from facalc import levels, novikov
from facalc.errors import LeibnizResidual
from facalc.evalhom import (
    PsiSolution,
    compose_chain,
    compose_chain_component,
    cword_key,
    cword_src,
    ev,
    solve_psi,
)
from facalc.filtquiver import FiltQuiver, HomElement, HomGenerator, koszul_sign
from facalc.morphisms import (
    coderivation_from_components,
    cofunctor_from_components,
    compose_cofunctors,
    evaluate_coderivation,
    identity_cofunctor,
    pull_coderivation,
    push_coderivation,
)
from facalc.tcoalg import (
    TensorElement,
    TruncWindow,
    Word,
    basis_words,
    truncate_element,
    word_blocks,
)

from conftest import facalc_seed, loop_quiver, seq_splits

ONE = novikov.one()
W = TruncWindow(4, levels.rat(3))
W3 = TruncWindow(3, levels.rat(3))


def hom(g, coeff=None):
    return HomElement.from_gen(g, coeff if coeff is not None else ONE)


@pytest.fixture
def setup():
    Q = loop_quiver(sdegs=(0, 1))
    ida = identity_cofunctor(Q, "rat", "nov")
    g0, g1 = Q.gen("g0"), Q.gen("g1")
    r1 = coderivation_from_components(
        "r1", ida, ida, 1, levels.rat(0), {1: {("g0",): hom(g1)}}
    )
    r2 = coderivation_from_components(
        "r2", ida, ida, 0, levels.rat(0), {1: {("g0",): hom(g0), ("g1",): hom(g1)}}
    )
    return Q, ida, r1, r2


def test_ev_unit_and_single(setup):
    Q, ida, r1, _ = setup
    for w in basis_words(Q, 3):
        x = TensorElement.from_word(w, ONE)
        out0, _ = ev(x, [], W, boundary=ida)
        assert out0 == x
        out1, _ = ev(x, [r1], W)
        want, _ = evaluate_coderivation(r1, x, W)
        assert out1 == want


def test_ev_unit_chain_object(setup):
    Q, ida, _, _ = setup
    unit = identity_cofunctor(Q, W.instance, "nov")
    x = TensorElement.from_word(Word.from_gens([Q.gen("g0"), Q.gen("g1")]), ONE)
    out, _ = ev(x, [], W, boundary=unit)
    assert out == x


def test_ev_two_entries_against_split_enumeration(setup):
    # On a single letter with strict identity endpoints, only the splits
    # with both insertions on empty zones or the letter survive; enumerate
    # them directly as a check of the engine's bookkeeping.
    Q, ida, r1, r2 = setup
    g0 = Q.gen("g0")
    x = TensorElement.from_word(Word.from_gens([g0]), ONE)
    out, _ = ev(x, [r1, r2], W)
    # r1 takes the letter (r2 on an empty zone gives zero since it has no
    # length-0 component), or r2 takes it (likewise); both need the other
    # insertion to vanish, except both hitting requires two letters. Hand
    # enumeration: r1(g0)=g1 then r2 empty -> 0; r2(g0)=g0 then r1 empty
    # -> 0; the only survivor pairs r1 on the letter with r2 on nothing.
    assert out.is_zero()
    # With a curvature-style zero-length component on r2 the chain acts.
    r2c = coderivation_from_components(
        "r2c",
        ida,
        ida,
        0,
        levels.rat(0),
        {
            0: {"X": hom(g0, novikov.monomial(1, 1, 0))},
            1: {("g0",): hom(g0), ("g1",): Q and hom(Q.gen("g1"))},
        },
    )
    out2, _ = ev(x, [r1, r2c], W)
    # Hand enumeration: the only surviving zone pattern puts the letter on
    # the first insertion (value g1) and fills the second from its
    # zero-length component (value T g0); everything else meets a missing
    # component.  No signs: all surviving block degrees are even.
    expected = TensorElement(
        "X",
        "X",
        [(Word.from_gens([Q.gen("g1"), g0]), novikov.monomial(1, 1, 0))],
    )
    assert out2 == expected


def multi_box_splits(cwords, k, nonempty):
    """Oracle for ``PsiSolution.full_chains``: split a product word into k
    blocks of factor sub-words by enumerating every per-factor split.

    A block is a tuple with one sub-word per factor; with nonempty=True the
    splits with a block of total length 0 are thrown away.  The sign is the
    interchange sign of the unshuffle: for each pair of factors s < t, the
    ``koszul_sign`` of factor t's blocks acting as operators on factor s's
    blocks."""
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


def test_multi_box_splits_signs():
    Q1 = loop_quiver("F1", sdegs=(1,))
    Q2 = loop_quiver("F2", sdegs=(1,))
    w1 = Word.from_gens([Q1.gen("g0")])
    w2 = Word.from_gens([Q2.gen("g0")])
    got = {}
    for blocks, sign in multi_box_splits((w1, w2), 2, nonempty=True):
        key = tuple(tuple(len(w) for w in blk) for blk in blocks)
        got[key] = sign
    assert got == {((1, 0), (0, 1)): 1, ((0, 1), (1, 0)): -1}


def test_box_conilpotence():
    # With conilpotence indices n, m (smallest with the iterate vanishing),
    # the paired element dies at index n + m - 1.
    Q1 = loop_quiver("Q1", sdegs=(0, 1))
    Q2 = loop_quiver("Q2", sdegs=(1,))
    for w1 in basis_words(Q1, 3, include_empty=False):
        for w2 in basis_words(Q2, 3, include_empty=False):
            n, m = len(w1) + 1, len(w2) + 1
            assert list(multi_box_splits((w1, w2), n + m - 1, nonempty=True)) == []
            assert list(multi_box_splits((w1, w2), len(w1) + len(w2), nonempty=True)) != []


def test_box_interchange_sign():
    # [(a (x) b) box (c (x) d)] -> (-1)^{deg b deg c} (a box c) (x) (b box d).
    Q1 = loop_quiver("Q1", sdegs=(1, 0))
    Q2 = loop_quiver("Q2", sdegs=(1,))
    a, b = Q1.gen("g0"), Q1.gen("g1")
    c = d = Q2.gen("g0")
    w1 = Word.from_gens([a, b])
    w2 = Word.from_gens([c, d])
    splits = {
        tuple((len(p), len(q)) for p, q in key): sign
        for key, sign in multi_box_splits((w1, w2), 2, nonempty=True)
    }
    # The letterwise split pairs (a,c) with (b,d): deg b = 0, deg c = 1.
    assert splits[((1, 1), (1, 1))] == 1
    w1r = Word.from_gens([b, a])  # now the second left letter is odd
    splits = {
        tuple((len(p), len(q)) for p, q in key): sign
        for key, sign in multi_box_splits((w1r, w2), 2, nonempty=True)
    }
    assert splits[((1, 1), (1, 1))] == -1


def loop_interchange_sign(blocks):
    """Literal interchange sign of an unshuffle, one transposition at a
    time: blocks[s][i] is factor s's sub-word in block i, and factor t's
    block i crosses factor s's block j whenever s < t and i < j."""
    q, k = len(blocks), len(blocks[0])
    sign = 1
    for s in range(q):
        for t in range(s + 1, q):
            for i in range(k):
                for j in range(i + 1, k):
                    if (blocks[t][i].sdeg % 2) and (blocks[s][j].sdeg % 2):
                        sign = -sign
    return sign


def factor_words(factors):
    Q = loop_quiver("F", sdegs=(0, 1, -1))
    return tuple(
        Word.from_gens([Q.gen(g) for g in gids]) if gids else Word("X") for gids in factors
    )


@seed(facalc_seed())
@settings(max_examples=150, deadline=None)
@given(
    factors=st.lists(
        st.lists(st.sampled_from(["g0", "g1", "g2"]), min_size=0, max_size=3),
        min_size=1,
        max_size=3,
    ),
    k=st.integers(min_value=1, max_value=4),
    nonempty=st.booleans(),
)
def test_multi_box_splits_sign_matches_loop(factors, k, nonempty):
    cwords = factor_words(factors)
    for blocks, sign in multi_box_splits(cwords, k, nonempty=nonempty):
        per_factor = [[blk[s] for blk in blocks] for s in range(len(cwords))]
        assert sign == loop_interchange_sign(per_factor)


class KeyComponents(dict):
    """A stand-in for ``PsiSolution.comps`` whose component at each key is
    the key itself, so chains compare as tuples of keys; it records every
    key looked up and has no component at the keys in ``absent``."""

    def __init__(self, absent=()):
        super().__init__()
        self.absent = set(absent)
        self.looked_up = []

    def __missing__(self, key):
        self.looked_up.append(key)
        if key in self.absent:
            raise KeyError(key)
        return key


@seed(facalc_seed())
@settings(max_examples=150, deadline=None)
@given(
    factors=st.lists(
        st.lists(st.sampled_from(["g0", "g1", "g2"]), min_size=0, max_size=3),
        min_size=1,
        max_size=3,
    ).filter(lambda fs: sum(len(f) for f in fs) <= 6),
    least=st.sampled_from([1, 2]),
)
def test_full_chains_match_the_split_oracle(factors, least):
    # The cut walk yields the same multiset of (sign, chain) as enumerating
    # every split with at least ``least`` nonempty blocks.
    cwords = factor_words(factors)
    sol = PsiSolution(None, ())
    sol.comps = KeyComponents()
    total = sum(len(w) for w in cwords)
    want = Counter(
        (sign, tuple(cword_key(b) for b in blocks))
        for k in range(least, total + 1)
        for blocks, sign in multi_box_splits(cwords, k, nonempty=True)
    )
    if total == 0 and least <= 1:
        want[(1, ())] += 1
    assert Counter(sol.full_chains(cwords, least)) == want


@pytest.mark.parametrize(
    "factors",
    [[["g0"]], [["g1", "g2", "g0"]], [["g1"], []], [["g0", "g1"], ["g2"]], [["g1"], ["g1"], ["g2"]]],
)
def test_proper_chains_never_look_up_the_unsplit_word(factors):
    # The solver asks for the proper chains of the word it is solving, so
    # that word has no component yet.
    cwords = factor_words(factors)
    sol = PsiSolution(None, ())
    sol.comps = KeyComponents(absent=[cword_key(cwords)])
    chains = sol.full_chains(cwords, least=2)
    assert cword_key(cwords) not in sol.comps.looked_up
    assert all(len(chain) >= 2 for _, chain in chains)
    assert len(chains) == sum(
        1 for k in range(2, sum(map(len, cwords)) + 1)
        for _ in multi_box_splits(cwords, k, nonempty=True)
    )


def make_fixture_psi(Q, ida, letter_map, max_len=2):
    C = FiltQuiver(
        "C",
        ["o"],
        [
            HomGenerator(gid, "o", "o", r.deg, r.lvl)
            for gid, r in letter_map.items()
        ],
    )
    fixture = PsiSolution(Q, (C,))
    fixture.objects[("o",)] = ida
    for cw in basis_words(C, max_len, include_empty=False):
        key = cword_key((cw,))
        if len(cw) == 1:
            fixture.comps[key] = letter_map[cw.gens[0].gid]
        else:
            fixture.comps[key] = coderivation_from_components(
                f"zero{key}", ida, ida, cw.sdeg, levels.rat(0), {}
            )
    return C, fixture


def test_solver_roundtrip_both_directions(setup):
    Q, ida, r1, r2 = setup
    C, fixture = make_fixture_psi(Q, ida, {"c1": r1, "c2": r2})

    def phi(words, cwords):
        return [value for value, _ in fixture.apply(words, ONE, cwords, W)]

    sol = solve_psi(phi, lambda o, c: "X", Q, Q, [C], W, "nov", max_factor_len=(2,))
    # Recover every component exactly.
    for key, r in fixture.comps.items():
        got = sol.comps[key]
        assert got.comps == r.comps and got.deg == r.deg
    assert sol.objects[("o",)].comps == ida.comps
    # Converse: the recovered family reproduces the pairing.
    for cw in basis_words(C, 2):
        for aw in basis_words(Q, 2):
            (got, _), = sol.apply([aw], ONE, (cw,), W)
            want, _ = truncate_element(phi([aw], (cw,))[0], W)
            assert got == want


def test_solver_trivial_case_is_direct_projection(setup):
    # Factor words that never split leave no correction sum: the solved
    # component is the literal projection of the pairing.
    Q, ida, r1, _ = setup
    C, fixture = make_fixture_psi(Q, ida, {"c1": r1}, max_len=1)

    def phi(words, cwords):
        return [value for value, _ in fixture.apply(words, ONE, cwords, W)]

    sol = solve_psi(phi, lambda o, c: "X", Q, Q, [C], W, "nov", max_factor_len=(1,))
    key = cword_key((Word.from_gens([C.gen("c1")]),))
    assert sol.comps[key].comps == r1.comps


@pytest.mark.parametrize(
    "total, built",
    [(0, r"psi@o\b"), (1, r"psi\(c1\)")],
    ids=["object", "word"],
)
def test_solver_rejects_incompatible_pairing(setup, total, built):
    # Corrupting the values on the empty factor word fails the object
    # cofunctor's check; on the word c1, the coderivation's check.
    Q, ida, r1, _ = setup
    C, fixture = make_fixture_psi(Q, ida, {"c1": r1}, max_len=1)

    def phi_bad(words, cwords):
        values = [value for value, _ in fixture.apply(words, ONE, cwords, W)]
        # Corrupt the pairing away from comultiplication compatibility.
        return [
            value.add(value) if sum(len(w) for w in cwords) == total and len(a) == 2 else value
            for a, value in zip(words, values)
        ]

    with pytest.raises(LeibnizResidual, match=built):
        solve_psi(phi_bad, lambda o, c: "X", Q, Q, [C], W, "nov", max_factor_len=(1,))


@pytest.fixture
def mixed(setup):
    Q, ida, r1, r2 = setup
    g0, g1 = Q.gen("g0"), Q.gen("g1")
    f = cofunctor_from_components(
        "f",
        Q,
        Q,
        {"X": "X"},
        {
            1: {("g0",): hom(g0), ("g1",): hom(g1)},
            2: {("g0", "g1"): hom(g1)},
        },
        W,
        "nov",
    )
    t = coderivation_from_components(
        "t",
        f,
        f,
        1,
        levels.rat(0),
        {1: {("g0",): hom(g1)}, 0: {"X": hom(g1, novikov.monomial(1, 1, 0))}},
    )
    rf = coderivation_from_components(
        "rf", ida, f, 1, levels.rat(0), {1: {("g0",): hom(g1)}}
    )
    return Q, ida, f, t, rf


def test_composition_pairing_low_cases(mixed):
    Q, ida, f, t, rf = mixed
    # Empty words compose the functors.
    sol = compose_chain((), (), W, r_boundary=f, t_boundary=f)
    assert sol.object_at(("L.o0", "R.o0")).comps == compose_cofunctors(f, f, W).comps
    # One letter on the left: the coderivation is pushed.
    got = compose_chain_component([rf], [], W, t_boundary=f)
    want = push_coderivation(rf, f, W)
    assert got.comps == want.comps and got.deg == want.deg
    # One letter on the right: pulled.
    got2 = compose_chain_component([], [t], W, r_boundary=f)
    want2 = pull_coderivation(f, t, W)
    assert got2.comps == want2.comps


def test_composition_defining_equation(mixed):
    Q, ida, f, t, rf = mixed
    sol = compose_chain([rf], [t], W)
    cw1 = Word.from_gens([sol.factors[0].gen("L.r0")])
    cw2 = Word.from_gens([sol.factors[1].gen("R.r0")])
    for aw in basis_words(Q, 3):
        a = TensorElement.from_word(aw, ONE)
        mid, _ = ev(a, [rf], W)
        lhs, _ = ev(mid, [t], W)
        (rhs, _), = sol.apply([aw], ONE, (cw1, cw2), W)
        assert lhs == rhs


def test_unit_laws_for_composition(mixed):
    Q, ida, f, t, rf = mixed
    # Unit on the right: composing with the identity returns the entry.
    got = compose_chain_component([rf], [], W, t_boundary=identity_cofunctor(Q, "rat", "nov"))
    assert got.comps == rf.comps
    # Unit on the left.
    got2 = compose_chain_component([], [t], W, r_boundary=identity_cofunctor(Q, "rat", "nov"))
    assert got2.comps == t.comps


def test_solver_components_of_one_name_keep_their_own_letters(setup):
    # Two compose_chain runs name their solved components alike (both
    # push the letter L.r0 along the identity) but solve different ones;
    # evaluated in turn, each must read its own letters, not the letters
    # a cache keyed by name would hand it.
    Q, ida, r1, r2 = setup
    runs = [(r, compose_chain_component([r], [], W, t_boundary=ida)) for r in (r1, r2)]
    (_, first), (_, second) = runs
    assert first.name == second.name and first.comps != second.comps
    for w in basis_words(Q, 3):
        x = TensorElement.from_word(w, ONE)
        for r, solved in runs:
            assert evaluate_coderivation(solved, x, W) == evaluate_coderivation(r, x, W)

def add_coderivations(a, b):
    comps = {}
    for src in (a, b):
        for k, table in src.comps.items():
            for key, v in table.items():
                cur = comps.setdefault(k, {}).get(key)
                comps[k][key] = v if cur is None else cur.add(v)
    return coderivation_from_components(
        f"{a.name}+{b.name}", a.f, a.g, a.deg, a.lvl, comps, complete_upto=a.complete_upto
    )


def test_composition_associativity_on_single_letters(mixed):
    Q, ida, f, t, rf = mixed
    u = coderivation_from_components(
        "u", f, f, 0, levels.rat(0), {1: {("g0",): hom(Q.gen("g0")).rat_scale(2), ("g1",): hom(Q.gen("g1")).rat_scale(2)}}
    )
    # Left association: expand the inner pairing of (rf, t), feed each
    # resulting chain to the pairing with u, and sum the components.
    sol_rt = compose_chain([rf], [t], W3)
    cw1 = Word.from_gens([sol_rt.factors[0].gen("L.r0")])
    cw2 = Word.from_gens([sol_rt.factors[1].gen("R.r0")])
    left_total = None
    boundary = sol_rt.object_at(cword_src((cw1, cw2)))
    for sign, chain in sol_rt.full_chains((cw1, cw2)):
        piece = compose_chain_component(list(chain), [u], W3, r_boundary=boundary)
        if sign == -1:
            piece = coderivation_from_components(
                piece.name, piece.f, piece.g, piece.deg, piece.lvl,
                {k: {key: v.neg() for key, v in tab.items()} for k, tab in piece.comps.items()},
                complete_upto=piece.complete_upto,
            )
        left_total = piece if left_total is None else add_coderivations(left_total, piece)
    # Right association.
    sol_tu = compose_chain([t], [u], W3)
    dw1 = Word.from_gens([sol_tu.factors[0].gen("L.r0")])
    dw2 = Word.from_gens([sol_tu.factors[1].gen("R.r0")])
    right_total = None
    boundary = sol_tu.object_at(cword_src((dw1, dw2)))
    for sign, chain in sol_tu.full_chains((dw1, dw2)):
        piece = compose_chain_component([rf], list(chain), W3, t_boundary=boundary)
        if sign == -1:
            piece = coderivation_from_components(
                piece.name, piece.f, piece.g, piece.deg, piece.lvl,
                {k: {key: v.neg() for key, v in tab.items()} for k, tab in piece.comps.items()},
                complete_upto=piece.complete_upto,
            )
        right_total = piece if right_total is None else add_coderivations(right_total, piece)
    assert left_total.comps == right_total.comps
    assert left_total.deg == right_total.deg


def test_ev_is_comultiplication_compatible(setup):
    # Cutting the evaluated element agrees with cutting both sides first
    # and pairing the halves, with the interchange sign (the second source
    # half crossing the first chain segment).
    Q, ida, r1, r2 = setup
    g0, g1 = Q.gen("g0"), Q.gen("g1")
    from facalc.tcoalg import cut_delta

    chain = [r1, r2]
    for aw in basis_words(Q, 3):
        a = TensorElement.from_word(aw, ONE)
        value, _ = ev(a, chain, W)
        lhs = cut_delta(value)
        rhs = {}
        for (a1, a2), c in cut_delta(a).items():
            for m in range(len(chain) + 1):
                left_chain, right_chain = chain[:m], chain[m:]
                lval, _ = ev(TensorElement.from_word(a1, c), left_chain, W,
                             boundary=chain[0].f if chain else ida)
                rval, _ = ev(TensorElement.from_word(a2, ONE), right_chain, W,
                             boundary=chain[-1].g if chain else ida)
                seg_deg = sum(r.deg for r in left_chain)
                sign = -1 if (seg_deg % 2) and (a2.sdeg % 2) else 1
                for w1, c1 in lval.terms:
                    for w2, c2 in rval.terms:
                        cc = novikov.nov_mul(c1, c2)
                        if sign == -1:
                            cc = novikov.nov_neg(cc)
                        key = (w1, w2)
                        rhs[key] = novikov.nov_add(rhs[key], cc) if key in rhs else cc
        rhs = {k: v for k, v in rhs.items() if not v.is_zero()}
        assert lhs == rhs, aw
