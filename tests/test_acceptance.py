"""Acceptance suite: one test per criterion, printing a pass/fail line.

Everything is checked in exact rational arithmetic with zero tolerance;
windowed statements report their soundness flags.  Run with -s to see the
per-criterion lines.
"""

import contextlib
import io
import pathlib
import random
from fractions import Fraction

from facalc import levels, novikov
from facalc.ainfty import (
    CoderQuiver,
    ainf_category,
    check_ainf_functor,
    check_b_squared,
    check_coder_b_squared,
    check_transfer_identity,
    coder_b0,
    coder_b1,
    family_value,
)
from facalc.evalhom import (
    PsiSolution,
    compose_chain_component,
    cword_key,
    ev,
    solve_psi,
)
from facalc.filtquiver import FiltQuiver, HomElement, HomGenerator, koszul_sign
from facalc.morphisms import (
    coderivation_from_components,
    coderivation_slots,
    cofunctor_from_components,
    cofunctor_slots,
    compose_cofunctors,
    evaluate_coderivation,
    identity_cofunctor,
    leibniz_residual,
    slot_value,
    tensor_convergent,
    tensor_maps,
)
from facalc.tcoalg import (
    TensorElement,
    TruncWindow,
    Word,
    basis_words,
    cut_delta,
    delta_k,
    mu_concat,
    reduced_delta_k,
    truncate_element,
)

from conftest import facalc_seed, loop_quiver, three_object_quiver, two_object_quiver
from test_filtquiver import permutation_parity_sign

ONE = novikov.one()
W = TruncWindow(6, levels.rat(3))
W4 = TruncWindow(4, levels.rat(3))
W3 = TruncWindow(3, levels.rat(3))
ROOT = pathlib.Path(__file__).parent.parent


def report(n, ok, label):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {label}")
    assert ok, f"criterion {n}: {label}"


def hom(g, coeff=None):
    return HomElement.from_gen(g, coeff if coeff is not None else ONE)


def test_criterion_01_coalgebra_axioms():
    ok = True
    for Q in (loop_quiver(sdegs=(0, 1)), two_object_quiver(), three_object_quiver()):
        for word in basis_words(Q, 6):
            x = TensorElement.from_word(word, ONE)
            left, right = {}, {}
            for (a, b), c in cut_delta(x).items():
                for (a1, a2), c2 in cut_delta(TensorElement.from_word(a, c)).items():
                    key = (a1, a2, b)
                    left[key] = novikov.nov_add(left[key], c2) if key in left else c2
                for (b1, b2), c2 in cut_delta(TensorElement.from_word(b, c)).items():
                    key = (a, b1, b2)
                    right[key] = novikov.nov_add(right[key], c2) if key in right else c2
            ok = ok and left == right == delta_k(x, 3)
            # Counitality.
            keep = TensorElement.zero(x.src, x.dst)
            for (a, b), c in cut_delta(x).items():
                if len(a) == 0:
                    keep = keep.add(TensorElement.from_word(b, c))
            ok = ok and keep == x
            if len(word) >= 1:
                # Reduced coassociativity and conilpotence.
                rleft, rright = {}, {}
                for (a, b), c in reduced_delta_k(x, 2).items():
                    for (a1, a2), c2 in reduced_delta_k(TensorElement.from_word(a, c), 2).items():
                        key = (a1, a2, b)
                        rleft[key] = novikov.nov_add(rleft[key], c2) if key in rleft else c2
                    for (b1, b2), c2 in reduced_delta_k(TensorElement.from_word(b, c), 2).items():
                        key = (a, b1, b2)
                        rright[key] = novikov.nov_add(rright[key], c2) if key in rright else c2
                ok = ok and rleft == rright == reduced_delta_k(x, 3)
                ok = ok and reduced_delta_k(x, len(word) + 1) == {}
    report(1, ok, "coassociativity, counitality, reduced coassociativity, conilpotence on words <= 6")


def test_criterion_02_sign_engine():
    from facalc.filtquiver import GradedMap, compose_maps

    gens = [
        HomGenerator("e0", "X", "X", 0, levels.rat(0)),
        HomGenerator("e1", "X", "X", 1, levels.rat(0)),
        HomGenerator("e2", "X", "X", 2, levels.rat(0)),
        HomGenerator("e3", "X", "X", -1, levels.rat(0)),
    ]
    Q = FiltQuiver("S", ["X"], gens)

    def gm(shift, pairs):
        action = {
            src: HomElement.from_gen(Q.gen(dst), ONE) for src, dst in pairs.items()
        }
        return GradedMap(shift, levels.rat(0), Q, Q, {"X": "X"}, action, "rat")

    f = gm(1, {"e0": "e1", "e1": "e2"})
    g = gm(2, {"e0": "e2"})
    h = gm(1, {"e1": "e2"})
    k = gm(-1, {"e2": "e1", "e1": "e0"})
    sign = -1 if (g.deg % 2 and h.deg % 2) else 1
    fh, gk = compose_maps(f, h), compose_maps(g, k)
    ok = True
    for a in Q.gens:
        for b in Q.gens:
            x = TensorElement.from_word(Word.from_gens([a, b]), ONE)
            lhs = tensor_maps([h, k], tensor_maps([f, g], x))
            rhs = tensor_maps([fh, gk], x)
            ok = ok and lhs == (rhs if sign == 1 else rhs.neg())
    # tau squared: two successive swaps always cancel.
    for dx in range(-2, 3):
        for dy in range(-2, 3):
            s = -1 if (dx % 2 and dy % 2) else 1
            ok = ok and s * s == 1
    rng = random.Random(facalc_seed())
    for _ in range(1000):
        n = rng.randint(1, 6)
        ops = [rng.randint(-2, 3) for _ in range(n)]
        args = [rng.randint(-2, 3) for _ in range(n)]
        ok = ok and koszul_sign(ops, args) == permutation_parity_sign(ops, args)
    report(2, ok, "interchange law, tau^2 = id, 1000 sampled signs vs permutation parity")


def _fixtures_for_roundtrip():
    Q = loop_quiver(sdegs=(0, 1))
    g0, g1 = Q.gen("g0"), Q.gen("g1")
    ida = identity_cofunctor(Q, "rat", "nov")
    f_curved = cofunctor_from_components(
        "fc",
        Q,
        Q,
        {"X": "X"},
        {
            0: {"X": hom(g0, novikov.monomial(1, 1, 0))},
            1: {("g0",): hom(g0), ("g1",): hom(g1)},
            2: {("g0", "g1"): hom(g1)},
        },
        W,
        "nov",
    )
    r1 = coderivation_from_components(
        "r1", ida, f_curved, 1, levels.rat(0), {1: {("g0",): hom(g1)}}
    )
    r2 = coderivation_from_components(
        "r2",
        ida,
        ida,
        1,
        levels.rat(0),
        {0: {"X": hom(g1, novikov.monomial(1, 1, 0))}, 2: {("g0", "g0"): hom(g1)}},
    )
    return Q, ida, f_curved, [r1, r2]


def test_criterion_03_reconstruction_bijections():
    Q, ida, f_curved, coders = _fixtures_for_roundtrip()
    ok = True
    for f in (ida, f_curved):
        for w in basis_words(Q, 4):
            value, _ = slot_value(
                TensorElement.from_word(w, ONE),
                cofunctor_slots(f),
                W,
                length_truncate=False,
            )
            ok = ok and value.pr1_hom() == f.comp_value(w)
    for r in coders:
        for w in basis_words(Q, 4):
            value, _ = slot_value(
                TensorElement.from_word(w, ONE), coderivation_slots(r), W, length_truncate=False
            )
            ok = ok and value.pr1_hom() == r.comp_value(w)
            ok = ok and leibniz_residual(r, w, W) == {}
    report(3, ok, "component/morphism roundtrips exact; Leibniz law on words <= 4")


def test_criterion_04_composition_laws():
    Q = loop_quiver(sdegs=(0, 0))
    u, v = Q.gen("g0"), Q.gen("g1")
    ida = identity_cofunctor(Q, "rat", "nov")

    def mk(name, comps):
        return cofunctor_from_components(name, Q, Q, {"X": "X"}, comps, W3, "nov")

    f_curved = mk(
        "fc",
        {
            0: {"X": hom(u, novikov.monomial(1, 1, 0))},
            1: {("g0",): hom(u), ("g1",): hom(v)},
        },
    )
    a = mk("a", {1: {("g0",): hom(u).rat_scale(2), ("g1",): hom(v)}})
    b = mk("b", {1: {("g0",): hom(u), ("g1",): hom(u)}, 2: {("g0", "g0"): hom(v)}})
    c = mk("c", {1: {("g0",): hom(v), ("g1",): hom(u)}})
    d = mk("d", {1: {("g0",): hom(u), ("g1",): hom(v)}, 2: {("g1", "g0"): hom(u)}})
    triples = [
        (a, b, c),
        (b, c, d),
        (c, d, a),
        (d, a, b),
        (f_curved, b, d),  # curvature of level 1 at cutoff 3: sum bound 3
    ]
    ok = True
    for x, y, z in triples:
        lhs = compose_cofunctors(compose_cofunctors(x, y, W3), z, W3)
        rhs = compose_cofunctors(x, compose_cofunctors(y, z, W3), W3)
        ok = ok and lhs.comps == rhs.comps
        ok = ok and compose_cofunctors(x, ida, W3).comps == x.comps
        ok = ok and compose_cofunctors(ida, x, W3).comps == x.comps
    report(4, ok, "composition associative and unital on 5 triples (one curvature-bearing)")


def test_criterion_05_b_squared_fixtures():
    Q1 = loop_quiver(sdegs=(0, 1))
    cat1 = ainf_category(Q1, {1: {("g0",): hom(Q1.gen("g1"))}}, W, "nov")
    ok = all(e.ok for e in check_b_squared(cat1, W, 4))

    Q2 = loop_quiver("A2", sdegs=(1,))
    cat2 = ainf_category(
        Q2, {0: {"X": hom(Q2.gen("g0"), novikov.monomial(1, 1, 0))}}, W, "nov"
    )
    ok = ok and all(e.ok for e in check_b_squared(cat2, W, 4))

    Q3 = loop_quiver("A3", sdegs=(-1, -1))
    assoc = ainf_category(
        Q3,
        {2: {
            ("g0", "g0"): hom(Q3.gen("g0")),
            ("g0", "g1"): hom(Q3.gen("g1")),
            ("g1", "g0"): hom(Q3.gen("g1")),
        }},
        W,
        "nov",
    )
    ok = ok and all(e.ok for e in check_b_squared(assoc, W, 4))
    broken = ainf_category(
        Q3,
        {2: {("g0", "g0"): hom(Q3.gen("g1")), ("g0", "g1"): hom(Q3.gen("g0"))}},
        W,
        "nov",
    )
    bad = [e for e in check_b_squared(broken, W, 4) if not e.ok]
    ok = ok and bad and all(e.n == 3 for e in bad) and all(e.residual != "0" for e in bad)
    report(5, ok, "b^2: differential-only and curved pass; associative passes at n<=4, mutation fails at n=3")


def test_criterion_06_functor_checks_and_commutators():
    Q = loop_quiver(sdegs=(0, 1))
    g0, g1 = Q.gen("g0"), Q.gen("g1")
    cat = ainf_category(Q, {1: {("g0",): hom(g1)}}, W, "nov")
    chain_map = cofunctor_from_components(
        "cm",
        Q,
        Q,
        {"X": "X"},
        {1: {("g0",): hom(g0).rat_scale(2), ("g1",): hom(g1).rat_scale(2)}},
        W,
        "nov",
    )
    ok = all(e.ok for e in check_ainf_functor(chain_map, cat, cat, W, 3))
    ok = ok and coder_b0(chain_map, cat, cat, W, upto=3).is_zero_map()

    not_chain = cofunctor_from_components(
        "nc", Q, Q, {"X": "X"}, {1: {("g0",): hom(g0)}}, W, "nov"
    )
    b0 = coder_b0(not_chain, cat, cat, W, upto=3)
    ok = ok and not b0.is_zero_map()
    # Against the first-order commutator, computed directly.
    fb = cat.b.comp_value(Word.from_gens([g0]))          # f1 then b1 on g0
    bf = not_chain.comp_value(Word.from_gens([g1]))      # b1 then f1 on g0
    ok = ok and b0.comp_value(Word.from_gens([g0])) == fb.add(bf.neg())

    # On functor endpoints the induced differential is the graded commutator.
    r = coderivation_from_components(
        "r", chain_map, chain_map, 0, levels.rat(0), {1: {("g0",): hom(g0), ("g1",): hom(g1).rat_scale(-2)}}
    )
    b1r = coder_b1(r, cat, cat, W, upto=3)
    sign = -1 if r.deg % 2 else 1
    good = True
    for w in basis_words(Q, 3):
        x = TensorElement.from_word(w, ONE)
        rw, _ = slot_value(x, coderivation_slots(r), W, length_truncate=False)
        bw, _ = slot_value(x, coderivation_slots(cat.b), W, length_truncate=False)
        commutator = family_value(cat.b, rw).add(family_value(r, bw).rat_scale(-sign))
        good = good and b1r.comp_value(w) == commutator
    ok = ok and good
    report(6, ok, "functor check, vanishing/nonvanishing defect, differential = graded commutator")


def test_criterion_07_coder_differential_squares():
    Q = loop_quiver(sdegs=(0, 1))
    cat = ainf_category(Q, {1: {("g0",): hom(Q.gen("g1"))}}, W, "nov")
    ida = identity_cofunctor(Q, "rat", "nov")
    r = coderivation_from_components(
        "r", ida, ida, 1, levels.rat(0), {1: {("g0",): hom(Q.gen("g1"))}}
    )
    Qq = CoderQuiver(cat, cat, [ida], [r])
    ok = all(e.ok for e in check_coder_b_squared(Qq, W, 2, 3))
    ok = ok and all(e.ok for e in check_transfer_identity(Qq, W, 2, 3))

    Qc = loop_quiver("Ac", sdegs=(1,))
    ccat = ainf_category(Qc, {0: {"X": hom(Qc.gen("g0"), novikov.monomial(1, 1, 0))}}, W, "nov")
    idc = identity_cofunctor(Qc, "rat", "nov")
    s = coderivation_from_components(
        "s", idc, idc, 0, levels.rat(0), {1: {("g0",): hom(Qc.gen("g0"))}}
    )
    Qq2 = CoderQuiver(ccat, ccat, [idc], [s])
    ok = ok and all(e.ok for e in check_coder_b_squared(Qq2, W, 2, 3))
    ok = ok and all(e.ok for e in check_transfer_identity(Qq2, W, 2, 3))
    report(7, ok, "squared differential and its defining identity on chains <= 2, words <= 3")


def test_criterion_08_evaluation_and_solver():
    Q = loop_quiver(sdegs=(0, 1))
    g0, g1 = Q.gen("g0"), Q.gen("g1")
    ida = identity_cofunctor(Q, "rat", "nov")
    r1 = coderivation_from_components(
        "r1", ida, ida, 1, levels.rat(0), {1: {("g0",): hom(g1)}}
    )
    r2 = coderivation_from_components(
        "r2", ida, ida, 0, levels.rat(0), {1: {("g0",): hom(g0), ("g1",): hom(g1)}}
    )
    # ev with one entry is coderivation evaluation.
    ok = True
    for w in basis_words(Q, 3):
        x = TensorElement.from_word(w, ONE)
        a1, _ = ev(x, [r1], W4)
        a2, _ = evaluate_coderivation(r1, x, W4)
        ok = ok and a1 == a2

    # Solver roundtrip on a one-lane factor with two coderivations.
    C = FiltQuiver(
        "C",
        ["o"],
        [HomGenerator("c1", "o", "o", 1, levels.rat(0)), HomGenerator("c2", "o", "o", 0, levels.rat(0))],
    )
    fixture = PsiSolution(Q, (C,))
    fixture.objects[("o",)] = ida
    for cw in basis_words(C, 2, include_empty=False):
        key = cword_key((cw,))
        if len(cw) == 1:
            fixture.comps[key] = {"c1": r1, "c2": r2}[cw.gens[0].gid]
        else:
            fixture.comps[key] = coderivation_from_components(
                f"z{key}", ida, ida, cw.sdeg, levels.rat(0), {}
            )

    def phi(a, cwords):
        return fixture.apply(a, cwords, W4)[0]

    sol = solve_psi(phi, lambda o, c: "X", Q, Q, [C], W4, "nov", max_factor_len=(2,))
    for key, r in fixture.comps.items():
        ok = ok and sol.comps[key].comps == r.comps
    for cw in basis_words(C, 2):
        for aw in basis_words(Q, 2):
            a = TensorElement.from_word(aw, ONE)
            got, _ = sol.apply(a, (cw,), W4)
            want, _ = truncate_element(phi(a, (cw,)), W4)
            ok = ok and got == want

    # Chain composition: units and associativity on single letters.
    t = coderivation_from_components(
        "t", ida, ida, 1, levels.rat(0), {1: {("g0",): hom(g1)}, 0: {"X": hom(g1, novikov.monomial(1, 1, 0))}}
    )
    got = compose_chain_component([r1], [], W3, t_boundary=ida)
    ok = ok and got.comps == r1.comps
    got = compose_chain_component([], [t], W3, r_boundary=ida)
    ok = ok and got.comps == t.comps

    from test_evalhom import add_coderivations
    from facalc.evalhom import compose_chain, cword_src

    u = coderivation_from_components(
        "u", ida, ida, 0, levels.rat(0), {1: {("g0",): hom(g0).rat_scale(2), ("g1",): hom(g1).rat_scale(2)}}
    )

    def side(first_pair, outer_left):
        solp = compose_chain(*first_pair, W3)
        cw1 = Word.from_gens([solp.factors[0].gen("L.r0")]) if first_pair[0] else Word("L.o0")
        cw2 = Word.from_gens([solp.factors[1].gen("R.r0")]) if first_pair[1] else Word("R.o0")
        total = None
        boundary = solp.object_at(cword_src((cw1, cw2)))
        for sign, chain in solp.full_chains((cw1, cw2)):
            if outer_left:
                piece = compose_chain_component(list(chain), [u], W3, r_boundary=boundary)
            else:
                piece = compose_chain_component([r1], list(chain), W3, t_boundary=boundary)
            if sign == -1:
                piece = coderivation_from_components(
                    piece.name, piece.f, piece.g, piece.deg, piece.lvl,
                    {k: {key: v.neg() for key, v in tab.items()} for k, tab in piece.comps.items()},
                    complete_upto=piece.complete_upto,
                )
            total = piece if total is None else add_coderivations(total, piece)
        return total

    left = side(([r1], [t]), outer_left=True)
    right = side(([t], [u]), outer_left=False)
    ok = ok and left.comps == right.comps and left.deg == right.deg
    report(8, ok, "solver roundtrips, single-entry evaluation, composition unit and associativity")


def test_criterion_09_convergence_logic(rng):
    Q = loop_quiver(sdegs=(0,))
    g0 = Q.gen("g0")
    half = {"X": hom(g0, novikov.monomial(1, Fraction(1, 2), 0))}
    ok = tensor_convergent(half, W, 16).order == 6
    ok = ok and tensor_convergent({"X": HomElement.zero("X", "X")}, W, 16).order == 1
    QD = FiltQuiver("D", ["X"], [HomGenerator("c", "X", "X", 0, levels.discrete(0))])
    WD = TruncWindow(4, levels.discrete("inf"))
    flat = {"X": HomElement.from_gen(QD.gen("c"), novikov.one("q"))}
    ok = ok and tensor_convergent(flat, WD, 8).kind == "undecided"

    WP = TruncWindow(6, levels.ratplus(2))
    QR = FiltQuiver("R", ["X"], [HomGenerator("c", "X", "X", 0, levels.ratplus(0))])
    c = QR.gen("c")
    for _ in range(20):
        l1 = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        l2 = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        phi = {"X": hom(c, novikov.monomial(1, l1, 0, "nov0"))}
        psi = {"X": hom(c, novikov.monomial(-2, l2, 0, "nov0"))}
        both = {"X": phi["X"].add(psi["X"])}
        ok = ok and tensor_convergent(both, WP, 48).kind == "true"
        # Paired with an arbitrary nonnegative partner, levels add.
        l3 = Fraction(rng.randint(0, 3), rng.randint(1, 3))
        partner = HomElement.from_gen(c, novikov.monomial(3, l3, 0, "nov0"))
        p1 = TensorElement.from_hom(phi["X"])
        p2 = TensorElement.from_hom(partner)
        converged = False
        for n in range(1, 25):
            pl = levels.level_add(p1.level("ratplus"), p2.level("ratplus"))
            if levels.level_leq(WP.cutoff, pl):
                converged = True
                break
            p1 = mu_concat(p1, TensorElement.from_hom(phi["X"]))
            p2 = mu_concat(p2, TensorElement.from_hom(partner))
        ok = ok and converged
    report(9, ok, "convergence orders, discrete undecided, closure under sum and pairing on 20 samples")


def test_criterion_10_cli_contract(monkeypatch):
    monkeypatch.chdir(ROOT)
    from facalc.cli import main
    from make_goldens import GOLDEN_CASES

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue() + err.getvalue()

    ok = True
    for name, argv in GOLDEN_CASES.items():
        if name == "solve_psi_roundtrip":
            continue  # covered below with its semantic roundtrip
        code, text = run(argv)
        want = (ROOT / "tests" / "golden" / f"{name}.txt").read_text(encoding="utf-8")
        ok = ok and f"exit {code}\n{text}" == want
    code, text = run(["solve-psi", "tests/fixtures/psi_roundtrip.json"])
    want = (ROOT / "tests" / "golden" / "solve_psi_roundtrip.txt").read_text(encoding="utf-8")
    ok = ok and f"exit {code}\n{text}" == want

    # Serialization roundtrip is byte-exact on a normalized file.
    code1, text1 = run(["normalize", "tests/fixtures/b1_only.json"])
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(text1)
        path = fh.name
    code2, text2 = run(["normalize", path])
    ok = ok and code1 == code2 == 0 and text1 == text2

    # Exit code contract.
    ok = ok and run(["check-b2", "tests/fixtures/b1_only.json"])[0] == 0
    ok = ok and run(["check-b2", "tests/fixtures/nonassoc.json"])[0] == 1
    ok = ok and run(["check-b2", "tests/fixtures/undecided.json"])[0] == 2
    ok = ok and run(["check-b2", "tests/fixtures/parse_error.json"])[0] == 64
    ok = ok and run(["check-b2", "tests/fixtures/resolve_error.json"])[0] == 65
    report(10, ok, "golden files per command, byte-exact roundtrip, exit codes 0/1/2/64/65")
