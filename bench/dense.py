"""Seeded generator of the ``dense`` workload's structure files.

The shape is fixed here and never drawn from the seed: two objects, each
carrying a four-generator loop complex ``x -> (y1, y2) -> z`` with stored
degrees 0, 1, 1, 2, zero base levels, and codifferential components whose
scalars all have exactly ``TERMS`` monomials.  The seed picks only the
contents: rational coefficients, energies ``p/q``, and which of ``y1``/``y2``
carries the base component of each complex.  The same components are present
on every seed, so every seed asks for the same amount of work.

Every file satisfies b o b = 0 by construction, so ``check-b2`` must report a
zero residual on every word.  Each complex starts from ``d x = a y_i`` and
``d y_j = b z`` with ``i != j`` (so ``d d = 0`` trivially) and is then
conjugated by the unitriangular change of basis ``y_i -> y_i + s y_j``:

    d x = a y_i + a s y_j,    d y_i = -s b z,    d y_j = b z.

The two products ``a * (-s b)`` and ``(a s) * b`` cancel exactly, so every
residual is a sum of multi-term Novikov products that must cancel to zero.
``a`` has energies ``(i + u) / TERMS`` and ``b`` energies
``(j + v) / TERMS**2`` for ``i, j < TERMS``, and ``s`` is one monomial, so all
four scalars have ``TERMS`` terms and every product ``a_i b_j`` has its own
energy.  The seed picks only the offsets ``u, v`` and the energy of ``s``;
which products share an energy, and so how many terms each sum keeps, is the
same on every seed.  All e-exponents are 0, which keeps every component
degree-homogeneous.
``check_b2_report`` rebuilds the expected report without facalc.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Dict, List, Tuple

TERMS = 16
OBJECTS = ("X", "Y")
CUTOFF = "4"  # above every energy a product of three factors can reach
MAX_LEN = 6

Poly = Dict[Fraction, Fraction]  # energy -> coefficient, e-exponent 0



def _coeff(rng: random.Random) -> Fraction:
    c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return c if rng.random() < 0.5 else -c


def _offset(rng: random.Random) -> Fraction:
    """A rational p/q in [0, 1)."""
    q = rng.randint(2, 9)
    return Fraction(rng.randrange(q), q)


def _poly(rng: random.Random, energies) -> Poly:
    return {e: _coeff(rng) for e in energies}


def _mul(x: Poly, y: Poly) -> Poly:
    out: Poly = {}
    for ex, cx in x.items():
        for ey, cy in y.items():
            out[ex + ey] = out.get(ex + ey, Fraction(0)) + cx * cy
    return {e: c for e, c in out.items() if c != 0}


def _frac(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def scalar_text(x: Poly) -> str:
    """Canonical monomial syntax: terms sorted by energy, lowest terms."""
    return "+".join(f"{_frac(c)}*T^{{{_frac(e)}}}*e^{{0}}" for e, c in sorted(x.items()))


def _complex(rng: random.Random, obj: str) -> Tuple[List[dict], List[dict]]:
    u, v = _offset(rng), _offset(rng)
    a = _poly(rng, [(i + u) / TERMS for i in range(TERMS)])
    b = _poly(rng, [(j + v) / TERMS**2 for j in range(TERMS)])
    s = _poly(rng, [_offset(rng)])
    x, z = f"x{obj}", f"z{obj}"
    yi, yj = (f"y1{obj}", f"y2{obj}")
    if rng.random() < 0.5:
        yi, yj = yj, yi
    neg_sb = {e: -c for e, c in _mul(s, b).items()}
    gens = [
        {"id": gid, "src": obj, "dst": obj, "sdeg": sdeg, "base_level": {"rat": "0"}}
        for gid, sdeg in ((x, 0), (f"y1{obj}", 1), (f"y2{obj}", 1), (z, 2))
    ]
    comps = [
        {"word": [x], "value": sorted([[yi, scalar_text(a)], [yj, scalar_text(_mul(a, s))]])},
        {"word": [yi], "value": [[z, scalar_text(neg_sb)]]},
        {"word": [yj], "value": [[z, scalar_text(b)]]},
    ]
    return gens, comps


def generate(seed: int, index: int) -> dict:
    """The ``index``-th document of the workload for ``seed``, in the
    canonical layout (sorted keys, sorted generators and components)."""
    rng = random.Random(f"dense:{seed}:{index}")
    gens: List[dict] = []
    comps: List[dict] = []
    for obj in OBJECTS:
        g, c = _complex(rng, obj)
        gens.extend(g)
        comps.extend(c)
    return {
        "level_monoid": "rat",
        "coefficients": "nov",
        "window": {"max_len": MAX_LEN, "cutoff": {"rat": CUTOFF}},
        "quivers": [
            {
                "name": "D",
                "objects": list(OBJECTS),
                "generators": sorted(gens, key=lambda g: g["id"]),
            }
        ],
        "b_components": [
            {"quiver": "D", "components": sorted(comps, key=lambda c: c["word"])}
        ],
    }


def document_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _b2_entries(n_max: int) -> List[Tuple[int, str]]:
    """(length, word name) of every basis word up to n_max letters, in the
    report's order."""
    entries = []
    for obj in OBJECTS:
        letters = [f"x{obj}", f"y1{obj}", f"y2{obj}", f"z{obj}"]
        entries.append((0, f"[]@{obj}"))
        words: List[List[str]] = [[]]
        for n in range(1, n_max + 1):
            words = [w + [g] for w in words for g in letters]
            entries.extend((n, ".".join(w)) for w in words)
    return sorted(entries)


def check_b2_report(path: str, n_max: int, fmt: str = "text") -> str:
    """The exact ``check-b2`` report on a generated file: every basis word up
    to ``n_max`` letters, zero residual, SOUND, exit 0."""
    entries = _b2_entries(n_max)
    summary = {"checked": len(entries), "failed": 0, "lossy": 0, "undecided": 0}
    if fmt == "json":
        return document_text({
            "command": "check-b2",
            "file": path,
            "entries": [
                {"relation": "b2", "n": n, "word": w, "residual": "0", "flag": "SOUND"}
                for n, w in entries
            ],
            "summary": summary,
            "exit": 0,
        })
    lines = [f"facalc check-b2 {path}"]
    lines += [f"check b2 n={n} word={w} residual=0 flag=SOUND" for n, w in entries]
    lines.append("summary: checked={checked} failed={failed} lossy={lossy} undecided={undecided}"
                 .format(**summary))
    lines.append("exit 0")
    return "\n".join(lines) + "\n"
