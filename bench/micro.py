"""Layer microbenchmarks on fixed inputs built from public constructors.

Usage: ``python3 bench/micro.py`` from the checkout root; prints one JSON
object mapping metric name to microseconds per call.  Each figure is the
median over ``REPEATS`` timed batches, a batch lasting about ``BATCH_S``
seconds, after one untimed warm-up call (which also fills the split caches,
so the slot figures are warm-cache figures).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from fractions import Fraction

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
REPEATS = 7
BATCH_S = 0.02


def per_call_us(fn) -> float:
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= BATCH_S / 4:
            break
        n *= 2
    n = max(1, int(n * BATCH_S / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def scalar(novikov, n: int, shift: int):
    """n monomials with distinct energies and coefficients, e-exponent 0."""
    return novikov.scalar(
        [(Fraction(i + shift, 3), Fraction(i, n) + shift, 0) for i in range(1, n + 1)]
    )


def cases():
    from facalc import levels, novikov
    from facalc.filtquiver import FiltQuiver, HomElement, HomGenerator
    from facalc.morphisms import (
        chain_slots,
        coderivation_from_components,
        coderivation_slots,
        cofunctor_from_components,
        cofunctor_slots,
        slot_value,
    )
    from facalc.tcoalg import TensorElement, TruncWindow, Word, basis_words

    zero = levels.rat(0)
    gens = [HomGenerator(g, "X", "X", d, zero) for g, d in (("p", 0), ("q", 1), ("u", 0), ("v", 1))]
    quiver = FiltQuiver("M", ["X"], gens)
    p, q, u, v = gens
    one = novikov.one()
    t1 = novikov.monomial(1, 1)
    window = TruncWindow(6, levels.rat(3))

    def hom(*terms):
        return HomElement("X", "X", terms)

    f = cofunctor_from_components(
        "f", quiver, quiver, {"X": "X"},
        {1: {("p",): hom((p, one), (u, t1)), ("q",): hom((q, one)), ("u",): hom((u, one)),
             ("v",): hom((v, one))},
         2: {("p", "p"): hom((u, t1))}},
        window, novikov.NOV,
    )
    r = coderivation_from_components(
        "r", f, f, 1, zero, {1: {("p",): hom((q, one)), ("u",): hom((v, one))}}
    )
    x = TensorElement.from_word(Word.from_gens([p, u, p, u]), one)

    s1, s8, s64 = (scalar(novikov, n, 0) for n in (1, 8, 64))
    t8, t64 = scalar(novikov, 8, 5), scalar(novikov, 64, 5)
    words = [w for w in basis_words(quiver, 4, include_empty=False) if len(w) == 4][:256]
    singles = [TensorElement.from_word(w, one) for w in words]

    def accumulate():
        total = TensorElement.zero("X", "X")
        for e in singles:
            total = total.add(e)
        return total

    return {
        "novikov.mul_1_us": lambda: novikov.nov_mul(s1, s1),
        "novikov.mul_8_us": lambda: novikov.nov_mul(s8, t8),
        "novikov.mul_64_us": lambda: novikov.nov_mul(s64, t64),
        "novikov.add_64_us": lambda: novikov.nov_add(s64, t64),
        "tcoalg.accumulate_256_us": accumulate,
        "morphisms.slot_value_cofunctor_us": lambda: slot_value(x, cofunctor_slots(f), window),
        "morphisms.slot_value_coderivation_us": lambda: slot_value(x, coderivation_slots(r), window),
        "morphisms.slot_value_chain3_us": lambda: slot_value(x, chain_slots([r, r, r], f), window),
    }


def main() -> None:
    sys.path.insert(0, SRC)
    print(json.dumps({name: per_call_us(fn) for name, fn in cases().items()}))


if __name__ == "__main__":
    main()
