import os
import random
from functools import lru_cache
from typing import Iterator, List, Tuple

import pytest

from facalc import levels, novikov
from facalc.filtquiver import FiltQuiver, HomGenerator
from facalc.tcoalg import TruncWindow


def facalc_seed() -> int:
    return int(os.environ.get("FACALC_SEED", "0"))


@lru_cache(maxsize=4096)
def _seq_splits_cached(n: int, k: int, allow_empty: bool) -> Tuple[Tuple[int, ...], ...]:
    if k < 1 or (not allow_empty and k > n):
        return ()
    out: List[Tuple[int, ...]] = []

    def rec(prefix: List[int], remaining: int, start: int):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        hi = n - (0 if allow_empty else remaining)
        for cut in range(start, hi + 1):
            prefix.append(cut)
            rec(prefix, remaining - 1, cut + (0 if allow_empty else 1))
            prefix.pop()

    rec([], k - 1, 0 if allow_empty else 1)
    return tuple(out)


def seq_splits(n: int, k: int, allow_empty: bool) -> Iterator[Tuple[int, ...]]:
    """Cut points 0 <= i_1 <= ... <= i_{k-1} <= n splitting a length-n list
    into k consecutive blocks; with allow_empty=False all blocks are
    non-empty (strictly increasing interior cut points).  The split
    enumerator's helper, kept here for the oracles that list every split."""
    return iter(_seq_splits_cached(n, k, allow_empty))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(facalc_seed())


@pytest.fixture
def window() -> TruncWindow:
    return TruncWindow(6, levels.rat(3))


def loop_quiver(name="A", sdegs=(0, 1), base=0):
    """One object X with one loop generator per listed degree."""
    gens = [
        HomGenerator(f"g{i}", "X", "X", d, levels.rat(base))
        for i, d in enumerate(sdegs)
    ]
    return FiltQuiver(name, ["X"], gens)


def two_object_quiver(name="B"):
    """X --a--> Y with loops on both ends, mixed degrees and levels."""
    gens = [
        HomGenerator("a", "X", "Y", 0, levels.rat(0)),
        HomGenerator("x", "X", "X", 1, levels.rat("1/2")),
        HomGenerator("y", "Y", "Y", -1, levels.rat(0)),
    ]
    return FiltQuiver(name, ["X", "Y"], gens)


def three_object_quiver(name="C"):
    gens = [
        HomGenerator("ab", "P", "Q", 0, levels.rat(0)),
        HomGenerator("bc", "Q", "R", 1, levels.rat(1)),
        HomGenerator("ca", "R", "P", 2, levels.rat(0)),
        HomGenerator("lp", "P", "P", -1, levels.rat(0)),
    ]
    return FiltQuiver(name, ["P", "Q", "R"], gens)


def one(variant="nov"):
    return novikov.one(variant)
