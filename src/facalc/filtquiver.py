"""Graded filtered quivers with finite free hom modules, and the sign engine.

A quiver is a set of named objects with, for each ordered pair, a finite list
of hom generators.  Each generator carries a (shifted) integer degree and a
base filtration level; hom elements are finite sums of generators with
Novikov scalar coefficients.

Maps act on the right, ``(x)f``, and are extended linearly over the
coefficient ring.  ``koszul_sign`` is the literal sign rule: it commutes
operators past elements one transposition at a time with the rule
tau(x (x) y) = (-1)^{deg x * deg y} y (x) x.  The code takes every sign
from its closed form, ``_crossing_sign``, one factor per operator; the
tests keep ``koszul_sign`` as the oracle.  Coefficients sit in even degrees,
so only the generator degrees enter parities.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple

from . import levels, novikov
from .errors import DegreeMismatch, FacalcError, LevelViolation, ObjectMismatch
from .levels import INFINITY, Frozen, Level
from .novikov import NovikovScalar


class HomGenerator(Frozen):
    """A basis element of a hom module.  ``sdeg`` is the stored degree."""

    __slots__ = ("gid", "src", "dst", "sdeg", "base_level")

    def __init__(self, gid: str, src: str, dst: str, sdeg: int, base_level: Level):
        if base_level.is_infinite():
            raise FacalcError(f"generator {gid!r} cannot have infinite base level")
        self._set(gid, src, dst, sdeg, base_level)


class FiltQuiver:
    """Objects plus per-pair generator lists; generator ids are unique.

    ``words`` keeps the words the block engine (``morphisms._path_sum``)
    has output into this quiver, keyed by the ids of their generators.  Each
    word holds its generators, so no id in a key is reused while the entry
    exists."""

    def __init__(self, name: str, objects: Iterable[str], gens: Iterable[HomGenerator]):
        self.name = name
        self.objects: Tuple[str, ...] = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise FacalcError(f"duplicate object names in quiver {name!r}")
        obj_set = set(self.objects)
        self.gens: Tuple[HomGenerator, ...] = tuple(gens)
        self._by_id: Dict[str, HomGenerator] = {}
        for g in self.gens:
            if g.src not in obj_set or g.dst not in obj_set:
                raise ObjectMismatch(f"generator {g.gid!r} uses undeclared objects")
            if g.gid in self._by_id:
                raise FacalcError(f"duplicate generator id {g.gid!r} in quiver {name!r}")
            self._by_id[g.gid] = g
        self.words: dict = {}

    def gen(self, gid: str) -> HomGenerator:
        try:
            return self._by_id[gid]
        except KeyError:
            raise FacalcError(f"no generator {gid!r} in quiver {self.name!r}") from None

    def gens_from(self, src: str) -> List[HomGenerator]:
        return [g for g in self.gens if g.src == src]

    def __repr__(self) -> str:
        return f"FiltQuiver({self.name!r}, {len(self.objects)} objects, {len(self.gens)} gens)"


class HomElement:
    """A normalized finite sum of (generator, scalar) with fixed endpoints."""

    __slots__ = ("src", "dst", "terms")

    def __init__(self, src: str, dst: str, terms: Iterable[Tuple[HomGenerator, NovikovScalar]] = ()):
        merged: Dict[str, Tuple[HomGenerator, NovikovScalar]] = {}
        for g, c in terms:
            if g.src != src or g.dst != dst:
                raise ObjectMismatch(
                    f"term {g.gid!r}: ({g.src},{g.dst}) does not match hom ({src},{dst})"
                )
            if g.gid in merged:
                merged[g.gid] = (g, novikov.nov_add(merged[g.gid][1], c))
            else:
                merged[g.gid] = (g, c)
        self.src = src
        self.dst = dst
        self.terms: Tuple[Tuple[HomGenerator, NovikovScalar], ...] = tuple(
            (g, c) for gid, (g, c) in sorted(merged.items()) if not c.is_zero()
        )

    @staticmethod
    def zero(src: str, dst: str) -> "HomElement":
        return HomElement(src, dst)

    @staticmethod
    def from_gen(g: HomGenerator, coeff: NovikovScalar) -> "HomElement":
        return HomElement(g.src, g.dst, [(g, coeff)])

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "HomElement") -> "HomElement":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if (self.src, self.dst) != (other.src, other.dst):
            raise ObjectMismatch("adding hom elements with different endpoints")
        return HomElement(self.src, self.dst, list(self.terms) + list(other.terms))

    def neg(self) -> "HomElement":
        return HomElement(self.src, self.dst, [(g, novikov.nov_neg(c)) for g, c in self.terms])

    def rat_scale(self, q) -> "HomElement":
        return HomElement(self.src, self.dst, [(g, novikov.nov_rat_mul(q, c)) for g, c in self.terms])

    def level(self, instance: str) -> Level:
        """min over terms of base_level(g) + energy level of the coefficient."""
        best = INFINITY
        for g, c in self.terms:
            lvl = levels.level_add(g.base_level, novikov.nov_level(c, instance))
            best = levels.level_min(best, lvl)
        return best

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomElement)
            and self.src == other.src
            and self.dst == other.dst
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.src, self.dst, self.terms))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"HomElement(0: {self.src}->{self.dst})"
        body = " + ".join(f"({novikov.format_scalar(c)})*{g.gid}" for g, c in self.terms)
        return f"HomElement({body})"


def koszul_sign(op_degs: List[int], arg_degs: List[int]) -> int:
    """Sign of applying the operator tensor op_1 (x) ... (x) op_n to
    arguments x_1 (x) ... (x) x_n on the right.

    Computed literally: starting from x_1 ... x_n op_1 ... op_n, each op_i is
    moved leftwards one transposition at a time until it sits right after its
    argument x_i; swapping past an item of degree d costs (-1)^{deg(op)*d}.
    """
    if len(op_degs) != len(arg_degs):
        raise FacalcError("operator and argument counts differ")
    n = len(op_degs)
    # Items: (kind, index, degree); start with all args then all ops.
    sequence = [("x", i, arg_degs[i]) for i in range(n)] + [
        ("f", i, op_degs[i]) for i in range(n)
    ]
    sign = 1
    for i in range(n):
        pos = sequence.index(("f", i, op_degs[i]))
        target = sequence.index(("x", i, arg_degs[i])) + 1
        while pos > target:
            passed = sequence[pos - 1]
            sign *= -1 if (op_degs[i] % 2) and (passed[2] % 2) else 1
            sequence[pos - 1], sequence[pos] = sequence[pos], sequence[pos - 1]
            pos -= 1
    return sign


def _crossing_sign(deg: int, tail_sdeg: int) -> int:
    """Sign of a degree-deg operator crossing arguments of total degree
    tail_sdeg on its way to its own argument: ``koszul_sign`` is the product
    of this over its operators, each with the degrees of the later
    arguments."""
    return -1 if (deg * tail_sdeg) % 2 else 1


def _check_member(
    value: HomElement, want: Tuple[str, str], deg: int, need: Level, instance: str, where: Callable[[], str]
) -> None:
    """Raise unless the nonzero value lies in hom(want), in degree deg, at
    level >= need; ``where()`` names the value in the message.  A term's
    degree is its generator's plus 2 per power of e."""
    if (value.src, value.dst) != want:
        raise ObjectMismatch(f"{where()} lands in {(value.src, value.dst)}, expected {want}")
    for d in sorted({g.sdeg + 2 * n for g, c in value.terms for _, _, n in c.terms}):
        if d != deg:
            raise DegreeMismatch(f"{where()} has degree {d}, expected {deg}")
    if not levels.level_leq(need, value.level(instance)):
        raise LevelViolation(f"{where()} violates level {need}")


class GradedMap:
    """A right-acting graded filtered map, given per-generator.

    Membership in F^lvl of the degree-deg inner hom means: for every
    generator g, degree((g)f) = sdeg(g) + deg and level((g)f) >= base_level(g)
    + lvl.  Violations raise at construction.
    """

    def __init__(
        self,
        deg: int,
        lvl: Level,
        src_quiver: FiltQuiver,
        dst_quiver: FiltQuiver,
        obj_map: Dict[str, str],
        action: Dict[str, HomElement],
        instance: str,
        check: bool = True,
    ):
        self.deg = deg
        self.lvl = lvl
        self.src_quiver = src_quiver
        self.dst_quiver = dst_quiver
        self.obj_map = dict(obj_map)
        self.action = dict(action)
        self.instance = instance
        if check:
            self._validate()

    def _validate(self) -> None:
        for obj in self.src_quiver.objects:
            if obj not in self.obj_map:
                raise ObjectMismatch(f"object map misses {obj!r}")
        for gid, out in self.action.items():
            g = self.src_quiver.gen(gid)
            if not out.is_zero():
                want = (self.obj_map[g.src], self.obj_map[g.dst])
                need = levels.level_add(g.base_level, self.lvl)
                _check_member(
                    out, want, g.sdeg + self.deg, need, self.instance, lambda: f"action of {gid!r}"
                )

    def apply(self, x: HomElement) -> HomElement:
        """Linear extension of the per-generator action."""
        terms = [
            (g2, novikov.nov_mul(c2, c))
            for g, c in x.terms if g.gid in self.action
            for g2, c2 in self.action[g.gid].terms
        ]
        return HomElement(self.obj_map[x.src], self.obj_map[x.dst], terms)


def compose_maps(f: GradedMap, g: GradedMap) -> GradedMap:
    """(x)(f * g) = ((x)f)g, with the composed degree and level."""
    if f.dst_quiver is not g.src_quiver and f.dst_quiver.name != g.src_quiver.name:
        raise ObjectMismatch("graded maps are not composable")
    action = {gid: g.apply(out) for gid, out in f.action.items()}
    return GradedMap(
        f.deg + g.deg,
        levels.level_add(f.lvl, g.lvl),
        f.src_quiver,
        g.dst_quiver,
        {x: g.obj_map[y] for x, y in f.obj_map.items()},
        action,
        f.instance,
        check=False,
    )
