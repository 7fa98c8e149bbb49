"""Loading, validating and canonically printing structure files.

A structure file is strict JSON declaring, in order of dependency: the level
monoid instance, the coefficient ring variant, a truncation window, quivers,
codifferential components per quiver, cofunctors, coderivations, named
elements, an optional coderivation-quiver section, an optional solver
section, and per-command task defaults.

Canonical form: keys sorted, entries sorted by name, rationals printed in
lowest terms with positive denominator, every scalar in full monomial
syntax.  ``dump_model`` always emits canonical form, so load -> print ->
load is the identity on normalized files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Optional

from . import levels, novikov
from .ainfty import AInfCategory, CoderQuiver, ainf_category, shift_degree
from .errors import ConvergenceUndecided, FacalcError, ParseError, ResolveError
from .filtquiver import FiltQuiver, HomElement, HomGenerator
from .levels import Level
from .morphisms import (
    Coderivation,
    Cofunctor,
    Components,
    coderivation_from_components,
    cofunctor_from_components,
    comp_key,
)
from .novikov import NovikovScalar
from .tcoalg import TensorElement, TruncWindow, Word

ALLOWED_PAIRS = {
    ("rat", "nov"),
    ("rat", "nov0"),
    ("ratplus", "nov0"),
    ("rat", "q"),
    ("ratplus", "q"),
    ("discrete", "q"),
}


class PsiSpec:
    def __init__(self, source: FiltQuiver, obj_map: Dict[str, str], gen_map: Dict[str, str]):
        self.source = source
        self.obj_map = obj_map  # factor object -> functor name
        self.gen_map = gen_map  # factor generator -> coderivation name


class Model:
    def __init__(self, monoid: str, variant: str, window: TruncWindow):
        self.monoid = monoid
        self.variant = variant
        self.window = window
        self.quivers: Dict[str, FiltQuiver] = {}
        self.cats: Dict[str, AInfCategory] = {}
        self.functors: Dict[str, Cofunctor] = {}
        self.coderivations: Dict[str, Coderivation] = {}
        self.elements: Dict[str, TensorElement] = {}
        self.element_quivers: Dict[str, str] = {}  # element -> quiver name
        self.coder_quiver: Optional[CoderQuiver] = None
        self.psi: Optional[PsiSpec] = None
        self.tasks: Dict[str, dict] = {}


def _fail(loc: str, msg: str) -> ParseError:
    return ParseError(loc, msg)


def _expect(cond: bool, loc: str, msg: str) -> None:
    if not cond:
        raise _fail(loc, msg)


def _is_int(value) -> bool:
    """A JSON integer; ``bool`` is an ``int`` subclass in Python."""
    return isinstance(value, int) and not isinstance(value, bool)


def _name_at(value, loc: str, required: bool = True):
    """A name field: a string, or absent (None) where ``required`` is False
    so that the lookup reports the name as unresolved."""
    _expect(isinstance(value, str) or (value is None and not required), loc, "name must be a string")
    return value


def _list_at(obj: dict, key: str, loc: str) -> list:
    value = obj.get(key, [])
    _expect(isinstance(value, list), f"{loc}.{key}", f"{key} must be a list")
    return value


def _named_entries(doc: dict, key: str, noun: str, table: dict):
    """(loc, obj, name) for each entry of the list doc[key]: an object whose
    name is a non-empty string not yet in ``table``.  The caller adds each
    entry to ``table`` before it asks for the next."""
    for i, obj in enumerate(_list_at(doc, key, "$")):
        loc = f"$.{key}[{i}]"
        _expect(isinstance(obj, dict), loc, f"{noun} must be an object")
        name = obj.get("name")
        _expect(isinstance(name, str) and name, f"{loc}.name", f"{noun} needs a name")
        _expect(name not in table, f"{loc}.name", f"duplicate {noun} {name!r}")
        yield loc, obj, name


def _built(loc: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with any ``FacalcError`` from it but
    ``ConvergenceUndecided`` turned into a parse error at loc."""
    try:
        return build(*args, **kwargs)
    except ConvergenceUndecided:
        raise
    except FacalcError as exc:
        raise _fail(loc, str(exc)) from None


def parse_level(obj, loc: str) -> Level:
    _expect(isinstance(obj, dict) and len(obj) == 1, loc, "level must be a one-key object")
    (key, val), = obj.items()
    if key != "infinity":
        _expect(
            isinstance(val, (int, float, str)) and not isinstance(val, bool),
            loc,
            "level value must be a number or a string",
        )
    try:
        if key == "rat":
            return levels.rat(Fraction(val))
        if key == "ratplus":
            return levels.ratplus(Fraction(val))
        if key == "discrete":
            return levels.discrete(val if val == "inf" else int(val))
        if key == "infinity":
            _expect(val is True, loc, "infinity level must be true")
            return levels.INFINITY
    except (ValueError, OverflowError, ZeroDivisionError, FacalcError) as exc:
        raise _fail(loc, f"bad level value: {exc}") from None
    raise _fail(loc, f"unknown level kind {key!r}")


def level_to_json(lvl: Level):
    if lvl.instance == "inf":
        return {"infinity": True}
    if lvl.instance == "discrete":
        return {"discrete": "inf" if lvl.value is None else "0"}
    return {lvl.instance: novikov._frac_str(lvl.value)}


def parse_scalar_at(text, variant: str, loc: str) -> NovikovScalar:
    _expect(isinstance(text, str), loc, "scalar must be a string")
    return _built(loc, novikov.parse_scalar, text, variant)


def _parse_hom_value(obj, quiver: FiltQuiver, variant: str, loc: str) -> HomElement:
    _expect(isinstance(obj, list), loc, "value must be a list of [generator, scalar] pairs")
    terms = []
    src = dst = None
    for i, pair in enumerate(obj):
        ploc = f"{loc}[{i}]"
        _expect(isinstance(pair, list) and len(pair) == 2, ploc, "expected [generator, scalar]")
        gid, scal = pair
        _name_at(gid, f"{ploc}[0]")
        try:
            g = quiver.gen(gid)
        except FacalcError:
            raise ResolveError(f"{ploc}: unknown generator {gid!r} in quiver {quiver.name!r}") from None
        if src is None:
            src, dst = g.src, g.dst
        terms.append((g, parse_scalar_at(scal, variant, ploc)))
    _expect(src is not None, loc, "empty value list; use [] only for zero with known endpoints")
    return _built(loc, HomElement, src, dst, terms)


def _parse_word(obj: dict, quiver: FiltQuiver, loc: str) -> Word:
    """The basis word of a component or element term: the empty word at
    ``obj["at"]``, else the non-empty list ``obj["word"]`` of generator ids.
    An unknown id is unresolved; a word that does not compose is malformed."""
    if "at" in obj:
        _expect(obj["at"] in quiver.objects, loc, f"unknown object {obj['at']!r}")
        return Word(obj["at"])
    gids = obj.get("word")
    _expect(isinstance(gids, list) and gids, loc, "give 'at' or a non-empty 'word' list")
    for i, gid in enumerate(gids):
        _name_at(gid, f"{loc}.word[{i}]")
    try:
        gens = [quiver.gen(g) for g in gids]
    except FacalcError as exc:
        raise ResolveError(f"{loc}: {exc}") from None
    return _built(f"{loc}.word", Word.from_gens, gens)


def _parse_component_entry(entry, quiver: FiltQuiver, target: FiltQuiver, variant: str, loc: str):
    _expect(isinstance(entry, dict), loc, "component must be an object")
    _expect(("word" in entry) != ("at" in entry), loc, "give exactly one of 'word' or 'at'")
    w = _parse_word(entry, quiver, loc)
    value = _parse_hom_value(entry.get("value"), target, variant, f"{loc}.value")
    return len(w), comp_key(w), value


def _parse_components(
    entries, quiver: FiltQuiver, target: FiltQuiver, variant: str, loc: str
) -> Components:
    _expect(isinstance(entries, list), loc, "components must be a list")
    comps: Components = {}
    for i, entry in enumerate(entries):
        k, key, value = _parse_component_entry(entry, quiver, target, variant, f"{loc}[{i}]")
        table = comps.setdefault(k, {})
        _expect(key not in table, f"{loc}[{i}]", f"duplicate component at {key!r}")
        table[key] = value
    return comps


def load_model(text: str) -> Model:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _fail(f"line {exc.lineno} column {exc.colno}", exc.msg) from None
    _expect(isinstance(doc, dict), "$", "top level must be an object")

    monoid = doc.get("level_monoid")
    _expect(monoid in ("rat", "ratplus", "discrete"), "$.level_monoid", f"bad instance {monoid!r}")
    variant = doc.get("coefficients")
    _expect(variant in ("nov", "nov0", "q"), "$.coefficients", f"bad variant {variant!r}")
    _expect(
        (monoid, variant) in ALLOWED_PAIRS,
        "$.coefficients",
        f"variant {variant!r} cannot be filtered over instance {monoid!r}",
    )

    wobj = doc.get("window")
    _expect(isinstance(wobj, dict), "$.window", "window must be an object")
    _expect(_is_int(wobj.get("max_len")), "$.window.max_len", "max_len must be an integer")
    cutoff = parse_level(wobj.get("cutoff"), "$.window.cutoff")
    _expect(cutoff.instance == monoid, "$.window.cutoff", "cutoff must live in the active instance")
    window = _built("$.window", TruncWindow, wobj["max_len"], cutoff)

    model = Model(monoid, variant, window)

    for loc, qobj, name in _named_entries(doc, "quivers", "quiver", model.quivers):
        objs = qobj.get("objects")
        _expect(
            isinstance(objs, list) and all(isinstance(o, str) for o in objs),
            f"{loc}.objects",
            "objects must be a list of names",
        )
        gens = []
        for gi, gobj in enumerate(_list_at(qobj, "generators", loc)):
            gloc = f"{loc}.generators[{gi}]"
            _expect(isinstance(gobj, dict), gloc, "generator must be an object")
            for key in ("id", "src", "dst"):
                _name_at(gobj.get(key), f"{gloc}.{key}")
            has_sdeg = "sdeg" in gobj
            has_deg = "deg" in gobj
            _expect(has_sdeg != has_deg, gloc, "give exactly one of 'sdeg' or 'deg'")
            declared = gobj["sdeg"] if has_sdeg else gobj["deg"]
            _expect(_is_int(declared), gloc, "degree must be an integer")
            sdeg = declared if has_sdeg else shift_degree(declared)
            base = parse_level(gobj.get("base_level"), f"{gloc}.base_level")
            _expect(
                base.instance == monoid and not base.is_infinite(),
                f"{gloc}.base_level",
                "base level must be finite in the active instance",
            )
            fields = (gobj.get("id"), gobj.get("src"), gobj.get("dst"), sdeg, base)
            gens.append(_built(gloc, HomGenerator, *fields))
        model.quivers[name] = _built(loc, FiltQuiver, name, objs, gens)

    def get_quiver(obj: dict, key: str, loc: str) -> FiltQuiver:
        name = _name_at(obj.get(key), f"{loc}.{key}", required=False)
        if name not in model.quivers:
            raise ResolveError(f"{loc}: unknown quiver {name!r}")
        return model.quivers[name]

    for bi, bobj in enumerate(_list_at(doc, "b_components", "$")):
        loc = f"$.b_components[{bi}]"
        _expect(isinstance(bobj, dict), loc, "entry must be an object")
        quiver = get_quiver(bobj, "quiver", loc)
        _expect(quiver.name not in model.cats, f"{loc}.quiver", f"duplicate entry for quiver {quiver.name!r}")
        comps = _parse_components(bobj.get("components", []), quiver, quiver, variant, f"{loc}.components")
        model.cats[quiver.name] = _built(loc, ainf_category, quiver, comps, window, variant)

    for loc, fobj, name in _named_entries(doc, "functors", "functor", model.functors):
        src = get_quiver(fobj, "src", loc)
        dst = get_quiver(fobj, "dst", loc)
        obj_map = fobj.get("obj_map")
        _expect(isinstance(obj_map, dict), f"{loc}.obj_map", "obj_map must be an object")
        for x, y in obj_map.items():
            if x not in src.objects or y not in dst.objects:
                raise ResolveError(f"{loc}.obj_map: bad pair {x!r} -> {y!r}")
        for x in src.objects:
            if x not in obj_map:
                raise ResolveError(f"{loc}.obj_map: no image for object {x!r}")
        comps = _parse_components(fobj.get("components", []), src, dst, variant, f"{loc}.components")
        bound = fobj.get("convergence_bound", 16)
        _expect(_is_int(bound) and bound >= 1, f"{loc}.convergence_bound", "bad bound")
        model.functors[name] = _built(
            loc, cofunctor_from_components, name, src, dst, obj_map, comps, window, variant,
            convergence_bound=bound,
        )

    for loc, robj, name in _named_entries(doc, "coderivations", "coderivation", model.coderivations):
        for side in ("from", "to"):
            if _name_at(robj.get(side), f"{loc}.{side}", required=False) not in model.functors:
                raise ResolveError(f"{loc}.{side}: unknown functor {robj.get(side)!r}")
        f = model.functors[robj["from"]]
        g = model.functors[robj["to"]]
        deg = robj.get("degree")
        _expect(_is_int(deg), f"{loc}.degree", "degree must be an integer")
        lvl = parse_level(robj.get("level"), f"{loc}.level")
        comps = _parse_components(robj.get("components", []), f.src, f.dst, variant, f"{loc}.components")
        model.coderivations[name] = _built(loc, coderivation_from_components, name, f, g, deg, lvl, comps)

    for loc, eobj, name in _named_entries(doc, "elements", "element", model.elements):
        quiver = get_quiver(eobj, "quiver", loc)
        terms = []
        for ti, tobj in enumerate(_list_at(eobj, "terms", loc)):
            tloc = f"{loc}.terms[{ti}]"
            _expect(isinstance(tobj, dict), tloc, "term must be an object")
            coeff = parse_scalar_at(tobj.get("coeff", "1*T^{0}*e^{0}"), variant, f"{tloc}.coeff")
            terms.append((_parse_word(tobj, quiver, tloc), coeff))
        if terms:
            src, dst = terms[0][0].src, terms[0][0].dst
        else:
            src, dst = eobj.get("src"), eobj.get("dst")
            _expect(
                src in quiver.objects and dst in quiver.objects,
                loc,
                "an element without terms needs explicit 'src' and 'dst'",
            )
        model.elements[name] = _built(loc, TensorElement, src, dst, terms)
        model.element_quivers[name] = quiver.name

    if "coder_quiver" in doc:
        loc = "$.coder_quiver"
        cobj = doc["coder_quiver"]
        _expect(isinstance(cobj, dict), loc, "coder_quiver must be an object")
        for key in ("source", "target"):
            qname = _name_at(cobj.get(key), f"{loc}.{key}", required=False)
            if qname not in model.cats:
                raise ResolveError(f"{loc}: quiver {qname!r} has no codifferential")

        def members(key: str, table: dict, noun: str) -> list:
            out = []
            for i, name in enumerate(_list_at(cobj, key, loc)):
                if _name_at(name, f"{loc}.{key}[{i}]") not in table:
                    raise ResolveError(f"{loc}.{key}: unknown {noun} {name!r}")
                _expect(table[name] not in out, f"{loc}.{key}[{i}]", f"duplicate {noun} {name!r}")
                out.append(table[name])
            return out

        model.coder_quiver = CoderQuiver(
            model.cats[cobj["source"]],
            model.cats[cobj["target"]],
            members("functors", model.functors, "functor"),
            members("coderivations", model.coderivations, "coderivation"),
        )

    if "psi" in doc:
        loc = "$.psi"
        pobj = doc["psi"]
        _expect(isinstance(pobj, dict), loc, "psi must be an object")
        source = get_quiver(pobj, "source", loc)
        obj_map = pobj.get("obj_map", {})
        gen_map = pobj.get("gen_map", {})
        for key, table in (("obj_map", obj_map), ("gen_map", gen_map)):
            _expect(isinstance(table, dict), f"{loc}.{key}", f"{key} must be an object")
        for o, fname in obj_map.items():
            if o not in source.objects:
                raise ResolveError(f"{loc}.obj_map: unknown object {o!r}")
            if _name_at(fname, f"{loc}.obj_map.{o}") not in model.functors:
                raise ResolveError(f"{loc}.obj_map: unknown functor {fname!r}")
        for gid, rname in gen_map.items():
            try:
                source.gen(gid)
            except FacalcError:
                raise ResolveError(f"{loc}.gen_map: unknown generator {gid!r}") from None
            if _name_at(rname, f"{loc}.gen_map.{gid}") not in model.coderivations:
                raise ResolveError(f"{loc}.gen_map: unknown coderivation {rname!r}")
        for o in source.objects:
            _expect(o in obj_map, loc, f"psi object map misses {o!r}")
        model.psi = PsiSpec(source, dict(obj_map), dict(gen_map))

    tasks = doc.get("tasks", {})
    _expect(isinstance(tasks, dict), "$.tasks", "tasks must be an object")
    model.tasks = tasks
    return model


def load_model_file(path: str) -> Model:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(path, f"cannot read file: {exc}") from None
    return load_model(text)


# ---------------------------------------------------------------------------
# Canonical printing

def _hom_to_json(h: HomElement) -> list:
    return [[g.gid, novikov.format_scalar(c)] for g, c in h.terms]


def _components_to_json(comps: Components) -> list:
    out = []
    for k in sorted(comps):
        table = comps[k]
        for key in sorted(table):
            entry = {"at": key} if k == 0 else {"word": list(key)}
            entry["value"] = _hom_to_json(table[key])
            out.append(entry)
    return out


def quiver_to_json(q: FiltQuiver) -> dict:
    return {
        "name": q.name,
        "objects": sorted(q.objects),
        "generators": [
            {
                "id": g.gid,
                "src": g.src,
                "dst": g.dst,
                "sdeg": g.sdeg,
                "base_level": level_to_json(g.base_level),
            }
            for g in sorted(q.gens, key=lambda g: g.gid)
        ],
    }


def functor_to_json(f: Cofunctor) -> dict:
    return {
        "name": f.name,
        "src": f.src.name,
        "dst": f.dst.name,
        "obj_map": dict(sorted(f.obj_map.items())),
        "convergence_bound": f.convergence_bound,
        "components": _components_to_json(f.comps),
    }


def coderivation_to_json(r: Coderivation) -> dict:
    return {
        "name": r.name,
        "from": r.f.name,
        "to": r.g.name,
        "degree": r.deg,
        "level": level_to_json(r.lvl),
        "components": _components_to_json(r.comps),
    }


def element_to_json(name: str, x: TensorElement, quiver_name: str) -> dict:
    terms = []
    for w, c in x.terms:
        t = {"at": w.at} if len(w) == 0 else {"word": [g.gid for g in w.gens]}
        t["coeff"] = novikov.format_scalar(c)
        terms.append(t)
    out = {"name": name, "quiver": quiver_name, "terms": terms}
    if not terms:
        out["src"] = x.src
        out["dst"] = x.dst
    return out


def header_json(model: Model) -> dict:
    return {
        "level_monoid": model.monoid,
        "coefficients": model.variant,
        "window": {
            "max_len": model.window.max_len,
            "cutoff": level_to_json(model.window.cutoff),
        },
    }


def dump_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def model_to_json(model: Model) -> dict:
    doc = header_json(model)
    if model.quivers:
        doc["quivers"] = [quiver_to_json(q) for _, q in sorted(model.quivers.items())]
    if model.cats:
        doc["b_components"] = [
            {"quiver": name, "components": _components_to_json(cat.b.comps)}
            for name, cat in sorted(model.cats.items())
        ]
    if model.functors:
        doc["functors"] = [functor_to_json(f) for _, f in sorted(model.functors.items())]
    if model.coderivations:
        doc["coderivations"] = [
            coderivation_to_json(r) for _, r in sorted(model.coderivations.items())
        ]
    if model.elements:
        doc["elements"] = [
            element_to_json(name, x, model.element_quivers[name])
            for name, x in sorted(model.elements.items())
        ]
    if model.psi is not None:
        doc["psi"] = {
            "source": model.psi.source.name,
            "obj_map": dict(sorted(model.psi.obj_map.items())),
            "gen_map": dict(sorted(model.psi.gen_map.items())),
        }
    if model.coder_quiver is not None:
        Q = model.coder_quiver
        doc["coder_quiver"] = {
            "source": Q.source.quiver.name,
            "target": Q.target.quiver.name,
            "functors": sorted(f.name for f in Q.functors),
            "coderivations": sorted(r.name for r in Q.coderivations),
        }
    if model.tasks:
        doc["tasks"] = model.tasks
    return doc
