"""Loading, validating and canonically printing structure files.

A structure file is strict JSON declaring, in order of dependency: the level
monoid instance, the coefficient ring variant, a truncation window, quivers,
codifferential components per quiver, cofunctors, coderivations, named
elements, an optional coderivation-quiver section, an optional solver
section, and per-command task defaults.

Canonical form: keys sorted, entries sorted by name, rationals printed in
lowest terms with positive denominator, every scalar in full monomial
syntax.  ``model_to_json``, written out by ``dump_document``, always
emits canonical form, so load -> print -> load is the identity on
normalized files; every command that prints a structure file prints a
``Model`` through it.

A load reads each distinct literal once: ``load_model`` makes a literal
table for its own call, which maps each scalar text to its
``NovikovScalar`` and each (level kind, text) to its ``Level``, and every
other occurrence shares that immutable value.  A check formats its
location and message only when it fails.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from . import levels, novikov
from .ainfty import AInfCategory, CoderQuiver, ainf_category, shift_degree
from .errors import ConvergenceUndecided, FacalcError, ObjectMismatch, ParseError, ResolveError
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
from .tcoalg import TensorElement, TruncWindow, Word, quiver_word

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


def _is_int(value) -> bool:
    """A JSON integer; ``bool`` is an ``int`` subclass in Python."""
    return isinstance(value, int) and not isinstance(value, bool)


def _path(loc: str, keys) -> str:
    """The location loc followed by keys: ``[i]`` for a list index, ``.key``
    for an object key.  A check passes its location as ``loc, *keys`` and
    joins it here only when it fails, as it formats its message."""
    return loc + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


def _name_at(value, loc: str, *keys, required: bool = True):
    """A name field at ``_path(loc, keys)``: a string, or absent (None) where
    ``required`` is False so that the lookup reports the name as unresolved."""
    if isinstance(value, str) or (value is None and not required):
        return value
    raise ParseError(_path(loc, keys), "name must be a string")


def _list_at(obj: dict, key: str, loc: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{loc}.{key}", f"{key} must be a list")
    return value


def _named_entries(doc: dict, key: str, noun: str, table: dict):
    """(loc, obj, name) for each entry of the list doc[key]: an object whose
    name is a non-empty string not yet in ``table``.  The caller adds each
    entry to ``table`` before it asks for the next."""
    for i, obj in enumerate(_list_at(doc, key, "$")):
        loc = f"$.{key}[{i}]"
        if not isinstance(obj, dict):
            raise ParseError(loc, f"{noun} must be an object")
        name = obj.get("name")
        if not (isinstance(name, str) and name):
            raise ParseError(f"{loc}.name", f"{noun} needs a name")
        if name in table:
            raise ParseError(f"{loc}.name", f"duplicate {noun} {name!r}")
        yield loc, obj, name


def resolve(table: dict, name, loc: str, noun: str, *keys, quiver: Optional[str] = None):
    """``table[name]``: the one lookup of a declared name, whose miss is the
    resolve error ``<loc>: unknown <noun> <name>``, with ``keys`` joined to
    loc as ``_path`` joins them and `` in quiver <quiver>`` after the name
    when a quiver is given."""
    if name not in table:
        where = "" if quiver is None else f" in quiver {quiver!r}"
        raise ResolveError(f"{_path(loc, keys)}: unknown {noun} {name!r}{where}")
    return table[name]


def _built(loc: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with any ``FacalcError`` from it but
    ``ConvergenceUndecided`` turned into a parse error at loc."""
    try:
        return build(*args, **kwargs)
    except ConvergenceUndecided:
        raise
    except FacalcError as exc:
        raise ParseError(loc, str(exc)) from None


def parse_level(obj, lits: dict, loc: str, *keys) -> Level:
    """A level object at ``_path(loc, keys)``: ``{"infinity": true}``, or an
    instance's key with a written level, a string or a JSON number, which is
    read as the text it prints; `levels.read_level` reads both, once per
    (kind, text) of the load's literal table ``lits``."""
    if not (isinstance(obj, dict) and len(obj) == 1):
        raise ParseError(_path(loc, keys), "level must be a one-key object")
    (key, val), = obj.items()
    if key == "infinity":
        if val is not True:
            raise ParseError(_path(loc, keys), "infinity level must be true")
        return levels.INFINITY
    if isinstance(val, str):
        text = val
    elif isinstance(val, (int, float)) and not isinstance(val, bool):
        text = json.dumps(val)
    else:
        raise ParseError(_path(loc, keys), "level value must be a number or a string")
    if key not in (levels.RAT, levels.RATPLUS, levels.DISCRETE):
        raise ParseError(_path(loc, keys), f"unknown level kind {key!r}")
    lvl = lits.get((key, text))
    if lvl is None:
        try:
            lvl = lits[key, text] = levels.read_level(key, text)
        except FacalcError as exc:
            raise ParseError(_path(loc, keys), f"bad level value: {exc}") from None
    return lvl


def level_to_json(lvl: Level):
    if lvl.instance == "inf":
        return {"infinity": True}
    if lvl.instance == "discrete":
        return {"discrete": "inf" if lvl.value is None else "0"}
    return {lvl.instance: novikov._frac_str(lvl.value)}


def parse_scalar_at(text, variant: str, lits: dict, loc: str, *keys) -> NovikovScalar:
    """The scalar written at ``_path(loc, keys)``, read once per text of the
    load's literal table ``lits``: one load has one variant."""
    if not isinstance(text, str):
        raise ParseError(_path(loc, keys), "scalar must be a string")
    x = lits.get(text)
    if x is None:
        try:
            x = lits[text] = novikov.parse_scalar(text, variant)
        except FacalcError as exc:
            raise ParseError(_path(loc, keys), str(exc)) from None
    return x


def _parse_hom_value(obj, quiver: FiltQuiver, variant: str, lits: dict, loc: str, *keys) -> HomElement:
    if not isinstance(obj, list):
        raise ParseError(_path(loc, keys), "value must be a list of [generator, scalar] pairs")
    terms = []
    for i, pair in enumerate(obj):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(_path(loc, (*keys, i)), "expected [generator, scalar]")
        gid, scal = pair
        g = resolve(quiver.by_id, _name_at(gid, loc, *keys, i, 0), loc, "generator", *keys, i, quiver=quiver.name)
        terms.append((g, parse_scalar_at(scal, variant, lits, loc, *keys, i)))
    if not terms:
        raise ParseError(_path(loc, keys), "empty value list; use [] only for zero with known endpoints")
    g = terms[0][0]
    try:
        return HomElement(g.src, g.dst, terms)
    except FacalcError as exc:
        raise ParseError(_path(loc, keys), str(exc)) from None


def _parse_word(obj: dict, quiver: FiltQuiver, loc: str, *keys) -> Word:
    """The kept word (``tcoalg.quiver_word``) of a component or element term
    at ``_path(loc, keys)``: the empty word at ``obj["at"]``, else the path
    of the non-empty list ``obj["word"]`` of generator ids.  An undeclared
    object or id is unresolved; a word that does not compose is malformed."""
    if "at" in obj:
        at = _name_at(obj["at"], loc, *keys, "at")
        resolve(dict.fromkeys(quiver.objects), at, loc, "object", *keys)
        return quiver_word(quiver, at)
    gids = obj.get("word")
    if not (isinstance(gids, list) and gids):
        raise ParseError(_path(loc, keys), "give 'at' or a non-empty 'word' list")
    for i, gid in enumerate(gids):
        _name_at(gid, loc, *keys, "word", i)
    for gid in gids:
        resolve(quiver.by_id, gid, loc, "generator", *keys, quiver=quiver.name)
    try:
        return quiver_word(quiver, tuple(gids))
    except ObjectMismatch as exc:
        raise ParseError(_path(loc, (*keys, "word")), str(exc)) from None


def _parse_components(
    obj: dict, quiver: FiltQuiver, target: FiltQuiver, variant: str, lits: dict, loc: str
) -> Components:
    """The list ``obj["components"]`` of the entry at loc."""
    entries = obj.get("components", [])
    if not isinstance(entries, list):
        raise ParseError(f"{loc}.components", "components must be a list")
    comps: Components = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"{loc}.components[{i}]", "component must be an object")
        if ("word" in entry) == ("at" in entry):
            raise ParseError(f"{loc}.components[{i}]", "give exactly one of 'word' or 'at'")
        w = _parse_word(entry, quiver, loc, "components", i)
        value = _parse_hom_value(entry.get("value"), target, variant, lits, loc, "components", i, "value")
        key = comp_key(w)
        table = comps.setdefault(len(w), {})
        if key in table:
            raise ParseError(f"{loc}.components[{i}]", f"duplicate component at {key!r}")
        table[key] = value
    return comps


def load_model(text: str) -> Model:
    """The model a structure file declares.  The literal table made here, for
    this call alone, reads each distinct scalar text and each (level kind,
    text) once; every other occurrence shares the immutable
    ``NovikovScalar`` or ``Level`` read."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}", exc.msg) from None
    except ValueError as exc:
        # int() refuses a JSON integer of more digits than its bound.
        raise ParseError("$", str(exc).split(";")[0]) from None
    if not isinstance(doc, dict):
        raise ParseError("$", "top level must be an object")

    monoid = doc.get("level_monoid")
    if monoid not in ("rat", "ratplus", "discrete"):
        raise ParseError("$.level_monoid", f"bad instance {monoid!r}")
    variant = doc.get("coefficients")
    if variant not in ("nov", "nov0", "q"):
        raise ParseError("$.coefficients", f"bad variant {variant!r}")
    if (monoid, variant) not in ALLOWED_PAIRS:
        raise ParseError("$.coefficients", f"variant {variant!r} cannot be filtered over instance {monoid!r}")
    lits: dict = {}

    wobj = doc.get("window")
    if not isinstance(wobj, dict):
        raise ParseError("$.window", "window must be an object")
    if not _is_int(wobj.get("max_len")):
        raise ParseError("$.window.max_len", "max_len must be an integer")
    cutoff = parse_level(wobj.get("cutoff"), lits, "$.window.cutoff")
    if cutoff.instance != monoid:
        raise ParseError("$.window.cutoff", "cutoff must live in the active instance")
    window = _built("$.window", TruncWindow, wobj["max_len"], cutoff)

    model = Model(monoid, variant, window)

    for loc, qobj, name in _named_entries(doc, "quivers", "quiver", model.quivers):
        objs = qobj.get("objects")
        if not (isinstance(objs, list) and all(isinstance(o, str) for o in objs)):
            raise ParseError(f"{loc}.objects", "objects must be a list of names")
        gens = []
        for gi, gobj in enumerate(_list_at(qobj, "generators", loc)):
            gkeys = ("generators", gi)
            if not isinstance(gobj, dict):
                raise ParseError(_path(loc, gkeys), "generator must be an object")
            for key in ("id", "src", "dst"):
                _name_at(gobj.get(key), loc, *gkeys, key)
            has_sdeg = "sdeg" in gobj
            if has_sdeg == ("deg" in gobj):
                raise ParseError(_path(loc, gkeys), "give exactly one of 'sdeg' or 'deg'")
            declared = gobj["sdeg"] if has_sdeg else gobj["deg"]
            if not _is_int(declared):
                raise ParseError(_path(loc, gkeys), "degree must be an integer")
            sdeg = declared if has_sdeg else shift_degree(declared)
            base = parse_level(gobj.get("base_level"), lits, loc, *gkeys, "base_level")
            if base.instance != monoid or base.is_infinite():
                raise ParseError(
                    _path(loc, (*gkeys, "base_level")), "base level must be finite in the active instance"
                )
            # A finite base level is all HomGenerator checks.
            gens.append(HomGenerator(gobj["id"], gobj["src"], gobj["dst"], sdeg, base))
        model.quivers[name] = _built(loc, FiltQuiver, name, objs, gens)

    def get_quiver(obj: dict, key: str, loc: str) -> FiltQuiver:
        return resolve(model.quivers, _name_at(obj.get(key), loc, key, required=False), loc, "quiver")

    for bi, bobj in enumerate(_list_at(doc, "b_components", "$")):
        loc = f"$.b_components[{bi}]"
        if not isinstance(bobj, dict):
            raise ParseError(loc, "entry must be an object")
        quiver = get_quiver(bobj, "quiver", loc)
        if quiver.name in model.cats:
            raise ParseError(f"{loc}.quiver", f"duplicate entry for quiver {quiver.name!r}")
        comps = _parse_components(bobj, quiver, quiver, variant, lits, loc)
        model.cats[quiver.name] = _built(loc, ainf_category, quiver, comps, window, variant)

    for loc, fobj, name in _named_entries(doc, "functors", "functor", model.functors):
        src = get_quiver(fobj, "src", loc)
        dst = get_quiver(fobj, "dst", loc)
        obj_map = fobj.get("obj_map")
        if not isinstance(obj_map, dict):
            raise ParseError(f"{loc}.obj_map", "obj_map must be an object")
        for x, y in obj_map.items():
            if x not in src.objects or y not in dst.objects:
                raise ResolveError(f"{loc}.obj_map: bad pair {x!r} -> {y!r}")
        for x in src.objects:
            if x not in obj_map:
                raise ResolveError(f"{loc}.obj_map: no image for object {x!r}")
        comps = _parse_components(fobj, src, dst, variant, lits, loc)
        bound = fobj.get("convergence_bound", 16)
        if not (_is_int(bound) and bound >= 1):
            raise ParseError(f"{loc}.convergence_bound", "bad bound")
        model.functors[name] = _built(
            loc, cofunctor_from_components, name, src, dst, obj_map, comps, window, variant,
            convergence_bound=bound,
        )

    for loc, robj, name in _named_entries(doc, "coderivations", "coderivation", model.coderivations):
        f, g = (
            resolve(model.functors, _name_at(robj.get(side), loc, side, required=False), loc, "functor", side)
            for side in ("from", "to")
        )
        deg = robj.get("degree")
        if not _is_int(deg):
            raise ParseError(f"{loc}.degree", "degree must be an integer")
        lvl = parse_level(robj.get("level"), lits, loc, "level")
        comps = _parse_components(robj, f.src, f.dst, variant, lits, loc)
        model.coderivations[name] = _built(loc, coderivation_from_components, name, f, g, deg, lvl, comps)

    for loc, eobj, name in _named_entries(doc, "elements", "element", model.elements):
        quiver = get_quiver(eobj, "quiver", loc)
        terms = []
        for ti, tobj in enumerate(_list_at(eobj, "terms", loc)):
            if not isinstance(tobj, dict):
                raise ParseError(_path(loc, ("terms", ti)), "term must be an object")
            coeff = parse_scalar_at(tobj.get("coeff", "1*T^{0}*e^{0}"), variant, lits, loc, "terms", ti, "coeff")
            terms.append((_parse_word(tobj, quiver, loc, "terms", ti), coeff))
        if terms:
            src, dst = terms[0][0].src, terms[0][0].dst
        else:
            src, dst = eobj.get("src"), eobj.get("dst")
            if not (src in quiver.objects and dst in quiver.objects):
                raise ParseError(loc, "an element without terms needs explicit 'src' and 'dst'")
        model.elements[name] = _built(loc, TensorElement, src, dst, terms)
        model.element_quivers[name] = quiver.name

    if "coder_quiver" in doc:
        loc = "$.coder_quiver"
        cobj = doc["coder_quiver"]
        if not isinstance(cobj, dict):
            raise ParseError(loc, "coder_quiver must be an object")
        for key in ("source", "target"):
            qname = _name_at(cobj.get(key), loc, key, required=False)
            if qname not in model.cats:
                raise ResolveError(f"{loc}: quiver {qname!r} has no codifferential")

        def members(key: str, table: dict, noun: str) -> list:
            out = []
            for i, name in enumerate(_list_at(cobj, key, loc)):
                member = resolve(table, _name_at(name, loc, key, i), loc, noun, key)
                if member in out:
                    raise ParseError(f"{loc}.{key}[{i}]", f"duplicate {noun} {name!r}")
                out.append(member)
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
        if not isinstance(pobj, dict):
            raise ParseError(loc, "psi must be an object")
        source = get_quiver(pobj, "source", loc)
        obj_map = pobj.get("obj_map", {})
        gen_map = pobj.get("gen_map", {})
        for key, table in (("obj_map", obj_map), ("gen_map", gen_map)):
            if not isinstance(table, dict):
                raise ParseError(f"{loc}.{key}", f"{key} must be an object")
        for o, fname in obj_map.items():
            resolve(dict.fromkeys(source.objects), o, loc, "object", "obj_map")
            resolve(model.functors, _name_at(fname, loc, "obj_map", o), loc, "functor", "obj_map")
        for gid, rname in gen_map.items():
            resolve(source.by_id, gid, loc, "generator", "gen_map")
            resolve(model.coderivations, _name_at(rname, loc, "gen_map", gid), loc, "coderivation", "gen_map")
        for o in source.objects:
            if o not in obj_map:
                raise ParseError(loc, f"psi object map misses {o!r}")
        model.psi = PsiSpec(source, dict(obj_map), dict(gen_map))

    tasks = doc.get("tasks", {})
    if not isinstance(tasks, dict):
        raise ParseError("$.tasks", "tasks must be an object")
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
        t = {"at": w.at} if len(w) == 0 else {"word": list(w.gids)}
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
