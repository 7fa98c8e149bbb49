"""The loader's literal table: one load reads each distinct scalar text and
each (level kind, text) once, and gives what reading every occurrence
afresh gives, in the model, its printed bytes and its error messages."""

import copy
import importlib.util
import json
import pathlib

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from facalc import levels, novikov, structfile
from facalc.errors import FacalcError, ParseError
from facalc.structfile import dump_document, load_model, model_to_json

from conftest import facalc_seed

ROOT = pathlib.Path(__file__).parent.parent
FIXTURES = sorted((ROOT / "tests" / "fixtures").glob("*.json"))
LOADABLE = [p for p in FIXTURES if p.stem not in ("parse_error", "resolve_error", "undecided")]
DEFAULT_COEFF = "1*T^{0}*e^{0}"  # an element term without "coeff"

_spec = importlib.util.spec_from_file_location("dense", ROOT / "bench" / "dense.py")
dense = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dense)

PARSE_SCALAR_AT = structfile.parse_scalar_at
PARSE_LEVEL = structfile.parse_level


def load_afresh(text):
    """``load_model`` with a new, empty table at every literal, so that each
    occurrence is read where it stands."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structfile, "parse_scalar_at", lambda t, variant, lits, *loc: PARSE_SCALAR_AT(t, variant, {}, *loc))
        mp.setattr(structfile, "parse_level", lambda obj, lits, *loc: PARSE_LEVEL(obj, {}, *loc))
        return load_model(text)


def _comps(owner):
    return {k: dict(table) for k, table in owner.comps.items()}


def outcome(load, text):
    """What a load gives: the printed model with every component, level and
    element, or the error's type and message."""
    try:
        model = load(text)
    except FacalcError as exc:
        return type(exc).__name__, str(exc)
    return (
        dump_document(model_to_json(model)),
        model.window,
        {name: q.gens for name, q in model.quivers.items()},
        {name: _comps(cat.b) for name, cat in model.cats.items()},
        {name: _comps(f) for name, f in model.functors.items()},
        {name: (r.lvl, _comps(r)) for name, r in model.coderivations.items()},
        dict(model.elements),
    )


def literal_paths(node, path=()):
    """(path, kind) of every literal of a structure document: "scalar" for a
    hom value's scalar or an element term's coefficient, "level" for a level
    object."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in ("base_level", "cutoff", "level"):
                yield path + (key,), "level"
            elif key == "coeff":
                yield path + (key,), "scalar"
            elif key == "value" and isinstance(value, list):
                for i, pair in enumerate(value):
                    if isinstance(pair, list) and len(pair) == 2:
                        yield path + (key, i, 1), "scalar"
            else:
                yield from literal_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from literal_paths(value, path + (i,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value


def distinct_literals(doc):
    """The scalar texts and (level kind, text) pairs of doc, once each."""
    out = set()
    for path, kind in literal_paths(doc):
        value = _get(doc, path)
        if kind == "scalar":
            out.add(value)
        else:
            ((key, val),) = value.items()
            if key != "infinity":
                out.add((key, val if isinstance(val, str) else json.dumps(val)))
    for element in doc.get("elements", []):
        if any("coeff" not in term for term in element["terms"]):
            out.add(DEFAULT_COEFF)
    return out


def dense_text():
    return dense.document_text(dense.generate(facalc_seed(), 0))


@pytest.mark.parametrize("name", [p.stem for p in FIXTURES] + ["dense"])
def test_a_load_with_the_table_equals_a_load_that_reads_every_literal_afresh(name):
    text = dense_text() if name == "dense" else (ROOT / "tests" / "fixtures" / f"{name}.json").read_text()
    assert outcome(load_model, text) == outcome(load_afresh, text)


@pytest.mark.parametrize("name", [p.stem for p in LOADABLE] + ["dense"])
def test_a_load_reads_each_distinct_literal_once(name, monkeypatch):
    text = dense_text() if name == "dense" else (ROOT / "tests" / "fixtures" / f"{name}.json").read_text()
    reads = []
    parse_scalar, read_level = novikov.parse_scalar, levels.read_level
    monkeypatch.setattr(novikov, "parse_scalar", lambda t, variant: reads.append(t) or parse_scalar(t, variant))
    monkeypatch.setattr(levels, "read_level", lambda kind, t: reads.append((kind, t)) or read_level(kind, t))
    load_model(text)
    assert sorted(map(repr, reads)) == sorted(map(repr, distinct_literals(json.loads(text))))


SCALAR_TEXTS = [
    "0", DEFAULT_COEFF, "1*T^{1}*e^{0}", "-1/2*T^{-1}*e^{2}", "2", "1/0*T^{0}*e^{0}", "x",
    "1*T^{0}*e^{0}+1*T^{1}*e^{0}", 5,
]
LEVELS = [
    {"rat": "0"}, {"rat": "-1"}, {"rat": 0.5}, {"rat": 1}, {"rat": "x"}, {"ratplus": "1"}, {"ratplus": "-1"},
    {"ratplus": "0"}, {"discrete": "0"}, {"discrete": "inf"}, {"discrete": 1}, {"infinity": True}, {"q": "0"},
]


@seed(facalc_seed())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_literals_set_anywhere_load_as_when_read_afresh(data):
    # The same text may now stand at several places, under several level
    # kinds, valid at one and refused at another: the table must give each
    # place what reading it there gives, the first error included.
    path = data.draw(st.sampled_from(FIXTURES), label="fixture")
    doc = json.loads(path.read_text(encoding="utf-8"))
    places = list(literal_paths(doc))
    for where, kind in data.draw(st.lists(st.sampled_from(places), min_size=1, max_size=4), label="places"):
        _set(doc, where, data.draw(st.sampled_from(SCALAR_TEXTS if kind == "scalar" else LEVELS), label=kind))
    text = json.dumps(doc)
    assert outcome(load_model, text) == outcome(load_afresh, text)


def _b1_only():
    return json.loads((ROOT / "tests" / "fixtures" / "b1_only.json").read_text(encoding="utf-8"))


def test_the_literal_table_lives_for_one_load():
    # A table kept across loads, or keyed by text alone, would give the
    # second file the first file's reading.
    nov = _b1_only()
    nov["coderivations"][0]["components"][0]["value"][0][1] = "1*T^{1}*e^{0}"
    plain = copy.deepcopy(nov)
    plain["coefficients"] = "q"
    load_model(json.dumps(nov))
    with pytest.raises(ParseError) as exc:
        load_model(json.dumps(plain))
    assert str(exc.value) == "$.coderivations[0].components[0].value[0]: variant 'q' admits only T^0 e^0 terms"

    signed = _b1_only()
    signed["coderivations"][0]["level"] = {"rat": "-1"}
    unsigned = copy.deepcopy(signed)
    unsigned.update(level_monoid="ratplus", coefficients="nov0")
    unsigned["window"]["cutoff"] = {"ratplus": "3"}
    for gen in unsigned["quivers"][0]["generators"]:
        gen["base_level"] = {"ratplus": "0"}
    unsigned["coderivations"][0]["level"] = {"ratplus": "-1"}
    load_model(json.dumps(signed))
    with pytest.raises(ParseError) as exc:
        load_model(json.dumps(unsigned))
    assert str(exc.value) == "$.coderivations[0].level: bad level value: ratplus level must be >= 0, got -1"
