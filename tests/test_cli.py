import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, seed, settings, strategies as st

from facalc.cli import CHECKS, OPTIONS, PRINTERS, _plain_args, build_parser, main
from facalc.errors import ParseError
from facalc.structfile import dump_document, load_model_file

from conftest import facalc_seed

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN = pathlib.Path(__file__).parent / "golden"

from make_goldens import GOLDEN_CASES


@pytest.fixture(autouse=True)
def in_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name):
    code, text = run(GOLDEN_CASES[name])
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert f"exit {code}\n{text}" == want


def test_reports_are_byte_deterministic():
    a = run(["check-b2", "tests/fixtures/nonassoc.json", "--format", "json"])
    b = run(["check-b2", "tests/fixtures/nonassoc.json", "--format", "json"])
    assert a == b


@pytest.mark.parametrize(
    "fixture",
    [
        "b1_only",
        "curved_min",
        "assoc",
        "nonassoc",
        "empty",
        "psi_roundtrip",
        "curved_compose",
        "curved_wide",
        "lossy_eval",
        "multiterm",
        "coder_multi",
    ],
)
def test_normalize_roundtrip_is_identity(fixture, tmp_path):
    code1, text1 = run(["normalize", f"tests/fixtures/{fixture}.json"])
    assert code1 == 0
    again = tmp_path / "again.json"
    again.write_text(text1, encoding="utf-8")
    code2, text2 = run(["normalize", str(again)])
    assert code2 == 0 and text1 == text2


def test_exit_code_contract():
    assert run(["check-b2", "tests/fixtures/b1_only.json"])[0] == 0
    assert run(["check-b2", "tests/fixtures/nonassoc.json"])[0] == 1
    assert run(["check-b2", "tests/fixtures/undecided.json"])[0] == 2
    assert run(["eval", "tests/fixtures/lossy_eval.json"])[0] == 2
    code, text = run(["check-b2", "tests/fixtures/parse_error.json"])
    assert code == 64 and "$.functors[0]" in text
    code, text = run(["check-b2", "tests/fixtures/resolve_error.json"])
    assert code == 65
    assert run(["compose", "tests/fixtures/b1_only.json", "--f", "nope"])[0] == 65
    code, _ = run(["check-b2", "tests/fixtures/b1_only.json", "--window", "oops"])
    assert code == 64


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value

    return mutate


def _deg_without_sdeg(doc):
    gen = doc["quivers"][0]["generators"][0]
    del gen["sdeg"]
    gen["deg"] = "x"


def _psi(**fields):
    """Add a solver section over quiver A of b1_only, with some fields set."""
    section = {"source": "A", "obj_map": {"X": "idA"}, "gen_map": {"p": "r"}}
    section.update(fields)
    return _set(["psi"], section)


def _second_object(path, value):
    """Give quiver A of b1_only a second object Y and a generator s: X -> Y
    (every functor fixes Y), then set one field."""
    set_field = _set(path, value)

    def second_object(doc):
        quiver = doc["quivers"][0]
        quiver["objects"].append("Y")
        quiver["generators"].append(
            {"id": "s", "src": "X", "dst": "Y", "sdeg": 0, "base_level": {"rat": "0"}}
        )
        for functor in doc["functors"]:
            functor["obj_map"]["Y"] = "Y"
        set_field(doc)

    return second_object


def _duplicate_element(doc):
    doc["elements"].append(dict(doc["elements"][0]))


def _duplicate_b_components(doc):
    doc["b_components"].append({"quiver": "A", "components": []})


BAD = [[1]]
ONE_TERM = "1*T^{0}*e^{0}"
NOT_COMPOSABLE = ["s", "s"]
MALFORMED = [
    (_set(["quivers"], 5), "$.quivers", 64),
    (_set(["quivers", 0, "objects"], BAD), "$.quivers[0].objects", 64),
    (_deg_without_sdeg, "$.quivers[0].generators[0]", 64),
    (_set(["quivers", 0, "generators", 0, "base_level"], {"rat": [1]}),
     "$.quivers[0].generators[0].base_level", 64),
    (_set(["window", "max_len"], True), "$.window.max_len", 64),
    (_set(["functors", 0, "convergence_bound"], True), "$.functors[0].convergence_bound", 64),
    (_set(["coderivations", 0, "degree"], True), "$.coderivations[0].degree", 64),
    (_set(["quivers", 0, "generators", 0, "id"], BAD), "$.quivers[0].generators[0].id", 64),
    (_set(["quivers", 0, "generators", 0, "src"], 5), "$.quivers[0].generators[0].src", 64),
    (_set(["quivers", 0, "generators", 0, "dst"], BAD), "$.quivers[0].generators[0].dst", 64),
    (_set(["b_components", 0, "quiver"], BAD), "$.b_components[0].quiver", 64),
    (_set(["b_components", 0, "components", 0, "word"], BAD),
     "$.b_components[0].components[0].word[0]", 64),
    (_set(["b_components", 0, "components", 0, "value"], [[BAD, ONE_TERM]]),
     "$.b_components[0].components[0].value[0][0]", 64),
    (_set(["functors", 0, "src"], BAD), "$.functors[0].src", 64),
    (_set(["functors", 0, "obj_map"], {}), "$.functors[0].obj_map", 65),
    (_set(["coderivations", 0, "from"], BAD), "$.coderivations[0].from", 64),
    (_set(["coderivations", 0, "to"], 5), "$.coderivations[0].to", 64),
    (_set(["elements", 0, "quiver"], BAD), "$.elements[0].quiver", 64),
    (_set(["elements", 0, "terms", 0, "word"], BAD), "$.elements[0].terms[0].word[0]", 64),
    (_duplicate_element, "$.elements[1].name", 64),
    (_set(["quivers", 0, "name"], 5), "$.quivers[0].name", 64),
    (_set(["functors", 1], 5), "$.functors[1]", 64),
    (_set(["functors", 1, "name"], "idA"), "$.functors[1].name", 64),
    (_set(["coderivations", 0, "name"], ""), "$.coderivations[0].name", 64),
    (_duplicate_b_components, "$.b_components[1].quiver", 64),
    (_second_object(["b_components", 0, "components", 0, "word"], NOT_COMPOSABLE),
     "$.b_components[0].components[0].word", 64),
    (_second_object(["functors", 0, "components", 0, "word"], NOT_COMPOSABLE),
     "$.functors[0].components[0].word", 64),
    (_second_object(["coderivations", 0, "components", 0, "word"], NOT_COMPOSABLE),
     "$.coderivations[0].components[0].word", 64),
    (_second_object(["elements", 0, "terms", 0, "word"], NOT_COMPOSABLE),
     "$.elements[0].terms[0].word", 64),
    (_second_object(["b_components", 0, "components", 0, "value"], [["q", ONE_TERM], ["s", ONE_TERM]]),
     "$.b_components[0].components[0].value", 64),
    (_set(["coder_quiver", "source"], BAD), "$.coder_quiver.source", 64),
    (_set(["coder_quiver", "functors"], BAD), "$.coder_quiver.functors[0]", 64),
    (_set(["coder_quiver", "coderivations"], BAD), "$.coder_quiver.coderivations[0]", 64),
    (_set(["coder_quiver", "functors"], ["idA", "idA"]), "$.coder_quiver.functors[1]", 64),
    (_set(["coder_quiver", "coderivations"], ["r", "r"]), "$.coder_quiver.coderivations[1]", 64),
    (_psi(source=BAD), "$.psi.source", 64),
    (_psi(obj_map=BAD), "$.psi.obj_map", 64),
    (_psi(gen_map=5), "$.psi.gen_map", 64),
    (_psi(obj_map={"X": BAD}), "$.psi.obj_map.X", 64),
    (_psi(gen_map={"p": BAD}), "$.psi.gen_map.p", 64),
    (_set(["elements", 0, "terms", 0, "coeff"], "1/0*T^{0}*e^{0}"), "$.elements[0].terms[0].coeff", 64),
    (_set(["elements", 0, "terms", 0, "coeff"], "1*T^{1/0}*e^{0}"), "$.elements[0].terms[0].coeff", 64),
    (_set(["b_components", 0, "components", 0, "value"], [["q", "1/0*T^{0}*e^{0}"]]),
     "$.b_components[0].components[0].value[0]", 64),
]
# Task fields are read by the command that runs the task, not by the loader.
MALFORMED_TASKS = [
    (_set(["tasks", "check_functor", "functor"], BAD), "$.tasks.check_functor.functor",
     "check-functor"),
    (_set(["tasks", "compose", "f"], BAD), "$.tasks.compose.f", "compose"),
    (_set(["tasks", "compose", "g"], 5), "$.tasks.compose.g", "compose"),
    (_set(["tasks", "push", "r"], {}), "$.tasks.push.r", "push"),
    (_set(["tasks", "push", "h"], BAD), "$.tasks.push.h", "push"),
    (_set(["tasks", "pull", "e"], True), "$.tasks.pull.e", "pull"),
    (_set(["tasks", "pull", "r"], BAD), "$.tasks.pull.r", "pull"),
    (_set(["tasks", "eval", "element"], [1]), "$.tasks.eval.element", "eval"),
    (_set(["tasks", "eval", "boundary"], 5), "$.tasks.eval.boundary", "eval"),
    (_set(["tasks", "eval", "chain"], "r"), "$.tasks.eval.chain", "eval"),
    (_set(["tasks", "eval", "chain"], ["r", BAD]), "$.tasks.eval.chain[1]", "eval"),
]
CASES = [(m, w, c, "check-b2") for m, w, c in MALFORMED] + [
    (m, w, 64, command) for m, w, command in MALFORMED_TASKS
]


@pytest.mark.parametrize(
    "mutate, where, code, command",
    CASES,
    ids=[f"{mutate.__name__}-{where}" for mutate, where, _, _ in CASES],
)
def test_malformed_fields_are_parse_errors(mutate, where, code, command, tmp_path):
    doc = json.loads((ROOT / "tests/fixtures/b1_only.json").read_text(encoding="utf-8"))
    mutate(doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    got, text = run([command, str(path)])
    assert got == code
    kind = {64: "parse", 65: "resolve"}[code]
    assert text.startswith(f"{kind} error: {where}:")


COMPONENT_ERRORS = {
    "endpoints": (
        _second_object(["functors", 0, "components", 0, "value"], [["s", ONE_TERM]]),
        "cofunctor 'idA': component at ('p',) lands in ('X', 'Y'), expected ('X', 'X')",
    ),
    "degree": (
        _set(["functors", 0, "components", 0, "value"], [["q", ONE_TERM]]),
        "cofunctor 'idA': component at ('p',) has degree 1, expected 0",
    ),
    "level": (
        _set(["functors", 0, "components", 0, "value"], [["p", "1*T^{-1}*e^{0}"]]),
        "cofunctor 'idA': component at ('p',) violates level Level(rat:0)",
    ),
}


@pytest.mark.parametrize("mutate, message", list(COMPONENT_ERRORS.values()), ids=list(COMPONENT_ERRORS))
def test_component_outside_its_hom_is_a_parse_error(mutate, message, tmp_path):
    doc = json.loads((ROOT / "tests/fixtures/b1_only.json").read_text(encoding="utf-8"))
    mutate(doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check-b2", str(path)])
    assert (code, out.getvalue(), err.getvalue()) == (64, "", f"parse error: $.functors[0]: {message}\n")


def test_slow_curvature_at_the_default_bound_is_undecided(tmp_path):
    # Two loops at level 1/100: their 300th tensor power is the first in
    # F^3, far past the default bound of 16, whose powers have 2^16 words.
    doc = json.loads((ROOT / "tests/fixtures/curved_wide.json").read_text(encoding="utf-8"))
    functor = doc["functors"][0]
    del functor["convergence_bound"]
    functor["components"][0]["value"] = functor["components"][0]["value"][:2]
    path = tmp_path / "two_terms.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, text = run(["normalize", str(path)])
    assert (code, text) == (2, "undecided: cofunctor 'fw': curvature not tensor convergent within bound\n")


@pytest.mark.parametrize("spec", ["3,1/0", "3,inf"])
def test_bad_window_is_a_parse_error(spec):
    # 'inf' is a cutoff only on the discrete instance; b1_only is rational.
    code, text = run(["check-b2", "tests/fixtures/b1_only.json", "--window", spec])
    assert code == 64
    assert text.startswith("parse error: --window:")


WINDOW_FORM = "expected 'N,E' (N an integer >= 0, E rational, or 'inf' on the discrete instance)"


@pytest.mark.parametrize("spec", ["4", "x,2", "4,2,3", "4,1/0", "4,inf", ""])
def test_a_malformed_window_states_the_expected_form(spec):
    # Not Python's exception texts; and an empty spec is an error, not the
    # file's window.
    code, text = run(["check-b2", B1, "--window", spec])
    assert (code, text) == (64, f"parse error: --window: {WINDOW_FORM}, got {spec!r}\n")


def test_a_rational_window_cutoff_on_the_discrete_instance_states_the_expected_form(tmp_path):
    doc = json.loads((ROOT / "tests/fixtures/undecided.json").read_text(encoding="utf-8"))
    del doc["functors"]
    code, text = run_doc(["check-b2", "--window", "4,2"], doc, tmp_path)
    assert (code, text) == (64, f"parse error: --window: {WINDOW_FORM}, got '4,2'\n")


@pytest.mark.parametrize(
    "spec, message",
    [("-1,3", "window max_len must be >= 0"), ("4,0", "window cutoff must be positive"), ("4,-1/2", "window cutoff must be positive")],
)
def test_a_window_out_of_range_keeps_its_message(spec, message):
    code, text = run(["check-b2", B1, f"--window={spec}"])
    assert (code, text) == (64, f"parse error: --window: {message}\n")


@pytest.mark.parametrize("fixture", ["curved_min", "multiterm", "assoc", "nonassoc", "b1_only"])
def test_check_b2_entries_survive_a_longer_window(fixture):
    # A SOUND entry is a proof: widening the window from length 4 to 8 at
    # the same cutoff leaves every entry of length <= 3 as it was.
    def entries(n_max, window):
        argv = ["check-b2", f"tests/fixtures/{fixture}.json", "--n-max", n_max, "--window", window, "--format", "json"]
        return json.loads(run(argv)[1])["entries"]

    narrow, wide = entries("3", "4,2"), entries("5", "8,2")
    assert narrow and all(e["flag"] == "SOUND" for e in narrow + wide)
    assert narrow == [e for e in wide if e["n"] <= 3]


def run_doc(argv, doc, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return run([argv[0], str(path), *argv[1:]])


@pytest.mark.parametrize("value, want", [(0.1, "1/10"), (0.5, "1/2"), (1e-05, "1/100000"), (3, "3"), ("7/2", "7/2")])
def test_number_levels_are_read_exactly(value, want, tmp_path):
    # A float level is the decimal it prints as, as the same number on the
    # command line is: the cutoff 0.1 is 1/10, not the nearest binary float.
    doc = json.loads((ROOT / "tests/fixtures/b1_only.json").read_text(encoding="utf-8"))
    doc["window"]["cutoff"] = {"rat": value}
    code, text = run_doc(["normalize"], doc, tmp_path)
    assert code == 0 and json.loads(text)["window"]["cutoff"] == {"rat": want}
    doc["window"]["max_len"] = 6
    report = run(["check-b2", "tests/fixtures/b1_only.json", "--window", f"6,{value}"])[1].splitlines()[1:]
    assert run_doc(["check-b2"], doc, tmp_path)[1].splitlines()[1:] == report


@pytest.mark.parametrize("value, want", [(0, "0"), (0.0, "0"), ("0", "0"), (0.9, None), (-0.5, None), (1, None)])
def test_discrete_number_levels_are_zero_or_parse_errors(value, want, tmp_path):
    # A discrete level number must equal 0; 0.9 and -0.5 used to read as 0.
    doc = json.loads((ROOT / "tests/fixtures/undecided.json").read_text(encoding="utf-8"))
    del doc["functors"]
    doc["quivers"][0]["generators"][0]["base_level"] = {"discrete": value}
    code, text = run_doc(["normalize"], doc, tmp_path)
    if want is None:
        assert code == 64 and text.startswith("parse error: $.quivers[0].generators[0].base_level: ")
    else:
        assert code == 0 and json.loads(text)["quivers"][0]["generators"][0]["base_level"] == {"discrete": want}


B1 = "tests/fixtures/b1_only.json"
USAGE_ERRORS = {
    "bad-count": ["check-b2", B1, "--n-max", "x"],
    "negative-n-max": ["check-b2", B1, "--n-max", "-1"],
    "negative-word-len-max": ["check-coder-b2", B1, "--word-len-max", "-2"],
    "negative-psi-len": ["solve-psi", "tests/fixtures/psi_roundtrip.json", "--psi-len", "-1"],
    "no-file-argument": ["check-b2"],
    "no-such-file": ["check-b2", "tests/fixtures/no_such_file.json"],
    "file-is-a-directory": ["check-b2", "tests/fixtures"],
    "no-command": [],
    "unknown-command": ["frobnicate", B1],
    "unknown-option": ["check-b2", B1, "--frobnicate"],
    "unknown-format": ["check-b2", B1, "--format", "xml"],
    "window-looks-like-an-option": ["check-b2", B1, "--window", "-1,3"],
}


COMMANDS = list(CHECKS) + list(PRINTERS)


def full_parse(argv):
    """What the parser with every command makes of argv: a Namespace, the
    text of its ParseError, or the exit code of its help.  It is the oracle
    for ``build_parser(argv)``, which builds only the named command's
    parser, and for ``_plain_args``, which builds none."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return build_parser().parse_args(argv)
    except ParseError as exc:
        return f"parse error: {exc}\n"
    except SystemExit as exc:
        return f"help, exit {exc.code}"


@pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_errors_are_parse_errors(argv):
    # Exit 2 means LOSSY or undecided, so a bad command line exits 64.
    code, text = run(argv)
    assert code == 64
    assert text.startswith("parse error: ")
    assert "Traceback" not in text
    want = full_parse(argv)
    if isinstance(want, str):
        assert text == want


def subparsers(ap):
    """The command parsers of a facalc parser, by name."""
    action, = (a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("name", COMMANDS)
def test_one_command_parser_matches_the_full_parser(name):
    alone = subparsers(build_parser([name, B1]))
    assert list(alone) == [name]
    full = subparsers(build_parser())[name]
    assert alone[name].prog == full.prog == f"facalc {name}"
    assert alone[name].format_help() == full.format_help()


@pytest.mark.parametrize("argv", [["--help"], [], ["frobnicate", B1], ["--format", "json", "check-b2", B1]])
def test_argv_without_a_leading_command_builds_every_parser(argv):
    assert list(subparsers(build_parser(argv))) == COMMANDS


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_argv_parses_as_in_the_full_parser(name):
    argv = GOLDEN_CASES[name]
    assert build_parser(argv).parse_args(argv) == full_parse(argv)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_argv_takes_the_table_path(name):
    argv = GOLDEN_CASES[name]
    plain = _plain_args(argv)
    assert plain is not None and vars(plain) == vars(full_parse(argv))


# Tokens of command lines, plain and not: abbreviations, help, "--", values
# that start with "-", bad counts and formats, empty values.
ARGV_FLAGS = list(OPTIONS) + ["--n", "--w", "--fo", "--he", "-h", "--help", "--", "-x", "--bogus"]
ARGV_VALUES = ["3", "0", "-1", "x", "", "4,2", "-1,3", "json", "xml", "a b"]
ARGV_FILES = [B1, "tests/fixtures/assoc.json", "a=b"]
ARGV_CHUNKS = st.one_of(
    st.tuples(st.sampled_from(ARGV_FLAGS), st.sampled_from(ARGV_VALUES)).map(list),
    st.tuples(st.sampled_from(ARGV_FLAGS), st.sampled_from(ARGV_VALUES)).map(lambda fv: ["=".join(fv)]),
    st.sampled_from(ARGV_FILES).map(lambda path: [path]),
    st.sampled_from(ARGV_FLAGS + ARGV_VALUES).map(lambda token: [token]),
)


@seed(facalc_seed())
@settings(max_examples=500, deadline=None)
@example(command="check-b2", chunks=[["--n", "3"]], path=B1, at=0)
@example(command="check-b2", chunks=[["--fo", "json"]], path=B1, at=0)
@example(command="check-b2", chunks=[["--w", "4,2"]], path=B1, at=0)
@example(command="check-b2", chunks=[["--he"]], path=B1, at=0)
@example(command="check-b2", chunks=[["-h"]], path=B1, at=0)
@example(command="check-b2", chunks=[["--help"]], path=B1, at=0)
@example(command="check-b2", chunks=[["--"]], path=B1, at=0)
@example(command="check-b2", chunks=[["--window", "-1,3"]], path=B1, at=0)
@example(command="check-b2", chunks=[["--n-max", "x"]], path=B1, at=0)
@example(command="check-b2", chunks=[["--psi-len=3"]], path=B1, at=0)
@given(
    command=st.sampled_from(COMMANDS + ["frobnicate"]),
    chunks=st.lists(ARGV_CHUNKS, max_size=3),
    path=st.sampled_from(ARGV_FILES + [None]),
    at=st.integers(0, 4),
)
def test_plain_args_match_the_full_parser(command, chunks, path, at):
    # Whatever the option table reads, argparse reads the same; every token
    # that starts with "-" and is not an exact flag is argparse's alone.
    if path is not None:
        chunks = chunks[:at] + [[path]] + chunks[at:]
    argv = [command] + [token for chunk in chunks for token in chunk]
    plain = _plain_args(argv)
    if plain is not None:
        want = full_parse(argv)
        assert isinstance(want, argparse.Namespace) and vars(plain) == vars(want)
        assert all(token.partition("=")[0] in OPTIONS for token in argv[1:] if token.startswith("-"))


def test_help_still_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run(["check-b2", "--help"])
    assert exc.value.code == 0


def help_text(parse, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in COMMANDS])
def test_help_matches_the_full_parser(argv):
    assert help_text(main, argv) == help_text(build_parser().parse_args, argv)


def test_module_entry_point_reads_sys_argv():
    # main() with no argv, as the console script calls it, parses sys.argv.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "facalc.cli", *GOLDEN_CASES["check_b2_b1_only"]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    want = (GOLDEN / "check_b2_b1_only.txt").read_text(encoding="utf-8")
    assert f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}" == want


# The first golden case of each command.
ONE_PER_COMMAND = sorted({argv[0]: name for name, argv in reversed(GOLDEN_CASES.items())}.values())


@pytest.mark.parametrize("hashseed", ["0", "12345"])
@pytest.mark.parametrize("name", ONE_PER_COMMAND)
def test_goldens_do_not_depend_on_the_hash_seed(name, hashseed):
    # String hashes change with PYTHONHASHSEED, and words live in
    # insertion-ordered stores keyed by strings: a child under another
    # seed prints the golden's bytes.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, "-m", "facalc.cli", *GOLDEN_CASES[name]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}" == want


@pytest.mark.parametrize("command", ["check-b2", "normalize"])
def test_a_word_that_does_not_compose_is_a_parse_error(command, tmp_path):
    doc = json.loads((ROOT / "tests/fixtures/multiterm.json").read_text(encoding="utf-8"))
    doc["b_components"][0]["components"][0]["word"] = ["xX", "xY"]
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    want = "parse error: $.b_components[0].components[0].word: word is not composable at 'xY': expected src 'X'\n"
    assert (code, out.getvalue(), err.getvalue()) == (64, "", want)


def test_window_override():
    # A tighter cutoff makes the curvature bound unreachable: undecided.
    code, _ = run(
        ["compose", "tests/fixtures/curved_compose.json", "--window", "6,1/2"]
    )
    assert code == 0
    code, text = run(["check-b2", "tests/fixtures/curved_min.json", "--window", "4,2"])
    assert code == 0


def test_json_report_shape():
    code, text = run(["check-b2", "tests/fixtures/nonassoc.json", "--format", "json"])
    doc = json.loads(text)
    assert doc["command"] == "check-b2"
    assert doc["exit"] == 1 == code
    assert doc["summary"]["failed"] > 0
    assert all(set(e) == {"relation", "n", "word", "residual", "flag"} for e in doc["entries"])
    # Deterministic ordering: entries sorted by relation, length, word.
    keys = [(e["relation"], e["n"], e["word"]) for e in doc["entries"]]
    assert keys == sorted(keys)


def test_compose_with_identity_prints_functor_verbatim():
    code, text = run(["compose", "tests/fixtures/b1_only.json"])
    assert code == 0
    doc = json.loads(text)
    model = load_model_file("tests/fixtures/b1_only.json")
    from facalc.structfile import functor_to_json

    got = doc["functors"][0]
    want = functor_to_json(model.functors["idA"])
    assert got["components"] == want["components"]


def test_compose_output_reloads(tmp_path):
    code, text = run(["compose", "tests/fixtures/curved_compose.json"])
    assert code == 0
    path = tmp_path / "composed.json"
    path.write_text(text, encoding="utf-8")
    model = load_model_file(str(path))
    assert "fc*gq" in model.functors


def test_push_pull_outputs_reload(tmp_path):
    for cmd in ("push", "pull"):
        code, text = run([cmd, "tests/fixtures/b1_only.json"])
        assert code == 0
        path = tmp_path / f"{cmd}.json"
        path.write_text(text, encoding="utf-8")
        model = load_model_file(str(path))
        assert model.coderivations


@pytest.mark.parametrize("cmd", ["compose", "push", "pull", "solve-psi", "eval"])
def test_printed_documents_are_normalize_fixed_points(tmp_path, cmd):
    # Every printer shares normalize's canonical printer: what it prints is
    # a normalize fixed point, byte for byte, once eval's meta flag is gone.
    printed = 0
    for fixture in sorted((ROOT / "tests" / "fixtures").glob("*.json")):
        code, text = run([cmd, str(fixture.relative_to(ROOT))])
        if code not in (0, 2) or not text.startswith("{"):
            continue
        doc = json.loads(text)
        assert ("meta" in doc) == (cmd == "eval")
        doc.pop("meta", None)
        path = tmp_path / f"{cmd}_{fixture.name}"
        path.write_text(dump_document(doc), encoding="utf-8")
        assert run(["normalize", str(path)]) == (0, path.read_text(encoding="utf-8")), fixture.name
        if cmd != "eval":
            assert path.read_text(encoding="utf-8") == text
        printed += 1
    assert printed


def test_eval_matches_coderivation_path():
    code, text = run(["eval", "tests/fixtures/b1_only.json"])
    assert code == 0
    doc = json.loads(text)
    model = load_model_file("tests/fixtures/b1_only.json")
    from facalc.morphisms import evaluate_coderivation

    value, _ = evaluate_coderivation(
        model.coderivations["r"], model.elements["a1"], model.window
    )
    from facalc.structfile import element_to_json

    assert doc["elements"][0]["terms"] == element_to_json("result", value, "A")["terms"]


def test_solve_psi_reproduces_declared_family():
    code, text = run(["solve-psi", "tests/fixtures/psi_roundtrip.json"])
    assert code == 0
    doc = json.loads(text)
    model = load_model_file("tests/fixtures/psi_roundtrip.json")
    from facalc.structfile import coderivation_to_json

    by_name = {c["name"]: c for c in doc["coderivations"]}
    for gid, rname in model.psi.gen_map.items():
        want = coderivation_to_json(model.coderivations[rname])
        got = by_name[f"psi({gid})"]
        assert got["components"] == want["components"]
        assert got["degree"] == want["degree"]
        assert got["level"] == want["level"]
    # Solved objects reproduce the declared object functors.
    from facalc.structfile import functor_to_json

    fdoc = {f["name"]: f for f in doc["functors"]}
    for obj, fname in model.psi.obj_map.items():
        want = functor_to_json(model.functors[fname])
        assert fdoc[f"psi@{obj}"]["components"] == want["components"]


@pytest.mark.parametrize(
    "extra, same_as",
    [
        # --psi-len (default 2) above the window length.
        (["--window", "1,3"], []),
        (["--window", "2,3", "--psi-len", "3"], ["--psi-len", "3"]),
    ],
    ids=["window-1", "window-2-psi-len-3"],
)
def test_solve_psi_reads_the_family_up_to_psi_len(extra, same_as):
    # The declared family is assembled up to --psi-len, so a solve beyond
    # the window finds every component.
    cmd = ["solve-psi", "tests/fixtures/psi_roundtrip.json"]
    code, text = run(cmd + extra)
    assert code == 0, text
    assert (code, text) == run(cmd + same_as)


@pytest.mark.parametrize("psi_len", [0, 1, 2, 3])
def test_solve_psi_builds_the_family_up_to_psi_len(psi_len, monkeypatch):
    # The window (length 4) does not widen the family: the solver reads it
    # up to --psi-len.  The letters c1, c2 are mapped at every length.
    import facalc.evalhom

    built = []
    assemble = facalc.evalhom.psi_fixture
    monkeypatch.setattr(facalc.evalhom, "psi_fixture", lambda *args: built.append(assemble(*args)) or built[-1])
    cmd = ["solve-psi", "tests/fixtures/psi_roundtrip.json", "--psi-len", str(psi_len)]
    assert run(cmd)[0] == 0
    assert load_model_file(cmd[1]).window.max_len == 4
    (fixture,) = built
    lengths = [len(gids) for ((_, gids),) in fixture.comps]
    assert sorted(lengths) == [n for n in range(1, max(psi_len, 1) + 1) for _ in range(2 ** n)]


@pytest.mark.parametrize(
    "extra, checked",
    [
        (["--psi-len", "0"], True),
        (["--psi-len", "0", "--window", "1,3"], True),
        (["--psi-len", "1", "--window", "0,3"], True),
        (["--psi-len", "0", "--window", "0,3"], False),
    ],
    ids=["psi-len-0", "psi-len-0-window-1", "psi-len-1-window-0", "psi-len-0-window-0"],
)
def test_solve_psi_checks_gen_map_where_a_letter_fits(extra, checked, tmp_path):
    # gen_map is checked whenever --psi-len or the window length is at
    # least 1, so a bad map is reported even at --psi-len 0.
    doc = json.loads((ROOT / "tests/fixtures/psi_roundtrip.json").read_text())
    doc["psi"]["gen_map"] = {"c1": "r1"}
    path = tmp_path / "psi_missing.json"
    path.write_text(json.dumps(doc))
    code, text = run(["solve-psi", str(path), *extra])
    if checked:
        assert (code, text) == (65, "resolve error: solve-psi: generator 'c2' missing from gen_map\n")
    else:
        assert code == 0


def test_a_leibniz_residual_exits_with_the_residual_code(monkeypatch):
    # The declared pairing is compatible by construction, so no file makes
    # the solver's consistency check fail: the solver is made to raise.
    import facalc.evalhom
    from facalc.errors import LeibnizResidual

    def failing(*args, **kwargs):
        raise LeibnizResidual("reconstruction differs on word c1")

    monkeypatch.setattr(facalc.evalhom, "solve_psi", failing)
    code, text = run(["solve-psi", "tests/fixtures/psi_roundtrip.json"])
    assert code == 1
    assert text == "residual: reconstruction differs on word c1\n"


def test_solve_psi_rejects_an_empty_source_quiver(tmp_path):
    doc = json.loads((ROOT / "tests/fixtures/psi_roundtrip.json").read_text())
    doc["quivers"].append({"name": "E", "objects": [], "generators": []})
    doc["psi"] = {"source": "E", "obj_map": {}, "gen_map": {}}
    path = tmp_path / "psi_empty.json"
    path.write_text(json.dumps(doc))
    code, text = run(["solve-psi", str(path)])
    assert code == 64
    assert text.startswith("parse error: $.psi.source: ")
    assert run(["normalize", str(path)])[0] == 0


def test_normalize_keeps_each_element_on_its_own_quiver(tmp_path):
    # Quiver B has the object and generator names of quiver A, so only the
    # file can tell which quiver an element of B lives on.
    doc = json.loads((ROOT / "tests/fixtures/b1_only.json").read_text())
    doc["quivers"].append(dict(doc["quivers"][0], name="B"))
    doc["elements"] += [
        {"name": "b0", "quiver": "B", "terms": [{"at": "X"}]},
        {"name": "b1", "quiver": "B", "terms": [{"word": ["p"]}]},
    ]
    path = tmp_path / "two_quivers.json"
    path.write_text(json.dumps(doc))
    code, text = run(["normalize", str(path)])
    assert code == 0
    quivers = {e["name"]: e["quiver"] for e in json.loads(text)["elements"]}
    assert quivers == {"a1": "A", "b0": "B", "b1": "B"}


@pytest.mark.parametrize("obj", ["Y", "X"])
@pytest.mark.parametrize(
    "argv", [["--element", "b1", "--chain", "r"], ["--element", "a1", "--boundary", "idB"]]
)
def test_eval_rejects_an_element_off_the_source_quiver(obj, argv, tmp_path):
    source = "A" if "--chain" in argv else "B"
    # Quiver B's object is Y, or X as on quiver A: in both cases the element
    # and the chain (or boundary) live on different quivers.  Without the
    # eval task, no chain is given unless --chain names one.
    doc = json.loads((ROOT / "tests/fixtures/b1_only.json").read_text())
    del doc["tasks"]["eval"]
    p = {"id": "p", "src": obj, "dst": obj, "sdeg": 0, "base_level": {"rat": "0"}}
    doc["quivers"].append({"name": "B", "objects": [obj], "generators": [p]})
    doc["elements"].append({"name": "b1", "quiver": "B", "terms": [{"word": ["p"]}]})
    doc["functors"].append({
        "name": "idB", "src": "B", "dst": "B", "obj_map": {obj: obj},
        "components": [{"word": ["p"], "value": [["p", "1*T^{0}*e^{0}"]]}],
    })
    path = tmp_path / "off_quiver.json"
    path.write_text(json.dumps(doc))
    code, text = run(["eval", str(path), *argv])
    assert code == 64
    assert text == f"error: eval: element '{argv[1]}' is not on the source quiver '{source}'\n"


def test_eval_empty_chain_option_replaces_the_task_chain(tmp_path):
    # b1_only's eval task names the chain r; --chain "" selects the empty
    # chain, which then needs a boundary, and evaluates as a task with the
    # empty chain and that boundary does.
    assert run(["eval", "tests/fixtures/b1_only.json", "--chain", ""]) == (
        65, "resolve error: eval: empty chain needs a boundary functor\n"
    )
    doc = json.loads((ROOT / "tests/fixtures/b1_only.json").read_text())
    doc["tasks"]["eval"] = {"element": "a1", "chain": [], "boundary": "idA"}
    path = tmp_path / "empty_chain.json"
    path.write_text(json.dumps(doc))
    code, text = run(["eval", "tests/fixtures/b1_only.json", "--chain", "", "--boundary", "idA"])
    assert code == 0
    assert text == run(["eval", str(path)])[1]
    assert text != run(["eval", "tests/fixtures/b1_only.json"])[1]


@pytest.mark.parametrize(
    "task, argv",
    [
        ({"chain": ["r"]}, ["--boundary", "idA"]),
        ({}, ["--chain", "r", "--boundary", "idA"]),
        ({"chain": [], "boundary": "idA"}, ["--chain", "r"]),
        ({"chain": ["r"], "boundary": "idA"}, []),
    ],
    ids=["task-chain", "option-chain", "task-boundary", "task-both"],
)
def test_eval_rejects_a_boundary_next_to_a_chain(task, argv, tmp_path):
    # Each option replaces its own task field; a boundary from either place
    # next to a non-empty chain from either place is an error naming both.
    doc = json.loads((ROOT / "tests/fixtures/b1_only.json").read_text())
    doc["tasks"]["eval"] = dict(task, element="a1")
    path = tmp_path / "boundary_and_chain.json"
    path.write_text(json.dumps(doc))
    assert run(["eval", str(path), *argv]) == (
        64, "error: eval: boundary 'idA' is for the empty chain, not chain 'r'\n"
    )


# Every fixture with the commands it is run with: its golden commands, or
# check-b2 for the fixtures that have none.
FUZZ_CASES = sorted(
    [tuple(argv) for argv in GOLDEN_CASES.values()]
    + [("check-b2", f"tests/fixtures/{name}.json") for name in ("parse_error", "resolve_error", "undecided")]
)
REPLACEMENTS = [[[1]], 5, "x", True, {}]


def field_paths(node, prefix=()):
    """The path of every dict entry and list item in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


@seed(facalc_seed())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fixture_with_one_field_swapped_never_tracebacks(data):
    argv = data.draw(st.sampled_from(FUZZ_CASES), label="command")
    doc = json.loads((ROOT / argv[1]).read_text(encoding="utf-8"))
    path = data.draw(st.sampled_from(list(field_paths(doc))), label="field")
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(st.sampled_from(REPLACEMENTS), label="replacement")
    with tempfile.TemporaryDirectory() as tmp:
        mutated = pathlib.Path(tmp) / "mutated.json"
        mutated.write_text(json.dumps(doc), encoding="utf-8")
        code, text = run([argv[0], str(mutated), *argv[2:]])
    assert code in (0, 1, 2, 64, 65)
    assert "Traceback" not in text
