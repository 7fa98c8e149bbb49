"""Command line interface: structure-file commands and reports.

Exit codes: 0 all checks pass with sound windows; 1 a relation has a nonzero
residual; 2 no residual failures but some outcome was LOSSY or UNDECIDED;
an error exits by its row of ``ERRORS`` (64 parse or usage, 65 unresolved).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from . import levels, novikov
from .ainfty import (
    CheckEntry,
    check_ainf_functor,
    check_b_squared,
    check_coder_b_squared,
)
from .errors import (
    ConvergenceUndecided,
    FacalcError,
    LeibnizResidual,
    ObjectMismatch,
    ParseError,
    ResolveError,
)
from .filtquiver import FiltQuiver
from .morphisms import (
    Coderivation,
    Cofunctor,
    chain_eval,
    compose_cofunctors,
    pull_coderivation,
    push_coderivation,
)
from .structfile import Model, dump_document, load_model_file, model_to_json, resolve
from .tcoalg import Flag, TruncWindow

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_UNDECIDED = 2
EXIT_PARSE = 64
EXIT_RESOLVE = 65

# Each error's stderr label and exit code: the first row the error is an instance of.
ERRORS = (
    (ParseError, "parse error", EXIT_PARSE),
    (ResolveError, "resolve error", EXIT_RESOLVE),
    (ConvergenceUndecided, "undecided", EXIT_UNDECIDED),
    (LeibnizResidual, "residual", EXIT_RESIDUAL),
    (FacalcError, "error", EXIT_PARSE),
)


class Report:
    """A check command's entries, in (relation, n, word) order."""

    def __init__(self, command: str, path: str, entries: List[CheckEntry]):
        self.command = command
        self.path = path
        self.entries = sorted(entries, key=lambda e: (e.relation, e.n, e.word))

    def summary(self) -> Dict[str, int]:
        failed = sum(1 for e in self.entries if not e.ok and e.flag != "UNDECIDED")
        lossy = sum(1 for e in self.entries if e.flag == "LOSSY")
        undecided = sum(1 for e in self.entries if e.flag == "UNDECIDED")
        return {
            "checked": len(self.entries),
            "failed": failed,
            "lossy": lossy,
            "undecided": undecided,
        }

    def exit_code(self) -> int:
        s = self.summary()
        if s["failed"]:
            return EXIT_RESIDUAL
        if s["lossy"] or s["undecided"]:
            return EXIT_UNDECIDED
        return EXIT_OK

    def render(self, fmt: str) -> str:
        s = self.summary()
        if fmt == "json":
            return dump_document(
                {
                    "command": self.command,
                    "file": self.path,
                    "entries": [
                        {
                            "relation": e.relation,
                            "n": e.n,
                            "word": e.word,
                            "residual": e.residual,
                            "flag": e.flag,
                        }
                        for e in self.entries
                    ],
                    "summary": s,
                    "exit": self.exit_code(),
                }
            )
        lines = [f"facalc {self.command} {self.path}"]
        if not self.entries:
            lines.append("vacuous: 0 relations")
        for e in self.entries:
            lines.append(
                f"check {e.relation} n={e.n} word={e.word} residual={e.residual} flag={e.flag}"
            )
        lines.append(
            "summary: checked={checked} failed={failed} lossy={lossy} undecided={undecided}".format(**s)
        )
        lines.append(f"exit {self.exit_code()}")
        return "\n".join(lines) + "\n"


def _override_window(model: Model, spec: Optional[str]) -> TruncWindow:
    """The window of a run: the file's, or ``--window N,E`` with N read by
    `_count` and E by `levels.read_level` in the file's instance.  A
    negative N and a cutoff that is not positive keep the window's own
    messages; any other spec states the expected form."""
    if spec is None:
        return model.window
    n_str, _, e_str = spec.partition(",")
    try:
        max_len = -_count(n_str[1:]) if n_str[:1] == "-" else _count(n_str)
        cutoff = levels.read_level(model.monoid, e_str)
    except (argparse.ArgumentTypeError, FacalcError):
        raise ParseError("--window", "expected 'N,E' (N an integer >= 0, E rational, or 'inf'"
                         f" on the discrete instance), got {spec!r}") from None
    try:
        return TruncWindow(max_len, cutoff)
    except FacalcError as exc:
        raise ParseError("--window", str(exc)) from None


def _task(model: Model, name: str) -> dict:
    task = model.tasks.get(name, {})
    if not isinstance(task, dict):
        raise ParseError(f"$.tasks.{name}", "task must be an object")
    return task


def _task_name(task: dict, where: str, field: str) -> Optional[str]:
    """The name a task gives in `field`, or None; it must be a string."""
    name = task.get(field)
    if name is not None and not isinstance(name, str):
        raise ParseError(f"$.tasks.{where}.{field}", "name must be a string")
    return name


def _pick(table: dict, name: Optional[str], loc: str, noun: str):
    """The functor or coderivation of ``table`` that a command names, or
    the only one the file declares when no name is given."""
    if name is None:
        if len(table) == 1:
            return next(iter(table.values()))
        raise ResolveError(f"{loc}: give a {noun} name (file declares {len(table)})")
    return resolve(table, name, loc, noun)


# ---------------------------------------------------------------------------
# Commands

def cmd_check_b2(model: Model, window: TruncWindow, args) -> List[CheckEntry]:
    entries: List[CheckEntry] = []
    for name in sorted(model.cats):
        entries.extend(check_b_squared(model.cats[name], window, args.n_max))
    return entries


def cmd_check_functor(model: Model, window: TruncWindow, args) -> List[CheckEntry]:
    task = _task(model, "check_functor")
    name = args.functor or _task_name(task, "check_functor", "functor")
    f = _pick(model.functors, name, "check-functor", "functor")
    for qname in (f.src.name, f.dst.name):
        if qname not in model.cats:
            raise ResolveError(f"check-functor: quiver {qname!r} has no codifferential")
    return check_ainf_functor(f, model.cats[f.src.name], model.cats[f.dst.name], window, args.n_max)


def cmd_check_coder_b2(model: Model, window: TruncWindow, args) -> List[CheckEntry]:
    if model.coder_quiver is None:
        raise ResolveError("check-coder-b2: file has no coder_quiver section")
    return check_coder_b_squared(model.coder_quiver, window, args.n_max, args.word_len_max)


def _result_doc(model: Model, quivers: List[FiltQuiver], functors: List[Cofunctor],
                coderivations: List[Coderivation], elements: Optional[dict] = None,
                flag: Optional[str] = None) -> dict:
    """``model_to_json`` of a result: model's header with the given quivers,
    functors, coderivations and elements (name -> (value, quiver name)),
    each keyed by name; ``flag`` adds a ``meta`` entry."""
    out = Model(model.monoid, model.variant, model.window)
    out.quivers = {q.name: q for q in quivers}
    out.functors = {f.name: f for f in functors}
    out.coderivations = {r.name: r for r in coderivations}
    for name, (x, qname) in (elements or {}).items():
        out.elements[name], out.element_quivers[name] = x, qname
    doc = model_to_json(out)
    if flag is not None:
        doc["meta"] = {"flag": flag}
    return doc


def cmd_compose(model: Model, window: TruncWindow, args):
    task = _task(model, "compose")
    f = _pick(model.functors, args.f or _task_name(task, "compose", "f"), "compose", "functor")
    g = _pick(model.functors, args.g or _task_name(task, "compose", "g"), "compose", "functor")
    h = compose_cofunctors(f, g, window)
    return dump_document(_result_doc(model, [f.src, g.dst], [h], [])), EXIT_OK


def cmd_push(model: Model, window: TruncWindow, args):
    task = _task(model, "push")
    r = _pick(model.coderivations, args.r or _task_name(task, "push", "r"), "push", "coderivation")
    h = _pick(model.functors, args.h or _task_name(task, "push", "h"), "push", "functor")
    out = push_coderivation(r, h, window)
    return dump_document(
        _result_doc(model, [r.src, h.dst], [out.f, out.g], [out])
    ), EXIT_OK


def cmd_pull(model: Model, window: TruncWindow, args):
    task = _task(model, "pull")
    e = _pick(model.functors, args.e or _task_name(task, "pull", "e"), "pull", "functor")
    r = _pick(model.coderivations, args.r or _task_name(task, "pull", "r"), "pull", "coderivation")
    out = pull_coderivation(e, r, window)
    return dump_document(
        _result_doc(model, [e.src, r.dst], [out.f, out.g], [out])
    ), EXIT_OK


def cmd_eval(model: Model, window: TruncWindow, args):
    task = _task(model, "eval")
    elem_name = args.element or _task_name(task, "eval", "element")
    x = resolve(model.elements, elem_name, "eval", "element")
    # Each option replaces its task field; --chain "" is the empty chain.
    if args.chain is not None:
        chain_names = args.chain.split(",") if args.chain else []
    else:
        chain_names = task.get("chain", [])
    if not isinstance(chain_names, list):
        raise ParseError("$.tasks.eval.chain", "chain must be a list of names")
    for i, name in enumerate(chain_names):
        if not isinstance(name, str):
            raise ParseError(f"$.tasks.eval.chain[{i}]", "name must be a string")
    bname = args.boundary if args.boundary is not None else _task_name(task, "eval", "boundary")
    if chain_names and bname is not None:
        raise FacalcError(
            f"eval: boundary {bname!r} is for the empty chain, not chain {','.join(chain_names)!r}"
        )
    chain = [resolve(model.coderivations, n, "eval", "coderivation") for n in chain_names]
    boundary = None if bname is None else resolve(model.functors, bname, "eval", "functor")
    if not chain and boundary is None:
        raise ResolveError("eval: empty chain needs a boundary functor")
    source = (chain[0] if chain else boundary).src.name
    if model.element_quivers[elem_name] != source:
        raise ObjectMismatch(f"eval: element {elem_name!r} is not on the source quiver {source!r}")
    value, flag = chain_eval(x, chain, window, boundary=boundary)
    target = chain[-1].dst if chain else boundary.dst
    text = dump_document(
        _result_doc(
            model,
            [target],
            [],
            [],
            elements={"result": (value, target.name)},
            flag=str(flag),
        )
    )
    return text, (EXIT_OK if flag == Flag.SOUND else EXIT_UNDECIDED)


def cmd_solve_psi(model: Model, window: TruncWindow, args):
    # The one import of the solver: no other command pays for loading it.
    from .solver import psi_fixture, solve_psi

    if model.psi is None:
        raise ResolveError("solve-psi: file has no psi section")
    fixture = psi_fixture(model, window, args.psi_len)
    a_quiver = fixture.a_quiver
    target = next(iter(fixture.objects.values())).dst
    spec = model.psi

    def phi(words, cwords):
        return [value for value, _ in fixture.apply(words, novikov.one(model.variant), cwords, window)]

    def phi_obj(a_obj: str, c_objs):
        return fixture.objects[c_objs].obj_map[a_obj]

    sol = solve_psi(
        phi,
        phi_obj,
        a_quiver,
        target,
        [spec.source],
        window,
        model.variant,
        max_factor_len=(args.psi_len,),
    )
    functors = [sol.objects[key] for key in sorted(sol.objects)]
    coders = [sol.comps[key] for key in sorted(sol.comps)]
    return dump_document(_result_doc(model, [a_quiver, target], functors, coders)), EXIT_OK


def cmd_normalize(model: Model, window: TruncWindow, args):
    return dump_document(model_to_json(model)), EXIT_OK


CHECKS = {
    "check-b2": cmd_check_b2,
    "check-functor": cmd_check_functor,
    "check-coder-b2": cmd_check_coder_b2,
}
PRINTERS = {
    "compose": cmd_compose,
    "push": cmd_push,
    "pull": cmd_pull,
    "eval": cmd_eval,
    "solve-psi": cmd_solve_psi,
    "normalize": cmd_normalize,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError (exit 64): exit 2 means LOSSY or undecided."""

    def error(self, message: str):
        raise ParseError(self.prog, message)


def _count(text: str) -> int:
    """A count, such as an option's value or the N of ``--window``: ASCII
    digits, no more than ``levels.check_digits`` allows, read as an integer
    >= 0."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    try:
        levels.check_digits(len(text))
    except FacalcError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return int(text)


# Every command's options, in help order, with their add_argument keywords:
# build_parser and _plain_args both read them, so they agree on each.
OPTIONS = {
    "--n-max": {"type": _count, "default": 4},
    "--word-len-max": {"type": _count, "default": 3},
    "--window": {"help": "override as 'N,E' (E rational, or 'inf' on the discrete instance)"},
    "--format": {"choices": ["text", "json"], "default": "text"},
    **{flag: {} for flag in ("--functor", "--f", "--g", "--r", "--h", "--e", "--element", "--chain", "--boundary")},
    "--psi-len": {"type": _count, "default": 2, "help": "factor word length bound for solve-psi"},
}


def build_parser(argv: Optional[Sequence[str]] = None) -> argparse.ArgumentParser:
    """The facalc parser for argv: the reader of every line `_plain_args`
    declines, such as help, abbreviations, ``--`` and usage errors.  When
    argv[0] names a command, only its subparser is built, and it reads argv
    as the full parser's would; otherwise every command's is, so ``facalc
    --help`` lists them all.
    """
    ap = _Parser(
        prog="facalc",
        description="Exact checks and calculations on filtered tensor coalgebra structure files.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    names = list(CHECKS) + list(PRINTERS)
    if argv and argv[0] in names:
        names = [argv[0]]
    for name in names:
        p = sub.add_parser(name)
        p.add_argument("file")
        for flag, kwargs in OPTIONS.items():
            p.add_argument(flag, **kwargs)
    return ap


def _plain_args(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """The Namespace `build_parser` makes of a plain command line, or None.

    Plain: a command, then one file and exact ``OPTIONS`` flags, each with a
    value (the next token, or after ``=``) of its type and choices; no file
    or value is empty or starts with ``-``.  Building argparse, which also
    imports ``locale``, costs a short command more than its own work.
    """
    command, *rest = argv or [""]
    values = {flag: kwargs.get("default") for flag, kwargs in OPTIONS.items()}
    files = []
    tokens = iter(rest)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in OPTIONS:
            files.append(token)
            continue
        value = value if eq else next(tokens, "")
        kwargs = OPTIONS[flag]
        try:
            values[flag] = kwargs.get("type", str)(value)
        except (argparse.ArgumentTypeError, ValueError):
            return None
        if value[:1] in ("", "-") or values[flag] not in kwargs.get("choices", [values[flag]]):
            return None
    if (command not in CHECKS and command not in PRINTERS) or len(files) != 1 or files[0][:1] in ("", "-"):
        return None
    args = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
    return argparse.Namespace(command=command, file=files[0], **args)


def main(argv: Optional[List[str]] = None) -> int:
    """Run argv (default ``sys.argv[1:]``) and return its exit code: a plain
    command line is read by `_plain_args`, any other by `build_parser`.
    The window is read here, once, for every command: a ``--window`` that
    `_override_window` rejects exits 64, even where the command is
    ``normalize``, which prints the file as it is."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _plain_args(argv) or build_parser(argv).parse_args(argv)
        model = load_model_file(args.file)
        window = _override_window(model, args.window)
        if args.command in CHECKS:
            report = Report(args.command, args.file, CHECKS[args.command](model, window, args))
            sys.stdout.write(report.render(args.format))
            return report.exit_code()
        out, code = PRINTERS[args.command](model, window, args)
        sys.stdout.write(out)
        return code
    except FacalcError as exc:
        label, code = next((label, code) for kind, label, code in ERRORS if isinstance(exc, kind))
        sys.stderr.write(f"{label}: {exc}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
