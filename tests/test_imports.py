"""Every module-level import in src/facalc and in the tests is used by its
module, and every module-level function, class and public method is used by
src/facalc, the acceptance suite or the benchmark.

No linter runs in tier-1, so this is the one check against imports that a
refactor leaves behind.  A name imported on purpose for other modules is
marked with a ``# re-exported`` comment on its own line of the import.

A last check keeps what one call imports small: a short check loads no
``dataclasses`` or ``inspect``, and only ``solve-psi`` loads the solver.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "facalc"
TESTS = pathlib.Path(__file__).parent


def unused_imports(source: str):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# re-exported" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_unused_and_honours_reexport_marks():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import (\n"
        "    Dict,\n"
        "    List,  # re-exported\n"
        "    Optional,\n"
        ")\n"
        "x: Dict[str, int] = {}\n"
    )
    assert unused_imports(source) == [(2, "os"), (6, "Optional")]


# ---------------------------------------------------------------------------
# Every definition in src/facalc is reached from the product: from src/
# itself, the acceptance suite or the benchmark.  The unit tests do not
# count as callers, so a helper that only its own tests call fails here.

ROOT = SRC.parent.parent
PRODUCT = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]

# Kept in src/ though no product code calls them: the literal rules that the
# tests check the code's fast paths against.
ORACLES = frozenset({"koszul_sign"})


def definitions(source: str, classes: set):
    """(qualified name, node) for each module-level function and class, and
    each public method or property of a module-level class.  Methods of a
    class with a base outside ``classes`` (the classes of the scanned
    modules) are left out: that base, such as ``argparse.ArgumentParser``,
    is what calls them."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef) and all(base_name(b) in classes for b in node.bases):
            out.extend(
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            )
    return out


def base_name(node) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def referenced_names(tree) -> dict:
    """How often each name is used, as a bare name or as an attribute."""
    counts: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        counts[name] = counts.get(name, 0) + 1
    return counts


def unreferenced_definitions(modules: dict, others: list, exempt=frozenset()):
    """Definitions of ``modules`` (name -> source) that no code in
    ``modules`` or ``others`` (sources) uses outside their own body."""
    total: dict = {}
    for source in list(modules.values()) + list(others):
        for name, n in referenced_names(ast.parse(source)).items():
            total[name] = total.get(name, 0) + n
    classes = {
        node.name
        for source in modules.values()
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
    }
    out = []
    for module, source in sorted(modules.items()):
        for qualname, node in definitions(source, classes):
            name = node.name
            own = referenced_names(node).get(name, 0)
            if name not in exempt and total.get(name, 0) - own == 0:
                out.append((module, qualname))
    return out


def test_every_module_function_is_referenced():
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    others = [p.read_text(encoding="utf-8") for p in PRODUCT]
    assert unreferenced_definitions(modules, others, ORACLES) == []


def test_reference_checker_flags_dead_and_self_recursive_functions():
    modules = {
        "m.py": (
            "import argparse\n"
            "def used():\n"
            "    return 1\n"
            "def dead():\n"
            "    return used()\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
            "def via_attribute():\n"
            "    return 2\n"
            "def oracle():\n"
            "    return 3\n"
            "class Live:\n"
            "    def method(self):\n"
            "        return 4\n"
            "    def dead_method(self):\n"
            "        return self.method()\n"
            "    @property\n"
            "    def prop(self):\n"
            "        return 5\n"
            "    def _private(self):\n"
            "        return 6\n"
            "class Dead:\n"
            "    def __init__(self):\n"
            "        Dead.count = 0\n"
            "class Parser(argparse.ArgumentParser):\n"
            "    def error(self, message):\n"
            "        raise ValueError(message)\n"
        )
    }
    others = ["import m\nm.via_attribute()\nm.Live().prop\nm.Parser()\n"]
    assert unreferenced_definitions(modules, others, {"oracle"}) == [
        ("m.py", "dead"),
        ("m.py", "recursive"),
        ("m.py", "Live.dead_method"),
        ("m.py", "Dead"),
    ]


# ---------------------------------------------------------------------------
# What one call imports.  The child lists the modules it gained over the
# interpreter's own start-up (site and any .pth files in site-packages), so
# only what facalc imports counts.

FOOTPRINT = """
import sys
base = set(sys.modules)
import contextlib, io, json
from facalc.cli import main
added = {}
for argv in (["check-b2", "tests/fixtures/b1_only.json"], ["solve-psi", "tests/fixtures/psi_roundtrip.json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    added[argv[0]] = [code, sorted(set(sys.modules) - base)]
print(json.dumps(added))
"""

UNNEEDED = {"dataclasses", "inspect", "facalc.evalhom"}


def test_a_check_imports_neither_dataclasses_nor_the_solver():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    code, modules = added["check-b2"]
    assert code == 0 and "facalc.cli" in modules
    assert UNNEEDED.isdisjoint(modules)
    code, modules = added["solve-psi"]
    assert code == 0 and "facalc.evalhom" in modules
