"""Every module-level import in src/facalc is used by its module, and every
module-level function is used somewhere.

No linter runs in tier-1, so this is the one check against imports that a
refactor leaves behind.  A name imported on purpose for other modules is
marked with a ``# re-exported`` comment on its own line of the import.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "facalc"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
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
# Every module-level function is referenced somewhere besides its own body.

ROOT = SRC.parent.parent
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def top_level_functions(source: str):
    tree = ast.parse(source)
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


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


def unreferenced_functions(modules: dict, others: list, exempt=frozenset()):
    """Module-level functions of ``modules`` (name -> source) that no code in
    ``modules`` or ``others`` (sources) uses outside their own definition."""
    total: dict = {}
    for source in list(modules.values()) + list(others):
        for name, n in referenced_names(ast.parse(source)).items():
            total[name] = total.get(name, 0) + n
    out = []
    for module, source in sorted(modules.items()):
        for name, node in top_level_functions(source).items():
            own = referenced_names(node).get(name, 0)
            if name not in exempt and total.get(name, 0) - own == 0:
                out.append((module, name))
    return out


def acceptance_imports():
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    return {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("facalc")
        for alias in node.names
    }


def test_every_module_function_is_referenced():
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    others = [
        p.read_text(encoding="utf-8")
        for folder in ("tests", "bench")
        for p in sorted((ROOT / folder).glob("*.py"))
    ]
    assert unreferenced_functions(modules, others, acceptance_imports()) == []


def test_reference_checker_flags_dead_and_self_recursive_functions():
    modules = {
        "m.py": (
            "def used():\n"
            "    return 1\n"
            "def dead():\n"
            "    return used()\n"
            "def recursive(n):\n"
            "    return recursive(n - 1) if n else 0\n"
            "def via_attribute():\n"
            "    return 2\n"
            "def public():\n"
            "    return 3\n"
            "class C:\n"
            "    def method(self):\n"
            "        return 4\n"
        )
    }
    others = ["import m\nm.via_attribute()\n"]
    assert unreferenced_functions(modules, others, {"public"}) == [
        ("m.py", "dead"),
        ("m.py", "recursive"),
    ]
