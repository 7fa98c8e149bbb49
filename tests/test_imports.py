"""Every module-level import in src/facalc is used by its module.

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
