"""Static checks over the library's source files."""

import ast

import pytest

from conftest import REPO

SOURCES = sorted((REPO / "src" / "contagion").glob("*.py"))


def _unused_imports(source: str) -> list:
    """Names a module-level import binds that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_catches_each_import_form():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import xml.dom\n"
        "import numpy as np\n"
        "from typing import Tuple, Iterator as It\n"
        "from .tally import AGGREGATORS\n"
        "def f(x: Tuple) -> None:\n"
        "    return sys.argv, np.zeros(1)\n"
    )
    assert _unused_imports(source) == [(2, "os"), (3, "xml"), (5, "It"), (6, "AGGREGATORS")]
