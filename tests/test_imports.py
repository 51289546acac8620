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


def _unread_private_names(sources: dict) -> list:
    """Module-level private names (``_x``) that no source in ``sources`` reads.

    ``sources`` maps a file name to its text. A name counts as read where
    it is loaded as a name or as an attribute (``module._x``) in any file.
    """
    defined, read = [], set()
    for fname, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [
                    n.id
                    for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                    for n in ast.walk(t)
                    if isinstance(n, ast.Name)
                ]
            else:
                continue
            defined += [
                (fname, node.lineno, name)
                for name in targets
                if name.startswith("_") and not name.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_every_module_level_private_name_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert _unread_private_names(sources) == []


def test_unread_private_name_check_catches_each_definition_form():
    sources = {
        "a.py": (
            "import b\n"
            "_USED = 1\n"
            "_UNUSED = 2\n"
            "_PAIR_A, _PAIR_B = 3, 4\n"
            "_ANNOTATED: int = 5\n"
            "def _helper():\n"
            "    return _USED + _PAIR_A\n"
            "class _Orphan:\n"
            "    pass\n"
            "def public():\n"
            "    _local = 6\n"
            "    return b._from_b(_local)\n"
        ),
        "b.py": "def _from_b(x):\n    return x\ndef _dead(x):\n    return x\n",
    }
    assert _unread_private_names(sources) == [
        ("a.py", 3, "_UNUSED"),
        ("a.py", 4, "_PAIR_B"),
        ("a.py", 5, "_ANNOTATED"),
        ("a.py", 6, "_helper"),
        ("a.py", 8, "_Orphan"),
        ("b.py", 3, "_dead"),
    ]
