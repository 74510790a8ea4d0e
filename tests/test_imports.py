"""Every module of the package uses each name it imports, so that code
moved from one module to another takes its imports along. The package's
__init__ imports names only to export them, and is not scanned."""

import ast

import pytest

from support import SRC

MODULES = sorted(path.name for path in (SRC / "graphnorm").glob("*.py")
                 if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # 'import a.b' binds a.
            imported.extend(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_each_imported_name_is_used(module):
    assert _unused_imports((SRC / "graphnorm" / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("import re as regex\nre = 1\nre\n", ["regex"]),
    ("from a import b, c\ndef f(x: b) -> None:\n    pass\n", ["c"]),
    ("from __future__ import annotations\n", []),
    ("if x:\n    from a import b\n", ["b"]),
])
def test_the_scan_finds_an_unused_import(source, unused):
    assert _unused_imports(source) == unused
