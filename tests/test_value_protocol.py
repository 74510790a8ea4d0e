"""The package's immutable values share one equality protocol: the only
__eq__ and __hash__ in the package are terms._Frozen's, which every value
type derives from. A class that wrote its own would bring back a second
notion of when two values are equal and how often their hash is computed."""

import ast

import pytest

from support import SRC

MODULES = sorted(path.name for path in (SRC / "graphnorm").glob("*.py"))
_EQUALITY = ("__eq__", "__hash__")


def _own_equality(source: str) -> list[str]:
    """The 'Class.name' of each __eq__ or __hash__ a class in source
    defines or assigns, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found.extend(f"{node.name}.{name}" for name in names if name in _EQUALITY)
    return found


def test_only_frozen_defines_equality():
    found = {module: names for module in MODULES
             if (names := _own_equality((SRC / "graphnorm" / module).read_text(encoding="utf-8")))}
    assert found == {"terms.py": ["_Frozen.__eq__", "_Frozen.__hash__"]}


@pytest.mark.parametrize("source, found", [
    ("class A:\n    def __eq__(self, other):\n        return True\n", ["A.__eq__"]),
    ("class A:\n    __hash__ = None\n", ["A.__hash__"]),
    ("class A:\n    __eq__: object = object.__eq__\n", ["A.__eq__"]),
    ("class A:\n    class B:\n        def __hash__(self):\n            return 0\n", ["B.__hash__"]),
    ("def __eq__(a, b):\n    return True\n", []),
    ("class A:\n    def equal(self, other):\n        return True\n", []),
])
def test_the_scan_finds_a_hand_written_equality(source, found):
    assert _own_equality(source) == found
