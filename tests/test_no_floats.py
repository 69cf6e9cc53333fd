"""The trusted modules hold no floats.

Every decision outside the log plane is exact, and the one numeric view of a
lattice is its certified integer enclosures.  This test parses every module
of the package whole and fails on any float literal or `float(...)` call.
`logplane` is diagnostic by design and is not checked.
"""

import ast
from pathlib import Path

import pytest

import kleinsail

PACKAGE = Path(kleinsail.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "logplane")


def _float_sites(tree):
    """(line, what) for every float literal and float(...) call."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            sites.append((node.lineno, f"float literal {node.value!r}"))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            sites.append((node.lineno, "float(...) call"))
    return sorted(sites)


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_floats(module):
    path = PACKAGE / f"{module}.py"
    assert _float_sites(ast.parse(path.read_text(), str(path))) == []


def test_guard_sees_floats():
    tree = ast.parse("x = 0.5\ny = float(3)\n")
    assert _float_sites(tree) == [(1, "float literal 0.5"), (2, "float(...) call")]
