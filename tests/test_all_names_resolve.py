"""Every name a `kleinsail` module lists in `__all__` resolves in it.

A deletion that misses its `__all__` entry breaks only
`from kleinsail.<module> import *`, and `test_no_unused_imports.py` counts
`__all__` names as used, so a stale entry also hides an unused import.  The
modules are listed from the package itself.
"""

import importlib
import types
from pathlib import Path

import pytest

import kleinsail

PACKAGE = Path(kleinsail.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def unresolved(module):
    """The names in `module.__all__` it does not define, and any listed twice."""
    names = list(getattr(module, "__all__", ()))
    missing = [n for n in names if not hasattr(module, n)]
    twice = sorted({n for n in names if names.count(n) > 1})
    return missing + twice


def test_the_guard_finds_a_stale_name():
    mod = types.ModuleType("fake")
    mod.kept = 1
    mod.__all__ = ["kept", "gone", "kept"]
    assert unresolved(mod) == ["gone", "kept"]


@pytest.mark.parametrize("module", MODULES)
def test_every_all_name_resolves(module):
    mod = importlib.import_module(f"kleinsail.{module}")
    assert isinstance(mod.__all__, list) and mod.__all__
    assert unresolved(mod) == []
