"""Every name a `kleinsail` module lists in `__all__` resolves in it, and
every public function and class it defines is listed.

A deletion that misses its `__all__` entry breaks only
`from kleinsail.<module> import *`, and `test_no_unused_imports.py` counts
`__all__` names as used, so a stale entry also hides an unused import.  A
public definition left out of `__all__` is missing from that import and from
the module's stated interface.  Constants, such as schema names, are exempt.
The modules are listed from the package itself.
"""

import importlib
import inspect
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


def unlisted(module):
    """The public functions and classes `module` defines that its `__all__`
    leaves out; imported names and constants are exempt."""
    listed = set(getattr(module, "__all__", ()))
    return sorted(name for name, obj in vars(module).items()
                  if not name.startswith("_") and name not in listed
                  and (inspect.isfunction(obj) or inspect.isclass(obj))
                  and obj.__module__ == module.__name__)


def test_the_guard_finds_a_stale_name():
    mod = types.ModuleType("fake")
    mod.kept = 1
    mod.__all__ = ["kept", "gone", "kept"]
    assert unresolved(mod) == ["gone", "kept"]


def test_the_guard_finds_an_unlisted_definition():
    mod = types.ModuleType("fake")
    exec("from math import gcd\nfrom fractions import Fraction\nSCHEMA = 'fake/1'\n"
         "def listed(): pass\ndef public(): pass\ndef _private(): pass\nclass Shape: pass\n",
         vars(mod))
    mod.__all__ = ["listed"]
    assert unlisted(mod) == ["Shape", "public"]


@pytest.mark.parametrize("module", MODULES)
def test_every_all_name_resolves(module):
    mod = importlib.import_module(f"kleinsail.{module}")
    assert isinstance(mod.__all__, list) and mod.__all__
    assert unresolved(mod) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_public_definition_is_listed(module):
    assert unlisted(importlib.import_module(f"kleinsail.{module}")) == []
