"""Every Python file of the project parses under the Python 3.10 grammar,
the oldest version `pyproject.toml` supports.  The files are read and parsed
only: nothing is compiled to disk."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def test_the_project_has_python_files():
    assert any(p.name == "sail.py" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_parses_as_python_310(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
