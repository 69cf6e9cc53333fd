"""No library, test or benchmark module imports a name it never uses.  A
module is read and parsed with `ast` only, nothing is written; a name
counts as used when it is read anywhere in the module or listed in its
`__all__`.  An import line marked `# noqa: F401` is kept on purpose (a name
another program looks up in that module)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = [p for d in ("src/kleinsail", "tests", "bench") for p in sorted((ROOT / d).glob("*.py"))]


def unused_imports(source):
    """The names `source` imports and never uses, sorted."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_the_guard_finds_an_unused_import():
    src = "import json\nimport math  # noqa: F401\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(src) == ["json", "path"]


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
