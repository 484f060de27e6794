"""No module of the package imports a name that it never uses.

No linter ships with the test dependencies, so this walks each module's
syntax tree with ``ast``: every name bound by an import must be read
somewhere in the module as a plain name (an attribute chain counts by its
root, an annotation by its names).  ``__init__.py`` is skipped, since its
imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pcattack"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_guard_finds_an_unused_import():
    assert unused_imports("import math\nimport os.path as osp\nfrom x import a, b\n"
                          "print(a.c)\n") == ["math", "osp", "b"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
