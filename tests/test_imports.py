"""Every module of minkred reads each name that its module-level imports
bind; a deletion that leaves an import behind fails here."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minkred"
# __init__.py re-exports what it imports, so only the other modules count
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def bound_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def test_package_has_modules():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    tree = ast.parse(path.read_text())
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert [name for name in bound_names(tree) if name not in read] == []
