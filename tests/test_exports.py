"""The package exports no name that only tests would read."""

import ast
from pathlib import Path

import stackgame

PACKAGE = Path(stackgame.__file__).resolve().parent


def _exports() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _names_read(path: Path) -> set:
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_export_is_read_by_a_package_module():
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            read |= _names_read(path)
    assert _exports(), "no exports parsed"
    assert sorted(_exports() - read) == []
