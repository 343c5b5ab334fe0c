"""The package exports no name, and defines no public one, that only tests would read.

That holds for the public methods and properties of its classes too. The
exceptions are listed, each with the reason it is kept.
"""

import ast
from collections import Counter
from pathlib import Path

import stackgame

PACKAGE = Path(stackgame.__file__).resolve().parent

# public names no package module reads, each kept for a stated reason: none today
UNREAD_BY_DESIGN: dict = {}


def _exports() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _reads(tree: ast.AST) -> Counter:
    """How often each name and attribute is read in tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def _names_read(tree: ast.AST) -> set:
    return set(_reads(tree))


def _module_statements():
    """Top-level statements of every package module but __init__, which only re-exports."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield from ast.parse(path.read_text()).body


def test_every_export_is_read_by_a_package_module():
    read = set()
    for stmt in _module_statements():
        read |= _names_read(stmt)
    assert _exports(), "no exports parsed"
    assert sorted(_exports() - read) == sorted(_exports() & UNREAD_BY_DESIGN.keys())


def test_every_public_definition_is_read_outside_itself():
    defined, read = set(), set()
    for stmt in _module_statements():
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            defined.add(stmt.name)
        read |= _names_read(stmt) - {getattr(stmt, "name", None)}
    assert len(defined) > len(UNREAD_BY_DESIGN), "no definitions parsed"
    assert sorted(defined - read) == sorted(UNREAD_BY_DESIGN)


def test_every_public_method_is_read_outside_itself():
    read, methods = Counter(), []
    for stmt in _module_statements():
        read += _reads(stmt)
        if isinstance(stmt, ast.ClassDef):
            methods += [(stmt.name, node) for node in stmt.body
                        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert methods, "no methods parsed"
    unread = [f"{cls}.{node.name}" for cls, node in methods
              if read[node.name] == _reads(node)[node.name]]
    assert unread == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(tree: ast.AST) -> list:
    """(line, attribute) of each x._name read in tree, with x not self or cls."""
    return [(node.lineno, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and _private(node.attr)
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]


def test_no_module_reads_another_modules_private_attributes():
    """x._name, with x not self or cls, only where the module defines _name itself."""
    # the package reads no such attribute today, so the walker is shown one
    planted = ast.parse("def f(ctx, z):\n    return ctx._check_z(z), self._own\n")
    assert _private_reads(planted) == [(2, "_check_z")], "no private attribute reads parsed"
    defined, reads = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        names = defined.setdefault(path.name, set())
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
        reads += [(path.name, line, attr) for line, attr in _private_reads(tree)]
    foreign = [(module, line, attr) for module, line, attr in reads
               if attr not in defined[module]
               and any(attr in names for other, names in defined.items() if other != module)]
    assert foreign == []


# the steps that build a majorant: sample check, hull, tangency, chord line
MAJORANT_STEPS = {"has_reflex_sample", "hull_chords", "tangent_chords", "chord_line"}


def test_only_the_envelope_module_builds_majorants():
    """No package module but envelope.py imports or reads a step of the majorant's construction."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        found[path.name] = sorted((imported | _names_read(tree)) & MAJORANT_STEPS)
    own = found.pop("envelope.py")
    assert {name: steps for name, steps in found.items() if steps} == {}
    assert own == sorted(MAJORANT_STEPS), "no majorant step parsed"


def _environment_reads(tree: ast.AST) -> list:
    """Lines that read os.environ or os.getenv, or import either from os."""
    names = {"environ", "environb", "getenv", "getenvb"}
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in names
                   or isinstance(node, ast.ImportFrom) and node.module == "os"
                   and any(alias.name in names for alias in node.names)})


def test_no_module_reads_the_environment():
    """A run's only inputs are its config file and its flags."""
    planted = ast.parse("import os\nfrom os import getenv\nx = os.environ.get('X')\n"
                        "y = os.getenv('Y')\n")
    assert _environment_reads(planted) == [2, 3, 4], "no environment reads parsed"
    found = {path.name: _environment_reads(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _json_imports(tree: ast.AST) -> list:
    """Lines that import json or a name from it."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "json"
                                                           for alias in node.names)
                   or isinstance(node, ast.ImportFrom) and node.level == 0
                   and node.module.split(".")[0] == "json"})


def _to_json_methods(tree: ast.AST) -> list:
    """Class.method of each method whose name starts with to_json."""
    return [f"{cls.name}.{node.name}" for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("to_json")]


def test_only_the_cli_knows_the_artifact_formats():
    """No package class turns itself into an artifact, and no module but cli.py imports json."""
    planted = ast.parse("import json as j\nfrom json import dumps\nfrom . import json_like\n"
                        "class Report:\n    def to_json_dict(self):\n        return {}\n")
    assert (_json_imports(planted), _to_json_methods(planted)) == (
        [1, 2], ["Report.to_json_dict"]), "no json import or to_json method parsed"
    imports, methods = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imports[path.name] = _json_imports(tree)
        methods += [f"{path.name}:{name}" for name in _to_json_methods(tree)]
    assert imports.pop("cli.py"), "cli.py's json import not parsed"
    assert ({name: lines for name, lines in imports.items() if lines}, methods) == ({}, [])
