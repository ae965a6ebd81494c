"""Static hygiene of the package source.

Every imported name is used, every private module-level function is read
somewhere in the package, and every public module-level function and
class is read somewhere in the package, the tests, the benchmark or the
scripts.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "iwt"
MODULES = sorted(SRC.glob("*.py"))
CALLERS = MODULES + sorted(path for folder in ("tests", "bench", "scripts")
                           for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_finds_an_unused_import():
    source = "import math\nfrom os import path, sep\nprint(sep)\n"
    assert unused_imports(source) == [(1, "math"), (2, "path")]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def private_functions(source):
    """Names of the `_`-prefixed functions a module defines at top level."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}


def public_definitions(source):
    """Names of the functions and classes without `_` a module defines at top level."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def names_read(source):
    """Every name the module reads, bare or as an attribute."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_checker_finds_an_unread_private_function():
    source = "def _used():\n    pass\n\ndef _dead():\n    _used()\n"
    assert private_functions(source) - names_read(source) == {"_dead"}


def test_no_unread_private_functions():
    sources = [module.read_text() for module in MODULES]
    read = set().union(*(names_read(source) for source in sources))
    defined = set().union(*(private_functions(source) for source in sources))
    assert sorted(defined - read) == []


def test_checker_finds_an_unread_public_definition():
    source = "class Used:\n    pass\n\nclass Dead:\n    pass\n\ndef run():\n    Used()\n"
    assert public_definitions(source) - names_read(source) == {"Dead", "run"}


def test_no_unread_public_definitions():
    read = set().union(*(names_read(path.read_text()) for path in CALLERS))
    defined = set().union(*(public_definitions(module.read_text()) for module in MODULES))
    assert sorted(defined - read) == []
