"""Static hygiene of the package source.

Every imported name is used, and every private module-level function is
read somewhere in the package.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "iwt"
MODULES = sorted(SRC.glob("*.py"))


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
