"""Static hygiene of the package source.

Every imported name is used, no module imports a `_`-prefixed name from
`polyops`, no module raises the base class IwtError, every private
module-level function is read somewhere in the package, every public
module-level function and class is read somewhere in the package, the
tests, the benchmark or the scripts, and so is every public method of a
package class, as an attribute.
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


def public_methods(source):
    """(class, method) for the functions without `_` that the module's
    top-level classes define; dunders start with `_` and are exempt."""
    return {(node.name, item.name) for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def attributes_read(source):
    """Every name the module reads as an attribute: `x.name`, not bare `name`."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}


def test_checker_finds_an_unread_method():
    # a bare name `val` elsewhere does not count as reading the method
    source = ("class M:\n    def val(self):\n        pass\n\n"
              "    def used(self):\n        pass\n\n"
              "    def __eq__(self, other):\n        pass\n\n"
              "def f(m):\n    val = m.used()\n    return val\n")
    assert {method for _, method in public_methods(source)
            if method not in attributes_read(source)} == {"val"}


def test_no_unread_public_methods():
    read = set().union(*(attributes_read(path.read_text()) for path in CALLERS))
    methods = set().union(*(public_methods(module.read_text()) for module in MODULES))
    assert sorted(f"{cls}.{name}" for cls, name in methods if name not in read) == []


def private_imports(source, module):
    """`_`-prefixed names imported from the package module `module`."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.module == module
                  for alias in node.names if alias.name.startswith("_"))


def test_checker_finds_a_private_import():
    source = "from .polyops import _pack, poly_mul\nfrom .errors import _x\n"
    assert private_imports(source, "polyops") == ["_pack"]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_no_private_imports_from_polyops(module):
    # the package calls polyops only through its public kernels
    assert private_imports(module.read_text(), "polyops") == []


def base_class_raises(source):
    """Lines that raise the base class IwtError itself, called or not."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Raise) and node.exc is not None
                  and isinstance(getattr(node.exc, "func", node.exc), ast.Name)
                  and getattr(node.exc, "func", node.exc).id == "IwtError")


def test_checker_finds_a_base_class_raise():
    source = ("def f(x):\n    if x:\n        raise IwtError('x')\n"
              "    raise OutOfRange('y')\n\ndef g():\n    raise IwtError\n")
    assert base_class_raises(source) == [3, 7]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_no_base_class_raises(module):
    assert base_class_raises(module.read_text()) == []
