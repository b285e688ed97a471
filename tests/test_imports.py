"""No module of the package imports a name it never uses.  No linter ships
with the project, so this reads each module's syntax tree: an imported
name counts as used when the module reads it as a name, as the base of an
attribute, or lists it in ``__all__`` to re-export it."""

import ast
from pathlib import Path

import pytest

import finslerlab

MODULES = sorted(Path(finslerlab.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """name -> line of each name the module binds by an import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set:
    """Every name the module reads, plus the strings of its __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used_names(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom functools import cache, partial\n"
                     "from . import jets as j\n__all__ = ['partial']\nj.V\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "cache"}
