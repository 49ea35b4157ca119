"""The surface of each ``hecke_atlas`` module, read from its syntax tree
with the stdlib ``ast``: every name its ``__all__`` lists is bound in it,
and every name it imports is used in it or listed in its ``__all__``.
A deletion that leaves an export or an import behind fails here."""

import ast
import pathlib

import pytest

import hecke_atlas

MODULES = sorted(pathlib.Path(hecke_atlas.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _exported(tree):
    """The names of the module's ``__all__``, empty when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _bound(tree):
    """The names the module's top level binds."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_alias_name(alias) for alias in node.names)
    return names


def _alias_name(alias):
    return alias.asname or alias.name.split(".")[0]


def _imported(tree):
    """The names bound by imports anywhere in the module, ``__future__`` aside."""
    return {
        _alias_name(alias)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }


def _used(tree):
    """The names the module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _unused_imports(tree):
    return sorted(_imported(tree) - _used(tree) - set(_exported(tree)))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_exported_name_is_bound(path):
    tree = _tree(path)
    assert sorted(set(_exported(tree)) - _bound(tree)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_imported_name_is_used_or_exported(path):
    assert _unused_imports(_tree(path)) == []


def test_the_surface_checks_see_leftovers():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import Mapping, Sequence\n"
        "from json import dumps\n"
        "__all__ = ['dumps', 'gone']\n"
        "def f(x: Sequence[int]) -> int:\n"
        "    import math\n"
        "    return sys.maxsize\n"
    )
    tree = ast.parse(source)
    assert _unused_imports(tree) == ["Mapping", "math", "os"]
    assert sorted(set(_exported(tree)) - _bound(tree)) == ["gone"]
