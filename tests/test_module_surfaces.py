"""The surface of each ``hecke_atlas`` module, read from its syntax tree
with the stdlib ``ast``: every name its ``__all__`` lists is bound in it,
and every name it imports is used in it or listed in its ``__all__``.
A deletion that leaves an export or an import behind fails here.

A reader census also checks that every top-level function and class, and
every non-dunder method and property, is read somewhere in the package,
or is listed with its reason in ``UNREAD_ALLOWED``.  An attribute of an
imported module (``json.dump``) reads nothing of the package."""

import ast
import pathlib

import pytest

import hecke_atlas

MODULES = sorted(pathlib.Path(hecke_atlas.__file__).parent.glob("*.py"))

# members that nothing in the package reads, each with the reason it stays
UNREAD_ALLOWED = {
    "centralizer.realize_matrices": "test reference: the matrix tests compare check_matrices and a Fraction oracle with it",
    "weyl.weyl_group": "test reference: the brute-force group of the Weyl tests",
    "weyl.SignedPermutation.identity": "test reference: the Weyl tests check products against it",
    "params.parameter_to_json_dict": "perfbench and the pin runner write parameter files with it; the enumerate writer is pinned to json.dumps of it",
    "weil.Inventory.dump": "tests and the pin runner tests/pins.py write inventory files with it",
    "centralizer.component_group_of_triple": "two-road test: compared with params.component_group",
    "centralizer.TripleComponentGroup.plus_order": "two-road test: read beside component_group_of_triple",
    "params.is_discrete": "ROADMAP item 14 makes it a road",
    "params.component_group": "ROADMAP item 14 makes it a road",
    "hecke.unipotent_reduction": "ROADMAP item 8 makes it a road",
}


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


def _members(stem, tree):
    """``(dotted name, name)`` of each top-level function and class of module
    ``stem``, and of each non-dunder method and property of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield f"{stem}.{node.name}.{item.name}", item.name


def _modules(tree):
    """The names that ``import`` statements of the module bind to modules."""
    return {_alias_name(alias) for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}


def _read(trees):
    """The names the modules read, as a ``Name`` load or an attribute; an
    attribute of a module the reading module imports is not counted."""
    attributes = set()
    for tree in trees:
        modules = _modules(tree)
        attributes.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and not (isinstance(node.value, ast.Name) and node.value.id in modules)
        )
    return attributes.union(*map(_used, trees))


def _unread(trees):
    """The dotted members of the modules ``trees`` (by stem) whose name no
    module reads; a read of the bare name anywhere counts, whatever it names."""
    read = _read(trees.values())
    return sorted(dotted for stem, tree in trees.items() for dotted, name in _members(stem, tree) if name not in read)


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


def test_every_member_is_read_in_the_package_or_allowed():
    assert _unread({path.stem: _tree(path) for path in MODULES}) == sorted(UNREAD_ALLOWED)


def test_the_reader_census_sees_unread_members():
    trees = {
        "a": ast.parse(
            "class C:\n"
            "    def __eq__(self, other): return True\n"
            "    def used(self): return 1\n"
            "    @property\n"
            "    def unread(self): return 2\n"
            "    def dump(self): pass\n"
            "def f(): return C().used()\n"
            "def g(): pass\n"
        ),
        # json.dump reads the module json, not C.dump
        "b": ast.parse("import json\nfrom a import f\njson.dump(f(), None)\n"),
    }
    assert _unread(trees) == ["a.C.dump", "a.C.unread", "a.g"]
