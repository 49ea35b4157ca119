"""The surface of each ``hecke_atlas`` module, read from its syntax tree
with the stdlib ``ast``: every name its ``__all__`` lists is bound in it,
and every name it imports is used in it or listed in its ``__all__``.
A deletion that leaves an export or an import behind fails here.

A reader census also checks that every top-level function and class, and
every non-dunder method and property, is read somewhere in the package,
or is listed with its reason in ``UNREAD_ALLOWED``.  An attribute of an
imported module (``json.dump``) reads nothing of the package.

An execution census checks that every function of the package, nested ones
included, is entered while the ``verify`` suites run, or is listed with its
reason in ``UNRUN_ALLOWED``.  A member that the package starts to read
leaves ``UNREAD_ALLOWED``, and a function that a suite starts to run
leaves ``UNRUN_ALLOWED``: each list holds exactly what the census finds."""

import ast
import json
import pathlib
import subprocess
import sys

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


# functions that no suite enters, each with the reason it stays
UNRUN_ALLOWED = {
    **dict.fromkeys(
        ["centralizer.realize_matrices", "centralizer._assemble"],
        "test reference: the matrix tests compare check_matrices and a Fraction oracle with it",
    ),
    "centralizer._canonical_value": (
        "thm26-matrix's discrete parameters have only sign points, so only the tests' drawn parameters "
        "reach the triple round trip off the sign points"
    ),
    **dict.fromkeys(
        [
            "centralizer.component_group_of_triple",
            "centralizer.TripleComponentGroup.order",
            "centralizer.TripleComponentGroup.plus_order",
        ],
        "two-road test: compared with params.component_group",
    ),
    **dict.fromkeys(
        ["params.component_group", "params.ComponentGroup.order", "params.is_discrete"], "road of ROADMAP item 14"
    ),
    "hecke.unipotent_reduction": "road of ROADMAP item 8",
    **dict.fromkeys(
        [
            "cli.main",
            "cli.run",
            "cli.build_parser",
            "cli._emit",
            "cli._write",
            "cli._json_text",
            "cli._container",
            "cli._cmd_verify",
            "cli._cmd_specialize",
            "cli._cmd_enumerate",
            "cli._parameter_text",
            "cli._ambient_text",
            "cli._cmd_supports",
            "cli._support_datum_text",
            "cli._cmd_hecke",
            "cli._factor_text",
            "hecke.factor_to_json_dict",
            "weil.half_integer_str",
        ],
        "I/O, pinned by tests/pins.json: the command line and its writers",
    ),
    **dict.fromkeys(
        [
            "cli._load_param_file",
            "params.parameter_from_json_dict",
            "weil.UnitMonomial.from_json_dict",
            "weil.Inventory.load",
            "weil.Inventory.from_json_list",
            "weil.read_json_file",
            "weil.json_field",
            "weil.json_typed",
            "weil.json_value",
            "weil._json_fraction",
            "weil._path_text",
        ],
        "I/O, pinned by tests/pins.json: the parameter-file decoder of the supports and hecke commands",
    ),
    **dict.fromkeys(
        ["params.parameter_to_json_dict", "weil.UnitMonomial.to_json_dict"],
        "I/O: the benchmark and tests/pins.py write parameter files with it, and the enumerate writer is pinned to "
        "json.dumps of it",
    ),
    **dict.fromkeys(
        ["weil.Inventory.dump", "weil.Inventory.to_json_list"],
        "I/O: tests and the pin runner tests/pins.py write inventory files with it",
    ),
    "weil.Inventory.__contains__": "test reference: the reference decoder of tests/test_cli.py asks membership with it",
    "params.LDParameter.__getstate__": "pickling: a pickled parameter leaves its cached hash behind",
    "weil.UnitMonomial.__reduce__": "pickling",
    "weil.UnitMonomial.__setattr__": "guard: a monomial is immutable, and nothing assigns to one",
    **dict.fromkeys(
        [
            "weil.UnitMonomial.__repr__",
            "weil.UnitMonomial.__str__",
            "weil.UnitMonomial.root",
            "weil.UnitMonomial.q_exponent",
            "weil.UnitMonomial.is_minus_one",
        ],
        "text: no report prints a monomial, and tests/test_weil.py pins its repr and str",
    ),
    **dict.fromkeys(
        [
            "weyl.weyl_group",
            "weyl.SignedPermutation.__init__",
            "weyl.SignedPermutation.__lt__",
            "weyl.SignedPermutation.__mul__",
            "weyl.SignedPermutation.__repr__",
            "weyl.SignedPermutation.identity",
            "weyl.SignedPermutation.inverse",
            "weyl.SignedPermutation.is_even",
            "weyl.SignedPermutation.perm",
            "weyl.SignedPermutation.signs",
            "weyl.SignedPermutation.sort_key",
            "weyl._mul",
            "weyl._signed",
        ],
        "test reference: the brute-force Weyl group of tests/test_weyl.py, whose elements these build and multiply",
    ),
}

# run in a fresh interpreter, so that no memo filled by an earlier test hides
# a function: every suite at two ranks above its lowest (at most its cap),
# with a trace of call events only; prints [module stem, first line, name]
# of each code object of the package it entered
CENSUS = """
import json, os, sys

entered = set()


def trace(frame, event, arg):
    code = frame.f_code
    entered.add((code.co_filename, code.co_firstlineno, code.co_name))


sys.settrace(trace)
from hecke_atlas.verify import SUITES, run_suite

for name, suite in SUITES.items():
    run_suite(name, suite.lowest + 2 if suite.cap is None else min(suite.lowest + 2, suite.cap))
sys.settrace(None)
import hecke_atlas

root = os.path.dirname(os.path.realpath(hecke_atlas.__file__))
print(json.dumps(sorted(
    [os.path.basename(path)[:-3], line, name]
    for path, line, name in entered
    if os.path.dirname(os.path.realpath(path)) == root
)))
"""


def _functions(stem, tree):
    """``(first line, name)`` -> dotted name of every function of module
    ``stem``, nested ones included.  The first line of a decorated function's
    code is that of its first decorator."""
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found[line, child.name] = f"{prefix}.{child.name}"
                walk(child, found[line, child.name])
            else:
                walk(child, f"{prefix}.{child.name}" if isinstance(child, ast.ClassDef) else prefix)

    walk(tree, stem)
    return found


def _unrun(trees, entered):
    """The dotted functions of the modules ``trees`` (by stem) that no code
    object of ``entered`` (``[stem, first line, name]`` triples) is."""
    entered = {(stem, line, name) for stem, line, name in entered}
    return sorted(
        dotted
        for stem, tree in trees.items()
        for (line, name), dotted in _functions(stem, tree).items()
        if (stem, line, name) not in entered
    )


def test_every_function_is_run_by_a_suite_or_allowed(src_env):
    done = subprocess.run([sys.executable, "-c", CENSUS], capture_output=True, text=True, env=src_env(), check=True)
    entered = json.loads(done.stdout)
    assert _unrun({path.stem: _tree(path) for path in MODULES}, entered) == sorted(UNRUN_ALLOWED)


def test_the_execution_census_names_decorated_and_nested_functions():
    tree = ast.parse(
        "import functools\n"
        "class C:\n"
        "    @property\n"
        "    @functools.cache\n"
        "    def view(self): return 1\n"
        "    def run(self):\n"
        "        def inner(): return 2\n"
        "        return inner()\n"
        "def f(): pass\n"
    )
    assert _functions("a", tree) == {
        (3, "view"): "a.C.view",
        (6, "run"): "a.C.run",
        (7, "inner"): "a.C.run.inner",
        (9, "f"): "a.f",
    }
    assert _unrun({"a": tree}, [["a", 3, "view"], ["a", 7, "inner"], ["b", 9, "f"]]) == ["a.C.run", "a.f"]
