"""No module imports a name it does not use, no cache grows unbounded, no
Green factor table outlives its search, no check is an assert statement, no
raw kernel call passes a starred argument, no module reads argparse's
private attributes, cli imports no private name of the Green search, no
module maps a scalar kernel over a row or keeps a column form for one, and
the package exports exactly its pinned public names.

There is no linter in the toolchain, so these stdlib-ast passes are the
check.  A name a module imports must be read in that module, unless the
traced benchmark run needs it bound there (test_trace_names.KERNELS); the
package __init__ imports to re-export and is left out.  Every
functools.cache or lru_cache must state a maxsize, or be listed in
UNBOUNDED with the reason its growth is harmless or tracked.  python -O
strips assert statements, so a check in the package raises explicitly.
"""

import ast
import gc
import weakref
from operator import itemgetter
from pathlib import Path

import pytest

import bicext
import bicext.endo_monoid_green as green
from bicext.endomorphisms import collapsing, preserving
from bicext.oracle_verify import run_suite
from test_trace_names import KERNELS

_SRC = Path(bicext.__file__).parent
_MODULES = sorted(p.stem for p in _SRC.glob("*.py") if p.stem != "__init__")


def _imported_and_used(tree):
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return imported, used


def test_every_module_is_checked():
    assert {"cli", "core_semigroup", "endomorphisms", "oracle_verify"} <= set(_MODULES)


@pytest.mark.parametrize("module", _MODULES)
def test_every_import_is_used(module):
    imported, used = _imported_and_used(ast.parse((_SRC / f"{module}.py").read_text()))
    traced = {name for name, _, modules in KERNELS
              if f"bicext.{module}" in {m.__name__ for m in modules}}
    unused = {name: line for name, line in imported.items()
              if name not in used and name not in traced}
    assert unused == {}, f"bicext.{module} imports names it never uses"


def _asserts(tree):
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("module", _MODULES + ["__init__"])
def test_no_assert_statement(module):
    lines = _asserts(ast.parse((_SRC / f"{module}.py").read_text()))
    assert lines == [], f"bicext.{module} has assert statements, which python -O strips"


def test_the_assert_guard_sees_nested_asserts():
    src = "assert a\ndef f():\n    if b:\n        assert c, 'x'\nraise AssertionError('y')\n"
    assert _asserts(ast.parse(src)) == [1, 4]


#: the raw kernels, called once per product on per-call paths
RAW_KERNELS = ("_mul_raw", "_raw_image", "_compose_raw")


def _starred_kernel_calls(tree):
    # lines of calls to a raw kernel that pass a starred argument, which
    # builds a list on every call; map(kernel, *cols) calls map, not the kernel
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in RAW_KERNELS
            and any(isinstance(arg, ast.Starred) for arg in node.args)]


@pytest.mark.parametrize("module", _MODULES + ["__init__"])
def test_no_starred_kernel_call(module):
    lines = _starred_kernel_calls(ast.parse((_SRC / f"{module}.py").read_text()))
    assert lines == [], f"bicext.{module} passes starred arguments to a raw kernel"


def test_the_starred_call_guard_sees_each_form():
    src = ("_compose_raw(*a, *b)\n_raw_image(*e, x)\n_mul_raw(i, j, b, *y)\n"
           "map(_mul_raw, *cols)\n_mul_raw(i, j, b, i, j, b)\nf(*a)\n"
           "g = lambda: _raw_image(*e)\n")
    assert _starred_kernel_calls(ast.parse(src)) == [1, 2, 3, 7]


#: argparse attributes every parser has but argparse does not document
ARGPARSE_PRIVATE = ("_actions", "_defaults")


def _argparse_internals(tree):
    # lines that read argparse's private state: an attribute in
    # ARGPARSE_PRIVATE of anything, or a name argparse._*, imported from
    # argparse or read off the module under any alias
    modules = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "argparse"}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and (
            node.attr in ARGPARSE_PRIVATE or node.attr[:1] == "_"
            and isinstance(node.value, ast.Name) and node.value.id in modules)
        or isinstance(node, ast.ImportFrom) and node.module == "argparse"
        and any(a.name[:1] == "_" for a in node.names))


@pytest.mark.parametrize("module", _MODULES + ["__init__"])
def test_no_argparse_internals(module):
    lines = _argparse_internals(ast.parse((_SRC / f"{module}.py").read_text()))
    assert lines == [], f"bicext.{module} reads argparse's private attributes"


def test_the_argparse_guard_sees_each_form():
    src = ("import argparse\nimport argparse as ap\nparser._actions\nleaf._defaults.items()\n"
           "argparse._HelpAction\nap._StoreAction\nfrom argparse import _SubParsersAction\n"
           "argparse.Namespace\nleaf.set_defaults(x=1)\nother._private\n"
           "from argparse import ArgumentParser\n")
    assert _argparse_internals(ast.parse(src)) == [3, 4, 5, 6, 7]


#: scalar kernels that are one-element rows of the row kernels holding
#: their formulas: a map over one pays a Python call per value
SCALAR_KERNELS = ("_mul_raw", "_raw_image")


def _per_value_paths(tree):
    # lines that map or starmap a scalar kernel, by name or as an attribute,
    # or that define, assign or import _columns, the column form such a map
    # takes
    def kernel(node):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        return name in SCALAR_KERNELS
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("map", "starmap") and node.args and kernel(node.args[0])
        or isinstance(node, ast.FunctionDef) and node.name == "_columns"
        or isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_columns" for t in node.targets)
        or isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            "_columns" in (a.name, a.asname) for a in node.names))


@pytest.mark.parametrize("module", _MODULES + ["__init__"])
def test_no_per_value_kernel_path(module):
    lines = _per_value_paths(ast.parse((_SRC / f"{module}.py").read_text()))
    assert lines == [], f"bicext.{module} maps a scalar kernel or keeps the column form"


def test_the_per_value_guard_sees_each_form():
    src = ("map(_mul_raw, *cols)\nmap(core._raw_image, a, b)\nstarmap(_mul_raw, pairs)\n"
           "def _columns(triples):\n    pass\n_columns = list\n"
           "from .core_semigroup import _columns\nfrom x import _columns as cols\n"
           "map(_compose_raw, *cols)\nmap(str, xs)\n_products(xs, ys)\n"
           "_mul_raw(1, 2, 0, 2, 1, 1)\nfrom .core_semigroup import _mul_raw\n")
    assert _per_value_paths(ast.parse(src)) == [1, 2, 3, 4, 6, 7, 8]


def _private_imports(tree, module):
    # (line, name) of each underscore name imported from bicext.<module>
    return [(node.lineno, a.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").rpartition(".")[2] == module
            for a in node.names if a.name[:1] == "_"]


def test_cli_imports_nothing_private_from_the_green_search():
    # what a search may cost is the search's to know: a private name of
    # endo_monoid_green in cli would be a second copy of that knowledge
    tree = ast.parse((_SRC / "cli.py").read_text())
    assert _private_imports(tree, "endo_monoid_green") == []


def test_the_private_import_guard_sees_each_form():
    src = ("from .endo_monoid_green import GreenQuery, _d_search\n"
           "from .endo_monoid_green import (\n    RELATIONS, _Tables as T)\n"
           "from .endomorphisms import _forms\nimport endo_monoid_green\n"
           "from bicext.endo_monoid_green import _GREEN_BUDGET\n")
    assert _private_imports(ast.parse(src), "endo_monoid_green") == [
        (1, "_d_search"), (2, "_Tables"), (6, "_GREEN_BUDGET")]


#: (module, cached name) -> why the cache may stay unbounded
UNBOUNDED = {
    ("core_semigroup", "_family"): "one entry per validated top base m, each a bare int",
}


def _cache_uses(tree):
    # (name the cache is bound to, its maxsize node or None, line) for each
    # use of functools.cache or lru_cache, and the lines of any other use
    caches, mods = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            caches |= {a.asname or a.name for a in node.names
                       if a.name in ("cache", "lru_cache")}
        elif isinstance(node, ast.Import):
            mods |= {a.asname or a.name for a in node.names if a.name == "functools"}

    def is_cache(node):
        if isinstance(node, ast.Name):
            return node.id in caches
        return (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
                and isinstance(node.value, ast.Name) and node.value.id in mods)

    def maxsize(node):
        # a bounded use is lru_cache(n) or lru_cache(maxsize=n), n an int
        if not isinstance(node, ast.Call):
            return None
        sizes = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
        return next((n for n in sizes if isinstance(n, ast.Constant)
                     and type(n.value) is int), None)

    uses, placed = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if is_cache(target):
                    uses.append((node.name, maxsize(deco), node.lineno))
                    placed.add(id(target))
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Call)):
            call = node.value  # cache(f), or lru_cache(...)(f)
            factory = call.func if isinstance(call.func, ast.Call) else call
            if is_cache(factory.func):
                uses.append((node.targets[0].id, maxsize(factory), node.lineno))
                placed.add(id(factory.func))
    stray = [n.lineno for n in ast.walk(tree) if is_cache(n) and id(n) not in placed]
    return sorted(uses, key=itemgetter(2)), sorted(stray)


@pytest.mark.parametrize("module", _MODULES)
def test_every_cache_is_bounded_or_listed(module):
    uses, stray = _cache_uses(ast.parse((_SRC / f"{module}.py").read_text()))
    assert stray == [], f"bicext.{module} uses a cache neither as a decorator nor `x = cache(f)`"
    unbounded = {name for name, size, _ in uses if size is None}
    listed = {name for mod, name in UNBOUNDED if mod == module}
    assert unbounded == listed, f"bicext.{module}: unbounded caches, and those listed"
    for name, size, line in uses:
        assert size is None or size.value > 0, f"bicext.{module}:{line} {name}"


@pytest.mark.parametrize("search", [
    lambda: green.green_bounded_search(
        green.GreenQuery("J", preserving(3, 1), collapsing(3, 2), 5)),
    lambda: run_suite("green_agreement", kmax=4)], ids=["green_bounded_search", "sweep"])
def test_no_factor_table_outlives_its_search(monkeypatch, search):
    # each store is made for one search or one sweep, and nothing else holds
    # it or its tables once that returns
    stores, init = [], green._Tables.__init__

    def recorded(self, *args):
        init(self, *args)
        stores.append(weakref.ref(self))
    monkeypatch.setattr(green._Tables, "__init__", recorded)
    search()
    gc.collect()
    assert len(stores) == 1 and stores[0]() is None


def test_the_guard_sees_each_form():
    src = """
import functools
from functools import cache, lru_cache as memo
@cache
def a(): pass
@memo(maxsize=8, typed=True)
def b(): pass
@functools.lru_cache(None)
def c(): pass
d = memo(16)(int)
e = functools.cache(int)
f = [functools.cache]
"""
    uses, stray = _cache_uses(ast.parse(src))
    assert [(name, size and size.value) for name, size, _ in uses] == [
        ("a", None), ("b", 8), ("c", None), ("d", 16), ("e", None)]
    assert stray == [12]


#: bicext.__all__, which changes only with a contract change declared in
#: CHANGES.md
PUBLIC = (
    "ALL_INVARIANTS", "CANONICAL_FAMILY", "Elem", "FAILURE_CAP", "Family",
    "FamilyClosureError", "FamilyError", "GeneratorImages", "GreenQuery",
    "InductiveSet", "InjEndo", "Kind", "MixedFamilyError",
    "ParameterRangeError", "RELATIONS", "SUITES", "Truncation", "UNIT",
    "UnknownSuiteError", "VerifyReport", "WitnessSearchResult", "apply",
    "classify_from_images", "collapsing", "collapsing_class_ideal", "compose",
    "enumerate_endos", "find_idempotents", "green_bounded_search",
    "green_symbolic", "growth_inequalities_hold",
    "homomorphism_counterexample", "in_collapsing_class",
    "in_preserving_class", "injectivity_collision", "inverse",
    "is_endomorphism_on_truncation", "is_idempotent", "leq_natural", "mul",
    "mul_bicyclic", "preserving", "preserving_class_cancellative", "run_suite",
)


def test_public_names_are_pinned():
    assert bicext.__all__ == list(PUBLIC)
    missing = [name for name in PUBLIC if not hasattr(bicext, name)]
    assert missing == [], "bicext.__all__ names what the package does not bind"
