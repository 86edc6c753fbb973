"""No module imports a name it does not use, no cache grows unbounded, no
check is an assert statement, and the package exports exactly its pinned
public names.

There is no linter in the toolchain, so these stdlib-ast passes are the
check.  A name a module imports must be read in that module, unless the
traced benchmark run needs it bound there (test_trace_names.KERNELS); the
package __init__ imports to re-export and is left out.  Every
functools.cache or lru_cache must state a maxsize, or be listed in
UNBOUNDED with the reason its growth is harmless or tracked.  python -O
strips assert statements, so a check in the package raises explicitly.
"""

import ast
from operator import itemgetter
from pathlib import Path

import pytest

import bicext
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


#: (module, cached name) -> why the cache may stay unbounded
UNBOUNDED = {
    ("core_semigroup", "_family"): "one entry per validated top base m, each a bare int",
    ("endo_monoid_green", "_table"): "grows as kmax^4 under J; tracked by the FOUND line "
                                     "on J tables in CHANGES.md and ROADMAP item 7",
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
