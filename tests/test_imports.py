"""No module imports a name it does not use.

There is no linter in the toolchain, so this stdlib-ast pass is the check.
A name a module imports must be read in that module, unless the traced
benchmark run needs it bound there (test_trace_names.KERNELS); the package
__init__ imports to re-export and is left out.
"""

import ast
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

