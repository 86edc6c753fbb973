"""Every verification suite has one shape, read from the source with stdlib ast.

run_suite builds the one FailureLog and hands it to the suite; a suite counts
its cases once, from the sizes it swept, and never adds to `cases` as it goes,
and raises nothing itself, so what escapes a suite is the checked code's own
exception, which run_suite records.
"""

import ast
from pathlib import Path

import bicext.oracle_verify as _ov

_TREE = ast.parse(Path(_ov.__file__).read_text())
_FUNCTIONS = {node.name: node for node in ast.walk(_TREE) if isinstance(node, ast.FunctionDef)}


def test_the_suites_are_found():
    suites = {name for name in _FUNCTIONS if name.startswith("_suite_")}
    assert suites == {spec.run.__name__ for spec in _ov.SUITES.values()}


def test_no_suite_adds_to_cases():
    added = [(name, node.lineno) for name, func in _FUNCTIONS.items()
             if name.startswith("_suite_") for node in ast.walk(func)
             if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)
             and node.target.id == "cases"]
    assert added == []


def test_no_suite_raises():
    raising = [(name, node.lineno) for name, func in _FUNCTIONS.items()
               if name.startswith("_suite_") or name == "_composition_soundness"
               for node in ast.walk(func) if isinstance(node, ast.Raise)]
    assert raising == []


def test_only_run_suite_builds_a_failure_log():
    builders = {name for name, func in _FUNCTIONS.items() for node in ast.walk(func)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "FailureLog"}
    assert builders == {"run_suite"}
    calls = [node for node in ast.walk(_TREE) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "FailureLog"]
    assert len(calls) == 1
