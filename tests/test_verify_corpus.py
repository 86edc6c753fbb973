"""tools/verify_corpus.py: a fresh run of every corpus point matches the
committed tests/data/verify_corpus.json, which covers every suite."""

import importlib.util
import json
from pathlib import Path

from bicext.oracle_verify import SUITES

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "verify_corpus.py"
_spec = importlib.util.spec_from_file_location("verify_corpus", _TOOL)
corpus_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corpus_tool)

_CORPUS = json.loads(corpus_tool.CORPUS.read_text())


def test_every_suite_is_in_the_corpus():
    ran = {name for entry in _CORPUS.values() for name in entry.get("suites", ())}
    assert ran == set(SUITES)


def test_the_corpus_matches_a_fresh_run():
    assert corpus_tool.differences(_CORPUS, corpus_tool.build()) == []


def test_differences_name_each_moved_entry():
    want = {"a": {"exit": 0}, "b": {"exit": 0}, "c": {"exit": 2}}
    got = {"b": {"exit": 1}, "c": {"exit": 2}, "d": {"exit": 0}}
    assert corpus_tool.differences(want, got) == [
        "missing: a", "extra: d", "differs: b: {'exit': 0} != {'exit': 1}"]
