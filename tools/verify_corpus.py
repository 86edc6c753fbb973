"""The verify report corpus: what `bicext verify` prints over a fixed grid of
bounds, kept in tests/data/verify_corpus.json.

    python tools/verify_corpus.py           # (re)write the corpus
    python tools/verify_corpus.py --check   # compare a fresh run with it

--check exits 0 when every entry matches, and 1 after naming each entry that
is missing, extra or different.  Each entry is keyed by its argv, run in
process through bicext.cli.main, over these points, with --format json:

  - --suite all at the default bounds;
  - every suite with each of its bounds set to v, for v = 0 .. 3;
  - every suite at bound=3 kmax=3 ksym=4 tmax=6, each bound it takes;
  - the bounds of tests/test_acceptance.py;
  - every bound one below its minimum, and one below its suite's floor,
    the suite's other bounds at their defaults;

and with --format text:

  - --suite all at the default bounds, and at bound=3 kmax=3 ksym=4 tmax=6;
  - every suite at bound=3 kmax=3 ksym=4 tmax=6, each bound it takes.

An entry that runs holds its exit code, the sha256 of its stdout with every
"elapsed_ms" line removed (json) or each line's trailing ", 123 ms)" masked
as ", <n> ms)" (text), and per suite the report's cases and failures_total;
an entry that is refused holds its exit code and stderr.
A change that moves an entry regenerates the corpus and says why.
"""

import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # run from a checkout, not an install

import bicext.cli as cli  # noqa: E402
from bicext.oracle_verify import _FLOORS, _MINIMUM, SUITES, run_suite  # noqa: E402

CORPUS = ROOT / "tests" / "data" / "verify_corpus.json"
# what each format prints of a report's elapsed time, and its replacement
_ELAPSED = {"json": (re.compile(r'^ *"elapsed_ms": .*\n', re.M), ""),
            "text": (re.compile(r", \d+ ms\)$", re.M), ", <n> ms)")}

# suite -> bounds at which tests/test_acceptance.py runs it
_ACCEPTANCE = {
    "semigroup_axioms": {"bound": 8},
    "inverse_axioms": {"bound": 8},
    "order": {"bound": 8},
    "endo_homomorphism": {"bound": 8, "kmax": 5},
    "endo_injectivity": {"bound": 8, "kmax": 5},
    "composition_table": {"bound": 20, "kmax": 5, "ksym": 12},
    "green_agreement": {"kmax": 6},
    "growth_inequalities": {"kmax": 6, "tmax": 50},
    "classification_negative": {},
}
_WIDE = {"bound": 3, "kmax": 3, "ksym": 4, "tmax": 6}


def _argv(suite: str, bounds: dict, fmt: str = "json") -> list[str]:
    flags = [part for key, val in bounds.items() for part in (f"--{key}", str(val))]
    return ["verify", "--suite", suite, *flags, "--format", fmt]


def points() -> list[list[str]]:
    """The argv of every entry, in corpus order."""
    grid = [_argv("all", {})]
    for name, spec in SUITES.items():
        grid += [_argv(name, dict.fromkeys(spec.defaults, v)) for v in range(4)]
        grid.append(_argv(name, {key: _WIDE[key] for key in spec.defaults}))
    grid += [_argv(name, bounds) for name, bounds in _ACCEPTANCE.items()]
    for name, spec in SUITES.items():
        grid += [_argv(name, {key: _MINIMUM[key] - 1}) for key in spec.defaults]
        if _FLOORS[name]:
            key, least = _FLOORS[name]
            grid.append(_argv(name, {key: spec.defaults.get(least, least) - 1}))
    grid += [_argv("all", {}, "text"), _argv("all", _WIDE, "text")]
    grid += [_argv(name, {key: _WIDE[key] for key in spec.defaults}, "text")
             for name, spec in SUITES.items()]
    return grid


def entry(argv: list[str]) -> dict:
    """What one verify call exits with and prints, as the corpus keeps it."""
    reports = []

    def recording(name, **bounds):  # the failures_total the JSON leaves out
        reports.append(run_suite(name, **bounds))
        return reports[-1]

    out, err = io.StringIO(), io.StringIO()
    cli.run_suite = recording
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        cli.run_suite = run_suite
    if not reports:
        return {"exit": code, "stderr": err.getvalue()}
    elapsed, mask = _ELAPSED[argv[-1]]
    text = elapsed.sub(mask, out.getvalue())
    return {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "suites": {r.suite: f"cases={r.cases} failures_total={r.failures_total}"
                       for r in reports}}


def build() -> dict:
    return {" ".join(argv): entry(argv) for argv in points()}


def differences(want: dict, got: dict) -> list[str]:
    """A line per entry missing from got, extra in got, or different."""
    lines = [f"missing: {key}" for key in want if key not in got]
    lines += [f"extra: {key}" for key in got if key not in want]
    lines += [f"differs: {key}: {want[key]} != {got[key]}"
              for key in want if key in got and want[key] != got[key]]
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    corpus = build()
    if argv == ["--check"]:
        lines = differences(json.loads(CORPUS.read_text()), corpus)
        print("\n".join(lines) or f"{len(corpus)} entries match {CORPUS.name}")
        return 1 if lines else 0
    if argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {len(corpus)} entries to {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
