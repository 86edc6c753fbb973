"""Command line front end.

Subcommands cover element arithmetic (mul), endomorphism arithmetic (endo
apply/compose/classify), Green's relation queries (green), the verification
suites (verify), and Cayley-fragment export (export-cayley).

Exit codes: 0 success, 1 verification failure, 2 syntax error or unknown
suite, 3 family error, 4 parameter range violation, 5 I/O error.

export-cayley works on raw (i, j, base) triples: one product row per
generator over the truncation, each node label formatted once by
Elem.__str__, a target clipped when it has no label, and one write.

The argparse tree is built once, at import: building it costs about 100
times what a small command does.  It holds only handler functions and
immutable defaults, each parse returns a fresh namespace, and handlers look
up core_mul, run_suite and the other layer functions as module globals when
they run, so patching one still takes.

Each command is declared once, in _COMMANDS: its command words, its help,
its handler and the add_argument calls of its parser.  build_parser makes
those calls and builds each leaf's parse table from the actions they
return: its positionals in order, its exact option strings, its required
options, and each action's type, choices and default.  main parses argv
with the table of the leaf that its first one or two command words name,
and the table answers only where it reads argv as that leaf's parser does:
every "-" token an exact option string, no option value starting with "-",
the exact positional count, every required option given, and every value
accepted by its action's type and choices.  Anything else (help, an
abbreviation, --opt=value, a usage error, argv naming no leaf) is parsed by
the whole argparse tree, so every help text, usage error and exit code stays
argparse's.  A table models only plain stores of one value or of "*"
values, which is all _COMMANDS declares.  Each parser of the tree formats
its usage once per terminal width, on its first usage error at that width,
and reuses that text on every later one.

Each argument is converted and checked once.  An element whose text the
regex and the base check passed, and the image of a valid element under a
valid form, cannot fail Elem's checks, so both are built as the bare tuple,
as mul builds a product; forms keep InjEndo's range checks, which are what
refuses a bad "a:k,p".  An export larger than _EXPORT_BUDGET node products
is refused with exit 2 before its truncation is built, and a numeral of
more than _DIGITS_MAX digits in an element, endomorphism or family before
it is converted: every printed result then stays under the 4,300 digits
str(int) converts.  A green search is refused with exit 2 by the search
itself, before the first table that would take it past its budget; the
CLI knows nothing of its cost.

verify --format json writes its report list with _json, a small indent-2
writer whose leaves go through json's C string encoder and int and float
repr.  On CPython 3.11, json.dumps(..., indent=2) takes the pure-Python
encoder (the C one is used only without an indent) and walks the document
in nested generators, about twice the cost of the writer; the bytes are
the same, json.dumps(docs, indent=2) and a newline.
"""

import argparse
import re
import shutil
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote

from .core_semigroup import (CANONICAL_FAMILY, Elem, Family, FamilyError,
                   MixedFamilyError, _products, _raw_truncation, _require_int)
from .core_semigroup import mul as core_mul
from .endomorphisms import (GeneratorImages, InjEndo, ParameterRangeError, apply,
                    classify_from_images, collapsing, compose, preserving)
from .endo_monoid_green import GreenQuery, RELATIONS, green_bounded_search, green_symbolic
from .oracle_verify import SUITES, UnknownSuiteError, VerifyReport, run_suite, suite_bounds

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_SYNTAX = 2
EXIT_FAMILY = 3
EXIT_RANGE = 4
EXIT_IO = 5


class ParseError(ValueError):
    """Malformed element, endomorphism, or family text."""


# [0-9], not \d: \d also matches non-ASCII decimal digits.  A numeral has at
# most _DIGITS_MAX digits: every printed result then has at most
# 2 * _DIGITS_MAX + 1, under the 4,300 that str(int) converts
_DIGITS_MAX = 2000
_DIGITS = f"[0-9]{{1,{_DIGITS_MAX}}}"
_NUMERAL = f"({_DIGITS})"
_ELEM_RE = re.compile(rf"^\({_NUMERAL},{_NUMERAL},{_NUMERAL}\)$")
_ENDO_RE = re.compile(rf"^([ab]):{_NUMERAL},{_NUMERAL}$")
_LONG_RE = re.compile(f"[0-9]{{{_DIGITS_MAX + 1}}}")
# int() would also take "+1", "0_1" and non-ASCII digits; \s is what
# str.strip() strips, NBSP included, and int() strips less (not \x1c-\x1f)
_FAMILY_RE = re.compile(rf"\s*-?{_DIGITS}\s*(?:,\s*-?{_DIGITS}\s*)*")


# --------------------------------------------------------- parse / print --


def _refusal(what: str, text: str, form: str) -> str:
    # an over-long numeral is named, not echoed: the text is thousands of digits
    if _LONG_RE.search("".join(text.split())):
        return f"cannot parse {what}: a numeral is longer than {_DIGITS_MAX} digits"
    return f"cannot parse {what} {text!r}; expected {form}"


def parse_element(text: str, family: Family = CANONICAL_FAMILY) -> Elem:
    """Parse "(i,j,base)", whitespace-insensitive; the regex admits no signs
    so negative coordinates are rejected as syntax."""
    m = _ELEM_RE.match("".join(text.split()))
    if not m:
        raise ParseError(_refusal("element", text, '"(i,j,base)"'))
    i, j, base = map(int, m.groups())
    if base > family.m:
        raise ParseError(f"invalid set base {base} for family {family}")
    if type(family) is not Family:
        return Elem(i, j, base, family)  # which refuses it, as it always did
    # ASCII digits are non-negative ints and base <= m was just checked, so
    # Elem.__new__ would accept every field: build the tuple, as mul does
    return tuple.__new__(Elem, (i, j, base, family))


def parse_endo(text: str) -> InjEndo:
    m = _ENDO_RE.match("".join(text.split()))
    if not m:
        raise ParseError(_refusal("endomorphism", text, '"a:k,p" or "b:k,p"'))
    kind, k, p = m.groups()
    # the regex proves only the syntax: InjEndo range-checks (k, p)
    return (preserving if kind == "a" else collapsing)(int(k), int(p))


def parse_family(text: str) -> Family:
    """Parse comma-separated ASCII bases; blank text is the empty family,
    which Family refuses as a family error."""
    if not text.strip():
        return Family.from_bases()
    if not _FAMILY_RE.fullmatch(text):
        raise ParseError(_refusal("family", text, "comma-separated bases"))
    return Family.from_bases(*map(int, map(str.strip, text.split(","))))


def _family_from(args) -> Family:
    return CANONICAL_FAMILY if args.family is None else parse_family(args.family)


def _require_canonical(family: Family):
    if family is not CANONICAL_FAMILY:
        raise FamilyError(
            f"this command is specific to the two-ray family {CANONICAL_FAMILY}; "
            f"got {family}")


# ------------------------------------------------------------- commands --


def _cmd_mul(args) -> int:
    family = _family_from(args)
    x = parse_element(args.x, family)
    y = parse_element(args.y, family)
    print(core_mul(x, y))
    return EXIT_OK


def _cmd_endo_apply(args) -> int:
    _require_canonical(_family_from(args))
    e = parse_endo(args.endo)
    x = parse_element(args.element)
    print(apply(e, x))
    return EXIT_OK


def _cmd_endo_compose(args) -> int:
    e1 = parse_endo(args.first)
    e2 = parse_endo(args.second)
    print(compose(e1, e2))
    return EXIT_OK


def _cmd_endo_classify(args) -> int:
    _require_canonical(_family_from(args))
    images = GeneratorImages(args.k, args.level, args.p)
    print(classify_from_images(images))
    return EXIT_OK


def _named(count: int):
    # a count of 4,300 digits or more is past what str(int) converts
    return count if count < 10 ** 12 else "more than 10**12"


def _cmd_green(args) -> int:
    _require_canonical(_family_from(args))
    q = GreenQuery(args.relation, parse_endo(args.first), parse_endo(args.second),
                   args.kmax)
    if args.mode == "symbolic":
        print(f"related: {'true' if green_symbolic(q) else 'false'}")
        return EXIT_OK
    res = green_bounded_search(q)
    if res.related:
        wits = ", ".join(map(str, res.witnesses))
        print(f"related: true (bound {res.exhausted_bound}); witnesses: {wits}")
    else:
        print(f"related: false (bound {res.exhausted_bound})")
    return EXIT_OK


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "verification report list",
    "type": "array",
    "items": {
        "type": "object",
        "required": ["suite", "bounds", "cases", "failures", "elapsed_ms", "pass"],
        "additionalProperties": False,
        "properties": {
            "suite": {"type": "string"},
            "bounds": {
                "type": "object",
                "additionalProperties": {"type": "integer"},
            },
            "cases": {"type": "integer", "minimum": 0},
            "failures": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["inputs", "expected", "got"],
                    "additionalProperties": False,
                    "properties": {
                        "inputs": {"type": "string"},
                        "expected": {"type": "string"},
                        "got": {"type": "string"},
                    },
                },
            },
            "elapsed_ms": {"type": "number", "minimum": 0},
            "pass": {"type": "boolean"},
        },
    },
}


def report_document(report: VerifyReport) -> dict:
    """Machine-readable rendering of one suite report, per REPORT_SCHEMA items."""
    return {
        "suite": report.suite,
        "bounds": dict(report.bounds),
        "cases": report.cases,
        "failures": [f._asdict() for f in report.failures],
        "elapsed_ms": report.elapsed_ms,
        "pass": report.passed,
    }


def _json(value, pad: str = "") -> str:
    """json.dumps(value, indent=2), nested at pad, of the value types
    report_document returns: dicts with str keys, lists, str, int, finite
    float and bool."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is dict or kind is list:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = pad + "  "
        if kind is dict:
            items = [_quote(key) + ": " + _json(item, inner) for key, item in value.items()]
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
        items = [_json(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        return float.__repr__(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _print_text_report(report: VerifyReport):
    verdict = "pass" if report.passed else "FAIL"
    bounds = " ".join(f"{k}={v}" for k, v in report.bounds.items())
    print(f"{report.suite}: {verdict}, {report.summary} "
          f"({report.cases} cases, {bounds}, {report.elapsed_ms:.0f} ms)")
    for failure in report.failures[:10]:
        print(f"  counterexample: inputs={failure.inputs} "
              f"expected={failure.expected} got={failure.got}")
    hidden = report.failures_total - min(len(report.failures), 10)
    if hidden > 0:
        print(f"  ... {hidden} more failures not shown")


def _cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {args.suite!r}; choose from: all, {', '.join(SUITES)}")
    # every suite's bounds are checked before the first suite runs, each
    # suite given the flags its defaults name, in the order verify declares them
    plan = [(name, suite_bounds(name, **{key: val for key, val in vars(args).items()
                                         if key in SUITES[name].defaults}))
            for name in (SUITES if args.suite == "all" else [args.suite])]
    reports = [run_suite(name, **bounds) for name, bounds in plan]
    if args.format == "json":
        sys.stdout.write(_json([report_document(r) for r in reports]) + "\n")
    else:
        for report in reports:
            _print_text_report(report)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


# node products one export may take: each costs about 3 us and 0.6 KiB of
# RSS (bound 400, one generator: 321,602 nodes in 1.0 s and 200 MiB), so the
# largest export allowed takes about a second and 150 MiB
_EXPORT_BUDGET = 250_000


def _cmd_export_cayley(args) -> int:
    _require_int("bound", args.bound, 0)  # the same refusal as verify's truncations
    family = _family_from(args)
    generators = [parse_element(g, family)[:3] for g in args.generators]
    size = (args.bound + 1) ** 2 * len(family)
    if size * max(1, len(generators)) > _EXPORT_BUDGET:  # before the truncation is built
        raise ValueError(f"export of {_named(size)} nodes with {len(generators)} generators "
                         f"exceeds the limit of {_EXPORT_BUDGET} nodes x max(1, generators); "
                         f"lower --bound")
    nodes = _raw_truncation(args.bound, family)
    # each label is formatted once, by Elem's own __str__ on the raw triple;
    # a target outside the truncation has no label, so its edge is clipped
    label = dict(zip(nodes, map(Elem.__str__, nodes)))
    rows = [_products(nodes, repeat(g)) for g in generators]  # x * g for every node x
    names = list(map(Elem.__str__, generators))
    edges = [(label[x], g, label[t]) for x, targets in zip(nodes, zip(*rows))
             for g, t in zip(names, targets) if t in label]
    if args.format == "dot":
        text = "".join(["digraph cayley {\n", *[f'  "{s}";\n' for s in label.values()],
                        *[f'  "{s}" -> "{t}" [label="{g}"];\n' for s, g, t in edges],
                        "}\n"])
    else:  # every label holds commas, so CSV quotes every field
        text = "".join(["source,generator,target\n",
                        *[f'"{s}","{g}","{t}"\n' for s, g, t in edges]])

    out = sys.stdout if args.output == "-" else open(args.output, "w")
    try:
        out.write(text)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


# ------------------------------------------------------------ dispatch --


def _arg(*flags, **kwargs):
    """One add_argument call, made when build_parser builds the command."""
    return flags, kwargs


_ELEMENT = 'element "(i,j,base)"'
_ENDO = 'endomorphism "a:k,p" or "b:k,p"'
_ANY_FAMILY = _arg("--family", help="comma-separated ray bases, default 0,1")
_CANONICAL = _arg("--family", help="must be the canonical family 0,1")

# each command once, in help order: its command words, its help, and for a
# leaf its handler and the add_argument calls of its parser; a command with
# no handler only groups the commands under it
_COMMANDS = (
    (("mul",), "multiply two elements", _cmd_mul,
     (_arg("x", help=_ELEMENT), _arg("y", help=_ELEMENT), _ANY_FAMILY)),
    (("endo",), "endomorphism arithmetic", None, ()),
    (("endo", "apply"), "apply an endomorphism to an element", _cmd_endo_apply,
     (_arg("endo", help=_ENDO), _arg("element", help=_ELEMENT), _CANONICAL)),
    (("endo", "compose"), "compose two endomorphisms, left first", _cmd_endo_compose,
     (_arg("first"), _arg("second"))),
    (("endo", "classify"), "identify the endomorphism with the given generator images",
     _cmd_endo_classify,
     (_arg("--k", type=int, required=True,
           help="multiplier read off the level-0 generator image"),
      _arg("--level", type=int, required=True,
           help="ray level (0 or 1) of the level-1 generator image"),
      _arg("--p", type=int, required=True, help="offset of the level-1 generator image"),
      _CANONICAL)),
    (("green",), "Green's relation queries", _cmd_green,
     (_arg("-r", "--relation", choices=RELATIONS, required=True),
      _arg("first", help=_ENDO), _arg("second", help=_ENDO),
      _arg("--mode", choices=("symbolic", "search"), default="symbolic"),
      _arg("--kmax", type=int, default=8,
           help="bound on candidate factor multipliers in search mode"),
      _CANONICAL)),
    (("verify",), "run verification suites", _cmd_verify,
     (_arg("--suite", default="all", help="suite name or 'all' (default all)"),
      _arg("--bound", type=int, help="truncation bound, for suites that take one"),
      _arg("--kmax", type=int,
           help="endomorphism multiplier bound, for suites that take one"),
      _arg("--ksym", type=int, help="symbolic multiplier bound, for suites that take one"),
      _arg("--tmax", type=int, help="growth horizon, for suites that take one"),
      _arg("--format", choices=("text", "json"), default="text"))),
    (("export-cayley",), "export a right-multiplication graph fragment", _cmd_export_cayley,
     (_arg("--bound", type=int, default=2),
      _arg("--generators", nargs="*", default=(),
           help='elements "(i,j,base)" acting by right multiplication'),
      _arg("--format", choices=("dot", "csv"), default="dot"),
      _arg("--output", default="-", help="output path, - for stdout"),
      _ANY_FAMILY)),
)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that formats its usage once per terminal width, on
    its first usage error there, and prints that text on every later one,
    and that refuses a positional given no value."""

    positionals = ()  # a leaf's one-value positional actions, which build_parser sets

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        # CPython 3.11 gives a positional that a doubled "--" leaves without
        # a token the value [], where one "--" gets argparse's own refusal;
        # an unrecognized argument is still refused first
        missing = [a.dest for a in self.positionals if getattr(namespace, a.dest) == []]
        if missing and not extras:
            self.error(f"the following arguments are required: {', '.join(missing)}")
        return namespace, extras

    def format_usage(self) -> str:
        # the text depends only on the parser, which nothing changes after
        # build_parser, and on the width, which HelpFormatter reads the same way
        texts = self.__dict__.setdefault("_usage_texts", {})
        width = shutil.get_terminal_size().columns
        if width not in texts:
            texts[width] = super().format_usage()
        return texts[width]


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argparse tree of _COMMANDS, and the parse table of each leaf
    under the command words that reach it, built from the actions its
    add_argument calls return: its positionals in order, its options by
    exact option string, its required options, and the namespace defaults,
    the handler last."""
    parser = _Parser(  # add_subparsers makes every parser under it a _Parser too
        prog="bicext",
        description="Exact arithmetic for the two-ray bicyclic extension "
                    "monoid, its injective endomorphisms, and the "
                    "verification suites behind them.")
    parsers, subs, tables = {(): parser}, {}, {}
    for words, about, handler, arguments in _COMMANDS:
        group = words[:-1]  # dest "command" at the top, "endo_command" under endo
        if group not in subs:
            subs[group] = parsers[group].add_subparsers(dest="_".join(group + ("command",)),
                                                        required=True)
        leaf = parsers[words] = subs[group].add_parser(words[-1], help=about)
        if handler is None:
            continue
        actions = [leaf.add_argument(*flags, **kwargs) for flags, kwargs in arguments]
        leaf.set_defaults(handler=handler)
        leaf.positionals = tuple(a for a in actions if not a.option_strings)
        tables[words] = (leaf.positionals,
                         {flag: a for a in actions for flag in a.option_strings},
                         frozenset(a for a in actions if a.option_strings and a.required),
                         {**{a.dest: a.default for a in actions}, "handler": handler})
    return parser, tables


_PARSER, _TABLES = build_parser()

# exit code of the first matching class; ParseError and UnknownSuiteError
# are plain ValueErrors, and ValueError comes before OSError so that
# io.UnsupportedOperation, which is both, exits 2
_EXIT_CODES = ((ParameterRangeError, EXIT_RANGE), ((FamilyError, MixedFamilyError), EXIT_FAMILY),
               (ValueError, EXIT_SYNTAX), (OSError, EXIT_IO))


def _value(action, text: str):
    value = text if action.type is None else action.type(text)
    if action.choices is not None and value not in action.choices:
        raise ValueError(value)  # argparse's invalid choice
    return value


def _table_parse(table, tail: list):
    """The namespace the leaf's parser gives for tail, or None where only
    argparse may answer: a "-" token that is not an exact option string of
    the leaf (an abbreviation, --opt=value, --, -h, a negative number), an
    option value starting with "-", a positional too many or too few, a
    required option missing, or a value its type or choices refuse."""
    positionals, options, required, defaults = table
    values = dict(defaults)
    seen = set()
    placed, i, end = 0, 0, len(tail)
    try:
        while i < end:
            token = tail[i]
            i += 1
            if token[:1] != "-":
                if placed == len(positionals):
                    return None
                action = positionals[placed]
                placed += 1
                values[action.dest] = _value(action, token)
                continue
            action = options.get(token)
            if action is None:
                return None
            if action.nargs is None:
                if i == end or tail[i][:1] == "-":
                    return None
                values[action.dest] = _value(action, tail[i])
                i += 1
            else:  # '*' takes every token up to the next "-" token
                start = i
                while i < end and tail[i][:1] != "-":
                    i += 1
                values[action.dest] = [_value(action, text) for text in tail[start:i]]
            seen.add(action)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    if placed < len(positionals) or not required <= seen:
        return None
    args = argparse.Namespace()
    vars(args).update(values)  # one fill in C, not Namespace(**values)'s setattr loop
    return args


def _parse(argv: list):
    # the table of the leaf that the command words name parses what follows
    # them; whatever it leaves to argparse takes the whole tree's parse
    for n in (2, 1):
        table = _TABLES.get(tuple(argv[:n]))
        if table is not None:
            args = _table_parse(table, argv[n:])
            if args is not None:
                return args
            break
    return _PARSER.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


def main_script():
    sys.exit(main())


if __name__ == "__main__":
    main_script()
