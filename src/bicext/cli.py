"""Command line front end.

Subcommands cover element arithmetic (mul), endomorphism arithmetic (endo
apply/compose/classify), Green's relation queries (green), the verification
suites (verify), and Cayley-fragment export (export-cayley).

Exit codes: 0 success, 1 verification failure, 2 syntax error or unknown
suite, 3 family error, 4 parameter range violation, 5 I/O error.
"""

import argparse
import csv
import json
import re
import sys

from .core_semigroup import (CANONICAL_FAMILY, Elem, Family, FamilyError,
                   MixedFamilyError)
from .core_semigroup import mul as core_mul
from .endomorphisms import (GeneratorImages, InjEndo, ParameterRangeError, apply,
                    classify_from_images, collapsing, compose, preserving)
from .endo_monoid_green import GreenQuery, RELATIONS, green_bounded_search, green_symbolic
from .oracle_verify import SUITES, UnknownSuiteError, VerifyReport, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_SYNTAX = 2
EXIT_FAMILY = 3
EXIT_RANGE = 4
EXIT_IO = 5


class ParseError(ValueError):
    """Malformed element, endomorphism, or family text."""


# [0-9], not \d: \d also matches non-ASCII decimal digits
_ELEM_RE = re.compile(r"^\(([0-9]+),([0-9]+),([0-9]+)\)$")
_ENDO_RE = re.compile(r"^([ab]):([0-9]+),([0-9]+)$")


# --------------------------------------------------------- parse / print --


def parse_element(text: str, family: Family = CANONICAL_FAMILY) -> Elem:
    """Parse "(i,j,base)", whitespace-insensitive; the regex admits no signs
    so negative coordinates are rejected as syntax."""
    m = _ELEM_RE.match("".join(text.split()))
    if not m:
        raise ParseError(f'cannot parse element {text!r}; expected "(i,j,base)"')
    i, j, base = (int(g) for g in m.groups())
    if base not in [s.base for s in family.sets]:
        raise ParseError(f"invalid set base {base} for family {family}")
    return family.elem(i, j, base)


def format_element(x: Elem) -> str:
    return str(x)


def parse_endo(text: str) -> InjEndo:
    m = _ENDO_RE.match("".join(text.split()))
    if not m:
        raise ParseError(
            f'cannot parse endomorphism {text!r}; expected "a:k,p" or "b:k,p"')
    kind, k, p = m.group(1), int(m.group(2)), int(m.group(3))
    return preserving(k, p) if kind == "a" else collapsing(k, p)


def format_endo(e: InjEndo) -> str:
    return str(e)


def parse_family(text: str) -> Family:
    """Parse comma-separated ASCII bases; blank text is the empty family,
    which Family refuses as a family error."""
    parts = text.split(",") if text.strip() else []
    try:
        if not all(part.strip().isascii() for part in parts):
            raise ValueError  # int() would read non-ASCII decimal digits
        bases = tuple(int(part) for part in parts)
    except ValueError:
        raise ParseError(
            f"cannot parse family {text!r}; expected comma-separated bases") from None
    try:
        return Family.from_bases(*bases)
    except FamilyError:
        raise
    except ValueError as exc:  # negative base, caught below as a family error
        raise FamilyError(str(exc)) from None


def _family_from(args) -> Family:
    return CANONICAL_FAMILY if args.family is None else parse_family(args.family)


def _require_canonical(family: Family):
    if family != CANONICAL_FAMILY:
        raise FamilyError(
            f"this command is specific to the two-ray family {CANONICAL_FAMILY}; "
            f"got {family}")


# ------------------------------------------------------------- commands --


def _cmd_mul(args) -> int:
    family = _family_from(args)
    x = parse_element(args.x, family)
    y = parse_element(args.y, family)
    print(format_element(core_mul(x, y)))
    return EXIT_OK


def _cmd_endo_apply(args) -> int:
    family = _family_from(args)
    _require_canonical(family)
    e = parse_endo(args.endo)
    x = parse_element(args.element, family)
    print(format_element(apply(e, x)))
    return EXIT_OK


def _cmd_endo_compose(args) -> int:
    e1 = parse_endo(args.first)
    e2 = parse_endo(args.second)
    print(format_endo(compose(e1, e2)))
    return EXIT_OK


def _cmd_endo_classify(args) -> int:
    if args.family is not None:
        _require_canonical(parse_family(args.family))
    images = GeneratorImages(args.k, args.level, args.p)
    print(format_endo(classify_from_images(images)))
    return EXIT_OK


def _cmd_green(args) -> int:
    if args.family is not None:
        _require_canonical(parse_family(args.family))
    q = GreenQuery(args.relation, parse_endo(args.first), parse_endo(args.second),
                   args.kmax)
    if args.mode == "symbolic":
        print(f"related: {'true' if green_symbolic(q) else 'false'}")
        return EXIT_OK
    res = green_bounded_search(q)
    if res.related:
        wits = ", ".join(format_endo(w) for w in res.witnesses)
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
        "failures": [{"inputs": f.inputs, "expected": f.expected, "got": f.got}
                     for f in report.failures],
        "elapsed_ms": report.elapsed_ms,
        "pass": report.passed,
    }


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
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.suite != "all" and args.suite not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {args.suite!r}; choose from: all, {', '.join(SUITES)}")
    requested = {"bound": args.bound, "kmax": args.kmax,
                 "ksym": args.ksym, "tmax": args.tmax}
    reports = []
    for name in names:
        overrides = {key: val for key, val in requested.items()
                     if val is not None and key in SUITES[name].defaults}
        reports.append(run_suite(name, **overrides))
    if args.format == "json":
        print(json.dumps([report_document(r) for r in reports], indent=2))
    else:
        for report in reports:
            _print_text_report(report)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY


def _cmd_export_cayley(args) -> int:
    if args.bound < 0:  # the same refusal as verify's truncations
        raise ValueError("bound must be >= 0")
    family = _family_from(args)
    generators = [parse_element(g, family) for g in args.generators]
    nodes = [family.elem(i, j, s.base)
             for s in family.sets
             for i in range(args.bound + 1)
             for j in range(args.bound + 1)]
    inside = set(nodes)
    edges = []  # right multiplication, clipped to the truncation
    for x in nodes:
        for g in generators:
            target = core_mul(x, g)
            if target in inside:
                edges.append((x, g, target))

    out = sys.stdout if args.output == "-" else open(args.output, "w")
    try:
        if args.format == "dot":
            out.write("digraph cayley {\n")
            for x in nodes:
                out.write(f'  "{x}";\n')
            for x, g, target in edges:
                out.write(f'  "{x}" -> "{target}" [label="{g}"];\n')
            out.write("}\n")
        else:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["source", "generator", "target"])
            for x, g, target in edges:
                writer.writerow([str(x), str(g), str(target)])
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


# ------------------------------------------------------------ dispatch --


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicext",
        description="Exact arithmetic for the two-ray bicyclic extension "
                    "monoid, its injective endomorphisms, and the "
                    "verification suites behind them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mul = sub.add_parser("mul", help="multiply two elements")
    p_mul.add_argument("x", help='element "(i,j,base)"')
    p_mul.add_argument("y", help='element "(i,j,base)"')
    p_mul.add_argument("--family", help="comma-separated ray bases, default 0,1")
    p_mul.set_defaults(handler=_cmd_mul)

    p_endo = sub.add_parser("endo", help="endomorphism arithmetic")
    endo_sub = p_endo.add_subparsers(dest="endo_command", required=True)

    p_apply = endo_sub.add_parser("apply", help="apply an endomorphism to an element")
    p_apply.add_argument("endo", help='endomorphism "a:k,p" or "b:k,p"')
    p_apply.add_argument("element", help='element "(i,j,base)"')
    p_apply.add_argument("--family", help="must be the canonical family 0,1")
    p_apply.set_defaults(handler=_cmd_endo_apply)

    p_compose = endo_sub.add_parser("compose", help="compose two endomorphisms, left first")
    p_compose.add_argument("first")
    p_compose.add_argument("second")
    p_compose.set_defaults(handler=_cmd_endo_compose)

    p_classify = endo_sub.add_parser(
        "classify", help="identify the endomorphism with the given generator images")
    p_classify.add_argument("--k", type=int, required=True,
                            help="multiplier read off the level-0 generator image")
    p_classify.add_argument("--level", type=int, required=True,
                            help="ray level (0 or 1) of the level-1 generator image")
    p_classify.add_argument("--p", type=int, required=True,
                            help="offset of the level-1 generator image")
    p_classify.add_argument("--family", help="must be the canonical family 0,1")
    p_classify.set_defaults(handler=_cmd_endo_classify)

    p_green = sub.add_parser("green", help="Green's relation queries")
    p_green.add_argument("-r", "--relation", choices=RELATIONS, required=True)
    p_green.add_argument("first", help='endomorphism "a:k,p" or "b:k,p"')
    p_green.add_argument("second", help='endomorphism "a:k,p" or "b:k,p"')
    p_green.add_argument("--mode", choices=("symbolic", "search"), default="symbolic")
    p_green.add_argument("--kmax", type=int, default=8,
                         help="bound on candidate factor multipliers in search mode")
    p_green.add_argument("--family", help="must be the canonical family 0,1")
    p_green.set_defaults(handler=_cmd_green)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all",
                          help="suite name or 'all' (default all)")
    p_verify.add_argument("--bound", type=int,
                          help="truncation bound, for suites that take one")
    p_verify.add_argument("--kmax", type=int,
                          help="endomorphism multiplier bound, for suites that take one")
    p_verify.add_argument("--ksym", type=int,
                          help="symbolic multiplier bound, for suites that take one")
    p_verify.add_argument("--tmax", type=int,
                          help="growth horizon, for suites that take one")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(handler=_cmd_verify)

    p_export = sub.add_parser("export-cayley",
                              help="export a right-multiplication graph fragment")
    p_export.add_argument("--bound", type=int, default=2)
    p_export.add_argument("--generators", nargs="*", default=[],
                          help='elements "(i,j,base)" acting by right multiplication')
    p_export.add_argument("--format", choices=("dot", "csv"), default="dot")
    p_export.add_argument("--output", default="-", help="output path, - for stdout")
    p_export.add_argument("--family", help="comma-separated ray bases, default 0,1")
    p_export.set_defaults(handler=_cmd_export_cayley)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ParseError, UnknownSuiteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except ParameterRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except (FamilyError, MixedFamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAMILY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_script():
    sys.exit(main())


if __name__ == "__main__":
    main_script()
