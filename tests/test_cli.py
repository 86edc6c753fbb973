"""CLI contract: parsing round-trips, documented invocations, exit codes,
report schema, and export formats."""

import argparse
import csv
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from bicext import cli
from bicext.cli import (EXIT_FAMILY, EXIT_IO, EXIT_OK, EXIT_RANGE,
                        EXIT_SYNTAX, EXIT_VERIFY, ParseError, REPORT_SCHEMA,
                        main, parse_element, parse_endo, parse_family,
                        report_document)
import bicext.core_semigroup as _core
import bicext.endo_monoid_green as _green
import bicext.endomorphisms as _endo
from bicext.core_semigroup import (CANONICAL_FAMILY, Elem, Family, FamilyClosureError,
                                   FamilyError, MixedFamilyError, _products, mul)
from bicext.endomorphisms import ParameterRangeError, collapsing, enumerate_endos, preserving
from bicext.oracle_verify import VerifyReport, run_suite
from test_oracle_verify import _minus_compose

DATA = Path(__file__).parent / "data"
# help texts, usage errors and one --opt=value call, recorded in process
# with COLUMNS=80
CONTRACT = json.loads((DATA / "cli_contract.json").read_text())


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


class TestParsing:
    def test_element_round_trip_exhaustive(self):
        for b in (0, 1):
            for i in range(4):
                for j in range(4):
                    x = CANONICAL_FAMILY.elem(i, j, b)
                    assert parse_element(str(x)) == x

    def test_whitespace_insensitive(self):
        assert parse_element(" ( 1 , 2 , 0 ) ") == CANONICAL_FAMILY.elem(1, 2, 0)

    def test_negative_coordinate_is_syntax_error(self):
        with pytest.raises(ParseError):
            parse_element("(-1,2,0)")

    def test_malformed_elements(self):
        for text in ("", "(1,2)", "1,2,0", "(1,2,0", "(a,2,0)"):
            with pytest.raises(ParseError):
                parse_element(text)

    def test_base_outside_family_is_syntax_error(self):
        with pytest.raises(ParseError):
            parse_element("(1,2,7)")

    def test_parsed_element_is_the_validated_elem(self):
        # parse_element builds the Elem without Elem's own checks once its
        # regex and base check pass: it must accept exactly what they accept
        for m in range(4):
            family = Family.from_bases(*range(m + 1))
            for i in range(4):
                for j in range(4):
                    for b in range(m + 2):
                        text = f"({i},{j},{b})"
                        if b <= m:
                            x = parse_element(text, family)
                            assert type(x) is Elem and x == Elem(i, j, b, family), text
                            continue
                        with pytest.raises(ParseError) as info:
                            parse_element(text, family)
                        assert str(info.value) == f"invalid set base {b} for family {family}"

    def test_a_family_that_is_not_a_family_is_still_refused(self):
        class Lookalike:
            m = 1
        with pytest.raises(FamilyError, match="family must be a Family, got Lookalike"):
            parse_element("(1,2,0)", Lookalike())

    def test_endo_round_trip(self):
        for e in enumerate_endos(4):
            assert parse_endo(str(e)) == e

    def test_malformed_endos(self):
        for text in ("", "c:2,1", "a:2", "a:2,1,0", "a:x,1"):
            with pytest.raises(ParseError):
                parse_endo(text)

    def test_parse_family(self):
        assert parse_family("0,1") == CANONICAL_FAMILY
        assert parse_family("0") == Family.from_bases(0)
        with pytest.raises(ParseError):
            parse_family("0,x")
        with pytest.raises(FamilyError):
            parse_family("0,2")
        with pytest.raises(FamilyError):
            parse_family("-1,0")
        assert parse_family(" 0 , 1 ") == CANONICAL_FAMILY
        # int() reads each of these, the family syntax none
        for text in ("0,+1", "+0,1", "0,0_1", "0_0,1", "0,1.0", "0,--1", "0,,1", "0,1 1"):
            with pytest.raises(ParseError, match="cannot parse family"):
                parse_family(text)

    def test_non_ascii_digits_are_syntax(self):
        arabic_one = "\u0661"  # int() and \d both read it as 1
        with pytest.raises(ParseError):
            parse_element(f"({arabic_one},2,0)")
        with pytest.raises(ParseError):
            parse_endo(f"a:2,{arabic_one}")
        with pytest.raises(ParseError):
            parse_family(f"0,{arabic_one}")

    def test_empty_family_is_a_family_error(self):
        for text in ("", " "):
            with pytest.raises(FamilyError):
                parse_family(text)

    def test_family_whitespace_is_what_strip_removes(self):
        # NBSP and the separators \x1c-\x1f are whitespace to str.strip and
        # to the family regex; int() alone would refuse the separators
        for text in ("\xa00,\xa01\xa0", "\t0 ,\n1", "\x1c0,1\x1f", "0\u2003,\u30001"):
            assert parse_family(text) is CANONICAL_FAMILY, repr(text)
        for text in ("\xa0", "\x1c", "\u3000 "):
            with pytest.raises(FamilyError, match="at least one ray"):
                parse_family(text)
        for text in ("0,1,", ",0,1", "0 1", "0,\u200b1"):  # a zero-width space is no space
            with pytest.raises(ParseError, match="cannot parse family"):
                parse_family(text)


class TestDocumentedInvocations:
    def test_mul(self, capsys):
        code, out, _ = run_cli("mul", "(1,2,0)", "(1,3,1)", capsys=capsys)
        assert (code, out) == (EXIT_OK, "(1,4,0)\n")

    def test_mul_identity(self, capsys):
        code, out, _ = run_cli("mul", "(0,0,0)", "(2,3,1)", capsys=capsys)
        assert (code, out) == (EXIT_OK, "(2,3,1)\n")

    def test_mul_bad_base_exits_2(self, capsys):
        code, _, err = run_cli("mul", "(1,2,0)", "(1,3,7)", capsys=capsys)
        assert code == EXIT_SYNTAX
        assert "invalid set base" in err

    def test_endo_compose(self, capsys):
        code, out, _ = run_cli("endo", "compose", "a:2,1", "a:3,2", capsys=capsys)
        assert (code, out) == (EXIT_OK, "a:6,5\n")

    def test_endo_apply(self, capsys):
        code, out, _ = run_cli("endo", "apply", "b:3,2", "(1,0,1)", capsys=capsys)
        assert (code, out) == (EXIT_OK, "(5,2,0)\n")

    def test_endo_classify_out_of_range_exits_4(self, capsys):
        code, _, err = run_cli("endo", "classify", "--k", "2", "--level", "1",
                               "--p", "2", capsys=capsys)
        assert code == EXIT_RANGE
        assert "p exceeds k-1" in err

    def test_endo_classify_ok(self, capsys):
        code, out, _ = run_cli("endo", "classify", "--k", "3", "--level", "0",
                               "--p", "2", capsys=capsys)
        assert (code, out) == (EXIT_OK, "b:3,2\n")

    def test_green_cross_kind(self, capsys):
        code, out, _ = run_cli("green", "-r", "J", "a:2,1", "b:2,1", capsys=capsys)
        assert (code, out) == (EXIT_OK, "related: false\n")

    def test_green_reflexive(self, capsys):
        code, out, _ = run_cli("green", "-r", "R", "a:2,1", "a:2,1", capsys=capsys)
        assert (code, out) == (EXIT_OK, "related: true\n")

    def test_green_search_unrelated(self, capsys):
        code, out, _ = run_cli("green", "-r", "L", "b:4,1", "b:4,3",
                               "--mode", "search", "--kmax", "6", capsys=capsys)
        assert (code, out) == (EXIT_OK, "related: false (bound 6)\n")

    def test_green_search_related_names_witness(self, capsys):
        code, out, _ = run_cli("green", "-r", "H", "b:2,1", "b:2,1",
                               "--mode", "search", capsys=capsys)
        assert (code, out) == (EXIT_OK, "related: true (bound 8); witnesses: a:1,0\n")


class TestExitCodes:
    def test_usage_error_exits_2(self, capsys):
        assert run_cli("mul", "(1,2,0)", capsys=capsys)[0] == EXIT_SYNTAX

    @pytest.mark.parametrize("argv, missing", [
        (["mul", "(1,2,0)"], "y"), (["mul", "(1,2,0)", "--"], "y"),
        (["mul", "(1,2,0)", "--", "--"], "y"),
        (["endo", "apply", "a:1,0", "--", "--"], "element"),
        (["endo", "compose", "a:2,1", "--", "--"], "second"),
        (["green", "-r", "R", "a:1,0", "--", "--"], "second")],
        ids=lambda arg: " ".join(arg) if type(arg) is list else arg)
    def test_a_positional_left_without_a_value_exits_2(self, capsys, argv, missing):
        code, out, err = run_cli(*argv, capsys=capsys)
        assert (code, out) == (EXIT_SYNTAX, "")
        assert err.endswith(f": error: the following arguments are required: {missing}\n")

    def test_an_unrecognized_argument_is_refused_before_an_empty_positional(self, capsys):
        code, out, err = run_cli("mul", "(1,2,0)", "--", "--", "--", capsys=capsys)
        assert (code, out) == (EXIT_SYNTAX, "")
        assert err.endswith("\nbicext: error: unrecognized arguments: --\n")

    def test_unknown_command_exits_2(self, capsys):
        assert run_cli("frobnicate", capsys=capsys)[0] == EXIT_SYNTAX

    def test_endo_out_of_range_exits_4(self, capsys):
        code, _, err = run_cli("endo", "compose", "a:2,2", "a:3,2", capsys=capsys)
        assert code == EXIT_RANGE
        assert "p exceeds k-1" in err

    def test_bad_family_exits_3(self, capsys):
        code, _, err = run_cli("mul", "(0,0,0)", "(0,0,0)",
                               "--family", "0,2", capsys=capsys)
        assert code == EXIT_FAMILY
        assert "not shift-closed" in err

    def test_non_ascii_digit_exits_2(self, capsys):
        code, out, err = run_cli("mul", "(\u0661,2,0)", "(0,1,0)", capsys=capsys)
        assert (code, out) == (EXIT_SYNTAX, "")
        assert "cannot parse element" in err

    def test_empty_family_exits_3(self, capsys):
        code, out, err = run_cli("mul", "(1,2,0)", "(1,2,0)", "--family", "",
                                 capsys=capsys)
        assert (code, out) == (EXIT_FAMILY, "")
        assert "at least one ray" in err

    @pytest.mark.parametrize("family, message", [
        ("-1,0", "ray base must be non-negative, got -1"),
        ("0,-1", "ray base must be non-negative, got -1"),
        ("0,2", "not shift-closed: [0) & (-1+[2)) = [1) is missing"),
        ("", "a family must contain at least one ray"),
        ("1", "a family must contain the full ray [0)"),
        ("0,1,1", "ray bases must be strictly increasing, got [0, 1, 1]")])
    def test_bad_family_output(self, family, message, capsys):
        code, out, err = run_cli("mul", "(1,2,0)", "(1,3,1)", f"--family={family}",
                                 capsys=capsys)
        assert (code, out, err) == (EXIT_FAMILY, "", f"error: {message}\n")

    @pytest.mark.parametrize("family", [" 0, 1 ", "\xa00,\xa01", "0 ,\xa01\xa0"])
    def test_family_spaces_around_a_base_parse(self, family, capsys):
        assert run_cli("mul", "(1,2,1)", "(0,1,1)", "--family", family, capsys=capsys) == (
            EXIT_OK, "(1,3,1)\n", "")

    @pytest.mark.parametrize("family", ["0,+1", "0,0_1", "0,\u0661", "0,,1", "0,1,"])
    def test_family_int_would_read_exits_2(self, family, capsys):
        code, out, err = run_cli("mul", "(1,2,1)", "(0,1,1)", "--family", family,
                                 capsys=capsys)
        assert (code, out, err) == (EXIT_SYNTAX, "", f"error: cannot parse family "
                                    f"{family!r}; expected comma-separated bases\n")

    @pytest.mark.parametrize("argv, what", [
        (("endo", "compose", f"a:{'9' * 3000},1", f"a:{'9' * 3000},1"), "endomorphism"),
        (("mul", f"(1,{'9' * 5000},0)", "(0,1,0)"), "element"),
        (("mul", "(0,1,0)", f"(1,{'9' * 1000} {'9' * 1001},0)"), "element"),
        (("endo", "apply", "a:2,1", f"({'9' * 2001},0,1)"), "element"),
        (("green", "-r", "R", "a:2,1", f"a:{'1' + '0' * 2000},1"), "endomorphism")],
        ids=["compose", "mul", "mul-spaced", "apply", "green"])
    def test_over_long_numeral_exits_2_before_any_work(self, argv, what, monkeypatch,
                                                       capsys):
        # past 2,000 digits a printed result could pass the 4,300 digits
        # str(int) converts; the numeral is refused, not echoed
        for name in ("core_mul", "apply", "compose", "green_symbolic"):
            monkeypatch.setattr(cli, name, lambda *args: pytest.fail("ran"))
        assert run_cli(*argv, capsys=capsys) == (
            EXIT_SYNTAX, "", f"error: cannot parse {what}: a numeral is longer than "
                             f"2000 digits\n")

    def test_2000_digit_numerals_are_exact(self, capsys):
        n = 10 ** 2000 - 1  # 2,000 nines, the longest numeral accepted
        assert run_cli("mul", f"({n},1,0)", f"({n},{n},0)", capsys=capsys) == (
            EXIT_OK, f"({2 * n - 1},{n},0)\n", "")
        assert run_cli("endo", "apply", f"b:{n},{n - 1}", f"({n},{n},1)", capsys=capsys) == (
            EXIT_OK, f"({n - 1 + n * n},{n - 1 + n * n},0)\n", "")
        assert run_cli("endo", "compose", f"a:{n},{n - 1}", f"a:{n},{n - 1}",
                       capsys=capsys) == (EXIT_OK, f"a:{n * n},{n * n - 1}\n", "")

    @pytest.mark.parametrize("family", [f"0,{'9' * 5000}", f"0,{'9' * 2001}",
                                        f"0,-{'1' * 2001}", f"0, {'9' * 1000} {'9' * 1001}"],
                             ids=["5000-digits", "2001-digits", "negative", "spaced"])
    def test_over_long_family_numeral_exits_2_before_any_work(self, family, monkeypatch,
                                                              capsys):
        monkeypatch.setattr(Family, "from_bases",
                            staticmethod(lambda *bases: pytest.fail("ran")))
        assert run_cli("mul", "(1,2,0)", "(1,2,0)", "--family", family, capsys=capsys) == (
            EXIT_SYNTAX, "", "error: cannot parse family: a numeral is longer than "
                             "2000 digits\n")

    def test_a_2000_digit_family_base_reaches_the_family_check(self, monkeypatch, capsys):
        n = 10 ** 2000 - 1
        seen, checked = [], Family.from_bases

        def from_bases(*bases):
            seen.append(bases)
            return checked(*bases)
        monkeypatch.setattr(Family, "from_bases", staticmethod(from_bases))
        code, out, err = run_cli("mul", "(1,2,0)", "(1,2,0)", "--family", f"0,{n}",
                                 capsys=capsys)
        assert (code, out, seen) == (EXIT_FAMILY, "", [(0, n)])
        assert err.startswith("error: not shift-closed")

    _REFUSED = ("error: a Green search may build at most {} factor-table entries; "
                "lower kmax\n")

    # with the budget at 20: a search from a:2,1 to itself charges kmax**2 for
    # the form table and kmax**2 per factor table it builds; R and L build
    # one (x's own), H, D and J two, so R and L pass at kmax 3 (18 entries)
    # and H, D and J at kmax 2 (12); one more kmax is over
    @pytest.mark.parametrize("relation, kmax, refused", [
        ("R", 3, False), ("R", 4, True), ("L", 3, False), ("L", 4, True), ("H", 2, False),
        ("H", 3, True), ("D", 2, False), ("D", 3, True), ("J", 2, False), ("J", 3, True)])
    def test_green_search_budget_counts_table_entries(self, monkeypatch, capsys, relation,
                                                      kmax, refused):
        monkeypatch.setattr(_green, "_GREEN_BUDGET", 20)
        code, out, err = run_cli("green", "-r", relation, "a:2,1", "a:2,1", "--mode", "search",
                                 "--kmax", str(kmax), capsys=capsys)
        if refused:
            assert (code, out, err) == (EXIT_SYNTAX, "", self._REFUSED.format(20))
        else:
            assert (code, err) == (EXIT_OK, "") and out.startswith("related: true")

    # past kmax 1000 the form table alone is over the budget; a 4,300-digit
    # kmax squares to 8,600 digits, which the message must not convert
    @pytest.mark.parametrize("relation", _green.RELATIONS)
    @pytest.mark.parametrize("kmax", ["1001", "9" * 4300], ids=["1001", "4300-digits"])
    def test_ruinous_green_search_is_refused_before_any_table(self, monkeypatch, capsys,
                                                              relation, kmax):
        monkeypatch.setattr(_green, "_forms", lambda kmax: pytest.fail("a table was built"))
        assert run_cli("green", "-r", relation, "a:3,1", "a:2,1", "--mode", "search",
                       "--kmax", kmax, capsys=capsys) == (
            EXIT_SYNTAX, "", self._REFUSED.format(1000000))

    def test_d_search_the_old_count_refused_runs(self, capsys):
        # which kmax**2 + kmax**4 counted at 1,049,600 entries
        assert run_cli("green", "-r", "D", "a:3,1", "a:2,1", "--mode", "search", "--kmax",
                       "32", capsys=capsys) == (EXIT_OK, "related: false (bound 32)\n", "")

    # D at kmax 32 from a:3,1 to a:2,1 builds 54 tables of 1,024 entries,
    # which with its form table is 56,320 entries
    @pytest.mark.parametrize("budget, refused", [(56_320, False), (56_319, True)])
    def test_d_budget_is_the_exact_charge(self, monkeypatch, capsys, budget, refused):
        monkeypatch.setattr(_green, "_GREEN_BUDGET", budget)
        code, out, err = run_cli("green", "-r", "D", "a:3,1", "a:2,1", "--mode", "search",
                                 "--kmax", "32", capsys=capsys)
        assert (code, out, err) == ((EXIT_SYNTAX, "", self._REFUSED.format(budget)) if refused
                                    else (EXIT_OK, "related: false (bound 32)\n", ""))

    # from the unit to itself D finds its witness at the first candidate
    # (c = a) after two tables: 3 * 27**2 = 2,187 entries, where a count of
    # every candidate D's screening keeps refused kmax 27 at 1,065,798
    def test_d_pays_only_for_the_tables_it_builds(self, capsys):
        assert run_cli("green", "-r", "D", "a:1,0", "a:1,0", "--mode", "search", "--kmax", "27",
                       capsys=capsys) == (
            EXIT_OK, "related: true (bound 27); witnesses: a:1,0\n", "")

    # R from a:2,0 to a:1,0 builds both tables: 3 * 578**2 = 1,002,252 entries
    # with the form table, which a count of 2 * kmax**2 admitted; refused
    # before the first table past the budget composes anything
    def test_r_is_charged_for_its_form_table(self, monkeypatch, capsys):
        compose_raw, calls = _green._compose_raw, [0]

        def counted(*args):
            calls[0] += 1
            return compose_raw(*args)
        monkeypatch.setattr(_green, "_compose_raw", counted)
        assert run_cli("green", "-r", "R", "a:2,0", "a:1,0", "--mode", "search", "--kmax",
                       "578", capsys=capsys) == (EXIT_SYNTAX, "", self._REFUSED.format(1000000))
        assert calls == [578 * 578]

    def test_past_the_budget_on_its_first_table_composes_nothing(self, monkeypatch, capsys):
        monkeypatch.setattr(_green, "_GREEN_BUDGET", 2 * 32 * 32 - 1)
        monkeypatch.setattr(_green, "_compose_raw", lambda *args: pytest.fail("composed"))
        assert run_cli("green", "-r", "D", "a:3,1", "a:2,1", "--mode", "search", "--kmax", "32",
                       capsys=capsys) == (EXIT_SYNTAX, "", self._REFUSED.format(2047))

    def test_symbolic_mode_builds_no_table_and_is_never_refused(self, capsys):
        assert run_cli("green", "-r", "J", "a:2,1", "a:2,1", "--kmax", "9" * 4300,
                       capsys=capsys) == (EXIT_OK, "related: true\n", "")

    def test_green_refuses_non_canonical_family(self, capsys):
        code, _, err = run_cli("green", "-r", "R", "a:2,1", "a:2,1",
                               "--family", "0", capsys=capsys)
        assert code == EXIT_FAMILY
        assert "two-ray family" in err

    def test_apply_refuses_non_canonical_family(self, capsys):
        code, _, _ = run_cli("endo", "apply", "a:2,1", "(0,0,0)",
                             "--family", "0", capsys=capsys)
        assert code == EXIT_FAMILY

    def test_mul_accepts_single_ray_family(self, capsys):
        code, out, _ = run_cli("mul", "(1,2,0)", "(3,1,0)",
                               "--family", "0", capsys=capsys)
        assert (code, out) == (EXIT_OK, "(2,1,0)\n")

    def test_export_io_error_exits_5(self, capsys):
        code, _, err = run_cli("export-cayley", "--bound", "0",
                               "--output", "/nonexistent-dir/out.dot", capsys=capsys)
        assert code == EXIT_IO
        assert err.startswith("error:")

    @pytest.mark.parametrize("exc, code", [
        (ParseError("p"), EXIT_SYNTAX), (ParameterRangeError("r"), EXIT_RANGE),
        (FamilyError("f"), EXIT_FAMILY), (MixedFamilyError("m"), EXIT_FAMILY),
        (FamilyClosureError("c"), EXIT_FAMILY), (ValueError("v"), EXIT_SYNTAX),
        (OSError("o"), EXIT_IO), (io.UnsupportedOperation("u"), EXIT_SYNTAX)],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
    def test_error_class_picks_the_exit_code(self, monkeypatch, capsys, exc, code):
        # io.UnsupportedOperation is both a ValueError and an OSError
        def fail(x, y):
            raise exc
        monkeypatch.setattr(cli, "core_mul", fail)
        assert run_cli("mul", "(0,0,0)", "(0,0,0)", capsys=capsys) == (
            code, "", f"error: {exc}\n")

    def test_export_negative_bound_exits_2_like_verify(self, tmp_path, capsys):
        target = tmp_path / "out.dot"
        code, out, err = run_cli("export-cayley", "--bound", "-1",
                                 "--output", str(target), capsys=capsys)
        assert (code, out, err) == (EXIT_SYNTAX, "", "error: bound must be >= 0\n")
        assert not target.exists()  # refused before any work
        code, _, verify_err = run_cli("verify", "--suite", "order", "--bound", "-1",
                                      capsys=capsys)
        assert (code, verify_err) == (EXIT_SYNTAX, err)

    @pytest.mark.parametrize("suite, flag, val, message", [
        ("classification_negative", "--bound", "-1", "bound must be >= 0"),
        ("classification_negative", "--kmax", "0", "kmax must be >= 1"),
        ("growth_inequalities", "--kmax", "0", "kmax must be >= 1"),
        ("classification_negative", "--bound", "0", "bound must be >= 1"),
        ("growth_inequalities", "--tmax", "5", "tmax must be >= kmax (6)"),
        ("growth_inequalities", "--kmax", "51", "tmax must be >= kmax (51)")])
    def test_verify_refuses_bounds_below_minimum(self, suite, flag, val, message, capsys):
        code, out, err = run_cli("verify", "--suite", suite, flag, val, capsys=capsys)
        assert (code, out, err) == (EXIT_SYNTAX, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags", [["--kmax", "0", "--bound", "-1"],
                                       ["--bound", "-1", "--kmax", "0"]], ids=" ".join)
    def test_verify_checks_the_flags_in_the_order_it_declares_them(self, flags, capsys):
        # classification_negative's defaults name kmax first; --bound, which
        # verify declares first, is still refused first, whatever the argv order
        code, out, err = run_cli("verify", "--suite", "classification_negative", *flags,
                                 capsys=capsys)
        assert (code, out, err) == (EXIT_SYNTAX, "", "error: bound must be >= 0\n")

    @pytest.mark.parametrize("flag, val, message", [
        ("--bound", "-1", "bound must be >= 0"), ("--kmax", "0", "kmax must be >= 1"),
        ("--ksym", "0", "ksym must be >= 1"), ("--tmax", "-1", "tmax must be >= 0"),
        ("--bound", "0", "bound must be >= 1"), ("--tmax", "5", "tmax must be >= kmax (6)")])
    def test_verify_all_refuses_before_any_suite_runs(self, flag, val, message,
                                                       monkeypatch, capsys):
        def refuse(name, **bounds):
            raise AssertionError(f"suite {name} ran")
        monkeypatch.setattr(cli, "run_suite", refuse)
        code, out, err = run_cli("verify", "--suite", "all", flag, val, capsys=capsys)
        assert (code, out, err) == (EXIT_SYNTAX, "", f"error: {message}\n")

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run_cli("verify", "--suite", "nope", capsys=capsys)
        assert code == EXIT_SYNTAX
        assert "unknown suite" in err


class TestVerifyCommand:
    def test_single_suite_text(self, capsys):
        code, out, _ = run_cli("verify", "--suite", "idempotents", capsys=capsys)
        assert code == EXIT_OK
        assert out.startswith("idempotents: pass,")
        assert "kmax=20" in out

    def test_minimal_semigroup_line(self, capsys):
        code, out, _ = run_cli("verify", "--suite", "semigroup_axioms",
                               "--bound", "0", capsys=capsys)
        assert code == EXIT_OK
        assert "pass, 8 triples" in out

    def test_json_validates_against_schema(self, capsys):
        code, out, _ = run_cli("verify", "--suite", "growth_inequalities",
                               "--kmax", "3", "--format", "json", capsys=capsys)
        assert code == EXIT_OK
        docs = json.loads(out)
        jsonschema.validate(docs, REPORT_SCHEMA)
        assert docs[0]["suite"] == "growth_inequalities"
        assert docs[0]["pass"] is True
        assert docs[0]["bounds"] == {"kmax": 3, "tmax": 50}

    def test_text_and_json_verdicts_agree(self, capsys):
        code_t, out_t, _ = run_cli("verify", "--suite", "ideal", "--kmax", "3",
                                   capsys=capsys)
        code_j, out_j, _ = run_cli("verify", "--suite", "ideal", "--kmax", "3",
                                   "--format", "json", capsys=capsys)
        assert code_t == code_j == EXIT_OK
        assert "ideal: pass," in out_t
        assert json.loads(out_j)[0]["pass"] is True

    def test_irrelevant_bound_flags_are_ignored(self, capsys):
        # a global flag sweep must not break suites lacking that bound
        code, out, _ = run_cli("verify", "--suite", "idempotents",
                               "--bound", "3", "--kmax", "4", capsys=capsys)
        assert code == EXIT_OK
        assert "kmax=4" in out and "bound" not in out.split("(", 1)[1]

    def test_report_document_round_trip(self):
        report = run_suite("idempotents", kmax=4)
        doc = report_document(report)
        jsonschema.validate([doc], REPORT_SCHEMA)
        assert doc["cases"] == 16 and doc["pass"] is True and doc["failures"] == []

    @pytest.mark.parametrize("fault", [None, "minus_compose"])
    def test_json_is_json_dumps_indent_2(self, fault, monkeypatch, capsys):
        # the report writer is byte-identical to json.dumps(docs, indent=2)
        # and a newline, on a passing run and on one with failures and crashes
        if fault:
            monkeypatch.setattr(_endo, "_compose_raw", _minus_compose)
        code, out, _ = run_cli("verify", "--suite", "all", "--format", "json",
                               capsys=capsys)
        docs = json.loads(out)
        assert code == (EXIT_VERIFY if fault else EXIT_OK)
        assert any(doc["failures"] for doc in docs) == bool(fault)
        assert out == json.dumps(docs, indent=2) + "\n"

    def test_warm_caches_repeat_the_cold_report(self, capsys):
        # the benchmark's ten single-suite calls and a small full run, each
        # cold (form table and remembered range checks cleared) and then
        # twice more with whatever the calls before it left cached
        calls = [["--suite", suite, f"--{key}", str(val)] for suite, key, val in (
            ("idempotents", "kmax", 8), ("ideal", "kmax", 3), ("cancellative", "kmax", 3),
            ("growth_inequalities", "kmax", 3), ("inverse_axioms", "bound", 2),
            ("idempotents", "kmax", 6), ("ideal", "kmax", 4), ("inverse_axioms", "bound", 3),
            ("cancellative", "kmax", 2), ("growth_inequalities", "kmax", 4))]
        calls.append(["--suite", "all", "--bound", "2", "--kmax", "2", "--ksym", "3",
                      "--tmax", "4"])

        def report(argv):
            code, out, _ = run_cli("verify", *argv, "--format", "json", capsys=capsys)
            docs = json.loads(out)
            for doc in docs:
                del doc["elapsed_ms"]
            return code, docs

        cold = []
        for argv in calls:
            _endo._form.cache_clear()
            _endo._kept_forms.cache_clear()
            cold.append(report(argv))
        assert {code for code, _ in cold} == {EXIT_OK}
        for _ in range(2):
            assert [report(argv) for argv in calls] == cold


class TestExportCayley:
    def test_dot_node_and_edge_counts(self, capsys):
        code, out, _ = run_cli("export-cayley", "--bound", "2",
                               "--generators", "(0,1,0)", capsys=capsys)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "digraph cayley {" and lines[-1] == "}"
        assert sum(1 for l in lines if l.endswith('";')) == 18
        assert sum(1 for l in lines if " -> " in l) == 12

    def test_empty_generators(self, capsys):
        code, out, _ = run_cli("export-cayley", "--bound", "0", capsys=capsys)
        assert code == EXIT_OK
        assert sum(1 for l in out.splitlines() if l.endswith('";')) == 2
        assert " -> " not in out

    def test_csv_edges_match_direct_products(self, capsys):
        code, out, _ = run_cli("export-cayley", "--bound", "2", "--format", "csv",
                               "--generators", "(0,1,0)", "(1,0,0)", capsys=capsys)
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["source", "generator", "target"]
        fam = CANONICAL_FAMILY
        inside = {fam.elem(i, j, b) for b in (0, 1) for i in range(3) for j in range(3)}
        seen = set()
        for src, gen, dst in rows[1:]:
            x, g, t = (parse_element(s) for s in (src, gen, dst))
            assert x * g == t and t in inside
            seen.add((x, g))
        # completeness: every in-truncation product appears exactly once
        want = {(x, g) for x in inside
                for g in (fam.elem(0, 1, 0), fam.elem(1, 0, 0)) if x * g in inside}
        assert seen == want and len(rows) - 1 == len(want)

    @pytest.mark.parametrize("fmt", ["dot", "csv"])
    def test_output_is_pinned_byte_for_byte(self, fmt, capsys):
        # node order and edge order over a three-ray family
        code, out, err = run_cli("export-cayley", "--bound", "2", "--family", "0,1,2",
                                 "--generators", "(0,1,0)", "(1,0,2)", "--format", fmt,
                                 capsys=capsys)
        want = (DATA / f"cayley_bound2_family012.{fmt}").read_text()
        assert (code, out, err) == (EXIT_OK, want, "")

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "graph.dot"
        code, out, _ = run_cli("export-cayley", "--bound", "1",
                               "--generators", "(0,1,0)",
                               "--output", str(target), capsys=capsys)
        assert code == EXIT_OK and out == ""
        assert target.read_text().startswith("digraph cayley {")

    @staticmethod
    def reference(bound, family, generators, fmt):
        """The export by a plain loop over public Elem, mul and str: nodes
        ray outermost, then i, then j, and edges x-major."""
        nodes = [family.elem(i, j, b) for b in range(len(family))
                 for i in range(bound + 1) for j in range(bound + 1)]
        gens = [parse_element(g, family) for g in generators]
        edges = [(x, g, mul(x, g)) for x in nodes for g in gens if mul(x, g) in nodes]
        out = io.StringIO()
        if fmt == "dot":
            out.write("digraph cayley {\n")
            out.writelines(f'  "{x}";\n' for x in nodes)
            out.writelines(f'  "{x}" -> "{t}" [label="{g}"];\n' for x, g, t in edges)
            out.write("}\n")
        else:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["source", "generator", "target"])
            writer.writerows([str(x), str(g), str(t)] for x, g, t in edges)
        return out.getvalue()

    # no generator, one, a repeated one, and one whose products all leave
    # the truncation (j grows by 3) beside one that stays; B is the top base
    @pytest.mark.parametrize("generators", [(), ("(0,1,0)",), ("(1,0,B)", "(1,0,B)"),
                                            ("(0,4,B)", "(1,1,0)")])
    @pytest.mark.parametrize("bases", ["0", "0,1", "0,1,2"])
    def test_export_matches_a_plain_loop(self, tmp_path, capsys, bases, generators):
        family = parse_family(bases)
        generators = [g.replace("B", str(family.m)) for g in generators]
        for bound in range(4):
            for fmt in ("dot", "csv"):
                want = self.reference(bound, family, generators, fmt)
                argv = ["export-cayley", "--bound", str(bound), "--family", bases,
                        "--generators", *generators, "--format", fmt]
                assert run_cli(*argv, capsys=capsys) == (EXIT_OK, want, "")
                target = tmp_path / f"graph.{fmt}"
                assert run_cli(*argv, "--output", str(target), capsys=capsys) == (
                    EXIT_OK, "", "")
                assert target.read_bytes() == want.encode()

    # the canonical family: 2 * 707106**2 < 10**12 < 2 * 707107**2; a bound of
    # 2,200 digits makes a count past str(int)'s 4,300 digit limit, and 4,300
    # digits is the longest bound int() reads
    @pytest.mark.parametrize("bound, count", [
        ("3000", "18012002"), ("707105", "999997790472"), ("707106", "more than 10**12"),
        pytest.param("9" * 2200, "more than 10**12", id="2200-digits"),
        pytest.param("9" * 4300, "more than 10**12", id="4300-digits")])
    def test_ruinous_export_is_refused_before_any_work(self, monkeypatch, tmp_path, capsys,
                                                       bound, count):
        def refused(*args):
            raise AssertionError("the truncation was built")
        monkeypatch.setattr(cli, "_raw_truncation", refused)
        target = tmp_path / "out.dot"
        code, out, err = run_cli("export-cayley", "--bound", bound, "--generators", "(0,1,0)",
                                 "--output", str(target), capsys=capsys)
        assert (code, out, err) == (
            EXIT_SYNTAX, "", f"error: export of {count} nodes with 1 generators exceeds the "
            "limit of 250000 nodes x max(1, generators); lower --bound\n")
        assert not target.exists()

    # bound 2: 18 nodes over the canonical family, 27 over {[0),[1),[2)}
    @pytest.mark.parametrize("bases, generators, refused", [
        ("0,1", 0, False), ("0,1", 1, False), ("0,1", 2, False), ("0,1", 3, True),
        ("0,1,2", 0, False), ("0,1,2", 1, False), ("0,1,2", 2, True)])
    def test_export_budget_counts_nodes_times_generators(self, monkeypatch, capsys,
                                                         bases, generators, refused):
        monkeypatch.setattr(cli, "_EXPORT_BUDGET", 36)
        code, out, err = run_cli("export-cayley", "--bound", "2", "--family", bases,
                                 "--generators", *["(0,1,0)"] * generators, capsys=capsys)
        if refused:
            assert (code, out) == (EXIT_SYNTAX, "") and "exceeds the limit of 36" in err
        else:
            assert (code, err) == (EXIT_OK, "") and out.startswith("digraph cayley {")

    def test_one_kernel_call_per_node_and_generator(self, monkeypatch, capsys):
        # bound 3 over {[0),[1),[2)}: 48 nodes, two generators, no Elem
        # product: the products computed are the values of the rows returned
        products = [0]

        def counted(xs, ys):
            row = _products(xs, ys)
            products[0] += len(row)
            return row

        def refused(*args):
            raise AssertionError("an Elem product")
        for module in (_core, cli):
            monkeypatch.setattr(module, "_products", counted)
        monkeypatch.setattr(_core, "mul", refused)
        monkeypatch.setattr(cli, "core_mul", refused)
        code, out, _ = run_cli("export-cayley", "--bound", "3", "--family", "0,1,2",
                               "--generators", "(0,1,0)", "(1,0,2)", capsys=capsys)
        assert code == EXIT_OK and " -> " in out
        assert products[0] == 48 * 2


def run_fresh(argv):
    """(exit code, stdout, stderr) of one call in a new interpreter."""
    proc = subprocess.run([sys.executable, "-m", "bicext", *argv], capture_output=True,
                          text=True, env=dict(os.environ, COLUMNS="80"))
    return proc.returncode, proc.stdout, proc.stderr


def _fresh_parse(argv):
    """(exit code, stdout, stderr) of argv's parse by a newly built tree."""
    parser, _ = cli.build_parser()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exited:
        parser.parse_args(argv)
    return exited.value.code, out.getvalue(), err.getvalue()


# one usage error per parser of the tree, by the prog its usage names: the
# top parser, endo, then each leaf
USAGE_ERRORS = {
    "bicext": ["nosuch"], "bicext endo": ["endo"], "bicext mul": ["mul", "(1,2,0)"],
    "bicext endo apply": ["endo", "apply", "a:2,1"],
    "bicext endo compose": ["endo", "compose", "a:2,1"],
    "bicext endo classify": ["endo", "classify", "--k", "2"],
    "bicext green": ["green", "-r", "Y", "a:1,0", "a:1,0"],
    "bicext verify": ["verify", "--format", "xml"],
    "bicext export-cayley": ["export-cayley", "--format", "png"]}


class TestSharedParser:
    CALLS = (["mul", "(1,2,0)", "(1,3,1)"], ["endo", "compose", "a:2,1", "a:3,2"],
             ["green", "-r", "D", "a:2,1", "a:3,1"], ["mul", "(1,2,0)"],
             ["export-cayley", "--bound", "0"])

    def test_parser_is_built_at_most_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        codes = [main(list(argv)) for argv in self.CALLS * 4]
        capsys.readouterr()
        assert codes == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_SYNTAX, EXIT_OK] * 4
        assert built.count("bicext") <= 1

    def test_layer_functions_patched_after_the_parser_exists_still_run(self, monkeypatch,
                                                                        capsys):
        assert run_cli("mul", "(1,2,0)", "(1,3,1)", capsys=capsys)[:2] == (EXIT_OK, "(1,4,0)\n")
        monkeypatch.setattr(cli, "core_mul", lambda x, y: "patched product")
        monkeypatch.setattr(cli, "run_suite", lambda name, **bounds: pytest.fail("ran"))
        assert run_cli("mul", "(1,2,0)", "(1,3,1)", capsys=capsys) == (
            EXIT_OK, "patched product\n", "")
        with pytest.raises(pytest.fail.Exception, match="ran"):
            main(["verify", "--suite", "idempotents"])

    def test_repeated_calls_give_fresh_process_output(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        calls = [["export-cayley", "--bound", "1", "--generators", "(1,0,0)"],
                 ["export-cayley", "--bound", "1"],  # no generators: no edges
                 ["mul", "(1,2,2)", "(0,1,1)", "--family", "0,1,2"],
                 ["mul", "(1,2,2)", "(0,1,1)"],  # the canonical family has no [2)
                 ["mul", "(1,2,0)"],  # usage error, then a valid call
                 ["mul", "(1,2,0)", "(1,3,1)"],
                 ["--help"], ["--help"]]
        got = [run_cli(*argv, capsys=capsys) for argv in calls]
        assert got == [run_fresh(argv) for argv in calls]
        assert " -> " in got[0][1] and " -> " not in got[1][1]
        assert got[2] == (EXIT_OK, "(1,3,2)\n", "")
        assert got[3] == (EXIT_SYNTAX, "", "error: invalid set base 2 for family {[0),[1)}\n")
        assert got[4][0] == EXIT_SYNTAX and got[5] == (EXIT_OK, "(1,4,0)\n", "")
        assert got[6] == got[7] and got[6][0] == EXIT_OK

    @pytest.mark.parametrize("prog, argv", USAGE_ERRORS.items(), ids=list(USAGE_ERRORS))
    def test_kept_usage_text_matches_a_fresh_tree_at_each_width(self, prog, argv,
                                                                 monkeypatch, capsys):
        formatted = []
        add_usage = argparse.HelpFormatter.add_usage

        def counted(formatter, *args, **kwargs):
            formatted.append(args)
            return add_usage(formatter, *args, **kwargs)
        monkeypatch.setattr(argparse.HelpFormatter, "add_usage", counted)
        usages = []
        for columns in ("80", "80", "40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            formatted.clear()
            got = run_cli(*argv, capsys=capsys)
            usages.append(len(formatted))
            assert got == _fresh_parse(argv) and got[0] == EXIT_SYNTAX
            assert got[2].startswith(f"usage: {prog} ")
        assert usages[1] == 0, "the second error at COLUMNS=80 formatted its usage again"

    def test_the_usage_text_depends_on_the_width(self, monkeypatch, capsys):
        # so the widths above show that a text kept at one is not reused at another
        texts = set()
        for columns in ("80", "40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            texts.add(run_cli(*USAGE_ERRORS["bicext green"], capsys=capsys)[2])
        assert len(texts) == 3

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="recorded with CPython 3.11, whose argparse sets the layout")
    @pytest.mark.parametrize("call", CONTRACT, ids=lambda call: " ".join(call["argv"]))
    def test_help_and_usage_error_are_pinned_byte_for_byte(self, call, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli(*call["argv"], capsys=capsys) == (
            call["exit"], call["stdout"], call["stderr"])


def _argv_tails(output):
    """Argument lists after the command words: values, options, option
    abbreviations, --opt=value, --, help flags, bad ints and bad choices.
    --output comes only with "-" or the given path, so no call writes
    anywhere else."""
    single = st.sampled_from([
        "(1,2,0)", "(1,3,1)", "(0,0,0)", "(1,2)", "(x,2,0)", "(\u0661,2,0)",
        "a:2,1", "b:3,2", "a:2,2", "c:2,1", "1", "2", "3", "0", "-1", "x", "extra",
        "-h", "--help", "--he", "--", "-", "--family", "--fam", "--family=0,1,2",
        "--family=", "0,1", "0,2", "--k", "--level", "--p", "--kmax", "--km", "--kmax=2",
        "-r", "--relation", "--rel=J", "R", "J", "X", "--mode", "--mode=search", "search",
        "symbolic", "--suite", "--suite=ideal", "idempotents", "nope", "all", "--bound",
        "--bound=1", "--ksym", "--tmax", "--format", "--format=csv", "json", "text", "dot",
        "csv", "--generators", "--gen", "--nosuch"]).map(lambda t: [t])
    outputs = st.sampled_from([["--output", "-"], ["--out", "-"], ["--output", output],
                               [f"--output={output}"]])
    return st.lists(st.one_of(single, outputs), max_size=7).map(
        lambda chunks: [t for chunk in chunks for t in chunk])


COMMAND_WORDS = [["mul"], ["endo", "apply"], ["endo", "compose"], ["endo", "classify"],
                 ["green"], ["verify"], ["export-cayley"], ["endo"], ["endo", "nosuch"],
                 ["nosuch"], [], ["-h"], ["--he"], ["endo", "-h"], ["--", "mul"]]


def _walk(parser, words=()):
    """(command words, parser) of parser and of every parser under it."""
    yield words, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _walk(child, words + (name,))


#: each leaf parser of the shared tree, by the command words that reach it
_LEAVES = {words: parser for words, parser in _walk(cli._PARSER) if parser._subparsers is None}


# values the leaves' actions take, by dest; none starts with "-"
_ELEMS = st.sampled_from(["(1,2,0)", "(0,0,0)", "(1,0,2)", " (1, 3 ,1) ", "(x,1,0)", ""])
_ENDOS = st.sampled_from(["a:2,1", "b:3,2", "a:1,0", "a:2,2", "c:2,1"])
_TEXT_VALUES = {"x": _ELEMS, "y": _ELEMS, "element": _ELEMS, "generators": _ELEMS,
                "endo": _ENDOS, "first": _ENDOS, "second": _ENDOS,
                "family": st.sampled_from(["0,1", "0", "0,1,2", " 0 , 1 ", "", "0,2", "0,+1"]),
                "suite": st.sampled_from(["all", "idempotents", "nope"])}
# int() reads each of these, so argparse does; all are at most 2, which keeps
# green searches and Cayley exports small
_INT_TEXTS = st.sampled_from(["0", "1", "2", "+1", " 2", "\u0662"])


# now and then one of these instead: a value argparse may refuse or read as
# an option, which the table must leave to argparse
_SPOILERS = ("X", "x", "-1", "-1,0", "-h", "--p")


def _action_value(action, output):
    if action.dest == "output":  # no other path, so no call writes elsewhere
        return st.just(output)
    if action.choices is not None:
        value = st.sampled_from(list(action.choices))
    else:
        value = _INT_TEXTS if action.type is int else _TEXT_VALUES[action.dest]
    return st.integers(0, 7).flatmap(lambda n: st.sampled_from(_SPOILERS) if n == 0 else value)


@st.composite
def _leaf_argv(draw, output):
    """A leaf's command words, then its positionals in order with its options
    placed among them: each option 0-2 times (a required one at least once)
    under any of its option strings, each with values its action takes, save
    that a value is now and then a spoiler.  Returns (argv, spoiled)."""
    words, leaf = draw(st.sampled_from(sorted(_LEAVES.items())), label="leaf")
    chunks, positionals, values = [], [], []
    for action in leaf._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            positionals.append(action)
            continue
        for _ in range(draw(st.integers(1 if action.required else 0, 2))):
            value = _action_value(action, output)
            taken = draw(st.lists(value, max_size=3) if action.nargs == "*"
                         else value.map(lambda v: [v]))
            values += taken
            chunks.append([draw(st.sampled_from(action.option_strings)), *taken])
    chunks = draw(st.permutations(chunks))
    at = 0
    for action in positionals:
        at = draw(st.integers(at, len(chunks)))
        values.append(draw(_action_value(action, output)))
        chunks.insert(at, values[-1:])
        at += 1
    spoiled = not set(values).isdisjoint(_SPOILERS)
    return [*words, *(token for chunk in chunks for token in chunk)], spoiled


@pytest.fixture
def outcome(tmp_path, monkeypatch):
    """main's exit code, stdout, stderr and written file for an argv."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    # the suites themselves are not what is compared; a stand-in report
    # shows the suite name and bounds the parse produced, with no timing
    monkeypatch.setattr(cli, "run_suite", lambda name, **bounds: VerifyReport(
        name, bounds, 0, [], 0, 0.0, "not run"))
    target = tmp_path / "graph.out"

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        written = target.read_text() if target.exists() else None
        target.unlink(missing_ok=True)
        assert os.listdir(tmp_path) == []
        return code, out.getvalue(), err.getvalue(), written
    run.target = str(target)
    return run


def _readme_calls():
    """The argv of each bicext call in the README's command line block."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("bicext ")]


def _unmodelled(arguments):
    """(first flag, problem) for each add_argument call in a command's
    declaration that its parse table does not model: the table stores one
    value, or with nargs "*" every value up to the next "-" token, and
    argparse would convert a str default through type after the parse."""
    has_positional = any(flags[0][:1] != "-" for flags, _ in arguments)
    problems = []
    for flags, kwargs in arguments:
        if "action" in kwargs:
            problems.append((flags[0], "action"))
        elif kwargs.get("nargs") not in (None, "*"):
            problems.append((flags[0], "nargs"))
        elif kwargs.get("nargs") == "*" and has_positional:
            problems.append((flags[0], "'*' beside positionals"))
        elif isinstance(kwargs.get("default"), str) and kwargs.get("type") is not None:
            problems.append((flags[0], "str default with a type"))
    return problems


class TestRouting:
    """main parses argv by the table built from the declaration of the leaf
    that its command words name; the parse of the whole tree, taken when
    cli._TABLES is empty, must give the same exit code, output and written
    file on every argv."""

    def test_every_leaf_is_routed(self):
        # every parser reached keeps its usage text: none is a plain
        # ArgumentParser from parser_class= or built by hand
        assert {type(parser) for _, parser in _walk(cli._PARSER)} == {cli._Parser}
        # each leaf of the tree has a table, which holds the leaf's handler
        assert _LEAVES.keys() == cli._TABLES.keys()
        for words, leaf in _LEAVES.items():
            assert cli._TABLES[words][3]["handler"] is leaf.get_default("handler")

    def test_every_leaf_is_tabled(self):
        assert len(cli._TABLES) == 7
        assert cli._TABLES.keys() == {words for words, _, handler, _ in cli._COMMANDS if handler}

    def test_each_table_parse_gets_a_fresh_namespace(self):
        table = cli._TABLES[("export-cayley",)]
        defaults = dict(table[3])
        tail = ["--bound", "1", "--generators", "(0,1,0)", "(1,0,0)"]
        first, second = cli._table_parse(table, tail), cli._table_parse(table, tail)
        assert type(first) is type(second) is argparse.Namespace and first is not second
        assert first == second and first.generators is not second.generators
        first.generators.append("(1,1,1)")
        first.bound, first.extra = 7, True
        assert (second.bound, second.generators) == (1, ["(0,1,0)", "(1,0,0)"])
        assert not hasattr(second, "extra") and table[3] == defaults
        # a parse that takes every default does not hand back the defaults either
        bare = cli._table_parse(table, [])
        assert vars(bare) == defaults and vars(bare) is not table[3]
        bare.bound, bare.generators = 9, ["(0,0,0)"]
        assert table[3] == defaults and cli._table_parse(table, []).bound == 2

    @pytest.mark.parametrize("arguments", [arguments for *_, arguments in cli._COMMANDS],
                             ids=[" ".join(words) for words, *_ in cli._COMMANDS])
    def test_every_declared_argument_is_one_the_table_models(self, arguments):
        assert _unmodelled(arguments) == []

    @pytest.mark.parametrize("add, problem", [
        (cli._arg("--flag", action="store_true"), "action"),
        (cli._arg("--maybe", nargs="?"), "nargs"),
        (cli._arg("--many", action="append"), "action"),
        (cli._arg("--two", nargs=2), "nargs"),
        (cli._arg("--n", type=int, default="3"), "str default with a type"),
        (cli._arg("--items", nargs="*"), "'*' beside positionals"),
        (cli._arg("rest", nargs="*"), "'*' beside positionals")],
        ids=["store_true", "nargs ?", "append", "nargs 2", "str default with a type",
             "* option with a positional", "* positional"])
    def test_the_declaration_check_refuses_what_the_table_does_not_model(self, add, problem):
        plain = (cli._arg("x"), cli._arg("--family", default="0,1"),
                 cli._arg("--n", type=int, default=3), cli._arg("--m", choices=("a", "b")))
        assert _unmodelled(plain) == []
        assert _unmodelled((cli._arg("--items", nargs="*", default=()),)) == []
        assert _unmodelled((*plain, add)) == [(add[0][0], problem)]

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    # a doubled "--" leaves the last positional no token: CPython 3.11 gives
    # it the value [], which argparse must refuse before any handler reads it
    @example(data=["mul", "(1,2,0)", "--", "--"])
    @example(data=["endo", "apply", "a:1,0", "--", "--"])
    @example(data=["endo", "compose", "a:2,1", "--", "--"])
    @example(data=["green", "-r", "R", "a:1,0", "--", "--"])
    def test_routed_parse_matches_the_full_parse(self, data, outcome, monkeypatch):
        # an @example gives the argv itself in place of the draws
        argv = data if type(data) is list else (
            data.draw(st.sampled_from(COMMAND_WORDS), label="words")
            + data.draw(_argv_tails(outcome.target), label="tail"))
        tabled = outcome(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_TABLES", {})
            assert tabled == outcome(argv), argv

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_leaf_argv_is_tabled_as_the_leaf_parses_it(self, data, outcome, monkeypatch):
        argv, spoiled = data.draw(_leaf_argv(outcome.target), label="argv")
        n = 2 if argv[0] == "endo" else 1
        args = cli._table_parse(cli._TABLES[tuple(argv[:n])], argv[n:])
        assert spoiled or args is not None, argv  # well-formed argv is tabled
        if args is not None:
            want, extras = _LEAVES[tuple(argv[:n])].parse_known_args(argv[n:])
            assert (vars(args), extras) == (vars(want), [])
        tabled = outcome(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_TABLES", {})
            assert tabled == outcome(argv), argv

    @pytest.mark.parametrize("argv", [
        ["mul", "(0,0,0)", "(0,0,0)", "--fam", "0"],  # an abbreviation
        ["mul", "(0,0,0)", "(0,0,0)", "--family=0"],
        ["mul", "--", "(0,0,0)", "(0,0,0)"],
        ["mul", "-h"],
        ["mul", "-1", "(0,0,0)"],  # argparse reads -1 as a positional
        ["mul", "(0,0,0)", "(0,0,0)", "--family", "-1,0"],  # argparse: an option
        ["verify", "--suite", "-h"],
        ["verify", "--bound", "-1"],  # argparse: the value -1
        ["export-cayley", "--generators", "(0,1,0)", "-1"],
        ["mul", "(0,0,0)"],
        ["mul", "(0,0,0)", "(0,0,0)", "extra"],
        ["endo", "classify", "--k", "2", "--level", "1"],  # --p is required
        ["endo", "classify", "--k", "x", "--level", "0", "--p", "0"],
        ["green", "-r", "X", "a:1,0", "a:1,0"]],
        ids=lambda argv: " ".join(argv))
    def test_what_the_table_leaves_to_argparse(self, argv, outcome, monkeypatch):
        n = 2 if argv[0] == "endo" else 1
        assert cli._table_parse(cli._TABLES[tuple(argv[:n])], argv[n:]) is None
        tabled = outcome(argv)
        monkeypatch.setattr(cli, "_TABLES", {})
        assert tabled == outcome(argv)

    def test_leaf_argv_never_reaches_the_full_parse(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_suite", lambda name, **bounds: VerifyReport(
            name, bounds, 0, [], 0, 0.0, "not run"))
        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                            lambda parser, argv, namespace=None: pytest.fail(
                                f"argparse parse of {argv}"))
        valid = [argv for argv in TestSharedParser.CALLS if argv != ["mul", "(1,2,0)"]]
        calls = valid + _readme_calls()
        assert len(calls) == 4 + 8
        assert [main(list(argv)) for argv in calls] == [EXIT_OK] * len(calls)
        for usage_error in (["mul", "(1,2,0)"], ["mul", "(1,2,0)", "(1,3,1)", "extra"]):
            with pytest.raises(pytest.fail.Exception, match="argparse parse"):
                main(usage_error)

    def test_main_without_argv_reads_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["bicext", "endo", "compose", "a:2,1", "a:3,2"])
        assert (main(), capsys.readouterr().out) == (EXIT_OK, "a:6,5\n")
        monkeypatch.setattr(sys, "argv", ["bicext", "mul", "(1,2,0)", "(1,3,1)", "extra"])
        assert main() == EXIT_SYNTAX
        assert capsys.readouterr().err.endswith("unrecognized arguments: extra\n")

    def test_any_argv_sequence_is_accepted(self, capsys):
        assert main(("mul", "(1,2,0)", "(1,3,1)")) == EXIT_OK
        assert main(iter(["endo", "apply", "b:3,2", "(1,0,1)"])) == EXIT_OK
        assert capsys.readouterr().out == "(1,4,0)\n(5,2,0)\n"


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bicext", "mul", "(1,2,0)", "(1,3,1)"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "(1,4,0)\n"

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help", capsys=capsys)[0] == 0

    def test_verify_failure_exit_code_is_distinct(self):
        assert EXIT_VERIFY == 1 and EXIT_OK == 0
        assert len({EXIT_OK, EXIT_VERIFY, EXIT_SYNTAX, EXIT_FAMILY,
                    EXIT_RANGE, EXIT_IO}) == 6
