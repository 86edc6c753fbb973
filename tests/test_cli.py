"""CLI contract: parsing round-trips, documented invocations, exit codes,
report schema, and export formats."""

import csv
import io
import json
import subprocess
import sys

import jsonschema
import pytest

from bicext.cli import (EXIT_FAMILY, EXIT_IO, EXIT_OK, EXIT_RANGE,
                        EXIT_SYNTAX, EXIT_VERIFY, ParseError, REPORT_SCHEMA,
                        format_element, format_endo, main, parse_element,
                        parse_endo, parse_family, report_document)
from bicext.core_semigroup import CANONICAL_FAMILY, Family, FamilyError
from bicext.endomorphisms import collapsing, enumerate_endos, preserving
from bicext.oracle_verify import run_suite


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
                    assert parse_element(format_element(x)) == x

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

    def test_endo_round_trip(self):
        for e in enumerate_endos(4):
            assert parse_endo(format_endo(e)) == e

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

    def test_export_negative_bound_exits_2_like_verify(self, tmp_path, capsys):
        target = tmp_path / "out.dot"
        code, out, err = run_cli("export-cayley", "--bound", "-1",
                                 "--output", str(target), capsys=capsys)
        assert (code, out, err) == (EXIT_SYNTAX, "", "error: bound must be >= 0\n")
        assert not target.exists()  # refused before any work
        code, _, verify_err = run_cli("verify", "--suite", "order", "--bound", "-1",
                                      capsys=capsys)
        assert (code, verify_err) == (EXIT_SYNTAX, err)

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

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "graph.dot"
        code, out, _ = run_cli("export-cayley", "--bound", "1",
                               "--generators", "(0,1,0)",
                               "--output", str(target), capsys=capsys)
        assert code == EXIT_OK and out == ""
        assert target.read_text().startswith("digraph cayley {")


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
