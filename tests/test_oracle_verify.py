"""The verification engine: truncations, the registry audit, report shape,
every suite at reduced bounds, and reports under deliberately wrong kernels."""

import hashlib

import pytest

import bicext.core_semigroup as _core
import bicext.endo_monoid_green as _green
import bicext.endomorphisms as _endo
import bicext.oracle_verify as _ov
from bicext.core_semigroup import CANONICAL_FAMILY, Family
from bicext.endomorphisms import Kind, homomorphism_counterexample
from bicext.oracle_verify import (ALL_INVARIANTS, FAILURE_CAP, FailureLog, SUITES,
                           Truncation, UnknownSuiteError, run_suite)


class TestTruncation:
    def test_size(self):
        assert len(Truncation(8)) == 162
        assert len(Truncation(0)) == 2
        assert len(Truncation(2, Family.from_bases(0))) == 9

    def test_iteration_order_ray_outermost(self):
        got = [(x.i, x.j, x.base) for x in Truncation(1)]
        assert got == [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0),
                       (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]

    def test_raw_matches_iteration(self):
        t = Truncation(3)
        assert t.raw() == [(x.i, x.j, x.base) for x in t]

    def test_default_family(self):
        assert Truncation(1).family == CANONICAL_FAMILY

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            Truncation(-1)


class TestFailureLog:
    def test_cap_keeps_counting(self):
        log = FailureLog()
        for n in range(FAILURE_CAP + 50):
            log.add(f"case {n}", "x", "y")
        assert log.total == FAILURE_CAP + 50
        assert len(log.recorded) == FAILURE_CAP
        assert log.recorded[0].inputs == "case 0"


class TestRegistry:
    def test_every_invariant_owned_exactly_once(self):
        owned = [tag for spec in SUITES.values() for tag in spec.covers]
        assert sorted(owned) == sorted(ALL_INVARIANTS)

    def test_twelve_suites(self):
        assert len(SUITES) == 12

    def test_defaults_are_positive_ints(self):
        for name, spec in SUITES.items():
            assert spec.defaults, name
            for key, val in spec.defaults.items():
                assert isinstance(val, int) and val >= 0


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(UnknownSuiteError):
            run_suite("nonexistent")

    def test_unknown_bound_key(self):
        with pytest.raises(ValueError):
            run_suite("idempotents", bound=3)

    def test_none_override_ignored(self):
        report = run_suite("idempotents", kmax=None)
        assert report.bounds == {"kmax": 20}

    def test_override_applied(self):
        report = run_suite("idempotents", kmax=3)
        assert report.bounds == {"kmax": 3}
        assert report.cases == 9

    def test_report_shape(self):
        report = run_suite("growth_inequalities", kmax=3, tmax=10)
        assert report.suite == "growth_inequalities"
        assert report.passed and report.failures == [] and report.failures_total == 0
        assert report.elapsed_ms >= 0
        assert report.cases > 0 and report.summary

    def test_deterministic_given_bounds(self):
        first = run_suite("order", bound=3)
        second = run_suite("order", bound=3)
        for field in ("suite", "bounds", "cases", "failures", "failures_total",
                      "summary"):
            assert getattr(first, field) == getattr(second, field)


class TestSuitesAtReducedBounds:
    """Every registered suite passes at bounds small enough for test speed;
    full default bounds run in the acceptance tests."""

    def test_semigroup_axioms(self):
        report = run_suite("semigroup_axioms", bound=4)
        assert report.passed
        n = (4 + 1) ** 2 * 2
        assert f"{n ** 3} triples" in report.summary

    def test_semigroup_axioms_minimal_case_count(self):
        report = run_suite("semigroup_axioms", bound=0)
        # 2 elements: 8 triples, 4 aligned pairs, 2 identity checks, 1
        # single-ray product
        assert report.cases == 15
        assert report.summary == "8 triples, 7 auxiliary checks"

    def test_inverse_axioms(self):
        assert run_suite("inverse_axioms", bound=4).passed

    def test_order(self):
        assert run_suite("order", bound=4).passed

    def test_endo_homomorphism(self):
        assert run_suite("endo_homomorphism", bound=4, kmax=3).passed

    def test_endo_injectivity(self):
        assert run_suite("endo_injectivity", bound=8, kmax=3).passed

    def test_composition_table(self):
        assert run_suite("composition_table", bound=8, kmax=3, ksym=6).passed

    def test_idempotents(self):
        assert run_suite("idempotents", kmax=6).passed

    def test_cancellative(self):
        assert run_suite("cancellative", kmax=4).passed

    def test_ideal(self):
        assert run_suite("ideal", kmax=4).passed

    def test_green_agreement(self):
        assert run_suite("green_agreement", kmax=3).passed

    def test_classification_negative(self):
        report = run_suite("classification_negative", kmax=3, bound=6)
        assert report.passed
        # 2 kinds x 3 multipliers x 3 offsets; the collapsing p = k forms
        # witness failure by injectivity, the rest by homomorphism breakage
        assert report.cases == 18
        assert report.summary == "15 homomorphism witnesses, 3 injectivity witnesses"

    def test_growth_inequalities(self):
        assert run_suite("growth_inequalities", kmax=4, tmax=30).passed


# ------------------------------------------------------- fault injection --

_MODULES = (_core, _endo, _ov, _green)
_REAL_MUL = _core._mul_raw
_REAL_IMAGE = _endo._raw_image


def _dense_mul(i1, j1, b1, i2, j2, b2):
    i, j, b = _REAL_MUL(i1, j1, b1, i2, j2, b2)
    if (i1 + j2) % 5 == 3:
        return i, j, min(b1, b2)
    if i1 == 2 and j2 == 1:
        return i, j + 1, b
    return i, j, b


def _sparse_mul(i1, j1, b1, i2, j2, b2):
    i, j, b = _REAL_MUL(i1, j1, b1, i2, j2, b2)
    if (i1, j1, b1, i2, j2, b2) == (2, 1, 1, 0, 3, 0):
        return i, j, 0
    return i, j, b


def _dense_image(kind, k, p, i, j, b):
    i2, j2, b2 = _REAL_IMAGE(kind, k, p, i, j, b)
    if (i + 2 * j + k) % 5 == 1:
        return i2, j2 + 1, b2
    return i2, j2, b2


def _sparse_image(kind, k, p, i, j, b):
    i2, j2, b2 = _REAL_IMAGE(kind, k, p, i, j, b)
    if (k, p, i, j, b) == (3, 1, 2, 0, 1):
        return i2, j2 + 1, b2
    return i2, j2, b2


def _inject(monkeypatch, name, fault):
    """Replace the kernel `name` in every module that binds it."""
    bound = [m for m in _MODULES if name in vars(m)]
    assert bound
    for module in bound:
        monkeypatch.setattr(module, name, fault)


def _digest(failures):
    text = repr([(f.inputs, f.expected, f.got) for f in failures])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_MUL_FAULTS = {"dense": _dense_mul, "sparse": _sparse_mul}
_IMAGE_FAULTS = {"dense": _dense_image, "sparse": _sparse_image}

# (fault, suite, bounds) -> (cases, failures_total, recorded, digest of every
# recorded (inputs, expected, got), first record, last record, summary)
_PINNED = {
    ("dense", "semigroup_axioms", (("bound", 4),)): (
        126175, 15547, 100, "b2a4828970f2d8ab",
        ("x=(0, 0, 0) y=(1, 0, 0) z=(0, 3, 1)", "(xy)z == x(yz)",
         "(1, 3, 1) vs (1, 3, 0)"),
        ("x=(0, 0, 0) y=(0, 3, 1) z=(2, 0, 1)", "(xy)z == x(yz)",
         "(0, 1, 0) vs (0, 1, 1)"),
        "125000 triples, 1175 auxiliary checks"),
    ("sparse", "semigroup_axioms", (("bound", 4),)): (
        126175, 104, 100, "00d70e11f47f6e3c",
        ("x=(0, 1, 0) y=(2, 1, 1) z=(0, 3, 0)", "(xy)z == x(yz)",
         "(1, 4, 1) vs (1, 4, 0)"),
        ("x=(2, 4, 1) y=(4, 1, 1) z=(0, 3, 0)", "(xy)z == x(yz)",
         "(2, 4, 0) vs (2, 4, 1)"),
        "125000 triples, 1175 auxiliary checks"),
    ("dense", "endo_homomorphism", (("bound", 4), ("kmax", 4))): (
        40332, 17338, 100, "01bc73299eee2396",
        ("e=a:1,0 x=(0, 0, 0) y=(0, 0, 0)", "(0, 1, 0)", "(0, 2, 0)"),
        ("e=a:1,0 x=(0, 3, 0) y=(0, 2, 1)", "(0, 6, 0)", "(0, 5, 0)"),
        "16 endomorphisms on 50 elements"),
    ("sparse", "endo_homomorphism", (("bound", 4), ("kmax", 4))): (
        40332, 224, 100, "5c67532daae11cb8",
        ("e=a:3,1 x=(0, 1, 0) y=(2, 0, 1)", "(4, 1, 1)", "(4, 2, 1)"),
        ("e=a:3,1 x=(2, 4, 1) y=(4, 0, 0)", "(7, 2, 1)", "(7, 1, 1)"),
        "16 endomorphisms on 50 elements"),
    ("dense", "composition_table", (("bound", 6), ("kmax", 4), ("ksym", 5))): (
        25813, 11574, 100, "0d0a68963902394e",
        ("a:1,0 . a:2,0 at (0, 0, 0)", "(0, 2, 0)", "(0, 0, 0)"),
        ("a:1,0 . a:3,2 at (6, 2, 1)", "(20, 11, 1)", "(20, 8, 1)"),
        "16^2 pointwise pairs, symbolic k <= 5"),
    ("sparse", "composition_table", (("bound", 6), ("kmax", 4), ("ksym", 5))): (
        25813, 32, 32, "b8f83d6d62fe7e6d",
        ("a:2,0 . a:3,1 at (1, 0, 1)", "(7, 2, 1)", "(7, 1, 1)"),
        ("b:3,1 . b:4,3 at (2, 0, 1)", "(28, 8, 0)", "(28, 4, 0)"),
        "16^2 pointwise pairs, symbolic k <= 5"),
    ("dense", "classification_negative", (("kmax", 4), ("bound", 6))): (
        24, 0, 0, "4f53cda18c2baa0c", None, None,
        "24 homomorphism witnesses, 0 injectivity witnesses"),
    ("sparse", "classification_negative", (("kmax", 4), ("bound", 6))): (
        24, 0, 0, "4f53cda18c2baa0c", None, None,
        "20 homomorphism witnesses, 4 injectivity witnesses"),
}


class TestFaultInjection:
    """A deliberately wrong kernel must give the very reports the plain
    per-case loops gave: the same counts, and the same failure records in
    the same order, truncated at FAILURE_CAP."""

    @pytest.mark.parametrize("key", sorted(_PINNED), ids=lambda k: f"{k[0]}-{k[1]}")
    def test_report_pinned(self, monkeypatch, key):
        fault, suite, bounds = key
        if suite == "semigroup_axioms":
            _inject(monkeypatch, "_mul_raw", _MUL_FAULTS[fault])
        else:
            _inject(monkeypatch, "_raw_image", _IMAGE_FAULTS[fault])
        report = run_suite(suite, **dict(bounds))
        cases, total, recorded, digest, first, last, summary = _PINNED[key]
        records = [(f.inputs, f.expected, f.got) for f in report.failures]
        assert (report.cases, report.failures_total, len(records)) == (cases, total, recorded)
        assert (records[:1], records[-1:]) == ([first] if first else [], [last] if last else [])
        assert _digest(report.failures) == digest
        assert report.summary == summary

    def test_first_counterexample_in_scan_order(self, monkeypatch):
        _inject(monkeypatch, "_raw_image", _sparse_image)
        got = {}
        for kind in Kind:
            for k, p in ((3, 1), (3, 3), (2, 2), (4, 5)):
                w = homomorphism_counterexample(kind, k, p, 4)
                got[kind.value, k, p] = w and (str(w[0]), str(w[1]))
        first_row = ("(0,1,0)", "(0,0,1)")
        assert got == {
            ("a", 3, 1): ("(0,1,0)", "(2,0,1)"), ("a", 3, 3): first_row,
            ("a", 2, 2): first_row, ("a", 4, 5): first_row,
            ("b", 3, 1): ("(0,1,0)", "(2,0,1)"), ("b", 3, 3): None,
            ("b", 2, 2): None, ("b", 4, 5): first_row}
