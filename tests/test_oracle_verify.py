"""The verification engine: truncations, the registry audit, report shape,
every suite at reduced bounds, and reports under deliberately wrong kernels."""

import hashlib
import json
from collections import Counter

import pytest

import bicext.cli as cli
import bicext.core_semigroup as _core
import bicext.endo_monoid_green as _green
import bicext.endomorphisms as _endo
import bicext.oracle_verify as _ov
from bicext.core_semigroup import (CANONICAL_FAMILY, Family, FamilyError, inverse,
                                   is_idempotent, leq_natural, mul)
from bicext.endo_monoid_green import collapsing_class_ideal, preserving_class_cancellative
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

    @pytest.mark.parametrize("family, name", [("x", "str"), (None, "NoneType"),
                                              ((0, 1), "tuple")])
    def test_non_family_rejected(self, family, name):
        with pytest.raises(FamilyError, match=rf"^family must be a Family, got {name}$"):
            Truncation(2, family)

    @pytest.mark.parametrize("bound", [2.5, 2.0, True])
    def test_non_integer_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="bound must be an integer"):
            Truncation(bound)


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

    def test_suites_keep_their_order_and_default_bounds(self):
        # the order of definition is the order of --suite all and of the
        # JSON report; each suite's defaults are its keyword defaults, in
        # signature order
        assert [(name, list(spec.defaults.items())) for name, spec in SUITES.items()] == [
            ("semigroup_axioms", [("bound", 8)]),
            ("inverse_axioms", [("bound", 8)]),
            ("order", [("bound", 8)]),
            ("endo_homomorphism", [("bound", 8), ("kmax", 5)]),
            ("endo_injectivity", [("bound", 20), ("kmax", 5)]),
            ("composition_table", [("bound", 20), ("kmax", 5), ("ksym", 12)]),
            ("idempotents", [("kmax", 20)]),
            ("cancellative", [("kmax", 5)]),
            ("ideal", [("kmax", 5)]),
            ("green_agreement", [("kmax", 5)]),
            ("classification_negative", [("kmax", 4), ("bound", 6)]),
            ("growth_inequalities", [("kmax", 6), ("tmax", 50)])]

    def test_registration_reads_the_name_defaults_and_floor(self, monkeypatch):
        monkeypatch.setattr(_ov, "SUITES", {})
        monkeypatch.setattr(_ov, "_FLOORS", {})

        def _suite_probe(log, kmax=3, bound=2):
            return 0, ""

        assert _ov._suite("a", "b", floor=("bound", 1))(_suite_probe) is _suite_probe
        assert _ov.SUITES == {"probe": _ov.SuiteSpec(_suite_probe, ("a", "b"),
                                                     {"kmax": 3, "bound": 2})}
        assert list(_ov.SUITES["probe"].defaults) == ["kmax", "bound"]
        assert _ov._FLOORS == {"probe": ("bound", 1)}
        with pytest.raises(ValueError, match=r"^bound must be >= 1$"):
            _ov.suite_bounds("probe", bound=0)

    @pytest.mark.parametrize("run", [lambda bound, kmax=5: None, lambda log, bound: None,
                                     lambda log, bound, kmax=5: None,
                                     lambda log, **bounds: None,
                                     lambda log, bound=8, **more: None,
                                     lambda log, bound=8, *more: None,
                                     lambda log, *, bound=8: None],
                             ids=["no-log", "bound-without-default", "one-without-default",
                                  "any-keyword", "extra-keywords", "extra-positionals",
                                  "keyword-only"])
    def test_registration_refuses_a_suite_not_taking_log_and_its_bounds(self, monkeypatch,
                                                                          run):
        monkeypatch.setattr(_ov, "SUITES", {})
        with pytest.raises(TypeError, match=r"^suite <lambda> takes \(.*\), not log and "
                                            r"defaulted bounds$"):
            _ov._suite("associativity")(run)
        assert _ov.SUITES == {}

    @pytest.mark.parametrize("covers, message", [
        (("endo_homomorphism",), r"^invariants owned twice: \['endo_homomorphism'\]$"),
        ((), r"^registry incomplete: missing=\['endo_injectivity'\] extra=\[\]$"),
        (("endo_injectivity", "surjectivity"),
         r"^registry incomplete: missing=\[\] extra=\['surjectivity'\]$")],
        ids=["owned-twice", "unowned", "undeclared"])
    def test_audit_refuses_an_invariant_owned_twice_or_by_no_suite(self, monkeypatch,
                                                                   covers, message):
        _ov._audit_registry()
        spec = SUITES["endo_injectivity"]
        monkeypatch.setitem(SUITES, "endo_injectivity", spec._replace(covers=covers))
        with pytest.raises(AssertionError, match=message):
            _ov._audit_registry()


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

    @pytest.mark.parametrize("suite, key, val, message", [
        ("classification_negative", "bound", -1, "bound must be >= 0"),
        ("classification_negative", "kmax", 0, "kmax must be >= 1"),
        ("growth_inequalities", "kmax", 0, "kmax must be >= 1"),
        ("growth_inequalities", "tmax", -1, "tmax must be >= 0"),
        ("composition_table", "ksym", 0, "ksym must be >= 1")])
    def test_bound_below_its_minimum_refused(self, suite, key, val, message):
        with pytest.raises(ValueError, match=message):
            run_suite(suite, **{key: val})

    @pytest.mark.parametrize("suite, overrides, message", [
        ("classification_negative", {"bound": 0}, "bound must be >= 1"),
        ("growth_inequalities", {"tmax": 5}, "tmax must be >= kmax (6)"),
        ("growth_inequalities", {"kmax": 51}, "tmax must be >= kmax (51)"),
        ("growth_inequalities", {"kmax": 3, "tmax": 2}, "tmax must be >= kmax (3)")])
    def test_bound_below_the_suite_floor_refused(self, monkeypatch, suite, overrides,
                                                 message):
        # the suite would fail there though the maths holds: refused before it starts
        def never(log, **bounds):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(SUITES, suite, SUITES[suite]._replace(run=never))
        with pytest.raises(ValueError) as info:
            run_suite(suite, **overrides)
        assert str(info.value) == message

    def test_floors_hold_from_where_the_suites_pass(self):
        assert run_suite("classification_negative", kmax=2, bound=1).passed
        assert run_suite("growth_inequalities", kmax=4, tmax=4).passed

    @pytest.mark.parametrize("suite, key, val", [
        ("idempotents", "kmax", 2.5), ("inverse_axioms", "bound", 1.5),
        ("composition_table", "ksym", 3.0), ("order", "bound", True)])
    def test_non_integer_bound_refused(self, monkeypatch, suite, key, val):
        # refused by suite_bounds, before the suite is started
        def never(**bounds):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(SUITES, suite, SUITES[suite]._replace(run=never))
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            run_suite(suite, **{key: val})

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

    def test_public_inverse_and_idempotent_follow_the_suite_rule(self):
        # the suite checks the raw swap (j, i, b) and x x == x on raw
        # triples; the public functions must keep to that same rule
        for x in Truncation(4, Family.from_bases(0, 1, 2)):
            raw = (x.i, x.j, x.base)
            assert inverse(x) == (x.j, x.i, x.base, x.family)
            assert is_idempotent(x) is (_core._mul_raw(*raw, *raw) == raw)

    def test_order(self):
        assert run_suite("order", bound=4).passed

    def test_order_table_is_leq_natural(self):
        trunc = Truncation(3)
        elems = list(trunc)
        want = [[leq_natural(s, t) for t in elems] for s in elems]
        assert [list(row) for row in _ov._leq_table(trunc.raw())] == want

    def test_endo_homomorphism(self):
        assert run_suite("endo_homomorphism", bound=4, kmax=3).passed

    @pytest.mark.parametrize("bound", [0, 1])
    def test_endo_homomorphism_below_bound_2(self, bound):
        # rigidity looks at the elements with coordinates <= 2, which a
        # truncation below bound 2 does not hold all of
        assert run_suite("endo_homomorphism", bound=bound, kmax=3).passed

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


# suite -> cases at the defaults, at bound=1 kmax=1 ksym=1 tmax=1, and at
# bound=3 kmax=3 ksym=4 tmax=6, as the per-case loops counted them
_CASES = {
    "semigroup_axioms": (4261167, 568, 33312),
    "inverse_axioms": (972, 48, 192),
    "order": (78991, 206, 3126),
    "endo_homomorphism": (657770, 66, 9330),
    "endo_injectivity": (22050, 8, 288),
    "composition_table": (576342, 9, 2884),
    "idempotents": (400, 1, 9),
    "cancellative": (6301, 1, 361),
    "ideal": (501, 1, 55),
    "green_agreement": (5625, 9, 729),
    "classification_negative": (24, 6, 18),
    "growth_inequalities": (269, 4, 49),
}
_CASE_BOUNDS = ({}, {"bound": 1, "kmax": 1, "ksym": 1, "tmax": 1},
                {"bound": 3, "kmax": 3, "ksym": 4, "tmax": 6})


def test_every_suite_has_pinned_case_counts():
    assert set(_CASES) == set(SUITES)


@pytest.mark.parametrize("name", sorted(_CASES))
def test_case_counts_pinned(name):
    got = []
    for bounds in _CASE_BOUNDS:
        report = run_suite(name, **{key: val for key, val in bounds.items()
                                    if key in SUITES[name].defaults})
        assert report.passed, bounds
        got.append(report.cases)
    assert tuple(got) == _CASES[name]


# ------------------------------------------------------- fault injection --

_MODULES = (_core, _endo, _ov, _green, cli)
_REAL_PRODUCTS = _core._products
_REAL_IMAGE_ROW = _endo._image_row
_REAL_COMPOSE = _endo._compose_raw


# the unpatched formulas, one value at a time: the scalar kernels themselves
# read whatever row kernel a test put in their module
def _REAL_MUL(i1, j1, b1, i2, j2, b2):
    return _REAL_PRODUCTS(((i1, j1, b1),), ((i2, j2, b2),))[0]


def _REAL_IMAGE(kind, k, p, i, j, b):
    return _REAL_IMAGE_ROW(kind, k, p, ((i, j, b),))[0]


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


def _idem_mul(i1, j1, b1, i2, j2, b2):
    # wrong ray for some products with a balanced right factor, the shape of
    # t * (s^-1 s) in the natural order; still a valid triple over {[0), [1)}
    i, j, b = _REAL_MUL(i1, j1, b1, i2, j2, b2)
    if i2 == j2 and (i1 + j1) % 3 == 2:
        return i, j, b ^ 1
    return i, j, b


def _commute_mul(i1, j1, b1, i2, j2, b2):
    # breaks only idempotent commutativity: a product of two balanced
    # triples whose left ray is the higher takes the right factor's ray, so
    # every product the other inverse axioms take, x x^-1 x and the squares,
    # stays right
    i, j, b = _REAL_MUL(i1, j1, b1, i2, j2, b2)
    if i1 == j1 and i2 == j2 and b1 > b2:
        return i, j, b2
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


def _e2_image(kind, k, p, i, j, b):
    # a:3,2 goes wrong only on level-1 points past the bound-6 corner, which
    # only the images of a first factor reach: it fails as the right factor
    # of a pair, whose composite other pairs share
    i2, j2, b2 = _REAL_IMAGE(kind, k, p, i, j, b)
    if b == 1 and i > 6 and (kind, k, p) == (Kind.PRESERVING, 3, 2):
        return i2 + 1, j2, b2
    return i2, j2, b2


def _collide_image(kind, k, p, i, j, b):
    # not injective: for k = 3 every level-1 point with j >= 2 lands on the
    # image of (i, 1, 1)
    if k == 3 and b == 1 and j >= 2:
        j = 1
    return _REAL_IMAGE(kind, k, p, i, j, b)


def _level0_image(kind, k, p, i, j, b):
    # a:3,2 alone moves the level-0 points with i = 1, so its level-0 image
    # block differs from the one every other k = 3 form has: a row shared
    # between forms equal by k instead of by value would hide it
    i2, j2, b2 = _REAL_IMAGE(kind, k, p, i, j, b)
    if b == 0 and i == 1 and (kind, k, p) == (Kind.PRESERVING, 3, 2):
        return i2, j2 + 1, b2
    return i2, j2, b2


def _dense_compose(v1, k1, p1, v2, k2, p2):
    # wrong but in range: preserving after preserving loses its offset, and a
    # collapsing left factor takes the right factor's kind
    if v1 is Kind.PRESERVING:
        return (v2, k1 * k2, 0) if v2 is Kind.PRESERVING else (v2, k1 * k2, p2 + k2 * p1)
    return v2, k1 * k2, k2 * p1


def _unit_compose(v1, k1, p1, v2, k2, p2):
    # as _dense_compose, but only the unit loses the offset, so a row a.x
    # repeats only for a = a:1,0 and no row x.a ever does
    if v1 is Kind.PRESERVING and not (k1 == 1 and v2 is Kind.PRESERVING):
        return v2, k1 * k2, p2 + k2 * p1
    return _dense_compose(v1, k1, p1, v2, k2, p2)


def _shared_compose(v1, k1, p1, v2, k2, p2):
    # wrong but in range for only some pairs sharing a composite: b:k1,p1
    # after any form with multiplier k2 is one composite, and only the
    # preserving right factors with p2 = 1 get its offset plus one
    v, k, p = _REAL_COMPOSE(v1, k1, p1, v2, k2, p2)
    if v1 is Kind.COLLAPSING and v2 is Kind.PRESERVING and p2 == 1:
        return v, k, p + 1
    return v, k, p


def _minus_compose(v1, k1, p1, v2, k2, p2):
    # out of range: after a preserving left factor the offset is p2 - k2 p1,
    # which can fall below the kind's minimum, so compose raises
    if v1 is Kind.PRESERVING:
        return v2, k1 * k2, p2 - k2 * p1
    return v2, k1 * k2, k2 * p1


def _wide_compose(v1, k1, p1, v2, k2, p2):
    # out of range only past k = 25: the kmax-5 pairs stay sound, the
    # closure sweep logs every wider composite as refused, and the collapse
    # sweep, which catches no refusal, stops at its first
    v, k, p = _REAL_COMPOSE(v1, k1, p1, v2, k2, p2)
    return (v, k, p - k) if k > 25 else (v, k, p)


def _collapsed_compose(v1, k1, p1, v2, k2, p2):
    # as _wide_compose, but only after a collapsing left factor and onto a
    # right factor with p2 = 1, so that every refusal and the crash are recorded
    v, k, p = _REAL_COMPOSE(v1, k1, p1, v2, k2, p2)
    if k > 25 and v1 is Kind.COLLAPSING and p2 == 1:
        return v, k, p - k
    return v, k, p


def _products_through(fault):
    """_products, each product computed by the scalar kernel fault."""
    def products(xs, ys):
        return tuple([fault(i1, j1, b1, i2, j2, b2)
                      for (i1, j1, b1), (i2, j2, b2) in zip(xs, ys)])
    return products


def _image_row_through(fault):
    """_image_row, each image computed by the scalar kernel fault."""
    def image_row(kind, k, p, xs):
        return tuple([fault(kind, k, p, i, j, b) for i, j, b in xs])
    return image_row


#: each scalar kernel -> (the row kernel holding its formula, that row
#: kernel unpatched, and that row kernel built on a replacement scalar one)
_ROWS = {"_mul_raw": ("_products", _REAL_PRODUCTS, _products_through),
         "_raw_image": ("_image_row", _REAL_IMAGE_ROW, _image_row_through)}


def _patch_everywhere(monkeypatch, name, value):
    """Replace `name` in every module that binds it."""
    bound = [m for m in _MODULES if name in vars(m)]
    assert bound
    for module in bound:
        monkeypatch.setattr(module, name, value)


def _inject(monkeypatch, name, fault):
    """Replace the scalar kernel `name` by fault where every sweep reaches
    it: its row kernel becomes one that computes each value through fault,
    and the scalar kernel, a one-element row of it, follows."""
    row, _, lift = _ROWS[name]
    _patch_everywhere(monkeypatch, row, lift(fault))


def _counted(monkeypatch, name):
    """A one-item list counting, from now on, what the kernel `name`
    computes: the values in every row its row kernel returns, for _mul_raw
    and _raw_image, and the calls, for mul."""
    row, real, _ = _ROWS.get(name, ("mul", _core.mul, None))
    size = len if name in _ROWS else (lambda _: 1)
    count = [0]

    def counted(*args):
        values = real(*args)
        count[0] += size(values)
        return values
    _patch_everywhere(monkeypatch, row, counted)
    return count


def _digest(failures):
    text = repr([(f.inputs, f.expected, f.got) for f in failures])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


_MUL_FAULTS = {"dense": _dense_mul, "sparse": _sparse_mul, "idem": _idem_mul,
               "commute": _commute_mul}
_IMAGE_FAULTS = {"dense": _dense_image, "sparse": _sparse_image, "e2": _e2_image,
                 "collide": _collide_image, "level0": _level0_image}
_COMPOSE_FAULTS = {"dense": _dense_compose, "unit": _unit_compose}

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
    ("idem", "inverse_axioms", (("bound", 4),)): (
        300, 86, 86, "4ffb668f521a48a0",
        ("x=(0,1,0)", "x x^-1 and x^-1 x idempotent", "not idempotent"),
        ("e=(4,4,1) f=(3,3,1)", "ef == fe", "(4,4,0) vs (4,4,1)"),
        "50 elements, 10 idempotents"),
    ("commute", "inverse_axioms", (("bound", 4),)): (
        300, 30, 30, "8e2f9463ce5f72d3",
        ("e=(0,0,0) f=(0,0,1)", "ef == fe", "(0,0,1) vs (0,0,0)"),
        ("e=(4,4,1) f=(4,4,0)", "ef == fe", "(4,4,0) vs (4,4,1)"),
        "50 elements, 10 idempotents"),
    ("dense", "order", (("bound", 4),)): (
        7583, 8, 8, "31f5d36bf4d105f2",
        ("a=(1,3,1)", "transitive up-set", "missing (0,2,0)"),
        ("t=3", "(t+1,t+1,1) <= (t+1,t+1,0)", "false"),
        "50 elements ordered"),
    ("idem", "order", (("bound", 6),)): (
        28971, 52, 52, "b3510a5ad44ed3e8",
        ("(0,2,0)", "reflexive", "not <= itself"),
        ("t=4", "(t+1,t+1,0) <= (t,t,1)", "false"),
        "98 elements ordered"),
    # recorded from the x-outermost associativity loop and the per-s order
    # table, which read every product row by row
    ("idem", "semigroup_axioms", (("bound", 4),)): (
        126175, 17980, 100, "8b2862555ce5b633",
        ("x=(0, 1, 0) y=(0, 1, 0) z=(0, 0, 0)", "(xy)z == x(yz)",
         "(0, 2, 1) vs (0, 2, 0)"),
        ("x=(0, 1, 0) y=(3, 0, 0) z=(0, 0, 1)", "(xy)z == x(yz)",
         "(2, 0, 0) vs (2, 0, 1)"),
        "125000 triples, 1175 auxiliary checks"),
    ("commute", "semigroup_axioms", (("bound", 4),)): (
        126175, 1510, 100, "db2052db33c70ac7",
        ("x=(0, 1, 0) y=(1, 0, 1) z=(0, 0, 0)", "(xy)z == x(yz)",
         "(0, 0, 0) vs (0, 0, 1)"),
        ("x=(1, 2, 0) y=(3, 3, 1) z=(2, 2, 0)", "(xy)z == x(yz)",
         "(2, 3, 1) vs (2, 3, 0)"),
        "125000 triples, 1175 auxiliary checks"),
    ("idem", "order", (("bound", 4),)): (
        7583, 31, 31, "f2ac9fa1c410d379",
        ("(0,2,0)", "reflexive", "not <= itself"),
        ("t=3", "(t+1,t+1,0) <= (t,t,1)", "false"),
        "50 elements ordered"),
    ("commute", "order", (("bound", 4),)): (
        7583, 15, 15, "a4580793b7f4dcf6",
        ("(0,0,0), (0,0,1)", "antisymmetry", "both directions hold"),
        ("(4,4,0) <= (4,4,1)", "False", "True"),
        "50 elements ordered"),
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
    ("e2", "composition_table", (("bound", 6), ("kmax", 4), ("ksym", 5))): (
        25813, 294, 100, "64172e57a94a1d07",
        ("a:2,0 . a:3,2 at (4, 0, 1)", "(27, 2, 1)", "(26, 2, 1)"),
        ("a:3,1 . a:3,2 at (5, 1, 1)", "(51, 14, 1)", "(50, 14, 1)"),
        "16^2 pointwise pairs, symbolic k <= 5"),
    ("level0", "endo_homomorphism", (("bound", 2), ("kmax", 3))): (
        2988, 81, 81, "8f7738f4a2bcae5a",
        ("e=a:3,2 x=(0, 1, 0) y=(1, 0, 0)", "(0, 0, 0)", "(0, 1, 0)"),
        ("a:3,0 vs a:3,2 at (1, 2, 0)", "same level-0 image", "differs"),
        "9 endomorphisms on 18 elements"),
    ("level0", "composition_table", (("bound", 3), ("kmax", 3), ("ksym", 4))): (
        2884, 40, 40, "53ae0b7c5d5e9182",
        ("a:3,2 . a:2,0 at (1, 0, 0)", "(6, 2, 0)", "(6, 0, 0)"),
        ("b:3,1 . a:3,2 at (0, 3, 1)", "(3, 31, 0)", "(3, 30, 0)"),
        "9^2 pointwise pairs, symbolic k <= 4"),
    ("collide", "endo_injectivity", (("bound", 8), ("kmax", 4))): (
        2592, 315, 100, "5a7151b0b878eff2",
        ("e=a:3,0", "injective", "(0, 1, 1) and (0, 2, 1) map to (0, 3, 1)"),
        ("e=a:3,1", "injective", "(5, 1, 1) and (5, 3, 1) map to (16, 4, 1)"),
        "16 endomorphisms on 162 elements"),
    ("dense", "classification_negative", (("kmax", 4), ("bound", 6))): (
        24, 0, 0, "4f53cda18c2baa0c", None, None,
        "24 homomorphism witnesses, 0 injectivity witnesses"),
    ("sparse", "classification_negative", (("kmax", 4), ("bound", 6))): (
        24, 0, 0, "4f53cda18c2baa0c", None, None,
        "20 homomorphism witnesses, 4 injectivity witnesses"),
}


# (fault, suite, kmax) -> the same fields, for the class sweeps under a wrong
# composition table
_PINNED_TABLE = {
    ("dense", "cancellative", 5): (
        6301, 1201, 100, "51df46911eb22aac",
        ("a=a:1,0 x=a:2,0 y=a:2,1", "ax != ay", "equal"),
        ("a=a:2,0 x=a:4,0 y=a:4,2", "xa != ya", "equal"),
        "15 preserving endomorphisms"),
    ("unit", "cancellative", 2): (
        37, 3, 3, "2285ddf4d81b2584",
        ("a=a:1,0 x=a:2,0 y=a:2,1", "ax != ay", "equal"),
        ("kmax=2", "cancellative helper agrees", "returned False"),
        "3 preserving endomorphisms"),
    ("unit", "cancellative", 5): (
        6301, 41, 41, "8d3a8df3a4f794a5",
        ("a=a:1,0 x=a:2,0 y=a:2,1", "ax != ay", "equal"),
        ("kmax=5", "cancellative helper agrees", "returned False"),
        "15 preserving endomorphisms"),
    ("dense", "ideal", 2): (
        9, 4, 4, "7e43481cb1687d11",
        ("b:2,1 . a:1,0", "collapsing", "a:2,1"),
        ("kmax=2", "ideal helper agrees", "returned False"),
        "1 collapsing endomorphisms absorbed"),
    ("dense", "ideal", 5): (
        501, 151, 100, "2686d7ae5724ab23",
        ("b:2,1 . a:1,0", "collapsing", "a:2,1"),
        ("b:5,4 . a:4,3", "collapsing", "a:20,16"),
        "10 collapsing endomorphisms absorbed"),
}


def _check_pinned(report, pinned):
    cases, total, recorded, digest, first, last, summary = pinned
    records = [(f.inputs, f.expected, f.got) for f in report.failures]
    assert (report.cases, report.failures_total, len(records)) == (cases, total, recorded)
    assert (records[:1], records[-1:]) == ([first] if first else [], [last] if last else [])
    assert _digest(report.failures) == digest
    assert report.summary == summary


class TestFaultInjection:
    """A deliberately wrong kernel must give the very reports the plain
    per-case loops gave: the same counts, and the same failure records in
    the same order, truncated at FAILURE_CAP."""

    @pytest.mark.parametrize("key", sorted(_PINNED), ids=lambda k: f"{k[0]}-{k[1]}")
    def test_report_pinned(self, monkeypatch, key):
        fault, suite, bounds = key
        if suite in ("semigroup_axioms", "inverse_axioms", "order"):
            _inject(monkeypatch, "_mul_raw", _MUL_FAULTS[fault])
        else:
            _inject(monkeypatch, "_raw_image", _IMAGE_FAULTS[fault])
        _check_pinned(run_suite(suite, **dict(bounds)), _PINNED[key])

    @pytest.mark.parametrize("key", sorted(_PINNED_TABLE),
                             ids=lambda k: f"{k[0]}-{k[1]}-kmax{k[2]}")
    def test_class_sweep_report_pinned(self, monkeypatch, key):
        # each composite is computed once per left factor and compared as a
        # row; the report must be the one the per-pair loop gave
        fault, suite, kmax = key
        # compose reads it from endomorphisms; the Green factor search binds
        # its own, and neither class sweep runs a search
        monkeypatch.setattr(_endo, "_compose_raw", _COMPOSE_FAULTS[fault])
        _check_pinned(run_suite(suite, kmax=kmax), _PINNED_TABLE[key])
        helper = {"cancellative": preserving_class_cancellative,
                  "ideal": collapsing_class_ideal}[suite]
        assert helper(kmax) is False

    def test_grouped_composites_hide_no_pair(self, monkeypatch):
        # composition soundness builds one image row per computed composite;
        # a pair whose composite is wrong lands in another group and must
        # still be reported, in pair order
        monkeypatch.setattr(_endo, "_compose_raw", _shared_compose)
        _check_pinned(run_suite("composition_table", bound=6, kmax=4, ksym=5), (
            25813, 922, 100, "a944bbfeb84c9d42",
            ("b:2,1 . a:2,1 at (0, 0, 1)", "(2, 2, 0)", "(3, 3, 0)"),
            ("b:2,1 . a:4,1 at (0, 1, 1)", "(4, 12, 0)", "(5, 13, 0)"),
            "16^2 pointwise pairs, symbolic k <= 5"))

    @pytest.mark.parametrize("fault, ksym, pinned", [
        (_wide_compose, 8, (
            0, 2616, 100, "e24f6e12d5dc0c54",
            ("a:4,0 . a:7,0", "in-range composite", "p must be >= 0"),
            ("a:4,3 . b:7,1", "in-range composite",
             "p must be >= 1: at p = 0 both levels would share images"),
            "stopped by ParameterRangeError")),
        (_collapsed_compose, 6, (
            0, 29, 29, "7495178db7d7fbc1",
            ("b:5,1 . a:6,1", "in-range composite",
             "p must be >= 1: at p = 0 both levels would share images"),
            ("bound=6 kmax=5 ksym=6", "the suite runs to completion",
             "ParameterRangeError: p must be >= 1: at p = 0 both levels would share images"),
            "stopped by ParameterRangeError"))], ids=["wide", "collapsed"])
    def test_refused_composites_logged_then_crash(self, monkeypatch, fault, ksym, pinned):
        # each distinct composite is validated once: the closure sweep must
        # still log every refused pair in pair order, and the collapse sweep
        # must still stop at the first refused pair it meets
        monkeypatch.setattr(_endo, "_compose_raw", fault)
        _check_pinned(run_suite("composition_table", bound=6, kmax=5, ksym=ksym), pinned)

    @pytest.mark.parametrize("suite, inputs, got", [
        ("composition_table", "bound=20 kmax=5 ksym=12", "p must be >= 0"),
        ("idempotents", "kmax=20", "p must be >= 0"),
        ("cancellative", "kmax=5", "p must be >= 0"),
        ("ideal", "kmax=5", "p must be >= 1: at p = 0 both levels would share images")])
    def test_crashed_suite_is_one_failure(self, monkeypatch, suite, inputs, got):
        # compose raises inside the suite, after its bounds were accepted; the
        # failures it logged before that stay in the report, ahead of the crash
        monkeypatch.setattr(_endo, "_compose_raw", _minus_compose)
        logged = 20 if suite == "ideal" else 0
        report = run_suite(suite)
        assert not report.passed and (report.cases, report.failures_total) == (0, logged + 1)
        assert report.failures[logged:] == [(inputs, "the suite runs to completion",
                                             f"ParameterRangeError: {got}")]
        assert report.summary == "stopped by ParameterRangeError"
        if logged:  # ideal: every b:k,p . a:1,0 and b:k,p . a:2,0, then the crash
            before = report.failures[:logged]
            assert {f.expected for f in before} == {"collapsing"}
            assert (before[0].inputs, before[-1].inputs) == ("b:2,1 . a:1,0", "b:5,4 . a:2,0")
            assert _digest(before) == "181ffdd5fc1be30b"

    def test_crashed_suite_does_not_stop_the_run(self, monkeypatch, capsys):
        monkeypatch.setattr(_endo, "_compose_raw", _minus_compose)
        assert cli.main(["verify", "--suite", "all", "--format", "json"]) == cli.EXIT_VERIFY
        out, err = capsys.readouterr()
        failed = [r["suite"] for r in json.loads(out) if not r["pass"]]
        assert failed == ["composition_table", "idempotents", "cancellative", "ideal"]
        assert err == ""

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


def test_composition_table_builds_one_row_per_distinct_composite(monkeypatch):
    # at the default bounds: 25 first-factor rows and one row for each of the
    # 258 distinct composites of the 625 pairs, each over the 882 elements of
    # the bound-20 truncation; then per pair one right-factor row over the
    # first factor's 441 images of level 1, and per right factor one row over
    # each of the 5 distinct level-0 image blocks of the first factors
    calls = _counted(monkeypatch, "_raw_image")
    report = run_suite("composition_table")
    assert report.passed and report.cases == 625 * 882 + 144 ** 2 + 66 ** 2
    assert calls[0] == (25 + 258) * 882 + (625 + 25 * 5) * 441 == 580356


def test_composition_table_composes_only_the_kmax_pairs(monkeypatch):
    # compose groups the 625 kmax-5 pairs; the ksym-12 closure and collapse
    # sweeps map _compose_raw over rows, and each of their 5,705 distinct
    # composites is range-checked once
    calls = {"compose": 0, "InjEndo": 0}

    def counter(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(_ov, name, counter(name, getattr(_ov, name)))
    assert run_suite("composition_table").passed
    assert calls == {"compose": 625, "InjEndo": 5705}


def _plain_homomorphism_failures(kind, k, p, elems):
    """Every (x, y, f(xy), f(x) f(y)) with f(xy) != f(x) f(y), in (x, y)
    order, as raw triples, from a nested scan through public mul."""
    elem = CANONICAL_FAMILY.elem
    trunc = [elem(*x) for x in elems]

    def image(x):
        return elem(*_endo._raw_image(kind, k, p, x.i, x.j, x.base))
    return [tuple(t[:3] for t in (x, y, image(mul(x, y)), mul(image(x), image(y))))
            for x in trunc for y in trunc if image(mul(x, y)) != mul(image(x), image(y))]


def _homomorphism_scan(kind, k, p, elems, pairs, blocks):
    images = _endo._image_row(kind, k, p, elems)
    return _endo._homomorphism_failures(kind, k, p, elems, pairs, images, blocks)


@pytest.mark.parametrize("fault", [None, "dense"])
def test_homomorphism_failures_match_a_plain_scan(monkeypatch, fault):
    # every mismatching (x, y, f(xy), f(x) f(y)), not only the first, in
    # (x, y) order, against a nested scan through public mul; under a wrong
    # closed form the scan applies that same form.  Every form runs through
    # one shared dict of level-0 product rows, as in a suite
    if fault:
        _inject(monkeypatch, "_raw_image", _IMAGE_FAULTS[fault])
    elems = Truncation(3).raw()
    pairs, blocks = _core._pair_table(elems), {}
    forms = [(kind, k, p) for kind in Kind for k in range(1, 5) for p in range(k + 3)]
    lengths = {}
    for kind, k, p in forms:
        got = list(_homomorphism_scan(kind, k, p, elems, pairs, blocks))
        assert got == _plain_homomorphism_failures(kind, k, p, elems), (kind, k, p)
        lengths[kind.value, k, p] = len(got)
    if fault:
        assert min(lengths.values()) > 1
    else:  # the raw form is a homomorphism for p < k, and for p = k if collapsing
        assert {f for f, n in lengths.items() if not n} == {
            (kind.value, k, p) for kind, k, p in forms if p < k + (kind is Kind.COLLAPSING)}
    assert 1 not in lengths.values()  # every failing form yields more than its first


@pytest.mark.parametrize("later", [(Kind.PRESERVING, 2, 3), (Kind.COLLAPSING, 2, 1),
                                   (Kind.PRESERVING, 2, 1)])
def test_a_scan_completes_rows_an_abandoned_scan_left(later):
    # a:2,2 fails in its second row; abandoned there, it leaves its level-0
    # block with two of its rows built.  A later form with the same k reads
    # those two, builds the rest, and yields exactly what a plain scan yields
    elems = Truncation(3).raw()
    pairs, blocks, half = _core._pair_table(elems), {}, len(elems) // 2
    assert next(_homomorphism_scan(Kind.PRESERVING, 2, 2, elems, pairs, blocks), None)
    [rows] = blocks.values()
    assert len(rows) == 2
    got = list(_homomorphism_scan(*later, elems, pairs, blocks))
    assert got == _plain_homomorphism_failures(*later, elems)
    assert len(blocks) == 1 and len(rows) == half


@pytest.mark.parametrize("bound, calls", [(4, 2600), (12, 114920)])
def test_a_single_scan_builds_only_the_rows_it_reads(monkeypatch, bound, calls):
    # a:2,2 fails in its second row: the pair table's n^2 products, then two
    # product rows of n, with n = 2 (bound + 1)^2 (50 and 338)
    count = _counted(monkeypatch, "_mul_raw")
    n = 2 * (bound + 1) ** 2
    assert homomorphism_counterexample(Kind.PRESERVING, 2, 2, bound)
    assert count[0] == n * n + 2 * n == calls


class _CheckLog(FailureLog):
    """A FailureLog that keeps only the records of one check: those whose
    (inputs, expected) the predicate `mine` accepts."""

    def __init__(self, mine):
        super().__init__()
        self.mine = mine

    def add(self, inputs, expected, got):
        if self.mine(inputs, expected):
            super().add(inputs, expected, got)


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
@pytest.mark.parametrize("fault", [None, *sorted(_MUL_FAULTS)])
def test_associativity_matches_a_plain_scan(monkeypatch, fault, bound):
    # the suite reads stored rows and columns, y outermost; its total and
    # records must be those of a nested (x, y, z) loop through the same kernel
    if fault:
        _inject(monkeypatch, "_mul_raw", _MUL_FAULTS[fault])
    mul_raw = _core._mul_raw
    elems = Truncation(bound).raw()
    want = FailureLog()
    for x in elems:
        for y in elems:
            for z in elems:
                xy_z, x_yz = mul_raw(*mul_raw(*x, *y), *z), mul_raw(*x, *mul_raw(*y, *z))
                if xy_z != x_yz:
                    want.add(f"x={x} y={y} z={z}", "(xy)z == x(yz)", f"{xy_z} vs {x_yz}")
    got = _CheckLog(lambda inputs, expected: expected == "(xy)z == x(yz)")
    _ov._suite_semigroup_axioms(got, bound)
    assert (got.total, got.recorded) == (want.total, want.recorded)
    if fault in ("dense", "idem", "commute") and bound:  # bound 0 holds no witness
        assert want.total


# the plain per-case loops, each over the raw truncation elems and, for the
# endomorphism checks, the forms

def _plain_identity(log, elems, forms):
    mul_raw = _core._mul_raw
    for x in elems:
        if mul_raw(0, 0, 0, *x) != x or mul_raw(*x, 0, 0, 0) != x:
            log.add(f"x={CANONICAL_FAMILY.elem(*x)}", "identity fixes x", "moved")


def _plain_projection(log, elems, forms):
    mul_raw = _core._mul_raw
    single = [(i, j, 0) for i, j, b in elems if b == 0]
    for x in single:
        for y in single:
            w, g = _core.mul_bicyclic(x[:2], y[:2]), mul_raw(*x, *y)
            if g != (*w, 0):
                log.add(f"({x[0]},{x[1]})*({y[0]},{y[1]}) over {{[0)}}", f"{w}",
                        f"({g[0]},{g[1]})")


def _plain_identity_fixed(log, elems, forms):
    for e in forms:
        image = _endo._raw_image(*e, 0, 0, 0)
        if image != (0, 0, 0):
            log.add(f"e={e}", "identity fixed", str(image))


def _plain_level0(log, elems, forms):
    for k in sorted({e.k for e in forms}):
        ref, *rest = [e for e in forms if e.k == k]
        for e in rest:
            for x in elems:
                if x[2] == 0 and _endo._raw_image(*ref, *x) != _endo._raw_image(*e, *x):
                    log.add(f"{ref} vs {e} at {x}", "same level-0 image", "differs")


#: (suite, check) -> (which records are the check's, its plain per-case
#: loop, and the faults under which it logs at bound 3); the suites'
#: associativity or homomorphism records fill FAILURE_CAP first, so the
#: pinned reports show none of these checks' records
_WALKS = {
    ("semigroup_axioms", "identity"): (
        lambda inputs, expected: expected == "identity fixes x", _plain_identity,
        _MUL_FAULTS, {"dense", "idem", "commute"}),
    ("semigroup_axioms", "projection"): (
        lambda inputs, expected: inputs.endswith(" over {[0)}"), _plain_projection,
        _MUL_FAULTS, {"idem"}),
    ("endo_homomorphism", "identity fixed"): (
        lambda inputs, expected: expected == "identity fixed", _plain_identity_fixed,
        _IMAGE_FAULTS, {"dense"}),
    ("endo_homomorphism", "level-0"): (
        lambda inputs, expected: expected == "same level-0 image", _plain_level0,
        _IMAGE_FAULTS, {"level0"}),
}


@pytest.mark.parametrize("fault, key", [
    (fault, key) for key, (_, _, faults, _) in _WALKS.items() for fault in [None, *faults]],
    ids=lambda v: "-".join(v) if isinstance(v, tuple) else str(v))
def test_capped_walks_match_a_plain_scan(monkeypatch, fault, key):
    # each row check records its failures by _mismatches, only for a row
    # that differs; its total and records must be those of a per-case loop
    # through the same kernel, in the same order
    suite, _ = key
    mine, plain, faults, logging = _WALKS[key]
    if fault:
        _inject(monkeypatch, "_mul_raw" if faults is _MUL_FAULTS else "_raw_image",
                faults[fault])
    bounds = {"bound": 3} if suite == "semigroup_axioms" else {"bound": 3, "kmax": 4}
    got, want = _CheckLog(mine), FailureLog()
    SUITES[suite].run(got, **bounds)
    plain(want, Truncation(3).raw(), _endo._forms(4))
    assert (got.total, got.recorded) == (want.total, want.recorded)
    assert bool(want.total) == (fault in logging)


@pytest.mark.parametrize("bound", [2, 3])
@pytest.mark.parametrize("fault", [None, *sorted(_MUL_FAULTS)])
def test_order_table_matches_a_plain_scan(monkeypatch, fault, bound):
    # one product column per distinct idempotent s^-1 s must give the table
    # a per-(s, t) loop of t (s^-1 s) == s gives through the same kernel
    if fault:
        _inject(monkeypatch, "_mul_raw", _MUL_FAULTS[fault])
    mul_raw = _core._mul_raw
    elems = Truncation(bound).raw()
    want = [tuple(mul_raw(*t, *mul_raw(j, i, b, i, j, b)) == (i, j, b) for t in elems)
            for i, j, b in elems]
    assert _ov._leq_table(elems) == want


def _count_kernel_calls(monkeypatch, suite, names=("_mul_raw", "_raw_image")):
    """What each named kernel computes in run_suite(suite) at its defaults,
    counted as _counted counts it: a value computed twice counts twice."""
    counts = [_counted(monkeypatch, name) for name in names]
    assert run_suite(suite).passed
    return tuple(count[0] for count in counts)


def test_classification_negative_builds_one_pair_table(monkeypatch):
    # bound 6: 98 elements, whose 98^2 products take 266 distinct values.
    # Each of the 24 forms maps the elements once, read by the homomorphism
    # law and the injectivity check, and the 168 other distinct products
    # once.  The 6 forms of each k share their 49 level-0 product rows over
    # the level-0 block: 20 forms fail in their second row, and the 4
    # collapsing p = k forms are homomorphisms, so per k the 49 block rows
    # are built once (49 * 49), the 5 failing forms add two rows over the
    # level-1 images (49 each), and the homomorphism adds 49 rows over
    # level 1 and 49 full rows of 98
    n, half, distinct = 98, 49, 266
    per_k = half * half + 5 * 2 * half + half * half + half * n
    assert _count_kernel_calls(monkeypatch, "classification_negative") == (
        n * n + 4 * per_k, 24 * distinct) == (49980, 6384)


def test_endo_homomorphism_kernel_calls(monkeypatch):
    # bound 8, kmax 5: 162 elements, whose products take 450 distinct values.
    # One pair table, then per form one image row over the elements and one
    # over the 288 other distinct products, and a product row per x: over
    # the 81 level-1 images for each of the 81 level-0 x, whose part over
    # the level-0 images is built once per distinct level-0 block (5, one
    # per k), and over all 162 images for each level-1 x.  The identity, both
    # rigidity checks and level-0 agreement read the form's image row
    n, half, forms, blocks = 162, 81, 25, 5
    rows = forms * (half * half + half * n) + blocks * half * half
    assert _count_kernel_calls(monkeypatch, "endo_homomorphism") == (
        n * n + rows, forms * 450) == (551124, 11250)


@pytest.mark.parametrize("suite", ["endo_homomorphism", "classification_negative"])
def test_homomorphism_sweeps_image_each_triple_once(monkeypatch, suite):
    # the homomorphism law reads the elements' images off the row its suite
    # built for the form, so no (form, triple) is mapped twice at the defaults
    seen = Counter()

    def recorded(kind, k, p, xs):
        xs = tuple(xs)
        seen.update((kind, k, p, x) for x in xs)
        return _REAL_IMAGE_ROW(kind, k, p, xs)
    _patch_everywhere(monkeypatch, "_image_row", recorded)
    assert run_suite(suite).passed
    assert seen and [key for key, n in seen.items() if n > 1] == []


def test_semigroup_axioms_kernel_calls(monkeypatch):
    # bound 8: 162 elements, whose products take 450 distinct values.  The
    # pair table is one row per x; associativity adds the rows and columns of
    # the 288 products that are not elements, and then come the 81^2
    # one-ray products.  Branch agreement and the identity read the pair
    # table, so they multiply nothing
    n, extra = 162, 450 - 162
    assert _count_kernel_calls(monkeypatch, "semigroup_axioms", ("_mul_raw", "mul")) == (
        n * n + 2 * n * extra + 81 * 81, 0) == (126117, 0)


def test_order_kernel_calls(monkeypatch):
    # bound 8: 162 elements, whose idempotents s^-1 s take 18 distinct
    # values.  One s^-1 s per s and one product column per distinct
    # idempotent; the cross-level pairs and the chain links read the table
    assert _count_kernel_calls(monkeypatch, "order", ("_mul_raw", "mul")) == (
        162 + 18 * 162, 0) == (3078, 0)


def test_inverse_axioms_kernel_calls(monkeypatch):
    # bound 8: 162 elements, 18 of them balanced.  x x^-1, x^-1 x and
    # (x x^-1) x are one row each, the squares of x, x x^-1 and x^-1 x one
    # row of 3 * 162, then one product row per idempotent; no Elem product
    assert _count_kernel_calls(monkeypatch, "inverse_axioms", ("_mul_raw", "mul")) == (
        6 * 162 + 18 ** 2, 0) == (1296, 0)
