"""Value types: every record keeps the repr it had as a dataclass, behaves as
the plain tuple of its fields and survives copy and pickle; a validated one
refuses bad fields by every way in.  Also the shared integer-bound messages
and which modules importing the CLI loads."""

import copy
import pickle
import subprocess
import sys

import pytest

from bicext.core_semigroup import CANONICAL_FAMILY, Elem, InductiveSet
from bicext.endo_monoid_green import GreenQuery, WitnessSearchResult
from bicext.endomorphisms import (UNIT, GeneratorImages, InjEndo, Kind, enumerate_endos,
                                  homomorphism_counterexample, preserving)
from bicext.oracle_verify import Failure, SuiteSpec, Truncation, VerifyReport, run_suite

# each record with its repr, as the same value printed before it was a tuple
RECORDS = [
    (InductiveSet(3), "InductiveSet(base=3)"),
    (GeneratorImages(2, 1, 1), "GeneratorImages(k=2, level=1, p=1)"),
    (GreenQuery("R", preserving(2, 1), UNIT),
     "GreenQuery(relation='R', left=a:2,1, right=a:1,0, kmax=8)"),
    (WitnessSearchResult(True, (UNIT,), 6),
     "WitnessSearchResult(related=True, witnesses=(a:1,0,), exhausted_bound=6)"),
    (VerifyReport("idempotents", {"kmax": 3}, 9, [Failure("x", "y", "z")], 1, 1.5,
                  "9 endomorphisms scanned"),
     "VerifyReport(suite='idempotents', bounds={'kmax': 3}, cases=9, "
     "failures=[Failure(inputs='x', expected='y', got='z')], failures_total=1, "
     "elapsed_ms=1.5, summary='9 endomorphisms scanned')"),
    (Failure("x=(0,0,0)", "a", "b"), "Failure(inputs='x=(0,0,0)', expected='a', got='b')"),
    (SuiteSpec(len, ("a", "b"), {"bound": 1}),
     "SuiteSpec(run=<built-in function len>, covers=('a', 'b'), defaults={'bound': 1})"),
    (CANONICAL_FAMILY.elem(1, 2, 0), "(1, 2, 0, {[0),[1)})"),
    (preserving(2, 1), "a:2,1"),
]

# (class, fields one of its checks refuses, the message)
BAD = [
    (InductiveSet, (-1,), "ray base must be non-negative"),
    (InductiveSet, (1.0,), "ray base must be an integer"),
    (GeneratorImages, (2, 3, 1), "level must be 0 or 1"),
    (GeneratorImages, (2, 1, True), "k, level and p must be integers"),
    (GreenQuery, ("K", UNIT, UNIT, 4), "relation must be one of"),
    (GreenQuery, ("R", (Kind.PRESERVING, 1, 0), UNIT, 4), "left and right must be InjEndo"),
    (GreenQuery, ("R", UNIT, UNIT, 0), "kmax must be >= 1"),
    (Elem, (1, -1, 0, CANONICAL_FAMILY), "coordinates must be non-negative"),
    (Elem, (1, 1, 2, CANONICAL_FAMILY), "ray index 2 out of range"),
    (InjEndo, (Kind.PRESERVING, 2, 5), "p exceeds k-1"),
    (InjEndo, ("a", 2, 1), "kind must be a Kind"),
]


def _hash(value):
    try:
        return hash(value)
    except TypeError:  # a record holding a dict or list is unhashable, as its tuple is
        return TypeError


@pytest.mark.parametrize("value, text", RECORDS, ids=lambda v: type(v).__name__)
class TestRecordContract:
    def test_repr_unchanged(self, value, text):
        assert repr(value) == text

    def test_equal_and_hashed_as_the_plain_tuple(self, value, text):
        plain = tuple(value)
        assert value == plain and not value != plain
        assert _hash(value) == _hash(plain)

    def test_copy_and_pickle_round_trip(self, value, text):
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and repr(twin) == text

    def test_fields_read_only(self, value, text):
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
        with pytest.raises(AttributeError):
            value.extra = 1  # no instance dict


@pytest.mark.parametrize("cls, fields, message", BAD,
                         ids=[f"{cls.__name__}-{message}" for cls, _, message in BAD])
class TestValidatedRecordsRefuseEveryWayIn:
    def test_constructor(self, cls, fields, message):
        with pytest.raises(ValueError, match=message):
            cls(*fields)

    def test_make_and_replace(self, cls, fields, message):
        good = next(v for v, _ in RECORDS if type(v) is cls)
        with pytest.raises(ValueError, match=message):
            cls._make(fields)
        with pytest.raises(ValueError, match=message):
            good._replace(**dict(zip(cls._fields, fields)))

    def test_copy_and_unpickle(self, cls, fields, message):
        forged = tuple.__new__(cls, fields)  # skips __new__, as no public way does
        with pytest.raises(ValueError, match=message):
            copy.copy(forged)
        with pytest.raises(ValueError, match=message):
            pickle.loads(pickle.dumps(forged))


class TestTruncation:
    # not a tuple: its len and iteration are its elements
    def test_repr_unchanged(self):
        assert repr(Truncation(3)) == "Truncation(bound=3, family={[0),[1)})"

    def test_copy_and_pickle_round_trip(self):
        t = Truncation(2)
        for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert type(twin) is Truncation and twin.bound == 2
            assert twin.family is CANONICAL_FAMILY and list(twin) == list(t)

    def test_fields_read_only(self):
        t = Truncation(2)
        for field in ("bound", "family"):
            with pytest.raises(AttributeError):
                setattr(t, field, None)
        with pytest.raises(AttributeError):
            t.extra = 1

    def test_unpickling_refuses_a_bad_bound(self):
        forged = object.__new__(Truncation)
        forged._bound, forged._family = -1, CANONICAL_FAMILY
        with pytest.raises(ValueError, match="bound must be >= 0"):
            pickle.loads(pickle.dumps(forged))


@pytest.mark.parametrize("name, minimum, call", [
    ("kmax", 1, lambda v: GreenQuery("R", UNIT, UNIT, v)),
    ("kmax", 1, enumerate_endos),
    ("bound", 0, lambda v: homomorphism_counterexample(Kind.PRESERVING, 2, 1, v)),
    ("bound", 0, Truncation),
    ("tmax", 0, lambda v: run_suite("growth_inequalities", tmax=v)),
    ("ksym", 1, lambda v: run_suite("composition_table", ksym=v))])
def test_integer_bound_messages(name, minimum, call):
    with pytest.raises(ValueError) as err:
        call(2.0)
    assert str(err.value) == f"{name} must be an integer, got 2.0"
    with pytest.raises(ValueError) as err:
        call(minimum - 1)
    assert str(err.value) == f"{name} must be >= {minimum}"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # against the modules loaded before the import: site loads its own
    code = ("import sys; before = set(sys.modules); import bicext.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "[]\n"
