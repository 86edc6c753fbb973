"""Exact arithmetic for bicyclic extension monoids over finite ray families,
the injective endomorphism algebra of the two-ray monoid, Green's relation
queries, and exhaustive verification suites."""

from .core_semigroup import (CANONICAL_FAMILY, Elem, Family, FamilyClosureError,
                   FamilyError, InductiveSet, MixedFamilyError, inverse,
                   is_idempotent, leq_natural, mul, mul_bicyclic)
from .endomorphisms import (GeneratorImages, InjEndo, Kind, ParameterRangeError,
                    UNIT, apply, classify_from_images, collapsing, compose,
                    enumerate_endos, growth_inequalities_hold,
                    homomorphism_counterexample, injectivity_collision,
                    is_endomorphism_on_truncation, preserving)
from .endo_monoid_green import (GreenQuery, RELATIONS, WitnessSearchResult,
                    collapsing_class_ideal, find_idempotents,
                    green_bounded_search, green_symbolic,
                    in_collapsing_class, in_preserving_class,
                    preserving_class_cancellative)
from .oracle_verify import (ALL_INVARIANTS, FAILURE_CAP, SUITES, Truncation,
                     UnknownSuiteError, VerifyReport, run_suite)

__version__ = "0.1.0"

__all__ = [
    "ALL_INVARIANTS", "CANONICAL_FAMILY", "Elem", "FAILURE_CAP", "Family",
    "FamilyClosureError", "FamilyError", "GeneratorImages", "GreenQuery",
    "InductiveSet", "InjEndo", "Kind", "MixedFamilyError",
    "ParameterRangeError", "RELATIONS", "SUITES", "Truncation", "UNIT",
    "UnknownSuiteError", "VerifyReport", "WitnessSearchResult", "apply",
    "classify_from_images", "collapsing", "collapsing_class_ideal", "compose",
    "enumerate_endos", "find_idempotents", "green_bounded_search",
    "green_symbolic", "growth_inequalities_hold",
    "homomorphism_counterexample", "in_collapsing_class",
    "in_preserving_class", "injectivity_collision", "inverse",
    "is_endomorphism_on_truncation", "is_idempotent", "leq_natural", "mul",
    "mul_bicyclic", "preserving", "preserving_class_cancellative", "run_suite",
]
