"""Endomorphism closed forms, composition, classification, and the
out-of-range disqualification oracles."""

import pytest

from bicext.core_semigroup import CANONICAL_FAMILY, Family, FamilyError, mul
from bicext.endomorphisms import (GeneratorImages, Kind, ParameterRangeError, UNIT,
                          _raw_image, apply, classify_from_images, collapsing,
                          compose, enumerate_endos, growth_inequalities_hold,
                          homomorphism_counterexample, injectivity_collision,
                          is_endomorphism_on_truncation, preserving)


def elem(i, j, base):
    return CANONICAL_FAMILY.elem(i, j, base)


def truncation(bound):
    return [elem(i, j, b) for b in (0, 1)
            for i in range(bound + 1) for j in range(bound + 1)]


class TestParameterValidation:
    def test_preserving_ranges(self):
        preserving(1, 0)
        preserving(5, 4)
        with pytest.raises(ParameterRangeError, match="k must be >= 1"):
            preserving(0, 0)
        with pytest.raises(ParameterRangeError, match="p must be >= 0"):
            preserving(2, -1)
        with pytest.raises(ParameterRangeError, match="p exceeds k-1"):
            preserving(2, 2)

    def test_collapsing_ranges(self):
        collapsing(2, 1)
        collapsing(5, 4)
        with pytest.raises(ParameterRangeError, match="k must be >= 2"):
            collapsing(1, 1)
        with pytest.raises(ParameterRangeError, match="p must be >= 1"):
            collapsing(2, 0)
        with pytest.raises(ParameterRangeError, match="p exceeds k-1"):
            collapsing(3, 3)

    def test_str_forms(self):
        assert str(preserving(2, 1)) == "a:2,1"
        assert str(collapsing(3, 2)) == "b:3,2"

    def test_unit(self):
        assert UNIT == preserving(1, 0)
        assert UNIT.kind is Kind.PRESERVING


class TestApply:
    def test_level0_images_scale(self):
        assert apply(preserving(2, 1), elem(1, 2, 0)) == elem(2, 4, 0)
        assert apply(collapsing(3, 2), elem(1, 2, 0)) == elem(3, 6, 0)

    def test_level1_images(self):
        # preserving keeps the ray, collapsing drops it to the full ray
        assert apply(preserving(2, 1), elem(1, 0, 1)) == elem(3, 1, 1)
        assert apply(preserving(2, 1), elem(3, 4, 1)) == elem(7, 9, 1)
        assert apply(collapsing(3, 2), elem(1, 0, 1)) == elem(5, 2, 0)

    def test_unit_fixes_everything(self):
        for x in truncation(4):
            assert apply(UNIT, x) == x

    def test_callable_form(self):
        assert preserving(2, 1)(elem(1, 0, 1)) == elem(3, 1, 1)

    def test_rejects_other_families(self):
        single = Family.from_bases(0)
        with pytest.raises(FamilyError):
            apply(preserving(2, 1), single.elem(1, 1, 0))

    def test_every_form_is_homomorphism_on_truncation(self):
        elems = truncation(5)
        for e in enumerate_endos(3):
            for x in elems:
                for y in elems:
                    assert apply(e, mul(x, y)) == mul(apply(e, x), apply(e, y))

    def test_every_form_is_injective_on_truncation(self):
        elems = truncation(6)
        for e in enumerate_endos(4):
            assert len({apply(e, x) for x in elems}) == len(elems)


class TestCompose:
    def test_frozen_table(self):
        # left factor applies first
        assert compose(preserving(2, 1), preserving(3, 2)) == preserving(6, 5)
        assert compose(preserving(2, 1), collapsing(3, 2)) == collapsing(6, 5)
        assert compose(collapsing(2, 1), preserving(3, 2)) == collapsing(6, 3)
        assert compose(collapsing(2, 1), collapsing(3, 2)) == collapsing(6, 3)
        assert compose(collapsing(2, 1), collapsing(3, 1)) == collapsing(6, 3)

    def test_collapsing_left_factor_erases_right_kind(self):
        for k1 in range(2, 5):
            for p1 in range(1, k1):
                for k2 in range(2, 5):
                    for p2 in range(1, k2):
                        b = collapsing(k1, p1)
                        assert compose(b, preserving(k2, p2)) == compose(b, collapsing(k2, p2))

    def test_unit_is_two_sided_identity(self):
        for e in enumerate_endos(4):
            assert compose(UNIT, e) == e
            assert compose(e, UNIT) == e

    def test_operator_matches_function(self):
        assert preserving(2, 1) * preserving(3, 2) == preserving(6, 5)

    def test_compose_matches_pointwise(self):
        elems = truncation(6)
        endos = enumerate_endos(3)
        for e1 in endos:
            for e2 in endos:
                c = compose(e1, e2)
                for x in elems:
                    assert apply(c, x) == apply(e2, apply(e1, x))

    def test_associative_and_closed(self):
        endos = enumerate_endos(3)
        for e1 in endos:
            for e2 in endos:
                for e3 in endos:
                    assert compose(compose(e1, e2), e3) == compose(e1, compose(e2, e3))


class TestClassify:
    def test_level1_image_gives_preserving(self):
        assert classify_from_images(GeneratorImages(2, 1, 1)) == preserving(2, 1)

    def test_level0_image_gives_collapsing(self):
        assert classify_from_images(GeneratorImages(3, 0, 2)) == collapsing(3, 2)

    def test_out_of_range_names_constraint(self):
        with pytest.raises(ParameterRangeError, match="p exceeds k-1"):
            classify_from_images(GeneratorImages(2, 1, 2))
        with pytest.raises(ParameterRangeError, match="p must be >= 1"):
            classify_from_images(GeneratorImages(2, 0, 0))

    def test_images_validation(self):
        with pytest.raises(ParameterRangeError, match="level must be 0 or 1"):
            GeneratorImages(2, 3, 1)
        with pytest.raises(ParameterRangeError):
            GeneratorImages(0, 1, 0)

    def test_classification_matches_generator_images(self):
        # the named generators are (1,1,[0)) and (0,0,[1))
        for e in enumerate_endos(4):
            im0 = apply(e, elem(1, 1, 0))
            im1 = apply(e, elem(0, 0, 1))
            assert im0 == elem(e.k, e.k, 0)
            level = 1 if e.kind is Kind.PRESERVING else 0
            assert im1 == elem(e.p, e.p, level)
            got = classify_from_images(GeneratorImages(im0.i, im1.base, im1.i))
            assert got == e


class TestEnumeration:
    def test_counts_are_squares(self):
        for kmax in range(1, 7):
            assert len(enumerate_endos(kmax)) == kmax * kmax

    def test_kmax_two_listing(self):
        assert enumerate_endos(2) == [
            preserving(1, 0), preserving(2, 0), preserving(2, 1), collapsing(2, 1)]

    def test_no_duplicates(self):
        endos = enumerate_endos(6)
        assert len(set(endos)) == len(endos)

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            enumerate_endos(0)


class TestOutOfRangeOracles:
    def test_in_range_forms_have_no_counterexample(self):
        for e in enumerate_endos(3):
            assert homomorphism_counterexample(e.kind, e.k, e.p, 6) is None
            assert is_endomorphism_on_truncation(e.kind, e.k, e.p, 6)
            assert injectivity_collision(e.kind, e.k, e.p, 6) is None

    def test_first_counterexample_is_stable(self):
        got = homomorphism_counterexample(Kind.PRESERVING, 2, 2, 6)
        assert got == (elem(0, 1, 0), elem(0, 0, 1))

    def test_first_counterexample_matches_a_plain_scan(self):
        # reference: the nested scan in truncation order through public mul
        def scan(kind, k, p, bound):
            def image(x):
                return elem(*_raw_image(kind, k, p, x.i, x.j, x.base))
            for x in truncation(bound):
                for y in truncation(bound):
                    if image(mul(x, y)) != mul(image(x), image(y)):
                        return x, y
            return None

        for kind in (Kind.PRESERVING, Kind.COLLAPSING):
            for k in range(1, 5):
                for p in range(k + 3):
                    assert homomorphism_counterexample(kind, k, p, 3) == scan(kind, k, p, 3)

    def test_preserving_at_p_equal_k_fails(self):
        for k in range(1, 5):
            assert homomorphism_counterexample(Kind.PRESERVING, k, k, 6) is not None

    def test_beyond_k_fails_for_both_kinds(self):
        for kind in (Kind.PRESERVING, Kind.COLLAPSING):
            for k in range(1, 5):
                for p in (k + 1, k + 2):
                    assert homomorphism_counterexample(kind, k, p, 6) is not None

    def test_collapsing_at_p_equal_k_is_a_genuine_homomorphism(self):
        # the collapsing closed form with p = k factors as the retraction
        # (i,j,[b)) -> (i+b, j+b, [0)) followed by k-scaling, a bona fide
        # homomorphism, so no counterexample exists at any bound; it is
        # excluded from the valid range because it is never injective
        for k in range(1, 5):
            assert homomorphism_counterexample(Kind.COLLAPSING, k, k, 8) is None
            collision = injectivity_collision(Kind.COLLAPSING, k, k, 8)
            assert collision == (elem(1, 1, 0), elem(0, 0, 1))

    def test_collision_pair_really_collides(self):
        for k in range(1, 5):
            x, y = injectivity_collision(Kind.COLLAPSING, k, k, 8)
            assert _raw_image(Kind.COLLAPSING, k, k, x.i, x.j, x.base) == \
                _raw_image(Kind.COLLAPSING, k, k, y.i, y.j, y.base) == (k, k, 0)


class TestGrowthInequalities:
    def test_multiplier_pinned_to_k(self):
        for kind in (Kind.PRESERVING, Kind.COLLAPSING):
            kmin = 1 if kind is Kind.PRESERVING else 2
            pmin = 0 if kind is Kind.PRESERVING else 1
            for k in range(kmin, 6):
                for p in range(pmin, k):
                    for s in range(1, k + 3):
                        assert growth_inequalities_hold(kind, k, p, s, 50) == (s == k)

    def test_short_horizons_can_admit_impostors(self):
        # s = k+1 survives t = 0 for the preserving kind at p = k-1
        assert growth_inequalities_hold(Kind.PRESERVING, 2, 1, 3, 0)
        assert not growth_inequalities_hold(Kind.PRESERVING, 2, 1, 3, 50)

    def test_frozen_horizon_cases(self):
        for kind in (Kind.PRESERVING, Kind.COLLAPSING):
            assert growth_inequalities_hold(kind, 3, 1, 3, 50)
            assert not growth_inequalities_hold(kind, 3, 1, 2, 50)
            assert not growth_inequalities_hold(kind, 3, 2, 4, 50)

    def test_validation(self):
        with pytest.raises(ValueError):
            growth_inequalities_hold(Kind.PRESERVING, 0, 0, 1, 10)
        with pytest.raises(ValueError):
            growth_inequalities_hold(Kind.PRESERVING, 2, 1, 0, 10)
        with pytest.raises(ValueError):
            growth_inequalities_hold(Kind.PRESERVING, 2, 1, 2, -1)
