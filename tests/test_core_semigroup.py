"""Rays, families, elements, the product, and the natural order."""

import pytest

from bicext.core_semigroup import (CANONICAL_FAMILY, Elem, Family, FamilyClosureError,
                         FamilyError, InductiveSet, MixedFamilyError, _columns,
                         _mul_raw, _product_row, intersect_shifted, inverse,
                         is_idempotent, leq_natural, mul, mul_bicyclic)


def elem(i, j, base):
    return CANONICAL_FAMILY.elem(i, j, base)


class TestInductiveSet:
    def test_membership(self):
        ray = InductiveSet(3)
        assert 3 in ray and 100 in ray
        assert 2 not in ray and 0 not in ray

    def test_full_ray_contains_everything_nonnegative(self):
        assert all(n in InductiveSet(0) for n in range(10))

    def test_str(self):
        assert str(InductiveSet(0)) == "[0)"
        assert str(InductiveSet(7)) == "[7)"

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            InductiveSet(-1)

    def test_intersect_shifted(self):
        # (d + [a)) & [b) = [max(a+d, b))
        assert intersect_shifted(InductiveSet(0), 2, InductiveSet(1)) == InductiveSet(2)
        assert intersect_shifted(InductiveSet(1), -2, InductiveSet(0)) == InductiveSet(0)
        assert intersect_shifted(InductiveSet(1), 3, InductiveSet(0)) == InductiveSet(4)
        assert intersect_shifted(InductiveSet(0), 0, InductiveSet(0)) == InductiveSet(0)
        assert intersect_shifted(InductiveSet(0), -1, InductiveSet(1)) == InductiveSet(1)

    def test_inductivity_characterization(self):
        # a ray is inductive: (-1 + F) & F = F
        for base in range(6):
            ray = InductiveSet(base)
            assert intersect_shifted(ray, -1, ray) == ray

    def test_intersect_shifted_agrees_with_pointwise_sets(self):
        span = range(30)
        for a in range(4):
            for d in range(-3, 4):
                for b in range(4):
                    got = intersect_shifted(InductiveSet(a), d, InductiveSet(b))
                    want = {n for n in span if n - d in InductiveSet(a)} & set(
                        n for n in span if n in InductiveSet(b))
                    assert {n for n in span if n in got} == want


class TestFamily:
    def test_canonical_family(self):
        assert len(CANONICAL_FAMILY) == 2
        assert str(CANONICAL_FAMILY) == "{[0),[1)}"

    def test_contiguous_blocks_are_valid(self):
        for m in range(5):
            fam = Family.from_bases(*range(m + 1))
            assert len(fam) == m + 1

    def test_must_contain_full_ray(self):
        with pytest.raises(FamilyError):
            Family.from_bases(1)
        with pytest.raises(FamilyError):
            Family.from_bases(1, 2)

    def test_gap_breaks_shift_closure(self):
        with pytest.raises(FamilyError):
            Family.from_bases(0, 2)
        with pytest.raises(FamilyError):
            Family.from_bases(0, 1, 3)

    def test_empty_and_unsorted_rejected(self):
        with pytest.raises(FamilyError):
            Family.from_bases()
        with pytest.raises(FamilyError):
            Family.from_bases(0, 0)

    def test_index_for_base(self):
        assert CANONICAL_FAMILY.index_for_base(0) == 0
        assert CANONICAL_FAMILY.index_for_base(1) == 1
        with pytest.raises(FamilyClosureError):
            CANONICAL_FAMILY.index_for_base(7)

    def test_elem_constructor_names_ray_by_base(self):
        x = CANONICAL_FAMILY.elem(2, 3, 1)
        assert (x.i, x.j, x.f, x.base) == (2, 3, 1, 1)


class TestElem:
    def test_validation(self):
        with pytest.raises(ValueError):
            Elem(-1, 0, 0, CANONICAL_FAMILY)
        with pytest.raises(ValueError):
            Elem(0, -2, 0, CANONICAL_FAMILY)
        with pytest.raises(ValueError):
            Elem(0, 0, 5, CANONICAL_FAMILY)

    def test_str(self):
        assert str(elem(1, 4, 0)) == "(1,4,0)"
        assert str(elem(0, 0, 1)) == "(0,0,1)"

    def test_ray_property(self):
        assert elem(0, 0, 1).ray == InductiveSet(1)


class TestProduct:
    # hand evaluations of both branch formulas
    FROZEN = [
        ((1, 2, 0), (1, 3, 1), (1, 4, 0)),
        ((2, 1, 1), (3, 4, 0), (4, 4, 0)),
        ((2, 1, 0), (1, 4, 1), (2, 4, 1)),
        ((0, 3, 1), (1, 2, 0), (0, 4, 1)),
        ((0, 1, 0), (1, 0, 1), (0, 0, 1)),
        ((0, 1, 1), (1, 0, 0), (0, 0, 1)),
        ((5, 0, 1), (0, 0, 0), (5, 0, 1)),
        ((0, 0, 0), (2, 3, 1), (2, 3, 1)),
        ((2, 2, 1), (2, 2, 0), (2, 2, 1)),
    ]

    @pytest.mark.parametrize("x,y,want", FROZEN)
    def test_frozen_products(self, x, y, want):
        assert mul(elem(*x), elem(*y)) == elem(*want)

    def test_operator_matches_function(self):
        assert elem(1, 2, 0) * elem(1, 3, 1) == elem(1, 4, 0)

    def test_associativity_spot_check(self):
        x, y, z = elem(1, 2, 0), elem(1, 3, 1), elem(2, 0, 1)
        assert mul(mul(x, y), z) == mul(x, mul(y, z)) == elem(1, 2, 0)

    def test_identity(self):
        e = elem(0, 0, 0)
        for i in range(4):
            for j in range(4):
                for b in (0, 1):
                    x = elem(i, j, b)
                    assert mul(e, x) == x and mul(x, e) == x

    def test_mixed_families_rejected(self):
        single = Family.from_bases(0)
        with pytest.raises(MixedFamilyError):
            mul(elem(0, 0, 0), single.elem(0, 0, 0))

    def test_first_coordinates_follow_bicyclic_product(self):
        for i1 in range(4):
            for j1 in range(4):
                for i2 in range(4):
                    for j2 in range(4):
                        for b1 in (0, 1):
                            for b2 in (0, 1):
                                got = mul(elem(i1, j1, b1), elem(i2, j2, b2))
                                assert (got.i, got.j) == mul_bicyclic((i1, j1), (i2, j2))

    def test_ray_base_never_below_operands_when_aligned(self):
        # at j1 == i2 the product ray contains both operand rays
        for j in range(4):
            for b1 in (0, 1):
                for b2 in (0, 1):
                    got = mul(elem(2, j, b1), elem(j, 1, b2))
                    assert got.base == max(b1, b2)

    def test_product_row_matches_per_case_products(self):
        ys = [y for y, _, _ in self.FROZEN] + [want for _, _, want in self.FROZEN]
        for x, _, _ in self.FROZEN:
            assert _product_row(x, _columns(ys)) == tuple(_mul_raw(*x, *y) for y in ys)

    def test_empty_columns_give_an_empty_row(self):
        # three empty columns, not none: map over no columns would never stop
        assert _columns([]) == [(), (), ()]
        assert _product_row((1, 2, 0), _columns([])) == ()

    def test_mul_bicyclic_frozen(self):
        assert mul_bicyclic((1, 2), (3, 4)) == (2, 4)
        assert mul_bicyclic((3, 1), (1, 2)) == (3, 2)
        assert mul_bicyclic((2, 2), (2, 2)) == (2, 2)
        assert mul_bicyclic((0, 5), (2, 0)) == (0, 3)


class TestInverseStructure:
    def test_inverse_swaps_indices(self):
        assert inverse(elem(2, 5, 1)) == elem(5, 2, 1)

    def test_sandwich_identities(self):
        for i in range(4):
            for j in range(4):
                for b in (0, 1):
                    x = elem(i, j, b)
                    assert mul(mul(x, inverse(x)), x) == x
                    assert mul(mul(inverse(x), x), inverse(x)) == inverse(x)

    def test_idempotents_are_balanced(self):
        for i in range(5):
            for j in range(5):
                for b in (0, 1):
                    assert is_idempotent(elem(i, j, b)) == (i == j)


class TestNaturalOrder:
    def test_frozen_comparisons(self):
        assert leq_natural(elem(2, 2, 0), elem(1, 1, 1))
        assert not leq_natural(elem(1, 1, 0), elem(1, 1, 1))
        assert leq_natural(elem(2, 2, 1), elem(2, 2, 0))
        assert leq_natural(elem(3, 1, 0), elem(2, 0, 0))
        assert not leq_natural(elem(2, 0, 0), elem(3, 1, 0))

    def test_cross_level_law(self):
        # (k,k,[0)) below (p,p,[1)) exactly when p <= k-1
        for k in range(6):
            for p in range(6):
                assert leq_natural(elem(k, k, 0), elem(p, p, 1)) == (p <= k - 1)

    def test_descending_idempotent_chain(self):
        for t in range(5):
            assert leq_natural(elem(t + 1, t + 1, 1), elem(t + 1, t + 1, 0))
            assert leq_natural(elem(t + 1, t + 1, 0), elem(t, t, 1))

    def test_partial_order_on_small_truncation(self):
        elems = [elem(i, j, b) for b in (0, 1) for i in range(4) for j in range(4)]
        for s in elems:
            assert leq_natural(s, s)
        for s in elems:
            for t in elems:
                if s != t and leq_natural(s, t):
                    assert not leq_natural(t, s)
                for u in elems:
                    if leq_natural(s, t) and leq_natural(t, u):
                        assert leq_natural(s, u)
