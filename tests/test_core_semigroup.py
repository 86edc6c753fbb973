"""Rays, families, elements, the product, and the natural order."""

import copy
import pickle
from itertools import product
from types import SimpleNamespace

import pytest

from bicext.core_semigroup import (CANONICAL_FAMILY, Elem, Family, FamilyClosureError,
                         FamilyError, InductiveSet, MixedFamilyError, _columns,
                         _mul_raw, _pair_table, _product_col, _product_row,
                         _raw_truncation, inverse, is_idempotent, leq_natural, mul,
                         mul_bicyclic)


def elem(i, j, base):
    return CANONICAL_FAMILY.elem(i, j, base)


def family_error(bases):
    """Family's refusal message for these bases, or None if it accepts them."""
    try:
        Family.from_bases(*bases)
    except FamilyError as exc:
        return str(exc)
    return None


def exhaustive_family_error(bases):
    """The same answer from the definition: every max(b1, b2 - n) must be a
    member's base, tried for every pair of bases and every shift n up to the
    largest base, in O(m^3).  A negative base is refused before any rule."""
    negative = [b for b in bases if b < 0]
    if negative:
        return f"ray base must be non-negative, got {negative[0]}"
    if not bases:
        return "a family must contain at least one ray"
    if bases != sorted(set(bases)):
        return f"ray bases must be strictly increasing, got {bases}"
    if bases[0] != 0:
        return "a family must contain the full ray [0)"
    have = set(bases)
    for b1 in bases:
        for b2 in bases:
            for n in range(bases[-1] + 1):
                need = max(b1, b2 - n)
                if need not in have:
                    return f"not shift-closed: [{b1}) & (-{n}+[{b2})) = [{need}) is missing"
    return None


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

    @pytest.mark.parametrize("base", [0.5, 1.0, True, "1"])
    def test_non_integer_base_rejected(self, base):
        with pytest.raises(ValueError, match="ray base must be an integer"):
            InductiveSet(base)

    def test_mul_raw_base_is_shift_and_intersect(self):
        # (d + [a)) & [b) = [max(a+d, b)), with d = j1 - i2 <= 0 in the
        # first branch and d = i2 - j1 <= 0 on the right ray in the second
        assert _mul_raw(0, 0, 1, 2, 0, 0)[2] == 0  # (-2 + [1)) & [0)
        assert _mul_raw(0, 0, 0, 1, 0, 1)[2] == 1  # (-1 + [0)) & [1)
        assert _mul_raw(0, 0, 3, 1, 0, 0)[2] == 2  # (-1 + [3)) & [0)
        assert _mul_raw(0, 0, 0, 0, 0, 0)[2] == 0  # [0) & [0)
        assert _mul_raw(0, 2, 1, 0, 0, 3)[2] == 1  # [1) & (-2 + [3))
        assert _mul_raw(0, 1, 0, 0, 0, 4)[2] == 3  # [0) & (-1 + [4))

    def test_inductivity_characterization(self):
        # a ray is inductive: (-1 + F) & F = F, pointwise
        span = range(30)
        for base in range(6):
            ray = InductiveSet(base)
            assert {n for n in span if n + 1 in ray and n in ray} == {
                n for n in span if n in ray}

    @pytest.mark.parametrize("branch", ["j1 <= i2", "j1 >= i2"])
    def test_mul_raw_base_agrees_with_pointwise_sets(self, branch):
        # the base of x y is the ray (d + [a)) & [b), d <= 0, as a set of
        # numbers: the first branch shifts x's ray by j1 - i2, and the
        # second shifts y's ray by i2 - j1 and intersects it with x's
        span = range(30)
        for a in range(4):
            for d in range(-3, 1):
                for b in range(4):
                    if branch == "j1 <= i2":
                        got = _mul_raw(0, 0, a, -d, 0, b)[2]
                    else:
                        got = _mul_raw(0, -d, b, 0, 0, a)[2]
                    want = {n for n in span if n - d in InductiveSet(a)} & set(
                        n for n in span if n in InductiveSet(b))
                    assert {n for n in span if n in InductiveSet(got)} == want


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

    def test_validation_matches_the_exhaustive_shift_closure_check(self):
        # every base set {0} u S with S a subset of {1..8}, then unsorted,
        # duplicate and [0)-less inputs: same verdict, same message
        subsets = [[0] + [b for b in range(1, 9) if mask >> (b - 1) & 1]
                   for mask in range(256)]
        odd = [[], [1, 0], [0, 2, 1], [3, 1, 0], [0, 0], [0, 1, 1, 2], [1], [2, 3],
               [0, -1], [-1, 0], [1, 0, -1], [0, -1, -2], [-1], [3, -2, 0]]
        for bases in subsets + odd:
            assert family_error(bases) == exhaustive_family_error(bases), bases
        assert sum(family_error(bases) is None for bases in subsets) == 9

    def test_negative_base_is_a_family_error(self):
        for bases in ((0, -1), (-1, 0), (1, 0, -1)):
            with pytest.raises(FamilyError, match="^ray base must be non-negative, got -1$"):
                Family.from_bases(*bases)

    def test_non_integer_bases_are_family_errors(self):
        # bool is an int subclass but not a base: (0, True) would print as [True)
        for bases, got in (((0.0, 1.0), "0.0"), ((0, 1.0), "1.0"), (("0",), "'0'"),
                           ((0, True), "True"), ((False,), "False")):
            with pytest.raises(FamilyError, match=rf"^ray bases must be integers, got {got}$"):
                Family.from_bases(*bases)

    def test_index_for_base(self):
        assert CANONICAL_FAMILY.index_for_base(0) == 0
        assert CANONICAL_FAMILY.index_for_base(1) == 1
        for base in (7, 2, -1):
            with pytest.raises(FamilyClosureError,
                               match=rf"^no ray \[{base}\) in family \{{\[0\),\[1\)\}}$"):
                CANONICAL_FAMILY.index_for_base(base)

    def test_from_bases_interns_one_family_per_top_base(self):
        assert Family.from_bases(0, 1) is CANONICAL_FAMILY
        for m in range(6):
            a, b = Family.from_bases(*range(m + 1)), Family.from_bases(*range(m + 1))
            assert a is b and a == b and hash(a) == hash(b)
            assert (a.m, len(a)) == (m, m + 1)
            assert str(a) == "{" + ",".join(f"[{t})" for t in range(m + 1)) + "}"
        assert Family.from_bases(0) != CANONICAL_FAMILY

    def test_sets_and_ray_are_inductive_sets(self):
        fam = Family.from_bases(0, 1, 2)
        assert fam.sets == (InductiveSet(0), InductiveSet(1), InductiveSet(2))
        assert all(type(s) is InductiveSet for s in fam.sets)
        ray = fam.elem(1, 0, 2).ray
        assert type(ray) is InductiveSet and ray == fam.sets[2]

    def test_family_and_elem_are_immutable(self):
        with pytest.raises(AttributeError):
            CANONICAL_FAMILY.m = 3
        with pytest.raises(AttributeError):
            del CANONICAL_FAMILY.m
        x = elem(1, 2, 1)
        for name in ("i", "j", "f", "base", "family"):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
        assert CANONICAL_FAMILY.m == 1 and x == elem(1, 2, 1)

    def test_copies_and_pickles_keep_the_interned_family(self):
        x = elem(1, 2, 1)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is Elem and y == x and y.family is CANONICAL_FAMILY
        assert copy.deepcopy(CANONICAL_FAMILY) is CANONICAL_FAMILY

    def test_elem_constructor_names_ray_by_base(self):
        x = CANONICAL_FAMILY.elem(2, 3, 1)
        assert (x.i, x.j, x.f, x.base) == (2, 3, 1, 1)
        for b in range(4):  # the ray index is the base in every family
            x = Family.from_bases(*range(4)).elem(2, 1, b)
            assert x.f == x.base == b


class TestElem:
    def test_validation(self):
        with pytest.raises(ValueError, match=r"^coordinates must be non-negative, got \(-1,0\)$"):
            Elem(-1, 0, 0, CANONICAL_FAMILY)
        with pytest.raises(ValueError, match=r"^coordinates must be non-negative, got \(0,-2\)$"):
            Elem(0, -2, 0, CANONICAL_FAMILY)
        with pytest.raises(ValueError,
                           match=r"^ray index 5 out of range for family \{\[0\),\[1\)\}$"):
            Elem(0, 0, 5, CANONICAL_FAMILY)
        with pytest.raises(ValueError, match="^ray index -1 out of range"):
            Elem(0, 0, -1, CANONICAL_FAMILY)

    def test_non_integer_coordinates_are_refused(self):
        for args, got in (((0.5, 1, 0), "0.5,1,0"), ((1, "2", 0), "1,'2',0"),
                          ((1, 1, 1.0), "1,1,1.0"), ((True, 0, 0), "True,0,0")):
            with pytest.raises(ValueError, match=rf"^coordinates must be integers, got \({got}\)$"):
                Elem(*args, CANONICAL_FAMILY)
        with pytest.raises(ValueError, match="^coordinates must be integers"):
            CANONICAL_FAMILY.elem(1, 2, 1.0)

    @pytest.mark.parametrize("family, name", [
        ("x", "str"), (None, "NoneType"), (1, "int"), (SimpleNamespace(m=1), "SimpleNamespace")])
    def test_non_family_is_refused(self, family, name):
        # checked before the coordinates, and by type: an object with an m is no family
        for args in ((1, 2, 0), (-1, 0, 0)):
            with pytest.raises(FamilyError, match=rf"^family must be a Family, got {name}$"):
                Elem(*args, family)

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

    def test_products_and_inverses_are_valid_elements(self):
        # mul and inverse do not re-validate what they build: every result
        # must equal the element the validating constructor builds from it
        for m in range(4):
            fam = Family.from_bases(*range(m + 1))
            elems = [fam.elem(i, j, b) for b in range(m + 1) for i in range(5) for j in range(5)]
            for x in elems:
                for z in [inverse(x)] + [mul(x, y) for y in elems]:
                    assert type(z) is Elem and z.family is fam and 0 <= z.base <= m
                    assert z == Elem(z.i, z.j, z.base, fam)

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

    def test_mul_raw_matches_the_formula_written_with_max(self):
        ties = 0
        for i1, j1, i2, j2 in product(range(7), repeat=4):
            for b1, b2 in product(range(4), repeat=2):
                if j1 <= i2:
                    want = (i1 - j1 + i2, j2, max(b1 + j1 - i2, b2))
                    ties += b1 + j1 - i2 == b2
                else:
                    want = (i1, j1 - i2 + j2, max(b2 + i2 - j1, b1))
                    ties += b2 + i2 - j1 == b1
                assert _mul_raw(i1, j1, b1, i2, j2, b2) == want
        assert ties > 0

    def test_three_ray_products_follow_the_shift_and_intersect_formula(self):
        # with rays up to [2) the arm (i2-j1)+F2 of a j1 > i2 product can hold
        # the larger base, which it never does when every base is 0 or 1
        fam = Family.from_bases(0, 1, 2)
        window = range(16)  # room for every shift a bound-3 product makes

        def ray(base):
            return {n for n in window if n >= base}

        def shift(d, s):
            return {n + d for n in s}
        elems = [fam.elem(i, j, b) for b in range(3) for i in range(4) for j in range(4)]
        products = {}
        for x, y in product(elems, repeat=2):
            (i1, j1, b1), (i2, j2, b2) = x[:3], y[:3]
            if j1 <= i2:  # the module docstring's formula, on sets
                ij, ray_part = (i1 - j1 + i2, j2), shift(j1 - i2, ray(b1)) & ray(b2)
            else:
                ij, ray_part = (i1, j1 - i2 + j2), ray(b1) & shift(i2 - j1, ray(b2))
            z = products[x, y] = mul(x, y)
            assert ((z.i, z.j), min(ray_part)) == (ij, z.base), (x, y)
            assert ray_part == set(range(z.base, max(ray_part) + 1)), (x, y)
        assert {z.base for z in products.values()} == {0, 1, 2}
        bad = [(x, y, z) for x, y, z in product(elems, repeat=3)
               if mul(products[x, y], z) != mul(x, products[y, z])]
        assert bad == []

    def test_mul_raw_calls_no_builtin_max(self):
        # a call to max costs more than the rest of the kernel
        assert "max" not in _mul_raw.__code__.co_names

    def test_product_row_matches_per_case_products(self):
        ys = [y for y, _, _ in self.FROZEN] + [want for _, _, want in self.FROZEN]
        for x, _, _ in self.FROZEN:
            assert _product_row(x, _columns(ys)) == tuple(_mul_raw(*x, *y) for y in ys)

    def test_empty_columns_give_an_empty_row(self):
        # three empty columns, not none: map over no columns would never stop
        assert _columns([]) == [(), (), ()]
        assert _product_row((1, 2, 0), _columns([])) == ()

    def test_product_col_matches_per_case_products(self):
        # the right-hand twin of _product_row: x * y for every x, y fixed
        xs = [x for x, _, _ in self.FROZEN] + [want for _, _, want in self.FROZEN]
        for _, y, _ in self.FROZEN:
            assert _product_col(_columns(xs), y) == tuple(_mul_raw(*x, *y) for x in xs)
        assert _product_col(_columns([]), (1, 2, 0)) == ()

    @pytest.mark.parametrize("elems", [_raw_truncation(3), _raw_truncation(2)[::-1],
                                       [(2, 0, 1), (0, 3, 0), (2, 0, 1)]])
    def test_pair_table_indexes_every_product_after_the_elements(self, elems):
        # semigroup_axioms reads the rows of the elements themselves off the
        # pair table, so the distinct elements take the first ids, in order
        pid, distinct = _pair_table(elems)
        firsts = list(dict.fromkeys(elems))
        assert distinct[:len(firsts)] == firsts and len(set(distinct)) == len(distinct)
        assert [[distinct[d] for d in row] for row in pid] == [
            [_mul_raw(*x, *y) for y in elems] for x in elems]
        assert set(distinct) == {*elems, *(_mul_raw(*x, *y) for x in elems for y in elems)}

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
