"""Endomorphism closed forms, composition, classification, and the
out-of-range disqualification oracles."""

import copy
import pickle

import pytest

import bicext.endomorphisms as _endo
from bicext.core_semigroup import CANONICAL_FAMILY, Elem, Family, FamilyError, mul
from bicext.endomorphisms import (GeneratorImages, InjEndo, Kind, ParameterRangeError, UNIT,
                          _compose_raw, _compose_row, _image_row, _raw_image, apply,
                          classify_from_images, collapsing, compose, enumerate_endos,
                          growth_inequalities_hold, homomorphism_counterexample,
                          injectivity_collision, is_endomorphism_on_truncation, preserving)
from bicext.oracle_verify import Truncation
from test_core_semigroup import code_names


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


# the range messages InjEndo gave as a frozen dataclass, one letter a case:
# rows k = -1..6, columns p = -1..7, "." where the form is valid
_RANGE_MESSAGES = {
    "k": "k must be >= 1",
    "K": "p must be >= 0",
    "n": "p exceeds k-1",
    "2": "k must be >= 2 for the collapsing kind",
    "1": "p must be >= 1: at p = 0 both levels would share images",
}
_RANGE_GRID = {
    Kind.PRESERVING: ["kkkkkkkkk", "kkkkkkkkk", "K.nnnnnnn", "K..nnnnnn",
                      "K...nnnnn", "K....nnnn", "K.....nnn", "K......nn"],
    Kind.COLLAPSING: ["kkkkkkkkk", "kkkkkkkkk", "222222222", "11.nnnnnn",
                      "11..nnnnn", "11...nnnn", "11....nnn", "11.....nn"],
}


class TestInjEndoContract:
    """InjEndo is the validated tuple (kind, k, p)."""

    def test_range_messages_unchanged(self):
        for kind, rows in _RANGE_GRID.items():
            for k, row in zip(range(-1, 7), rows):
                for p, code in zip(range(-1, 8), row):
                    if code == ".":
                        assert InjEndo(kind, k, p) == (kind, k, p)
                        continue
                    with pytest.raises(ParameterRangeError) as info:
                        InjEndo(kind, k, p)
                    assert str(info.value) == _RANGE_MESSAGES[code], (kind, k, p)

    def test_non_kind_refused(self):
        with pytest.raises(ParameterRangeError, match="kind must be a Kind"):
            InjEndo("a", 2, 1)

    def test_equal_parameters_equal_objects(self):
        for e in enumerate_endos(4):
            twin = InjEndo(e.kind, e.k, e.p)
            assert twin == e and hash(twin) == hash(e) and twin is not e
        assert preserving(2, 1) != collapsing(2, 1)
        assert len({preserving(2, 1), preserving(2, 1), collapsing(2, 1)}) == 2

    def test_fields_read_only(self):
        e = preserving(3, 1)
        with pytest.raises(AttributeError):
            e.k = 4
        with pytest.raises(AttributeError):
            del e.k
        with pytest.raises(AttributeError):
            e.extra = 1  # no instance dict
        assert (e.kind, e.k, e.p) == (Kind.PRESERVING, 3, 1)

    def test_copy_and_pickle_round_trip(self):
        for e in (UNIT, preserving(5, 3), collapsing(4, 1)):
            for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
                assert twin == e and type(twin) is InjEndo and twin.kind is e.kind

    def test_str_and_repr(self):
        assert str(UNIT) == "a:1,0"
        assert repr(collapsing(3, 2)) == "b:3,2"

    def test_str_is_the_kind_tag_then_k_and_p(self):
        for e in enumerate_endos(4):
            assert str(e) == f"{e.kind.value}:{e.k},{e.p}"

    def test_compose_builds_an_injendo(self):
        assert isinstance(compose(preserving(2, 1), collapsing(3, 1)), InjEndo)
        assert isinstance(preserving(2, 1) * UNIT, InjEndo)

    def test_compose_matches_closed_form_table(self):
        # the composition table written out from the module docstring
        def closed_form(e1, e2):
            (v1, k1, p1), (v2, k2, p2) = e1, e2
            if v1 is Kind.COLLAPSING:
                return Kind.COLLAPSING, k1 * k2, k2 * p1
            return v2, k1 * k2, p2 + k2 * p1

        endos = enumerate_endos(6)
        for e1 in endos:
            for e2 in endos:
                assert compose(e1, e2) == closed_form(e1, e2), (e1, e2)


class TestNonIntegerParameters:
    """Floats and bools are refused before any range check."""

    @pytest.mark.parametrize("build", [
        lambda: preserving(2.5, 1), lambda: collapsing(3, 1.5),
        lambda: preserving(True, False), lambda: preserving(2.0, 1),
        lambda: collapsing(3, "1")])
    def test_forms_refuse(self, build):
        with pytest.raises(ParameterRangeError, match="k and p must be integers"):
            build()

    @pytest.mark.parametrize("args", [(2.0, 1, 1), (2, True, 1), (3, 0, 1.0)])
    def test_generator_images_refuse(self, args):
        with pytest.raises(ParameterRangeError, match="k, level and p must be integers"):
            classify_from_images(GeneratorImages(*args))


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

    def test_image_is_the_validated_elem(self):
        # apply builds its image without a second check: every image of a
        # valid form is what the checked constructor gives for it
        for e in enumerate_endos(5):
            for x in Truncation(4):
                image = apply(e, x)
                assert type(image) is Elem
                assert image == CANONICAL_FAMILY.elem(*_raw_image(*e, *x[:3])), (e, x)

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

    def test_raw_kernels_use_the_kind_members_themselves(self):
        # kinds are compared by identity, so the members must come back as is
        for e1 in enumerate_endos(3):
            for e2 in enumerate_endos(3):
                v, _, _ = _compose_raw(e1.kind, e1.k, e1.p, e2.kind, e2.k, e2.p)
                want = e2.kind if e1.kind is Kind.PRESERVING else Kind.COLLAPSING
                assert v is want
        assert _raw_image(Kind.PRESERVING, 3, 1, 2, 0, 1) == (7, 1, 1)
        assert _raw_image(Kind.COLLAPSING, 3, 1, 2, 0, 1) == (7, 1, 0)

    def test_compose_row_is_a_per_pair_compose_raw_loop(self, monkeypatch):
        # the closure sweeps pass the InjEndo table itself; raw triples, out
        # of range too, are composed alike and checked by nobody
        forms = enumerate_endos(3)
        raw = [tuple(e) for e in forms] + [(Kind.PRESERVING, 2, 5), (Kind.COLLAPSING, 3, 0)]
        for v1, k1, p1 in [*forms, (Kind.COLLAPSING, 2, 4)]:
            want = tuple(_compose_raw(v1, k1, p1, *e2) for e2 in raw)
            assert _compose_row(v1, k1, p1, raw) == want
            assert _compose_row(v1, k1, p1, forms) == want[:len(forms)]
            assert _compose_row(v1, k1, p1, ()) == ()
        # the row reads the kernel from its module, so a patched one reaches it
        monkeypatch.setattr(_endo, "_compose_raw", lambda *args: args)
        assert _compose_row(*UNIT, forms[:2]) == tuple((*UNIT, *e) for e in forms[:2])

    def test_raw_kernels_read_no_enum_class_attribute(self):
        # Kind.PRESERVING goes through the Enum class attribute path, about
        # 15 times slower to read than a module global
        for kernel in (_image_row, _raw_image, _compose_raw, _compose_row):
            assert "Kind" not in code_names(kernel), kernel.__name__

    def test_associative_and_closed(self):
        endos = enumerate_endos(3)
        for e1 in endos:
            for e2 in endos:
                for e3 in endos:
                    assert compose(compose(e1, e2), e3) == compose(e1, compose(e2, e3))


class TestRememberedRangeCheck:
    """compose remembers the range check of a triple it accepted, and of
    nothing else: the kernel still runs on every call."""

    @pytest.mark.parametrize("triple", [(Kind.PRESERVING, 6, 5.0),
                                        (Kind.PRESERVING, True, 0)])
    def test_look_alike_of_a_cached_form_is_refused(self, monkeypatch, triple):
        # equal and equally hashed to the cached a:6,5 and a:1,0
        assert compose(UNIT, preserving(6, 5)) == preserving(6, 5)
        assert compose(UNIT, UNIT) == UNIT
        monkeypatch.setattr(_endo, "_compose_raw", lambda *args: triple)
        with pytest.raises(ParameterRangeError, match=r"^k and p must be integers, "):
            compose(UNIT, UNIT)

    def test_patched_kernel_takes_effect_when_warm(self, monkeypatch):
        a, b = preserving(2, 1), preserving(3, 2)
        assert compose(a, b) == compose(a, b) == preserving(6, 5)
        monkeypatch.setattr(_endo, "_compose_raw", lambda *args: (Kind.COLLAPSING, 6, 5))
        assert compose(a, b) == collapsing(6, 5)
        monkeypatch.setattr(_endo, "_compose_raw", lambda *args: (Kind.PRESERVING, 6, 6))
        with pytest.raises(ParameterRangeError, match="p exceeds k-1"):
            compose(a, b)

    def test_refused_triple_is_not_kept(self, monkeypatch):
        _endo._form.cache_clear()
        monkeypatch.setattr(_endo, "_compose_raw", lambda *args: (Kind.COLLAPSING, 7, 0))
        for _ in range(2):
            with pytest.raises(ParameterRangeError, match="p must be >= 1"):
                compose(UNIT, UNIT)
        assert _endo._form.cache_info().currsize == 0
        monkeypatch.setattr(_endo, "_compose_raw", lambda *args: (Kind.COLLAPSING, 7, 1))
        assert compose(UNIT, UNIT) == collapsing(7, 1)
        assert _endo._form.cache_info().currsize == 1


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

    def test_first_collision_matches_a_plain_scan(self):
        # reference: every later y against every earlier x, in truncation
        # order, so the pair is (first element with y's image, first such y)
        def scan(kind, k, p, bound):
            elems = truncation(bound)
            def image(x):
                return _raw_image(kind, k, p, x.i, x.j, x.base)
            for n, y in enumerate(elems):
                for x in elems[:n]:
                    if image(x) == image(y):
                        return x, y
            return None

        for kind in (Kind.PRESERVING, Kind.COLLAPSING):
            for k in range(1, 5):
                for p in range(k + 3):
                    for bound in (3, 6):
                        assert injectivity_collision(kind, k, p, bound) == \
                            scan(kind, k, p, bound), (kind, k, p, bound)

    def test_collision_pair_really_collides(self):
        for k in range(1, 5):
            x, y = injectivity_collision(Kind.COLLAPSING, k, k, 8)
            assert _raw_image(Kind.COLLAPSING, k, k, x.i, x.j, x.base) == \
                _raw_image(Kind.COLLAPSING, k, k, y.i, y.j, y.base) == (k, k, 0)


class TestRawInputRefused:
    """The raw-parameter oracles check types and the sign of the bound
    before any scan, and never the (k, p) range."""

    ORACLES = [homomorphism_counterexample, is_endomorphism_on_truncation,
               injectivity_collision]

    @pytest.mark.parametrize("oracle", ORACLES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("args, error, message", [
        ((Kind.PRESERVING, 2.5, 1, 2), ParameterRangeError, "k and p must be integers"),
        ((Kind.PRESERVING, 2, 1.0, 2), ParameterRangeError, "k and p must be integers"),
        ((Kind.COLLAPSING, True, 1, 2), ParameterRangeError, "k and p must be integers"),
        (("a", 2, 1, 2), ParameterRangeError, "kind must be a Kind"),
        (("x", 2, 1, 2), ParameterRangeError, "kind must be a Kind"),
        ((Kind.PRESERVING, 2, 1, 2.0), ValueError, "bound must be an integer"),
        ((Kind.PRESERVING, 2, 1, True), ValueError, "bound must be an integer"),
        ((Kind.PRESERVING, 2, 1, -1), ValueError, "bound must be >= 0")])
    def test_oracles_refuse(self, oracle, args, error, message):
        with pytest.raises(error, match=message):
            oracle(*args)

    def test_out_of_range_forms_are_still_scanned(self):
        # k = 0 sends every level-0 element to (0, 0, 0)
        assert injectivity_collision(Kind.PRESERVING, 0, 0, 1) == (elem(0, 0, 0), elem(0, 1, 0))
        assert homomorphism_counterexample(Kind.PRESERVING, 2, -1, 2) is not None
        assert homomorphism_counterexample(Kind.COLLAPSING, 1, 0, 0) is None

    @pytest.mark.parametrize("args, error, message", [
        ((Kind.PRESERVING, 2.5, 1, 2, 3), ParameterRangeError, "k, p and s must be integers"),
        ((Kind.PRESERVING, 2, 1, True, 3), ParameterRangeError, "k, p and s must be integers"),
        (("b", 2, 1, 2, 3), ParameterRangeError, "kind must be a Kind"),
        ((Kind.PRESERVING, 2, 1, 2, 3.0), ValueError, "t_max must be an integer"),
        ((Kind.PRESERVING, 2, 1, 2, -1), ValueError, "^t_max must be >= 0$"),
        ((Kind.PRESERVING, 0, 1, 2, 3), ValueError, "^k and s must be positive$"),
        ((Kind.COLLAPSING, 2, 1, 0, 3), ValueError, "^k and s must be positive$"),
        # t_max is checked before the multiplier
        ((Kind.PRESERVING, 0, 1, 0, -1), ValueError, "^t_max must be >= 0$")])
    def test_growth_refuses(self, args, error, message):
        with pytest.raises(error, match=message):
            growth_inequalities_hold(*args)

    @pytest.mark.parametrize("e", [("a", 2, 1), (Kind.PRESERVING, 2, 9),
                                   (Kind.COLLAPSING, 2, 1), "a:2,1", None],
                             ids=repr)
    def test_apply_and_compose_refuse_what_is_not_an_injendo(self, e):
        # a raw triple would be read blindly: "a" as the collapsing kind, or
        # an out-of-range (k, p) applied as if it were a form
        with pytest.raises(ParameterRangeError, match="expected an InjEndo"):
            apply(e, elem(1, 0, 1))
        with pytest.raises(ParameterRangeError, match="expected two InjEndo"):
            compose(e, UNIT)
        with pytest.raises(ParameterRangeError, match="expected two InjEndo"):
            compose(UNIT, e)

    @pytest.mark.parametrize("x", [(1, 2, 0), (1, 2, 0, CANONICAL_FAMILY), "(1,2,0)", None],
                             ids=repr)
    def test_apply_refuses_what_is_not_an_elem(self, x):
        with pytest.raises(ParameterRangeError, match="expected an InjEndo and an Elem"):
            apply(UNIT, x)

    @pytest.mark.parametrize("kmax", [2.5, 2.0, True, "3"])
    def test_enumeration_refuses(self, kmax):
        with pytest.raises(ValueError, match="kmax must be an integer"):
            enumerate_endos(kmax)


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

    @staticmethod
    def _plain(kind, k, p, s, t_max):
        # the docstring's two inequalities, per t, as written there
        for t in range(t_max + 1):
            if p + s * (t + 1) < k * (t + 1):
                return False
            if kind is Kind.PRESERVING and k * (t + 1) - 1 < p + s * t:
                return False
            if kind is Kind.COLLAPSING and k * (t + 1) < p + s * t:
                return False
        return True

    def test_running_sums_match_the_plain_inequalities(self):
        # out-of-range p too: the scan takes any int p
        for kind in (Kind.PRESERVING, Kind.COLLAPSING):
            for k in range(1, 9):
                for p in range(-2, k + 3):
                    for s in range(1, k + 5):
                        for t_max in (0, 1, 2, 7, 50, 60):
                            want = self._plain(kind, k, p, s, t_max)
                            assert _endo._growth_holds(kind, k, p, s, t_max) == want
                            assert growth_inequalities_hold(kind, k, p, s, t_max) == want

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
