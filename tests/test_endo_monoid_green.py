"""Green's relations: symbolic equality semantics against bounded witness
search, plus the class-level structure results."""

import pytest

import bicext.endo_monoid_green as green
import bicext.endomorphisms as _endo
from bicext.endomorphisms import (UNIT, Kind, ParameterRangeError, collapsing, compose,
                                  enumerate_endos, preserving)
from bicext.endo_monoid_green import (GreenQuery, RELATIONS, WitnessSearchResult,
                          collapsing_class_ideal, find_idempotents,
                          green_bounded_search, green_symbolic,
                          in_collapsing_class, in_preserving_class,
                          preserving_class_cancellative)


class TestQueryValidation:
    def test_relations_tuple(self):
        assert RELATIONS == ("R", "L", "H", "D", "J")

    def test_bad_relation(self):
        with pytest.raises(ValueError):
            GreenQuery("K", UNIT, UNIT, 4)

    def test_bad_kmax(self):
        with pytest.raises(ValueError):
            GreenQuery("R", UNIT, UNIT, 0)

    @pytest.mark.parametrize("kmax", [2.5, 3.0, True])
    def test_non_integer_kmax(self, kmax):
        with pytest.raises(ValueError, match="kmax must be an integer"):
            GreenQuery("R", UNIT, UNIT, kmax)

    def test_default_kmax(self):
        assert GreenQuery("R", UNIT, UNIT).kmax == 8

    @pytest.mark.parametrize("left, right", [
        (None, None), (UNIT, None), ((Kind.PRESERVING, 1, 0), UNIT),
        (UNIT, (Kind.COLLAPSING, 2, 1)), ("a:1,0", "a:1,0")], ids=repr)
    def test_operands_must_be_injendos(self, left, right):
        # green_symbolic would answer None == None with "related"
        with pytest.raises(ValueError, match="left and right must be InjEndo"):
            GreenQuery("R", left, right)


    @pytest.mark.parametrize("q", ["R", ("R", UNIT, UNIT, 4), None], ids=repr)
    def test_search_and_symbolic_take_only_a_query(self, q):
        for answer in (green_symbolic, green_bounded_search):
            with pytest.raises(ParameterRangeError, match="expected a GreenQuery"):
                answer(q)


class TestSymbolic:
    def test_equality_semantics(self):
        a, b = preserving(2, 1), preserving(2, 0)
        for rel in RELATIONS:
            assert green_symbolic(GreenQuery(rel, a, a))
            assert not green_symbolic(GreenQuery(rel, a, b))

    def test_cross_kind_never_related(self):
        for rel in RELATIONS:
            assert not green_symbolic(GreenQuery(rel, preserving(2, 1), collapsing(2, 1)))


class TestBoundedSearch:
    def test_agrees_with_symbolic_everywhere(self):
        endos = enumerate_endos(4)
        for a in endos:
            for b in endos:
                for rel in RELATIONS:
                    q = GreenQuery(rel, a, b, 6)
                    assert green_bounded_search(q).related == green_symbolic(q)

    def test_related_pairs_witness_the_unit(self):
        for e in enumerate_endos(4):
            for rel in RELATIONS:
                res = green_bounded_search(GreenQuery(rel, e, e, 6))
                assert res.related
                assert res.witnesses == (UNIT,)

    def test_unrelated_pairs_have_no_witnesses(self):
        res = green_bounded_search(GreenQuery("R", preserving(2, 1), preserving(3, 1), 6))
        assert res == WitnessSearchResult(False, (), 6)

    def test_exhausted_bound_echoes_kmax(self):
        res = green_bounded_search(GreenQuery("L", collapsing(4, 1), collapsing(4, 3), 6))
        assert not res.related
        assert res.exhausted_bound == 6

    @pytest.mark.parametrize("found", ["L", "R"])
    def test_disagreeing_d_compositions_raise(self, monkeypatch, found):
        # one composition order finds a middle element, the other none; the
        # check is an explicit raise, so python -O keeps it
        def one_sided(tables, a, b, first, second):
            return (UNIT,) * 4 if first == found else None

        monkeypatch.setattr(green, "_d_search", one_sided)
        with pytest.raises(AssertionError, match="^the two D compositions disagree$"):
            green_bounded_search(GreenQuery("D", UNIT, UNIT, 2))

    def test_divisibility_really_searched(self):
        # a genuine right factor exists (a:2,1 . a:3,2 = a:6,5) yet R still
        # refuses a:2,1 R a:6,5 because the reverse division has no solution
        assert compose(preserving(2, 1), preserving(3, 2)) == preserving(6, 5)
        res = green_bounded_search(GreenQuery("R", preserving(2, 1), preserving(6, 5), 8))
        assert not res.related


def _raw(e):
    return e.kind, e.k, e.p


def _scan_factor(a, b, cands, side):
    # first e with a == b e (side "R") or a == e b (side "L")
    for e in cands:
        if (compose(b, e) if side == "R" else compose(e, b)) == a:
            return e
    return None


def _scan_two_sided(a, b, cands):
    # first (u, v), u outermost, with a == u b v
    for u in cands:
        for v in cands:
            if compose(compose(u, b), v) == a:
                return u, v
    return None


def _scan_related(x, y, cands, side):
    e1 = _scan_factor(x, y, cands, side)
    e2 = _scan_factor(y, x, cands, side) if e1 is not None else None
    return None if e2 is None else (e1, e2)


def _scan_d(a, b, cands, first, second):
    for c in dict.fromkeys([a, b, *cands]):
        w1 = _scan_related(a, c, cands, first)
        w2 = _scan_related(c, b, cands, second) if w1 is not None else None
        if w2 is not None:
            return (*w1, *w2)
    return None


def _scan(rel, a, b, kmax):
    """The bounded search as a plain nested-loop scan of enumerate_endos."""
    cands = enumerate_endos(kmax)
    if rel in ("R", "L"):
        wits = _scan_related(a, b, cands, rel)
    elif rel == "H":
        fr, fl = _scan_related(a, b, cands, "R"), _scan_related(a, b, cands, "L")
        wits = None if fr is None or fl is None else (*fr, *fl)
    elif rel == "D":
        wits = _scan_d(a, b, cands, "L", "R")
        assert (wits is None) == (_scan_d(a, b, cands, "R", "L") is None)
    else:
        f1 = _scan_two_sided(a, b, cands)
        f2 = _scan_two_sided(b, a, cands) if f1 is not None else None
        wits = None if f2 is None else (*f1, *f2)
    if wits is None:
        return WitnessSearchResult(False, (), kmax)
    return WitnessSearchResult(True, tuple(dict.fromkeys(wits)), kmax)


class TestSearchAgainstScan:
    """The indexed search against an independent scan over the candidates."""

    @pytest.mark.parametrize("kmax", [1, 2, 3, 4])
    def test_every_pair_every_relation(self, kmax):
        cands = enumerate_endos(kmax)
        for a in enumerate_endos(kmax + 1):
            for b in enumerate_endos(kmax + 1):
                for rel in RELATIONS:
                    assert green_bounded_search(GreenQuery(rel, a, b, kmax)) == \
                        _scan(rel, a, b, kmax), (rel, str(a), str(b))
                tables = green._Tables(kmax)
                for side in ("R", "L"):
                    assert tables[_raw(b), side].get(_raw(a)) \
                        == _scan_factor(a, b, cands, side)
                assert green._two_sided_factors(tables, _raw(a), _raw(b)) == \
                    _scan_two_sided(a, b, cands)

    def test_endpoint_outside_candidates(self):
        far = preserving(9, 4)
        assert far not in enumerate_endos(3)
        for other in (far, preserving(3, 1), collapsing(3, 2)):
            for rel in RELATIONS:
                for a, b in ((far, other), (other, far)):
                    assert green_bounded_search(GreenQuery(rel, a, b, 3)) == \
                        _scan(rel, a, b, 3)

    def test_factors_are_first_in_candidate_order(self):
        cands, tables = enumerate_endos(8), green._Tables(8)
        a, b = preserving(6, 5), preserving(2, 1)
        assert tables[_raw(b), "R"][_raw(a)] == preserving(3, 2)
        # b:2,1 e = b:4,2 for a:2,0, a:2,1 and b:2,1 alike; the first is chosen
        a, b = collapsing(4, 2), collapsing(2, 1)
        hits = [e for e in cands if compose(b, e) == a]
        assert hits == [preserving(2, 0), preserving(2, 1), collapsing(2, 1)]
        assert tables[_raw(b), "R"][_raw(a)] == hits[0]
        pairs = [(u, v) for u in cands for v in cands if compose(compose(u, b), v) == a]
        assert len(pairs) > 1
        assert green._two_sided_factors(tables, _raw(a), _raw(b)) == pairs[0]

    def test_each_table_is_built_once_per_store(self, monkeypatch):
        # every table composes x with each of the kmax**2 candidates once, and
        # a search over a store that holds its tables composes nothing
        calls = []
        compose_raw = green._compose_raw
        monkeypatch.setattr(green, "_compose_raw",
                            lambda *args: calls.append(args) or compose_raw(*args))
        a, b = collapsing(4, 1), collapsing(4, 3)
        for rel in RELATIONS:
            tables = green._Tables(5)
            cold = green_bounded_search(GreenQuery(rel, a, b, 5), tables)
            built, cold_calls = dict(tables), len(calls)
            assert cold_calls == 25 * len(built) and tables.spent == 25 * (len(built) + 1)
            assert green_bounded_search(GreenQuery(rel, a, b, 5), tables) == cold
            assert len(calls) == cold_calls and tables.keys() == built.keys()
            assert all(tables[key] is built[key] for key in built)
            # a call handed no store makes a new one, which builds every table again
            assert green_bounded_search(GreenQuery(rel, a, b, 5)) == cold
            assert len(calls) == 2 * cold_calls
            calls.clear()

    @pytest.mark.parametrize("far", [None, preserving(9, 4)], ids=["candidates", "far"])
    def test_repeated_composites_keep_the_first_factor(self, monkeypatch, far):
        # no two real candidates u share one u b at these bounds, so a:2,1 is
        # made to act as a:2,0 on the left: the J search then walks b's L
        # table past the repeat and must still give the plain scan's first
        # (u, v) under the same kernel
        real = green._compose_raw
        first, twin = _raw(preserving(2, 0)), _raw(preserving(2, 1))

        def merged(*args):
            return real(*(first if args[:3] == twin else args[:3]), *args[3:])

        cands = [_raw(e) for e in enumerate_endos(3)]
        ends = [_raw(e) for e in enumerate_endos(4)] + ([_raw(far)] if far else [])

        def scan(a, b):
            return next(((u, v) for u in cands for v in cands
                         if merged(*merged(*u, *b), *v) == a), None)

        monkeypatch.setattr(green, "_compose_raw", merged)
        tables = green._Tables(3)  # every table here is built by the merged kernel
        found = {(a, b): green._two_sided_factors(tables, a, b) for a in ends for b in ends}
        assert found == {(a, b): scan(a, b) for a in ends for b in ends}
        assert any(f is not None and f[0] == first for f in found.values())

    def test_tables_are_keyed_by_the_endomorphism(self):
        assert Kind.__hash__ is object.__hash__
        assert hash(UNIT) == hash((Kind.PRESERVING, 1, 0))
        e, tables = collapsing(4, 3), green._Tables(5)
        table = tables[e, "L"]
        assert tables[_raw(e), "L"] is table and len(tables) == 1 and tables.spent == 2 * 25

    def test_never_consults_the_closed_form(self, monkeypatch):
        def refuse(q):
            raise AssertionError("bounded search consulted green_symbolic")
        monkeypatch.setattr(green, "green_symbolic", refuse)
        for rel in RELATIONS:
            assert green_bounded_search(GreenQuery(rel, UNIT, UNIT, 3)).related
            assert not green_bounded_search(
                GreenQuery(rel, preserving(2, 1), collapsing(2, 1), 3)).related


class TestBudget:
    """A store charges kmax**2 for its form table and for each factor table,
    each before that work, and refuses the first charge past its budget."""

    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_the_charge_is_exact(self, monkeypatch, kmax):
        calls = []
        compose_raw = green._compose_raw
        monkeypatch.setattr(green, "_compose_raw",
                            lambda *args: calls.append(args) or compose_raw(*args))
        ends = enumerate_endos(kmax) + [preserving(9, 4)]
        for a in ends:
            for b in ends:
                for rel in RELATIONS:
                    q = GreenQuery(rel, a, b, kmax)
                    free = green._Tables(kmax)
                    want = green_bounded_search(q, free)
                    assert free.spent == kmax * kmax * (len(free) + 1)
                    assert green_bounded_search(q, green._Tables(kmax, free.spent)) == want
                    calls.clear()
                    with pytest.raises(ValueError, match="at most"):
                        green_bounded_search(q, green._Tables(kmax, free.spent - 1))
                    # the refused store built every table but the last
                    assert len(calls) == free.spent - 2 * kmax * kmax

    def test_j_charges_each_table_it_builds(self):
        # b's L table, then the R table of each distinct u b it walks: 19
        # tables of 16 entries, where a kmax**2 + kmax**4 count said 272
        tables = green._Tables(4)
        q = GreenQuery("J", preserving(2, 0), preserving(1, 0), 4)
        assert not green_bounded_search(q, tables).related
        assert (tables.spent, len(tables)) == (16 + 304, 19)

    def test_a_search_gets_the_library_budget(self, monkeypatch):
        q = GreenQuery("R", preserving(2, 0), preserving(1, 0), 3)
        monkeypatch.setattr(green, "_GREEN_BUDGET", 27)
        assert not green_bounded_search(q).related
        monkeypatch.setattr(green, "_GREEN_BUDGET", 26)
        with pytest.raises(ValueError, match="^a Green search may build at most 26 "
                                             "factor-table entries; lower kmax$"):
            green_bounded_search(q)

    def test_a_shared_store_must_match_the_query(self):
        with pytest.raises(ParameterRangeError, match="kmax must equal q.kmax"):
            green_bounded_search(GreenQuery("R", UNIT, UNIT, 3), green._Tables(4))

    def test_a_store_past_its_budget_reads_no_form_table(self, monkeypatch):
        monkeypatch.setattr(green, "_forms", lambda kmax: pytest.fail("the forms were read"))
        for kmax in (1001, int("9" * 4300)):
            with pytest.raises(ValueError, match="at most 1000000 factor-table entries"):
                green_bounded_search(GreenQuery("J", UNIT, UNIT, kmax))


class TestSharedFormTable:
    """Every kmax-bounded sweep reads one shared table of forms; callers see
    a copy or nothing, and a kmax is validated before the table is read."""

    @pytest.mark.parametrize("kmax", [True, 2.0])
    @pytest.mark.parametrize("call", [enumerate_endos, find_idempotents,
                                      preserving_class_cancellative, collapsing_class_ideal])
    def test_kmax_look_alike_is_refused_when_warm(self, call, kmax):
        for warm in (1, 2):  # the int tables are cached now
            call(warm)
        with pytest.raises(ValueError, match="kmax must be an integer"):
            call(kmax)

    def test_only_small_tables_are_kept(self):
        _endo._kept_forms.cache_clear()
        big = _endo._KEPT_KMAX + 1
        assert enumerate_endos(big) == enumerate_endos(big)
        assert len(enumerate_endos(big)) == big * big
        assert _endo._kept_forms.cache_info().currsize == 0
        enumerate_endos(_endo._KEPT_KMAX)
        assert _endo._kept_forms.cache_info().currsize == 1

    def test_enumerate_endos_hands_out_a_new_list(self):
        a, b = collapsing(4, 2), collapsing(2, 1)
        first, second = enumerate_endos(3), enumerate_endos(3)
        assert first == second and first is not second
        first.reverse()
        first[1:] = [collapsing(3, 2)]
        tables = green._Tables(3)  # a new store reads the table again
        assert enumerate_endos(3) == second
        # b e == a for e = a:2,0, a:2,1 and b:2,1; the search keeps the first
        assert tables[b, "R"][a] == preserving(2, 0)
        assert green._two_sided_factors(tables, a, b) == (UNIT, preserving(2, 0))


class TestClassStructure:
    def test_kind_predicates(self):
        assert in_preserving_class(preserving(3, 1))
        assert not in_preserving_class(collapsing(3, 1))
        assert in_collapsing_class(collapsing(3, 1))
        assert not in_collapsing_class(UNIT)

    def test_unit_is_only_idempotent(self):
        assert find_idempotents(20) == [UNIT]

    def test_preserving_class_cancellative(self):
        assert preserving_class_cancellative(5)

    def test_collapsing_class_ideal(self):
        assert collapsing_class_ideal(5)

    @pytest.mark.parametrize("helper", [find_idempotents, preserving_class_cancellative,
                                        collapsing_class_ideal], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("kmax", [2.5, True])
    def test_non_integer_kmax_refused(self, helper, kmax):
        with pytest.raises(ValueError, match="kmax must be an integer"):
            helper(kmax)

    def test_collapsing_absorbs_each_side(self):
        for e in enumerate_endos(4):
            for b in enumerate_endos(4):
                if not in_collapsing_class(b):
                    continue
                assert in_collapsing_class(compose(e, b))
                assert in_collapsing_class(compose(b, e))
