"""Property tests with hypothesis, at parameters beyond the exhaustive
sweeps of the other test modules."""

from hypothesis import given, settings, strategies as st

from bicext.endo_monoid_green import GreenQuery, RELATIONS, green_bounded_search
from bicext.endomorphisms import collapsing, preserving


def _endos_up_to(kmax):
    pres = st.integers(1, kmax).flatmap(
        lambda k: st.integers(0, k - 1).map(lambda p: preserving(k, p)))
    coll = st.integers(2, kmax).flatmap(
        lambda k: st.integers(1, k - 1).map(lambda p: collapsing(k, p)))
    return st.one_of(pres, coll)


@st.composite
def _pairs(draw):
    a = draw(_endos_up_to(12))
    return a, draw(st.one_of(st.just(a), _endos_up_to(12)))


@settings(max_examples=40, deadline=None)
@given(_pairs(), st.integers(2, 5))
def test_search_is_equality_beyond_the_sweep(pair, kmax):
    a, b = pair
    for rel in RELATIONS:
        assert green_bounded_search(GreenQuery(rel, a, b, kmax)).related == (a == b)
