"""Property tests with hypothesis, at parameters beyond the exhaustive
sweeps of the other test modules (coordinates up to 20, multipliers up to
12).  They use only the public mul, inverse, apply and compose, so they
check the product formula apart from the suites' row kernels."""

from hypothesis import given, settings, strategies as st

from bicext.core_semigroup import CANONICAL_FAMILY, Family, inverse, mul
from bicext.endo_monoid_green import GreenQuery, RELATIONS, green_bounded_search
from bicext.endomorphisms import InjEndo, Kind, apply, collapsing, compose, preserving

_COORD = st.integers(0, 20)


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


def _elems(family):
    return st.builds(family.elem, _COORD, _COORD,
                     st.sampled_from([r.base for r in family.sets]))


_FAMILIES = st.integers(0, 3).map(lambda m: Family.from_bases(*range(m + 1)))


@st.composite
def _triples(draw):
    family = draw(_FAMILIES)
    return tuple(draw(_elems(family)) for _ in range(3))


_CANONICAL = _elems(CANONICAL_FAMILY)


@settings(max_examples=150, deadline=None)
@given(_triples())
def test_mul_is_associative(xyz):
    x, y, z = xyz
    assert mul(mul(x, y), z) == mul(x, mul(y, z))


@settings(max_examples=150, deadline=None)
@given(_triples())
def test_inverse_laws(xyz):
    x, y, _ = xyz
    x_inv = inverse(x)
    assert mul(mul(x, x_inv), x) == x
    assert mul(mul(x_inv, x), x_inv) == x_inv
    assert inverse(x_inv) == x
    e, f = mul(x, x_inv), mul(inverse(y), y)
    assert mul(e, e) == e and mul(f, f) == f
    assert mul(e, f) == mul(f, e)


@settings(max_examples=150, deadline=None)
@given(_endos_up_to(12), _CANONICAL, _CANONICAL)
def test_apply_is_a_monoid_homomorphism(e, x, y):
    assert apply(e, mul(x, y)) == mul(apply(e, x), apply(e, y))
    one = CANONICAL_FAMILY.elem(0, 0, 0)
    assert apply(e, one) == one


@settings(max_examples=150, deadline=None)
@given(_endos_up_to(12), _endos_up_to(12), _endos_up_to(12), _CANONICAL)
def test_compose_is_closed(e1, e2, e3, x):
    c = compose(e1, e2)
    assert isinstance(c, InjEndo) and c.k == e1.k * e2.k
    assert c.kind is (Kind.COLLAPSING if Kind.COLLAPSING in (e1.kind, e2.kind)
                      else Kind.PRESERVING)
    assert apply(c, x) == apply(e2, apply(e1, x))
    assert compose(c, e3) == compose(e1, compose(e2, e3))
