"""Property tests with hypothesis, at parameters beyond the exhaustive
sweeps of the other test modules (coordinates up to 20, multipliers up to
12).  The algebraic laws use only the public mul, inverse, apply and
compose.  The row kernels _products and _image_row, which hold the product
formula and the image closed form, are checked against those formulas as
written in the README and in the endomorphisms docstring, restated here
with builtin max, on rows of raw triples with coordinates up to 2,000
digits.  The row walk _mismatches is checked against a plain filter, and
the verify JSON writer against json.dumps on documents of the report
schema's shape."""

import json
from itertools import repeat

from hypothesis import example, given, settings, strategies as st

from bicext.cli import _json
from bicext.core_semigroup import (CANONICAL_FAMILY, Family, _mismatches, _mul_raw, _products,
                                   inverse, mul)
from bicext.endo_monoid_green import GreenQuery, RELATIONS, green_bounded_search
from bicext.endomorphisms import (InjEndo, Kind, _image_row, _raw_image, apply, collapsing,
                                  compose, preserving)

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


# a coordinate: small, so that branches tie, or of up to 2,000 digits
_BIG = st.one_of(st.integers(0, 20), st.integers(0, 10**2000 - 1))


def _raw(bases):
    return st.tuples(_BIG, _BIG, bases)


@st.composite
def _rows(draw):
    """Two rows of raw triples of one length, possibly none, over one family
    {[0), ..., [m)} with m <= 6."""
    triple = _raw(st.integers(0, draw(st.integers(0, 6))))
    n = draw(st.integers(0, 6))
    return draw(st.lists(triple, min_size=n, max_size=n)), draw(
        st.lists(triple, min_size=n, max_size=n))


def _product(x, y):
    """The README's product: the bicyclic part, and the shifted ray
    intersected with the other, which keeps the larger base."""
    (i1, j1, b1), (i2, j2, b2) = x, y
    if j1 <= i2:
        return i1 - j1 + i2, j2, max(j1 - i2 + b1, b2)
    return i1, j1 - i2 + j2, max(b1, i2 - j1 + b2)


@settings(max_examples=200, deadline=None)
@given(_rows())
@example(([], []))
@example(([(0, 2, 1)], [(3, 2, 0)]))
def test_products_follow_the_two_branch_formula(rows):
    xs, ys = rows
    assert _products(xs, ys) == tuple(map(_product, xs, ys))
    for x, y in zip(xs, ys):
        assert _mul_raw(*x, *y) == _products([x], [y])[0]
    for x in xs[:1]:  # a row and a column, the shapes the sweeps take
        assert _products(repeat(x), ys) == tuple(_product(x, y) for y in ys)
        assert _products(ys, repeat(x)) == tuple(_product(y, x) for y in ys)


def _image(kind, k, p, x):
    """The endomorphisms docstring's table, applied to any (k, p)."""
    i, j, b = x
    if b == 0:
        return k * i, k * j, 0
    return p + k * i, p + k * j, 1 if kind is Kind.PRESERVING else 0


_PARAM = st.one_of(st.integers(-3, 20), _BIG)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(Kind), _PARAM, _PARAM, st.lists(_raw(st.integers(0, 1)), max_size=6))
@example(Kind.COLLAPSING, 3, 1, [])
def test_image_row_follows_the_closed_form_table(kind, k, p, xs):
    assert _image_row(kind, k, p, xs) == tuple(_image(kind, k, p, x) for x in xs)
    for x in xs:
        assert _raw_image(kind, k, p, *x) == _image_row(kind, k, p, [x])[0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2))))
@example([(0, 1), (1, 1), (2, 0)])
def test_mismatches_is_a_plain_filter(pairs):
    # the positions where two rows differ, keyed, in order; () for equal rows
    want, got = tuple(w for w, _ in pairs), tuple(g for _, g in pairs)
    plain = [(n, w, g) for n, (w, g) in enumerate(pairs) if w != g]
    assert _mismatches(range(len(pairs)), want, got) == (plain if plain else ())


# any text: quotes, backslashes, control characters, non-ASCII and non-BMP
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)))
_FAILURE = st.fixed_dictionaries({"inputs": _TEXT, "expected": _TEXT, "got": _TEXT})
_MS = st.one_of(st.floats(0, allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, 1e-7, 1e22, 5e-324, 1.7976931348623157e308, 270.1]))
_REPORT = st.fixed_dictionaries({
    "suite": _TEXT,
    "bounds": st.dictionaries(_TEXT, st.integers(-10**30, 10**30), max_size=4),
    "cases": st.integers(0, 10**30),
    "failures": st.lists(_FAILURE, max_size=3),
    "elapsed_ms": _MS,
    "pass": st.booleans(),
})


@settings(max_examples=300, deadline=None)
@given(st.lists(_REPORT, max_size=4))
@example([])
def test_json_writer_is_json_dumps_indent_2(docs):
    assert _json(docs) == json.dumps(docs, indent=2)
