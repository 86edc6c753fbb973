"""Closed forms for the injective monoid endomorphisms over the canonical family.

Every injective endomorphism fixing the identity is determined by a
multiplier k and an offset p and comes in two kinds, named by what they do
to the ray of a level-1 element:

    preserving (tag "a", k >= 1, 0 <= p <= k-1):
        (i,j,[0)) -> (k i, k j, [0))     (i,j,[1)) -> (p + k i, p + k j, [1))
    collapsing (tag "b", k >= 2, 1 <= p <= k-1):
        (i,j,[0)) -> (k i, k j, [0))     (i,j,[1)) -> (p + k i, p + k j, [0))

Composition is written left to right, compose(e1, e2) applies e1 first, and
is closed form:

    preserving . preserving = preserving(k1 k2, p2 + k2 p1)
    preserving . collapsing = collapsing(k1 k2, p2 + k2 p1)
    collapsing . anything   = collapsing(k1 k2, k2 p1)

so collapsing endomorphisms absorb products from either side.

An InjEndo is the validated tuple (kind, k, p), as an Elem is a tuple, and
GeneratorImages the validated tuple (k, level, p): an InjEndo compares and
hashes as that tuple in C (Kind hashes by identity), so compose reads no
attribute.  A kernel call unpacks its operands into names first and passes
them positionally, as _compose_raw(v1, k1, p1, v2, k2, p2): a call such as
_compose_raw(*e1, *e2), with two starred operands or one beside other
arguments, builds a list and then a tuple of the arguments on every call,
about a quarter of compose's time.  One starred tuple and nothing else, as
in _form(*triple), is passed on as it is.

A process builds each small table of validated forms once: _forms(kmax) is
the one tuple of the kmax**2 forms, the last 16 tables with kmax <= 32 are
kept (under 0.8 MB) and a larger one is built for each call.
enumerate_endos validates kmax and copies the table, and the Green search
and the suites read it once kmax is validated.  compose recomputes the
composite triple on every call and remembers only the range check of a
triple it accepted, in a bounded typed cache; a refused triple raises every
time.  Most of the reuse is across calls, so a one-shot command line
process gains only the reuse within its one run (BENCH_form_table.json).
The verification sweeps over many compositions do not go through compose:
_compose_row calls _compose_raw on each form of a row of right factors, and
the caller range-checks each distinct composite once.  The image closed
form is written once, in _image_row: one list comprehension over a sequence
of raw triples that tests the kind once per row, so a row of images costs
one Python call, not one per image, and an image in a row takes about
100 ns.  _raw_image, one image, is its one-element row.  Both row kernels
live here, so a replaced kernel reaches every sweep.

The raw-parameter oracles (homomorphism_counterexample,
injectivity_collision, growth_inequalities_hold) take any int (k, p), since
out-of-range forms are what they test, and refuse a non-int parameter, a
non-Kind kind and a negative bound before any scan.  The first two return
the first item of the one generator their law has; the suites log them all.
Both generators take the form's image row from their caller, so a suite
maps each triple once per form.  The homomorphism generator also takes a
dict of level-0 product rows, keyed by block value and filled only as far
as any scan has read: a suite hands one dict to every form it sweeps, and a
single scan passes {}.
"""

from enum import Enum
from functools import lru_cache
from itertools import repeat
from operator import itemgetter

# _mul_raw stays bound here: bench/tracing.py wraps the kernels module by module
from .core_semigroup import (CANONICAL_FAMILY, Elem, FamilyError, _mismatches, _mul_raw,
                             _pair_table, _products, _raw_truncation, _record, _require_int)


class ParameterRangeError(ValueError):
    """A (k, p) pair lies outside its kind's admissible range, or an operand
    is not the validated type a function takes (an InjEndo, an Elem, a
    GreenQuery)."""


class Kind(Enum):
    """Endomorphism kinds, tagged by their command-line letter."""

    PRESERVING = "a"
    COLLAPSING = "b"

    __hash__ = object.__hash__  # members are singletons; Enum's hash runs Python


# per-case code reads these: Kind.PRESERVING is a slow Enum class attribute read
_PRESERVING, _COLLAPSING = Kind.PRESERVING, Kind.COLLAPSING


class InjEndo(_record("InjEndo", "kind k p")):
    """A validated injective monoid endomorphism in closed form: the tuple
    (kind, k, p), so it compares and hashes as that tuple."""

    __slots__ = ()

    def __new__(cls, kind: Kind, k: int, p: int) -> "InjEndo":
        if not type(k) is type(p) is int:  # bool and float are refused too
            raise ParameterRangeError(f"k and p must be integers, got ({k!r},{p!r})")
        if k < 1:
            raise ParameterRangeError("k must be >= 1")
        if kind is _PRESERVING:
            if p < 0:
                raise ParameterRangeError("p must be >= 0")
        elif kind is _COLLAPSING:
            if k < 2:
                raise ParameterRangeError("k must be >= 2 for the collapsing kind")
            if p < 1:
                raise ParameterRangeError(
                    "p must be >= 1: at p = 0 both levels would share images")
        else:
            raise ParameterRangeError(f"kind must be a Kind, got {kind!r}")
        if p > k - 1:
            raise ParameterRangeError("p exceeds k-1")
        return tuple.__new__(cls, (kind, k, p))

    def __call__(self, x: Elem) -> Elem:
        return apply(self, x)

    def __mul__(self, other: "InjEndo") -> "InjEndo":
        return compose(self, other)

    def __str__(self) -> str:
        return f"{self[0]._value_}:{self[1]},{self[2]}"  # .value is a Python property

    __repr__ = __str__


def preserving(k: int, p: int) -> InjEndo:
    """Ray-preserving endomorphism with multiplier k and offset p."""
    return InjEndo(_PRESERVING, k, p)


def collapsing(k: int, p: int) -> InjEndo:
    """Ray-collapsing endomorphism with multiplier k and offset p."""
    return InjEndo(_COLLAPSING, k, p)


#: The identity endomorphism, the monoid unit and its only idempotent.
UNIT = preserving(1, 0)


def _image_row(kind, k, p, xs):
    """Images of the raw triples xs under the closed form (kind, k, p),
    applied blindly, as a tuple; callers own (k, p) range validation."""
    level = 1 if kind is _PRESERVING else 0
    return tuple([(k * i, k * j, 0) if b == 0 else (p + k * i, p + k * j, level)
                  for i, j, b in xs])


def _raw_image(kind, k, p, i, j, b):
    # one image of an (i, j, ray base) triple, the one-element row of _image_row
    return _image_row(kind, k, p, ((i, j, b),))[0]


def apply(e: InjEndo, x: Elem) -> Elem:
    """Image of x under e; defined over the canonical family only.  An e that
    is not an InjEndo or an x that is not an Elem is a ParameterRangeError."""
    if not (isinstance(e, InjEndo) and isinstance(x, Elem)):  # a raw triple is unchecked
        raise ParameterRangeError(f"expected an InjEndo and an Elem, got ({e!r}, {x!r})")
    kind, k, p = e
    i, j, b, family = x
    if family is not CANONICAL_FAMILY:
        raise FamilyError(
            f"endomorphisms act on elements over the canonical family, not {family}")
    # a valid form sends a valid element to non-negative coordinates and a
    # base 0 or 1, so the image needs no second check: build the tuple
    return tuple.__new__(Elem, _raw_image(kind, k, p, i, j, b) + (CANONICAL_FAMILY,))


def _compose_raw(v1, k1, p1, v2, k2, p2):
    # Closed composition table on (kind, k, p) triples; left factor acts first.
    if v1 is _PRESERVING:
        return v2, k1 * k2, p2 + k2 * p1
    return _COLLAPSING, k1 * k2, k2 * p1


def _compose_row(kind, k, p, forms):
    """Raw composites of one left factor with each (kind, k, p) of forms,
    an InjEndo or a raw triple, as a tuple; nothing is range-checked."""
    return tuple([_compose_raw(kind, k, p, v, k2, p2) for v, k2, p2 in forms])


# InjEndo remembering the triples it accepted; bounded, as composites grow
# without end, and typed, so (True, 0) or (6, 5.0) is no cached int form
_form = lru_cache(maxsize=1024, typed=True)(InjEndo)


def compose(e1: InjEndo, e2: InjEndo) -> InjEndo:
    """compose(e1, e2) applies e1 first; the result is range-checked on build."""
    if not (isinstance(e1, InjEndo) and isinstance(e2, InjEndo)):
        raise ParameterRangeError(f"expected two InjEndo, got ({e1!r}, {e2!r})")
    v1, k1, p1 = e1
    v2, k2, p2 = e2
    return _form(*_compose_raw(v1, k1, p1, v2, k2, p2))


class GeneratorImages(_record("GeneratorImages", "k level p")):
    """Generator images pinning down a candidate endomorphism.

    k is read off the image (k, k, [0)) of (1, 1, [0)); level and p describe
    the image (p, p, [level)) of (0, 0, [1)).
    """

    __slots__ = ()

    def __new__(cls, k: int, level: int, p: int) -> "GeneratorImages":
        if not type(k) is type(level) is type(p) is int:
            raise ParameterRangeError(f"k, level and p must be integers, got "
                                      f"({k!r},{level!r},{p!r})")
        if k < 1:
            raise ParameterRangeError("k must be >= 1")
        if level not in (0, 1):
            raise ParameterRangeError("level must be 0 or 1")
        if p < 0:
            raise ParameterRangeError("p must be >= 0")
        return tuple.__new__(cls, (k, level, p))


def classify_from_images(g: GeneratorImages) -> InjEndo:
    """The unique endomorphism with these generator images, or a range error
    naming the violated constraint."""
    if g.level == 1:
        return preserving(g.k, g.p)
    return collapsing(g.k, g.p)


def _build_forms(kmax):
    return (*(preserving(k, p) for k in range(1, kmax + 1) for p in range(k)),
            *(collapsing(k, p) for k in range(2, kmax + 1) for p in range(1, k)))


# the last 16 tables with kmax <= _KEPT_KMAX (1,024 forms): at most
# sum(k*k for k in range(17, 33)) = 9,944 forms of 80 B, 0.8 MB, stay alive
_KEPT_KMAX = 32
_kept_forms = lru_cache(maxsize=16)(_build_forms)


def _forms(kmax: int) -> tuple[InjEndo, ...]:
    # enumerate_endos(kmax) as one table every caller shares, a tuple, so no
    # caller can change what the next one reads; callers have validated kmax
    return _kept_forms(kmax) if kmax <= _KEPT_KMAX else _build_forms(kmax)


def enumerate_endos(kmax: int) -> list[InjEndo]:
    """All valid endomorphisms with k <= kmax, preserving kind first, each in
    ascending (k, p) order.  Exactly kmax**2 in total, as a new list."""
    _require_int("kmax", kmax, 1)
    return list(_forms(kmax))


def _check_raw(kind, k, p, bound):
    # types and the sign of bound only: any int (k, p) is a form to test
    if type(kind) is not Kind:
        raise ParameterRangeError(f"kind must be a Kind, got {kind!r}")
    if not type(k) is type(p) is int:  # bool and float are refused too
        raise ParameterRangeError(f"k and p must be integers, got ({k!r},{p!r})")
    _require_int("bound", bound, 0)


def _homomorphism_failures(kind, k, p, elems, pairs, images, blocks):
    # (x, y, f(xy), f(x) f(y)) for each pair of elems the raw form does not
    # respect, in (x, y) order; pairs is _pair_table(elems) and images the
    # form's image row over elems, which are distinct and so head the
    # distinct products: f(xy) is read off images and one row over the rest.
    # Each x is one product row of images, walked as _mismatches walks it.
    # blocks maps the images of the first half of elems (level 0, for a
    # truncation, which every form with the same k sends alike) to their
    # products with each other, one row per x, built when a scan first reads
    # it: forms sharing a block and a dict build each row once, and a scan
    # given {} builds no row it does not read.  A row that matches is kept
    # as f(xy)'s triples, which hold each value once.
    pid, distinct = pairs
    fxy = images + _image_row(kind, k, p, distinct[len(images):])
    half = len(elems) // 2
    rows = blocks.setdefault(images[:half], [])
    high = images[half:]
    for i, (x, fx, row) in enumerate(zip(elems, images, pid)):
        want = itemgetter(*row)(fxy)
        got = (rows[i] + _products(repeat(fx), high) if i < len(rows)
               else _products(repeat(fx), images))
        bad = _mismatches(elems, want, got)
        if len(rows) == i < half:  # a block row's first read keeps its level-0 part
            rows.append((got if bad else want)[:half])
        for y, w, g in bad:
            yield x, y, w, g


def homomorphism_counterexample(kind, k: int, p: int, bound: int):
    """First truncation pair (x, y) with (x y)f != (x f)(y f) under the raw
    closed form, or None.

    Valid parameter ranges never produce one; out of range the scan is the
    disqualification oracle.  Scan order matches the truncation enumeration:
    ray index outermost, then i, then j.
    """
    _check_raw(kind, k, p, bound)
    elems = _raw_truncation(bound)
    pairs, images = _pair_table(elems), _image_row(kind, k, p, elems)
    for x, y, _, _ in _homomorphism_failures(kind, k, p, elems, pairs, images, {}):
        return CANONICAL_FAMILY.elem(*x), CANONICAL_FAMILY.elem(*y)
    return None


def is_endomorphism_on_truncation(kind, k: int, p: int, bound: int) -> bool:
    """True when the raw closed form respects every product on the truncation."""
    return homomorphism_counterexample(kind, k, p, bound) is None


def _collisions(elems, images):
    # (x, y, image) for each y of elems whose image in the row images an
    # earlier x has, x the first such, in elems order; the row is walked only
    # when it holds a repeat
    if len(set(images)) == len(images):
        return
    seen = {}
    for y, im in zip(elems, images):
        if im in seen:
            yield seen[im], y, im
        else:
            seen[im] = y


def injectivity_collision(kind, k: int, p: int, bound: int):
    """The first two distinct truncation elements sharing a raw image, or None."""
    _check_raw(kind, k, p, bound)
    elems = _raw_truncation(bound)
    for x, y, _ in _collisions(elems, _image_row(kind, k, p, elems)):
        return CANONICAL_FAMILY.elem(*x), CANONICAL_FAMILY.elem(*y)
    return None


def growth_inequalities_hold(kind, k: int, p: int, s: int, t_max: int) -> bool:
    """Order constraints on a candidate multiplier s for the image of the
    descending idempotent chain; they hold at every t <= t_max only for s == k.

    preserving:  p + s (t+1) >= k (t+1)  and  k (t+1) - 1 >= p + s t
    collapsing:  p + s (t+1) >= k (t+1)  and  k (t+1)     >= p + s t
    """
    if type(kind) is not Kind:
        raise ParameterRangeError(f"kind must be a Kind, got {kind!r}")
    if not type(k) is type(p) is type(s) is int:  # bool and float are refused too
        raise ParameterRangeError(f"k, p and s must be integers, got ({k!r},{p!r},{s!r})")
    _require_int("t_max", t_max, 0)
    if k < 1 or s < 1:
        raise ValueError("k and s must be positive")
    return _growth_holds(kind, k, p, s, t_max)


def _growth_holds(kind, k, p, s, t_max):
    # growth_inequalities_hold on arguments it accepts, as a validated form
    # and tmax are.  The two inequalities at t read v <= u <= top with
    # v = p + slack + s t, u = k (t+1) and top = p + s (t+1), three running
    # sums stepped by s, k and s
    v = p + (1 if kind is _PRESERVING else 0)
    u, top = k, p + s
    for _ in range(t_max + 1):
        if not v <= u <= top:
            return False
        v += s
        u += k
        top += s
    return True
