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
"""

from dataclasses import dataclass
from enum import Enum
from itertools import repeat

# _mul_raw stays bound here: bench/tracing.py wraps the kernels module by module
from .core_semigroup import (CANONICAL_FAMILY, Elem, FamilyError, _columns, _mul_raw,
                             _product_row, _raw_truncation)


class ParameterRangeError(ValueError):
    """A (k, p) pair lies outside its kind's admissible range."""


class Kind(Enum):
    """Endomorphism kinds, tagged by their command-line letter."""

    PRESERVING = "a"
    COLLAPSING = "b"


@dataclass(frozen=True)
class InjEndo:
    """A validated injective monoid endomorphism in closed form."""

    kind: Kind
    k: int
    p: int

    def __post_init__(self):
        if self.k < 1:
            raise ParameterRangeError("k must be >= 1")
        if self.kind is Kind.PRESERVING:
            if self.p < 0:
                raise ParameterRangeError("p must be >= 0")
        else:
            if self.k < 2:
                raise ParameterRangeError("k must be >= 2 for the collapsing kind")
            if self.p < 1:
                raise ParameterRangeError(
                    "p must be >= 1: at p = 0 both levels would share images")
        if self.p > self.k - 1:
            raise ParameterRangeError("p exceeds k-1")

    def __call__(self, x: Elem) -> Elem:
        return apply(self, x)

    def __mul__(self, other: "InjEndo") -> "InjEndo":
        return compose(self, other)

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.k},{self.p}"


def preserving(k: int, p: int) -> InjEndo:
    """Ray-preserving endomorphism with multiplier k and offset p."""
    return InjEndo(Kind.PRESERVING, k, p)


def collapsing(k: int, p: int) -> InjEndo:
    """Ray-collapsing endomorphism with multiplier k and offset p."""
    return InjEndo(Kind.COLLAPSING, k, p)


#: The identity endomorphism, the monoid unit and its only idempotent.
UNIT = preserving(1, 0)


def _raw_image(kind, k, p, i, j, b):
    # Closed form applied blindly; callers own (k, p) range validation.
    if b == 0:
        return k * i, k * j, 0
    if kind is Kind.PRESERVING:
        return p + k * i, p + k * j, 1
    return p + k * i, p + k * j, 0


def _image_row(kind, k, p, cols):
    """Images of every triple of a column set, as one map over _raw_image run in C."""
    return tuple(map(_raw_image, repeat(kind), repeat(k), repeat(p), *cols))


def apply(e: InjEndo, x: Elem) -> Elem:
    """Image of x under e; defined over the canonical family only."""
    if x.family != CANONICAL_FAMILY:
        raise FamilyError(
            f"endomorphisms act on elements over the canonical family, not {x.family}")
    i, j, b = _raw_image(e.kind, e.k, e.p, x.i, x.j, x.base)
    return CANONICAL_FAMILY.elem(i, j, b)


def _compose_raw(v1, k1, p1, v2, k2, p2):
    # Closed composition table on (kind, k, p) triples; left factor acts first.
    if v1 is Kind.PRESERVING:
        return v2, k1 * k2, p2 + k2 * p1
    return Kind.COLLAPSING, k1 * k2, k2 * p1


def compose(e1: InjEndo, e2: InjEndo) -> InjEndo:
    """compose(e1, e2) applies e1 first; the result is range-checked on build."""
    v, k, p = _compose_raw(e1.kind, e1.k, e1.p, e2.kind, e2.k, e2.p)
    return InjEndo(v, k, p)


@dataclass(frozen=True)
class GeneratorImages:
    """Generator images pinning down a candidate endomorphism.

    k is read off the image (k, k, [0)) of (1, 1, [0)); level and p describe
    the image (p, p, [level)) of (0, 0, [1)).
    """

    k: int
    level: int
    p: int

    def __post_init__(self):
        if self.k < 1:
            raise ParameterRangeError("k must be >= 1")
        if self.level not in (0, 1):
            raise ParameterRangeError("level must be 0 or 1")
        if self.p < 0:
            raise ParameterRangeError("p must be >= 0")


def classify_from_images(g: GeneratorImages) -> InjEndo:
    """The unique endomorphism with these generator images, or a range error
    naming the violated constraint."""
    if g.level == 1:
        return preserving(g.k, g.p)
    return collapsing(g.k, g.p)


def enumerate_endos(kmax: int) -> list[InjEndo]:
    """All valid endomorphisms with k <= kmax, preserving kind first, each in
    ascending (k, p) order.  Exactly kmax**2 in total."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    out = []
    for k in range(1, kmax + 1):
        for p in range(0, k):
            out.append(preserving(k, p))
    for k in range(2, kmax + 1):
        for p in range(1, k):
            out.append(collapsing(k, p))
    return out


def homomorphism_counterexample(kind, k: int, p: int, bound: int):
    """First truncation pair (x, y) with (x y)f != (x f)(y f) under the raw
    closed form, or None.

    Valid parameter ranges never produce one; out of range the scan is the
    disqualification oracle.  Scan order matches the truncation enumeration:
    ray index outermost, then i, then j.  Each x is checked against every y
    as one row; only a mismatching row is searched for its first y.
    """
    elems = _raw_truncation(bound)
    cols = _columns(elems)
    images = _image_row(kind, k, p, cols)
    image_cols = _columns(images)
    for x, fx in zip(elems, images):
        want = _product_row(fx, image_cols)
        got = _image_row(kind, k, p, _columns(_product_row(x, cols)))
        if got != want:
            y = next(y for y, g, w in zip(elems, got, want) if g != w)
            return CANONICAL_FAMILY.elem(*x), CANONICAL_FAMILY.elem(*y)
    return None


def is_endomorphism_on_truncation(kind, k: int, p: int, bound: int) -> bool:
    """True when the raw closed form respects every product on the truncation."""
    return homomorphism_counterexample(kind, k, p, bound) is None


def injectivity_collision(kind, k: int, p: int, bound: int):
    """Two distinct truncation elements sharing a raw image, or None."""
    seen = {}
    for x in _raw_truncation(bound):
        im = _raw_image(kind, k, p, *x)
        if im in seen:
            return CANONICAL_FAMILY.elem(*seen[im]), CANONICAL_FAMILY.elem(*x)
        seen[im] = x
    return None


def growth_inequalities_hold(kind, k: int, p: int, s: int, t_max: int) -> bool:
    """Order constraints on a candidate multiplier s for the image of the
    descending idempotent chain; they hold at every t <= t_max only for s == k.

    preserving:  p + s (t+1) >= k (t+1)  and  k (t+1) - 1 >= p + s t
    collapsing:  p + s (t+1) >= k (t+1)  and  k (t+1)     >= p + s t
    """
    if k < 1 or s < 1:
        raise ValueError("k and s must be positive")
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    slack = 1 if kind is Kind.PRESERVING else 0
    for t in range(t_max + 1):
        if p + s * (t + 1) < k * (t + 1):
            return False
        if k * (t + 1) - slack < p + s * t:
            return False
    return True
