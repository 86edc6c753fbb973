"""Exact arithmetic for a bicyclic extension monoid over rays of natural numbers.

A ray [b) = {b, b+1, ...} is a nonempty upward-closed set of non-negative
integers; shifting by d sends [b) to [b+d) and intersecting two rays keeps
the larger base.  Fix a finite family of rays, closed under shift-and-
intersect and containing [0).  The extension monoid consists of triples
(i, j, F) with F a family member; the (i, j) part multiplies like the
bicyclic monoid and the ray parts are shifted against each other and
intersected:

    (i1,j1,F1)(i2,j2,F2) = (i1-j1+i2, j2, ((j1-i2)+F1) & F2)   if j1 <= i2
                           (i1, j1-i2+j2, F1 & ((i2-j1)+F2))   if j1 >= i2

Both branches agree when j1 == i2.  The structure is an inverse monoid:
(i,j,F)^-1 = (j,i,F), the idempotents are exactly the balanced triples
(i,i,F), and s <= t in the natural partial order iff s == t * (s^-1 s).

The only valid families are the blocks {[0), ..., [m)}, so a Family holds
its top base m and nothing else: Family.sets and Elem.ray are views built
from it, and an element's ray index Elem.f equals its base Elem.base.

Values are validated tuples, here and in the other modules: namedtuple
subclasses that check their fields in __new__ and act as the plain tuple.

_mul_raw is the one place the formula is written, and a verify run calls it
about a million times, so it picks the larger base by a conditional
expression: a call to builtin max costs more than the rest of the kernel.
"""

from collections import namedtuple
from functools import cache
from itertools import chain, repeat
from operator import attrgetter


class FamilyError(ValueError):
    """A ray family failed validation."""


class FamilyClosureError(FamilyError):
    """A product needed a ray the family does not contain."""


class MixedFamilyError(ValueError):
    """Operands drawn from two different families."""


def _record(typename: str, field_names: str):
    """namedtuple base whose _make and _replace, like copy and pickle, use __new__."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    return base


def _require_int(name: str, value, minimum: int):
    """Refuse a bound that is not an int (bool and float too) or is below minimum."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


class InductiveSet(_record("InductiveSet", "base")):
    """The ray [base) = {base, base+1, ...}."""

    __slots__ = ()

    def __new__(cls, base: int) -> "InductiveSet":
        if type(base) is not int:  # bool and float are refused too
            raise ValueError(f"ray base must be an integer, got {base!r}")
        if base < 0:
            raise ValueError(f"ray base must be non-negative, got {base}")
        return tuple.__new__(cls, (base,))

    def __contains__(self, n: int) -> bool:
        return n >= self.base

    def __str__(self) -> str:
        return f"[{self.base})"


def intersect_shifted(a: InductiveSet, d: int, b: InductiveSet) -> InductiveSet:
    """(d + a) & b, where d + [x) = [x+d); the shift d may be negative.

    The result is never empty and its base is never negative, because
    b.base >= 0 bounds the maximum from below.
    """
    return InductiveSet(max(a.base + d, b.base))


class Family:
    """A finite shift-closed family of rays containing [0).

    Shift-closed: F1 & (-n + F2) is again a member for every pair of members
    and every n >= 0.  For rays this means max(b1, b2 - n) is a member's
    base, which holds exactly when the bases form a contiguous block 0..m:
    a gap below a base b leaves [0) & (-1 + [b)) = [b-1) missing.
    from_bases keeps one instance per m, so families compare by identity.
    """

    __slots__ = ("_m",)
    m = property(attrgetter("_m"))  # read-only: one instance is shared per m

    @classmethod
    def from_bases(cls, *bases: int) -> "Family":
        """The family with these ray bases, validated; the one way in."""
        if not bases:
            raise FamilyError("a family must contain at least one ray")
        if {*map(type, bases)} != {int}:  # bool and float are refused too
            b = next(b for b in bases if type(b) is not int)
            raise FamilyError(f"ray bases must be integers, got {b!r}")
        if min(bases) < 0:  # before the order rules; name the first negative base
            b = next(b for b in bases if b < 0)
            raise FamilyError(f"ray base must be non-negative, got {b}")
        if list(bases) != sorted(set(bases)):
            raise FamilyError(f"ray bases must be strictly increasing, got {list(bases)}")
        if bases[0] != 0:
            raise FamilyError("a family must contain the full ray [0)")
        if bases != tuple(range(len(bases))):  # the first gap names the missing ray
            b = next(b for t, b in enumerate(bases) if b != t)
            raise FamilyError(f"not shift-closed: [0) & (-1+[{b})) = [{b - 1}) is missing")
        return _family(len(bases) - 1)

    def __reduce__(self):  # copies and pickles come back as the interned instance
        return _family, (self.m,)

    @property
    def sets(self) -> tuple[InductiveSet, ...]:
        """The member rays [0), ..., [m), in index order."""
        return tuple(map(InductiveSet, range(self.m + 1)))

    def index_for_base(self, base: int) -> int:
        if 0 <= base <= self.m:
            return base
        raise FamilyClosureError(f"no ray [{base}) in family {self}")

    def elem(self, i: int, j: int, base: int) -> "Elem":
        """Element constructor naming the ray by its base."""
        return Elem(i, j, self.index_for_base(base), self)

    def __len__(self) -> int:
        return self.m + 1

    def __str__(self) -> str:
        return "{" + ",".join(f"[{b})" for b in range(self.m + 1)) + "}"

    __repr__ = __str__


@cache  # the one Family with top base m; callers have validated m >= 0
def _family(m: int) -> Family:
    family = object.__new__(Family)
    family._m = m
    return family


#: The two-ray family {[0), [1)} the endomorphism theory is built over.
CANONICAL_FAMILY = Family.from_bases(0, 1)


def _raw_truncation(bound: int, family: Family = CANONICAL_FAMILY):
    """(i, j, base) triples with i, j <= bound: ray outermost, then i, then j."""
    side = range(bound + 1)
    return [(i, j, b) for b in range(family.m + 1) for i in side for j in side]


_ElemFields = _record("Elem", "i j f family")


class Elem(_ElemFields):
    """Monoid element (i, j, [base)), the tuple (i, j, base, family); f == base."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, f: int, family: Family) -> "Elem":
        if type(family) is not Family:
            raise FamilyError(f"family must be a Family, got {type(family).__name__}")
        if not type(i) is type(j) is type(f) is int:  # bool and float are refused too
            raise ValueError(f"coordinates must be integers, got ({i!r},{j!r},{f!r})")
        if i < 0 or j < 0:
            raise ValueError(f"coordinates must be non-negative, got ({i},{j})")
        if not 0 <= f <= family.m:
            raise ValueError(f"ray index {f} out of range for family {family}")
        return tuple.__new__(cls, (i, j, f, family))

    base = _ElemFields.f

    @property
    def ray(self) -> InductiveSet:
        return InductiveSet(self[2])

    def __mul__(self, other: "Elem") -> "Elem":
        return mul(self, other)

    def __str__(self) -> str:
        return f"({self[0]},{self[1]},{self[2]})"

    __repr__ = tuple.__repr__


def _mul_raw(i1, j1, b1, i2, j2, b2):
    # Single source of the product formula on (i, j, ray base) triples;
    # hot verification loops call this directly (why no max: module docstring).
    if j1 <= i2:
        b = b1 + j1 - i2
        return i1 - j1 + i2, j2, b if b > b2 else b2
    b = b2 + i2 - j1
    return i1, j1 - i2 + j2, b if b > b1 else b1


def _columns(triples):
    """Column form (I, J, B) of a list of raw triples, for the row kernels.
    An empty list gives three empty columns, so a map over them stops."""
    return list(zip(*triples)) or [(), (), ()]


def _product_row(x, cols):
    """x * y for every y of a column set, as one map over _mul_raw run in C."""
    i, j, b = x
    return tuple(map(_mul_raw, repeat(i), repeat(j), repeat(b), *cols))


def _product_col(cols, y):
    """x * y for every x of a column set: _product_row's right-hand twin."""
    i, j, b = y
    return tuple(map(_mul_raw, *cols, repeat(i), repeat(j), repeat(b)))


def _pair_table(elems):
    """Index every pairwise product: returns (pid, distinct) where
    distinct[pid[x][y]] == x * y on raw triples."""
    cols = _columns(elems)
    rows = [_product_row(x, cols) for x in elems]
    ids = {v: d for d, v in enumerate(dict.fromkeys(chain.from_iterable(rows)))}
    return [list(map(ids.__getitem__, row)) for row in rows], list(ids)


def mul(x: Elem, y: Elem) -> Elem:
    """Product in the extension monoid."""
    family = x[3]
    if family is not y[3]:  # one Family instance per m
        raise MixedFamilyError(f"elements over different families: {family} vs {y[3]}")
    # No re-validation: the product's coordinates are non-negative and its
    # base is at most max(b1, b2) <= m, so FamilyClosureError cannot fire.
    return tuple.__new__(Elem, (*_mul_raw(x[0], x[1], x[2], y[0], y[1], y[2]), family))


def mul_bicyclic(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Plain bicyclic product on index pairs."""
    i1, j1 = a
    i2, j2 = b
    if j1 <= i2:
        return i1 - j1 + i2, j2
    return i1, j1 - i2 + j2


def inverse(x: Elem) -> Elem:
    """The unique inverse (j, i, F) in the inverse-semigroup sense."""
    return tuple.__new__(Elem, (x[1], x[0], x[2], x[3]))  # a valid element swapped


def is_idempotent(x: Elem) -> bool:
    """True iff x * x == x; for this monoid that means x.i == x.j."""
    return mul(x, x) == x


def leq_natural(s: Elem, t: Elem) -> bool:
    """Natural partial order of the inverse monoid: s <= t iff s == t * (s^-1 s)."""
    return mul(t, mul(inverse(s), s)) == s
