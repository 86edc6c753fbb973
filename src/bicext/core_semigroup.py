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

_products is the one place the formula is written.  It multiplies two
sequences of raw (i, j, base) triples position by position in one list
comprehension, so a whole row of products costs one Python call, not one
per product: a call costs more than the arithmetic, and a product in a row
takes about 130 ns.  A verify run computes about a million products, so the
kernel picks the larger base by a conditional expression, since a call to
builtin max costs more than the rest of the kernel.  _mul_raw, one product
of two triples, is its one-element row.
"""

from collections import defaultdict, namedtuple
from functools import cache
from itertools import count, repeat
from operator import attrgetter


class FamilyError(ValueError):
    """A ray family failed validation."""


class FamilyClosureError(FamilyError):
    """A ray base the family does not contain, asked of Family.index_for_base
    or Family.elem; a product never needs one (see mul)."""


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


def _products(xs, ys):
    """x * y for each raw triple x of xs and the y at the same position of
    ys, as a tuple; _products(repeat(x), ys) is x's row over ys and
    _products(xs, repeat(y)) the column of y.  Why no max: module docstring."""
    return tuple([(i1 - j1 + i2, j2, b if (b := b1 + j1 - i2) > b2 else b2) if j1 <= i2
                  else (i1, j1 - i2 + j2, b if (b := b2 + i2 - j1) > b1 else b1)
                  for (i1, j1, b1), (i2, j2, b2) in zip(xs, ys)])


def _mul_raw(i1, j1, b1, i2, j2, b2):
    # one product on (i, j, ray base) triples, the one-element row of _products
    return _products(((i1, j1, b1),), ((i2, j2, b2),))[0]


def _mismatches(keys, want, got):
    """(key, w, g) for each position at which the rows want and got differ,
    in order, key the item of keys at that position; () when they are equal.

    This is the walk rule of every check that compares a whole row of cases:
    the row is compared once in C, and walked only when it differs, in
    plain-loop order, so a report lists the failures a per-case loop would,
    in the same order.  An equal row reads nothing of keys.  want and got
    must be of one sequence type, since a list never equals a tuple."""
    if want == got:
        return ()
    return [(key, w, g) for key, w, g in zip(keys, want, got) if w != g]


def _interner(triples):
    """Ids for triples, as a dict: the given ones get 0, 1, ... in order, and
    looking up an unseen triple gives it the next id."""
    ids = defaultdict(None, zip(triples, count()))
    ids.default_factory = ids.__len__
    return ids


def _pair_table(elems):
    """Index every pairwise product: returns (pid, distinct) where
    distinct[pid[x][y]] == x * y on raw triples.  distinct starts with the
    distinct elems in order, and each row of products is interned as it is
    built, so no row of triples outlives its own map."""
    ids = _interner(dict.fromkeys(elems))
    intern = ids.__getitem__
    return [tuple(map(intern, _products(repeat(x), elems))) for x in elems], list(ids)


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
