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
"""

from dataclasses import dataclass
from itertools import repeat


class FamilyError(ValueError):
    """A ray family failed validation."""


class FamilyClosureError(FamilyError):
    """A product needed a ray the family does not contain."""


class MixedFamilyError(ValueError):
    """Operands drawn from two different families."""


@dataclass(frozen=True, order=True)
class InductiveSet:
    """The ray [base) = {base, base+1, ...}."""

    base: int

    def __post_init__(self):
        if self.base < 0:
            raise ValueError(f"ray base must be non-negative, got {self.base}")

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


@dataclass(frozen=True)
class Family:
    """A finite shift-closed family of rays containing [0).

    Shift-closed: F1 & (-n + F2) is again a member for every pair of members
    and every n >= 0.  For rays this reduces to max(b1, b2 - n) being a
    member's base, checked exhaustively for n up to the largest base; the
    check forces the bases to form a contiguous block 0..m.
    """

    sets: tuple[InductiveSet, ...]

    def __post_init__(self):
        if not self.sets:
            raise FamilyError("a family must contain at least one ray")
        bases = [s.base for s in self.sets]
        if bases != sorted(set(bases)):
            raise FamilyError(f"ray bases must be strictly increasing, got {bases}")
        if bases[0] != 0:
            raise FamilyError("a family must contain the full ray [0)")
        have = set(bases)
        for b1 in bases:
            for b2 in bases:
                for n in range(bases[-1] + 1):
                    need = max(b1, b2 - n)
                    if need not in have:
                        raise FamilyError(
                            f"not shift-closed: [{b1}) & (-{n}+[{b2})) = [{need}) is missing")

    @classmethod
    def from_bases(cls, *bases: int) -> "Family":
        return cls(tuple(InductiveSet(b) for b in bases))

    def index_for_base(self, base: int) -> int:
        for idx, s in enumerate(self.sets):
            if s.base == base:
                return idx
        raise FamilyClosureError(f"no ray [{base}) in family {self}")

    def elem(self, i: int, j: int, base: int) -> "Elem":
        """Element constructor naming the ray by its base."""
        return Elem(i, j, self.index_for_base(base), self)

    def __len__(self) -> int:
        return len(self.sets)

    def __str__(self) -> str:
        return "{" + ",".join(str(s) for s in self.sets) + "}"


#: The two-ray family {[0), [1)} the endomorphism theory is built over.
CANONICAL_FAMILY = Family.from_bases(0, 1)


def _raw_truncation(bound: int, family: Family = CANONICAL_FAMILY):
    """(i, j, base) triples with i, j <= bound: ray outermost, then i, then j."""
    side = range(bound + 1)
    return [(i, j, s.base) for s in family.sets for i in side for j in side]


@dataclass(frozen=True)
class Elem:
    """Monoid element (i, j, F); f indexes a ray of the ambient family."""

    i: int
    j: int
    f: int
    family: Family

    def __post_init__(self):
        if self.i < 0 or self.j < 0:
            raise ValueError(f"coordinates must be non-negative, got ({self.i},{self.j})")
        if not 0 <= self.f < len(self.family):
            raise ValueError(f"ray index {self.f} out of range for family {self.family}")

    @property
    def ray(self) -> InductiveSet:
        return self.family.sets[self.f]

    @property
    def base(self) -> int:
        return self.family.sets[self.f].base

    def __mul__(self, other: "Elem") -> "Elem":
        return mul(self, other)

    def __str__(self) -> str:
        return f"({self.i},{self.j},{self.base})"


def _mul_raw(i1, j1, b1, i2, j2, b2):
    # Single source of the product formula on (i, j, ray base) triples;
    # hot verification loops call this directly.
    if j1 <= i2:
        return i1 - j1 + i2, j2, max(b1 + j1 - i2, b2)
    return i1, j1 - i2 + j2, max(b2 + i2 - j1, b1)


def _columns(triples):
    """Column form (I, J, B) of a list of raw triples, for the row kernels.
    An empty list gives three empty columns, so a map over them stops."""
    return list(zip(*triples)) or [(), (), ()]


def _product_row(x, cols):
    """x * y for every y of a column set, as one map over _mul_raw run in C."""
    i, j, b = x
    return tuple(map(_mul_raw, repeat(i), repeat(j), repeat(b), *cols))


def mul(x: Elem, y: Elem) -> Elem:
    """Product in the extension monoid."""
    if x.family != y.family:
        raise MixedFamilyError(f"elements over different families: {x.family} vs {y.family}")
    i, j, b = _mul_raw(x.i, x.j, x.base, y.i, y.j, y.base)
    return Elem(i, j, x.family.index_for_base(b), x.family)


def mul_bicyclic(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Plain bicyclic product on index pairs."""
    i1, j1 = a
    i2, j2 = b
    if j1 <= i2:
        return i1 - j1 + i2, j2
    return i1, j1 - i2 + j2


def inverse(x: Elem) -> Elem:
    """The unique inverse (j, i, F) in the inverse-semigroup sense."""
    return Elem(x.j, x.i, x.f, x.family)


def is_idempotent(x: Elem) -> bool:
    """True iff x * x == x; for this monoid that means x.i == x.j."""
    return mul(x, x) == x


def leq_natural(s: Elem, t: Elem) -> bool:
    """Natural partial order of the inverse monoid: s <= t iff s == t * (s^-1 s)."""
    return mul(t, mul(inverse(s), s)) == s
