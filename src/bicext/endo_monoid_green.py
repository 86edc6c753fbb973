"""Green's relations on the endomorphism monoid.

The preserving endomorphisms form a cancellative submonoid, the collapsing
ones a two-sided ideal, and all five Green relations (R, L, H, D, J)
degenerate to equality.  green_symbolic answers from that closed form;
green_bounded_search proves membership the hard way, by brute force over
every factor candidate with k up to a bound, so the two can be played
against each other by the verification suites.

The search composes an endomorphism x with every candidate e once and
records, per composite x e (side "R") or e x (side "L"), the first e in
candidate order that gives it.  The candidates are the shared table of forms
of the endomorphisms module, read only after kmax is validated.  These
factor tables are built lazily, once per (endomorphism, kmax, side), cached
under the endomorphism itself (an InjEndo and its raw triple share an entry)
and kept for the life of the process; R, L, H and D then reduce to table
lookups, and J walks the distinct composites u b of b's L table, each under
its first u, and looks the right factor up in the table of u b.
Cancellativity and absorption are each swept by one generator of
counterexamples over the forms it is handed: the public predicates hand it
enumerate_endos(kmax), which validates kmax, and take its first item; the
verification suites hand it the shared table once per run and log every
item.  A GreenQuery is a validated tuple and a WitnessSearchResult a plain
one.
"""

from collections import namedtuple
from functools import cache

from .core_semigroup import _record, _require_int
from .endomorphisms import (InjEndo, ParameterRangeError, _COLLAPSING, _PRESERVING,
                           _compose_raw, _forms, compose, enumerate_endos)

RELATIONS = ("R", "L", "H", "D", "J")


class GreenQuery(_record("GreenQuery", "relation left right kmax")):
    """One relation query; kmax bounds candidate factors, never products."""

    __slots__ = ()

    def __new__(cls, relation: str, left: InjEndo, right: InjEndo, kmax: int = 8):
        if relation not in RELATIONS:
            raise ValueError(f"relation must be one of {', '.join(RELATIONS)}")
        if not (isinstance(left, InjEndo) and isinstance(right, InjEndo)):
            raise ValueError(f"left and right must be InjEndo, got ({left!r}, {right!r})")
        _require_int("kmax", kmax, 1)
        return tuple.__new__(cls, (relation, left, right, kmax))


class WitnessSearchResult(namedtuple("WitnessSearchResult",
                                     "related witnesses exhausted_bound")):
    """Outcome of a bounded divisibility search.

    related implies witnesses is nonempty; for this monoid every relation is
    equality, so witnesses always deduplicate to the unit."""

    __slots__ = ()


def green_symbolic(q: GreenQuery) -> bool:
    """Closed form: every Green relation on this monoid is equality.  A q
    that is not a GreenQuery is a ParameterRangeError."""
    if not isinstance(q, GreenQuery):
        raise ParameterRangeError(f"expected a GreenQuery, got {q!r}")
    return q.left == q.right


@cache  # a table depends on its key alone, so every caller shares it
def _table(x, kmax: int, side: str) -> dict:
    # composite -> first candidate e with x e (side "R") or e x (side "L")
    # equal to it; built once by composing x with every candidate
    table = {}
    xv, xk, xp = x
    for e in _forms(kmax):
        ev, ek, ep = e
        table.setdefault(_compose_raw(xv, xk, xp, ev, ek, ep) if side == "R"
                         else _compose_raw(ev, ek, ep, xv, xk, xp), e)
    return table


def _related(x, y, kmax: int, side: str):
    # witnesses (e1, e2) with x == y e1 and y == x e2 (side "R"; e1 y and
    # e2 x for side "L"), or None.  The unit is the first candidate, so x == y
    # needs no special case.
    e1 = _table(y, kmax, side).get(x)
    e2 = _table(x, kmax, side).get(y) if e1 is not None else None
    return None if e2 is None else (e1, e2)


def _two_sided_factors(a, b, kmax: int):
    # first pair (u, v) in candidate order with a == u b v.  b's L table
    # holds each distinct u b once, under its first u in candidate order; a
    # later u with the same u b could only find the v the first one found
    for w, u in _table(b, kmax, "L").items():
        v = _table(w, kmax, "R").get(a)
        if v is not None:
            return u, v
    return None


def _d_candidates(a, b, kmax: int, first: str, second: str) -> list:
    # the c that _d_search tries, in order: of both endpoints and every
    # candidate, those that are composites in a's `first` table and in b's
    # `second` table, as a c with a ~ c and c ~ b is.  Only those two tables
    # are built here; each c kept may then build its own two
    near_a, near_b = _table(a, kmax, first), _table(b, kmax, second)
    return [c for c in (a, b, *_forms(kmax)) if c in near_a and c in near_b]


def _d_search(a, b, kmax: int, first: str, second: str):
    # D as a relational composition: the first c with a ~ c by side `first`
    # and c ~ b by side `second`.  c ranges over both endpoints and every
    # candidate; the endpoint case is the one that can actually fire here.
    for c in _d_candidates(a, b, kmax, first, second):
        w1 = _related(a, c, kmax, first)
        w2 = _related(c, b, kmax, second) if w1 is not None else None
        if w2 is not None:
            return (*w1, *w2)
    return None


def green_bounded_search(q: GreenQuery) -> WitnessSearchResult:
    """Brute-force divisibility search with factor k bounded by q.kmax.

    Products are compared structurally and may exceed the bound.  For D both
    composition orders are computed, and an AssertionError is raised if they
    disagree, also under python -O.  A q that is not a GreenQuery is a
    ParameterRangeError.
    """
    if not isinstance(q, GreenQuery):
        raise ParameterRangeError(f"expected a GreenQuery, got {q!r}")
    kmax, rel, a, b = q.kmax, q.relation, q.left, q.right
    if rel in ("R", "L"):
        wits = _related(a, b, kmax, rel)
    elif rel == "H":
        fr = _related(a, b, kmax, "R")
        fl = _related(a, b, kmax, "L") if fr is not None else None
        wits = (*fr, *fl) if fl is not None else None
    elif rel == "D":
        wits = _d_search(a, b, kmax, "L", "R")
        rl = _d_search(a, b, kmax, "R", "L")
        if (wits is None) != (rl is None):
            raise AssertionError("the two D compositions disagree")
    else:  # J
        f1 = _two_sided_factors(a, b, kmax)
        f2 = _two_sided_factors(b, a, kmax) if f1 is not None else None
        wits = (*f1, *f2) if f2 is not None else None
    if wits is None:
        return WitnessSearchResult(False, (), kmax)
    return WitnessSearchResult(True, tuple(dict.fromkeys(wits)), kmax)


def in_preserving_class(e: InjEndo) -> bool:
    """Membership in the cancellative submonoid of preserving endomorphisms."""
    return e.kind is _PRESERVING


def in_collapsing_class(e: InjEndo) -> bool:
    """Membership in the two-sided ideal of collapsing endomorphisms."""
    return e.kind is _COLLAPSING


def find_idempotents(kmax: int) -> list[InjEndo]:
    """Idempotent endomorphisms with k <= kmax; the unit is the only one."""
    return [e for e in enumerate_endos(kmax) if compose(e, e) == e]


def _cancellation_failures(forms):
    # (a, x, y, broken law) over the preserving forms in forms; a pair x != y
    # with ax == ay is a repeat in a's row, so only a row holding one is walked
    endos = [e for e in forms if in_preserving_class(e)]
    n = len(endos)
    for a in endos:
        ax = [compose(a, x) for x in endos]
        xa = [compose(x, a) for x in endos]
        if len(set(ax)) == n and len(set(xa)) == n:
            continue
        for x, a_x, x_a in zip(endos, ax, xa):
            for y, a_y, y_a in zip(endos, ax, xa):
                if x is y:
                    continue
                if a_x == a_y:
                    yield a, x, y, "ax != ay"
                if x_a == y_a:
                    yield a, x, y, "xa != ya"


def _absorption_failures(forms):
    # (left, right, product) for each product of two forms in forms, one of
    # them collapsing, that is not collapsing; e b before b e
    coll = [b for b in forms if in_collapsing_class(b)]
    for e in forms:
        for b in coll:
            eb, be = compose(e, b), compose(b, e)
            if not in_collapsing_class(eb):
                yield e, b, eb
            if not in_collapsing_class(be):
                yield b, e, be


def preserving_class_cancellative(kmax: int) -> bool:
    """Two-sided cancellativity of the preserving class, checked for k <= kmax."""
    return next(_cancellation_failures(enumerate_endos(kmax)), None) is None


def collapsing_class_ideal(kmax: int) -> bool:
    """The collapsing class absorbs products from both sides, for k <= kmax."""
    return next(_absorption_failures(enumerate_endos(kmax)), None) is None
