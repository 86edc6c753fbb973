"""Exhaustive verification suites with per-suite default bounds.

Every algebraic claim the package exposes is owned by exactly one suite in
the registry below; a registry audit runs at import time so nothing is
silently unowned.  Suites enumerate truncations {(i, j, f) : i, j <= bound}
deterministically (ray index outermost, then i, then j), count every
executed check, run to completion, and record up to FAILURE_CAP concrete
counterexamples instead of stopping at the first.

The three heaviest sweeps (associativity, the homomorphism property of every
form, and the pointwise composition table) run as row kernels: a whole row
of cases is computed by map over _mul_raw or _raw_image and compared as one
tuple in C, and only a row that mismatches is walked case by case to record
its failures, in the same order and with the same text as a plain loop.
"""

import time
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable

from .core_semigroup import (CANONICAL_FAMILY, Elem, Family, _columns, _mul_raw,
                   _product_row, _raw_truncation, inverse, is_idempotent, leq_natural,
                   mul, mul_bicyclic)
from .endomorphisms import (Kind, ParameterRangeError, UNIT, _image_row, _raw_image,
                    collapsing, compose, enumerate_endos, growth_inequalities_hold,
                    homomorphism_counterexample, injectivity_collision,
                    preserving)
from .endo_monoid_green import (GreenQuery, RELATIONS, collapsing_class_ideal,
                    find_idempotents, green_bounded_search, green_symbolic,
                    in_collapsing_class, preserving_class_cancellative)

FAILURE_CAP = 100


class UnknownSuiteError(ValueError):
    """Asked to run a suite name that is not registered."""


@dataclass(frozen=True)
class Truncation:
    """The finite slice {(i, j, f) : 0 <= i, j <= bound} of the monoid."""

    bound: int
    family: Family = CANONICAL_FAMILY

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("bound must be >= 0")

    def __len__(self) -> int:
        return (self.bound + 1) ** 2 * len(self.family)

    def __iter__(self):
        for f in range(len(self.family)):
            for i in range(self.bound + 1):
                for j in range(self.bound + 1):
                    yield Elem(i, j, f, self.family)

    def raw(self) -> list[tuple[int, int, int]]:
        """(i, j, base) triples in iteration order, for arithmetic loops."""
        return _raw_truncation(self.bound, self.family)


@dataclass
class Failure:
    inputs: str
    expected: str
    got: str


class FailureLog:
    """Accumulates failures, keeping at most FAILURE_CAP concrete records."""

    def __init__(self):
        self.recorded: list[Failure] = []
        self.total = 0

    def add(self, inputs, expected, got):
        self.total += 1
        if len(self.recorded) < FAILURE_CAP:
            self.recorded.append(Failure(str(inputs), str(expected), str(got)))


@dataclass
class VerifyReport:
    suite: str
    bounds: dict[str, int]
    cases: int
    failures: list[Failure]
    failures_total: int
    elapsed_ms: float
    summary: str

    @property
    def passed(self) -> bool:
        return self.failures_total == 0


def _pair_table(elems):
    """Index every pairwise product: returns (pid, distinct) where
    distinct[pid[x][y]] == x * y on raw triples."""
    cols = _columns(elems)
    rows = [_product_row(x, cols) for x in elems]
    ids = {v: d for d, v in enumerate(dict.fromkeys(chain.from_iterable(rows)))}
    return [list(map(ids.__getitem__, row)) for row in rows], list(ids)


# ---------------------------------------------------------------- suites --


def _suite_semigroup_axioms(bound: int):
    log = FailureLog()
    elems = Truncation(bound).raw()
    n = len(elems)

    # associativity over every triple, memoized through the distinct pair
    # products: left[d][z] is d*z and right[x][d] is x*d, both as ids of
    # interned triples, so (xy)z == x(yz) over all z is one tuple comparison
    pid, distinct = _pair_table(elems)
    ids = defaultdict()
    ids.default_factory = ids.__len__  # an unseen triple gets the next id
    intern = ids.__getitem__
    cols, dcols = _columns(elems), _columns(distinct)
    left = [tuple(map(intern, _product_row(d, cols))) for d in distinct]
    right = [tuple(map(intern, _product_row(x, dcols))) for x in elems]
    triple = list(ids)
    yz = [itemgetter(*row) for row in pid]  # yz[y](right[x]) is x(yz) over z
    for xi in range(n):
        rx = right[xi]
        prow = pid[xi]
        for yi in range(n):
            lrow = left[prow[yi]]
            if yz[yi](rx) == lrow:
                continue
            for zi, (lv, qi) in enumerate(zip(lrow, pid[yi])):
                if lv != rx[qi]:
                    log.add(f"x={elems[xi]} y={elems[yi]} z={elems[zi]}",
                            "(xy)z == x(yz)", f"{triple[lv]} vs {triple[rx[qi]]}")
    triples = n ** 3

    # the two product branches agree where both apply (x.j == y.i)
    branch_pairs = 0
    for x in elems:
        for y in elems:
            if x[1] != y[0]:
                continue
            branch_pairs += 1
            b1 = (x[0] - x[1] + y[0], y[1], max(x[2] + x[1] - y[0], y[2]))
            b2 = (x[0], x[1] - y[0] + y[1], max(y[2] + y[0] - x[1], x[2]))
            got = _mul_raw(*x, *y)
            if not (b1 == b2 == got):
                log.add(f"x={x} y={y}", "both branches equal", f"{b1} vs {b2} vs {got}")

    # (0,0,[0)) is a two-sided identity
    trunc = Truncation(bound)
    e0 = Elem(0, 0, 0, trunc.family)
    ident = 0
    for x in trunc:
        ident += 1
        if mul(e0, x) != x or mul(x, e0) != x:
            log.add(f"x={x}", "identity fixes x", "moved")

    # over the one-ray family the third coordinate is inert: the product
    # projects onto the plain bicyclic product
    single = Family.from_bases(0)
    proj = 0
    for i1 in range(bound + 1):
        for j1 in range(bound + 1):
            for i2 in range(bound + 1):
                for j2 in range(bound + 1):
                    proj += 1
                    got = mul(single.elem(i1, j1, 0), single.elem(i2, j2, 0))
                    want = mul_bicyclic((i1, j1), (i2, j2))
                    if (got.i, got.j, got.base) != (*want, 0):
                        log.add(f"({i1},{j1})*({i2},{j2}) over {{[0)}}",
                                f"{want}", f"({got.i},{got.j})")

    aux = branch_pairs + ident + proj
    return triples + aux, log, f"{triples} triples, {aux} auxiliary checks"


def _suite_inverse_axioms(bound: int):
    log = FailureLog()
    elems = list(Truncation(bound))
    cases = 0
    for x in elems:
        cases += 3
        if mul(mul(x, inverse(x)), x) != x:
            log.add(f"x={x}", "x x^-1 x == x", str(mul(mul(x, inverse(x)), x)))
        if inverse(inverse(x)) != x:
            log.add(f"x={x}", "(x^-1)^-1 == x", str(inverse(inverse(x))))
        if not (is_idempotent(mul(x, inverse(x))) and is_idempotent(mul(inverse(x), x))):
            log.add(f"x={x}", "x x^-1 and x^-1 x idempotent", "not idempotent")
    # idempotents are exactly the balanced triples, and they commute
    for x in elems:
        cases += 1
        if is_idempotent(x) != (x.i == x.j):
            log.add(f"x={x}", "idempotent iff i == j", str(is_idempotent(x)))
    idems = [x for x in elems if x.i == x.j]
    for e in idems:
        for f2 in idems:
            cases += 1
            if mul(e, f2) != mul(f2, e):
                log.add(f"e={e} f={f2}", "ef == fe", f"{mul(e, f2)} vs {mul(f2, e)}")
    return cases, log, f"{len(elems)} elements, {len(idems)} idempotents"


def _suite_order(bound: int):
    log = FailureLog()
    trunc = Truncation(bound)
    elems = list(trunc)
    n = len(elems)
    cases = 0

    leq = [[leq_natural(s, t) for t in elems] for s in elems]
    cases += n * n
    for a in range(n):
        cases += 1
        if not leq[a][a]:
            log.add(f"{elems[a]}", "reflexive", "not <= itself")
    for a in range(n):
        for b in range(n):
            cases += 1
            if a != b and leq[a][b] and leq[b][a]:
                log.add(f"{elems[a]}, {elems[b]}", "antisymmetry", "both directions hold")

    # transitivity through bitmask rows: rows[a] is the up-set of a
    rows = []
    for a in range(n):
        m = 0
        for b in range(n):
            if leq[a][b]:
                m |= 1 << b
        rows.append(m)
    for a in range(n):
        cases += n
        m = rows[a]
        acc = m
        mm = m
        b = 0
        while mm:
            if mm & 1:
                acc |= rows[b]
            mm >>= 1
            b += 1
        extra = acc & ~m
        if extra:
            c = extra.bit_length() - 1
            log.add(f"a={elems[a]}", "transitive up-set", f"missing {elems[c]}")

    # cross-level law on balanced elements, and the descending chain
    fam = trunc.family
    if len(fam) >= 2:
        for k in range(bound + 1):
            for p in range(bound + 1):
                cases += 1
                want = p <= k - 1
                got = leq_natural(fam.elem(k, k, 0), fam.elem(p, p, 1))
                if got != want:
                    log.add(f"({k},{k},0) <= ({p},{p},1)", str(want), str(got))
        for t in range(bound):
            cases += 2
            if not leq_natural(fam.elem(t + 1, t + 1, 1), fam.elem(t + 1, t + 1, 0)):
                log.add(f"t={t}", "(t+1,t+1,1) <= (t+1,t+1,0)", "false")
            if not leq_natural(fam.elem(t + 1, t + 1, 0), fam.elem(t, t, 1)):
                log.add(f"t={t}", "(t+1,t+1,0) <= (t,t,1)", "false")
    return cases, log, f"{n} elements ordered"


def _suite_endo_homomorphism(bound: int, kmax: int):
    log = FailureLog()
    elems = Truncation(bound).raw()
    n = len(elems)
    cases = 0
    pid, distinct = _pair_table(elems)
    cols, dcols = _columns(elems), _columns(distinct)
    xy = [itemgetter(*row) for row in pid]  # xy[x](row over distinct) is row over y
    endos = enumerate_endos(kmax)
    for e in endos:
        kind, k, p = e.kind, e.k, e.p
        ims = _image_row(kind, k, p, cols)
        imd = _image_row(kind, k, p, dcols)
        im_cols = _columns(ims)
        for xi in range(n):
            got = _product_row(ims[xi], im_cols)  # f(x) f(y) over y
            want = xy[xi](imd)  # f(xy) over y
            if got == want:
                continue
            for yi in range(n):
                if got[yi] != want[yi]:
                    log.add(f"e={e} x={elems[xi]} y={elems[yi]}",
                            str(want[yi]), str(got[yi]))
        cases += n * n
        cases += 1
        if _raw_image(kind, k, p, 0, 0, 0) != (0, 0, 0):
            log.add(f"e={e}", "identity fixed", str(_raw_image(kind, k, p, 0, 0, 0)))

    # forms sharing k agree on every level-0 element
    lvl0 = [x for x in elems if x[2] == 0]
    for k in range(1, kmax + 1):
        forms = [e for e in endos if e.k == k]
        ref = forms[0]
        for e in forms[1:]:
            for x in lvl0:
                cases += 1
                if _raw_image(e.kind, e.k, e.p, *x) != _raw_image(ref.kind, ref.k, ref.p, *x):
                    log.add(f"{ref} vs {e} at {x}", "same level-0 image", "differs")

    # the unit fixes everything; everything else moves a small element
    small = [(i, j, b) for b in (0, 1) for i in range(3) for j in range(3)]
    for e in endos:
        cases += 1
        if e == UNIT:
            if any(_raw_image(e.kind, e.k, e.p, *x) != x for x in elems):
                log.add("a:1,0", "fixes the whole truncation", "moves an element")
        elif all(_raw_image(e.kind, e.k, e.p, *x) == x for x in small):
            log.add(f"e={e}", "moves an element with coordinates <= 2", "fixes them all")
    return cases, log, f"{len(endos)} endomorphisms on {n} elements"


def _suite_endo_injectivity(bound: int, kmax: int):
    log = FailureLog()
    elems = Truncation(bound).raw()
    cases = 0
    endos = enumerate_endos(kmax)
    for e in endos:
        seen = {}
        for x in elems:
            cases += 1
            im = _raw_image(e.kind, e.k, e.p, *x)
            if im in seen:
                log.add(f"e={e}", "injective", f"{seen[im]} and {x} map to {im}")
            else:
                seen[im] = x
    return cases, log, f"{len(endos)} endomorphisms on {len(elems)} elements"


def _suite_composition_table(bound: int, kmax: int, ksym: int):
    log = FailureLog()
    elems = Truncation(bound).raw()
    cases = 0
    endos = enumerate_endos(kmax)
    cols = _columns(elems)
    for e1 in endos:
        mid_cols = _columns(_image_row(e1.kind, e1.k, e1.p, cols))
        for e2 in endos:
            c = compose(e1, e2)
            two = _image_row(e2.kind, e2.k, e2.p, mid_cols)
            one = _image_row(c.kind, c.k, c.p, cols)
            if one != two:
                for x, o, t in zip(elems, one, two):
                    if o != t:
                        log.add(f"{e1} . {e2} at {x}", str(t), str(o))
            cases += len(elems)

    # parameter ranges are closed under composition, k up to ksym
    big = enumerate_endos(ksym)
    for e1 in big:
        for e2 in big:
            cases += 1
            try:
                compose(e1, e2)
            except ParameterRangeError as exc:
                log.add(f"{e1} . {e2}", "in-range composite", str(exc))

    # a collapsing left factor erases the right factor's kind
    for e1 in big:
        if e1.kind is not Kind.COLLAPSING:
            continue
        for k2 in range(2, ksym + 1):
            for p2 in range(1, k2):
                cases += 1
                if compose(e1, preserving(k2, p2)) != compose(e1, collapsing(k2, p2)):
                    log.add(f"{e1} . (k={k2},p={p2})", "same composite for both kinds",
                            "differs")
    return cases, log, f"{len(endos)}^2 pointwise pairs, symbolic k <= {ksym}"


def _suite_idempotents(kmax: int):
    log = FailureLog()
    found = find_idempotents(kmax)
    cases = kmax * kmax
    if found != [UNIT]:
        log.add(f"kmax={kmax}", "[a:1,0]", "[" + ", ".join(str(e) for e in found) + "]")
    return cases, log, f"{cases} endomorphisms scanned"


def _suite_cancellative(kmax: int):
    log = FailureLog()
    endos = [e for e in enumerate_endos(kmax) if e.kind is Kind.PRESERVING]
    cases = 0
    for a in endos:
        for x in endos:
            for y in endos:
                if x == y:
                    continue
                cases += 2
                if compose(a, x) == compose(a, y):
                    log.add(f"a={a} x={x} y={y}", "ax != ay", "equal")
                if compose(x, a) == compose(y, a):
                    log.add(f"a={a} x={x} y={y}", "xa != ya", "equal")
    cases += 1
    if not preserving_class_cancellative(kmax):
        log.add(f"kmax={kmax}", "cancellative helper agrees", "returned False")
    return cases, log, f"{len(endos)} preserving endomorphisms"


def _suite_ideal(kmax: int):
    log = FailureLog()
    endos = enumerate_endos(kmax)
    coll = [b for b in endos if in_collapsing_class(b)]
    cases = 0
    for e in endos:
        for b in coll:
            cases += 2
            if not in_collapsing_class(compose(e, b)):
                log.add(f"{e} . {b}", "collapsing", str(compose(e, b)))
            if not in_collapsing_class(compose(b, e)):
                log.add(f"{b} . {e}", "collapsing", str(compose(b, e)))
    cases += 1
    if not collapsing_class_ideal(kmax):
        log.add(f"kmax={kmax}", "ideal helper agrees", "returned False")
    return cases, log, f"{len(coll)} collapsing endomorphisms absorbed"


def _suite_green_agreement(kmax: int):
    log = FailureLog()
    search_bound = kmax + 2  # factors may need more room than the pair sweep
    endos = enumerate_endos(kmax)
    cases = 0
    for a in endos:
        for b in endos:
            results = {}
            for rel in RELATIONS:
                q = GreenQuery(rel, a, b, search_bound)
                sym = green_symbolic(q)
                got = green_bounded_search(q)
                results[rel] = got.related
                cases += 1
                if got.related != sym:
                    log.add(f"{rel}({a}, {b})", str(sym), str(got.related))
                if got.related and tuple(got.witnesses) != (UNIT,):
                    log.add(f"{rel}({a}, {b})", "witnesses deduplicate to the unit",
                            ", ".join(str(w) for w in got.witnesses))
            cases += 4
            if results["H"] != (results["R"] and results["L"]):
                log.add(f"H({a}, {b})", "H == R and L", str(results))
            if (results["R"] or results["L"]) and not results["D"]:
                log.add(f"D({a}, {b})", "R or L implies D", str(results))
            if results["D"] and not results["J"]:
                log.add(f"J({a}, {b})", "D implies J", str(results))
            if a.kind is not b.kind and any(results.values()):
                log.add(f"{a} vs {b}", "no relation across kinds", str(results))
    return cases, log, f"{len(endos)}^2 pairs, factors bounded by k <= {search_bound}"


def _suite_classification_negative(kmax: int, bound: int):
    log = FailureLog()
    cases = 0
    homo = coll = 0
    for kind in (Kind.PRESERVING, Kind.COLLAPSING):
        for k in range(1, kmax + 1):
            for p in (k, k + 1, k + 2):
                cases += 1
                if homomorphism_counterexample(kind, k, p, bound) is not None:
                    homo += 1
                elif injectivity_collision(kind, k, p, bound) is not None:
                    coll += 1
                else:
                    log.add(f"{kind.value}:{k},{p}",
                            "a homomorphism or injectivity witness", "none found")
    return cases, log, f"{homo} homomorphism witnesses, {coll} injectivity witnesses"


def _suite_growth_inequalities(kmax: int, tmax: int):
    log = FailureLog()
    cases = 0
    for kind in (Kind.PRESERVING, Kind.COLLAPSING):
        kmin = 1 if kind is Kind.PRESERVING else 2
        pmin = 0 if kind is Kind.PRESERVING else 1
        for k in range(kmin, kmax + 1):
            for p in range(pmin, k):
                for s in range(1, k + 4):
                    cases += 1
                    want = s == k
                    got = growth_inequalities_hold(kind, k, p, s, tmax)
                    if got != want:
                        log.add(f"kind={kind.value} k={k} p={p} s={s}", str(want), str(got))
    return cases, log, f"multiplier pinned for k <= {kmax}, t <= {tmax}"


# -------------------------------------------------------------- registry --


@dataclass(frozen=True)
class SuiteSpec:
    run: Callable
    covers: tuple[str, ...]
    defaults: dict[str, int]


SUITES: dict[str, SuiteSpec] = {
    "semigroup_axioms": SuiteSpec(
        _suite_semigroup_axioms,
        ("associativity", "branch_agreement", "two_sided_identity", "single_ray_projection"),
        {"bound": 8}),
    "inverse_axioms": SuiteSpec(
        _suite_inverse_axioms,
        ("inverse_axioms", "idempotent_characterization", "idempotent_commutativity"),
        {"bound": 8}),
    "order": SuiteSpec(
        _suite_order,
        ("natural_order_partial", "cross_level_order"),
        {"bound": 8}),
    "endo_homomorphism": SuiteSpec(
        _suite_endo_homomorphism,
        ("endo_homomorphism", "endo_fixes_identity", "level0_agreement", "fixed_point_rigidity"),
        {"bound": 8, "kmax": 5}),
    "endo_injectivity": SuiteSpec(
        _suite_endo_injectivity,
        ("endo_injectivity",),
        {"bound": 20, "kmax": 5}),
    "composition_table": SuiteSpec(
        _suite_composition_table,
        ("composition_soundness", "parameter_closure", "collapse_product_identity"),
        {"bound": 20, "kmax": 5, "ksym": 12}),
    "idempotents": SuiteSpec(
        _suite_idempotents,
        ("unique_endo_idempotent",),
        {"kmax": 20}),
    "cancellative": SuiteSpec(
        _suite_cancellative,
        ("preserving_cancellative",),
        {"kmax": 5}),
    "ideal": SuiteSpec(
        _suite_ideal,
        ("collapsing_absorption",),
        {"kmax": 5}),
    "green_agreement": SuiteSpec(
        _suite_green_agreement,
        ("green_oracle_agreement", "green_containments", "mixed_kind_separation",
         "trivial_factor_solutions"),
        {"kmax": 5}),
    "classification_negative": SuiteSpec(
        _suite_classification_negative,
        ("out_of_range_rejection",),
        {"kmax": 4, "bound": 6}),
    "growth_inequalities": SuiteSpec(
        _suite_growth_inequalities,
        ("growth_pins_multiplier",),
        {"kmax": 6, "tmax": 50}),
}

#: Every invariant the package promises, each owned by exactly one suite.
ALL_INVARIANTS = frozenset({
    "associativity", "branch_agreement", "two_sided_identity", "single_ray_projection",
    "inverse_axioms", "idempotent_characterization", "idempotent_commutativity",
    "natural_order_partial", "cross_level_order",
    "endo_homomorphism", "endo_fixes_identity", "level0_agreement", "fixed_point_rigidity",
    "endo_injectivity",
    "composition_soundness", "parameter_closure", "collapse_product_identity",
    "unique_endo_idempotent",
    "preserving_cancellative",
    "collapsing_absorption",
    "green_oracle_agreement", "green_containments", "mixed_kind_separation",
    "trivial_factor_solutions",
    "out_of_range_rejection",
    "growth_pins_multiplier",
})


def _audit_registry():
    owned = [tag for spec in SUITES.values() for tag in spec.covers]
    if len(owned) != len(set(owned)):
        dupes = sorted({t for t in owned if owned.count(t) > 1})
        raise AssertionError(f"invariants owned twice: {dupes}")
    if set(owned) != ALL_INVARIANTS:
        raise AssertionError(
            f"registry incomplete: missing={sorted(ALL_INVARIANTS - set(owned))} "
            f"extra={sorted(set(owned) - ALL_INVARIANTS)}")


_audit_registry()


def run_suite(name: str, **overrides) -> VerifyReport:
    """Run one registered suite; keyword overrides replace its default bounds.

    Overrides with value None are ignored, unknown override keys are an error.
    """
    try:
        spec = SUITES[name]
    except KeyError:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose from: {', '.join(SUITES)}") from None
    bounds = dict(spec.defaults)
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in bounds:
            raise ValueError(f"suite {name!r} takes no bound named {key!r}")
        bounds[key] = val
    start = time.perf_counter()
    cases, log, summary = spec.run(**bounds)
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerifyReport(name, bounds, cases, log.recorded, log.total, elapsed, summary)
