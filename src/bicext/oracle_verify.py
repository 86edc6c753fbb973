"""Exhaustive verification suites with per-suite default bounds.

Every algebraic claim the package exposes is owned by exactly one suite.
Each suite is registered where it is defined, by the @_suite decorator that
names the invariants it covers and any floor of its own; its keyword
defaults are its default bounds, and SUITES holds the suites in definition
order, the order of verify --suite all.  Registration refuses a suite that
does not take `log` and then only bounds, each with a default, and an audit
at import time refuses an invariant owned twice or by no suite.
Suites enumerate truncations {(i, j, f) : i, j <= bound} deterministically
(ray index outermost, then i, then j), run to completion, and record up to
FAILURE_CAP concrete counterexamples instead of stopping at the first.

Every suite has one shape: run_suite builds the FailureLog and passes it
as `log`, and the suite returns (cases, summary).  Each phase counts its
executed checks once, from the sizes it swept, never case by case.  Every
suite loop reads raw (i, j, base) triples from _raw_truncation(bound) and
calls the kernels; no suite multiplies Elems through mul.

The three heaviest sweeps (associativity, the homomorphism property of every
form, and the pointwise composition table) run as row kernels: a whole row
of cases is computed by one call of _products or _image_row, each a list
comprehension over raw triples holding its module's one copy of the
formula, and compared as one tuple, or one packed array of ids, in C.
A row check records its failures through core_semigroup._mismatches,
whose docstring states the walk rule, so a report is a plain loop's; the
inverse axioms walk their three checks per element in one loop of their own.
Every check reads the table its suite built, so a value is computed once
per suite run, and a row is shared only between inputs equal by value,
never by a closed form standing in for a scan:
  - semigroup_axioms keeps each product as an id, in rows d*z and columns
    x*d packed as array("I"), and takes those of the elements themselves
    from the pair table; per y, the columns at y's row are joined into one
    [z][x] buffer, and each x's row (xy)z, found at column y, is compared
    with the buffer's stride slice x::n as a memoryview, so no table is
    gathered entry by entry.  Branch agreement and the identity read the
    pair table as well;
  - a form's image row is built once and read by every check of the form:
    the homomorphism law, injectivity, the identity, rigidity and level-0
    agreement.  Forms with equal k send the level-0 elements to one block
    of images, so the products within a block are built once per distinct
    block value, as far as any scan reads them, and so is a right factor's
    two-step row over a first factor's block;
  - the order table is one product column t e over every t per distinct
    idempotent e = s^-1 s (18 columns for the 162 elements at bound 8),
    and the cross-level law and the chain read it too.
Composition soundness is checked once per distinct composite: the pairs
are grouped by the value compose gives them, that composite's image row is
built once per group and compared with every pair's two-step row, and the
mismatching pairs are walked in pair order after the sweep.  The closure
sweep to ksym builds one _compose_row per left factor over the forms
themselves, range-checks each new composite once with InjEndo and logs
each refused pair; the collapse check reads its composites off the rows of
the collapsing left factors, kept from that sweep, and stops where compose
would have raised.  The homomorphism law,
injectivity, cancellativity and absorption each log every item of the one
counterexample generator of the module owning the law.
The inverse axioms take x^-1 as the swap (j, i, b) and compute x x^-1,
x^-1 x, (x x^-1) x and the squares as _products rows over the truncation;
idempotents commute when their product table equals its transpose.  An
element's text is formatted only for a failure it records.
The row kernels compute about a million values per verify run, so they read
no builtin max and no Enum class attribute: either costs more than the sums.

Failures, reports and registry entries are named tuples.  An exception that
escapes a suite after its bounds are accepted fails its report with no
cases: the failures the suite logged stay, and the exception is one more,
so a run of every suite still reports each.  suite_bounds refuses a bound
below its minimum, then a bound below the floor its registration declares,
where the suite would fail though the maths holds (classification_negative
at bound 0, growth_inequalities at tmax < kmax).
"""

import time
from array import array
from collections import defaultdict, namedtuple
from functools import reduce
from itertools import compress, filterfalse, repeat
from operator import attrgetter, or_

# mul, _mul_raw and _raw_image stay bound here though no suite calls them:
# bench/tracing.py counts their calls module by module
from .core_semigroup import (CANONICAL_FAMILY, Elem, Family, FamilyError, _interner,
                   _mismatches, _mul_raw, _pair_table, _products, _raw_truncation,
                   _require_int, mul, mul_bicyclic)
from .endomorphisms import (InjEndo, Kind, ParameterRangeError, UNIT, _collisions,
                    _compose_row, _forms, _growth_holds, _homomorphism_failures,
                    _image_row, _raw_image, compose)
from .endo_monoid_green import (GreenQuery, RELATIONS, _Tables, _absorption_failures,
                    _cancellation_failures, find_idempotents, green_bounded_search,
                    green_symbolic, in_collapsing_class, in_preserving_class)

FAILURE_CAP = 100
_MINIMUM = {"bound": 0, "kmax": 1, "ksym": 1, "tmax": 0}  # smallest value of each bound


class UnknownSuiteError(ValueError):
    """Asked to run a suite name that is not registered."""


class Truncation:
    """The finite slice {(i, j, f) : 0 <= i, j <= bound} of the monoid; not a
    tuple, since its len and iteration are its elements."""

    __slots__ = ("_bound", "_family")
    bound = property(attrgetter("_bound"))
    family = property(attrgetter("_family"))

    def __init__(self, bound: int, family: Family = CANONICAL_FAMILY):
        _require_int("bound", bound, 0)
        if type(family) is not Family:
            raise FamilyError(f"family must be a Family, got {type(family).__name__}")
        self._bound, self._family = bound, family

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return Truncation, (self.bound, self.family)

    def __repr__(self) -> str:
        return f"Truncation(bound={self.bound!r}, family={self.family!r})"

    def __len__(self) -> int:
        return (self.bound + 1) ** 2 * len(self.family)

    def __iter__(self):
        return (Elem(*x, self.family) for x in self.raw())

    def raw(self) -> list[tuple[int, int, int]]:
        """(i, j, base) triples in iteration order, for arithmetic loops."""
        return _raw_truncation(self.bound, self.family)


Failure = namedtuple("Failure", "inputs expected got")


class FailureLog:
    """Accumulates failures, keeping at most FAILURE_CAP concrete records."""

    def __init__(self):
        self.recorded: list[Failure] = []
        self.total = 0

    def add(self, inputs, expected, got):
        self.total += 1
        if len(self.recorded) < FAILURE_CAP:
            self.recorded.append(Failure(str(inputs), str(expected), str(got)))


class VerifyReport(namedtuple("VerifyReport", "suite bounds cases failures failures_total "
                                             "elapsed_ms summary")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.failures_total == 0


def _leq_table(elems):
    """leq[s][t] by leq_natural's rule s == t (s^-1 s), on raw triples, each
    row a tuple of bools: one product column t e over every t per distinct
    idempotent e = s^-1 s, since many s share one."""
    idems = _products([(j, i, b) for i, j, b in elems], elems)
    column = {e: _products(elems, repeat(e)) for e in dict.fromkeys(idems)}
    return [tuple(map(s.__eq__, column[e])) for s, e in zip(elems, idems)]


# -------------------------------------------------------------- registry --


SuiteSpec = namedtuple("SuiteSpec", "run covers defaults")
SUITES: dict[str, SuiteSpec] = {}  # in definition order, the order of --suite all
_FLOORS = {}  # suite name -> None or (bound, least), least a number or a bound's name


def _suite(*covers, floor=None):
    """Register the suite defined under it, named for its function without
    the _suite_ prefix and owning the invariants covers.  Its keyword
    defaults, in signature order, are its default bounds: run_suite calls
    run(log, **bounds), so a suite takes log, then only bounds, each with a
    default.  floor is (bound, least): suite_bounds refuses that bound below
    least, where the suite would fail though the maths holds."""

    def register(run):
        code, defaults = run.__code__, run.__defaults__ or ()
        params = code.co_varnames[:code.co_argcount]
        # 0x0C is CO_VARARGS | CO_VARKEYWORDS, a *args or **bounds parameter
        if (params[:1] != ("log",) or len(defaults) != len(params) - 1
                or code.co_kwonlyargcount or code.co_flags & 0x0C):
            raise TypeError(f"suite {run.__name__} takes {params}, not log and defaulted bounds")
        name = run.__name__.removeprefix("_suite_")
        SUITES[name] = SuiteSpec(run, covers, dict(zip(params[1:], defaults)))
        _FLOORS[name] = floor
        return run
    return register


# ---------------------------------------------------------------- suites --


@_suite("associativity", "branch_agreement", "two_sided_identity", "single_ray_projection")
def _suite_semigroup_axioms(log, bound: int = 8):
    elems = _raw_truncation(bound)
    n = len(elems)
    label = Elem.__str__  # an Elem's text, of a raw triple, only for a failure

    # associativity over every triple, through ids of the interned distinct
    # products, packed as array("I") rows (an id past 2**32 - 1 raises
    # OverflowError, never compares wrongly): left[d][z] is d*z and col[d][x]
    # is x*d, and the first n ids are the elements, whose rows and columns are
    # the pair table's.  Per y, (xy)z over every x is the left rows at
    # col[y]; the columns at y's row, joined into one [z][x] buffer, hold
    # x(yz) over every z at the stride slice x::n
    pid, distinct = _pair_table(elems)
    ids = _interner(distinct)
    intern = ids.__getitem__
    extra = distinct[n:]
    left = [array("I", row) for row in pid]  # left[x][y] is x*y for x < n
    col = [array("I", c) for c in zip(*pid)]
    del pid
    left += [array("I", map(intern, _products(repeat(d), elems))) for d in extra]
    col += [array("I", map(intern, _products(elems, repeat(d)))) for d in extra]
    strides = [slice(xi, None, n) for xi in range(n)]
    bad = []  # (x, y) whose rows over z differ
    for yi in range(n):
        block = memoryview(b"".join(map(col.__getitem__, left[yi]))).cast("I")
        differs = map(memoryview.__ne__, map(block.__getitem__, strides),
                      map(left.__getitem__, col[yi]))
        bad += zip(compress(range(n), differs), repeat(yi))
    triple = list(ids)
    for xi, yi in sorted(bad):  # (x, y, z) order, as a plain loop records them
        x_yz = array("I", [col[qi][xi] for qi in left[yi]])
        for z, lv, rv in _mismatches(elems, left[left[xi][yi]], x_yz):
            log.add(f"x={elems[xi]} y={elems[yi]} z={z}",
                    "(xy)z == x(yz)", f"{triple[lv]} vs {triple[rv]}")

    # the two product branches agree where both apply (x.j == y.i), and the
    # product is the pair table's
    aligned = [(x, y, distinct[d]) for x, row in zip(elems, left)
               for y, d in zip(elems, row) if x[1] == y[0]]
    for x, y, got in aligned:
        b1 = (x[0] - x[1] + y[0], y[1], max(x[2] + x[1] - y[0], y[2]))
        b2 = (x[0], x[1] - y[0] + y[1], max(y[2] + y[0] - x[1], x[2]))
        if not (b1 == b2 == got):
            log.add(f"x={x} y={y}", "both branches equal", f"{b1} vs {b2} vs {got}")

    # (0,0,0), the first element, is a two-sided identity: row 0 and column
    # 0 of the pair table hold the ids 0..n-1 of the elements themselves
    fixed = list(zip(range(n), range(n)))
    for x, _, _ in _mismatches(elems, fixed, list(zip(left[0], col[0]))):
        log.add(f"x={label(x)}", "identity fixes x", "moved")

    # over the one-ray family the third coordinate is inert: the product
    # projects onto the plain bicyclic product
    single = _raw_truncation(bound, Family.from_bases(0))
    pairs = [x[:2] for x in single]
    for x in single:
        want = tuple([(*w, 0) for w in map(mul_bicyclic, repeat(x[:2]), pairs)])
        for y, w, g in _mismatches(single, want, _products(repeat(x), single)):
            log.add(f"({x[0]},{x[1]})*({y[0]},{y[1]}) over {{[0)}}",
                    f"{w[:2]}", f"({g[0]},{g[1]})")

    aux = len(aligned) + n + len(single) ** 2  # branch pairs, identity, projection
    return n ** 3 + aux, f"{n ** 3} triples, {aux} auxiliary checks"


@_suite("inverse_axioms", "idempotent_characterization", "idempotent_commutativity")
def _suite_inverse_axioms(log, bound: int = 8):
    elems = tuple(_raw_truncation(bound))  # a tuple, as the product rows are
    n = len(elems)
    inv = tuple([(j, i, b) for i, j, b in elems])  # x^-1, as in _leq_table
    twice = tuple([(j, i, b) for i, j, b in inv])  # (x^-1)^-1
    right = _products(elems, inv)  # x x^-1
    left = _products(inv, elems)  # x^-1 x
    back = _products(right, elems)  # (x x^-1) x
    # one row of squares: x x, then (x x^-1)^2, then (x^-1 x)^2
    three = elems + right + left
    squares = _products(three, three)
    square, right2, left2 = squares[:n], squares[n:2 * n], squares[2 * n:]
    label = Elem.__str__  # an Elem's text, of a raw triple, only for a failure
    if (back, twice, right2, left2) != (elems, elems, right, left):
        for x, y, t, r, r2, l, l2 in zip(elems, back, twice, right, right2, left, left2):
            if y != x:
                log.add(f"x={label(x)}", "x x^-1 x == x", label(y))
            if t != x:
                log.add(f"x={label(x)}", "(x^-1)^-1 == x", label(t))
            if r2 != r or l2 != l:
                log.add(f"x={label(x)}", "x x^-1 and x^-1 x idempotent", "not idempotent")
    # idempotents are exactly the balanced triples, and they commute
    balanced = [i == j for i, j, _ in elems]
    for x, _, got in _mismatches(elems, balanced, list(map(tuple.__eq__, square, elems))):
        log.add(f"x={label(x)}", "idempotent iff i == j", str(got))
    idems = list(compress(elems, balanced))
    table = [_products(repeat(e), idems) for e in idems]  # table[e][f] is e f
    for e, row, col in _mismatches(idems, table, list(zip(*table))):
        for f2, ef, fe in _mismatches(idems, row, col):
            log.add(f"e={label(e)} f={label(f2)}", "ef == fe", f"{label(ef)} vs {label(fe)}")
    cases = 4 * n + len(idems) ** 2  # three axioms and the characterization per x
    return cases, f"{n} elements, {len(idems)} idempotents"


@_suite("natural_order_partial", "cross_level_order")
def _suite_order(log, bound: int = 8):
    elems = _raw_truncation(bound)
    n = len(elems)
    label = Elem.__str__  # as in _suite_inverse_axioms
    leq = _leq_table(elems)
    for a in range(n):
        if not leq[a][a]:
            log.add(label(elems[a]), "reflexive", "not <= itself")
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                log.add(f"{label(elems[a])}, {label(elems[b])}", "antisymmetry",
                        "both directions hold")

    # transitivity through bitmask rows: rows[a] is the up-set of a
    rows = [sum(1 << b for b, up in enumerate(row) if up) for row in leq]
    for a in range(n):
        m = rows[a]
        extra = reduce(or_, compress(rows, leq[a]), m) & ~m
        if extra:
            c = extra.bit_length() - 1
            log.add(f"a={label(elems[a])}", "transitive up-set", f"missing {label(elems[c])}")

    # cross-level law on balanced elements, and the descending chain, read
    # off the table: at[x] is x's row and column in leq
    at = {x: a for a, x in enumerate(elems)}
    for k in range(bound + 1):
        for p in range(bound + 1):
            want = p <= k - 1
            got = leq[at[k, k, 0]][at[p, p, 1]]
            if got != want:
                log.add(f"({k},{k},0) <= ({p},{p},1)", str(want), str(got))
    for t in range(bound):
        if not leq[at[t + 1, t + 1, 1]][at[t + 1, t + 1, 0]]:
            log.add(f"t={t}", "(t+1,t+1,1) <= (t+1,t+1,0)", "false")
        if not leq[at[t + 1, t + 1, 0]][at[t, t, 1]]:
            log.add(f"t={t}", "(t+1,t+1,0) <= (t,t,1)", "false")
    # the table, antisymmetry and transitivity n^2 each, reflexivity n, then
    # the cross-level law per (k, p) and the two chain links per t
    cases = 3 * n * n + n + (bound + 1) ** 2 + 2 * bound
    return cases, f"{n} elements ordered"


@_suite("endo_homomorphism", "endo_fixes_identity", "level0_agreement",
        "fixed_point_rigidity")
def _suite_endo_homomorphism(log, bound: int = 8, kmax: int = 5):
    elems = _raw_truncation(bound)
    n, half = len(elems), len(elems) // 2
    pairs = _pair_table(elems)
    endos = _forms(kmax)
    blocks, rows = {}, []  # level-0 product rows shared by block value; each form's images
    for e in endos:
        images = _image_row(*e, elems)
        rows.append(images)
        for x, y, fxy, fxfy in _homomorphism_failures(*e, elems, pairs, images, blocks):
            log.add(f"e={e} x={x} y={y}", str(fxy), str(fxfy))
        if images[0] != (0, 0, 0):  # the first element is the identity
            log.add(f"e={e}", "identity fixed", str(images[0]))

    # forms sharing k agree on every level-0 element, the first half of a row
    lvl0 = elems[:half]
    for k in range(1, kmax + 1):
        (ref, ref_row), *rest = [(e, row) for e, row in zip(endos, rows) if e.k == k]
        for e, row in rest:
            for x, _, _ in _mismatches(lvl0, ref_row[:half], row[:half]):
                log.add(f"{ref} vs {e} at {x}", "same level-0 image", "differs")

    # the unit fixes everything; everything else moves an element with
    # coordinates <= 2, read off the form's row when the truncation holds
    # them all (bound >= 2) and mapped on their own otherwise
    fixed, small = tuple(elems), tuple(_raw_truncation(2))
    near = [elems.index(x) for x in small] if bound >= 2 else None
    for e, images in zip(endos, rows):
        if e == UNIT:
            if images != fixed:
                log.add("a:1,0", "fixes the whole truncation", "moves an element")
            continue
        seen = tuple(map(images.__getitem__, near)) if near else _image_row(*e, small)
        if seen == small:
            log.add(f"e={e}", "moves an element with coordinates <= 2", "fixes them all")
    # per form: every pair, the identity and rigidity; per form but the
    # first of its k: every level-0 element
    cases = len(endos) * (n * n + 2) + (len(endos) - kmax) * len(lvl0)
    return cases, f"{len(endos)} endomorphisms on {n} elements"


@_suite("endo_injectivity")
def _suite_endo_injectivity(log, bound: int = 20, kmax: int = 5):
    elems = _raw_truncation(bound)
    endos = _forms(kmax)
    for e in endos:
        for x, y, im in _collisions(elems, _image_row(*e, elems)):
            log.add(f"e={e}", "injective", f"{x} and {y} map to {im}")
    return len(endos) * len(elems), f"{len(endos)} endomorphisms on {len(elems)} elements"


def _composition_soundness(log, elems, endos):
    """Log every point where a pair's composite differs from applying its
    two factors in turn; returns the case count.  Its blocks, rows and
    groups are freed on return, before the closure sweeps start."""
    half = len(elems) // 2  # the level-0 elements come first
    # e1's images of level 1, one row per e1; its images of level 0 form a
    # block that first factors share by value (forms with equal k send level
    # 0 alike), so e2's row over a block is built once per distinct block,
    # and rows equal by value are kept once.  The pairs are grouped by their
    # computed composite, whose image row is built once per group rather
    # than once per pair
    blocks, block_of, highs = {}, [], []
    for e1 in endos:
        images = _image_row(*e1, elems)
        block_of.append(blocks.setdefault(images[:half], len(blocks)))
        highs.append(images[half:])
    kept, lows = {}, []  # lows[block][b] is e2's row over that block
    for block in blocks:
        lows.append([kept.setdefault(r, r) for r in (_image_row(*e2, block) for e2 in endos)])

    def two_step(a, b):  # e1 then e2, over every element
        return lows[block_of[a]][b] + _image_row(*endos[b], highs[a])

    groups = defaultdict(list)
    for a, e1 in enumerate(endos):
        for b, e2 in enumerate(endos):
            groups[compose(e1, e2)].append((a, b))
    bad = []
    for c, pairs in groups.items():
        one = _image_row(*c, elems)
        bad += [(a, b, c) for a, b in pairs if two_step(a, b) != one]
    for a, b, c in sorted(bad):  # pair order, as a per-pair loop records them
        for x, o, t in _mismatches(elems, _image_row(*c, elems), two_step(a, b)):
            log.add(f"{endos[a]} . {endos[b]} at {x}", str(t), str(o))
    return len(endos) ** 2 * len(elems)


@_suite("composition_soundness", "parameter_closure", "collapse_product_identity")
def _suite_composition_table(log, bound: int = 20, kmax: int = 5, ksym: int = 12):
    endos = _forms(kmax)
    pointwise = _composition_soundness(log, _raw_truncation(bound), endos)

    # parameter ranges are closed under composition, k up to ksym: one row
    # of raw composites per left factor, each new composite validated as its
    # row brings it and each refused pair logged; a collapsing factor's row
    # is kept for the collapse check
    big = _forms(ksym)
    refusals, coll_rows = {}, []  # composite -> InjEndo's refusal text, or None
    for e1 in big:
        row = _compose_row(*e1, big)
        for t in filterfalse(refusals.__contains__, dict.fromkeys(row)):
            try:
                InjEndo(*t)
                refusals[t] = None
            except ParameterRangeError as exc:
                refusals[t] = str(exc)
        for e2, t in compress(zip(big, row), map(refusals.__getitem__, row)):
            log.add(f"{e1} . {e2}", "in-range composite", refusals[t])
        if in_collapsing_class(e1):
            coll_rows.append(row)

    # a collapsing left factor erases the right factor's kind: its row
    # holds its composite with each collapsing form and with that form's
    # preserving twin (same k, p); a refused composite stops the suite at the
    # first pair holding one, as compose would
    coll_at = [i for i, e in enumerate(big) if in_collapsing_class(e)]
    twin_at = [i for i, e in enumerate(big) if in_preserving_class(e) and e.p]
    coll = [big[i] for i in coll_at]
    for e1, row in zip(coll, coll_rows):
        got, want = [row[i] for i in twin_at], [row[i] for i in coll_at]
        if any(map(refusals.__getitem__, row)) or got != want:
            for (_, k2, p2), g, w in zip(coll, got, want):
                for t in (g, w):
                    if refusals[t]:
                        raise ParameterRangeError(refusals[t])
                if g != w:
                    log.add(f"{e1} . (k={k2},p={p2})", "same composite for both kinds",
                            "differs")
    cases = pointwise + len(big) ** 2 + len(coll) ** 2
    return cases, f"{len(endos)}^2 pointwise pairs, symbolic k <= {ksym}"


@_suite("unique_endo_idempotent")
def _suite_idempotents(log, kmax: int = 20):
    found = find_idempotents(kmax)
    if found != [UNIT]:
        log.add(f"kmax={kmax}", "[a:1,0]", "[" + ", ".join(str(e) for e in found) + "]")
    return kmax * kmax, f"{kmax * kmax} endomorphisms scanned"


@_suite("preserving_cancellative")
def _suite_cancellative(log, kmax: int = 5):
    forms = _forms(kmax)
    for a, x, y, law in _cancellation_failures(forms):
        log.add(f"a={a} x={x} y={y}", law, "equal")
    n = sum(map(in_preserving_class, forms))
    # the helper takes the first item of the same sweep, so it fails exactly
    # when the sweep logged a failure
    if log.total:
        log.add(f"kmax={kmax}", "cancellative helper agrees", "returned False")
    # both laws per a and pair x != y, and the helper
    return 2 * n * n * (n - 1) + 1, f"{n} preserving endomorphisms"


@_suite("collapsing_absorption")
def _suite_ideal(log, kmax: int = 5):
    forms = _forms(kmax)
    for x, y, xy in _absorption_failures(forms):
        log.add(f"{x} . {y}", "collapsing", str(xy))
    coll = sum(map(in_collapsing_class, forms))
    if log.total:  # as in _suite_cancellative
        log.add(f"kmax={kmax}", "ideal helper agrees", "returned False")
    # both sides of every product, and the helper
    return 2 * len(forms) * coll + 1, f"{coll} collapsing endomorphisms absorbed"


@_suite("green_oracle_agreement", "green_containments", "mixed_kind_separation",
        "trivial_factor_solutions")
def _suite_green_agreement(log, kmax: int = 5):
    search_bound = kmax + 2  # factors may need more room than the pair sweep
    endos = _forms(kmax)
    tables = _Tables(search_bound)  # the sweep's factor tables, freed when it returns
    for a in endos:
        for b in endos:
            results = {}
            for rel in RELATIONS:
                q = GreenQuery(rel, a, b, search_bound)
                sym = green_symbolic(q)
                got = green_bounded_search(q, tables)
                results[rel] = got.related
                if got.related != sym:
                    log.add(f"{rel}({a}, {b})", str(sym), str(got.related))
                if got.related and tuple(got.witnesses) != (UNIT,):
                    log.add(f"{rel}({a}, {b})", "witnesses deduplicate to the unit",
                            ", ".join(str(w) for w in got.witnesses))
            if results["H"] != (results["R"] and results["L"]):
                log.add(f"H({a}, {b})", "H == R and L", str(results))
            if (results["R"] or results["L"]) and not results["D"]:
                log.add(f"D({a}, {b})", "R or L implies D", str(results))
            if results["D"] and not results["J"]:
                log.add(f"J({a}, {b})", "D implies J", str(results))
            if a.kind is not b.kind and any(results.values()):
                log.add(f"{a} vs {b}", "no relation across kinds", str(results))
    # per pair: the five relations, then the four laws across them
    return 9 * len(endos) ** 2, f"{len(endos)}^2 pairs, factors bounded by k <= {search_bound}"


# the bound-0 truncation holds no witness against any out-of-range form
@_suite("out_of_range_rejection", floor=("bound", 1))
def _suite_classification_negative(log, kmax: int = 4, bound: int = 6):
    homo = coll = 0
    elems = _raw_truncation(bound)
    pairs = _pair_table(elems)
    blocks = {}  # level-0 product rows, shared by the forms with equal k
    forms = [(kind, k, p) for kind in Kind for k in range(1, kmax + 1)
             for p in (k, k + 1, k + 2)]
    for kind, k, p in forms:
        images = _image_row(kind, k, p, elems)
        if next(_homomorphism_failures(kind, k, p, elems, pairs, images, blocks), None):
            homo += 1
        elif next(_collisions(elems, images), None):
            coll += 1
        else:
            log.add(f"{kind.value}:{k},{p}",
                    "a homomorphism or injectivity witness", "none found")
    return len(forms), f"{homo} homomorphism witnesses, {coll} injectivity witnesses"


# at tmax < kmax the growth inequalities do not yet pin k = kmax
@_suite("growth_pins_multiplier", floor=("tmax", "kmax"))
def _suite_growth_inequalities(log, kmax: int = 6, tmax: int = 50):
    endos = _forms(kmax)
    for kind, k, p in endos:
        for s in range(1, k + 4):
            want = s == k
            got = _growth_holds(kind, k, p, s, tmax)
            if got != want:
                log.add(f"kind={kind.value} k={k} p={p} s={s}", str(want), str(got))
    # candidate multipliers s = 1 .. k + 3 per form
    return sum(k + 3 for _, k, _ in endos), f"multiplier pinned for k <= {kmax}, t <= {tmax}"


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


def suite_bounds(name: str, **overrides) -> dict[str, int]:
    """A suite's default bounds, each replaced by an override that is not
    None; an unknown suite or key, a bound that is not an int or is below its
    minimum, and then a bound below the suite's own floor, is an error."""
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
        _require_int(key, val, _MINIMUM[key])
        bounds[key] = val
    if _FLOORS[name]:
        key, floor = _FLOORS[name]
        least = bounds.get(floor, floor)  # a bound's name stands for its value
        if bounds[key] < least:
            shown = f"{floor} ({least})" if floor in bounds else floor
            raise ValueError(f"{key} must be >= {shown}")
    return bounds


def run_suite(name: str, **overrides) -> VerifyReport:
    """Run one registered suite with the bounds suite_bounds gives.  Bounds
    it refuses raise.  An exception from the suite itself fails the report:
    the failures the suite logged stay, the exception is one more, and no
    cases are counted."""
    bounds = suite_bounds(name, **overrides)
    log = FailureLog()
    start = time.perf_counter()
    try:
        cases, summary = SUITES[name].run(log, **bounds)
    except Exception as exc:  # a crashed suite fails; the other suites still run
        cases, summary = 0, f"stopped by {type(exc).__name__}"
        log.add(" ".join(f"{k}={v}" for k, v in bounds.items()),
                "the suite runs to completion", f"{type(exc).__name__}: {exc}")
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerifyReport(name, bounds, cases, log.recorded, log.total, elapsed, summary)
