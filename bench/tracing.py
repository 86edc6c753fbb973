"""Spans, call counts and micro-timings for the traced run.

Everything is installed from outside the program: the benchmark's own call
sites open spans, and the names a module imported from the layer below are
replaced by wrappers that open a span (object layer and up) or bump a
counter (raw kernel functions).  Nothing is installed in an untraced run.
Spans stay in memory and are written out once, at the end of the run.
"""

import json
import statistics
import time

from reference import SUITE_ORDER
from workloads import SPEC

#: Span name -> module (layer) its self time is charged to.
SPAN_LAYER = {
    "cli.main": "cli",
    "cli.run_suite": "oracle_verify",
    "oracle_verify.green_bounded_search": "endo_monoid_green",
    "cli.green_bounded_search": "endo_monoid_green",
    "cli.green_symbolic": "endo_monoid_green",
    "cli.apply": "endomorphisms",
    "cli.compose": "endomorphisms",
    "cli.classify_from_images": "endomorphisms",
    "cli.core_mul": "core_semigroup",
    "Family.from_bases": "core_semigroup",
}
LAYERS = ("cli", "oracle_verify", "endo_monoid_green", "endomorphisms", "core_semigroup")
CLI_CLASSES = ("mul", "mul_wide", "endo_apply", "endo_compose", "endo_classify",
               "green_symbolic", "green_search", "export_cayley", "error")
RELATIONS = ("R", "L", "H", "D", "J")
FAMILY_WIDTHS = SPEC["workloads"]["cli-mix"]["family_widths"]

# span record fields
NAME, TAG, START, END, PARENT, ROOT, EXTRA = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.roots = 0
        self.counts = {}
        self._patched = []

    def call(self, name, tag, fn, *args, **kwargs):
        """Call fn inside a span; the benchmark's top-level call sites use this."""
        parent = self.stack[-1] if self.stack else -1
        if parent < 0:
            self.roots += 1
        rec = [name, tag, 0, 0, parent, self.roots, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter_ns()
            self.stack.pop()
        if name.endswith("run_suite"):
            rec[EXTRA] = result.cases
        return result

    def _span_wrapper(self, name, fn, tag_of):
        def wrapper(*args, **kwargs):
            return self.call(name, tag_of(args), fn, *args, **kwargs)
        return wrapper

    def _count_wrapper(self, key, fn):
        cell = self.counts.setdefault(key, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, bic):
        cli, ov, eg = bic.cli, bic.oracle_verify, bic.endo_monoid_green
        core, endo = bic.core_semigroup, bic.endomorphisms

        def suite(args):
            return args[0]

        def relation(args):
            return args[0].relation

        def untagged(args):
            return None

        for owner, attr, tag_of in ((cli, "run_suite", suite),
                                    (ov, "green_bounded_search", relation),
                                    (cli, "green_bounded_search", relation),
                                    (cli, "green_symbolic", relation),
                                    (cli, "apply", untagged), (cli, "compose", untagged),
                                    (cli, "classify_from_images", untagged),
                                    (cli, "core_mul", untagged)):
            name = f"cli.{attr}" if owner is cli else f"oracle_verify.{attr}"
            self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr), tag_of))
        from_bases = core.Family.__dict__["from_bases"].__func__
        self._patch(core.Family, "from_bases", classmethod(
            self._span_wrapper("Family.from_bases", from_bases, lambda args: len(args) - 1)))
        for owner, attr, key in ((core, "_mul_raw", "mul_raw"), (ov, "_mul_raw", "mul_raw"),
                                 (endo, "_mul_raw", "mul_raw"), (core, "mul", "mul"),
                                 (ov, "mul", "mul"), (endo, "_raw_image", "raw_image"),
                                 (ov, "_raw_image", "raw_image"),
                                 (eg, "_compose_raw", "green_compose_raw")):
            self._patch(owner, attr, self._count_wrapper(key, getattr(owner, attr)))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def count(self, key):
        return self.counts.get(key, [0])[0]

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    # ------------------------------------------------------------ metrics --

    def layer_metrics(self):
        """Per-layer metrics from the recorded spans and counts."""
        spans = self.spans
        dur = [(s[END] - s[START]) / 1e3 for s in spans]  # microseconds
        child = [0.0] * len(spans)
        for idx, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[idx]
        self_us = [d - c for d, c in zip(dur, child)]
        by_name = {}
        for idx, s in enumerate(spans):
            by_name.setdefault(s[NAME], []).append(idx)

        m = {}
        mains = by_name.get("cli.main", [])
        m["cli.self_us"] = (_median([self_us[i] for i in mains]), "us")
        for cls in CLI_CLASSES:
            m[f"cli.{cls}.p50_us"] = (
                _median([dur[i] for i in mains if spans[i][TAG] == cls]), "us")

        suite_spans = by_name.get("cli.run_suite", [])
        for suite in SUITE_ORDER:
            mine = [i for i in suite_spans if spans[i][TAG] == suite]
            m[f"verify.{suite}.ms"] = (sum(dur[i] for i in mine) / 1e3, "ms")
            m[f"verify.{suite}.cases"] = (sum(spans[i][EXTRA] for i in mine), "count")
        verify_mains = [i for i in mains if spans[i][TAG] == "verify"]
        suite_child = {}
        for i in by_name.get("cli.run_suite", []):
            suite_child[spans[i][PARENT]] = suite_child.get(spans[i][PARENT], 0.0) + dur[i]
        m["verify.report_ms"] = (
            _median([dur[i] - suite_child.get(i, 0.0) for i in verify_mains]) / 1e3, "ms")

        green = [i for name in ("oracle_verify.green_bounded_search",
                                "cli.green_bounded_search") for i in by_name.get(name, [])]
        for rel in RELATIONS:
            mine = [dur[i] for i in green if spans[i][TAG] == rel]
            m[f"green.{rel}.calls"] = (len(mine), "count")
            m[f"green.{rel}.mean_us"] = (statistics.fmean(mine) if mine else 0.0, "us")
        compose_raw = self.count("green_compose_raw")
        m["green.compose_raw_calls"] = (compose_raw, "count")
        m["green.compose_raw_per_query"] = (compose_raw / max(len(green), 1), "ratio")

        m["endo.raw_image_calls"] = (self.count("raw_image"), "count")
        m["core.mul_raw_calls"] = (self.count("mul_raw"), "count")
        m["core.mul_calls"] = (self.count("mul") + len(by_name.get("cli.core_mul", [])),
                               "count")
        for layer in LAYERS:
            total = sum(self_us[i] for i, s in enumerate(spans)
                        if SPAN_LAYER[s[NAME]] == layer)
            m[f"self.{layer}.ms"] = (total / 1e3, "ms")
        return m


def _median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------- micro --


def _per_call(fn, args_list, repeats=5, min_time=0.01):
    """Median seconds per call of fn over args_list, loop included."""
    def loop(number):
        t0 = time.perf_counter()
        for _ in range(number):
            for args in args_list:
                fn(*args)
        return time.perf_counter() - t0

    number = 1
    while loop(number) < min_time:
        number *= 2
    return statistics.median(loop(number) for _ in range(repeats)) / (number * len(args_list))


def micro_metrics(bic):
    """ns-per-call timings of each layer's public functions, from outside.
    Must run with no wrappers installed."""
    core, endo = bic.core_semigroup, bic.endomorphisms
    fam = core.CANONICAL_FAMILY
    raws = [(i, j, b) for b in (0, 1) for i in range(4) for j in range(4)]
    pairs = [(x, y) for x in raws[::3] for y in raws[1::3]]
    elems = [(fam.elem(*x), fam.elem(*y)) for x, y in pairs]
    endos = endo.enumerate_endos(4)
    m = {
        "core.mul_raw_ns": _per_call(core._mul_raw, [x + y for x, y in pairs]),
        "core.mul_ns": _per_call(core.mul, elems),
        "core.elem_ns": _per_call(core.Elem, [(i, j, f, fam) for i, j, f in raws]),
        "core.leq_natural_ns": _per_call(core.leq_natural, elems),
        "endo.apply_ns": _per_call(endo.apply, [(e, x) for e in endos[::3]
                                                for x, _ in elems[::5]]),
        "endo.compose_ns": _per_call(endo.compose, [(e1, e2) for e1 in endos[::2]
                                                    for e2 in endos[1::2]]),
        "endo.raw_image_ns": _per_call(endo._raw_image, [(e.kind, e.k, e.p, *x)
                                                         for e in endos[::3] for x in raws]),
        "endo.compose_raw_ns": _per_call(endo._compose_raw,
                                         [(e1.kind, e1.k, e1.p, e2.kind, e2.k, e2.p)
                                          for e1 in endos[::2] for e2 in endos[1::2]]),
    }
    out = {name: (val * 1e9, "ns") for name, val in m.items()}
    out["endo.homomorphism_counterexample_ms"] = (
        _per_call(endo.homomorphism_counterexample,
                  [(endo.Kind.PRESERVING, 3, 1, 6)], min_time=0.02) * 1e3, "ms")
    for w in FAMILY_WIDTHS:
        out[f"core.family_build_us.w{w}"] = (
            _per_call(core.Family.from_bases, [tuple(range(w))]) * 1e6, "us")
    return out
