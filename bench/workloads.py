"""Seeded inputs, round bodies and output checks for the two workloads.

Inputs come only from the seed and spec.json; expected outputs come only
from reference.py.  The bicext modules are passed in by the worker, so this
file can be imported (and its generators and checkers tested) without the
program under test.
"""

import contextlib
import io
import json
import random
import time
from pathlib import Path

import reference as ref

SPEC = json.loads((Path(__file__).parent / "spec.json").read_text())
WORKLOADS = tuple(SPEC["workloads"])

#: Overrides that shrink verify-default to a tiny smoke size.
TINY_VERIFY = {"bound": 2, "kmax": 2, "ksym": 3, "tmax": 4}


def verify_argv(overrides):
    argv = ["verify", "--suite", "all", "--format", "json"]
    for key, val in overrides.items():
        argv += [f"--{key}", str(val)]
    return argv


# ------------------------------------------------------------- tallies --


class Tally:
    """Operations attempted and failed.  A listed README disagreement that
    gives exactly the seed's recorded output is counted apart, in `known`,
    not in `failed`: it is checked behaviour, and it recurs in proportion to
    the run's length.  `error_rate` counts both."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.reasons = []

    def record(self, reason, what, known=False):
        self.attempted += 1
        if reason is None:
            return
        if known:
            self.known += 1
            return
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"{what}: {reason}")

    @property
    def correct(self):
        return self.failed == 0

    @property
    def error_rate(self):
        return (self.failed + self.known) / max(self.attempted, 1)


# -------------------------------------------------------------- cli-mix --


def _rand_elem(rng, width=2):
    cm = SPEC["workloads"]["cli-mix"]
    return (rng.randint(0, cm["coordinate_max"]), rng.randint(0, cm["coordinate_max"]),
            rng.randrange(width))


def _rand_endo(rng, kmax):
    return rng.choice(ref.endos(kmax))


def _bad_endo(rng):
    """(kind, k, p) outside its README range."""
    k = rng.randint(2, 8)
    return rng.choice([("a", k, k + rng.randint(0, 2)), ("b", k, 0),
                       ("b", 1, rng.randint(0, 1)), ("a", 0, 0)])


def _exact(code, stdout):
    return {"code": code, "stdout": stdout}


def _op(cls, argv, expect, seed=None):
    """seed, for a listed README disagreement, is the output the seed gives
    instead of the README's; only that exact output counts as known."""
    return {"cls": cls, "argv": argv, "expect": expect, "seed": seed}


# Error inputs: each maker cycles through its variants by n, so a block holds
# each variant equally often whatever the seed.  The last variant of the
# exit-2 and exit-3 makers is a listed README disagreement; it comes with the
# output the seed gives for it.


def _syntax_error(rng, n):
    e = ref.fmt_elem(_rand_elem(rng))
    choice = n % 7
    if choice == 0:  # element missing a coordinate
        return ["mul", "(%d,%d)" % _rand_elem(rng)[:2], e], None
    if choice == 1:  # element with a letter
        return ["endo", "apply", "a:2,1", "(x,%d,0)" % rng.randint(0, 9)], None
    if choice == 2:  # unknown endomorphism kind
        return ["endo", "compose", "c:%d,1" % rng.randint(2, 8), "a:1,0"], None
    if choice == 3:  # unknown suite
        return ["verify", "--suite", "no_such_suite_%d" % rng.randint(0, 99)], None
    if choice == 4:  # missing positional argument (usage error)
        return ["mul", e], None
    if choice == 5:  # bad relation choice
        return ["green", "-r", rng.choice("XYZ"), "a:1,0", "a:1,0"], None
    # an Arabic-Indic digit: the seed's \d accepts it and multiplies
    x, y = (rng.randint(1, 9), 2, 0), _rand_elem(rng)
    return (["mul", "(%s,2,0)" % chr(0x0660 + x[0]), ref.fmt_elem(y)],
            _exact(ref.EXIT_OK, ref.fmt_elem(ref.product(x, y)) + "\n"))


def _family_error(rng, n):
    e = ref.fmt_elem(_rand_elem(rng))
    choice = n % 6
    if choice == 0:  # gap in the base block
        m = rng.randint(2, 6)
        gap = rng.randint(1, m - 1)
        bases = [b for b in range(m + 1) if b != gap]
        return ["mul", e, e, "--family", ",".join(map(str, bases))], None
    if choice == 1:  # no [0)
        return ["mul", e, e, "--family", ",".join(map(str, range(1, rng.randint(2, 5))))], None
    if choice == 2:  # repeated base
        return ["export-cayley", "--bound", "1", "--family", "0,1,1"], None
    wide = ",".join(map(str, range(rng.randint(3, 6))))
    if choice == 3:  # endomorphisms need the two-ray family
        return ["endo", "apply", "a:2,1", e, "--family", wide], None
    if choice == 4:
        return ["green", "-r", "R", "a:1,0", "a:1,0", "--family", wide], None
    # an empty family: the seed reads it as no flag and multiplies
    x = _rand_elem(rng)
    return (["mul", ref.fmt_elem(x), ref.fmt_elem(x), "--family", ""],
            _exact(ref.EXIT_OK, ref.fmt_elem(ref.product(x, x)) + "\n"))


def _range_error(rng, n):
    bad = ref.fmt_endo(_bad_endo(rng))
    good = ref.fmt_endo(_rand_endo(rng, 4))
    choice = n % 4
    if choice == 0:
        return ["endo", "apply", bad, ref.fmt_elem(_rand_elem(rng))], None
    if choice == 1:
        return ["endo", "compose", good, bad], None
    if choice == 2:
        return ["green", "-r", rng.choice("RLHDJ"), bad, good], None
    k = rng.randint(1, 6)
    level = rng.randint(0, 1)
    p = rng.choice([k, k + 1]) if level else rng.choice([0, k])
    if k == 1 and level == 0:
        p = 0
    return ["endo", "classify", "--k", str(k), "--level", str(level), "--p", str(p)], None


#: The cheap suites cli-mix runs, one after another, at fixed small bounds.
CLI_VERIFY = [("idempotents", "kmax", 8), ("ideal", "kmax", 3),
              ("cancellative", "kmax", 3), ("growth_inequalities", "kmax", 3),
              ("inverse_axioms", "bound", 2), ("idempotents", "kmax", 6),
              ("ideal", "kmax", 4), ("inverse_axioms", "bound", 3),
              ("cancellative", "kmax", 2), ("growth_inequalities", "kmax", 4)]


def _green_pair(rng, n, kmax):
    # every 1/green_equal_share-th pair is equal
    a = _rand_endo(rng, kmax)
    if n % round(1 / SPEC["workloads"]["cli-mix"]["green_equal_share"]) == 0:
        return a, a
    return a, rng.choice([e for e in ref.endos(kmax) if e != a])


def cli_block(rng, size):
    """One block of cli ops with exact per-block command counts."""
    cm = SPEC["workloads"]["cli-mix"]
    counts = {k: round(v * size / cm["block"]) for k, v in cm["counts_per_block"].items()}
    ops = []
    for _ in range(counts["mul"]):
        x, y = _rand_elem(rng), _rand_elem(rng)
        ops.append(_op("mul", ["mul", ref.fmt_elem(x), ref.fmt_elem(y)],
                       _exact(0, ref.fmt_elem(ref.product(x, y)) + "\n")))
    # attributes that set a call's cost cycle through their values, so every
    # block costs the same whatever the seed
    widths = cm["family_widths"]
    for n in range(counts["mul_wide"]):
        w = widths[n % len(widths)]
        x, y = _rand_elem(rng, w), _rand_elem(rng, w)
        fam = ",".join(map(str, range(w)))
        ops.append(_op("mul_wide", ["mul", ref.fmt_elem(x), ref.fmt_elem(y), "--family", fam],
                       _exact(0, ref.fmt_elem(ref.product(x, y)) + "\n")))
    for _ in range(counts["endo_apply"]):
        e, x = _rand_endo(rng, cm["endo_kmax"]), _rand_elem(rng)
        ops.append(_op("endo_apply", ["endo", "apply", ref.fmt_endo(e), ref.fmt_elem(x)],
                       _exact(0, ref.fmt_elem(ref.image(e, x)) + "\n")))
    for _ in range(counts["endo_compose"]):
        e1, e2 = _rand_endo(rng, cm["endo_kmax"]), _rand_endo(rng, cm["endo_kmax"])
        ops.append(_op("endo_compose", ["endo", "compose", ref.fmt_endo(e1), ref.fmt_endo(e2)],
                       _exact(0, ref.fmt_endo(ref.compose(e1, e2)) + "\n")))
    for _ in range(counts["endo_classify"]):
        kind, k, p = _rand_endo(rng, cm["endo_kmax"])
        level = 1 if kind == "a" else 0
        ops.append(_op("endo_classify", ["endo", "classify", "--k", str(k),
                                         "--level", str(level), "--p", str(p)],
                       _exact(0, ref.fmt_endo((kind, k, p)) + "\n")))
    for n in range(counts["green_symbolic"]):
        a, b = _green_pair(rng, n, cm["green_symbolic_kmax"])
        verdict = "true" if a == b else "false"
        ops.append(_op("green_symbolic", ["green", "-r", "RLHDJ"[n % 5],
                                          ref.fmt_endo(a), ref.fmt_endo(b)],
                       _exact(0, f"related: {verdict}\n")))
    kset = cm["green_search_kmax_set"]
    for n in range(counts["green_search"]):
        kmax = kset[n % len(kset)]
        a, b = _green_pair(rng, n, max(kset))
        ops.append(_op("green_search", ["green", "-r", "RLHDJ"[n % 5], ref.fmt_endo(a),
                                        ref.fmt_endo(b), "--mode", "search",
                                        "--kmax", str(kmax)],
                       _exact(0, ref.green_search_stdout(a, b, kmax))))
    bounds = cm["export_bounds"]
    for n in range(counts["export_cayley"]):
        bound = bounds[n % len(bounds)]
        gens = [(rng.randint(0, 2), rng.randint(0, 2), rng.randrange(2))
                for _ in range(1 + (n // len(bounds)) % 2)]
        fmt = ("dot", "csv")[(n // (2 * len(bounds))) % 2]
        ops.append(_op("export_cayley", ["export-cayley", "--bound", str(bound),
                                         "--generators", *map(ref.fmt_elem, gens),
                                         "--format", fmt],
                       _exact(0, ref.cayley_stdout((0, 1), bound, gens, fmt))))
    for n in range(counts["verify"]):
        suite, key, val = CLI_VERIFY[n % len(CLI_VERIFY)]
        ops.append(_op("verify", ["verify", "--suite", suite, "--format", "json",
                                  f"--{key}", str(val)],
                       {"verify": [suite], "overrides": {key: val}}))
    # error inputs are split evenly over the three documented exit codes
    makers = ((_syntax_error, ref.EXIT_SYNTAX), (_family_error, ref.EXIT_FAMILY),
              (_range_error, ref.EXIT_RANGE))
    for n in range(counts["error"]):
        maker, code = makers[n % 3]
        argv, seed = maker(rng, n // 3)
        ops.append(_op("error", argv, _exact(code, ""), seed))
    rng.shuffle(ops)
    return ops


def check_cli(op, code, out, err):
    expect = op["expect"]
    if "verify" in expect:
        return ref.check_verify(out, code, expect["verify"], expect["overrides"])
    if code != expect["code"]:
        return f"exit {code}, want {expect['code']}"
    if out != expect["stdout"]:
        return f"stdout {out[:80]!r}, want {expect['stdout'][:80]!r}"
    if code != ref.EXIT_OK and not err:
        return "no message on stderr"
    return None


def record_cli(tally, op, code, out, err):
    """Check one cli op into tally and return the reason it failed, or None.
    A listed README disagreement counts as known only while the program gives
    exactly the seed's output for it; any other output that is not the
    README's counts as failed."""
    reason = check_cli(op, code, out, err)
    known = reason is not None and op["seed"] == _exact(code, out)
    tally.record(reason, " ".join(op["argv"]), known=known)
    return reason


# ---------------------------------------------------------- round bodies --


class Bodies:
    """Runs workload rounds against the bicext modules in `bic`.

    `call` is how every top-level call is made: a plain call when untraced,
    a span-recording call when traced.  `clock` times every call; the
    untraced run sets it to one that leaves out host-speed sampling.  Each
    round returns its wall time, per-op latencies (seconds) and verification
    cases checked; outputs are checked after the timed section, into `tally`.
    """

    clock = staticmethod(time.perf_counter)

    def __init__(self, bic, workload, seed, tiny, call, tally, schema):
        self.bic = bic
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.call = call
        self.tally = tally
        self.schema = schema
        self.rounds = 0
        self.cli_size = 200 if tiny else SPEC["workloads"]["cli-mix"]["block"]

    def run_round(self):
        rng = random.Random(f"{self.seed}:{self.workload}:{self.rounds}")
        self.rounds += 1
        return getattr(self, "_round_" + self.workload.replace("-", "_"))(rng)

    def attempt(self, name, tag, fn, *args, **kwargs):
        """Make one top-level call; an unexpected exception is returned, to
        be counted as a failed operation, instead of ending the run."""
        try:
            return self.call(name, tag, fn, *args, **kwargs)
        except Exception as exc:  # noqa: BLE001  (any exception is a failure)
            return exc

    def main(self, argv, cls):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = self.clock()
            code = self.attempt("cli.main", cls, self.bic.cli.main, argv)
            t1 = self.clock()
        return t1 - t0, code, out.getvalue(), err.getvalue()

    def _round_verify_default(self, rng):
        overrides = TINY_VERIFY if self.tiny else {}
        dt, code, out, _ = self.main(verify_argv(overrides), "verify")
        reason = ref.check_verify(out, code, ref.SUITE_ORDER, overrides, self.schema)
        self.tally.record(reason, "verify --suite all")
        cases = sum(ref.case_count(s, ref.suite_bounds(s, overrides)) for s in ref.SUITE_ORDER)
        return {"wall": dt, "lat": [dt], "cases": cases if reason is None else 0,
                "case_time": dt}

    def _round_cli_mix(self, rng):
        ops = cli_block(rng, self.cli_size)
        t0 = self.clock()
        runs = [self.main(op["argv"], op["cls"]) for op in ops]
        wall = self.clock() - t0
        cases, class_time = 0, {}
        for op, (dt, code, out, err) in zip(ops, runs):
            reason = record_cli(self.tally, op, code, out, err)
            class_time[op["cls"]] = class_time.get(op["cls"], 0.0) + dt
            if reason is None and "verify" in op["expect"]:
                cases += sum(item["cases"] for item in json.loads(out))
        # cases_per_s is taken over the verify calls' own time
        return {"wall": wall, "lat": [r[0] for r in runs], "cases": cases,
                "case_time": class_time.get("verify", 0.0), "class_time": class_time}

    def pre_roll(self):
        """Untimed calls before measuring, so argparse and the regex and
        lru caches are warm; only cli-mix has per-call costs small enough
        for that to matter.  Their outputs are checked too."""
        if self.workload != "cli-mix":
            return
        ops = cli_block(random.Random(f"{self.seed}:warm"), self.cli_size)
        for op in ops[:SPEC["workloads"]["cli-mix"]["warmup_calls"]]:
            _, code, out, err = self.main(op["argv"], op["cls"])
            record_cli(self.tally, op, code, out, err)

    def warm_up(self):
        """The cheap call every fresh interpreter makes before it counts as
        set up; its output is checked like any other."""
        if self.workload == "verify-default":
            _, code, out, _ = self.main(["verify", "--suite", "idempotents", "--kmax", "2",
                                         "--format", "json"], "verify")
            return ref.check_verify(out, code, ["idempotents"], {"kmax": 2})
        _, code, out, _ = self.main(["mul", "(1,2,0)", "(1,3,1)"], "mul")
        return None if (code, out) == (0, "(1,4,0)\n") else f"mul gave {code!r} {out!r}"

