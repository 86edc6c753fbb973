"""Independent reference for every output the benchmark checks.

Nothing here imports bicext: the product formula, the endomorphism closed
forms and composition table, the parameter ranges, the output formats, the
exit codes and the verification case counts are restated from the README, so
a change that breaks the program cannot also break the check.
"""

import json

EXIT_OK, EXIT_SYNTAX, EXIT_FAMILY, EXIT_RANGE = 0, 2, 3, 4

SUITE_ORDER = (
    "semigroup_axioms", "inverse_axioms", "order", "endo_homomorphism",
    "endo_injectivity", "composition_table", "idempotents", "cancellative",
    "ideal", "green_agreement", "classification_negative", "growth_inequalities",
)

#: Default bounds from the README's suite table.
DEFAULT_BOUNDS = {
    "semigroup_axioms": {"bound": 8},
    "inverse_axioms": {"bound": 8},
    "order": {"bound": 8},
    "endo_homomorphism": {"bound": 8, "kmax": 5},
    "endo_injectivity": {"bound": 20, "kmax": 5},
    "composition_table": {"bound": 20, "kmax": 5, "ksym": 12},
    "idempotents": {"kmax": 20},
    "cancellative": {"kmax": 5},
    "ideal": {"kmax": 5},
    "green_agreement": {"kmax": 5},
    "classification_negative": {"kmax": 4, "bound": 6},
    "growth_inequalities": {"kmax": 6, "tmax": 50},
}

#: Case counts the seed reports at the default bounds; case_count() must
#: reproduce them, so a shrunken bound or a skipped check reads as a failure.
SEED_CASES = {
    "semigroup_axioms": 4261167, "inverse_axioms": 972, "order": 78991,
    "endo_homomorphism": 657770, "endo_injectivity": 22050,
    "composition_table": 576342, "idempotents": 400, "cancellative": 6301,
    "ideal": 501, "green_agreement": 5625, "classification_negative": 24,
    "growth_inequalities": 269,
}


# ------------------------------------------------------------- algebra --


def product(x, y):
    """(i, j, base) product from the README formula."""
    i1, j1, b1 = x
    i2, j2, b2 = y
    if j1 <= i2:
        return (i1 - j1 + i2, j2, max(j1 - i2 + b1, b2))
    return (i1, j1 - i2 + j2, max(b1, i2 - j1 + b2))


def image(endo, x):
    kind, k, p = endo
    i, j, b = x
    if b == 0:
        return (k * i, k * j, 0)
    return (p + k * i, p + k * j, 1 if kind == "a" else 0)


def compose(e1, e2):
    """e1 applied first, from the README's composition rules."""
    (v1, k1, p1), (v2, k2, p2) = e1, e2
    if v1 == "a":
        return (v2, k1 * k2, p2 + k2 * p1)
    return ("b", k1 * k2, k2 * p1)


def endos(kmax):
    """All valid (kind, k, p) with k <= kmax."""
    out = [("a", k, p) for k in range(1, kmax + 1) for p in range(k)]
    out += [("b", k, p) for k in range(2, kmax + 1) for p in range(1, k)]
    return out


def fmt_elem(x):
    return "(%d,%d,%d)" % x


def fmt_endo(e):
    return "%s:%d,%d" % e


UNIT_TEXT = "a:1,0"


# ------------------------------------------------------- verify counts --


def case_count(suite, b):
    """Closed-form number of checks each suite runs at bounds b."""
    def n(bound):
        return 2 * (bound + 1) ** 2

    def preserving_count(kmax):
        return kmax * (kmax + 1) // 2

    def collapsing_count(kmax):
        return kmax * (kmax - 1) // 2

    if suite == "semigroup_axioms":
        s = b["bound"] + 1
        return n(b["bound"]) ** 3 + 4 * s ** 3 + n(b["bound"]) + s ** 4
    if suite == "inverse_axioms":
        return 4 * n(b["bound"]) + 4 * (b["bound"] + 1) ** 2
    if suite == "order":
        m, s = n(b["bound"]), b["bound"] + 1
        return 3 * m * m + m + s * s + 2 * b["bound"]
    if suite == "endo_homomorphism":
        e = b["kmax"] ** 2
        return e * (n(b["bound"]) ** 2 + 1) + (e - b["kmax"]) * (b["bound"] + 1) ** 2 + e
    if suite == "endo_injectivity":
        return b["kmax"] ** 2 * n(b["bound"])
    if suite == "composition_table":
        return (b["kmax"] ** 4 * n(b["bound"]) + b["ksym"] ** 4
                + collapsing_count(b["ksym"]) ** 2)
    if suite == "idempotents":
        return b["kmax"] ** 2
    if suite == "cancellative":
        pc = preserving_count(b["kmax"])
        return 2 * pc * pc * (pc - 1) + 1
    if suite == "ideal":
        return 2 * b["kmax"] ** 2 * collapsing_count(b["kmax"]) + 1
    if suite == "green_agreement":
        return 9 * b["kmax"] ** 4
    if suite == "classification_negative":
        return 6 * b["kmax"]
    if suite == "growth_inequalities":
        ks = range(1, b["kmax"] + 1)
        return (sum(k * (k + 3) for k in ks)
                + sum((k - 1) * (k + 3) for k in ks if k >= 2))
    raise KeyError(suite)


def suite_bounds(suite, overrides):
    """Bounds a suite runs at: its defaults, replaced where it takes a key."""
    bounds = dict(DEFAULT_BOUNDS[suite])
    for key, val in overrides.items():
        if key in bounds:
            bounds[key] = val
    return bounds


# ------------------------------------------------------------ checkers --


def _schema_errors(doc):
    """Structural check against the README's report shape; returns a reason
    or None.  Mirrors REPORT_SCHEMA without reading it from the program."""
    if not isinstance(doc, list):
        return "report is not an array"
    keys = {"suite", "bounds", "cases", "failures", "elapsed_ms", "pass"}
    for item in doc:
        if not isinstance(item, dict) or set(item) != keys:
            return f"report item keys {sorted(item) if isinstance(item, dict) else item}"
        if not isinstance(item["suite"], str):
            return "suite is not a string"
        bounds = item["bounds"]
        if not isinstance(bounds, dict) or not all(
                type(v) is int for v in bounds.values()):
            return "bounds are not integers"
        if type(item["cases"]) is not int or item["cases"] < 0:
            return "cases is not a non-negative integer"
        if not isinstance(item["failures"], list) or not all(
                isinstance(f, dict) and set(f) == {"inputs", "expected", "got"}
                and all(isinstance(v, str) for v in f.values())
                for f in item["failures"]):
            return "malformed failure record"
        if (type(item["elapsed_ms"]) not in (int, float)
                or item["elapsed_ms"] < 0):
            return "elapsed_ms is not a non-negative number"
        if type(item["pass"]) is not bool:
            return "pass is not a boolean"
    return None


def check_verify(stdout, code, suites, overrides, schema=None):
    """Reason the verify output is wrong, or None.

    suites lists the suites requested in order; overrides are the bound
    flags given on the command line.  With schema (REPORT_SCHEMA) and
    jsonschema available the document is validated against it as well.
    """
    if code != EXIT_OK:
        return f"exit code {code!r}, want {EXIT_OK}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    reason = _schema_errors(doc)
    if reason:
        return reason
    if schema is not None:
        try:
            import jsonschema
        except ImportError:
            pass
        else:
            try:
                jsonschema.validate(doc, schema)
            except jsonschema.ValidationError as exc:
                return f"schema: {exc.message}"
    if [item["suite"] for item in doc] != list(suites):
        return f"suites {[item['suite'] for item in doc]}"
    for item in doc:
        name = item["suite"]
        want_bounds = suite_bounds(name, overrides)
        if item["bounds"] != want_bounds:
            return f"{name} bounds {item['bounds']}, want {want_bounds}"
        want_cases = case_count(name, want_bounds)
        if item["cases"] != want_cases:
            return f"{name} cases {item['cases']}, want {want_cases}"
        if item["pass"] is not True or item["failures"]:
            return f"{name} did not pass"
    return None


def green_search_stdout(a, b, kmax):
    if a == b:
        return f"related: true (bound {kmax}); witnesses: {UNIT_TEXT}\n"
    return f"related: false (bound {kmax})\n"


def cayley_stdout(bases, bound, gens, fmt):
    nodes = [(i, j, base) for base in bases
             for i in range(bound + 1) for j in range(bound + 1)]
    inside = set(nodes)
    edges = [(x, g, product(x, g)) for x in nodes for g in gens
             if product(x, g) in inside]
    if fmt == "dot":
        lines = ["digraph cayley {"]
        lines += [f'  "{fmt_elem(x)}";' for x in nodes]
        lines += [f'  "{fmt_elem(x)}" -> "{fmt_elem(t)}" [label="{fmt_elem(g)}"];'
                  for x, g, t in edges]
        lines.append("}")
    else:
        # every element text contains commas, so the CSV writer quotes it
        lines = ["source,generator,target"]
        lines += [",".join(f'"{fmt_elem(v)}"' for v in row) for row in edges]
    return "\n".join(lines) + "\n"
