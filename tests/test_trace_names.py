"""Names the benchmark's traced run replaces by assignment.

`python3 bench/run.py --trace 1` wraps functions by name, module by module
(bench/tracing.py `Tracer.install`), and stops with AttributeError when a
listed module does not bind a listed name.  So each name below must stay
bound in each module listed, as the very object its defining module holds,
or a refactor breaks the traced run without failing any other test.  This
is why endomorphisms keeps importing _mul_raw although it no longer calls
it: the tracer counts _mul_raw calls there too.
"""

import inspect

import pytest

from bicext import cli, core_semigroup, endo_monoid_green, endomorphisms, oracle_verify

KERNELS = [
    ("_mul_raw", core_semigroup._mul_raw, (core_semigroup, oracle_verify, endomorphisms)),
    ("_raw_image", endomorphisms._raw_image, (endomorphisms, oracle_verify)),
    ("_compose_raw", endomorphisms._compose_raw, (endo_monoid_green,)),
    ("mul", core_semigroup.mul, (core_semigroup, oracle_verify)),
    ("green_bounded_search", endo_monoid_green.green_bounded_search, (oracle_verify,)),
    ("run_suite", oracle_verify.run_suite, (cli,)),
    ("green_bounded_search", endo_monoid_green.green_bounded_search, (cli,)),
    ("green_symbolic", endo_monoid_green.green_symbolic, (cli,)),
    ("apply", endomorphisms.apply, (cli,)),
    ("compose", endomorphisms.compose, (cli,)),
    ("classify_from_images", endomorphisms.classify_from_images, (cli,)),
    ("core_mul", core_semigroup.mul, (cli,)),
]


@pytest.mark.parametrize("name, original, modules", KERNELS)
def test_name_is_bound_in_every_traced_module(name, original, modules):
    for module in modules:
        assert module.__dict__.get(name) is original, f"{module.__name__}.{name}"


def test_from_bases_is_a_classmethod_defined_on_family():
    # the tracer unwraps Family.__dict__["from_bases"].__func__ and re-wraps it
    from_bases = core_semigroup.Family.__dict__["from_bases"]
    assert isinstance(from_bases, classmethod)
    assert from_bases.__func__(core_semigroup.Family, 0, 1) == core_semigroup.CANONICAL_FAMILY


def test_elem_takes_four_positional_arguments():
    # the micro timings build Elem(i, j, f, family)
    Elem, family = core_semigroup.Elem, core_semigroup.CANONICAL_FAMILY
    assert len(inspect.signature(Elem).parameters) == 4
    assert Elem(1, 2, 1, family) == family.elem(1, 2, 1)
