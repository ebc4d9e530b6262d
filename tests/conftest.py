"""Shared generators and cached contexts for the test suite."""

import random

import pytest

# the test modules import random_form and random_poly from here
from rumincalc.forms import Form, random_form  # noqa: F401
from rumincalc.polynomials import random_fraction, random_poly
from rumincalc.rumin_complex import RuminContext

_CONTEXTS = {}


def shared_context(n: int) -> RuminContext:
    if n not in _CONTEXTS:
        _CONTEXTS[n] = RuminContext(n)
    return _CONTEXTS[n]


@pytest.fixture(scope="session")
def ctx1():
    return shared_context(1)


@pytest.fixture(scope="session")
def ctx2():
    return shared_context(2)


def random_point_coords(rng: random.Random, nvars: int) -> list:
    return [random_fraction(rng) for _ in range(nvars)]


def random_core_form(rng: random.Random, ctx: RuminContext, h: int, degree: int) -> Form:
    dims = ctx.core_dims()
    return ctx.form_from_core(
        h, [random_poly(rng, 2 * ctx.n + 1, degree, terms=2) for _ in range(dims[h])]
    )
