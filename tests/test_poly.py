import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import exact_value, symmetric_box_integral
from rumincalc.polynomials import Poly, random_poly

NVARS = 3


def poly_strategy(nvars=NVARS, max_degree=3):
    coeff = st.fractions(
        min_value=-5, max_value=5, max_denominator=4
    )
    exp = st.tuples(*[st.integers(min_value=0, max_value=max_degree)] * nvars)
    return st.dictionaries(exp, coeff, max_size=5).map(lambda d: Poly(nvars, d))


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero(NVARS) == a
    assert a * Poly.const(NVARS, 1) == a
    assert a - a == Poly.zero(NVARS)


@given(poly_strategy(), poly_strategy())
@settings(max_examples=40, deadline=None)
def test_partial_is_a_derivation(a, b):
    for i in range(NVARS):
        lhs = (a * b).partial(i)
        rhs = a.partial(i) * b + a * b.partial(i)
        assert lhs == rhs


def test_basic_arithmetic_examples():
    x = Poly.var(3, 0)
    y = Poly.var(3, 1)
    t = Poly.var(3, 2)
    p = (x + y) ** 2
    assert p == x * x + x * y * Poly.const(3, 2) + y * y
    assert p.partial(0) == (x + y) * Poly.const(3, 2)
    assert max(map(sum, (x * t).terms)) == 2
    assert p.terms[(1, 1, 0)] == 2


def test_scale_and_compose():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = x * y + x
    assert p.scale(Fraction(1, 2)) == Fraction(1, 2) * p
    assert p / 2 == p.scale(Fraction(1, 2))
    assert p / Fraction(2, 3) == p.scale(Fraction(3, 2))
    with pytest.raises(ZeroDivisionError):
        p / 0
    # substitute into a larger ring
    u = Poly.var(3, 0)
    v = Poly.var(3, 1)
    w = Poly.var(3, 2)
    q = p.compose([u + w, v])
    assert q == (u + w) * v + u + w
    assert q.nvars == 3


def test_evaluate_exact_and_box_integral():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = x**2 * y**2 + x
    assert exact_value(p, [Fraction(1, 2), Fraction(2)]) == Fraction(3, 2)
    # odd terms vanish; int_{-1}^{1} x^2 dx = 2/3 per axis
    assert symmetric_box_integral(p) == Fraction(4, 9)


def test_evaluate_float_matches_exact():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    p = x**3 - y * x + Poly.const(2, Fraction(1, 4))
    exact = exact_value(p, [Fraction(1, 3), Fraction(-2, 5)])
    # scalar coordinates add no axis: the value comes back as a 0-d array
    approx = p.evaluate_float([1 / 3, -0.4])
    assert approx.shape == ()
    assert approx == pytest.approx(float(exact))
    # 1-D axes give the values on their tensor grid, axis i along dimension i
    xs, ys = [Fraction(1, 3), Fraction(-1, 2)], [Fraction(-2, 5), Fraction(0), Fraction(3, 2)]
    grid = p.evaluate_float([np.array([float(x) for x in xs]), np.array([float(y) for y in ys])])
    assert grid.shape == (2, 3)
    for a, x in enumerate(xs):
        for b, y in enumerate(ys):
            assert grid[a, b] == pytest.approx(float(exact_value(p, [x, y])))


def test_add_and_mul_drop_cancelled_terms():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    assert (x + y + 3) + (y * Fraction(-1)) == x + 3
    assert ((x + y) + (-x - y)).terms == {}
    assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): -1}
    # x^2 cancels after two of its three contributions, then comes back
    u = Poly.var(1, 0)
    product = (1 + u + u * u) * (1 - u + u * u)
    assert product.terms == {(0,): 1, (2,): 1, (4,): 1}
    assert all(isinstance(c, Fraction) and c for c in product.terms.values())


def test_power_equals_repeated_product():
    p = random_poly(random.Random(2), 3, 2, terms=4)
    assert len(p.terms) == 4
    product = Poly.const(3, 1)
    for k in range(10):
        assert p**k == product, k
        product = product * p
    with pytest.raises(ValueError):
        p ** -1
