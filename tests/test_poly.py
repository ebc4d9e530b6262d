import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import exact_value, symmetric_box_integral
from rumincalc.envelope import derive
from rumincalc.polynomials import Poly, linear_combination, random_poly

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


# -- the integer representation against a dict-of-Fraction oracle -------------
#
# A Poly keeps int numerators over one denominator. The oracle below keeps
# the plain {exponent: Fraction} dict and does each operation term by term;
# every result must equal it, stay reduced and hash like its equal.


def o_clean(terms):
    return {e: c for e, c in terms.items() if c}


def o_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return o_clean(out)


def o_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(sum, zip(e1, e2)))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return o_clean(out)


def o_partial(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}


def o_times_var(a, i, c):
    return {e[:i] + (e[i] + 1,) + e[i + 1:]: v * c for e, v in a.items()}


def o_derive(a, i, n=1):
    # X_i = d/dx_i - (y_i/2) d/dt, Y_i = d/dy_i + (x_i/2) d/dt, T = d/dt
    t = 2 * n
    if i == t:
        return o_partial(a, t)
    s, half = (n + i, Fraction(-1, 2)) if i < n else (i - n, Fraction(1, 2))
    return o_add(o_partial(a, i), o_times_var(o_partial(a, t), s, half))


def assert_reduced(p):
    assert p.den > 0 and type(p.den) is int
    assert all(type(v) is int and v for v in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert p.nums or p.den == 1


def assert_matches(p, oracle):
    assert_reduced(p)
    assert p.terms == oracle
    assert all(type(c) is Fraction for c in p.terms.values())
    twin = Poly(p.nvars, oracle)
    assert p == twin and hash(p) == hash(twin)
    assert bool(p) == bool(oracle)


def oracle_strategy(nvars=NVARS, max_degree=3):
    coeff = st.fractions(min_value=-7, max_value=7, max_denominator=12)
    exp = st.tuples(*[st.integers(min_value=0, max_value=max_degree)] * nvars)
    return st.dictionaries(exp, coeff, max_size=6).map(o_clean)


scalars = st.one_of(st.integers(-6, 6), st.fractions(-5, 5, max_denominator=9))


@given(oracle_strategy(), oracle_strategy(), scalars)
@settings(max_examples=80, deadline=None)
def test_integer_poly_ring_operations_match_the_fraction_oracle(a, b, c):
    p, q = Poly(NVARS, a), Poly(NVARS, b)
    assert_matches(p, a)
    assert_matches(p + q, o_add(a, b))
    assert_matches(p - q, o_add(a, b, -1))
    assert_matches(p * q, o_mul(a, b))
    assert_matches(-p, {e: -v for e, v in a.items()})
    assert_matches(p * c, o_clean({e: v * c for e, v in a.items()}))
    assert_matches(c * p, o_clean({e: v * c for e, v in a.items()}))
    assert_matches(p.scale(c), o_clean({e: v * c for e, v in a.items()}))
    # cancellation to zero, by sums and by scaling
    assert_matches(p - p, {})
    assert_matches(p + (-p), {})
    assert_matches(p * 0, {})
    assert_matches((p + q) - q, a)
    if c:
        assert_matches(p * c * (1 / Fraction(c)), a)
    pairs = [(c, p), (2, q), (Fraction(-1, 3), p * q)]
    want = {}
    for k, r in pairs:
        want = o_add(want, {e: v * k for e, v in r.terms.items()})
    assert_matches(linear_combination(NVARS, pairs), want)
    assert_matches(linear_combination(NVARS, [(1, p), (-1, p)]), {})


@given(oracle_strategy())
@settings(max_examples=60, deadline=None)
def test_integer_poly_derivatives_match_the_fraction_oracle(a):
    p = Poly(NVARS, a)
    for i in range(NVARS):
        assert_matches(p.partial(i), o_partial(a, i))
        assert_matches(derive(1, i, p), o_derive(a, i))


@given(oracle_strategy(max_degree=2), oracle_strategy(max_degree=1),
       oracle_strategy(max_degree=1), oracle_strategy(max_degree=1))
@settings(max_examples=40, deadline=None)
def test_integer_poly_compose_matches_the_fraction_oracle(a, u, v, w):
    images = [u, v, w]
    got = Poly(NVARS, a).compose([Poly(NVARS, im) for im in images])
    total = {}
    for e, c in a.items():
        term = {(0,) * NVARS: c}
        for i, k in enumerate(e):
            for _ in range(k):
                term = o_mul(term, images[i])
        total = o_add(total, term)
    assert_matches(got, total)


@given(oracle_strategy(max_degree=2))
@settings(max_examples=40, deadline=None)
def test_evaluate_float_is_bit_identical_to_float_of_the_fractions(a):
    p = Poly(NVARS, a)
    # each coefficient alone, at the point (1, 1, 1), is float(Fraction)
    for e, c in a.items():
        assert Poly(NVARS, {e: c}).evaluate_float([1.0] * NVARS) == float(c)
    # the whole grid equals the same contraction of the float(Fraction) tensor
    axes = [np.array([-0.7, 0.0, 1 / 3]), np.array([0.25, -1.5]), np.array([2.0, 0.1])]
    degrees = [max((e[i] for e in a), default=0) for i in range(NVARS)]
    C = np.zeros([d + 1 for d in degrees])
    for e, c in a.items():
        C[e] = float(c)
    for x, d in zip(axes, degrees):
        C = np.tensordot(C, x[..., None] ** np.arange(d + 1), axes=([0], [-1]))
    assert np.array_equal(p.evaluate_float(axes), C)
