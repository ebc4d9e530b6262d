import random
from fractions import Fraction

import numpy as np

from conftest import random_point_coords
from rumincalc.group_geometry import (
    dilate,
    from_coords,
    gauge4,
    homogeneous_dimension,
    identity,
    inverse,
    multiply,
)
from rumincalc.polynomials import Poly


def test_group_law_example():
    p = from_coords([1, 2, 3])
    q = from_coords([4, 5, 6])
    # t picks up (x y' - y x') / 2 = (1*5 - 2*4) / 2 = -3/2
    assert multiply(p, q).coords() == (5, 7, Fraction(15, 2))
    # int coordinates become Fractions, so exact points stay exact
    assert isinstance(multiply(p, q).t, Fraction)
    assert isinstance(multiply(p, inverse(p)).t, Fraction)


def test_group_law_keeps_float_arrays_float():
    # the twist is halved with / 2: a Fraction factor would make object arrays
    p = from_coords([np.full(4, 1.5), np.arange(4.0), np.zeros(4)])
    q = from_coords([np.ones(4), np.full(4, -2.0), np.ones(4)])
    pq = multiply(p, q)
    assert all(c.dtype == np.float64 for c in pq.coords())
    assert pq.t.tolist() == [1 + (1.5 * -2.0 - y) / 2 for y in range(4)]
    assert gauge4(dilate(2.0, pq)).tolist() == (16 * gauge4(pq)).tolist()


def test_identity_and_inverse():
    rng = random.Random(0)
    for n in (1, 2, 3):
        e = identity(n)
        for _ in range(20):
            p = from_coords(random_point_coords(rng, 2 * n + 1))
            assert multiply(p, e) == p
            assert multiply(e, p) == p
            assert multiply(p, inverse(p)) == e
            assert multiply(inverse(p), p) == e


def test_associativity_random():
    rng = random.Random(1)
    checked = 0
    for n in (1, 2):
        nv = 2 * n + 1
        for _ in range(600):
            p = from_coords(random_point_coords(rng, nv))
            q = from_coords(random_point_coords(rng, nv))
            r = from_coords(random_point_coords(rng, nv))
            assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))
            checked += 1
    assert checked >= 1000


def test_dilation_is_automorphism():
    rng = random.Random(2)
    for n in (1, 2):
        nv = 2 * n + 1
        for _ in range(50):
            lam = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
            p = from_coords(random_point_coords(rng, nv))
            q = from_coords(random_point_coords(rng, nv))
            assert dilate(lam, multiply(p, q)) == multiply(dilate(lam, p), dilate(lam, q))


def test_gauge_homogeneity_exact():
    rng = random.Random(3)
    for n in (1, 2):
        for _ in range(50):
            lam = Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
            p = from_coords(random_point_coords(rng, 2 * n + 1))
            assert gauge4(dilate(lam, p)) == lam**4 * gauge4(p)


def test_distance_left_invariant():
    rng = random.Random(4)
    for _ in range(50):
        p = from_coords(random_point_coords(rng, 3))
        q = from_coords(random_point_coords(rng, 3))
        a = from_coords(random_point_coords(rng, 3))
        lhs = gauge4(multiply(inverse(multiply(a, p)), multiply(a, q)))
        rhs = gauge4(multiply(inverse(p), q))
        assert lhs == rhs


def test_homogeneous_dimension():
    assert [homogeneous_dimension(n) for n in (1, 2, 3)] == [4, 6, 8]


def group_law_polys(n: int) -> list:
    """Coordinates of g * p as polynomials in (g, p), ordered g_x, g_y, g_t,
    p_x, p_y, p_t (2 * (2n+1) variables)."""
    nv = 2 * (2 * n + 1)
    v = [Poly.var(nv, i) for i in range(nv)]
    return list(multiply(from_coords(v[: nv // 2]), from_coords(v[nv // 2 :])).coords())


def poly_det(m: list) -> Poly:
    """Determinant of a square matrix of Polys by cofactor expansion along the
    first row; the Jacobians here are at most 5 x 5 and mostly zero."""
    if len(m) == 1:
        return m[0][0]
    total = m[0][0] - m[0][0]
    for j, entry in enumerate(m[0]):
        if entry:
            term = entry * poly_det([row[:j] + row[j + 1 :] for row in m[1:]])
            total = total - term if j % 2 else total + term
    return total


def test_left_translation_jacobian_is_one():
    # the group law has Jacobian 1, so grid cells are Haar cells
    for n in (1, 2):
        nv = 2 * n + 1
        law = group_law_polys(n)
        # differentiate g * p with respect to the p block
        jac = [[law[i].partial(nv + j) for j in range(nv)] for i in range(nv)]
        assert poly_det(jac) == Poly.const(2 * nv, 1)


def test_gauge_vs_euclidean_bounds():
    # near the identity rho(p) <= |p|^(1/2): with |p| <= 1 the horizontal
    # part has |z|^4 <= |z|^2, so rho^4 = |z|^4 + t^2 <= |p|^2, exactly
    rng = random.Random(5)
    checked = 0
    for n in (1, 2):
        for _ in range(500):
            coords = [Fraction(rng.randrange(-8, 9), 8) for _ in range(2 * n + 1)]
            norm2 = sum(c * c for c in coords)
            if norm2 > 1:
                continue
            assert gauge4(from_coords(coords)) <= norm2
            checked += 1
    assert checked >= 100


def test_ball_and_inradius():
    center, radius = identity(1), Fraction(1, 2)

    def inside(q):
        return gauge4(multiply(inverse(center), q)) < radius**4

    assert inside(from_coords([Fraction(1, 4), 0, 0]))
    assert not inside(from_coords([1, 0, 0]))
    # the gauge of a Euclidean s-ball peaks at max(s, sqrt(s)), so points
    # within the Euclidean inradius min(R, R^2) stay inside the gauge ball
    rng = random.Random(6)
    for radius in (Fraction(1, 2), Fraction(2), Fraction(5, 4)):
        r_in = min(radius, radius * radius)
        for _ in range(50):
            raw = [Fraction(rng.randrange(-5, 6), 7) for _ in range(3)]
            norm2 = sum(v * v for v in raw)
            if norm2 == 0:
                continue
            # scale to euclidean norm <= r_in using an exact rational bound
            scale = r_in / Fraction(int(float(norm2) ** 0.5 * 1000) + 1, 1000)
            p = from_coords([v * scale for v in raw])
            assert gauge4(p) <= radius**4
