import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    euclidean_mask,
    exact_value,
    random_poly,
    reference_flow_difference,
    reference_flow_shift,
    symmetric_box_integral,
)
from rumincalc.envelope import derive
from rumincalc.grid import (
    Grid,
    _interp_t,
    derivative_convergence,
    discrete_horizontal_derivative,
    discrete_t_derivative,
    form_lp_norm,
    gauge_mask,
)
from rumincalc.forms import Form
from rumincalc.group_geometry import (
    from_coords,
    gauge4,
    homogeneous_dimension,
    identity,
    inverse,
    multiply,
)
from rumincalc.polynomials import Poly


X, Y, T = (Poly.var(3, i) for i in range(3))


def _interior(a):
    return a[1:-1, 1:-1, 1:-1]


def test_discrete_derivatives_match_frame_fields():
    # X_1 x = 1, X_1 t = -y/2, Y_1 t = x/2, and constants die; the stencil
    # degrades only where the flow leaves the grid, so compare away from it
    g = Grid.from_poly(1, 1.0, 24, X)
    dx, _ = discrete_horizontal_derivative(g, 1)
    assert np.allclose(_interior(dx.values), 1.0, atol=1e-9)

    gt = Grid.from_poly(1, 1.0, 24, T)
    d1, _ = discrete_horizontal_derivative(gt, 1)
    xs, ys, ts = gt.meshes()
    assert np.allclose(_interior(d1.values), _interior(-ys / 2.0), atol=1e-9)
    d2, _ = discrete_horizontal_derivative(gt, 2)
    assert np.allclose(_interior(d2.values), _interior(xs / 2.0), atol=1e-9)
    dt, _ = discrete_t_derivative(gt)
    assert np.allclose(dt.values, 1.0, atol=1e-9)

    const = Grid.from_poly(1, 1.0, 12, Poly.const(3, 3))
    dc, _ = discrete_horizontal_derivative(const, 2)
    assert np.allclose(dc.values, 0.0, atol=1e-12)


def test_boundary_fraction_reported():
    g = Grid.from_poly(1, 1.0, 16, X * T)
    _, rep = discrete_horizontal_derivative(g, 1)
    assert 0 < rep["boundary_fraction"] < 1
    assert rep["axis"] == 1
    _, rep_t = discrete_t_derivative(g)
    assert rep_t["boundary_fraction"] == pytest.approx(2.0 / 16.0)


def test_derivative_index_validation():
    g = Grid.from_poly(1, 1.0, 8, X)
    with pytest.raises(ValueError):
        discrete_horizontal_derivative(g, 0)
    with pytest.raises(ValueError):
        discrete_horizontal_derivative(g, 3)


def test_derivative_convergence_is_second_order():
    for i in (1, 2):
        rep = derivative_convergence(1, i=i, resolutions=(12, 18, 24))
        assert rep["observed_order"] >= 1.8
        # one error and one boundary fraction per resolution
        assert len(rep["errors"]) == len(rep["boundary_fractions"]) == 3
        assert all(0 <= f < 1 for f in rep["boundary_fractions"])
    rep = derivative_convergence(2, i=3, resolutions=(12, 16, 20))
    assert rep["observed_order"] >= 1.8


def test_default_quartic_gives_the_result_of_the_explicit_polynomial():
    # the default is (sum_j (j+1) v_j)^4 + v_0^2 t, built once per n
    for n in (1, 2):
        nv = 2 * n + 1
        total = Poly.zero(nv)
        for j in range(nv):
            total = total + Poly.var(nv, j).scale(j + 1)
        quartic = total**4 + Poly.var(nv, 0) ** 2 * Poly.var(nv, 2 * n)
        for i in (1, 2 * n):
            assert derivative_convergence(n, i, resolutions=(6, 8)) == derivative_convergence(
                n, i, resolutions=(6, 8), poly=quartic
            )


@pytest.mark.parametrize("n, i, resolutions", [
    (1, 1, (12, 18, 24)),
    (1, 2, (7, 10, 13)),
    (1, 1, (5, 8, 11)),
    (2, 1, (6, 8)),
    (2, 4, (5, 7)),
])
def test_derivative_convergence_errors_on_the_interior_box(n, i, resolutions):
    # the errors are those over the boolean mask |coordinate| < 0.5, bit for bit
    nv = 2 * n + 1
    poly = random_poly(random.Random(10 * n + i), nv, 4, terms=4)
    rep = derivative_convergence(n, i=i, resolutions=resolutions, poly=poly)
    exact = derive(n, i - 1, poly)
    want = []
    for res in resolutions:
        g = Grid.from_poly(n, 1.0, res, poly)
        approx, _ = discrete_horizontal_derivative(g, i)
        interior = np.ones(g.shape, dtype=bool)
        for axis in range(nv):
            coords_shape = [1] * nv
            coords_shape[axis] = -1
            interior &= np.abs(g.axis(axis)).reshape(coords_shape) < 0.5
        diff = (approx.values - Grid.from_poly(n, 1.0, res, exact).values)[interior]
        want.append(float(np.sqrt(np.mean(diff**2))))
    assert rep["errors"] == want


def test_grid_quadrature_converges_to_exact():
    p = (Poly.var(3, 0) + Poly.var(3, 1)) ** 2
    exact = float(symmetric_box_integral(p))
    vals = []
    for res in (16, 32, 64):
        g = Grid.from_poly(1, 1.0, res, p, t_half_width=1.0, t_resolution=res)
        vals.append(abs(g.values.sum() * g.cell_volume - exact))
    assert vals[2] < vals[0]
    assert vals[2] < 1e-2


def test_from_poly_matches_from_function():
    p = Poly.var(3, 0) ** 2 + Poly.var(3, 2).scale(Fraction(1, 2))
    a = Grid.from_poly(1, 0.5, 10, p)
    x, _, t = a.meshes()
    assert np.allclose(a.values, x**2 + 0.5 * t)
    assert a.half_widths == (0.5, 0.5, 0.25)  # t window defaults to H^2


def test_from_poly_is_the_per_term_sum_within_the_rounding_bound():
    # the axis-by-axis contraction adds in another order than the plain
    # term-by-term sum on full meshes, so both may round differently, but
    # each stays within the a-priori bound 2 (deg + nvars) eps S, where S is
    # the sum of |c| |x^e| over the terms
    rng = random.Random(12)
    p = random_poly(rng, 5, 4, terms=40) + Poly.const(5, Fraction(1, 3))
    g = Grid.from_poly(2, 0.7, 9, p, t_resolution=11)
    meshes = g.meshes()
    expected = 0.0
    scale = 0.0
    for exp, c in p.terms.items():
        v = float(c)
        a = abs(v)
        for i, e in enumerate(exp):
            if e:
                v = v * meshes[i] ** e
                a = a * np.abs(meshes[i]) ** e
        expected = expected + v
        scale = scale + a
    degree = max(sum(exp) for exp in p.terms)
    bound = 2 * (degree + p.nvars) * np.finfo(float).eps * scale
    assert g.values.shape == g.shape
    assert np.all(np.abs(g.values - expected) <= bound)
    # and within the same bound of the exact value at the float coordinates
    cells = [tuple(rng.randrange(N) for N in g.shape) for _ in range(64)]
    for cell in cells:
        point = [Fraction(float(m[cell])) for m in meshes]
        exact = exact_value(p, point)
        assert abs(Fraction(float(g.values[cell])) - exact) <= Fraction(float(bound[cell]))
    x_only = Grid.from_poly(2, 0.7, 9, Poly.var(5, 0) ** 3)
    assert x_only.values.shape == g.shape[:4] + (9,)
    assert np.array_equal(x_only.values, x_only.meshes()[0] ** 3)
    const = Grid.from_poly(2, 0.7, 9, Poly.const(5, Fraction(1, 3)), t_resolution=11)
    assert const.values.shape == g.shape
    assert np.all(const.values == 1 / 3)
    zero = Grid.from_poly(2, 0.7, 9, Poly.zero(5), t_resolution=11)
    assert zero.values.shape == g.shape
    assert not np.any(zero.values)


@pytest.mark.parametrize("n, resolution, t_resolution, t_half_width", [
    (1, 9, None, None),
    (1, 8, 13, 0.3),
    (2, 6, 7, None),
    (2, 5, 4, 0.2),
    (3, 4, 5, None),
    (3, 3, 6, 0.15),
])
def test_flow_shift_equals_the_full_grid_gather(n, resolution, t_resolution, t_half_width):
    # interpolating along t on the (coordinate, t) plane, then stepping one
    # cell along the flow axis, gives the same bits as the full-size gather
    # of the stepped values: the commutation the flow difference rests on
    g = Grid.empty(n, 1.0, resolution, t_half_width, t_resolution)
    g.values = np.random.default_rng(resolution + 10 * n).standard_normal(g.shape)
    t_step = g.steps()[2 * n]
    for i in range(2 * n):
        coord_axis, sign = (n + i, -1.0) if i < n else (i - n, +1.0)
        plane = np.moveaxis(g.values, coord_axis, -2)
        for direction in (+1, -1):
            offsets = (direction * g.steps()[i] / 2.0) * sign * g.axis(coord_axis) / t_step
            shifted, out = _interp_t(plane, offsets)
            got = np.roll(np.moveaxis(shifted, -2, coord_axis), -direction, axis=i)
            want, want_invalid = reference_flow_shift(g, i, direction)
            assert np.array_equal(got, want), (i, direction)
            edge = np.zeros(g.shape, dtype=bool)
            edge[(slice(None),) * i + ((-1 if direction > 0 else 0),)] = True
            invalid = edge | np.moveaxis(np.broadcast_to(out, plane.shape), -2, coord_axis)
            assert np.array_equal(invalid, want_invalid), (i, direction)


@pytest.mark.parametrize("n, resolution, t_resolution, t_half_width", [
    (1, 9, None, None),
    (1, 8, 13, 0.3),
    (1, 10, 6, 0.1),
    (1, 4, 3, 0.02),
    (1, 2, 5, None),
    (2, 6, 7, None),
    (2, 5, 4, 0.2),
    (2, 6, 9, 0.25),
    (3, 4, 5, None),
    (3, 3, 6, 0.15),
    (3, 5, 4, 0.15),
])
def test_flow_difference_equals_the_full_grid_reference(n, resolution, t_resolution,
                                                        t_half_width):
    # the fused difference, with the one-sided formula only on the edge slabs
    # and the clamped (coordinate, t) pairs, gives the bits and the boundary
    # fraction of two full-grid shifts and a per-cell choice of quotient; the
    # narrow t windows shift by 1.6 to 4.4 t cells, and by more than all of
    # them at t_half_width 0.02
    g = Grid.empty(n, 1.0, resolution, t_half_width, t_resolution)
    g.values = np.random.default_rng(resolution + 10 * n).standard_normal(g.shape)
    for a in range(2 * n + 1):
        if a < 2 * n:
            got, rep = discrete_horizontal_derivative(g, a + 1)
        else:
            got, rep = discrete_t_derivative(g)
        want, boundary_fraction = reference_flow_difference(g, a)
        assert np.array_equal(got.values, want), a
        assert rep["boundary_fraction"] == boundary_fraction, a


def test_lp_norm_scales_with_dilation():
    # u(delta_lam x) has L^p norm lam^{-Q/p} times that of u, exactly on
    # dilation-adapted grids
    Q = homogeneous_dimension(1)
    lam = 2.0
    p = 2.0
    g = Grid.from_poly(1, 1.0, 16, X * X + T)
    shrunk = Grid(
        1, (0.5, 0.5, 0.25), g.shape, g.values.copy()
    )  # same samples on the shrunken window = u(delta_2 .)
    assert shrunk.lp_norm(p) == pytest.approx(g.lp_norm(p) * lam ** (-Q / p))


def test_gauge_and_euclidean_masks():
    g = Grid.empty(1, 1.0, 20)
    inner = gauge_mask(g, identity(1), 0.5)
    outer = gauge_mask(g, identity(1), 0.9)
    assert inner.sum() < outer.sum()
    assert bool(np.all(outer[inner.astype(bool)]))
    # center translation moves the mask
    shifted = gauge_mask(g, from_coords([Fraction(1, 2), 0, 0]), 0.5)
    assert shifted.sum() > 0
    assert not np.array_equal(shifted, inner)
    eu = euclidean_mask(g, identity(1), 0.5)
    assert 0 < eu.sum() < g.values.size


@pytest.mark.parametrize("n, resolution", [(1, 16), (2, 8)])
def test_gauge_mask_matches_the_exact_gauge_cell_for_cell(n, resolution):
    # dyadic grids, centres, radii and weights keep the float arithmetic
    # exact, so the float mask must agree with Fractions in every cell
    g = Grid.empty(n, 1.0, resolution)
    rng = random.Random(n)
    cells = [from_coords([Fraction(v) for v in c]) for c in zip(*(m.reshape(-1) for m in g.meshes()))]
    for t_weight in (1, 4):
        center = from_coords([Fraction(rng.randrange(-4, 5), 8) for _ in range(2 * n + 1)])
        radius = Fraction(rng.randrange(4, 9), 8)
        to_center = inverse(center)
        want = [gauge4(multiply(to_center, cell), t_weight) < radius**4 for cell in cells]
        assert gauge_mask(g, center, radius, float(t_weight)).reshape(-1).tolist() == want
        assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("n, resolution", [(1, 9), (1, 12), (2, 7), (2, 8), (3, 5), (3, 6)])
def test_gauge_mask_equals_the_full_mesh_group_law(n, resolution):
    # the group law and the gauge on full meshgrid arrays, the computation
    # that the sparse axes replace, must give the same mask bit for bit
    rng = random.Random(50 + 10 * n + resolution)
    g = Grid.empty(n, rng.uniform(0.5, 2.0), resolution)
    nonempty = 0
    for t_weight in (1.0, 16.0, rng.uniform(0.1, 20.0)):
        center = from_coords([rng.uniform(-1.0, 1.0) for _ in range(2 * n + 1)])
        radius = rng.uniform(0.3, 1.5)
        z = multiply(inverse(center), from_coords(g.meshes()))
        want = gauge4(z, t_weight) < radius**4
        got = gauge_mask(g, center, radius, t_weight)
        assert got.shape == g.shape and got.dtype == bool
        assert np.array_equal(got, want)
        nonempty += bool(want.any())
    assert nonempty


def test_mask_volume_approximates_ball_volume():
    # euclidean ball volume in (x, y, t): (4/3) pi r^3
    g = Grid.empty(1, 1.0, 40, t_half_width=1.0, t_resolution=40)
    m = euclidean_mask(g, identity(1), 0.8)
    vol = m.sum() * g.cell_volume
    assert vol == pytest.approx(4.0 / 3.0 * math.pi * 0.8**3, rel=0.05)


def test_form_lp_norm_of_constant_coframe():
    # |omega_1|_{L^2} over the box equals sqrt(volume)
    omega = Form.monomial(1, 1, Poly.const(3, 1))
    got = form_lp_norm(omega, 2.0, 1.0, 16, np.ones((16, 16, 16), dtype=bool))
    vol = 2.0 * 2.0 * 2.0  # t window is H^2 = 1 wide on each side
    assert got == pytest.approx(math.sqrt(vol), rel=1e-12)


def test_form_lp_norm_ignores_an_overflow_outside_the_mask():
    # |x|^2000 overflows on the cells at |x| = 1.25 and 1.75 of an 8-cell
    # axis over [-2, 2]; the mask keeps |x| < 1, where 0.25^2000 underflows
    # to 0 and the 2 * 8 * 8 cells at |x| = 0.75 of volume 0.5 * 0.5 * 1 remain
    omega = Form.monomial(1, 1, Poly.var(3, 0))
    x = Grid.empty(1, 2.0, 8).meshes()[0]
    got = form_lp_norm(omega, 2000.0, 2.0, 8, np.abs(x) < 1.0)
    assert got == pytest.approx(32.0 ** (1 / 2000) * 0.75, rel=1e-12)
