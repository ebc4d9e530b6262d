import math
import re
import tracemalloc
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from conftest import euclidean_mask
from rumincalc import kernels
from rumincalc.grid import Grid, discrete_horizontal_derivative, gauge_mask
from rumincalc.group_geometry import (
    from_coords,
    gauge4,
    homogeneous_dimension,
    horizontal_norm2,
    identity,
    inverse,
    multiply,
)
from rumincalc.kernels import (
    GAUGE_T_WEIGHTS,
    HomogeneousKernel,
    bump_grid,
    critical_exponent,
    decay_slope_probe,
    folland_remainder,
    fundamental_gauge_scan,
    gauge_ball_volume,
    group_convolve,
    lp_lq_probe,
    scalar_sobolev_check,
)
from rumincalc.polynomials import Poly


def _gauge(coords) -> np.ndarray:
    """rho = (|z|^4 + t^2)^(1/4) at float coordinates."""
    return gauge4(from_coords([np.asarray(c, dtype=float) for c in coords])) ** 0.25


@dataclass(frozen=True)
class KernelFlowDerivative:
    """W_i k in closed form; homogeneous of degree (mu - 1) - Q."""

    base: HomogeneousKernel
    i: int

    @property
    def mu(self) -> float:
        return self.base.mu - 1

    def evaluate(self, coords, out=None) -> np.ndarray:
        n = self.base.n
        Q = self.base.Q
        p = from_coords([np.asarray(c, dtype=float) for c in coords])
        z, t = p.x + p.y, p.t
        sq = horizontal_norm2(p)
        rho4 = gauge4(p)
        j = self.i - 1
        if j < n:  # X_{j+1} = d/dx_j - (y_j/2) d/dt
            w_rho4 = 4.0 * z[j] * sq - z[n + j] * t
        else:  # Y_{j-n+1} = d/dy_{j-n} + (x_{j-n}/2) d/dt
            w_rho4 = 4.0 * z[j] * sq + z[j - n] * t
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self.base.mu - Q) / 4.0 * rho4 ** ((self.base.mu - Q) / 4.0 - 1.0) * w_rho4

    def cell_estimate(self, eps: float):
        # locally integrable for mu > 1; the cell average is not a clean
        # closed form, so drop the one cell (contribution vanishes under
        # refinement) rather than pretend to a formula
        return "pv" if self.base.mu - 1 <= 0 else 0.0


def horizontal_derivative(k: HomogeneousKernel, i: int) -> KernelFlowDerivative:
    if not 1 <= i <= 2 * k.n:
        raise ValueError("i indexes a horizontal frame field, 1..2n")
    return KernelFlowDerivative(k, i)


def _smoothstep(rho: np.ndarray, R: float) -> np.ndarray:
    """C^1 radial cutoff: 1 for rho <= R/2, 0 for rho >= R."""
    s = np.clip((rho - R / 2.0) / (R / 2.0), 0.0, 1.0)
    return 1.0 - s * s * (3.0 - 2.0 * s)


@dataclass(frozen=True)
class CutoffKernel:
    """psi_R * k (part="local") or (1 - psi_R) * k (part="tail")."""

    base: HomogeneousKernel
    R: float
    part: str

    def __post_init__(self):
        if self.part not in ("local", "tail"):
            raise ValueError("part must be 'local' or 'tail'")
        if self.R <= 0:
            raise ValueError("cutoff radius must be positive")

    def evaluate(self, coords, out=None) -> np.ndarray:
        rho = _gauge(coords)
        psi = _smoothstep(rho, self.R)
        out = np.zeros_like(rho)
        live = psi > 0 if self.part == "local" else psi < 1
        if np.any(live):
            vals = self.base.evaluate([c[live] for c in np.broadcast_arrays(*coords)])
            out[live] = (psi[live] if self.part == "local" else 1.0 - psi[live]) * vals
        return out

    def cell_estimate(self, eps: float):
        if self.part == "tail":
            return 0.0  # identically zero near the origin
        return self.base.cell_estimate(eps)


def kernel_split(k: HomogeneousKernel, R: float) -> tuple:
    """k = local + tail with local = psi_R k compactly supported and tail bounded."""
    return CutoffKernel(k, R, "local"), CutoffKernel(k, R, "tail")


def tail_smoothing_probe(n: int, mu: float, R: float = 0.5,
                         resolutions=(12, 18, 24), support: float = 0.4) -> dict:
    """Convolve a bump with the tail part and watch second differences stay bounded."""
    _, tail = kernel_split(HomogeneousKernel(n, mu), R)
    seconds = []
    for res in resolutions:
        conv, _ = group_convolve(bump_grid(n, 1.0, res, support), tail)
        d1, _ = discrete_horizontal_derivative(conv, 1)
        d2, _ = discrete_horizontal_derivative(d1, 1)
        interior = euclidean_mask(conv, identity(n), 0.5)
        seconds.append(float(np.abs(d2.values[interior]).max()))
    return {"seconds": seconds, "bounded": seconds[-1] <= 2.0 * seconds[0] + 1e-9}


def test_gauge_ball_volume_closed_form():
    assert gauge_ball_volume(1) == pytest.approx(math.pi**2 / 2.0, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_gauge_ball_volume_against_grid_count(n):
    res = 48 if n == 1 else 24
    g = Grid.empty(n, 1.0, res)
    mask = gauge_mask(g, identity(n), 1.0)
    counted = mask.sum() * g.cell_volume
    assert counted == pytest.approx(gauge_ball_volume(n), rel=0.05)


def test_kernel_homogeneity_exact():
    k = HomogeneousKernel(1, 2.0)
    pts = [np.array([0.3]), np.array([-0.4]), np.array([0.1])]
    scaled = [2.0 * pts[0], 2.0 * pts[1], 4.0 * pts[2]]
    assert k.evaluate(scaled) == pytest.approx(
        2.0 ** (k.mu - k.Q) * k.evaluate(pts), rel=1e-14
    )
    assert k.Q == 4


def _float_cases():
    """(x, y, t) float inputs of every broadcast layout gauge4 meets.

    Seeded values; the array cases put one point at the origin, where the
    kernel's negative power gives inf.
    """
    rng = np.random.default_rng(5)
    h, C, D = 3, 4, 5

    def values(shape):
        v = rng.uniform(-1.0, 1.0, shape)
        v.flat[0] = 0.0
        return v

    return {
        # t narrower than the horizontal broadcast: neither term has the sum's shape
        "t narrower": (values((h, 1, 1)), values((h, C, 1)), values((1, 1, D))),
        # the slab of group_convolve: t carries the full shape
        "t full": (values((h, C, 1)), values((h, C, 1)), values((h, C, D))),
        # |z|^4 carries the full shape and t is narrower
        "z full": (values((h, C, D)), values((h, C, D)), values((1, 1, D))),
        "python float t": (values((h, C)), values((h, C)), 0.375),
        "0-d arrays": (np.array(0.5), np.array(-0.25), np.array(0.75)),
    }


@pytest.mark.parametrize("case", list(_float_cases()))
@pytest.mark.parametrize("a", [1, 1.0, 16.0])
def test_gauge4_and_kernel_values_leave_the_inputs_alone(case, a):
    x, y, t = _float_cases()[case]
    before = [np.array(c, copy=True) for c in (x, y, t)]
    hh = x * x + y * y
    want = hh * hh + a * t * t  # |z|^4 + a t^2
    got = gauge4(from_coords([x, y, t]), a)
    assert np.shape(got) == np.broadcast(x, y, t).shape
    assert np.array_equal(got, want)
    # the kernel's gauge has t weight 1
    rho4 = hh * hh + t * t
    kernel = HomogeneousKernel(1, 2.0)
    with np.errstate(divide="ignore"):
        want_k = rho4 ** ((kernel.mu - kernel.Q) / 4.0)
    got_k = kernel.evaluate([x, y, t])
    assert np.array_equal(got_k, want_k)
    assert np.array_equal(np.isinf(got_k), rho4 == 0.0)
    for c, b in zip((x, y, t), before):
        assert np.array_equal(c, b)  # no caller array is written to
        if isinstance(c, np.ndarray):
            assert not np.shares_memory(c, got) and not np.shares_memory(c, got_k)


@pytest.mark.parametrize("case", list(_float_cases()))
@pytest.mark.parametrize("a", [1, 16.0, 3.0])
def test_gauge4_and_kernel_values_written_into_out_equal_the_fresh_values(case, a):
    x, y, t = _float_cases()[case]
    shape = np.broadcast(x, y, t).shape
    kernel = HomogeneousKernel(1, 2.0)
    want = gauge4(from_coords([x, y, t]), a)
    want_k = kernel.evaluate([x, y, t])
    # out is t itself, or a fresh array of the full shape
    for out_is_t in (True, False):
        for call, value in ((lambda c, out: gauge4(from_coords(c), a, out=out), want),
                            (kernel.evaluate, want_k)):
            ts = np.array(t, dtype=float)  # a copy that out may overwrite
            out = ts if out_is_t else np.empty(shape)
            if np.shape(out) != shape or not shape:
                with pytest.raises(ValueError, match="out needs"):
                    call([x, y, ts], out)
                continue
            got = call([x, y, ts], out)
            assert got is out and np.array_equal(got, value)


def test_gauge4_of_exact_points():
    third, half = Fraction(1, 3), Fraction(-1, 2)
    for a in (1, Fraction(16), Fraction(3, 2)):
        p = from_coords([third, half, Fraction(2, 7)])
        got = gauge4(p, a)
        assert isinstance(got, Fraction)
        assert got == (third**2 + half**2) ** 2 + a * Fraction(2, 7) ** 2
        assert p.coords() == (third, half, Fraction(2, 7))
    # the kernel reads Fraction coordinates as floats
    want = float((third**2 + half**2) ** 2 + Fraction(4, 49)) ** -0.5
    assert HomogeneousKernel(1, 2.0).evaluate(p.coords()) == pytest.approx(want, rel=1e-15)
    x, y, t = (Poly.var(3, i) for i in range(3))
    coords = (x, y, t + Poly.const(3, 1))
    copies = [Poly(3, dict(c.terms)) for c in coords]
    for a in (1, 16):
        got = gauge4(from_coords(list(coords)), a)
        hh = x * x + y * y
        assert got == hh * hh + Poly.const(3, a) * coords[2] * coords[2]
        assert list(coords) == copies


def test_cell_estimate_policies():
    Q = 4
    assert HomogeneousKernel(1, -1.0).cell_estimate(0.1) == "pv"
    assert HomogeneousKernel(1, 0.0).cell_estimate(0.1) == "pv"
    eps = 0.1
    mu = 2.0
    val = HomogeneousKernel(1, mu).cell_estimate(eps)
    assert val == pytest.approx((Q / mu) * eps ** (mu - Q))
    assert HomogeneousKernel(1, 4.0).cell_estimate(0.1) is None
    assert HomogeneousKernel(1, 5.0).cell_estimate(0.1) is None
    # the derivative drops one homogeneity and one cell
    d = horizontal_derivative(HomogeneousKernel(1, 2.0), 1)
    assert d.mu == pytest.approx(1.0)
    assert d.cell_estimate(0.1) == 0.0
    assert horizontal_derivative(HomogeneousKernel(1, 1.0), 2).cell_estimate(0.1) == "pv"


def test_horizontal_derivative_index_validation():
    k = HomogeneousKernel(1, 2.0)
    with pytest.raises(ValueError):
        horizontal_derivative(k, 0)
    with pytest.raises(ValueError):
        horizontal_derivative(k, 3)


def test_kernel_split_reconstructs_exactly():
    k = HomogeneousKernel(1, 2.0)
    local, tail = kernel_split(k, 0.5)
    xs = [np.linspace(-1, 1, 7), np.linspace(-1, 1, 7), np.linspace(-0.5, 0.5, 7)]
    mesh = np.meshgrid(*xs, indexing="ij")
    total = local.evaluate(mesh) + tail.evaluate(mesh)
    base = k.evaluate(mesh)
    finite = np.isfinite(base)
    assert np.allclose(total[finite], base[finite], rtol=1e-12)
    # tail vanishes inside R/2 and matches k outside R
    rho = _gauge(mesh)
    assert np.all(tail.evaluate(mesh)[rho <= 0.25] == 0.0)
    far = rho >= 0.5
    assert np.allclose(tail.evaluate(mesh)[far], base[far], rtol=1e-12)
    # tail is globally bounded even at the origin
    assert tail.cell_estimate(0.01) == 0.0
    assert local.cell_estimate(0.01) == k.cell_estimate(0.01)
    # the two parts convolve back to the kernel
    f = bump_grid(1, 1.0, 12, 0.5)
    k = HomogeneousKernel(1, 1.0)
    local, tail = kernel_split(k, 0.5)
    whole, _ = group_convolve(f, k)
    parts = group_convolve(f, local)[0].values + group_convolve(f, tail)[0].values
    assert np.allclose(parts, whole.values, rtol=0, atol=1e-12)


def test_cutoff_kernel_validation():
    k = HomogeneousKernel(1, 2.0)
    with pytest.raises(ValueError):
        CutoffKernel(k, 0.5, "middle")
    with pytest.raises(ValueError):
        CutoffKernel(k, -1.0, "tail")


def test_tail_smoothing_probe_bounded():
    report = tail_smoothing_probe(1, 2.0)
    assert report["bounded"], report


def _full_array_convolve(f, kernel, output_points=None, chunk=1 << 22):
    """group_convolve with every step on full (cells x outputs) arrays.

    The reference the Toeplitz evaluation must match: the group law and the
    gauge run on every (cell, output) pair with t_o - t_s taken pair by pair,
    and the singular cells are masked by a second full gauge.
    """
    nv = 2 * f.n + 1
    meshes = f.meshes()
    support = f.values != 0.0
    fv = f.values[support] * f.cell_volume
    ys = [m[support] for m in meshes]
    if output_points is None:
        xs = [m.reshape(-1) for m in meshes]
    else:
        pts = np.atleast_2d(np.asarray(output_points, dtype=float))
        xs = [pts[:, i].copy() for i in range(nv)]
    outputs = from_coords([x[None, :] for x in xs])
    m_out = xs[0].size
    acc = np.zeros(m_out)
    eps = (f.cell_volume / gauge_ball_volume(f.n)) ** (1.0 / (nv + 1))
    policy = kernel.cell_estimate(eps)
    touched = 0
    cells_per_chunk = max(1, chunk // max(m_out, 1))
    for start in range(0, fv.size, cells_per_chunk):
        stop = min(start + cells_per_chunk, fv.size)
        block = from_coords([y[start:stop, None] for y in ys])
        z = multiply(inverse(block), outputs)
        vals = kernel.evaluate(z.coords())
        if policy is not None:
            near = gauge4(z) < eps**4
            if np.any(near):
                touched += int(near.sum())
                vals = np.where(near, 0.0 if policy == "pv" else policy, vals)
        acc += fv[start:stop] @ vals
    report = {
        "cells": int(fv.size),
        "outputs": int(m_out),
        "singular_policy": "pv" if policy == "pv" else ("none" if policy is None else "average"),
        "singular_evaluations": touched,
        "equivalent_cell_gauge": eps,
    }
    return (acc if output_points is not None else acc.reshape(f.shape)), report


def _off_centre_source(n, res, seed):
    """Seeded values on an off-centre box, with holes inside its t columns.

    Neither even nor centred, so a reversed or misplaced t shift shows.
    """
    rng = np.random.default_rng(seed)
    f = Grid.empty(n, 1.0, res)
    box = tuple([slice(1, res // 2 + 1)] * (2 * n) + [slice(res // 2, res - 1)])
    vals = rng.uniform(-1.0, 1.0, f.values[box].shape)
    vals[rng.random(vals.shape) < 0.2] = 0.0
    f.values[box] = vals
    return f


def _t_band_source(n, res, seed):
    """Seeded values that fill the t rows 1..res // 3 of an off-centre box:
    a band below the centre, where ``_off_centre_source`` lies above it, so
    that only some of the 2T - 1 t offsets are reached."""
    rng = np.random.default_rng(seed)
    f = Grid.empty(n, 1.0, res)
    box = tuple([slice(2, res - 1)] * (2 * n) + [slice(1, res // 3 + 1)])
    f.values[box] = rng.uniform(0.5, 1.0, f.values[box].shape)
    return f


@pytest.mark.parametrize("n, res", [(1, 12), (2, 6)])
def test_group_convolve_equals_the_full_array_loop(n, res):
    step = 2.0 / res
    Q = homogeneous_dimension(n)
    base = HomogeneousKernel(n, 2.0)
    kernels = [
        base,  # average
        HomogeneousKernel(n, -0.5),  # pv
        HomogeneousKernel(n, float(Q)),  # none
        horizontal_derivative(base, 1),
        horizontal_derivative(base, 2 * n),
        *kernel_split(base, 0.5),
    ]
    # the even bump, seeded values that would show a reversed t shift, and
    # a band of t rows that would show a misplaced or missing t offset
    sources = [bump_grid(n, 1.0, res, 0.5), _off_centre_source(n, res, seed=20 + n),
               _t_band_source(n, res, seed=30 + n)]
    # each source's first point is a lattice cell with t != 0 in its support,
    # so it meets a singular cell
    first_points = [[0.5 * step] * (2 * n) + [-0.5 * step],
                    [-1.0 + 1.5 * step] * (2 * n) + [0.5 * step],
                    [-1.0 + 2.5 * step] * (2 * n) + [-1.0 + 1.5 * step]]
    policies = set()
    for f, first in zip(sources, first_points):
        pts = np.array([
            first,
            [0.3] * (2 * n) + [-0.2],
            [-0.1] + [0.0] * (2 * n - 1) + [0.45],
        ])
        for kernel in kernels:
            for kwargs in ({}, {"output_points": pts}, {"chunk": 5000}):
                got, report = group_convolve(f, kernel, **kwargs)
                want, want_report = _full_array_convolve(f, kernel, **kwargs)
                got = got if "output_points" in kwargs else got.values
                # the matrix product sums in another order, and d dt differs
                # from t_o - t_s in the last ulp: equal to rounding only
                scale = np.abs(want).max()
                assert np.abs(got - want).max() <= 1e-13 * scale, (kernel, kwargs)
                assert report == want_report, (kernel, kwargs)
                policies.add(report["singular_policy"])
                if "output_points" in kwargs and report["singular_policy"] != "none":
                    assert report["singular_evaluations"] > 0
    assert policies == {"average", "pv", "none"}


@dataclass
class _CountingKernel:
    """Delegates to a kernel and counts the points it is evaluated at."""

    base: object
    points: int = 0

    def cell_estimate(self, eps):
        return self.base.cell_estimate(eps)

    def evaluate(self, coords, out=None):
        self.points += np.broadcast(*coords).size
        return self.base.evaluate(coords, out=out)


@pytest.mark.parametrize("n, res", [(1, 12), (2, 6)])
def test_grid_convolution_evaluates_one_value_per_t_offset(n, res):
    # on the grid, k(q^{-1} p) depends on the t indices of q and p only
    # through their difference: a pair of columns takes one value for each
    # of the T + s_hi - s_lo offsets from the live source t rows s_lo..s_hi
    # to the T output rows, 2T - 1 on full t columns, where the
    # (cells x outputs) quadrature has T^2 on full t columns
    full = _off_centre_source(n, res, seed=20 + n)
    T = full.shape[-1]
    live = np.any(full.values != 0.0, axis=-1)
    full.values[live] = np.random.default_rng(n).uniform(0.5, 1.0, (int(live.sum()), T))
    s_lo, s_hi = 1, res // 3
    band = _t_band_source(n, res, seed=30 + n)
    live_rows = np.any(band.values != 0.0, axis=tuple(range(2 * n)))
    assert np.flatnonzero(live_rows).tolist() == list(range(s_lo, s_hi + 1))
    for f, depth in ((full, 2 * T - 1), (band, T + s_hi - s_lo)):
        live = np.any(f.values != 0.0, axis=-1)
        columns = live.size
        for chunk in (1 << 22, 5000):
            kernel = _CountingKernel(HomogeneousKernel(n, 2.0))
            _, report = group_convolve(f, kernel, chunk=chunk)
            assert report["singular_evaluations"] > 0
            assert kernel.points == int(live.sum()) * columns * depth
            assert report["cells"] * report["outputs"] == int((f.values != 0.0).sum()) * columns * T


def test_grid_convolution_holds_one_slab():
    # the kernel is written over the slab's own t coordinate, and the slab
    # spans only the offsets that the live t rows reach: one call peaks near
    # one (live x columns x offsets) float array, where a second full array
    # and all 2T - 1 offsets take it past 3 times that
    f = bump_grid(1, 1.0, 20, 0.5)
    kernel = HomogeneousKernel(1, 1.0)
    by_column = f.values.reshape(-1, 20)
    live = np.any(by_column != 0.0, axis=1)
    rows = np.flatnonzero(np.any(by_column != 0.0, axis=0))
    shape = (int(live.sum()), live.size, 20 + int(rows[-1] - rows[0]))
    assert shape == (80, 400, 29)
    slab_bytes = 8 * math.prod(shape)
    group_convolve(f, kernel)
    tracemalloc.start()
    try:
        group_convolve(f, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * slab_bytes, (peak, slab_bytes)


def test_group_convolve_of_nothing_is_empty():
    k = HomogeneousKernel(1, 2.0)
    zero = Grid.empty(1, 1.0, 8)
    out, report = group_convolve(zero, k)
    assert not out.values.any() and report["cells"] == 0
    vals, report = group_convolve(bump_grid(1, 1.0, 8, 0.5), k, output_points=np.zeros((0, 3)))
    assert vals.shape == (0,) and report["outputs"] == 0


def test_convolution_is_an_approximate_identity_at_high_mu():
    # mu = Q gives rho^0 = 1; convolving with it integrates f
    f = bump_grid(1, 1.0, 16, 0.5)
    ones = HomogeneousKernel(1, 4.0)
    out, report = group_convolve(f, ones, output_points=np.zeros((1, 3)))
    assert report["singular_policy"] == "none"
    assert out[0] == pytest.approx(f.values.sum() * f.cell_volume, rel=1e-10)


def _bump3(x, y, t, r):
    s2 = (x * x + y * y + t * t) / (r * r)
    return np.where(s2 < 1.0, (1.0 - np.minimum(s2, 1.0)) ** 3, 0.0)


def _invariance_sides(a_coords, probes, res=24):
    # (L_a f) * k at the probes vs (f * k) at a^{-1} . probes, with the
    # translated input evaluated in closed form
    n = 1
    k = HomogeneousKernel(n, 2.0)
    ax, ay, at = a_coords
    a_inv = inverse(from_coords(list(a_coords)))
    f = Grid.empty(n, 1.0, res)
    x, y, t = f.meshes()
    f.values = _bump3(x, y, t, 0.4)
    translated = f.copy_with(_bump3(x - ax, y - ay, t - at - 0.5 * (ax * y - ay * x), 0.4))
    lhs, _ = group_convolve(translated, k, output_points=probes)
    moved = np.empty_like(probes)
    for r, row in enumerate(probes):
        q = multiply(a_inv, from_coords(row))
        moved[r] = [float(q.x[0]), float(q.y[0]), float(q.t)]
    rhs, _ = group_convolve(f, k, output_points=moved)
    return lhs, rhs


def test_group_convolution_left_invariance_vertical_exact():
    # a central translation by a lattice multiple maps the lattice to itself,
    # so both Riemann sums agree to rounding even across the singular cells
    t_step = 2.0 / 24.0
    probes = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.05], [-0.15, 0.1, 0.0]])
    lhs, rhs = _invariance_sides((0.0, 0.0, 3 * t_step), probes)
    assert np.allclose(lhs, rhs, rtol=1e-10)


def test_group_convolution_left_invariance_generic():
    # generic translation, read off away from the supports where the
    # integrand is smooth and quadrature error is second order
    probes = np.array([[0.8, 0.0, 0.0], [0.0, 0.7, 0.3], [-0.75, 0.2, 0.0]])
    lhs, rhs = _invariance_sides((0.25, -0.25, 0.125), probes)
    assert np.allclose(lhs, rhs, rtol=0.02)


def test_decay_slopes():
    for mu, expected in ((1.0, -3.0), (2.0, -2.0)):
        report = decay_slope_probe(1, mu, resolution=32)
        assert report["expected_slope"] == expected
        assert report["relative_error"] < 0.05, report


def test_decay_slope_along_t_axis():
    report = decay_slope_probe(
        1, 2.0, resolution=32, direction=np.array([0.0, 0.0, 1.0])
    )
    assert report["relative_error"] < 0.05, report


@pytest.mark.parametrize("n, resolution", [(1, 32), (1, 33), (1, 40), (2, 12)])
def test_decay_probe_lattice_holds_the_bump_support(monkeypatch, n, resolution):
    # the probe samples its bump only over the horizontal cells whose centres
    # lie in the support |x_i| < 1/4, and the quadrature equals the one on
    # the full lattice of half-width 1/2
    calls = []

    def recorded(f, kernel, output_points):
        calls.append((f, kernel, output_points))
        return group_convolve(f, kernel, output_points=output_points)

    monkeypatch.setattr(kernels, "group_convolve", recorded)
    probe = decay_slope_probe(n, 2.0, resolution=resolution)
    (f, kernel, points), = calls
    full = bump_grid(n, 0.5, resolution, 0.25)
    if resolution % 4 == 0:
        assert f.values.size == (resolution // 2) ** (2 * n) * resolution
    assert np.count_nonzero(f.values) == np.count_nonzero(full.values)
    got, _ = group_convolve(f, kernel, output_points=points)
    want, _ = group_convolve(full, kernel, output_points=points)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    s_values = np.linalg.norm(points[:, :-1], axis=1)  # the base point is (1, 0, .., 0)
    slope = np.polyfit(np.log(s_values), np.log(np.abs(want)), 1)[0]
    assert probe["fitted_slope"] == pytest.approx(slope, rel=1e-12, abs=0.0)


def test_lp_lq_probe_critical_is_dilation_invariant():
    (report,) = lp_lq_probe(1, 1.0, 2.0, resolution=16)
    assert report["at_critical"]
    assert report["critical_q"] == pytest.approx(4.0)
    assert report["max_relative_spread"] < 0.05, report
    assert report["expected_drift_exponent"] == pytest.approx(0.0)


def test_lp_lq_probe_fractional_alpha():
    (report,) = lp_lq_probe(1, 2.0, 1.5, resolution=14, lambdas=(1.0, 2.0))
    assert report["critical_q"] == pytest.approx(6.0)
    assert report["max_relative_spread"] < 0.05, report


def test_lp_lq_probe_off_critical_drifts_monotonically():
    (report,) = lp_lq_probe(1, 1.0, 2.0, qs=(3.0,), resolution=14)
    assert not report["at_critical"]
    assert report["expected_drift_exponent"] < 0
    ratios = [r["ratio"] for r in report["rows"]]
    assert ratios[0] > ratios[1] > ratios[2]
    fitted = np.polyfit(
        np.log([r["lambda"] for r in report["rows"]]), np.log(ratios), 1
    )[0]
    assert np.sign(fitted) == np.sign(report["expected_drift_exponent"])


def test_lp_lq_probe_validation():
    with pytest.raises(ValueError, match="alpha"):
        lp_lq_probe(1, 5.0, 1.5)
    with pytest.raises(ValueError, match="p"):
        lp_lq_probe(1, 2.0, 3.0)
    with pytest.raises(ValueError, match="p"):
        lp_lq_probe(1, 1.0, 1.0)


def test_lp_lq_probe_convolves_each_dilate_once_for_every_q(monkeypatch):
    import rumincalc.kernels as kernels_module

    convolved = []
    original = kernels_module.group_convolve

    def counting(f, kernel, **kwargs):
        convolved.append(f.half_widths)
        return original(f, kernel, **kwargs)

    monkeypatch.setattr(kernels_module, "group_convolve", counting)
    lambdas = (1.0, 2.0, 4.0)
    both = lp_lq_probe(1, 1.0, 2.0, qs=(None, 3.0), lambdas=lambdas, resolution=14)
    assert len(convolved) == len(lambdas)
    assert len(set(convolved)) == len(lambdas)  # one call per dilate
    singles = [lp_lq_probe(1, 1.0, 2.0, qs=(q,), lambdas=lambdas, resolution=14)
               for q in (None, 3.0)]
    assert len(convolved) == 3 * len(lambdas)
    assert both == [report for (report,) in singles]
    assert both[0]["at_critical"] and both[0]["q"] == both[0]["critical_q"]
    assert not both[1]["at_critical"] and both[1]["q"] == 3.0


@pytest.mark.parametrize("p, qs, lambdas, ratio, q", [
    # |u * k|^q overflows at the critical q = 1596.0000000000355
    (3.99, (None,), (1.0, 2.0, 4.0), "inf", critical_exponent(1, 1.0, 3.99)),
    (2.0, (4.0, 1000.0), (64.0,), "0.0", 1000.0),  # |u * k|^q underflows
], ids=["3.99-qs0-lambdas0-inf-1596", "2.0-qs1-lambdas1-0.0-1000"])
def test_lp_lq_probe_rejects_a_ratio_beyond_the_float_range(p, qs, lambdas, ratio, q):
    # p, q and lambda are printed in full, not rounded
    reason = f"ratio is {ratio} at p = {p!r}, q = {q!r}, lambda = {lambdas[0]!r}:"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=re.escape(reason)):
            lp_lq_probe(1, 1.0, p, qs=qs, lambdas=lambdas, resolution=8)


def test_scalar_sobolev_check_invariance():
    u = bump_grid(1, 1.0, 16, 0.5)
    report = scalar_sobolev_check(1, 2.0, u, lambdas=(1.0, 2.0, 4.0))
    assert report["q"] == pytest.approx(4.0)
    assert report["max_relative_spread"] < 0.02, report


def test_scalar_sobolev_check_zero_and_validation():
    zero = Grid.empty(1, 1.0, 8)
    # both norms vanish: the ratio measures nothing
    reason = "ratio is 0.0 at p = 2.0, q = 4.0, lambda = 1.0:"
    with pytest.raises(ValueError, match=re.escape(reason)):
        scalar_sobolev_check(1, 2.0, zero)
    # q = 1596: every |u|^q of the bump underflows, so the L^q norm is 0
    u = bump_grid(1, 1.0, 8, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        reason = f"ratio is 0.0 at p = 3.99, q = {critical_exponent(1, 1.0, 3.99)!r}, lambda = 1.0:"
        with pytest.raises(ValueError, match=re.escape(reason)):
            scalar_sobolev_check(1, 3.99, u)
    with pytest.raises(ValueError, match="1 < p < Q"):
        scalar_sobolev_check(1, 1.0, zero)
    bad = Grid.from_poly(1, 1.0, 8, Poly.const(3, 1))
    with pytest.raises(ValueError, match="interior"):
        scalar_sobolev_check(1, 2.0, bad)


def _flow_sampled_laplacian(kernel, g: Grid) -> np.ndarray:
    """-sum_i (u(p.(h e_i)) - 2u(p) + u(p.(-h e_i))) / h^2 for u = kernel.evaluate.

    The shifted points are evaluated exactly through the kernel formula, so
    the only error is the O(h^2) central-difference truncation.
    """
    n = g.n
    p = from_coords(g.meshes())
    h = g.steps()[0]
    u0 = kernel.evaluate(p.coords())
    lap = np.zeros(g.shape)
    for j in range(2 * n):
        for sgn in (1.0, -1.0):
            step = [0.0] * (2 * n + 1)
            step[j] = sgn * h
            lap -= kernel.evaluate(multiply(p, from_coords(step)).coords())
        lap += 2.0 * u0
    return lap / h**2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_folland_remainder_vanishes_at_sixteen_only(n):
    # R_a is quadratic in a: A + a B + a^2 C, interpolated from a = 0, 1, 2
    r0, r1, r2 = (folland_remainder(n, a)[0] for a in (0, 1, 2))
    C = (r2 - r1 * 2 + r0) * Fraction(1, 2)
    B = r1 - r0 - C
    report = fundamental_gauge_scan(n)
    assert [r["t_weight"] for r in report["rows"]] == [float(a) for a in GAUGE_T_WEIGHTS]
    for a, row in zip(GAUGE_T_WEIGHTS, report["rows"]):
        remainder = folland_remainder(n, a)[0]
        assert remainder == r0 + B * a + C * (a * a), a
        assert row["remainder"] == remainder
        assert (remainder == Poly.zero(2 * n + 1)) == (a == 16), a
        assert (row["residual"] == 0.0) == (a == 16), a
    assert report["best_t_weight"] == 16.0


@dataclass(frozen=True)
class _GaugePower:
    """F^s for F = |z|^4 + a t^2 and s = -n/2, at float coordinates."""

    n: int
    t_weight: int

    def evaluate(self, coords) -> np.ndarray:
        return gauge4(from_coords(list(coords)), float(self.t_weight)) ** (-self.n / 2)


@pytest.mark.parametrize("a", [4, 16])
def test_flow_sampled_laplacian_matches_the_folland_remainder(a):
    # the second differences of F^s converge to -L(F^s) = -s F^{s-2} R_a
    # at second order: halving h divides the error on the annulus by 4
    n, s = 1, -0.5
    remainder, _ = folland_remainder(n, a)
    errors = []
    for N in (32, 64):
        g = Grid(n, (1.0, 1.0, 0.4), (N,) * 3, np.zeros((N,) * 3))
        F = gauge4(from_coords(g.meshes()), float(a))
        exact = -s * F ** (s - 2) * remainder.evaluate_float([g.axis(i) for i in range(3)])
        annulus = (F > 0.45**4) & (F < 0.75**4)
        diff = _flow_sampled_laplacian(_GaugePower(n, a), g) - exact
        errors.append(float(np.sqrt(np.mean(diff[annulus] ** 2))))
    assert 3.5 < errors[0] / errors[1] < 4.5, errors


def test_convolution_commutes_with_projected_derivative():
    # P(f * g) = f * (P g) for the horizontal flow derivative P
    n = 1
    res = 22
    f = bump_grid(n, 1.0, res, 0.35)
    k = HomogeneousKernel(n, 2.0)
    conv, _ = group_convolve(f, k)
    left, _ = discrete_horizontal_derivative(conv, 1)
    dk = horizontal_derivative(k, 1)
    right, _ = group_convolve(f, dk)
    interior = euclidean_mask(conv, identity(n), 0.6)
    num = np.abs(left.values - right.values)[interior]
    den = np.abs(right.values)[interior] + 1e-12
    rel = num / den
    assert float(np.median(rel)) < 0.05
