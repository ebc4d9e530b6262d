"""Anisotropic grids, discrete horizontal derivatives, and norms on H^n.

Grids are midpoint lattices over a box [-H, H]^{2n} x [-H_t, H_t]; the t
half-width defaults to the square of the horizontal one so that the grid is
stable under the group dilations used by the scaling probes.

The discrete horizontal derivative follows the flow of the frame field: a
central difference between u(p . (h e_i)) and u(p . (-h e_i)). The x/y part
of that step is one lattice cell; the induced t-shift -(h/2) y_i (or
+(h/2) x_i) is generally a fraction of a t-cell and is realized by linear
interpolation along the t-axis, gathered through one (coordinate, t) index
plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .group_geometry import Point, from_coords, gauge4, inverse, multiply


@dataclass
class Grid:
    """Samples of a scalar function on an anisotropic midpoint lattice."""

    n: int
    half_widths: tuple  # length 2n+1
    shape: tuple        # points per axis, length 2n+1
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.half_widths) != 2 * self.n + 1 or len(self.shape) != 2 * self.n + 1:
            raise ValueError("half_widths and shape must have 2n+1 entries")
        if tuple(self.values.shape) != tuple(self.shape):
            raise ValueError("values shape mismatch")

    # -- geometry ---------------------------------------------------------

    def axis(self, i: int) -> np.ndarray:
        H, N = self.half_widths[i], self.shape[i]
        step = 2.0 * H / N
        return -H + (np.arange(N) + 0.5) * step

    def steps(self) -> tuple:
        return tuple(2.0 * H / N for H, N in zip(self.half_widths, self.shape))

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for s in self.steps():
            v *= s
        return v

    def meshes(self, sparse: bool = False) -> list:
        """The coordinate arrays of the lattice; sparse ones keep their own
        axis only and broadcast against each other."""
        axes = [self.axis(i) for i in range(2 * self.n + 1)]
        return np.meshgrid(*axes, indexing="ij", sparse=sparse)

    def copy_with(self, values: np.ndarray) -> "Grid":
        return Grid(self.n, self.half_widths, self.shape, values)

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls, n: int, horizontal_half_width: float, resolution: int,
              t_half_width: float | None = None, t_resolution: int | None = None) -> "Grid":
        H = float(horizontal_half_width)
        Ht = H * H if t_half_width is None else float(t_half_width)
        Nt = resolution if t_resolution is None else t_resolution
        hw = tuple([H] * (2 * n) + [Ht])
        shape = tuple([resolution] * (2 * n) + [Nt])
        return cls(n, hw, shape, np.zeros(shape))

    @classmethod
    def from_poly(cls, n: int, horizontal_half_width: float, resolution: int, poly,
                  t_half_width: float | None = None, t_resolution: int | None = None) -> "Grid":
        g = cls.empty(n, horizontal_half_width, resolution, t_half_width, t_resolution)
        g.values = poly.evaluate_float([g.axis(i) for i in range(2 * n + 1)])
        return g

    # -- quadrature ----------------------------------------------------------

    def lp_norm(self, p: float) -> float:
        vals = np.abs(self.values) ** p
        return float(vals.sum() * self.cell_volume) ** (1.0 / p)


def gauge_mask(grid: Grid, center: Point, radius: float, t_weight: float = 1.0) -> np.ndarray:
    """Boolean mask of grid cells inside the gauge ball around ``center``.

    The gauge is rho^4 = |z|^4 + t_weight * t^2 evaluated on center^{-1} . p.
    The coordinates are sparse axes that the group law and the gauge
    broadcast: only the t coordinate, its square and the comparison fill the
    lattice, |z|^4 stays on the horizontal cells.
    """
    c = from_coords([float(v) for v in center.coords()])
    z = multiply(inverse(c), from_coords(grid.meshes(sparse=True)))
    return gauge4(z, t_weight) < float(radius) ** 4


def _interp_t(plane: np.ndarray, offsets: np.ndarray) -> tuple:
    """Shift along the last (t) axis by a fractional cell offset per coordinate.

    ``plane`` has the coordinate axis second to last, next to t, and
    ``offsets`` holds one offset per coordinate, so the stencil depends on the
    (coordinate, t) plane alone: it is built there, and ``plane`` is gathered
    through it. Linear interpolation between the two neighbouring t-cells,
    clamped at the ends. Returns (shifted, out_of_range): shifted in the
    layout of ``plane``, and out_of_range on the (coordinate, t) plane,
    flagging the points whose stencil left the grid.
    """
    Nt = plane.shape[-1]
    pos = np.arange(Nt) + offsets[:, None]
    lo = np.floor(pos).astype(int)
    frac = pos - lo
    out = (pos < 0) | (pos > Nt - 1)
    rows = np.arange(len(offsets))[:, None]
    shifted = plane[..., rows, np.clip(lo, 0, Nt - 1)]
    shifted *= 1.0 - frac
    upper = plane[..., rows, np.clip(lo + 1, 0, Nt - 1)]
    upper *= frac
    shifted += upper
    return shifted, out


def _clipped_difference(values, fwd, bwd, bad_f, bad_b, h: float) -> np.ndarray:
    """The flow difference on cells where a stencil may have left the grid:
    centered where neither side is flagged, one-sided away from a flagged
    side, and 0 where both are."""
    centered = (fwd - bwd) / (2.0 * h)
    one_sided_f = (fwd - values) / h
    one_sided_b = (values - bwd) / h
    out = np.where(bad_f & ~bad_b, one_sided_b, np.where(bad_b & ~bad_f, one_sided_f, centered))
    return np.where(bad_f & bad_b, 0.0, out)


def _flow_difference(grid: Grid, a: int, axis_label) -> tuple:
    """Central difference along the flow of the a-th frame field (0-based).

    The flow step p . (+-h e_a) is one lattice cell along axis a and, for a
    horizontal field, a fractional t-shift that depends on one coordinate
    only. The two commute, so the t-shifts F+ and F- are interpolated once
    on the unstepped values, with that coordinate moved next to t, and
    u(p . (h e_a)) at cell x is F+ at x + 1, u(p . (-h e_a)) is F- at x - 1.

    Returns (Grid, report); report['boundary_fraction'] is the share of cells
    whose centered stencil left the grid, where a one-sided difference (or
    zero at a doubly-clipped corner) is substituted and flagged. Those cells
    lie on the two edge slabs along a and on the (coordinate, t) pairs whose
    t-stencil was clamped; only they take the one-sided formula.
    """
    n = grid.n
    t_axis = 2 * n
    h = grid.steps()[a]
    N = grid.shape[a]
    values = grid.values
    if a == t_axis:
        plane, step_axis = values, a
        (fwd, out_f), (bwd, out_b) = (values, False), (values, False)
    else:
        if a < n:
            coord_axis, sign = n + a, -1.0  # y_a
        else:
            coord_axis, sign = a - n, +1.0  # x_{a-n}
        t_step = grid.steps()[t_axis]
        coords = grid.axis(coord_axis)
        plane = np.moveaxis(values, coord_axis, -2)
        step_axis = a if a < coord_axis else a - 1
        (fwd, out_f), (bwd, out_b) = (
            _interp_t(plane, (direction * h / 2.0) * sign * coords / t_step)
            for direction in (+1, -1)
        )
    # C order, as the sums over it expect; written through the layout of plane
    result = np.empty(grid.shape)
    out = result if a == t_axis else np.moveaxis(result, coord_axis, -2)

    def along(start, stop):
        index = [slice(None)] * plane.ndim
        index[step_axis] = slice(start, stop)
        return tuple(index)

    edge_shape = [1] * plane.ndim
    edge_shape[step_axis] = N
    edge_f, edge_b = np.zeros(edge_shape, dtype=bool), np.zeros(edge_shape, dtype=bool)
    edge_f.flat[-1] = edge_b.flat[0] = True
    bad_f, bad_b = edge_f | out_f, edge_b | out_b

    np.subtract(fwd[along(2, None)], bwd[along(None, -2)], out=out[along(1, -1)])
    out[along(1, -1)] /= 2.0 * h
    # the edge slabs along a: at N - 1 the forward operand wraps around to
    # F+ at 0, at 0 the backward one to F- at N - 1
    for x in sorted({0, N - 1}):
        fx, bx = (x + 1) % N, (x - 1) % N
        cells = along(x, x + 1)
        out[cells] = _clipped_difference(
            plane[cells], fwd[along(fx, fx + 1)], bwd[along(bx, bx + 1)],
            bad_f[cells], bad_b[cells], h,
        )
    if a != t_axis:
        # the cells between the edge slabs on the clamped (coordinate, t) pairs
        rows, cols = np.nonzero(out_f | out_b)
        inner = along(1, -1)
        out[inner][..., rows, cols] = _clipped_difference(
            plane[inner][..., rows, cols],
            fwd[along(2, None)][..., rows, cols],
            bwd[along(None, -2)][..., rows, cols],
            out_f[rows, cols], out_b[rows, cols], h,
        )
    report = {
        "boundary_fraction": float((bad_f | bad_b).mean()),
        "axis": axis_label,
        "step": h,
    }
    return grid.copy_with(result), report


def discrete_horizontal_derivative(grid: Grid, i: int) -> tuple:
    """Central difference along the flow of W_i (1-based horizontal index)."""
    if not 1 <= i <= 2 * grid.n:
        raise ValueError("horizontal index out of range")
    return _flow_difference(grid, i - 1, i)


def discrete_t_derivative(grid: Grid) -> tuple:
    """Central difference along the flow of the field T, the plain t-shift."""
    return _flow_difference(grid, 2 * grid.n, "t")


@lru_cache(maxsize=None)
def _default_quartic(n: int):
    """(sum_j (j+1) v_j)^4 + v_0^2 t, the test polynomial of
    ``derivative_convergence``, built once per n."""
    from .polynomials import Poly

    nv = 2 * n + 1
    total = Poly.zero(nv)
    for j in range(nv):
        total = total + Poly.var(nv, j).scale(j + 1)
    return total**4 + Poly.var(nv, 0) ** 2 * Poly.var(nv, 2 * n)


def derivative_convergence(n: int, i: int = 1, resolutions=(16, 24, 32),
                           poly=None) -> dict:
    """Observed convergence order of the discrete flow derivative.

    Compares against the symbolic derivation on ``_default_quartic`` (or the
    supplied polynomial), measuring the L2 error over the fixed interior region
    |coordinate| < 0.5 so that the region sampled does not change with the
    resolution; fits the log-log slope across the resolutions. Reports each
    resolution's error and the share of its cells where the stencil left
    the grid.
    """
    from .envelope import derive

    nv = 2 * n + 1
    if poly is None:
        poly = _default_quartic(n)
    exact = derive(n, i - 1, poly)
    errs = []
    steps = []
    boundary = []
    for res in resolutions:
        g = Grid.from_poly(n, 1.0, res, poly)
        target = Grid.from_poly(n, 1.0, res, exact)
        approx, rep = discrete_horizontal_derivative(g, i)
        # the region is a box: the cells -0.5 < x < 0.5 of each sorted axis
        box = tuple(
            slice(np.searchsorted(x, -0.5, side="right"), np.searchsorted(x, 0.5))
            for x in (g.axis(axis) for axis in range(nv))
        )
        diff = (approx.values[box] - target.values[box]).ravel()
        errs.append(float(np.sqrt(np.mean(diff**2))))
        steps.append(rep["step"])
        boundary.append(rep["boundary_fraction"])
    order = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
    return {
        "n": n,
        "axis": i,
        "resolutions": list(resolutions),
        "errors": errs,
        "boundary_fractions": boundary,
        "observed_order": order,
    }


def form_lp_norm(form, p: float, horizontal_half_width: float, resolution: int,
                 mask: np.ndarray) -> float:
    """L^p norm of a left-frame form's pointwise length over the masked cells
    of ``Grid.empty(form.n, horizontal_half_width, resolution)``.

    The frame monomials are orthonormal, so |omega(x)|^2 is the sum of squared
    coefficients; that polynomial is evaluated on the grid directly. The cells
    outside the mask are zeroed before the power, which is taken in place, so
    a value that would overflow there cannot reach the sum.
    """
    g = Grid.from_poly(form.n, horizontal_half_width, resolution, form.norm2_poly())
    vals = np.maximum(g.values, 0.0, out=g.values)
    vals *= mask
    vals **= p / 2.0
    return float(vals.sum() * g.cell_volume) ** (1.0 / p)
