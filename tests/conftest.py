"""Shared generators, cached contexts and oracles for the test suite: Rumin's
projector P_E, the dense builds of the exact core, d0 as a matrix, the
weight split of d, the wedge product and the frame change by wedges, exact
values and box integrals of polynomials, Euclidean masks on grids, the
full-grid flow shift and flow difference, and the order and the action of
operators."""

import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from rumincalc import linalg
from rumincalc.envelope import EnvOp, derive
from rumincalc.exterior_weights import (
    Covector,
    Subspace,
    _d0_between,
    algebraic_d,
    covector_coords,
    lambda_masks,
    wedge_terms,
)

# the test modules import random_form, random_section and random_poly from here
from rumincalc.forms import Form, exterior_d, random_form, random_section  # noqa: F401
from rumincalc.polynomials import Poly, random_fraction, random_poly
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


def project_rumin(ctx: RuminContext, form: Form) -> Form:
    """Rumin's projector P_E = 1 - d0^{-1} d - d d0^{-1}, with the full
    differential d: the oracle of the projector identities."""
    return form - ctx.d0_inverse(exterior_d(form)) - exterior_d(ctx.d0_inverse(form))


def wedge_forms(a: Form, b: Form) -> Form:
    """a ^ b, coefficient by coefficient."""
    a._check(b)
    return Form(a.n, a.frame, wedge_terms(a.coeffs, b.coeffs))


def mul_poly(form: Form, p: Poly) -> Form:
    """The form with every coefficient multiplied by p."""
    return Form(form.n, form.frame, {m: q * p for m, q in form.coeffs.items()})


def reference_convert(form: Form, target: str) -> Form:
    """Oracle for the frame change: each coframe monomial is the wedge of
    the images of its basis one-form factors in the ``target`` frame, and
    its coefficient multiplies that wedge.

    theta = dt - 1/2 sum_j (x_j dy_j - y_j dx_j), so dt = theta + the same sum.
    """
    if form.frame == target:
        return form
    n = form.n
    nv = 2 * n + 1
    one = Poly.const(nv, 1)
    half = Fraction(-1, 2) if target == "coord" else Fraction(1, 2)
    images = [Form.monomial(n, 1 << i, one, target) for i in range(2 * n)]
    coeffs = {1 << (2 * n): one}
    for j in range(n):
        coeffs[1 << (n + j)] = Poly.var(nv, j).scale(half)
        coeffs[1 << j] = Poly.var(nv, n + j).scale(-half)
    images.append(Form(n, target, coeffs))
    out = Form.zero(n, target)
    for mask, p in form.coeffs.items():
        prod = Form.from_function(n, one, target)
        for i in range(nv):
            if mask >> i & 1:
                prod = wedge_forms(prod, images[i])
        out = out + mul_poly(prod, p)
    return out


def dense(rows: list, cols: int) -> list:
    """The dense matrix of rows {column: entry}, zeros filled in."""
    return [[row.get(j, Fraction(0)) for j in range(cols)] for row in rows]


def covector_from_coords(n: int, masks: list, coords: list) -> Covector:
    """The covector with the given coordinates on the coframe monomials ``masks``."""
    return Covector(n, {m: v for m, v in zip(masks, coords) if v != 0})


def subspace_from_vectors(n: int, degree: int, masks: list, vectors: list) -> Subspace:
    """The span of coordinate vectors over ``masks``, by Gram-Schmidt over Q."""
    ortho, norms2 = linalg.gram_schmidt(vectors)
    return Subspace(n, degree, [covector_from_coords(n, masks, v) for v in ortho], norms2)


def euclidean_mask(grid, center, radius: float):
    """Boolean mask of the grid cells in the Euclidean ball around ``center``."""
    meshes = grid.meshes()
    d2 = sum((m - float(c)) ** 2 for m, c in zip(meshes, center.coords()))
    return d2 < float(radius) ** 2


def _reference_interp_t(values, offsets, t_axis: int) -> tuple:
    """Linear interpolation along t by ``take_along_axis`` over full-size
    broadcast indices; ``offsets`` broadcasts against ``values``."""
    Nt = values.shape[t_axis]
    idx = np.arange(Nt).reshape([-1 if a == t_axis else 1 for a in range(values.ndim)])
    pos = idx + offsets
    lo = np.floor(pos).astype(int)
    frac = pos - lo
    out = (pos < 0) | (pos > Nt - 1)
    lo_c = np.clip(lo, 0, Nt - 1)
    hi_c = np.clip(lo + 1, 0, Nt - 1)
    lo_b = np.broadcast_to(lo_c, values.shape)
    hi_b = np.broadcast_to(hi_c, values.shape)
    frac_b = np.broadcast_to(frac, values.shape)
    shifted = (
        np.take_along_axis(values, lo_b, axis=t_axis) * (1.0 - frac_b)
        + np.take_along_axis(values, hi_b, axis=t_axis) * frac_b
    )
    return shifted, np.broadcast_to(out, values.shape)


def reference_flow_shift(grid, i: int, direction: int) -> tuple:
    """Samples of u(p . (direction * h e_i)) with h one lattice step, by a
    one-cell roll along axis i and a full-size gather along t, with full-grid
    masks of the cells whose stencil left the grid: the oracle for the
    gather on the (coordinate, t) plane."""
    n = grid.n
    t_axis = 2 * n
    h = grid.steps()[i]
    v = grid.values
    shifted = np.roll(v, -direction, axis=i)
    invalid_axis = np.zeros(grid.shape, dtype=bool)
    edge = [slice(None)] * v.ndim
    edge[i] = slice(-1, None) if direction > 0 else slice(0, 1)
    invalid_axis[tuple(edge)] = True
    if i == t_axis:
        return shifted, invalid_axis
    if i < n:
        coord, sign, coord_axis = grid.axis(n + i), -1.0, n + i
    else:
        coord, sign, coord_axis = grid.axis(i - n), +1.0, i - n
    t_step = grid.steps()[t_axis]
    offs_shape = [1] * v.ndim
    offs_shape[coord_axis] = -1
    offsets = (direction * h / 2.0) * sign * coord.reshape(offs_shape) / t_step
    shifted, out = _reference_interp_t(shifted, offsets, t_axis)
    return shifted, invalid_axis | out


def reference_flow_difference(grid, a: int) -> tuple:
    """The flow difference along the a-th frame field (0-based) from two
    full-grid flow shifts, three full-grid quotients and a per-cell choice
    among them: the oracle for ``grid._flow_difference``. Returns (values,
    boundary_fraction)."""
    h = grid.steps()[a]
    fwd, bad_f = reference_flow_shift(grid, a, +1)
    bwd, bad_b = reference_flow_shift(grid, a, -1)
    centered = (fwd - bwd) / (2.0 * h)
    one_sided_f = (fwd - grid.values) / h
    one_sided_b = (grid.values - bwd) / h
    out = np.where(bad_f & ~bad_b, one_sided_b, np.where(bad_b & ~bad_f, one_sided_f, centered))
    out = np.where(bad_f & bad_b, 0.0, out)
    return out, float((bad_f | bad_b).mean())


def apply_poly_diff_op(op, f: Poly) -> Poly:
    """sum_I c_I (W^I f) for the ``PolyDiffOp`` op = sum_I c_I W^I."""
    total = Poly.zero(2 * op.n + 1)
    for exp, coeff in op.terms.items():
        total = total + coeff * EnvOp(op.n, {exp: 1}).act(f)
    return total


def operator_order(a) -> int | None:
    """Order of an ``EnvOp``: its longest PBW monomial, None for zero."""
    return max((sum(exp) for exp in a.terms), default=None)


def exact_value(p: Poly, point) -> Fraction:
    """p at a rational point: p composed with constant images."""
    return p.compose([Poly.const(0, v) for v in point]).terms.get((), Fraction(0))


def symmetric_box_integral(p: Poly) -> Fraction:
    """Exact integral of ``p`` over the box [-1, 1]^nvars.

    Odd monomials vanish; an even power k contributes 2/(k+1) per axis.
    """
    total = Fraction(0)
    for exp, c in p.terms.items():
        if any(e % 2 for e in exp):
            continue
        v = c
        for e in exp:
            v = v * Fraction(2, e + 1)
        total += v
    return total


def d_field_by_field(form: Form) -> list:
    """[d0, d1, d2] of form: the weight 0, +1, +2 pieces of d, one frame field
    at a time.

    d(f omega_I) = sum_i (W_i f) omega_i ^ omega_I + f d omega_I, with W_i
    from ``derive`` (left frame) or the partials (coordinate frame), where
    the coframe is closed. d0 is the structure-equation term, d1 the
    horizontal fields, d2 the field T with a theta.
    """
    n, frame = form.n, form.frame
    nv = 2 * n + 1
    parts = [Form.zero(n, frame) for _ in range(3)]
    for mask, f in form.coeffs.items():
        coframe = Form.monomial(n, mask, Poly.const(nv, 1), frame)
        if frame == "left":
            d0 = algebraic_d(Covector(n, {mask: Fraction(1)}))
            d_coframe = Form(n, frame, {m: Poly.const(nv, v) for m, v in d0.terms.items()})
            parts[0] = parts[0] + mul_poly(d_coframe, f)
        for i in range(nv):
            wf = derive(n, i, f) if frame == "left" else f.partial(i)
            term = wedge_forms(Form.monomial(n, 1 << i, wf, frame), coframe)
            parts[1 if i < 2 * n else 2] = parts[1 if i < 2 * n else 2] + term
    return parts


def d0_matrix(n: int, h: int) -> list:
    """Matrix of the algebraic differential Lambda^h -> Lambda^{h+1}."""
    return _d0_between(n, lambda_masks(n, h), lambda_masks(n, h + 1))


def _eye(dim: int) -> list:
    return [[Fraction(1) if j == i else Fraction(0) for j in range(dim)] for i in range(dim)]


def kernel(matrix: list, src_dim: int) -> list:
    """Nullspace, treating a matrix with no rows as the zero map."""
    if not matrix or not matrix[0]:
        return _eye(src_dim)
    return linalg.nullspace(matrix)


@lru_cache(maxsize=None)
def dense_spaces(n: int) -> tuple:
    """(V, W, E0) of every degree, from nullspaces and Gram-Schmidt over all
    of Lambda^h at once: V = (im d0)^⟂, W = (ker d0)^⟂ and E0 = V ∩ ker d0.
    E0 is the oracle for the block-by-block ``build_spaces``; V and W serve
    ``dense_pseudo_inverse``."""
    out = []
    for h in range(2 * n + 2):
        masks = lambda_masks(n, h)
        dim = len(masks)
        d_here = d0_matrix(n, h)  # empty at top degree, where d0 ends the complex
        ker = kernel(d_here, dim)
        if h > 0:
            below = d0_matrix(n, h - 1)
            image_raw = [[below[r][c] for r in range(dim)] for c in range(len(below[0]))]
            red, pivots = linalg.rref(image_raw)
            image = [red[i] for i in range(len(pivots))]
        else:
            image = []
        w_vectors = kernel(ker, dim)
        v_vectors = kernel(image, dim)
        e0_vectors = kernel(list(image) + d_here, dim)
        out.append(tuple(
            subspace_from_vectors(n, h, masks, vectors)
            for vectors in (v_vectors, w_vectors, e0_vectors)
        ))
    return tuple(out)


def dense_pseudo_inverse(n: int, h: int) -> list:
    """d0^{-1}: Lambda^{h+1} -> Lambda^h by its definition, zero on V^{h+1}
    and the inverse of d0 restricted to W^h on im d0: one solve in the basis
    (d0 W-basis, V-basis) of all of Lambda^{h+1}. The oracle for the
    block-by-block Moore-Penrose ``d0_pseudo_inverse``."""
    spaces = dense_spaces(n)
    src, dst = lambda_masks(n, h + 1), lambda_masks(n, h)
    d0 = d0_matrix(n, h)
    w_vecs = [covector_coords(c, dst) for c in spaces[h][1].basis]
    columns = [[linalg.dot(row, w) for row in d0] for w in w_vecs]
    columns += [covector_coords(c, src) for c in spaces[h + 1][0].basis]
    assert len(columns) == len(src)
    aug = [
        [col[i] for col in columns] + [Fraction(int(k == i)) for k in range(len(src))]
        for i in range(len(src))
    ]
    red, pivots = linalg.rref(aug)
    assert pivots == list(range(len(src)))
    out = [[Fraction(0)] * len(src) for _ in dst]
    for w, row in zip(w_vecs, red):
        for r in range(len(dst)):
            if w[r] != 0:
                out[r] = [o + w[r] * c for o, c in zip(out[r], row[len(src):])]
    return out
