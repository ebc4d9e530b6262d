"""Shared generators, cached contexts and oracles for the test suite: Rumin's
projector P_E, the dense builds of the exact core, d0 as a matrix, the
weight split of d, the wedge product, d theta and the Lefschetz map L by
wedges (the oracle of d_table's signs), the frame change by wedges, exact
values and box integrals of polynomials, Euclidean masks on grids, the
full-grid flow shift and flow difference, the order and the action of
operators, and the sampled commutator audit of d_c: [a, zeta] by direct
Leibniz over the PBW monomials of a and by Leibniz over a's horizontal words,
which never applies T to zeta."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, prod
from typing import Mapping

import numpy as np
import pytest

from rumincalc import linalg
from rumincalc.envelope import DerivativeTable, EnvOp, derive
from rumincalc.exterior_weights import (
    Covector,
    Subspace,
    _d0_between,
    algebraic_d,
    covector_coords,
    lambda_masks,
    merge_sign,
)

# the test modules import random_form, random_section and random_poly from here
from rumincalc.forms import Form, exterior_d, random_form, random_section  # noqa: F401
from rumincalc.polynomials import Poly, add_terms, random_fraction, random_poly
from rumincalc.rumin_complex import RuminContext, weight_shift

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


def monomial(n: int, mask: int) -> Covector:
    """The coframe monomial omega_I of the mask I."""
    return Covector(n, {mask: Fraction(1)})


def one_form(n: int, i: int) -> Covector:
    return monomial(n, 1 << i)


def add_covectors(a: Covector, b: Covector) -> Covector:
    """a + b; the constructor drops the terms that cancel."""
    terms = dict(a.terms)
    for m, c in b.terms.items():
        terms[m] = terms.get(m, 0) + c
    return Covector(a.n, terms)


def negate_covector(c: Covector) -> Covector:
    return Covector(c.n, {m: -v for m, v in c.terms.items()})


def subtract_covectors(a: Covector, b: Covector) -> Covector:
    return add_covectors(a, negate_covector(b))


def is_horizontal(c: Covector) -> bool:
    theta_bit = 1 << (2 * c.n)
    return all(not mask & theta_bit for mask in c.terms)


def wedge_terms(a: Mapping, b: Mapping) -> dict:
    """Wedge of two mask -> coefficient maps, zero sums left in.

    Coefficients only need ``*``, ``+`` and unary ``-``, so the same loop
    serves Fraction covectors and Poly-coefficient forms, whose constructors
    drop the zeros.
    """
    terms: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if m1 & m2:
                continue
            m = m1 | m2
            term = c1 * c2 if merge_sign(m1, m2) > 0 else -(c1 * c2)
            s = terms.get(m)
            terms[m] = term if s is None else s + term
    return terms


def wedge(a: Covector, b: Covector) -> Covector:
    if a.n != b.n:
        raise ValueError("covectors on different groups")
    return Covector(a.n, wedge_terms(a.terms, b.terms))


def dtheta(n: int) -> Covector:
    return algebraic_d(one_form(n, 2 * n))


def lefschetz(a: Covector) -> Covector:
    """Wedge with the horizontal part of d theta, by the wedge product: the
    oracle of the Lefschetz map that ``exterior_weights`` reads off d_table.
    Defined on horizontal input."""
    if not is_horizontal(a):
        raise ValueError("lefschetz expects a horizontal covector")
    return wedge(dtheta(a.n), a)


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


def word_op(n: int, word) -> EnvOp:
    """The PBW-normalized product W_{word[0]} W_{word[1]} ... of generators."""
    acc = EnvOp.one(n)
    for g in word:
        acc = acc * EnvOp.generator(n, g)
    return acc


def horizontal_span_coefficients(a: EnvOp, max_length: int) -> list | None:
    """Write ``a`` as a combination of horizontal words of length <= max_length.

    Returns [(word, coeff)] with each word a tuple of horizontal generator
    indices, or None if no such representation exists. The representation is
    what "a differential operator in the horizontal derivatives" means; its
    PBW normal form may still show T through commutators.

    T is central and equals X_1 Y_1 - Y_1 X_1, so X^a Y^b T^c is the word
    X^a Y^b followed by c factors (X_1 Y_1 - Y_1 X_1), a combination of words
    of length d(a, b, c). Words of length <= L thus span exactly the
    monomials of homogeneity <= L.
    """
    n = a.n
    if any(a.homogeneity(exp) > max_length for exp in a.nums):
        return None
    t_words = (((0, n), 1), ((n, 0), -1))
    words: dict = {}
    for exp, c in a.terms.items():
        head = tuple(g for g in range(2 * n) for _ in range(exp[g]))
        add_terms(words, (
            (head + sum((w for w, _ in factors), ()), c * prod(s for _, s in factors))
            for factors in product(t_words, repeat=exp[-1])
        ))
    return list(words.items())


class PolyDiffOp:
    """Differential operator with polynomial coefficients.

    Stored as a dict from PBW multi-indices to Poly coefficients; applies as
    sum_I c_I(p) (W^I f)(p). Used for commutators [d_c, zeta] whose
    coefficients are genuinely non-constant.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple, Poly] | None = None):
        self.n = n
        self.terms = {tuple(e): p for e, p in (terms or {}).items() if p}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyDiffOp) and self.n == other.n and self.terms == other.terms
        )

    def order(self) -> int | None:
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)


def commutator_with_multiplication(a: EnvOp, zeta: "Poly | DerivativeTable") -> PolyDiffOp:
    """[a, zeta] = a(zeta u) - zeta a(u) as an operator in u.

    Leibniz over each PBW monomial: W^I (zeta u) expands over split exponents
    K <= I with multinomial weights, giving (W^K zeta) W^{I-K} u; the K = 0
    term cancels against zeta a(u). The W^K zeta are read from the
    ``DerivativeTable`` of zeta, which the caller may pass in to share it.
    """
    n = a.n
    if not isinstance(zeta, DerivativeTable):
        zeta = DerivativeTable(n, zeta)
    terms: dict = {}
    for I, c in a.terms.items():
        add_terms(terms, (
            (tuple(i - k for i, k in zip(I, K)), c * prod(map(comb, I, K)) * zeta[K])
            for K in product(*(range(e + 1) for e in I))
            if any(K)
        ))
    return PolyDiffOp(n, terms)


class WordDerivatives(dict):
    """The word route's table for one zeta, kept apart from its ``DerivativeTable``.

    Filed by a horizontal word w = (w_0, ..., w_k), an entry is
    W_{w_0} ... W_{w_k} zeta, derived from the entry of its tail w[1:]; the
    PBW products ``word_op`` of the leftover words are filed in ``products``
    and read through ``op``.
    """

    def __init__(self, n: int, zeta: Poly):
        super().__init__({(): zeta})
        self.n = n
        self.products: dict = {}

    def __missing__(self, word: tuple) -> Poly:
        tail = self[word[1:]]
        out = self[word] = derive(self.n, word[0], tail) if tail else tail
        return out

    def op(self, word: tuple) -> EnvOp:
        """``word_op`` of the word, built once per table."""
        out = self.products.get(word)
        if out is None:
            out = self.products[word] = word_op(self.n, word)
        return out


def leibniz_commutator_from_words(
    n: int, words: list, zeta: "Poly | WordDerivatives"
) -> PolyDiffOp:
    """[sum_w c_w W_w, zeta] from a horizontal-word representation.

    Every derivative of zeta that appears is a composition of horizontal
    fields only; T is never applied to zeta here. The derivatives are filed
    by sub-word in the ``WordDerivatives`` of zeta, which the caller may pass
    in to share it.
    """
    if not isinstance(zeta, WordDerivatives):
        zeta = WordDerivatives(n, zeta)
    terms: dict = {}
    for word, c in words:
        for split in product((False, True), repeat=len(word)):
            if not any(split):
                continue
            deriv = zeta[tuple(g for g, applied in zip(word, split) if applied)]
            if not deriv:
                continue
            scaled = c * deriv
            rest = zeta.op(tuple(g for g, applied in zip(word, split) if not applied))
            add_terms(terms, ((exp, scaled * cc) for exp, cc in rest.terms.items()))
    return PolyDiffOp(n, terms)


def commutator_audit(ctx: RuminContext, h: int, zeta: Poly) -> dict:
    """Structure of the commutator [d_c, zeta] out of degree h.

    Entry by entry: the argument order of [a, zeta] stays one below the
    weight of d_c (0 away from the middle, at most 1 across it), and the
    commutator computed through a horizontal-word representation of a, which
    by construction never applies T to zeta, agrees exactly with the direct
    Leibniz expansion. Agreement certifies the coefficients are free of
    T zeta. Each route files the derivatives of zeta in a table of its own,
    shared by every entry, so the two stay independent computations.
    """
    mat = ctx.rumin_d_matrix(h)
    shift = weight_shift(ctx.n, h)
    direct_table = DerivativeTable(ctx.n, zeta)
    word_table = WordDerivatives(ctx.n, zeta)
    report = {
        "n": ctx.n,
        "degree": h,
        "order_bound": shift - 1,
        "max_order": None,
        "orders_ok": True,
        "t_zeta_free": True,
    }
    for row in mat.entries:
        for e in row.values():
            direct = commutator_with_multiplication(e, direct_table)
            order = direct.order()
            if order is not None:
                if report["max_order"] is None or order > report["max_order"]:
                    report["max_order"] = order
                if order > shift - 1:
                    report["orders_ok"] = False
            words = horizontal_span_coefficients(e, shift)
            if words is None:
                report["t_zeta_free"] = False
                continue
            horizontal = leibniz_commutator_from_words(ctx.n, words, word_table)
            if direct != horizontal:
                report["t_zeta_free"] = False
    report["ok"] = report["orders_ok"] and report["t_zeta_free"]
    return report


def entry_structure(ctx: RuminContext, h: int) -> dict:
    """Two properties of the d_c entries out of degree h that their
    homogeneity implies, checked directly: entries of weight 1 have no T in
    their PBW form, and every entry is a combination of horizontal words of
    length at most its weight."""
    shift = weight_shift(ctx.n, h)
    entries = [e for row in ctx.rumin_d_matrix(h).entries for e in row.values()]
    return {
        "order_one_t_free": shift != 1 or not any(exp[-1] for e in entries for exp in e.nums),
        "horizontally_representable": all(
            horizontal_span_coefficients(e, shift) is not None for e in entries),
    }


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
