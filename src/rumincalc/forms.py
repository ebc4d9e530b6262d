"""Differential forms with exact polynomial coefficients, in two coframes.

A form is a dict from coframe bitmasks (as in ``exterior_weights``) to Poly
coefficients in the 2n+1 coordinates (x_1..x_n, y_1..y_n, t). Two frames are
supported:

* ``"left"``  - the left-invariant coframe omega_1..omega_2n, theta; the
  exterior differential uses the frame fields X_i, Y_i, T on coefficients and
  the structure equations on the coframe, and splits by weight into
  d = d0 + d1 + d2.
* ``"coord"`` - the coordinate coframe dx_i, dy_i, dt, where every basis
  covector is closed and d only differentiates coefficients. This is the
  frame the cone homotopy integrates in.

In both frames d is read off ``exterior_weights.d_table``: its frame-field
steps give the derivative terms (partials in the coordinate frame, X_i, Y_i,
T in the left frame) with their wedge signs, and its d0 column gives the
structure-equation term of the left frame.

Conversion between the frames substitutes
theta = dt - 1/2 sum_j (x_j dy_j - y_j dx_j) and back.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping

from .envelope import frame_derivatives
from .exterior_weights import Covector, d_table, lambda_masks, mask_weight, wedge_terms
from .polynomials import Poly, add_terms, random_poly

FRAMES = ("left", "coord")


class Form:
    __slots__ = ("n", "frame", "coeffs")

    def __init__(self, n: int, frame: str = "left", coeffs: Mapping[int, Poly] | None = None):
        if frame not in FRAMES:
            raise ValueError(f"unknown frame {frame!r}")
        self.n = n
        self.frame = frame
        nv = 2 * n + 1
        clean = {}
        if coeffs:
            limit = 1 << nv
            for mask, p in coeffs.items():
                if not 0 <= mask < limit:
                    raise ValueError(f"mask {mask} out of range")
                if p.nvars != nv:
                    raise ValueError("coefficient has wrong variable count")
                if p.terms:
                    clean[mask] = p
        self.coeffs = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int, frame: str = "left") -> "Form":
        return cls(n, frame)

    @classmethod
    def from_function(cls, n: int, p: Poly, frame: str = "left") -> "Form":
        return cls(n, frame, {0: p})

    @classmethod
    def monomial(cls, n: int, mask: int, p: Poly, frame: str = "left") -> "Form":
        return cls(n, frame, {mask: p})

    @classmethod
    def from_covector(cls, c: Covector, frame: str = "left") -> "Form":
        nv = 2 * c.n + 1
        return cls(c.n, frame, {m: Poly.const(nv, v) for m, v in c.terms.items()})

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "Form"):
        if self.n != other.n:
            raise ValueError("forms on different groups")
        if self.frame != other.frame:
            raise ValueError("forms in different frames")

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        coeffs = dict(self.coeffs)
        for m, p in other.coeffs.items():
            s = coeffs.get(m)
            s = p if s is None else s + p
            if s.terms:
                coeffs[m] = s
            else:
                coeffs.pop(m, None)
        out = Form.__new__(Form)
        out.n, out.frame, out.coeffs = self.n, self.frame, coeffs
        return out

    def __neg__(self) -> "Form":
        out = Form.__new__(Form)
        out.n, out.frame = self.n, self.frame
        out.coeffs = {m: -p for m, p in self.coeffs.items()}
        return out

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, c) -> "Form":
        c = Fraction(c)
        if c == 0:
            return Form.zero(self.n, self.frame)
        out = Form.__new__(Form)
        out.n, out.frame = self.n, self.frame
        out.coeffs = {m: p.scale(c) for m, p in self.coeffs.items()}
        return out

    def mul_poly(self, p: Poly) -> "Form":
        return Form(self.n, self.frame, {m: q * p for m, q in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Form)
            and self.n == other.n
            and self.frame == other.frame
            and self.coeffs == other.coeffs
        )

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        if self.frame == "left":
            names = [f"w{i+1}" for i in range(2 * self.n)] + ["theta"]
        else:
            names = (
                [f"dx{i+1}" for i in range(self.n)]
                + [f"dy{i+1}" for i in range(self.n)]
                + ["dt"]
            )
        bits = []
        for mask in sorted(self.coeffs):
            factors = "^".join(names[i] for i in range(2 * self.n + 1) if mask >> i & 1)
            bits.append(f"[{self.coeffs[mask]}]{factors}" if factors else f"[{self.coeffs[mask]}]")
        return " + ".join(bits)

    # -- structure queries ----------------------------------------------

    def degrees(self) -> set:
        return {m.bit_count() for m in self.coeffs}

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) > 1:
            raise ValueError("form is not of pure degree")
        return degs.pop() if degs else 0

    def coefficient(self, mask: int) -> Poly:
        return self.coeffs.get(mask, Poly.zero(2 * self.n + 1))

    def evaluate(self, coords) -> Covector:
        """Exact evaluation at a point given as a sequence of 2n+1 Fractions."""
        terms = {m: p.evaluate_exact(coords) for m, p in self.coeffs.items()}
        return Covector(self.n, terms)

    def norm2_poly(self) -> Poly:
        """Pointwise squared norm as a Poly; frame monomials are orthonormal."""
        nv = 2 * self.n + 1
        out = Poly.zero(nv)
        for p in self.coeffs.values():
            out = out + p * p
        return out


def wedge_forms(a: Form, b: Form) -> Form:
    a._check(b)
    return Form(a.n, a.frame, wedge_terms(a.coeffs, b.coeffs))


def random_form(rng: random.Random, n: int, k: int, degree: int, frame: str = "left") -> Form:
    """A k-form with a two-term random coefficient of degree <= ``degree`` per monomial."""
    nv = 2 * n + 1
    return Form(n, frame, {m: random_poly(rng, nv, degree, terms=2) for m in lambda_masks(n, k)})


# -- exterior differential --------------------------------------------------


def _d_coefficients(form: Form, by_weight: bool) -> tuple:
    """Coefficients of d(form) as (weight shift 0, 1, 2) mask -> Poly dicts.

    Shift 0 is d0 (left frame only), 1 a horizontal field, 2 the field T.
    Without ``by_weight`` a one-entry tuple holds all of d. The frame fields of
    each coefficient come from one ``frame_derivatives`` pass, and every
    target coefficient is summed in place as a term dict.
    """
    n, left = form.n, form.frame == "left"
    table = d_table(n)
    parts = ({}, {}, {}) if by_weight else ({},) * 3

    for mask, p in form.coeffs.items():
        d0, steps = table[mask]
        if left:
            for target, c in d0:
                add_terms(parts[0].setdefault(target, {}), ((e, v * c) for e, v in p.terms.items()))
        derivatives = frame_derivatives(n, p, form.frame)
        for i, target, sign in steps:
            terms = derivatives[i].terms
            if terms:
                add_terms(
                    parts[1 if i < 2 * n else 2].setdefault(target, {}),
                    terms.items() if sign > 0 else ((e, -v) for e, v in terms.items()),
                )
    nv = 2 * n + 1
    return tuple(
        {m: Poly.wrap(nv, terms) for m, terms in part.items() if terms}
        for part in (parts if by_weight else parts[:1])
    )


def exterior_d(form: Form) -> Form:
    """d in the form's own frame.

    Left frame: df = sum_i (W_i f) omega_i + (Tf) theta on coefficients plus
    the structure-equation d on each coframe monomial. Coordinate frame: the
    coframe is closed, only coefficients differentiate.
    """
    return Form(form.n, form.frame, _d_coefficients(form, by_weight=False)[0])


def split_d(form: Form):
    """(d0, d1, d2): the weight 0, +1, +2 pieces of d in the left frame.

    d0 is algebraic (structure equations only), d1 differentiates along the
    horizontal frame, d2 along T with a theta.
    """
    if form.frame != "left":
        raise ValueError("weight splitting needs the left-invariant frame")
    return tuple(Form(form.n, "left", part) for part in _d_coefficients(form, by_weight=True))


# -- frame conversion --------------------------------------------------------


def _one_form_images(n: int, target: str) -> list:
    """Images in the ``target`` frame of the 2n+1 basis one-forms of the other."""
    nv = 2 * n + 1
    one = Poly.const(nv, 1)
    # theta = dt - 1/2 sum (x_j dy_j - y_j dx_j), so dt = theta + the same sum
    half = Fraction(-1, 2) if target == "coord" else Fraction(1, 2)
    images = [Form.monomial(n, 1 << i, one, target) for i in range(2 * n)]
    coeffs = {1 << (2 * n): one}
    for j in range(n):
        coeffs[1 << (n + j)] = Poly.var(nv, j).scale(half)
        coeffs[1 << j] = Poly.var(nv, n + j).scale(-half)
    images.append(Form(n, target, coeffs))
    return images


def _convert(form: Form, target: str) -> Form:
    if form.frame == target:
        return form
    n = form.n
    nv = 2 * n + 1
    images = _one_form_images(n, target)
    out = Form.zero(n, target)
    unit = Poly.const(nv, 1)
    for mask, p in form.coeffs.items():
        prod = Form.from_function(n, unit, target)
        for i in range(nv):
            if mask >> i & 1:
                prod = wedge_forms(prod, images[i])
        out = out + prod.mul_poly(p)
    return out


def to_coordinate_frame(form: Form) -> Form:
    return _convert(form, "coord")


def to_left_frame(form: Form) -> Form:
    return _convert(form, "left")


# -- pullback under translation + dilation -----------------------------------


def translation_dilation_images(n: int, base, r) -> list:
    """Coordinate polynomials of q -> base * delta_r(q) as Polys in q."""
    nv = 2 * n + 1
    r = Fraction(r)
    half = Fraction(1, 2)
    images = []
    for i in range(n):
        images.append(Poly.var(nv, i).scale(r) + Poly.const(nv, base.x[i]))
    for i in range(n):
        images.append(Poly.var(nv, n + i).scale(r) + Poly.const(nv, base.y[i]))
    t_img = Poly.var(nv, 2 * n).scale(r * r) + Poly.const(nv, base.t)
    for j in range(n):
        t_img = t_img + Poly.var(nv, n + j).scale(half * r * Fraction(base.x[j]))
        t_img = t_img - Poly.var(nv, j).scale(half * r * Fraction(base.y[j]))
    images.append(t_img)
    return images


def pullback_translation_dilation(form: Form, base, r) -> Form:
    """Pullback along q -> base * delta_r(q), in the left-invariant frame.

    Left translations preserve the left-invariant coframe and the dilation
    scales it by its weight, so the coframe monomial just picks up r^weight
    while the coefficient is composed with the map.
    """
    if form.frame != "left":
        raise ValueError("pullback is implemented in the left-invariant frame")
    n = form.n
    r = Fraction(r)
    images = translation_dilation_images(n, base, r)
    coeffs = {}
    for mask, p in form.coeffs.items():
        factor = r ** mask_weight(n, mask)
        q = p.compose(images).scale(factor)
        if q.terms:
            coeffs[mask] = q
    return Form(n, "left", coeffs)


# -- linear maps given by exact matrices in a graded basis --------------------


def matrix_times_polys(matrix: list, polys: list, nvars: int) -> list:
    """A Fraction matrix times a column of Polys, ``None`` counting as zero."""
    out = []
    for row in matrix:
        terms: dict = {}
        for c, p in zip(row, polys):
            if c and p is not None:
                add_terms(terms, ((e, v * c) for e, v in p.terms.items()))
        out.append(Poly.wrap(nvars, terms))
    return out


def apply_mask_matrix(matrix: list, src_masks: list, dst_masks: list, form: Form) -> Form:
    """Apply a Fraction matrix (dst x src over coframe masks) coefficientwise."""
    if set(form.coeffs) - set(src_masks):
        raise ValueError("form has components outside the source basis")
    src = [form.coeffs.get(m) for m in src_masks]
    image = matrix_times_polys(matrix, src, 2 * form.n + 1)
    return Form(form.n, form.frame, dict(zip(dst_masks, image)))
