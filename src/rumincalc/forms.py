"""Differential forms with exact polynomial coefficients, in two coframes.

A form is a dict from coframe bitmasks (as in ``exterior_weights``) to Poly
coefficients in the 2n+1 coordinates (x_1..x_n, y_1..y_n, t). Two frames are
supported:

* ``"left"``  - the left-invariant coframe omega_1..omega_2n, theta; the
  exterior differential uses the frame fields X_i, Y_i, T on coefficients and
  the structure equations on the coframe.
* ``"coord"`` - the coordinate coframe dx_i, dy_i, dt, where every basis
  covector is closed and d only differentiates coefficients. This is the
  frame the cone homotopy integrates in.

In both frames d is read off ``exterior_weights.d_table``: its frame-field
steps give the derivative terms (partials in the coordinate frame, X_i, Y_i,
T of ``envelope.derive`` in the left frame) with their wedge signs, and its
d0 column gives the structure-equation term of the left frame.

Conversion between the frames substitutes
theta = dt - 1/2 sum_j (x_j dy_j - y_j dx_j) and back.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .envelope import derive
from .exterior_weights import d_table, lambda_masks, mask_weight, merge_sign
from .group_geometry import dilate, from_coords, multiply
from .polynomials import Poly, linear_combination, random_poly

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
                if p:
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

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "Form"):
        if self.n != other.n:
            raise ValueError("forms on different groups")
        if self.frame != other.frame:
            raise ValueError("forms in different frames")

    def _combine(self, other: "Form", sign: int) -> "Form":
        """self + sign other, coefficient by coefficient."""
        self._check(other)
        coeffs = dict(self.coeffs)
        nv = 2 * self.n + 1
        for m, p in other.coeffs.items():
            s = coeffs.get(m)
            if s is None:
                coeffs[m] = p if sign > 0 else -p
                continue
            s = linear_combination(nv, ((1, s), (sign, p)))
            if s:
                coeffs[m] = s
            else:
                del coeffs[m]
        out = Form.__new__(Form)
        out.n, out.frame, out.coeffs = self.n, self.frame, coeffs
        return out

    def __add__(self, other: "Form") -> "Form":
        return self._combine(other, 1)

    def __neg__(self) -> "Form":
        out = Form.__new__(Form)
        out.n, out.frame = self.n, self.frame
        out.coeffs = {m: -p for m, p in self.coeffs.items()}
        return out

    def __sub__(self, other: "Form") -> "Form":
        return self._combine(other, -1)

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

    def norm2_poly(self) -> Poly:
        """Pointwise squared norm as a Poly; frame monomials are orthonormal."""
        nv = 2 * self.n + 1
        out = Poly.zero(nv)
        for p in self.coeffs.values():
            out = out + p * p
        return out


def random_form(rng: random.Random, n: int, k: int, degree: int, frame: str = "left") -> Form:
    """A k-form with a two-term random coefficient of degree <= ``degree`` per monomial."""
    nv = 2 * n + 1
    return Form(n, frame, {m: random_poly(rng, nv, degree, terms=2) for m in lambda_masks(n, k)})


def random_section(rng: random.Random, ctx, h: int, degree: int) -> Form:
    """A section of E0^h of the ``RuminContext`` ctx, with a two-term random
    coefficient of degree <= ``degree`` per basis element of its core."""
    nv = 2 * ctx.n + 1
    return ctx.form_from_core(
        h, [random_poly(rng, nv, degree, terms=2) for _ in range(ctx.cores[h].dim)])


# -- exterior differential --------------------------------------------------


def exterior_d(form: Form) -> Form:
    """d in the form's own frame.

    Left frame: df = sum_i (W_i f) omega_i + (Tf) theta on coefficients plus
    the structure-equation d on each coframe monomial. Coordinate frame: the
    coframe is closed, only coefficients differentiate. The coefficient of
    omega_I is differentiated only along the fields of its ``d_table``
    steps, the i not in I: by ``derive`` in the left frame, by
    ``Poly.partial`` in the coordinate frame. Every target coefficient is
    one ``linear_combination``.
    """
    n, left = form.n, form.frame == "left"
    table = d_table(n)
    out: dict = {}
    for mask, p in form.coeffs.items():
        d0, steps = table[mask]
        if left:
            for target, c in d0:
                out.setdefault(target, []).append((c, p))
        for i, target, sign in steps:
            field = derive(n, i, p) if left else p.partial(i)
            if field:
                out.setdefault(target, []).append((sign, field))
    nv = 2 * n + 1
    return Form(n, form.frame, {m: linear_combination(nv, pairs) for m, pairs in out.items()})


# -- frame conversion --------------------------------------------------------


@lru_cache(maxsize=None)
def _frame_change(n: int, target: str) -> dict:
    """Images in the ``target`` frame of the coframe monomials of the other
    frame that hold its last basis one-form (theta or dt), by mask.

    theta = dt - 1/2 sum_j (x_j dy_j - y_j dx_j), so dt = theta + the same
    sum. A monomial e_I ^ e_t maps to itself plus, for each e_b with b not in
    I, +-1/2 x_j or -+1/2 y_j times e_I ^ e_b; each such term is filed as
    (target mask, variable, coefficient). A monomial without e_t maps to
    itself with coefficient 1 and has no entry.
    """
    t_bit = 1 << (2 * n)
    half = Fraction(-1, 2) if target == "coord" else Fraction(1, 2)
    # the contact one-form's coefficients: +-1/2 x_j on dy_j, -+1/2 y_j on dx_j
    slope = {}
    for j in range(n):
        slope[1 << (n + j)] = (j, half)
        slope[1 << j] = (n + j, -half)
    table = {}
    for mask in range(t_bit, t_bit << 1):
        rest = mask ^ t_bit
        table[mask] = tuple(
            (rest | bit, var, merge_sign(rest, bit) * c)
            for bit, (var, c) in slope.items() if not rest & bit
        )
    return table


def _convert(form: Form, target: str) -> Form:
    """The form in the ``target`` frame, read off ``_frame_change``: a
    coefficient whose monomial maps to itself alone passes through as is."""
    if form.frame == target:
        return form
    n = form.n
    nv = 2 * n + 1
    table = _frame_change(n, target)
    extra: dict = {}
    for mask, p in form.coeffs.items():
        for dst, var, c in table.get(mask, ()):
            # x_var p: distinct monomials stay distinct, and p.den stays reduced
            shifted = Poly.wrap(nv, {
                e[:var] + (e[var] + 1,) + e[var + 1:]: v for e, v in p.nums.items()
            }, p.den)
            extra.setdefault(dst, []).append((c, shifted))
    coeffs = dict(form.coeffs)
    for dst, pairs in extra.items():
        own = coeffs.get(dst)
        if own is not None:
            pairs.append((1, own))
        coeffs[dst] = linear_combination(nv, pairs)
    return Form(n, target, coeffs)


def to_coordinate_frame(form: Form) -> Form:
    return _convert(form, "coord")


def to_left_frame(form: Form) -> Form:
    return _convert(form, "left")


# -- pullback under translation + dilation -----------------------------------


def translation_dilation_images(n: int, base, r) -> list:
    """Coordinate polynomials of q -> base * delta_r(q) as Polys in q."""
    nv = 2 * n + 1
    q = from_coords([Poly.var(nv, i) for i in range(nv)])
    return list(multiply(base, dilate(Fraction(r), q)).coords())


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
        if q:
            coeffs[mask] = q
    return Form(n, "left", coeffs)


# -- linear maps given by exact matrices in a graded basis --------------------


def matrix_times_polys(rows: list, polys: list, nvars: int) -> list:
    """A Fraction matrix, given as rows {column: entry} of its nonzero
    entries, times a column of Polys, ``None`` counting as zero. A row whose
    only entry is 1 gives its source Poly itself, and a row whose sources
    are all zero gives one shared zero Poly."""
    zero = Poly.zero(nvars)
    out = []
    for row in rows:
        pairs = [(c, polys[j]) for j, c in row.items() if polys[j]]
        out.append(linear_combination(nvars, pairs) if pairs else zero)
    return out

