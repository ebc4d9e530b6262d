"""The intrinsic complex (E0, d_c) on H^n, built exactly.

``RuminContext`` caches, per degree h, the splitting subspaces from
``exterior_weights``, the algebraic differential d0 and its partial inverse
(zero on the complement V, the inverse of d0 restricted to W on its image),
and the E0 coordinates of the core E0 = V ∩ ker d0: B_h, the E0 basis as
columns, and C_h = N_h^{-1} B_h^T, with N_h the diagonal of its squared norms.

On forms these give the two projectors

    P_E  = 1 - d0^{-1} d - d d0^{-1}        (d the full differential)
    P_E0 = 1 - d0^{-1} d0 - d0 d0^{-1} = B_h C_h

and the intrinsic differential d_c = P_E0 ∘ d ∘ P_E ∘ P_E0. Both complements
are orthogonal (W ⟂ ker d0, V ⟂ im d0), so d0^{-1} is the Moore-Penrose
pseudo-inverse of d0, P_E0 is the orthogonal projector onto E0, and the
orthogonal basis B_h makes it B_h C_h. Since d0^{-1} vanishes on E0,
``rumin_d`` computes d_c as P_E0(d omega - d d0^{-1} d omega) with
omega = P_E0 form.

Because d_c is left-invariant and homogeneous, it is a matrix of constant
coefficient operators in the enveloping algebra once forms are written in the
E0 bases. ``rumin_d_matrix`` composes that matrix directly: d on Lambda^h is a
matrix D_h of frame fields plus the constant d0, and on E0 (where d0^{-1}
vanishes) the formula above becomes

    d_c = C_{h+1} . D_h . (1 - d0^{-1} D_h) . B_h

The projector P_E0 drops out because C_{h+1} P_E0 = C_{h+1} B_{h+1} C_{h+1}
= C_{h+1}. ``rumin_d`` on forms stays an independent route to the same
operator.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction

from . import linalg
from .envelope import (
    EnvOp,
    commutator_with_multiplication,
    env_from_rows,
    env_to_rows,
    horizontal_span_coefficients,
    leibniz_commutator_from_words,
    sum_of_products,
)
from .exterior_weights import build_spaces, covector_coords, d0_matrix, d_table, lambda_masks
from .forms import Form, apply_mask_matrix, exterior_d, matrix_times_polys
from .polynomials import Poly, add_terms


class OperatorMatrix:
    """A matrix of enveloping algebra operators between two E0 bases.

    The shape is carried explicitly so that empty matrices (degrees off the
    end of the complex) still compose with the right dimensions.
    """

    def __init__(self, n: int, src_degree: int, dst_degree: int, entries: list, shape=None):
        self.n = n
        self.src_degree = src_degree
        self.dst_degree = dst_degree
        self.entries = entries  # entries[i][j]: contribution of source j to target i
        if shape is None:
            shape = (len(entries), len(entries[0]) if entries else 0)
        self.shape = shape

    @classmethod
    def zero(cls, n: int, src_degree: int, dst_degree: int, rows: int, cols: int):
        z = EnvOp.zero(n)
        return cls(
            n, src_degree, dst_degree,
            [[z for _ in range(cols)] for _ in range(rows)], shape=(rows, cols),
        )

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OperatorMatrix)
            and (self.n, self.src_degree, self.dst_degree, self.shape)
            == (other.n, other.src_degree, other.dst_degree, other.shape)
            and self.entries == other.entries
        )

    def is_zero(self) -> bool:
        return all(not e for row in self.entries for e in row)

    def _combine(self, other: "OperatorMatrix", op) -> "OperatorMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        entries = [list(map(op, a, b)) for a, b in zip(self.entries, other.entries)]
        return OperatorMatrix(self.n, self.src_degree, self.dst_degree, entries, self.shape)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, operator.add)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, operator.sub)

    def compose(self, inner: "OperatorMatrix") -> "OperatorMatrix":
        """self ∘ inner (apply ``inner`` first)."""
        if self.cols != inner.rows:
            raise ValueError("shape mismatch in composition")
        # the nonzero j of each row of self and of each column of inner
        rows = [[(j, a) for j, a in enumerate(row) if a] for row in self.entries]
        columns = [
            {j: inner.entries[j][k] for j in range(inner.rows) if inner.entries[j][k]}
            for k in range(inner.cols)
        ]
        entries = [
            [sum_of_products(self.n, ((a, column[j]) for j, a in row if j in column))
             for column in columns]
            for row in rows
        ]
        return OperatorMatrix(
            self.n, inner.src_degree, self.dst_degree, entries,
            (self.rows, inner.cols),
        )

    def apply(self, polys: list) -> list:
        if len(polys) != self.cols:
            raise ValueError("coefficient count mismatch")
        out = []
        for row in self.entries:
            terms: dict = {}
            for e, g in zip(row, polys):
                if e and g.terms:
                    add_terms(terms, e.act(g).terms.items())
            out.append(Poly.wrap(2 * self.n + 1, terms))
        return out

    def adjoint(self, gram_src: list, gram_dst: list) -> "OperatorMatrix":
        """Formal L2 adjoint with respect to diagonal Gram matrices.

        gram_src / gram_dst are the squared norms of the source/target bases.
        """
        entries = []
        for j in range(self.cols):
            row = []
            for i in range(self.rows):
                op = self.entries[i][j].adjoint().scale(gram_dst[i] / gram_src[j])
                row.append(op)
            entries.append(row)
        return OperatorMatrix(
            self.n, self.dst_degree, self.src_degree, entries, (self.cols, self.rows)
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "src_degree": self.src_degree,
                "dst_degree": self.dst_degree,
                "shape": list(self.shape),
                "entries": [[env_to_rows(e) for e in row] for row in self.entries],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, s: str) -> "OperatorMatrix":
        data = json.loads(s)
        n = data["n"]
        entries = [[env_from_rows(n, e) for e in row] for row in data["entries"]]
        return cls(n, data["src_degree"], data["dst_degree"], entries, tuple(data["shape"]))


def _require_left_frame(form: Form) -> None:
    if form.frame != "left":
        raise ValueError("E0 and d0 act on forms in the left-invariant frame")


class RuminContext:
    """Exact cached data for (E0, d_c) on H^n."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.top = 2 * n + 1
        self.masks = [lambda_masks(n, h) for h in range(self.top + 1)]
        self.spaces = [build_spaces(n, h) for h in range(self.top + 1)]
        self.d0 = [d0_matrix(n, h) for h in range(self.top)]
        self.d0_pinv = [None] + [self._pseudo_inverse(h) for h in range(self.top)]
        # B_h (the E0 basis as columns) and C_h = N_h^{-1} B_h^T: the one E0
        # coordinate system, read by every map into and out of E0
        self._embed, self._coords = [], []
        for h in range(self.top + 1):
            core = self.core(h)
            rows = [covector_coords(b, self.masks[h]) for b in core.basis]
            self._embed.append([list(col) for col in zip(*rows)])
            self._coords.append(
                [[c / n2 for c in row] for row, n2 in zip(rows, core.norms2)]
            )
        self._p_e0 = [linalg.matmul(b, c) for b, c in zip(self._embed, self._coords)]
        self._d_matrices: dict = {}

    # -- exact matrix data -------------------------------------------------

    def core(self, h: int):
        return self.spaces[h][2]

    def gram(self, h: int) -> list:
        """Squared norms of the E0^h basis; empty past the top degree."""
        return self.spaces[h][2].norms2 if h <= self.top else []

    def core_dims(self) -> list:
        return [self.core(h).dim for h in range(self.top + 1)]

    def _pseudo_inverse(self, h: int) -> list:
        """Matrix of d0^{-1}: Lambda^{h+1} -> Lambda^h.

        Zero on V^{h+1}, and the inverse of d0 restricted to W^h on the image
        of d0. Built by solving in the basis (d0 W-basis, V-basis), which is a
        basis of Lambda^{h+1} because V is a complement of the image.
        """
        src_dim = len(self.masks[h + 1])
        dst_dim = len(self.masks[h])
        W = self.spaces[h][1]
        V_up = self.spaces[h + 1][0]
        w_vecs = [covector_coords(c, self.masks[h]) for c in W.basis]
        images = [linalg.matvec(self.d0[h], w) for w in w_vecs]
        v_vecs = [covector_coords(c, self.masks[h + 1]) for c in V_up.basis]
        columns = images + v_vecs
        if len(columns) != src_dim:
            raise AssertionError("image of d0 and V do not complement each other")
        aug = [
            [columns[j][i] for j in range(src_dim)]
            + [Fraction(1) if k == i else Fraction(0) for k in range(src_dim)]
            for i in range(src_dim)
        ]
        red, pivots = linalg.rref(aug)
        if pivots != list(range(src_dim)):
            raise AssertionError("d0 image basis is degenerate")
        # row i of the right block: i-th basis coordinate of every unit vector
        out = [[Fraction(0)] * src_dim for _ in range(dst_dim)]
        for w, row in zip(w_vecs, red):
            for r in range(dst_dim):
                if w[r] != 0:
                    out[r] = [o + w[r] * c for o, c in zip(out[r], row[src_dim:])]
        return out

    # -- form-level operators -----------------------------------------------

    def d0_inverse(self, form: Form) -> Form:
        _require_left_frame(form)
        degs = form.degrees()
        if not degs:
            return Form.zero(self.n)
        if len(degs) > 1:
            raise ValueError("d0 inverse needs a pure-degree form")
        k = degs.pop()
        if k == 0:
            return Form.zero(self.n)
        return apply_mask_matrix(self.d0_pinv[k], self.masks[k], self.masks[k - 1], form)

    def project_core(self, form: Form) -> Form:
        """Orthogonal projection onto E0, degree by degree."""
        _require_left_frame(form)
        coeffs = {}
        for k in sorted(form.degrees()):
            masks = self.masks[k]
            src = [form.coeffs.get(m) for m in masks]
            coeffs.update(zip(masks, matrix_times_polys(self._p_e0[k], src, 2 * self.n + 1)))
        return Form(self.n, "left", coeffs)

    def project_rumin(self, form: Form) -> Form:
        """P_E = 1 - d0^{-1} d - d d0^{-1} with the full differential d."""
        return form - self.d0_inverse(exterior_d(form)) - exterior_d(self.d0_inverse(form))

    def rumin_d(self, form: Form) -> Form:
        """d_c = P_E0 d P_E on omega = P_E0 form, as P_E0(d omega - d d0^{-1} d omega).

        d0^{-1} vanishes on E0, so P_E omega = omega - d0^{-1} d omega, and
        d omega serves both terms.
        """
        d_omega = exterior_d(self.project_core(form))
        return self.project_core(d_omega - exterior_d(self.d0_inverse(d_omega)))

    # -- E0 coordinates ------------------------------------------------------

    def core_coefficients(self, form: Form, h: int) -> list:
        """Coefficients of a form in the E0^h basis; exact, with residual check."""
        src = [form.coeffs.get(m) for m in self.masks[h]]
        polys = matrix_times_polys(self._coords[h], src, 2 * self.n + 1)
        rebuilt = self.form_from_core(h, polys)
        if rebuilt != form:
            raise ValueError("form is not a section of E0")
        return polys

    def form_from_core(self, h: int, polys: list) -> Form:
        if len(polys) != self.core(h).dim:
            raise ValueError("coefficient count mismatch")
        image = matrix_times_polys(self._embed[h], polys, 2 * self.n + 1)
        return Form(self.n, "left", dict(zip(self.masks[h], image)))

    # -- the d_c matrix ------------------------------------------------------

    def _constant(self, matrix: list, src_degree: int, dst_degree: int) -> OperatorMatrix:
        """A nonempty Fraction matrix as an operator matrix of scalar operators."""
        one = EnvOp.one(self.n)
        entries = [[one.scale(c) for c in row] for row in matrix]
        return OperatorMatrix(self.n, src_degree, dst_degree, entries)

    def _d_operator(self, h: int) -> OperatorMatrix:
        """d: Lambda^h -> Lambda^{h+1} in the left frame, on coefficients.

        d(f omega_I) = sum_i (W_i f) omega_i ^ omega_I + f d0(omega_I), with
        the frame-field steps and d0 both read off ``d_table``.
        """
        row_of = {m: r for r, m in enumerate(self.masks[h + 1])}
        d = self._constant(self.d0[h], h, h + 1)
        table = d_table(self.n)
        for col, mask in enumerate(self.masks[h]):
            for i, target, sign in table[mask].steps:
                d.entries[row_of[target]][col] += EnvOp.generator(self.n, i).scale(sign)
        return d

    def rumin_d_matrix(self, h: int) -> OperatorMatrix:
        """The matrix of d_c: E0^h -> E0^{h+1}, composed from d, d0^{-1}, B_h and C_{h+1}."""
        if h in self._d_matrices:
            return self._d_matrices[h]
        if not 0 <= h <= self.top:
            raise ValueError("degree out of range")
        if h == self.top:
            mat = OperatorMatrix.zero(self.n, h, h + 1, 0, self.core(h).dim)
        else:
            embed = self._constant(self._embed[h], h, h)
            coords = self._constant(self._coords[h + 1], h + 1, h + 1)
            d = self._d_operator(h)
            d0_inv = self._constant(self.d0_pinv[h + 1], h + 1, h)
            # P_E on E0, where d0^{-1} vanishes, is 1 - d0^{-1} d
            rumin = embed - d0_inv.compose(d.compose(embed))
            mat = coords.compose(d.compose(rumin))
        self._d_matrices[h] = mat
        return mat

    def rumin_delta_matrix(self, h: int) -> OperatorMatrix:
        """delta_c: E0^{h+1} -> E0^h, the formal L2 adjoint of d_c."""
        d = self.rumin_d_matrix(h)
        return d.adjoint(self.gram(h), self.gram(h + 1))

    def weight_shift(self, h: int) -> int:
        """Order of d_c out of degree h: 2 across the middle, else 1."""
        return 2 if h == self.n else 1

    def rumin_laplacian(self, h: int) -> OperatorMatrix:
        """The degree-h intrinsic Laplacian, homogeneous of order 2 or 4.

        Away from the middle degrees this is d_c delta_c + delta_c d_c; the
        term whose d_c crosses the middle (order 2) is squared so both terms
        have matching homogeneity. At the two ends of the complex only the
        term that stays inside it is present.
        """
        if not 0 <= h <= self.top:
            raise ValueError("degree out of range")
        lap = None
        if h > 0:
            lower = self.rumin_d_matrix(h - 1).compose(self.rumin_delta_matrix(h - 1))
            lap = lower.compose(lower) if h == self.n else lower
        if h < self.top:
            upper = self.rumin_delta_matrix(h).compose(self.rumin_d_matrix(h))
            upper = upper.compose(upper) if h == self.n + 1 else upper
            lap = upper if lap is None else lap + upper
        return lap

    def laplacian_order(self, h: int) -> int:
        return 4 if h in (self.n, self.n + 1) else 2


def laplacian_commutation_report(ctx: RuminContext) -> dict:
    """Exact commutation between d_c, delta_c and the intrinsic Laplacians.

    Away from the degrees where the order of d_c jumps, the naive identities
    d_c Delta_h = Delta_{h+1} d_c and delta_c Delta_h = Delta_{h-1} delta_c
    hold as matrix identities. Crossing the jump they cannot (the two sides
    have different homogeneity); the exact substitutes, consequences of
    d_c^2 = 0, carry the crossing factor cubed on one side.
    """
    n = ctx.n
    top = 2 * n + 1
    checks = []
    lap = [ctx.rumin_laplacian(h) for h in range(top + 1)]

    for h in range(top):
        if h in (n - 1, n + 1):
            continue
        d = ctx.rumin_d_matrix(h)
        residual = d.compose(lap[h]) - lap[h + 1].compose(d)
        checks.append({
            "identity": f"d_c Delta_{h} = Delta_{h + 1} d_c",
            "exact_zero": residual.is_zero(),
        })
    for h in range(1, top + 1):
        if h in (n, n + 2):
            continue
        delta = ctx.rumin_delta_matrix(h - 1)
        residual = delta.compose(lap[h]) - lap[h - 1].compose(delta)
        checks.append({
            "identity": f"delta_c Delta_{h} = Delta_{h - 1} delta_c",
            "exact_zero": residual.is_zero(),
        })

    d_lo = ctx.rumin_d_matrix(n - 1)
    delta_lo = ctx.rumin_delta_matrix(n - 1)
    cross_d_lo = d_lo.compose(delta_lo).compose(d_lo)
    cross_delta_lo = delta_lo.compose(d_lo).compose(delta_lo)
    d_hi = ctx.rumin_d_matrix(n + 1)
    delta_hi = ctx.rumin_delta_matrix(n + 1)
    cross_d_hi = d_hi.compose(delta_hi).compose(d_hi)
    cross_delta_hi = delta_hi.compose(d_hi).compose(delta_hi)
    substitutes = [
        (f"Delta_{n} d_c = (d_c delta_c d_c) Delta_{n - 1}",
         lap[n].compose(d_lo) - cross_d_lo.compose(lap[n - 1])),
        (f"d_c Delta_{n + 1} = Delta_{n + 2} (d_c delta_c d_c)",
         d_hi.compose(lap[n + 1]) - lap[n + 2].compose(cross_d_hi)),
        (f"delta_c Delta_{n} = Delta_{n - 1} (delta_c d_c delta_c)",
         delta_lo.compose(lap[n]) - lap[n - 1].compose(cross_delta_lo)),
        (f"Delta_{n + 1} delta_c = (delta_c d_c delta_c) Delta_{n + 2}",
         lap[n + 1].compose(delta_hi) - cross_delta_hi.compose(lap[n + 2])),
    ]
    for name, residual in substitutes:
        checks.append({"identity": name, "exact_zero": residual.is_zero()})
    return {
        "n": n,
        "checks": checks,
        "ok": all(c["exact_zero"] for c in checks),
    }


def commutator_audit(ctx: RuminContext, h: int, zeta: Poly) -> dict:
    """Structure of the commutator [d_c, zeta] out of degree h.

    Entry by entry: the argument order of [a, zeta] stays one below the
    weight of d_c (0 away from the middle, at most 1 across it), and the
    commutator computed through a horizontal-word representation of a, which
    by construction never applies T to zeta, agrees exactly with the direct
    Leibniz expansion. Agreement certifies the coefficients are free of
    T zeta.
    """
    mat = ctx.rumin_d_matrix(h)
    shift = ctx.weight_shift(h)
    report = {
        "n": ctx.n,
        "degree": h,
        "order_bound": shift - 1,
        "max_order": None,
        "orders_ok": True,
        "t_zeta_free": True,
    }
    for row in mat.entries:
        for e in row:
            if not e:
                continue
            direct = commutator_with_multiplication(e, zeta)
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
            horizontal = leibniz_commutator_from_words(ctx.n, words, zeta)
            if direct != horizontal:
                report["t_zeta_free"] = False
    report["ok"] = report["orders_ok"] and report["t_zeta_free"]
    return report


def horizontal_representability_report(ctx: RuminContext, h: int) -> dict:
    """Audit of the d_c entries out of degree h.

    Checks that every entry is homogeneous of the expected weight, that
    order-1 entries contain no T in their PBW form, and that every entry is a
    combination of words in the horizontal generators alone (for the order-2
    entries this absorbs any PBW T into commutators X_j Y_j - Y_j X_j).
    """
    mat = ctx.rumin_d_matrix(h)
    shift = ctx.weight_shift(h)
    report = {
        "n": ctx.n,
        "degree": h,
        "expected_weight": shift,
        "entries": 0,
        "nonzero_entries": 0,
        "homogeneous": True,
        "order_one_t_free": True,
        "horizontally_representable": True,
    }
    for row in mat.entries:
        for e in row:
            report["entries"] += 1
            if not e:
                continue
            report["nonzero_entries"] += 1
            if e.homogeneous_degree() != shift:
                report["homogeneous"] = False
            if shift == 1 and any(exp[-1] for exp in e.terms):
                report["order_one_t_free"] = False
            if horizontal_span_coefficients(e, shift) is None:
                report["horizontally_representable"] = False
    report["ok"] = (
        report["homogeneous"]
        and report["order_one_t_free"]
        and report["horizontally_representable"]
    )
    return report
