"""The intrinsic complex (E0, d_c) on H^n, built exactly.

``RuminContext`` caches, per degree h, the core E0 = V ∩ ker d0 and the
partial inverse d0^{-1} of the algebraic differential (zero on the complement
V of im d0, the inverse of d0 restricted to the complement W of ker d0 on its
image), both from ``exterior_weights``, and the E0 coordinates: B_h, the E0
basis as columns, and C_h = N_h^{-1} B_h^T, with N_h the diagonal of its
squared norms. V and W themselves are never built. These constant maps,
and P_E0 below, are kept as rows of their nonzero entries, and d0^{-1} and
P_E0 reach a form through one route that applies the map of each degree to
that degree. The operator matrices d_c, delta_c, d_c delta_c and delta_c d_c
are built once per degree and kept in one memo, keyed by operator and degree.

Rumin's projector onto E is P_E = 1 - d0^{-1} d - d d0^{-1} (d the full
differential), and P_E0 = 1 - d0^{-1} d0 - d0 d0^{-1} = B_h C_h. Both
complements are orthogonal (W ⟂ ker d0, V ⟂ im d0), so d0^{-1} is the
Moore-Penrose inverse of d0, P_E0 is the orthogonal projector onto E0, and
the orthogonal basis B_h makes it B_h C_h. The route from forms to E0 is
their composite

    P_E0 P_E = P_E0 (1 - d d0^{-1})

(``core_part``): d0^{-1} maps into W, which is orthogonal to E0 ⊂ ker d0,
so P_E0 d0^{-1} = 0. Since d P_E = P_E d, the intrinsic differential
d_c = P_E0 ∘ d ∘ P_E ∘ P_E0 is ``rumin_d`` = P_E0 P_E ∘ d ∘ P_E0.

Because d_c is left-invariant and homogeneous, it is a matrix of constant
coefficient operators in the enveloping algebra once forms are written in the
E0 bases. ``rumin_d_matrix`` composes that matrix directly. d on Lambda^h is
d0 plus D1_h, the matrix of frame fields W_i, and d0 drops out at both ends:
E0 ⊂ ker d0 gives d0 B_h = 0, and E0 ⟂ im d0 gives C_{h+1} d0 = 0. With
d0^{-1} vanishing on E0 the formula above becomes

    d_c = C_{h+1} . D1_h . (B_h - d0^{-1} D1_h B_h)

The projector P_E0 drops out too, because C_{h+1} P_E0 = C_{h+1} B_{h+1}
C_{h+1} = C_{h+1}. ``rumin_d`` on forms stays an independent route to the
same operator.
"""

from __future__ import annotations

from .envelope import DerivativeTable, EnvOp, integer_terms, sum_of_products
from .exterior_weights import (
    build_spaces,
    covector_coords,
    d0_pseudo_inverse,
    d_table,
    lambda_masks,
)
from .forms import Form, exterior_d, matrix_times_polys
from .polynomials import add_terms, linear_combination


def weight_shift(n: int, h: int) -> int:
    """Order of d_c out of degree h on H^n: 2 across the middle, else 1."""
    return 2 if h == n else 1


class OperatorMatrix:
    """A matrix of enveloping algebra operators between two E0 bases.

    ``entries`` holds one dict per target row i, mapping a source index j to
    the nonzero operator from source j to target i; an absent j is a zero
    entry, and no entry stores a zero operator, so ``==`` and ``is_zero``
    read the dicts directly. The shape is carried explicitly so that empty
    matrices (degrees off the end of the complex) still compose with the
    right dimensions; it is all that composition checks, and the matrix
    carries no degree labels.
    """

    def __init__(self, n: int, entries: list, shape: tuple):
        self.n = n
        self.entries = entries
        self.shape = shape

    @classmethod
    def zero(cls, n: int, rows: int, cols: int):
        return cls(n, [{} for _ in range(rows)], (rows, cols))

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OperatorMatrix)
            and (self.n, self.shape) == (other.n, other.shape)
            and self.entries == other.entries
        )

    def is_zero(self) -> bool:
        return not any(self.entries)

    def _combine(self, other: "OperatorMatrix", negate: bool) -> "OperatorMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        entries = [
            add_terms(dict(ra), ((j, -b) for j, b in rb.items()) if negate else rb.items())
            for ra, rb in zip(self.entries, other.entries)
        ]
        return OperatorMatrix(self.n, entries, self.shape)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, False)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return self._combine(other, True)

    def compose(self, inner: "OperatorMatrix") -> "OperatorMatrix":
        """self ∘ inner (apply ``inner`` first).

        Each row of self and each column of inner is put over its own common
        denominator, so the products and sums of an entry run on ints. Only
        the (row, column) pairs that share a nonzero index are multiplied,
        and an entry whose products cancel is left out.
        """
        if self.cols != inner.rows:
            raise ValueError("shape mismatch in composition")
        n = self.n
        columns = [[] for _ in range(inner.cols)]
        for j, row in enumerate(inner.entries):
            for k, b in row.items():
                columns[k].append((j, b))
        # each column of inner as integer terms over the column's
        # denominator, filed under their row j
        denominators, by_row = [], [[] for _ in range(inner.rows)]
        for k, column in enumerate(columns):
            d, terms = integer_terms(b for _, b in column)
            denominators.append(d)
            for (j, _), t in zip(column, terms):
                by_row[j].append((k, t))
        entries = []
        for row in self.entries:
            d_row, terms = integer_terms(row.values())
            pairs: dict = {}
            for j, a in zip(row, terms):
                for k, b in by_row[j]:
                    pairs.setdefault(k, []).append((a, b))
            out = {}
            for k, products in pairs.items():
                entry = sum_of_products(n, products, d_row * denominators[k])
                if entry:
                    out[k] = entry
            entries.append(out)
        return OperatorMatrix(n, entries, (self.rows, inner.cols))

    def apply(self, polys: list) -> list:
        """The matrix applied to a column of Polys; each source polynomial
        keeps one ``DerivativeTable``, shared by the rows."""
        if len(polys) != self.cols:
            raise ValueError("coefficient count mismatch")
        tables = [DerivativeTable(self.n, p) for p in polys]
        nv = 2 * self.n + 1
        return [linear_combination(nv, ((1, e.act(tables[j])) for j, e in row.items()))
                for row in self.entries]

    def adjoint(self, gram_src: list, gram_dst: list) -> "OperatorMatrix":
        """Formal L2 adjoint with respect to diagonal Gram matrices.

        gram_src / gram_dst are the squared norms of the source/target bases.
        """
        entries = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for j, e in row.items():
                entries[j][i] = e.adjoint().scale(gram_dst[i] / gram_src[j])
        return OperatorMatrix(self.n, entries, (self.cols, self.rows))


class RuminContext:
    """Exact cached data for (E0, d_c) on H^n."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.top = 2 * n + 1
        self.masks = [lambda_masks(n, h) for h in range(self.top + 1)]
        self.cores = [build_spaces(n, h) for h in range(self.top + 1)]
        # d0^{-1}, B_h (the E0 basis as columns), C_h = N_h^{-1} B_h^T and
        # P_E0 = B_h C_h, each kept as rows {column: entry} of its nonzero
        # entries; B_h and C_h are the one E0 coordinate system, read by
        # every map into and out of E0
        self.d0_pinv = [None] + [d0_pseudo_inverse(n, h) for h in range(self.top)]
        self._embed, self._coords = [], []
        for h in range(self.top + 1):
            core = self.cores[h]
            rows = [covector_coords(b, self.masks[h]) for b in core.basis]
            self._embed.append([{j: c for j, c in enumerate(col) if c} for col in zip(*rows)])
            self._coords.append(
                [{j: c / n2 for j, c in enumerate(row) if c} for row, n2 in zip(rows, core.norms2)]
            )
        self._p_e0 = [
            [add_terms({}, ((k, b * c) for j, b in row.items() for k, c in coords[j].items()))
             for row in embed]
            for embed, coords in zip(self._embed, self._coords)
        ]
        # d_c, delta_c, d_c delta_c and delta_c d_c, keyed by (operator, degree)
        self._operators: dict = {}

    # -- exact matrix data -------------------------------------------------

    def _check_degree(self, h: int, top: int) -> None:
        if not 0 <= h <= top:
            raise ValueError("degree out of range")

    def gram(self, h: int) -> list:
        """Squared norms of the E0^h basis; empty one past the top degree,
        where ``rumin_delta_matrix(top)`` reads it."""
        self._check_degree(h, self.top + 1)
        return self.cores[h].norms2 if h <= self.top else []

    def core_dims(self) -> list:
        return [self.cores[h].dim for h in range(self.top + 1)]

    # -- form-level operators -----------------------------------------------

    def _by_degree(self, form: Form, maps: list, shift: int) -> Form:
        """``maps[k]`` (rows of nonzero entries, None for zero) applied to
        the degree-k part of a left-frame form, written in degree k + shift."""
        if form.frame != "left":
            raise ValueError("E0 and d0 act on forms in the left-invariant frame")
        coeffs = {}
        for k in sorted(form.degrees()):
            if maps[k] is not None:
                src = [form.coeffs.get(m) for m in self.masks[k]]
                image = matrix_times_polys(maps[k], src, 2 * self.n + 1)
                coeffs.update(zip(self.masks[k + shift], image))
        return Form(self.n, "left", coeffs)

    def d0_inverse(self, form: Form) -> Form:
        """d0^{-1}, degree by degree; zero on functions."""
        return self._by_degree(form, self.d0_pinv, -1)

    def project_core(self, form: Form) -> Form:
        """Orthogonal projection onto E0, degree by degree."""
        return self._by_degree(form, self._p_e0, 0)

    def core_part(self, form: Form) -> Form:
        """P_E0 P_E form, as P_E0(form - d d0^{-1} form): P_E0 d0^{-1} = 0."""
        return self.project_core(form - exterior_d(self.d0_inverse(form)))

    def rumin_d(self, form: Form) -> Form:
        """d_c = P_E0 P_E d on omega = P_E0 form, since d P_E = P_E d."""
        return self.core_part(exterior_d(self.project_core(form)))

    def form_from_core(self, h: int, polys: list) -> Form:
        self._check_degree(h, self.top)
        if len(polys) != self.cores[h].dim:
            raise ValueError("coefficient count mismatch")
        image = matrix_times_polys(self._embed[h], polys, 2 * self.n + 1)
        return Form(self.n, "left", dict(zip(self.masks[h], image)))

    # -- the d_c matrix ------------------------------------------------------

    def _constant(self, rows: list, cols: int) -> OperatorMatrix:
        """A Fraction matrix, as rows of its nonzero entries, as an operator
        matrix of scalar operators."""
        one = EnvOp.one(self.n)
        entries = [{j: one.scale(c) for j, c in row.items()} for row in rows]
        return OperatorMatrix(self.n, entries, (len(rows), cols))

    def _d_operator(self, h: int) -> OperatorMatrix:
        """D1_h: the frame-field part of d from Lambda^h to Lambda^{h+1}.

        d(f omega_I) = sum_i (W_i f) omega_i ^ omega_I + f d0(omega_I); D1_h
        holds the first sum, read off the steps of ``d_table``.
        """
        masks, targets = self.masks[h], self.masks[h + 1]
        row_of = {m: r for r, m in enumerate(targets)}
        entries = [{} for _ in targets]
        table = d_table(self.n)
        for col, mask in enumerate(masks):
            for i, target, sign in table[mask].steps:
                entries[row_of[target]][col] = EnvOp.generator(self.n, i).scale(sign)
        return OperatorMatrix(self.n, entries, (len(targets), len(masks)))

    def _keep(self, key: tuple, build) -> OperatorMatrix:
        """The operator under ``key``, built by ``build()`` on first use."""
        if key not in self._operators:
            self._operators[key] = build()
        return self._operators[key]

    def rumin_d_matrix(self, h: int) -> OperatorMatrix:
        """The matrix of d_c: E0^h -> E0^{h+1}."""
        self._check_degree(h, self.top)
        return self._keep(("d_c", h), lambda: self._build_d_matrix(h))

    def _build_d_matrix(self, h: int) -> OperatorMatrix:
        """d_c out of degree h as C_{h+1} D1_h (B_h - d0^{-1} D1_h B_h).

        d0 B_h = 0 and C_{h+1} d0 = 0 (E0 lies in ker d0 and is orthogonal
        to im d0), so of d = d0 + D1_h only the frame-field part D1_h enters.
        """
        if h == self.top:
            return OperatorMatrix.zero(self.n, 0, self.cores[h].dim)
        embed = self._constant(self._embed[h], self.cores[h].dim)
        coords = self._constant(self._coords[h + 1], len(self.masks[h + 1]))
        d1 = self._d_operator(h)
        d0_inv = self._constant(self.d0_pinv[h + 1], len(self.masks[h + 1]))
        # P_E on E0, where d0^{-1} vanishes and d = D1_h, is 1 - d0^{-1} D1_h
        rumin = embed - d0_inv.compose(d1.compose(embed))
        return coords.compose(d1.compose(rumin))

    def rumin_delta_matrix(self, h: int) -> OperatorMatrix:
        """delta_c: E0^{h+1} -> E0^h, the formal L2 adjoint of d_c."""
        return self._keep(("delta_c", h), lambda: self.rumin_d_matrix(h).adjoint(
            self.gram(h), self.gram(h + 1)))

    def rumin_d_delta(self, h: int) -> OperatorMatrix:
        """d_c delta_c on E0^h, for 1 <= h <= top."""
        return self._keep(("d_c delta_c", h), lambda: self.rumin_d_matrix(h - 1).compose(
            self.rumin_delta_matrix(h - 1)))

    def rumin_delta_d(self, h: int) -> OperatorMatrix:
        """delta_c d_c on E0^h, for 0 <= h <= top."""
        return self._keep(("delta_c d_c", h), lambda: self.rumin_delta_matrix(h).compose(
            self.rumin_d_matrix(h)))

    def rumin_laplacian(self, h: int) -> OperatorMatrix:
        """The degree-h intrinsic Laplacian, homogeneous of order 2 or 4.

        Away from the middle degrees this is d_c delta_c + delta_c d_c; the
        term whose d_c crosses the middle (order 2) is squared so both terms
        have matching homogeneity. At the two ends of the complex only the
        term that stays inside it is present.
        """
        self._check_degree(h, self.top)
        lap = None
        if h > 0:
            lower = self.rumin_d_delta(h)
            lap = lower.compose(lower) if h == self.n else lower
        if h < self.top:
            upper = self.rumin_delta_d(h)
            upper = upper.compose(upper) if h == self.n + 1 else upper
            lap = upper if lap is None else lap + upper
        return lap


def term_difference(got: EnvOp, expected: EnvOp) -> dict:
    """The first PBW exponent, in sorted order, whose coefficients in two
    different operators differ, with both coefficients as strings."""
    a, b = got.terms, expected.terms
    exp = min(e for e in a.keys() | b.keys() if a.get(e, 0) != b.get(e, 0))
    return {"exponent": list(exp), "got": str(a.get(exp, 0)), "expected": str(b.get(exp, 0))}


def first_difference(got: OperatorMatrix, expected: OperatorMatrix) -> dict | None:
    """Where two operator matrices first differ, or None when their entries
    agree: the first (row, column) in row-major order whose entries differ,
    with the ``term_difference`` of those entries. Matrices of different
    shapes differ in their shapes."""
    if got.shape != expected.shape:
        return {"shapes": [list(got.shape), list(expected.shape)]}
    zero = EnvOp.zero(got.n)
    for r, (a, b) in enumerate(zip(got.entries, expected.entries)):
        for col in sorted(a.keys() | b.keys()):
            x, y = a.get(col, zero), b.get(col, zero)
            if x != y:
                return {"row": r, "column": col, **term_difference(x, y)}
    return None


def laplacian_commutation_report(ctx: RuminContext) -> dict:
    """Exact commutation between d_c, delta_c and the intrinsic Laplacians.

    Away from the degrees where the order of d_c jumps, the naive identities
    d_c Delta_h = Delta_{h+1} d_c and delta_c Delta_h = Delta_{h-1} delta_c
    hold as matrix identities. Crossing the jump they cannot (the two sides
    have different homogeneity); the exact substitutes, consequences of
    d_c^2 = 0, carry the crossing factor cubed on one side. Each identity
    holds when its two sides are equal entry by entry; entries are
    normalized, so equal operators have equal terms. A failed identity
    carries the ``first_difference`` of its two sides as its witness.
    """
    n = ctx.n
    top = 2 * n + 1
    checks = []
    lap = [ctx.rumin_laplacian(h) for h in range(top + 1)]

    def check(identity: str, lhs: OperatorMatrix, rhs: OperatorMatrix) -> None:
        row = {"identity": identity, "exact_zero": lhs == rhs}
        if not row["exact_zero"]:
            row["witness"] = first_difference(lhs, rhs)
        checks.append(row)

    for h in range(top):
        if h in (n - 1, n + 1):
            continue
        d = ctx.rumin_d_matrix(h)
        check(f"d_c Delta_{h} = Delta_{h + 1} d_c", d.compose(lap[h]), lap[h + 1].compose(d))
    for h in range(1, top + 1):
        if h in (n, n + 2):
            continue
        delta = ctx.rumin_delta_matrix(h - 1)
        check(f"delta_c Delta_{h} = Delta_{h - 1} delta_c",
              delta.compose(lap[h]), lap[h - 1].compose(delta))

    # the crossing factors, grouped (d_c delta_c) d_c and (delta_c d_c) delta_c
    d_lo = ctx.rumin_d_matrix(n - 1)
    delta_lo = ctx.rumin_delta_matrix(n - 1)
    cross_d_lo = ctx.rumin_d_delta(n).compose(d_lo)
    cross_delta_lo = ctx.rumin_delta_d(n - 1).compose(delta_lo)
    d_hi = ctx.rumin_d_matrix(n + 1)
    delta_hi = ctx.rumin_delta_matrix(n + 1)
    cross_d_hi = ctx.rumin_d_delta(n + 2).compose(d_hi)
    cross_delta_hi = ctx.rumin_delta_d(n + 1).compose(delta_hi)
    check(f"Delta_{n} d_c = (d_c delta_c d_c) Delta_{n - 1}",
          lap[n].compose(d_lo), cross_d_lo.compose(lap[n - 1]))
    check(f"d_c Delta_{n + 1} = Delta_{n + 2} (d_c delta_c d_c)",
          d_hi.compose(lap[n + 1]), lap[n + 2].compose(cross_d_hi))
    check(f"delta_c Delta_{n} = Delta_{n - 1} (delta_c d_c delta_c)",
          delta_lo.compose(lap[n]), lap[n - 1].compose(cross_delta_lo))
    check(f"Delta_{n + 1} delta_c = (delta_c d_c delta_c) Delta_{n + 2}",
          lap[n + 1].compose(delta_hi), cross_delta_hi.compose(lap[n + 2]))
    return {
        "n": n,
        "checks": checks,
        "ok": all(c["exact_zero"] for c in checks),
    }


def entry_audit(ctx: RuminContext, h: int) -> dict:
    """Every d_c entry out of degree h is homogeneous of weight
    s = ``weight_shift(n, h)``.

    The rest of the entries' structure follows from this. T has weight 2, so
    an entry of weight 1 has no T. Words of length <= s span exactly the
    monomials of homogeneity <= s (T = X_1 Y_1 - Y_1 X_1), so every entry is
    a combination of horizontal words, and its commutator with a
    multiplication by zeta applies no T to zeta. The commutator [a, zeta]
    has order at most (the largest PBW order of a) - 1, attained for generic
    zeta. ``max_order`` is that largest order, sum(exp) over the monomials of
    every entry, None when there is no entry. A failed audit names a
    witness: the first entry in row-major order, and its first exponent in
    sorted order, whose homogeneity is not s.
    """
    mat = ctx.rumin_d_matrix(h)
    shift = weight_shift(ctx.n, h)
    report = {
        "expected_weight": shift,
        "nonzero_entries": sum(map(len, mat.entries)),
        "max_order": max((sum(exp) for row in mat.entries for e in row.values()
                          for exp in e.nums), default=None),
    }
    for r, row in enumerate(mat.entries):
        for col in sorted(row):
            e = row[col]
            if e.homogeneous_degree() != shift:
                exp = min(x for x in e.nums if e.homogeneity(x) != shift)
                return {**report, "homogeneous": False, "witness": {
                    "degree": h, "row": r, "column": col,
                    "exponent": list(exp), "homogeneity": e.homogeneity(exp)}}
    return {**report, "homogeneous": True}
