import random
import time
from fractions import Fraction
from math import gcd

import pytest

from conftest import (
    apply_poly_diff_op,
    commutator_audit,
    commutator_with_multiplication,
    d0_matrix,
    d_field_by_field,
    dense,
    dense_pseudo_inverse,
    dense_spaces,
    entry_structure,
    mul_poly,
    operator_order,
    project_rumin,
    random_form,
    random_poly,
    random_section,
    shared_context,
)
from rumincalc.envelope import EnvOp
from rumincalc.exterior_weights import covector_coords, d0_pseudo_inverse
from rumincalc.forms import Form, exterior_d, to_coordinate_frame, to_left_frame
from rumincalc.linalg import matmul
from rumincalc.polynomials import Poly
from rumincalc.rumin_complex import (
    OperatorMatrix,
    RuminContext,
    entry_audit,
    first_difference,
    laplacian_commutation_report,
    weight_shift,
)


def core_coefficients(ctx, form, h) -> list:
    """Coefficients of a form in the E0^h basis, from the basis vectors and
    their squared norms; a form off E0 raises ValueError."""
    core, masks = ctx.cores[h], ctx.masks[h]
    polys = []
    for b, norm2 in zip(core.basis, core.norms2):
        acc = Poly.zero(2 * ctx.n + 1)
        for c, m in zip(covector_coords(b, masks), masks):
            if c and m in form.coeffs:
                acc = acc + form.coeffs[m] * (c / norm2)
        polys.append(acc)
    if ctx.form_from_core(h, polys) != form:
        raise ValueError("form is not a section of E0")
    return polys


def _X(n, i):
    return EnvOp.generator(n, i)


def _Y(n, i):
    return EnvOp.generator(n, n + i)


def _T(n):
    return EnvOp.generator(n, 2 * n)


def test_recovered_matrices_n1(ctx1):
    X, Y, T = _X(1, 0), _Y(1, 0), _T(1)
    m0 = ctx1.rumin_d_matrix(0)
    assert m0.entries == [{0: X}, {0: Y}]
    m1 = ctx1.rumin_d_matrix(1)
    assert m1.entries == [
        {0: -(T + X * Y), 1: X * X},
        {0: -(Y * Y), 1: X * Y - T.scale(2)},
    ]
    m2 = ctx1.rumin_d_matrix(2)
    assert m2.entries == [{0: Y.scale(-1), 1: X}]
    # top degree maps to nothing
    assert ctx1.rumin_d_matrix(3).is_zero()


def test_degree_zero_d_is_the_horizontal_gradient(ctx1, ctx2):
    for ctx in (ctx1, ctx2):
        n = ctx.n
        nv = 2 * n + 1
        f = Poly.var(nv, 0) * Poly.var(nv, nv - 1) + Poly.var(nv, n) ** 2
        df = ctx.rumin_d(Form.from_function(n, f))
        expected = Form.zero(n)
        for i in range(2 * n):
            from rumincalc.envelope import derive

            expected = expected + Form.monomial(n, 1 << i, derive(n, i, f))
        assert df == expected


def test_dc_squares_to_zero_on_matrices(ctx1, ctx2):
    for ctx in (ctx1, ctx2):
        for h in range(2 * ctx.n + 1):
            comp = ctx.rumin_d_matrix(h + 1).compose(ctx.rumin_d_matrix(h))
            assert comp.is_zero()


_COEFFICIENTS = tuple(Fraction(c) for c in ("1/2", "1/3", "7/12", "-5/6", "3", "-1/4", "9/8"))


def _random_operator_matrix(rng, n, rows, cols, support=lambda i, j: True):
    """Entries of one to three PBW terms with mixed denominators, absent where
    ``support`` says so and at random elsewhere."""
    entries = []
    for i in range(rows):
        row = {}
        for j in range(cols):
            if not support(i, j) or rng.random() < 0.25:
                continue
            row[j] = EnvOp(n, {
                tuple(rng.choice((0, 0, 1, 2)) for _ in range(2 * n + 1)):
                    rng.choice(_COEFFICIENTS) * rng.randrange(1, 4)
                for _ in range(rng.randrange(1, 4))
            })
        entries.append(row)
    return OperatorMatrix(n, 0, 0, entries, (rows, cols))


def test_compose_matches_applying_the_factors_in_turn():
    # the oracle applies each factor through act, that is through derive,
    # and never multiplies PBW monomials
    rng = random.Random(17)
    for n in (1, 2):
        nv = 2 * n + 1
        cases = [
            # all-zero rows and columns on both sides: row 1 and column 0 of
            # the outer factor, row 3 and column 2 of the inner one
            (_random_operator_matrix(rng, n, 3, 4, lambda i, j: i != 1 and j != 0),
             _random_operator_matrix(rng, n, 4, 3, lambda j, k: j != 3 and k != 2)),
            # disjoint support: outer rows 0 and 2 read only j < 2, inner
            # columns 0 and 1 only j >= 2
            (_random_operator_matrix(rng, n, 3, 4, lambda i, j: i == 1 or j < 2),
             _random_operator_matrix(rng, n, 4, 3, lambda j, k: k == 2 or j >= 2)),
            # 0-row, 0-column and 0-inner shapes
            (_random_operator_matrix(rng, n, 0, 4), _random_operator_matrix(rng, n, 4, 2)),
            (_random_operator_matrix(rng, n, 2, 4), _random_operator_matrix(rng, n, 4, 0)),
            (_random_operator_matrix(rng, n, 2, 0), _random_operator_matrix(rng, n, 0, 3)),
        ]
        for outer, inner in cases:
            product = outer.compose(inner)
            assert product.shape == (outer.rows, inner.cols)
            assert len(product.entries) == outer.rows
            assert all(0 <= k < inner.cols for row in product.entries for k in row)
            for i, row in enumerate(outer.entries):
                for k in range(inner.cols):
                    if not any(k in inner.entries[j] for j in row):
                        assert k not in product.entries[i]
            for _ in range(3):
                polys = [random_poly(rng, nv, 8, terms=4) for _ in range(inner.cols)]
                assert product.apply(polys) == outer.apply(inner.apply(polys))
        # the disjoint case really has absent entries, and the others do not
        outer, inner = cases[1]
        product = outer.compose(inner)
        assert 0 not in product.entries[0] and 1 not in product.entries[2]
        assert not product.is_zero()


def _assert_stores_no_zero(m):
    """One dict per row, keyed by columns in range, holding only nonzero
    operators, each stored reduced; ``is_zero`` agrees with every row being
    empty."""
    assert len(m.entries) == m.rows
    assert all(isinstance(row, dict) for row in m.entries)
    assert all(0 <= j < m.cols for row in m.entries for j in row)
    assert all(e for row in m.entries for e in row.values())
    for row in m.entries:
        for e in row.values():
            assert type(e) is EnvOp and e.n == m.n
            assert all(type(v) is int and v for v in e.nums.values())
            assert type(e.den) is int and e.den > 0 and gcd(e.den, *e.nums.values()) == 1
    assert m.is_zero() == all(not row for row in m.entries)


def test_operator_matrices_store_no_zero_entry():
    for n in (1, 2, 3, 4):
        ctx = shared_context(n)
        for h in range(ctx.top + 1):
            d = ctx.rumin_d_matrix(h)
            _assert_stores_no_zero(d)
            _assert_stores_no_zero(ctx.rumin_delta_matrix(h))
            if h < ctx.top:
                # d_c^2 = 0 leaves every row of the product empty
                square = ctx.rumin_d_matrix(h + 1).compose(d)
                _assert_stores_no_zero(square)
                assert square.is_zero() and all(row == {} for row in square.entries)
            if n <= 3:
                _assert_stores_no_zero(ctx.rumin_laplacian(h))
    rng = random.Random(23)
    for n in (1, 2):
        for rows, cols in ((3, 4), (4, 3), (0, 2), (2, 0)):
            m = _random_operator_matrix(rng, n, rows, cols)
            other = _random_operator_matrix(rng, n, rows, cols)
            difference = m - m
            _assert_stores_no_zero(difference)
            assert difference.is_zero() and all(row == {} for row in difference.entries)
            double = m + m
            _assert_stores_no_zero(double)
            assert double.entries == [{j: e.scale(2) for j, e in row.items()} for row in m.entries]
            # cancellation inside a sum leaves no zero behind
            for total in (m + other, (m + other) - other, other - (m + other)):
                _assert_stores_no_zero(total)
            assert (m + other) - other == m
    # the shape is never inferred from the entries
    with pytest.raises(TypeError):
        OperatorMatrix(1, 0, 0, [{}])


def test_dc_squares_to_zero_on_random_sections(ctx1):
    rng = random.Random(0)
    for h in range(4):
        for _ in range(5):
            omega = random_section(rng, ctx1, h, 3)
            assert not ctx1.rumin_d(ctx1.rumin_d(omega))


def test_dc_matrix_matches_the_form_pipeline(ctx1, ctx2):
    # rumin_d on forms is an independent route to d_c; compare them on
    # sections of higher degree than any test monomial the matrix was read off
    rng = random.Random(6)
    for ctx in (ctx1, ctx2, shared_context(3)):
        for h in range(2 * ctx.n + 1):
            mat = ctx.rumin_d_matrix(h)
            nonzero = 0
            for degree in (3, 4):
                for _ in range(2):
                    coeffs = [
                        random_poly(rng, 2 * ctx.n + 1, degree, terms=2)
                        for _ in range(ctx.cores[h].dim)
                    ]
                    image = ctx.rumin_d(ctx.form_from_core(h, coeffs))
                    assert ctx.form_from_core(h + 1, mat.apply(coeffs)) == image
                    nonzero += bool(image)
            assert nonzero


def test_rumin_d_equals_the_full_projector_composition(ctx1, ctx2):
    # rumin_d reaches E0 through core_part; the composition through the
    # oracle P_E (with both d0^{-1} terms) checks it
    rng = random.Random(9)
    for ctx in (ctx1, ctx2, shared_context(3)):
        for h in range(2 * ctx.n + 2):
            for omega in (
                random_section(rng, ctx, h, 3),
                random_form(rng, ctx.n, h, 3, frame="left"),
            ):
                composed = ctx.project_core(
                    exterior_d(project_rumin(ctx, ctx.project_core(omega)))
                )
                assert ctx.rumin_d(omega) == composed


def test_rumin_projector_identities(ctx1, ctx2):
    # Rumin's identities for P_E (the oracle) and P_E0: P_E is a projector
    # that commutes with d, P_E and P_E0 are inverse isomorphisms between E
    # and E0, and P_E0 P_E is core_part, P_E0 (1 - d d0^{-1})
    rng = random.Random(11)
    for ctx in (ctx1, ctx2, shared_context(3)):
        p_e0 = ctx.project_core
        for h in range(2 * ctx.n + 2):
            for _ in range(2):
                omega = random_form(rng, ctx.n, h, 3, frame="left")
                e = project_rumin(ctx, omega)
                core = p_e0(omega)
                assert e and core
                assert project_rumin(ctx, e) == e
                assert exterior_d(e) == project_rumin(ctx, exterior_d(omega))
                assert project_rumin(ctx, p_e0(e)) == e
                assert p_e0(project_rumin(ctx, core)) == core
                assert p_e0(e) == ctx.core_part(omega)


def test_entries_are_homogeneous_t_free_and_horizontal(ctx1, ctx2):
    for ctx in (ctx1, ctx2):
        for h in range(2 * ctx.n + 1):
            report = entry_audit(ctx, h)
            structure = entry_structure(ctx, h)
            assert report["homogeneous"], report
            assert report["expected_weight"] == weight_shift(ctx.n, h)
            assert "witness" not in report
            assert structure["order_one_t_free"]
            assert structure["horizontally_representable"]


def test_delta_is_the_gram_adjoint(ctx1, ctx2):
    d0 = ctx1.rumin_d_matrix(0)
    delta0 = ctx1.rumin_delta_matrix(0)
    X, Y = _X(1, 0), _Y(1, 0)
    # X and Y are skew-adjoint, so the adjoint column flips sign
    assert delta0.entries == [{0: X.scale(-1), 1: Y.scale(-1)}]
    # adjoint twice returns the original
    again = delta0.adjoint(ctx1.gram(1), ctx1.gram(0))
    assert again == d0
    # out of the top degree d_c is 0 x dim and delta_c the dim x 0 zero matrix
    top = ctx1.top
    dim = ctx1.cores[top].dim
    assert ctx1.rumin_d_matrix(top).shape == (0, dim)
    delta_top = ctx1.rumin_delta_matrix(top)
    assert delta_top.shape == (dim, 0)
    assert delta_top.is_zero()
    # in every degree the shapes and degrees follow the E0 dimensions
    for ctx in (ctx1, ctx2):
        dims = ctx.core_dims() + [0]
        for h in range(ctx.top + 1):
            d, delta = ctx.rumin_d_matrix(h), ctx.rumin_delta_matrix(h)
            assert (d.src_degree, d.dst_degree, d.shape) == (h, h + 1, (dims[h + 1], dims[h]))
            assert (delta.src_degree, delta.dst_degree, delta.shape) == (
                h + 1, h, (dims[h], dims[h + 1]))
    # the shape takes part in equality
    assert OperatorMatrix.zero(1, 3, 4, 0, 1) != OperatorMatrix.zero(1, 3, 4, 0, 0)


def test_degree_zero_laplacian_is_sum_of_squares(ctx1, ctx2):
    for ctx in (ctx1, ctx2):
        n = ctx.n
        lap = ctx.rumin_laplacian(0)
        total = EnvOp.zero(n)
        for i in range(2 * n):
            g = EnvOp.generator(n, i)
            total = total + g * g
        assert lap.entries[0][0].scale(Fraction(-1)) == total


def test_laplacian_orders_and_self_adjointness(ctx1, ctx2):
    for ctx in (ctx1, ctx2):
        n = ctx.n
        for h in range(2 * n + 2):
            lap = ctx.rumin_laplacian(h)
            # order 4 where the Laplacian squares the term crossing the middle
            order = 4 if h in (n, n + 1) else 2
            for i in range(lap.rows):
                entry = lap.entries[i][i]
                assert entry
                assert operator_order(entry) == order
                assert entry.homogeneous_degree() == order
            gram = ctx.gram(h)
            assert lap.adjoint(gram, gram) == lap
        for h in (-1, 2 * n + 2):
            with pytest.raises(ValueError, match="degree out of range"):
                ctx.rumin_laplacian(h)


def test_laplacian_commutation_identities(ctx1, ctx2):
    for ctx, expected_count in ((ctx1, 6), (ctx2, 10)):
        report = laplacian_commutation_report(ctx)
        assert report["ok"], report
        assert len(report["checks"]) == expected_count
        assert all(c["exact_zero"] for c in report["checks"])


def test_laplacians_and_their_commutation_build_fewer_than_100_fractions(monkeypatch):
    # operators keep int numerators over one denominator, so composing and
    # comparing the n = 2 operator matrices builds no Fraction per term
    ctx = RuminContext(2)
    for h in range(ctx.top + 1):
        ctx.rumin_d_matrix(h)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    laps = [ctx.rumin_laplacian(h) for h in range(ctx.top + 1)]
    report = laplacian_commutation_report(ctx)
    monkeypatch.undo()
    assert report["ok"] and all(not lap.is_zero() for lap in laps)
    assert len(built) < 100, len(built)


def test_commutator_audit_random(ctx1):
    rng = random.Random(1)
    for ctx, trials in ((ctx1, 5), (shared_context(3), 2)):
        for h in range(2 * ctx.n + 2):
            for _ in range(trials):
                zeta = random_poly(rng, 2 * ctx.n + 1, 3)
                report = commutator_audit(ctx, h, zeta)
                assert report["ok"], report
                assert report["order_bound"] == weight_shift(ctx.n, h) - 1
                if report["max_order"] is not None:
                    assert report["max_order"] <= report["order_bound"]
                assert report["t_zeta_free"]


def test_commutator_audit_fails_on_a_planted_t(ctx1):
    rng = random.Random(7)
    for h in (0, 2):
        zeta = random_poly(rng, 3, 3)
        while not zeta.partial(2):
            zeta = random_poly(rng, 3, 3)
        # a context of its own: the fault goes into its cached d_c matrix
        ctx = RuminContext(1)
        assert commutator_audit(ctx, h, zeta)["ok"]
        assert entry_audit(ctx, h)["homogeneous"]
        row = ctx.rumin_d_matrix(h).entries[0]
        j = next(iter(row))
        assert operator_order(row[j]) == 1
        row[j] = row[j] + _T(1)
        report = commutator_audit(ctx, h, zeta)
        assert not report["ok"]
        assert not report["t_zeta_free"]
        # the exact audit fails too, and names the planted T
        audit = entry_audit(ctx, h)
        assert not audit["homogeneous"]
        assert audit["witness"] == {"degree": h, "row": 0, "column": j,
                                    "exponent": [0, 0, 1], "homogeneity": 2}
        # the unplanted context passes with the same zeta
        assert commutator_audit(ctx1, h, zeta)["ok"]


def test_context_builds_delta_and_the_products_once(ctx1, ctx2):
    for ctx in (ctx1, ctx2, shared_context(3)):
        for h in range(ctx.top + 1):
            d = ctx.rumin_d_matrix(h)
            delta = ctx.rumin_delta_matrix(h)
            assert ctx.rumin_delta_matrix(h) is delta
            fresh = d.adjoint(ctx.gram(h), ctx.gram(h + 1))
            assert fresh is not delta and fresh == delta
            delta_d = ctx.rumin_delta_d(h)
            assert ctx.rumin_delta_d(h) is delta_d
            assert delta_d == fresh.compose(d)
            if h > 0:
                below = ctx.rumin_d_matrix(h - 1)
                d_delta = ctx.rumin_d_delta(h)
                assert ctx.rumin_d_delta(h) is d_delta
                assert d_delta == below.compose(below.adjoint(ctx.gram(h - 1), ctx.gram(h)))
        with pytest.raises(ValueError, match="degree out of range"):
            ctx.rumin_d_delta(0)


def test_commutator_matches_form_level_leibniz(ctx1):
    rng = random.Random(2)
    h = 1
    d = ctx1.rumin_d_matrix(h)
    for _ in range(5):
        zeta = random_poly(rng, 3, 2)
        polys = [random_poly(rng, 3, 2) for _ in range(ctx1.cores[h].dim)]
        omega = ctx1.form_from_core(h, polys)
        lhs = ctx1.rumin_d(mul_poly(omega, zeta)) - mul_poly(ctx1.rumin_d(omega), zeta)
        coeffs = []
        for i in range(d.rows):
            acc = Poly.zero(3)
            for j, u in enumerate(polys):
                commutator = commutator_with_multiplication(d.entries[i][j], zeta)
                acc = acc + apply_poly_diff_op(commutator, u)
            coeffs.append(acc)
        assert core_coefficients(ctx1, lhs, h + 1) == coeffs


def test_core_coefficients_roundtrip_and_rejection(ctx1):
    rng = random.Random(3)
    polys = [random_poly(rng, 3, 2), random_poly(rng, 3, 2)]
    omega = ctx1.form_from_core(1, polys)
    assert core_coefficients(ctx1, omega, 1) == polys
    # theta alone is not in E0^1
    bad = Form.monomial(1, 1 << 2, Poly.const(3, 1))
    with pytest.raises(ValueError, match="not a section of E0"):
        core_coefficients(ctx1, bad, 1)


def test_rumin_d_requires_left_frame(ctx1):
    dt = Form.monomial(1, 1 << 2, Poly.const(3, 1), frame="coord")
    for omega in (to_coordinate_frame(Form.monomial(1, 1, Poly.var(3, 0))), dt):
        for entry in (ctx1.rumin_d, ctx1.project_core, ctx1.d0_inverse, ctx1.core_part):
            with pytest.raises(ValueError, match="left-invariant frame"):
                entry(omega)
    # dt = theta + (x dy - y dx)/2 in the left frame, and theta is not in E0
    x, y = Poly.var(3, 0), Poly.var(3, 1)
    expected = Form(1, "left", {0b01: y.scale(Fraction(-1, 2)), 0b10: x.scale(Fraction(1, 2))})
    assert ctx1.project_core(to_left_frame(dt)) == expected


def test_core_projector_is_the_d0_projector_and_coordinates_invert_the_basis():
    # the E0 coordinates B_h, C_h give P_E0 = B_h C_h; its defining formula
    # 1 - d0^{-1} d0 - d0 d0^{-1} is the oracle
    def eye(k):
        return [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]

    def minus(a, b):
        return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    for n in (1, 2, 3):
        ctx = shared_context(n)
        for h in range(ctx.top + 1):
            size, dim = len(ctx.masks[h]), ctx.cores[h].dim
            proj = eye(size)
            if h < ctx.top:
                d0_pinv = dense(ctx.d0_pinv[h + 1], len(ctx.masks[h + 1]))
                proj = minus(proj, matmul(d0_pinv, d0_matrix(n, h)))
            if h > 0:
                proj = minus(proj, matmul(d0_matrix(n, h - 1), dense(ctx.d0_pinv[h], size)))
            assert dense(ctx._p_e0[h], size) == proj
            assert matmul(dense(ctx._coords[h], size), dense(ctx._embed[h], dim)) == eye(dim)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_context_keeps_the_constant_maps_as_rows_without_zeros(n):
    # d0^{-1}, B_h, C_h and P_E0 are rows of their nonzero entries; filled
    # back in, they are the dense matrices they replace
    ctx = shared_context(n)
    for h in range(ctx.top + 1):
        size, dim = len(ctx.masks[h]), ctx.cores[h].dim
        basis = [covector_coords(b, ctx.masks[h]) for b in ctx.cores[h].basis]
        embed = [list(col) for col in zip(*basis)]
        coords = [[c / n2 for c in row] for row, n2 in zip(basis, ctx.cores[h].norms2)]
        kept = [(ctx._embed[h], embed, dim), (ctx._coords[h], coords, size),
                (ctx._p_e0[h], matmul(embed, coords), size)]
        if h < ctx.top:
            kept.append((ctx.d0_pinv[h + 1], d0_pseudo_inverse(n, h), len(ctx.masks[h + 1])))
        for rows, want, cols in kept:
            assert all(c != 0 and 0 <= j < cols for row in rows for j, c in row.items())
            assert dense(rows, cols) == want, (n, h)


def test_d0_drops_out_of_the_core_coordinates():
    # d_c = C_{h+1} D1_h (B_h - d0^{-1} D1_h B_h) leaves d0 out because
    # E0 lies in ker d0 (d0 B_h = 0) and is orthogonal to im d0 (C_{h+1} d0 = 0)
    for n in (1, 2, 3, 4):
        ctx = shared_context(n)
        for h in range(ctx.top):
            d0 = d0_matrix(n, h)
            embed = dense(ctx._embed[h], ctx.cores[h].dim)
            coords = dense(ctx._coords[h + 1], len(ctx.masks[h + 1]))
            assert matmul(d0, embed) == [[0] * len(embed[0]) for _ in d0], (n, h)
            assert matmul(coords, d0) == [[0] * len(d0[0]) for _ in coords], (n, h)


def _assert_core_maps_equal_to_dense(n):
    ctx = shared_context(n)
    for h in range(ctx.top):
        d0_pinv = dense(ctx.d0_pinv[h + 1], len(ctx.masks[h + 1]))
        assert d0_pinv == dense_pseudo_inverse(n, h), (n, h)
    for h, (_, _, core) in enumerate(dense_spaces(n)):
        rows = [covector_coords(b, ctx.masks[h]) for b in core.basis]
        embed = [list(col) for col in zip(*rows)]
        coords = [[c / n2 for c in row] for row, n2 in zip(rows, core.norms2)]
        assert dense(ctx._p_e0[h], len(ctx.masks[h])) == matmul(embed, coords), (n, h)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pseudo_inverse_and_core_projector_equal_the_dense_build(n):
    _assert_core_maps_equal_to_dense(n)


def test_pseudo_inverse_and_core_projector_equal_the_dense_build_at_n4():
    start = time.perf_counter()
    _assert_core_maps_equal_to_dense(4)
    elapsed = time.perf_counter() - start
    assert elapsed < 60, elapsed


def test_projectors(ctx1):
    rng = random.Random(4)
    for h in range(4):
        masks = [m for m in range(8) if bin(m).count("1") == h]
        coeffs = {m: random_poly(rng, 3, 2) for m in masks}
        omega = Form(1, "left", coeffs)
        p = ctx1.project_core(omega)
        assert ctx1.project_core(p) == p
        # core sections are fixed points
        core = random_section(rng, ctx1, h, 2)
        assert ctx1.project_core(core) == core


def test_pseudoinverse_homotopy_identity(ctx1):
    # d0 d0^{-1} restricted to the image acts as the identity on d0 of anything
    rng = random.Random(5)
    for _ in range(5):
        masks = [m for m in range(8) if bin(m).count("1") == 1]
        omega = Form(1, "left", {m: random_poly(rng, 3, 2) for m in masks})
        image = d_field_by_field(omega)[0]
        if not image:
            continue
        recovered = d_field_by_field(ctx1.d0_inverse(image))[0]
        assert recovered == image


def test_first_difference_names_the_first_entry_and_exponent():
    # row 0 agrees; row 1 differs in columns 0 and 2, and column 0 differs at
    # the exponents of X_1, (1, 0, 0), and of Y_1 T, (0, 1, 1), which comes
    # first in sorted order
    n = 1
    X, Y, T = (EnvOp.generator(n, g) for g in range(3))
    left = OperatorMatrix(n, 0, 1, [{1: X}, {0: X + Y * T, 2: T}], (2, 3))
    right = OperatorMatrix(n, 0, 1, [{1: X}, {0: (Y * T).scale(2), 2: T.scale(3)}], (2, 3))
    assert first_difference(left, left) is None
    assert first_difference(left, right) == {
        "row": 1, "column": 0, "exponent": [0, 1, 1], "got": "1", "expected": "2"}
    assert first_difference(right, left)["expected"] == "1"
    # an entry missing on one side counts as zero there
    short = OperatorMatrix(n, 0, 1, [{1: X}, {2: T}], (2, 3))
    assert first_difference(left, short) == {
        "row": 1, "column": 0, "exponent": [0, 1, 1], "got": "1", "expected": "0"}
    wide = OperatorMatrix.zero(n, 0, 1, 2, 4)
    assert first_difference(left, wide) == {"shapes": [[2, 3], [2, 4]]}
