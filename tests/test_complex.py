import random
from fractions import Fraction

import pytest

from conftest import random_core_form, random_form, random_poly, shared_context
from rumincalc.envelope import EnvOp, commutator_with_multiplication
from rumincalc.forms import Form, exterior_d, to_coordinate_frame, to_left_frame
from rumincalc.linalg import matmul
from rumincalc.polynomials import Poly
from rumincalc.rumin_complex import (
    OperatorMatrix,
    RuminContext,
    commutator_audit,
    horizontal_representability_report,
    laplacian_commutation_report,
)


def _X(n, i):
    return EnvOp.generator(n, i)


def _Y(n, i):
    return EnvOp.generator(n, n + i)


def _T(n):
    return EnvOp.generator(n, 2 * n)


def test_recovered_matrices_n1(ctx1):
    X, Y, T = _X(1, 0), _Y(1, 0), _T(1)
    m0 = ctx1.rumin_d_matrix(0)
    assert m0.entries == [[X], [Y]]
    m1 = ctx1.rumin_d_matrix(1)
    assert m1.entries == [
        [-(T + X * Y), X * X],
        [-(Y * Y), X * Y - T.scale(2)],
    ]
    m2 = ctx1.rumin_d_matrix(2)
    assert m2.entries == [[Y.scale(-1), X]]
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


def test_dc_squares_to_zero_on_random_sections(ctx1):
    rng = random.Random(0)
    for h in range(4):
        for _ in range(5):
            omega = random_core_form(rng, ctx1, h, 3)
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
                        for _ in range(ctx.core(h).dim)
                    ]
                    image = ctx.rumin_d(ctx.form_from_core(h, coeffs))
                    assert ctx.form_from_core(h + 1, mat.apply(coeffs)) == image
                    nonzero += bool(image)
            assert nonzero


def test_rumin_d_equals_the_full_projector_composition(ctx1, ctx2):
    # rumin_d reuses d omega for P_E; the composition through project_rumin
    # (P_E with both d0^{-1} terms) is its oracle
    rng = random.Random(9)
    for ctx in (ctx1, ctx2, shared_context(3)):
        for h in range(2 * ctx.n + 2):
            for omega in (
                random_core_form(rng, ctx, h, 3),
                random_form(rng, ctx.n, h, 3, frame="left"),
            ):
                composed = ctx.project_core(
                    exterior_d(ctx.project_rumin(ctx.project_core(omega)))
                )
                assert ctx.rumin_d(omega) == composed


def test_entries_are_homogeneous_t_free_and_horizontal(ctx1, ctx2):
    for ctx in (ctx1, ctx2):
        for h in range(2 * ctx.n + 1):
            report = horizontal_representability_report(ctx, h)
            assert report["ok"], report
            assert report["expected_weight"] == ctx.weight_shift(h)
            assert report["homogeneous"]
            assert report["order_one_t_free"]
            assert report["horizontally_representable"]


def test_delta_is_the_gram_adjoint(ctx1):
    d0 = ctx1.rumin_d_matrix(0)
    delta0 = ctx1.rumin_delta_matrix(0)
    X, Y = _X(1, 0), _Y(1, 0)
    # X and Y are skew-adjoint, so the adjoint column flips sign
    assert delta0.entries == [[X.scale(-1), Y.scale(-1)]]
    # adjoint twice returns the original
    again = delta0.adjoint(ctx1.gram(1), ctx1.gram(0))
    assert again == d0
    # out of the top degree d_c is 0 x dim and delta_c the dim x 0 zero matrix
    top = ctx1.top
    dim = ctx1.core(top).dim
    assert ctx1.rumin_d_matrix(top).shape == (0, dim)
    delta_top = ctx1.rumin_delta_matrix(top)
    assert delta_top.shape == (dim, 0)
    assert delta_top.is_zero()


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
            order = ctx.laplacian_order(h)
            assert order == (4 if h in (n, n + 1) else 2)
            for i in range(lap.rows):
                entry = lap.entries[i][i]
                assert entry
                assert entry.order() == order
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


def test_commutator_audit_random(ctx1):
    rng = random.Random(1)
    for ctx, trials in ((ctx1, 5), (shared_context(3), 2)):
        for h in range(2 * ctx.n + 2):
            for _ in range(trials):
                zeta = random_poly(rng, 2 * ctx.n + 1, 3)
                report = commutator_audit(ctx, h, zeta)
                assert report["ok"], report
                assert report["order_bound"] == ctx.weight_shift(h) - 1
                if report["max_order"] is not None:
                    assert report["max_order"] <= report["order_bound"]
                assert report["t_zeta_free"]


def test_commutator_matches_form_level_leibniz(ctx1):
    rng = random.Random(2)
    h = 1
    d = ctx1.rumin_d_matrix(h)
    for _ in range(5):
        zeta = random_poly(rng, 3, 2)
        polys = [random_poly(rng, 3, 2) for _ in range(ctx1.core(h).dim)]
        omega = ctx1.form_from_core(h, polys)
        lhs = ctx1.rumin_d(omega.mul_poly(zeta)) - ctx1.rumin_d(omega).mul_poly(zeta)
        coeffs = []
        for i in range(d.rows):
            acc = Poly.zero(3)
            for j, u in enumerate(polys):
                acc = acc + commutator_with_multiplication(d.entries[i][j], zeta).apply(u)
            coeffs.append(acc)
        assert ctx1.core_coefficients(lhs, h + 1) == coeffs


def test_core_coefficients_roundtrip_and_rejection(ctx1):
    rng = random.Random(3)
    polys = [random_poly(rng, 3, 2), random_poly(rng, 3, 2)]
    omega = ctx1.form_from_core(1, polys)
    assert ctx1.core_coefficients(omega, 1) == polys
    # theta alone is not in E0^1
    bad = Form.monomial(1, 1 << 2, Poly.const(3, 1))
    with pytest.raises(ValueError, match="not a section of E0"):
        ctx1.core_coefficients(bad, 1)


def test_rumin_d_requires_left_frame(ctx1):
    dt = Form.monomial(1, 1 << 2, Poly.const(3, 1), frame="coord")
    for omega in (to_coordinate_frame(Form.monomial(1, 1, Poly.var(3, 0))), dt):
        for entry in (ctx1.rumin_d, ctx1.project_core, ctx1.d0_inverse, ctx1.project_rumin):
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
            proj = eye(len(ctx.masks[h]))
            if h < ctx.top:
                proj = minus(proj, matmul(ctx.d0_pinv[h + 1], ctx.d0[h]))
            if h > 0:
                proj = minus(proj, matmul(ctx.d0[h - 1], ctx.d0_pinv[h]))
            assert ctx._p_e0[h] == proj
            assert matmul(ctx._coords[h], ctx._embed[h]) == eye(ctx.core(h).dim)


def test_projectors(ctx1):
    rng = random.Random(4)
    for h in range(4):
        masks = [m for m in range(8) if bin(m).count("1") == h]
        coeffs = {m: random_poly(rng, 3, 2) for m in masks}
        omega = Form(1, "left", coeffs)
        p = ctx1.project_core(omega)
        assert ctx1.project_core(p) == p
        # core sections are fixed points
        core = random_core_form(rng, ctx1, h, 2)
        assert ctx1.project_core(core) == core


def test_operator_matrix_json_roundtrip(ctx1, ctx2):
    for ctx in (ctx1, ctx2):
        dims = ctx.core_dims()
        for h in range(2 * ctx.n + 2):
            d = ctx.rumin_d_matrix(h)
            delta = ctx.rumin_delta_matrix(h)
            for m, shape in ((d, (dims[h + 1] if h + 1 < len(dims) else 0, dims[h])),
                             (delta, (dims[h], d.rows))):
                back = OperatorMatrix.from_json(m.to_json())
                assert back == m
                assert back.shape == m.shape == shape
                assert back.to_json() == m.to_json()
    back = OperatorMatrix.from_json(ctx1.rumin_d_matrix(1).to_json())
    assert back.src_degree == 1 and back.dst_degree == 2
    # the shape takes part in equality
    assert OperatorMatrix.zero(1, 3, 4, 0, 1) != OperatorMatrix.zero(1, 3, 4, 0, 0)


def test_pseudoinverse_homotopy_identity(ctx1):
    # d0 d0^{-1} restricted to the image acts as the identity on d0 of anything
    rng = random.Random(5)
    from rumincalc.forms import split_d

    for _ in range(5):
        masks = [m for m in range(8) if bin(m).count("1") == 1]
        omega = Form(1, "left", {m: random_poly(rng, 3, 2) for m in masks})
        image = split_d(omega)[0]
        if not image:
            continue
        recovered = split_d(ctx1.d0_inverse(image))[0]
        assert recovered == image
