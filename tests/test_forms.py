import random
from fractions import Fraction

import pytest

from conftest import (
    d_field_by_field,
    exact_value,
    random_form,
    random_poly,
    reference_convert,
    wedge_forms,
)
from rumincalc.exterior_weights import mask_weight
from rumincalc.forms import (
    Form,
    apply_mask_matrix,
    exterior_d,
    matrix_times_polys,
    pullback_translation_dilation,
    to_coordinate_frame,
    to_left_frame,
    translation_dilation_images,
)
from rumincalc.group_geometry import Point, from_coords, multiply
from rumincalc.polynomials import Poly


def test_exterior_d_of_coordinate_functions():
    # df in the left frame reads off the frame derivatives
    n = 1
    x, y, t = (Poly.var(3, i) for i in range(3))
    dx = exterior_d(Form.from_function(n, x))
    assert dx == Form.monomial(n, 1 << 0, Poly.const(3, 1))
    dt = exterior_d(Form.from_function(n, t))
    expected = (
        Form.monomial(n, 1 << 0, y.scale(Fraction(-1, 2)))
        + Form.monomial(n, 1 << 1, x.scale(Fraction(1, 2)))
        + Form.monomial(n, 1 << 2, Poly.const(3, 1))
    )
    assert dt == expected
    # theta is not closed: d theta = -omega_1 ^ omega_2
    theta = Form.monomial(n, 1 << 2, Poly.const(3, 1))
    assert exterior_d(theta) == Form.monomial(n, 0b011, Poly.const(3, -1))


def test_d_squares_to_zero_in_both_frames():
    rng = random.Random(0)
    for frame in ("left", "coord"):
        for n in (1, 2):
            for _ in range(15):
                k = rng.randrange(2 * n + 1)
                omega = random_form(rng, n, k, 3, frame=frame)
                assert not exterior_d(exterior_d(omega))


def test_split_d_reassembles_and_shifts_weight():
    # d splits by weight shift into d0 + d1 + d2, as the field-by-field oracle builds it
    rng = random.Random(1)
    for n in (1, 2):
        for _ in range(10):
            k = rng.randrange(2 * n + 1)
            masks = [m for m in range(1 << (2 * n + 1)) if bin(m).count("1") == k]
            mask = rng.choice(masks)
            omega = Form.monomial(n, mask, random_poly(rng, 2 * n + 1, 3))
            w = mask_weight(n, mask)
            d0, d1, d2 = d_field_by_field(omega)
            assert d0 + d1 + d2 == exterior_d(omega)
            for shift, piece in enumerate((d0, d1, d2)):
                for m in piece.coeffs:
                    assert mask_weight(n, m) == w + shift


def test_exterior_d_matches_the_field_by_field_composition():
    rng = random.Random(8)
    for n in (1, 2, 3):
        for k in range(2 * n + 2):
            for frame in ("left", "coord"):
                omega = random_form(rng, n, k, 3, frame=frame)
                d0, d1, d2 = d_field_by_field(omega)
                assert exterior_d(omega) == d0 + d1 + d2


def test_frame_conversion_roundtrips_and_commutes_with_d():
    # d in the coordinate frame only takes partials: an oracle for the
    # left-frame d, which reads the frame fields and d0 off the coframe table
    rng = random.Random(2)
    for n, degree in ((1, 3), (2, 3), (3, 2)):
        for _ in range(10):
            k = rng.randrange(2 * n + 1)
            omega = random_form(rng, n, k, degree, frame="left")
            coord = to_coordinate_frame(omega)
            assert coord.frame == "coord"
            assert to_left_frame(coord) == omega
            assert to_left_frame(exterior_d(coord)) == exterior_d(omega)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_change_table_equals_the_wedge_of_one_form_images(n):
    # the oracle wedges the images of the basis one-forms for every coframe
    # monomial; the table must give the same form, mask by mask and for
    # whole forms, where several monomials feed one target, in both directions
    rng = random.Random(40 + n)
    nv = 2 * n + 1
    for source, target in (("left", "coord"), ("coord", "left")):
        convert = to_coordinate_frame if target == "coord" else to_left_frame
        whole = {}
        for mask in range(1 << nv):
            p = random_poly(rng, nv, 3, terms=3)
            while not p:
                p = random_poly(rng, nv, 3, terms=3)
            whole[mask] = p
            omega = Form.monomial(n, mask, p, source)
            got = convert(omega)
            assert got == reference_convert(omega, target), (source, mask)
            if not mask >> (2 * n) & 1:
                # a monomial without theta or dt is its own image
                assert got.coeffs == {mask: p} and got.coeffs[mask] is p
        for k in range(nv + 1):
            omega = Form(n, source, {m: p for m, p in whole.items() if m.bit_count() == k})
            assert convert(omega) == reference_convert(omega, target), (source, k)


def test_matrix_rows_of_a_single_one_pass_the_poly_through():
    x, y = Poly.var(3, 0), Poly.var(3, 1)
    rows = [{1: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}, {0: Fraction(-1, 2)}, {}, {2: 1}]
    out = matrix_times_polys(rows, [x, y, None], 3)
    assert out[0] is y
    assert out == [y, x + y, x.scale(Fraction(-1, 2)), Poly.zero(3), Poly.zero(3)]


def test_frame_conversion_fixes_horizontal_constants_at_origin():
    n = 1
    omega = Form.monomial(n, 1 << 0, Poly.const(3, 1), frame="left")
    coord = to_coordinate_frame(omega)
    origin = [Fraction(0)] * 3
    coord_at, omega_at = (
        {m: v for m, p in form.coeffs.items() if (v := exact_value(p, origin))}
        for form in (coord, omega)
    )
    assert coord_at == omega_at == {1 << 0: 1}


def test_wedge_forms_leibniz():
    rng = random.Random(3)
    n = 1
    for _ in range(10):
        a = random_form(rng, n, 1, 2)
        b = random_form(rng, n, 1, 2)
        lhs = exterior_d(wedge_forms(a, b))
        rhs = wedge_forms(exterior_d(a), b) - wedge_forms(a, exterior_d(b))
        assert lhs == rhs


def test_translation_dilation_images_match_group_law():
    rng = random.Random(4)
    n = 2
    nv = 2 * n + 1
    for _ in range(20):
        base = from_coords([Fraction(rng.randrange(-3, 4)) for _ in range(nv)])
        r = Fraction(rng.randrange(1, 5))
        q = from_coords([Fraction(rng.randrange(-3, 4)) for _ in range(nv)])
        images = translation_dilation_images(n, base, r)
        dq = from_coords(
            [r * c for c in (list(q.x) + list(q.y))] + [r * r * q.t]
        )
        expected = multiply(base, dq)
        coords = list(q.x) + list(q.y) + [q.t]
        got = [exact_value(img, coords) for img in images]
        assert got == list(expected.x) + list(expected.y) + [expected.t]


def test_pullback_is_natural_and_scales_the_coframe():
    rng = random.Random(5)
    n = 1
    base = from_coords([Fraction(1), Fraction(-2), Fraction(1, 2)])
    r = Fraction(3)
    for _ in range(10):
        k = rng.randrange(3)
        omega = random_form(rng, n, k, 3)
        pulled = pullback_translation_dilation(omega, base, r)
        assert exterior_d(pulled) == pullback_translation_dilation(exterior_d(omega), base, r)
    # coframe scaling: weight-1 picks up r, theta picks up r^2
    one = Poly.const(3, 1)
    assert pullback_translation_dilation(
        Form.monomial(n, 1 << 0, one), base, r
    ) == Form.monomial(n, 1 << 0, one.scale(r))
    assert pullback_translation_dilation(
        Form.monomial(n, 1 << 2, one), base, r
    ) == Form.monomial(n, 1 << 2, one.scale(r * r))


def test_pullback_composes():
    n = 1
    rng = random.Random(6)
    omega = random_form(rng, n, 1, 2)
    a = from_coords([Fraction(1), Fraction(0), Fraction(-1)])
    b = from_coords([Fraction(0), Fraction(2), Fraction(1, 2)])
    # (a . delta_r) then (b . delta_s) composes to (a . delta_r(b)) . delta_{rs}
    r, s = Fraction(2), Fraction(3)
    db = from_coords([r * c for c in (list(b.x) + list(b.y))] + [r * r * b.t])
    combined = multiply(a, db)
    assert pullback_translation_dilation(
        pullback_translation_dilation(omega, a, r), b, s
    ) == pullback_translation_dilation(omega, combined, r * s)


def test_apply_mask_matrix_checks_source_support():
    n = 1
    form = Form.monomial(n, 0b011, Poly.var(3, 0))
    out = apply_mask_matrix(
        [{0: Fraction(2)}], [0b011], [0b101], form
    )
    assert out == Form.monomial(n, 0b101, Poly.var(3, 0).scale(2))
    with pytest.raises(ValueError):
        apply_mask_matrix([{0: Fraction(1)}], [0b110], [0b101], form)


def test_pullback_requires_left_frame():
    n = 1
    omega = Form.monomial(n, 1, Poly.var(3, 0), frame="coord")
    with pytest.raises(ValueError):
        pullback_translation_dilation(omega, from_coords([0, 0, 0]), 2)
