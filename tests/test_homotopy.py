import math
import random
import warnings
from fractions import Fraction

import pytest

from conftest import random_form, random_point_coords, random_section, shared_context
from rumincalc.forms import (
    Form,
    exterior_d,
    pullback_translation_dilation,
    to_coordinate_frame,
    to_left_frame,
)
from rumincalc import grid as gridmod, homotopy_exact, rumin_complex
from rumincalc.group_geometry import identity
from rumincalc.homotopy_exact import (
    AveragingWeight,
    _cone_degree,
    _cone_homotopy,
    admissible,
    averaged_homotopy,
    euclidean_homotopy_residual,
    rumin_homotopy_K,
    rumin_homotopy_residual,
    rumin_primitive_residual,
    scaling_probe,
)
from rumincalc.polynomials import Poly


POINT = AveragingWeight.point_mass()
BUMP = AveragingWeight.bump(Fraction(1, 2))


def cartan_homotopy(y, omega: Form) -> Form:
    """The cone homotopy centered at the concrete point y, exactly: the closed
    form with y^beta for the moments.

    omega must be a coordinate-frame polynomial form of pure degree >= 1;
    y is a sequence of 2n+1 rationals.
    """
    _cone_degree("cartan_homotopy", omega, omega.degree())
    y = [Fraction(v) for v in y]
    if len(y) != 2 * omega.n + 1:
        raise ValueError("y needs 2n+1 coordinates")
    return _cone_homotopy(omega, lambda beta: math.prod(v**b for v, b in zip(y, beta)))


def _doubled_ring_cone(omega: Form) -> dict:
    """Oracle: K_y omega over Q[x, y, s], s integrated out; mask -> Poly(x, y).

    x occupies variables 0..nv-1, the cone center y nv..2nv-1 and the cone
    parameter s the last one, which is integrated over [0, 1] term by term.
    """
    nv = 2 * omega.n + 1
    big = 2 * nv + 1
    s = Poly.var(big, 2 * nv)
    sub_images = [
        Poly.var(big, nv + i) + s * (Poly.var(big, i) - Poly.var(big, nv + i))
        for i in range(nv)
    ]
    out: dict = {}
    for mask, p in omega.coeffs.items():
        weighted = p.compose(sub_images) * s ** (mask.bit_count() - 1)
        indices = [i for i in range(nv) if mask >> i & 1]
        for pos, idx in enumerate(indices):
            integrand = weighted * (Poly.var(big, idx) - Poly.var(big, nv + idx))
            terms: dict = {}
            for exp, c in integrand.terms.items():
                terms[exp[:-1]] = terms.get(exp[:-1], 0) + c / (exp[-1] + 1)
            rest = mask & ~(1 << idx)
            acc = out.get(rest, Poly.zero(2 * nv))
            out[rest] = acc + Poly(2 * nv, terms).scale(-1 if pos % 2 else 1)
    return out


def _oracle_average(weight: AveragingWeight, omega: Form) -> Form:
    """The doubled-ring cone with each y^beta replaced by the moment of psi."""
    nv = 2 * omega.n + 1
    coeffs = {}
    for mask, p in _doubled_ring_cone(omega).items():
        terms: dict = {}
        for exp, c in p.terms.items():
            alpha, beta = exp[:nv], exp[nv:]
            terms[alpha] = terms.get(alpha, 0) + c * weight.moment(beta, nv)
        coeffs[mask] = Poly(nv, terms)
    return Form(omega.n, "coord", coeffs)


def _oracle_at(y, omega: Form) -> Form:
    """The doubled-ring cone with y substituted."""
    nv = 2 * omega.n + 1
    images = [Poly.var(nv, i) for i in range(nv)] + [Poly.const(nv, v) for v in y]
    coeffs = {mask: p.compose(images) for mask, p in _doubled_ring_cone(omega).items()}
    return Form(omega.n, "coord", coeffs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_equals_the_doubled_ring_oracle(n):
    rng = random.Random(10 + n)
    nv = 2 * n + 1
    y = random_point_coords(rng, nv)
    while not any(y):
        y = random_point_coords(rng, nv)
    for k in range(1, nv + 1):
        omega = Form.zero(n, "coord")
        while not omega:
            omega = random_form(rng, n, k, 3 if n < 3 else 2, frame="coord")
        for w in (POINT, BUMP):
            assert averaged_homotopy(w, omega, omega.degree()) == _oracle_average(w, omega)
        assert cartan_homotopy(y, omega) == _oracle_at(y, omega)


@pytest.mark.parametrize("n", [1, 2])
def test_cone_sums_over_mixed_denominators_equal_the_doubled_ring_oracle(n):
    # coefficients and moments with unlike denominators, so the cone sums
    # over their lcm; at a centre with no zero coordinate every moment y^beta
    # is nonzero and no split is skipped
    rng = random.Random(30 + n)
    nv = 2 * n + 1
    dens = (1, 2, 3, 5, 7, 11, 12)

    def fraction():
        return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 20), rng.choice(dens))

    y = [fraction() for _ in range(nv)]
    bump = AveragingWeight.bump(Fraction(2, 7), exponent=2)
    for k in range(1, nv + 1):
        coeffs = {}
        for mask in range(1 << nv):
            if mask.bit_count() != k:
                continue
            terms = {}
            for _ in range(3):
                exp = [0] * nv
                for _ in range(rng.randrange(4)):
                    exp[rng.randrange(nv)] += 1
                terms[tuple(exp)] = fraction()
            coeffs[mask] = Poly(nv, terms)
        omega = Form(n, "coord", coeffs)
        assert cartan_homotopy(y, omega) == _oracle_at(y, omega), k
        for w in (POINT, BUMP, bump):
            assert averaged_homotopy(w, omega, omega.degree()) == _oracle_average(w, omega), (k, w)


def test_cone_homotopy_primitive_of_dx():
    # K(dx_1) centered at the origin is x_1 itself
    n = 1
    dx = Form.monomial(n, 1 << 0, Poly.const(3, 1), frame="coord")
    out = cartan_homotopy([Fraction(0)] * 3, dx)
    assert out == Form.from_function(n, Poly.var(3, 0), frame="coord")
    # centered elsewhere it is x_1 - y_1
    out_y = cartan_homotopy([Fraction(2), Fraction(0), Fraction(0)], dx)
    assert out_y == Form.from_function(
        n, Poly.var(3, 0) - Poly.const(3, 2), frame="coord"
    )


def test_point_mass_equals_cartan_at_origin():
    rng = random.Random(0)
    n = 2
    for k in (1, 2, 3):
        omega = random_form(rng, n, k, 3, frame="coord")
        assert averaged_homotopy(POINT, omega, omega.degree()) == cartan_homotopy(
            [Fraction(0)] * 5, omega
        )


def test_homotopy_drops_the_degree():
    rng = random.Random(1)
    n = 2
    for k in (1, 2, 3):
        omega = random_form(rng, n, k, 2, frame="coord")
        for w in (POINT, BUMP):
            out = averaged_homotopy(w, omega, k)
            if out:
                assert out.degree() == k - 1


def test_euclidean_residual_vanishes_exactly():
    rng = random.Random(2)
    for n in (1, 2):
        for k in (1, 2, 3):
            if k > 2 * n + 1:
                continue
            for w in (POINT, BUMP):
                for _ in range(5):
                    omega = random_form(rng, n, k, 4, frame="coord")
                    assert not euclidean_homotopy_residual(w, omega)


def test_degree_zero_identity_reconstruction():
    # for functions, f = K(df) + f(averaging point); with the point mass at 0
    n = 1
    f = Poly.var(3, 0) * Poly.var(3, 1) + Poly.var(3, 2) ** 2
    df = exterior_d(Form.from_function(n, f, frame="coord"))
    kf = averaged_homotopy(POINT, df, df.degree())
    assert kf == Form.from_function(n, f, frame="coord")  # f(0) = 0 here


def test_moment_examples():
    # total mass is 1 for every weight
    assert POINT.moment((0, 0, 0), 3) == 1
    assert BUMP.moment((0, 0, 0), 3) == 1
    # odd moments vanish
    assert BUMP.moment((1, 0, 0), 3) == 0
    assert BUMP.moment((1, 2, 0), 3) == 0
    # hand-checked even moments
    w1 = AveragingWeight.bump(Fraction(1), exponent=1)
    assert w1.moment((2,), 1) == Fraction(1, 5)
    w3 = AveragingWeight.bump(Fraction(1, 2), exponent=3)
    assert w3.moment((2, 0, 0), 3) == Fraction(1, 44)
    # point mass has no spread at all
    assert POINT.moment((2, 0, 0), 3) == 0


def test_weight_constructors_validate():
    with pytest.raises(ValueError):
        AveragingWeight.bump(Fraction(0))
    with pytest.raises(ValueError):
        AveragingWeight.bump(Fraction(1), exponent=-1)


def test_homotopy_error_contracts():
    n = 1
    f = Form.from_function(n, Poly.var(3, 0), frame="coord")
    with pytest.raises(ValueError, match="degree >= 1"):
        averaged_homotopy(POINT, f, f.degree())
    left = Form.monomial(n, 1, Poly.const(3, 1))
    with pytest.raises(ValueError, match="coordinate coframe"):
        averaged_homotopy(POINT, left, left.degree())
    with pytest.raises(ValueError, match="coordinate coframe"):
        cartan_homotopy([0, 0, 0], left)
    mixed = Form.monomial(n, 1, Poly.const(3, 1), frame="coord")
    with pytest.raises(ValueError, match="degree"):
        averaged_homotopy(POINT, mixed, 2)
    with pytest.raises(ValueError, match="2n\\+1 coordinates"):
        cartan_homotopy([0, 0], Form.monomial(n, 1, Poly.const(3, 1), frame="coord"))


def test_rumin_primitive_residual_vanishes(ctx1, ctx2):
    rng = random.Random(3)
    for ctx in (ctx1, ctx2):
        top = 2 * ctx.n + 1
        for h in range(top):
            if ctx.cores[h].dim == 0 or ctx.cores[h + 1].dim == 0:
                continue
            for w in (POINT, BUMP):
                phi = random_section(rng, ctx, h, 2)
                omega = ctx.rumin_d(phi)
                if not omega:
                    continue
                assert not rumin_primitive_residual(ctx, w, omega)


def test_rumin_chain_homotopy_residual_vanishes(ctx1, ctx2):
    # omega = d_c K omega + K d_c omega on non-closed sections of every
    # degree; in degree 0 the psi-average takes the place of d_c K f
    rng = random.Random(5)
    cases = [(ctx1, (POINT, BUMP), 2), (ctx2, (POINT, BUMP), 2), (shared_context(3), (BUMP,), 1)]
    for ctx, weights, trials in cases:
        for h in range(2 * ctx.n + 2):
            for w in weights:
                for _ in range(trials):
                    omega = random_section(rng, ctx, h, 2)
                    while h < 2 * ctx.n + 1 and not ctx.rumin_d(omega):
                        omega = random_section(rng, ctx, h, 2)
                    assert not rumin_homotopy_residual(ctx, w, omega)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_K_commutes_with_dilations_under_the_point_mass(n):
    # K(delta_r^* omega) = delta_r^* K(omega); delta_r^* moves the bump out
    # of AveragingWeight's family, so the bump breaks the law in every degree
    ctx = shared_context(n)
    rng = random.Random(n)
    bump = AveragingWeight.bump(Fraction(1, 3))

    def dilate(form):
        return pullback_translation_dilation(form, identity(n), Fraction(3, 2))

    for h in range(1, 2 * n + 2):
        omega = random_section(rng, ctx, h, 2)
        while not omega:
            omega = random_section(rng, ctx, h, 2)
        primitive = rumin_homotopy_K(ctx, POINT, omega)
        assert primitive
        assert rumin_homotopy_K(ctx, POINT, dilate(omega)) == dilate(primitive)
        assert rumin_homotopy_K(ctx, bump, dilate(omega)) != dilate(
            rumin_homotopy_K(ctx, bump, omega)
        )


def test_K_and_rumin_d_each_make_two_exterior_d_calls(ctx2, monkeypatch):
    calls = []

    def counted(form):
        calls.append(form)
        return exterior_d(form)

    for module in (rumin_complex, homotopy_exact):
        monkeypatch.setattr(module, "exterior_d", counted)
    rng = random.Random(6)
    for h in range(1, 2 * ctx2.n + 2):
        omega = random_section(rng, ctx2, h, 2)
        calls.clear()
        rumin_homotopy_K(ctx2, POINT, omega)
        assert len(calls) == 2
        calls.clear()
        ctx2.rumin_d(omega)
        assert len(calls) == 2


def test_rumin_homotopy_error_contracts(ctx1):
    with pytest.raises(ValueError, match="degree 0"):
        rumin_homotopy_K(ctx1, POINT, Form.from_function(1, Poly.var(3, 0)))
    coord = Form.monomial(1, 1, Poly.const(3, 1), frame="coord")
    with pytest.raises(ValueError, match="left-invariant frame"):
        rumin_homotopy_K(ctx1, POINT, coord)
    theta = Form.monomial(1, 1 << 2, Poly.const(3, 1))
    with pytest.raises(ValueError, match="not a section of E0"):
        rumin_homotopy_K(ctx1, POINT, theta)


def test_poincare_quotient_conventions(ctx1):
    with pytest.raises(ValueError, match="Poincare quotient is 0"):
        scaling_probe(ctx1, Form.zero(1), 2.0, 2.0, resolution=8)
    # non-closed input is rejected
    bad = ctx1.form_from_core(1, [Poly.var(3, 2), Poly.zero(3)])
    assert ctx1.rumin_d(bad)
    with pytest.raises(ValueError, match="not d_c-closed"):
        scaling_probe(ctx1, bad, 2.0, 2.0, resolution=8)
    # the outer ball B(e, r lambda) must be larger than the inner one
    omega = ctx1.rumin_d(Form.from_function(1, Poly.var(3, 0) ** 2))
    for lam in (Fraction(1), Fraction(1, 2)):
        with pytest.raises(ValueError, match="strictly larger"):
            scaling_probe(ctx1, omega, 2.0, 2.0, lam=lam, resolution=8)


def test_scaling_probe_makes_one_pass_per_radius(ctx1, monkeypatch):
    calls = {"gauge_mask": 0, "rumin_homotopy_K": 0, "rumin_d": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    omega = ctx1.rumin_d(Form.from_function(1, Poly.var(3, 0) ** 2))
    monkeypatch.setattr(gridmod, "gauge_mask", counting("gauge_mask", gridmod.gauge_mask))
    monkeypatch.setattr(homotopy_exact, "rumin_homotopy_K",
                        counting("rumin_homotopy_K", homotopy_exact.rumin_homotopy_K))
    monkeypatch.setattr(ctx1, "rumin_d", counting("rumin_d", ctx1.rumin_d))
    probe = scaling_probe(ctx1, omega, 2.0, 2.0, resolution=8)
    radii = len(probe["rows"])
    assert radii == 2
    # one inner and one outer mask per radius, one primitive per radius, and
    # the closedness of omega checked once
    assert calls == {"gauge_mask": 2 * radii, "rumin_homotopy_K": radii, "rumin_d": 1}


def test_admissible_is_exact_on_the_gap():
    # gap 1/Q = 1/4 for n = 1, h = 1 and 2/Q = 1/2 across the middle, h = 2
    assert admissible(1, 1, 2.0, 4.0)
    assert not admissible(1, 1, 2.0, 4.001)
    assert admissible(1, 2, 1.0, 2.0)
    assert not admissible(1, 2, 1.0, 2.001)
    # 1/3 - 1/6 is exactly the gap 1/Q at n = 2, without a float tolerance
    assert admissible(2, 1, 3.0, 6.0)


def test_poincare_quotient_reports_beyond_gap_without_warning(ctx1):
    omega = ctx1.rumin_d(Form.from_function(1, Poly.var(3, 0) ** 2))
    assert not admissible(1, 1, 1.01, 100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probe = scaling_probe(ctx1, omega, 1.01, 100.0, resolution=8)
    assert all(row["ratio"] > 0 for row in probe["rows"])


def test_scaling_probe_ignores_an_overflow_outside_the_inner_ball(ctx1):
    # |K omega|^2 reaches 9.38 in the corners of the box, outside B(e, 1),
    # where its 350th power overflows; inside the ball the L^700 norm is finite
    omega = ctx1.rumin_d(Form.from_function(1, Poly.var(3, 0) ** 2))
    probe = scaling_probe(ctx1, omega, 2.0, 700.0, resolution=8)
    assert all(math.isfinite(row["numerator"]) and row["numerator"] > 0 for row in probe["rows"])
    assert probe["relative_error"] < 1e-12


def test_scaling_probe_exact_power_law(ctx1):
    # closed one-form data: slope Q/q - Q/p + 1
    omega = ctx1.rumin_d(Form.from_function(1, Poly.var(3, 0) ** 2))
    probe = scaling_probe(ctx1, omega, 2.0, 2.0, resolution=12)
    assert probe["expected_exponent"] == 1.0
    assert probe["relative_error"] < 1e-12
    # two-form data crosses the middle: slope gains the extra unit
    phi = ctx1.form_from_core(1, [Poly.var(3, 0) ** 2 * Poly.var(3, 1), Poly.zero(3)])
    omega2 = ctx1.rumin_d(phi)
    assert omega2
    probe2 = scaling_probe(ctx1, omega2, 2.0, 2.0, resolution=12)
    assert probe2["expected_exponent"] == 2.0
    assert probe2["relative_error"] < 1e-12
    # mixed exponents shift by Q/q - Q/p
    probe3 = scaling_probe(ctx1, omega, 2.0, 4.0, resolution=12)
    assert probe3["expected_exponent"] == 0.0
    assert abs(probe3["fitted_exponent"]) < 1e-12


def test_primitive_converts_frames_consistently(ctx1):
    rng = random.Random(4)
    phi = random_section(rng, ctx1, 1, 2)
    omega = ctx1.rumin_d(phi)
    primitive = rumin_homotopy_K(ctx1, BUMP, omega)
    assert primitive.frame == "left"
    assert ctx1.project_core(primitive) == primitive
    assert to_left_frame(to_coordinate_frame(primitive)) == primitive


@pytest.mark.parametrize("weight", [POINT, BUMP], ids=["point", "bump"])
def test_d_c_and_K_build_fewer_fractions_than_they_output_terms(ctx2, weight, monkeypatch):
    # the form layer sums int numerators over one denominator per polynomial,
    # so d_c and K build Fractions for constants only, not one per output term
    rng = random.Random(29)
    sections = [random_section(rng, ctx2, h, 3) for h in range(2 * ctx2.n + 1)]
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    outputs = []
    for phi in sections:
        omega = ctx2.rumin_d(phi)
        outputs += [omega, rumin_homotopy_K(ctx2, weight, omega)]
    monkeypatch.undo()
    terms = sum(len(p.terms) for form in outputs for p in form.coeffs.values())
    assert all(outputs) and terms > 100
    assert len(built) < terms, (len(built), terms)
