"""Exact cone homotopies and the intrinsic primitive operator on H^n.

The Euclidean ingredient is the cone homotopy centered at a point y,

    K_y omega(x) = int_0^1 s^{k-1} iota_{x-y} omega(y + s(x-y)) ds,

evaluated exactly on polynomial k-forms in the coordinate coframe. On a
monomial c x^alpha dx_I the segment point s x + (1-s) y expands binomially,
and each power of s integrates to a Beta value B(p, q) on integers, so K_y
is a finite sum whose only dependence on y is through the monomials y^beta.
Averaging over y against a normalized weight psi (Iwaniec-Lutoborski)
replaces each y^beta by the moment of psi, which is an exact rational; one
closed form serves both the cone at a point and its average. The intrinsic
primitive operator K = P_E0 . P_E . K_Euc . P_E is, on E0, P_E0 (1 - d d0^{-1})
K_Euc (1 - d0^{-1} d), since P_E0 d0^{-1} = 0 and d0^{-1} vanishes on E0. It is a
chain homotopy on the sections of E0: omega = d_c K omega + K d_c omega in
positive degree, and f = K d_c f + (psi-average of f) in degree 0, so
omega = d_c K omega exactly on d_c-closed sections of positive degree.

The dilation scaling probe of the Poincare quotient lives here too: the
primitive is exact, only the L^p/L^q ball norms are quadrature, one pass
per radius.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from operator import mul, sub

import numpy as np

from . import grid as gridmod
from .forms import (
    Form,
    exterior_d,
    pullback_translation_dilation,
    to_coordinate_frame,
    to_left_frame,
)
from .group_geometry import homogeneous_dimension, identity
from .polynomials import Poly
from .rumin_complex import RuminContext


@dataclass(frozen=True)
class AveragingWeight:
    """A normalized averaging measure for the cone-center y.

    Either the point mass at the origin, or the polynomial bump
    c (1 - |y|^2/r0^2)^m on the Euclidean ball of radius r0, normalized to
    total mass 1. Only monomial moments are ever needed and they are exact
    rationals; odd moments vanish by symmetry.
    """

    kind: str  # "point_mass_at_origin" | "polynomial_bump"
    exponent: int = 3
    radius: Fraction = Fraction(1, 2)

    def __post_init__(self):
        if self.kind not in ("point_mass_at_origin", "polynomial_bump"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "polynomial_bump" and (self.exponent < 0 or self.radius <= 0):
            raise ValueError("bump needs exponent >= 0 and positive radius")

    @classmethod
    def point_mass(cls) -> "AveragingWeight":
        return cls(kind="point_mass_at_origin")

    @classmethod
    def bump(cls, radius, exponent: int = 3) -> "AveragingWeight":
        return cls(kind="polynomial_bump", exponent=exponent, radius=Fraction(radius))

    def moment(self, beta: tuple, dimension: int) -> Fraction:
        """int y^beta psi(y) dy over R^dimension, exactly."""
        if self.kind == "point_mass_at_origin":
            return Fraction(1) if not any(beta) else Fraction(0)
        if any(b % 2 for b in beta):
            return Fraction(0)
        gammas = [b // 2 for b in beta]
        total = sum(gammas)
        # prod_i prod_{j < gamma_i} (2j + 1)/2 over prod_{j < total}
        # (dimension/2 + exponent + 1 + j), on ints: the halves cancel
        num = math.prod(2 * j + 1 for g in gammas for j in range(g))
        den = math.prod(dimension + 2 * self.exponent + 2 + 2 * j for j in range(total))
        return self.radius ** (2 * total) * Fraction(num, den)


# -- Euclidean cone homotopy ---------------------------------------------------


def _cone_homotopy(omega: Form, moment) -> Form:
    """The cone homotopy of omega with y^beta replaced by moment(beta).

    For omega = c x^alpha dx_I of degree k, expand (s x + (1-s) y)^alpha
    binomially and integrate s^(k-1) against it over [0, 1]:

        K omega = sum_{j in I} +-_j c sum_{a <= alpha} C(alpha, a)
                  B(|a| + k, |alpha| - |a| + 1)
                  [m(alpha - a) x^(a + e_j) - m(alpha - a + e_j) x^a] dx_{I - j}

    with +-_j = (-1)^(position of j in I) and B(p, q) = (p-1)!(q-1)!/(p+q-1)!.
    m(beta) = y^beta gives the cone at y, and the moments of psi its average.

    A split a whose moments m(alpha - a) and m(alpha - a + e_j), j in I, all
    vanish contributes nothing and is skipped. The others are summed as ints
    over one denominator: the lcm of the coefficients' denominators, times
    (|alpha| + k)! at its largest, times the lcm of the moments'
    denominators. Each output term is then one Fraction.
    """
    nv = 2 * omega.n + 1
    moments: dict = {}

    def m(beta: tuple) -> Fraction:
        if beta not in moments:
            moments[beta] = moment(beta)
        return moments[beta]

    live = []  # (mask, indices, alpha, c, a, rest, shifts) for each split that counts
    for mask, p in omega.coeffs.items():
        indices = [i for i in range(nv) if mask >> i & 1]
        for alpha, c in p.terms.items():
            for a in product(*(range(e + 1) for e in alpha)):
                rest = tuple(map(sub, alpha, a))
                shifts = [rest[:j] + (rest[j] + 1,) + rest[j + 1:] for j in indices]
                # a list, not a generator: the sums below read every moment
                if any([m(beta) for beta in (rest, *shifts)]):
                    live.append((mask, indices, alpha, c, a, rest, shifts))
    coeffs = [(mask, alpha, c) for mask, p in omega.coeffs.items() for alpha, c in p.terms.items()]
    # (|alpha| + k)! at its largest is a multiple of every Beta denominator
    top = max((sum(alpha) + mask.bit_count() for mask, alpha, _ in coeffs), default=0)
    factorial = list(accumulate(range(1, top + 1), mul, initial=1))
    coeff_den = math.lcm(*(c.denominator for _, _, c in coeffs))
    moment_den = math.lcm(*(v.denominator for v in moments.values() if v))
    scaled = {beta: v.numerator * (moment_den // v.denominator)
              for beta, v in moments.items() if v}

    out: dict = {}
    for mask, indices, alpha, c, a, rest, shifts in live:
        k, size, low = mask.bit_count(), sum(alpha), sum(a)
        coeff = (
            c.numerator * (coeff_den // c.denominator)
            * math.prod(math.comb(e, b) for e, b in zip(alpha, a))
            * factorial[low + k - 1] * factorial[size - low]
            * (factorial[top] // factorial[size + k])
        )
        m_rest = scaled.get(rest)
        for pos, j in enumerate(indices):
            signed = -coeff if pos % 2 else coeff
            terms = out.setdefault(mask & ~(1 << j), {})
            if m_rest:
                up = a[:j] + (a[j] + 1,) + a[j + 1:]
                terms[up] = terms.get(up, 0) + signed * m_rest
            m_shift = scaled.get(shifts[pos])
            if m_shift:
                terms[a] = terms.get(a, 0) - signed * m_shift
    den = coeff_den * factorial[top] * moment_den
    return Form(omega.n, "coord", {
        mask: Poly.wrap(nv, {e: Fraction(v, den) for e, v in terms.items() if v})
        for mask, terms in out.items()
    })


def _cone_degree(name: str, omega: Form, k: int) -> None:
    """Check that omega is a coordinate-frame form of degree k >= 1."""
    if omega.frame != "coord":
        raise ValueError(f"{name} works in the coordinate coframe")
    degree = omega.degree()
    if k == 0:
        raise ValueError("the cone homotopy needs degree >= 1")
    if omega and degree != k:
        raise ValueError(f"form has degree {degree}, not {k}")


def averaged_homotopy(weight: AveragingWeight, omega: Form, k: int) -> Form:
    """K_Euc omega: the cone homotopy averaged over y against the weight."""
    _cone_degree("averaged_homotopy", omega, k)
    nv = 2 * omega.n + 1
    return _cone_homotopy(omega, lambda beta: weight.moment(beta, nv))


def euclidean_homotopy_residual(weight: AveragingWeight, omega: Form) -> Form:
    """omega - d K omega - K d omega, which must vanish for degree >= 1."""
    if not omega:
        return omega
    k = omega.degree()
    out = omega - exterior_d(averaged_homotopy(weight, omega, k))
    d_omega = exterior_d(omega)
    if d_omega:
        out = out - averaged_homotopy(weight, d_omega, k + 1)
    return out


# -- intrinsic primitive -------------------------------------------------------


def rumin_homotopy_K(ctx: RuminContext, weight: AveragingWeight, omega: Form) -> Form:
    """K = P_E0 P_E K_Euc P_E = P_E0 (1 - d d0^{-1}) K_Euc (1 - d0^{-1} d) on E0^h, h >= 1.

    When d_c omega = 0 this is an intrinsic primitive: omega = d_c K omega.
    """
    if omega.frame != "left":
        raise ValueError("rumin_homotopy_K expects the left-invariant frame")
    if not omega:
        return Form.zero(ctx.n)
    h = omega.degree()
    if h == 0:
        raise ValueError("degree 0 has no primitive")
    if ctx.project_core(omega) != omega:
        raise ValueError("input is not a section of E0")
    embedded = omega - ctx.d0_inverse(exterior_d(omega))
    euc = averaged_homotopy(weight, to_coordinate_frame(embedded), h)
    return ctx.core_part(to_left_frame(euc))


def rumin_primitive_residual(ctx: RuminContext, weight: AveragingWeight, omega: Form) -> Form:
    return omega - ctx.rumin_d(rumin_homotopy_K(ctx, weight, omega))


def rumin_homotopy_residual(ctx: RuminContext, weight: AveragingWeight, omega: Form) -> Form:
    """omega - d_c K omega - K d_c omega for omega in E0^h, any h; must vanish.

    K is a chain homotopy between the identity and the psi-average: in
    degree 0, where K omega is not defined, the term d_c K f is replaced by
    the constant sum_alpha c_alpha m(alpha) of f = sum_alpha c_alpha x^alpha.
    """
    if not omega:
        return omega
    out = omega - rumin_homotopy_K(ctx, weight, ctx.rumin_d(omega))
    if omega.degree() > 0:
        return out - ctx.rumin_d(rumin_homotopy_K(ctx, weight, omega))
    nv = 2 * ctx.n + 1
    average = sum(c * weight.moment(alpha, nv) for alpha, c in omega.coeffs[0].terms.items())
    return out - Form.from_function(ctx.n, Poly.const(nv, average))


# -- Poincare quotient and its scaling -----------------------------------------


def admissible(n: int, h: int, p: float, q: float) -> bool:
    """Whether 1/p - 1/q is within the gap a degree-h Poincare inequality
    allows: 1/Q, or 2/Q in degree n + 1, whose primitive inverts the order-2
    d_c out of n. Exact rationals, each exponent rounded to a denominator of
    at most 10^6."""
    gap = Fraction(2 if h == n + 1 else 1, homogeneous_dimension(n))
    inverse_p, inverse_q = (1 / Fraction(v).limit_denominator(10**6) for v in (p, q))
    return inverse_p - inverse_q <= gap


def _smallest_even_resolution(n: int, lam) -> int:
    """The smallest even resolution N that puts cells in the inner ball
    B(e, r) of a grid spanning B(e, r lam), whatever r.

    The grid covers [-R, R]^2n x [-R^2, R^2] with R = r lam, so on an even
    grid the cells nearest the origin sit at R/N on every horizontal axis
    and at R^2/N along t. Their gauge is below r exactly when
    lam^4 (4 n^2 + N^2) < N^4, a condition that holds from some N on.
    """
    lam4 = Fraction(lam) ** 4

    def fits(half: int) -> bool:
        return lam4 * (4 * n * n + 4 * half * half) < 16 * half**4

    low, high = 0, 1
    while not fits(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if fits(mid) else (mid, high)
    return 2 * high


def scaling_probe(
    ctx: RuminContext,
    omega: Form,
    p: float,
    q: float,
    lam: Fraction = Fraction(2),
    resolution: int = 32,
) -> dict:
    """Fit the dilation exponent of the Poincare quotient
    ||K omega_r||_{L^q(B(e, r))} / ||omega_r||_{L^p(B(e, r lam))} at r = 1 and 2.

    omega_r pulls omega back under delta_{1/r}, and K is the exact primitive
    for the point mass, the one weight that commutes with the dilations.
    Each radius is one pass: one grid spanning B(e, r lam), one mask per
    ball and one primitive. The ball norms are midpoint quadrature on
    dilation-adapted grids, whose errors cancel in the fit. Expected slope:
    Q/q - Q/p + 1, or + 2 when h = n + 1; exponents beyond the admissible
    gap are measured too.

    Raises ValueError unless lam > 1 and omega is d_c-closed (so is each
    omega_r: the pullback commutes with d_c), and OverflowError, before any
    grid is built, when R = 2 lam has an R^4 beyond the float range. Raises
    ValueError, so that no slope is fitted, when omega is zero, when no grid
    cell lies in an inner ball (the message names the smallest even
    resolution that puts cells there), and when a quotient is 0 or a ball
    norm is not finite.
    """
    lam = Fraction(lam)
    if not lam > 1:
        raise ValueError("the outer ball must be strictly larger (lambda > 1)")
    radii = (1, 2)
    if (radii[-1] * lam) ** 4 > sys.float_info.max:
        raise OverflowError(
            f"lambda = {float(lam):g}: the outer radius R = {radii[-1]} * lambda has R^4 "
            "beyond the float range"
        )
    if ctx.rumin_d(omega):
        raise ValueError("input form is not d_c-closed")
    if not omega:
        raise ValueError("Poincare quotient is 0: the form is zero; no slope to fit")
    n = ctx.n
    h = omega.degree()
    e = identity(n)
    rows, inner_cells = [], []
    for r in radii:
        R = float(r * lam)
        grid = gridmod.Grid.empty(n, R, resolution)
        inner = gridmod.gauge_mask(grid, e, float(r))
        inner_cells.append(int(inner.sum()))
        if not inner_cells[-1]:
            raise ValueError(
                f"Poincare quotient is 0 at resolution {resolution}: 0 grid cells lie in "
                f"the inner ball B(e, {r}); the smallest even resolution with cells there "
                f"is {_smallest_even_resolution(n, lam)}"
            )
        omega_r = pullback_translation_dilation(omega, e, Fraction(1, r))
        # a norm beyond the float range is reported below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            primitive = rumin_homotopy_K(ctx, AveragingWeight.point_mass(), omega_r)
            num = gridmod.form_lp_norm(primitive, q, R, resolution, inner)
            den = gridmod.form_lp_norm(omega_r, p, R, resolution, gridmod.gauge_mask(grid, e, R))
        ratio = num / den if den else math.inf
        rows.append({"radius": float(r), "ratio": ratio, "numerator": num, "denominator": den})
    Q = homogeneous_dimension(n)
    expected = Q / q - Q / p + (2 if h == n + 1 else 1)
    ratio1, ratio2 = rows[0]["ratio"], rows[-1]["ratio"]
    if not all(math.isfinite(row["ratio"]) and math.isfinite(row["denominator"]) for row in rows):
        raise ValueError(
            f"Poincare quotient is not finite at p = {p:g}, q = {q:g}: a ball norm "
            "leaves the float range"
        )
    if not ratio1 or not ratio2:
        message = f"Poincare quotient is 0 at resolution {resolution}; no slope to fit"
        if resolution % 2:
            # an odd grid has a cell at the centre, where the primitive of
            # closed data may vanish, and lines the nearest cells up with it
            cells = inner_cells[0] if not ratio1 else inner_cells[-1]
            held = "only the centre cell" if cells == 1 else f"the centre cell and {cells - 1} more"
            message += (
                f": the inner ball holds {held}, and the primitive vanishes there; the next "
                f"even resolution with cells there is "
                f"{max(_smallest_even_resolution(n, lam), resolution + 1)}"
            )
        raise ValueError(message)
    slope = math.log(ratio2 / ratio1) / math.log(radii[-1] / radii[0])
    return {
        "n": n,
        "h": h,
        "p": p,
        "q": q,
        "expected_exponent": expected,
        "fitted_exponent": slope,
        "relative_error": abs(slope - expected) / abs(expected) if expected else abs(slope),
        "rows": rows,
    }
