"""Acceptance suite: the twelve headline checks, one visible line each.

Each test prints `CRITERION k: PASS/FAIL - summary` through the capture
escape hatch so the lines show up even in captured runs, then asserts.
Exact checks tolerate nothing; numeric checks use the stated tolerances.
"""

import random
import time
from fractions import Fraction

import numpy as np

from conftest import commutator_audit, entry_structure, random_form, random_poly
from rumincalc.envelope import EnvOp
from rumincalc.exterior_weights import core_dimension_oracle
from rumincalc.forms import Form
from rumincalc.homotopy_exact import (
    AveragingWeight,
    euclidean_homotopy_residual,
    rumin_homotopy_residual,
    rumin_primitive_residual,
    scaling_probe,
)
from rumincalc.kernels import (
    bump_grid,
    decay_slope_probe,
    lp_lq_probe,
    scalar_sobolev_check,
)
from rumincalc.rumin_complex import (
    RuminContext,
    entry_audit,
    laplacian_commutation_report,
)

_CTX = {}

FROZEN_DIMS = {
    1: [1, 2, 2, 1],
    2: [1, 4, 5, 5, 4, 1],
    3: [1, 6, 14, 14, 14, 14, 6, 1],
}


def ctx_for(n):
    if n not in _CTX:
        _CTX[n] = RuminContext(n)
    return _CTX[n]


def announce(capsys, k, ok, desc):
    with capsys.disabled():
        print(f"\nCRITERION {k:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {k}: {desc}"


def test_criterion_01_dc_squared_zero(capsys):
    times = {}
    ok = True
    for n in (1, 2, 3):
        t0 = time.perf_counter()
        ctx = RuminContext(n)
        for h in range(2 * n + 1):
            square = ctx.rumin_d_matrix(h + 1).compose(ctx.rumin_d_matrix(h))
            ok = ok and square.is_zero()
        times[n] = time.perf_counter() - t0
        _CTX[n] = ctx
    ok = ok and times[1] < 60 and times[2] < 60 and times[3] < 600
    announce(
        capsys, 1, ok,
        "d_c^2 = 0 exactly for n = 1, 2, 3, all degrees "
        f"(build+check {times[1]:.1f}s / {times[2]:.1f}s / {times[3]:.1f}s)",
    )


def test_criterion_02_entries_t_free_homogeneous(capsys):
    ok = True
    entries = 0
    for n in (1, 2, 3):
        ctx = ctx_for(n)
        for h in range(2 * n + 1):
            report = entry_audit(ctx, h)
            structure = entry_structure(ctx, h)
            entries += report["nonzero_entries"]
            ok = (
                ok
                and report["expected_weight"] == (2 if h == n else 1)
                and report["homogeneous"]
                and structure["order_one_t_free"]
                and structure["horizontally_representable"]
            )
    announce(
        capsys, 2, ok,
        f"every d_c entry T-free, horizontal, homogeneous of weight 1 "
        f"(2 at h = n); {entries} nonzero entries audited, n = 1, 2, 3",
    )


def test_criterion_03_sublaplacian_sum_of_squares(capsys):
    ok = True
    for n in (1, 2, 3):
        ctx = ctx_for(n)
        lap0 = ctx.rumin_delta_matrix(0).compose(ctx.rumin_d_matrix(0)).entries[0][0]
        total = EnvOp.zero(n)
        for j in range(2 * n):
            w = EnvOp.generator(n, j)
            total = total + w * w
        ok = ok and lap0.scale(Fraction(-1)) == total
    announce(capsys, 3, ok, "-Delta_0 = sum_j W_j^2 exactly for n = 1, 2, 3")


def test_criterion_04_laplacian_commutation(capsys):
    ok = True
    counts = {}
    for n in (1, 2):
        report = laplacian_commutation_report(ctx_for(n))
        counts[n] = len(report["checks"])
        ok = ok and report["ok"]
    announce(
        capsys, 4, ok,
        "d_c/delta_c commute with the Laplacians exactly for n <= 2 "
        f"({counts[1]} + {counts[2]} operator identities, order-matched "
        "across the middle)",
    )


def test_criterion_04_laplacian_commutation_n3(capsys):
    t0 = time.perf_counter()
    report = laplacian_commutation_report(ctx_for(3))
    elapsed = time.perf_counter() - t0
    count = len(report["checks"])
    ok = report["ok"] and count == 14 and elapsed < 60
    announce(
        capsys, 4, ok,
        f"d_c/delta_c commute with the Laplacians exactly for n = 3 ({count} "
        f"operator identities, order-matched across the middle, {elapsed:.1f}s)",
    )


def test_criterion_05_commutator_structure(capsys):
    rng = random.Random(5)
    ok = True
    trials = 0
    for n, per_degree in ((1, 15), (2, 7)):
        ctx = ctx_for(n)
        nv = 2 * n + 1
        for h in range(2 * n + 2):
            for _ in range(per_degree):
                zeta = random_poly(rng, nv, 3)
                report = commutator_audit(ctx, h, zeta)
                trials += 1
                bound = 1 if h == n else 0
                ok = ok and report["ok"] and report["order_bound"] == bound
                if report["max_order"] is not None:
                    ok = ok and report["max_order"] <= bound
                ok = ok and report["t_zeta_free"]
    ok = ok and trials >= 100
    announce(
        capsys, 5, ok,
        f"[d_c, zeta] order <= 1 only at h = n and no T zeta, "
        f"{trials} random multipliers",
    )


def test_criterion_06_euclidean_homotopy(capsys):
    rng = random.Random(6)
    point = AveragingWeight.point_mass()
    bump = AveragingWeight.bump(Fraction(1, 2))
    tested = 0
    ok = True
    while tested < 200:
        n = 1 if tested % 2 else 2
        k = 1 + tested % 3
        omega = random_form(rng, n, k, 4, frame="coord")
        if not omega:
            continue
        for weight in (point, bump):
            if euclidean_homotopy_residual(weight, omega):
                ok = False
        tested += 1
    announce(
        capsys, 6, ok,
        "omega - d K omega - K d omega = 0 exactly, 200 random forms, "
        "k = 1..3, degree <= 4, both weights",
    )


def test_criterion_07_rumin_homotopy(capsys):
    rng = random.Random(7)
    point = AveragingWeight.point_mass()
    bump = AveragingWeight.bump(Fraction(1, 3))
    tested = 0
    ok = True
    for n in (1, 2):
        ctx = ctx_for(n)
        nv = 2 * n + 1
        dims = ctx.core_dims()
        top = 2 * n + 1
        per_degree = 17 if n == 1 else 10
        for h in range(1, top + 1):
            made = 0
            attempts = 0
            while made < per_degree and attempts < 10 * per_degree:
                attempts += 1
                phi = ctx.form_from_core(
                    h - 1, [random_poly(rng, nv, 2) for _ in range(dims[h - 1])]
                )
                omega = ctx.rumin_d(phi)
                if not omega:
                    continue
                weight = bump if made % 2 else point
                if rumin_primitive_residual(ctx, weight, omega):
                    ok = False
                made += 1
                tested += 1
    ok = ok and tested >= 100
    announce(
        capsys, 7, ok,
        f"omega = d_c K omega exactly on {tested} closed inputs d_c phi, "
        "all degrees, n = 1, 2",
    )


def test_criterion_08_poincare_scaling(capsys):
    ctx = ctx_for(1)
    from rumincalc.polynomials import Poly

    x, y = Poly.var(3, 0), Poly.var(3, 1)
    one_form = ctx.rumin_d(Form.from_function(1, x * x + x * y))
    two_form = ctx.rumin_d(ctx.form_from_core(1, [x * x * y, Poly.zero(3)]))
    cases = [
        (one_form, 2.0, 2.0, 1.0),
        (one_form, 2.0, 4.0, 0.0),
        (two_form, 2.0, 2.0, 2.0),
    ]
    ok = True
    worst = 0.0
    for omega, p, q, expected in cases:
        probe = scaling_probe(ctx, omega, p, q, resolution=16)
        ok = ok and probe["expected_exponent"] == expected
        err = (
            probe["relative_error"]
            if expected
            else abs(probe["fitted_exponent"])
        )
        worst = max(worst, err)
        ok = ok and err <= 0.02
    announce(
        capsys, 8, ok,
        "Poincare quotient scales as r^{Q/q - Q/p + 1} (+2 across the "
        f"middle); two-radius fit off by at most {worst:.2e} (<= 2%)",
    )


def test_criterion_09_kernel_decay(capsys):
    t0 = time.perf_counter()
    ok = True
    fitted = {}
    for mu, slope in ((1.0, -3.0), (2.0, -2.0)):
        report = decay_slope_probe(1, mu, resolution=64)
        fitted[mu] = report["fitted_slope"]
        ok = ok and report["expected_slope"] == slope
        ok = ok and report["relative_error"] <= 0.05
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300
    announce(
        capsys, 9, ok,
        f"kernel decay slopes {fitted[1.0]:.3f} / {fitted[2.0]:.3f} vs -3 / -2 "
        f"within 5% on a 64^3 grid ({elapsed:.1f}s)",
    )


def test_criterion_10_critical_exponent_invariance(capsys):
    conv, off = lp_lq_probe(1, 1.0, 2.0, qs=(None, 3.0), lambdas=(1.0, 2.0, 4.0),
                            resolution=16)
    sob = scalar_sobolev_check(
        1, 2.0, bump_grid(1, 1.0, 16, 0.5), lambdas=(1.0, 2.0, 4.0)
    )
    ratios = [r["ratio"] for r in off["rows"]]
    monotone = all(a > b for a, b in zip(ratios, ratios[1:])) or all(
        a < b for a, b in zip(ratios, ratios[1:])
    )
    drift_sign = np.sign(np.log(ratios[-1] / ratios[0]))
    ok = (
        conv["at_critical"]
        and conv["max_relative_spread"] <= 0.05
        and sob["max_relative_spread"] <= 0.02
        and monotone
        and drift_sign == np.sign(off["expected_drift_exponent"])
    )
    announce(
        capsys, 10, ok,
        "critical quotients invariant under dilation by 1, 2, 4 "
        f"(spreads {conv['max_relative_spread']:.1e} <= 5%, "
        f"{sob['max_relative_spread']:.1e} <= 2%); off-critical drifts "
        "monotonically",
    )


def test_criterion_11_dimension_tables(capsys):
    ok = True
    for n in (1, 2, 3):
        ctx = ctx_for(n)
        dims = ctx.core_dims()
        oracle = [core_dimension_oracle(n, h) for h in range(2 * n + 2)]
        ok = ok and dims == oracle == FROZEN_DIMS[n]
        ok = ok and dims == dims[::-1]
        ok = ok and sum((-1) ** h * d for h, d in enumerate(dims)) == 0
    announce(
        capsys, 11, ok,
        "core dimensions match the brute-force rank oracle with duality and "
        "alternating sum 0 for n = 1, 2, 3",
    )


def test_criterion_12_chain_homotopy(capsys):
    # omega = d_c K omega + K d_c omega on sections that are not closed;
    # in degree 0 the psi-average stands in for d_c K f
    rng = random.Random(12)
    point = AveragingWeight.point_mass()
    bump = AveragingWeight.bump(Fraction(1, 3))
    t0 = time.perf_counter()
    tested = 0
    ok = True
    for n, weights in ((1, (point, bump)), (2, (point, bump)), (3, (bump,))):
        ctx = ctx_for(n)
        nv = 2 * n + 1
        dims = ctx.core_dims()
        top = 2 * n + 1
        for h in range(top + 1):
            for weight in weights:
                for _ in range(2):
                    for _ in range(20):
                        omega = ctx.form_from_core(
                            h, [random_poly(rng, nv, 2, terms=2) for _ in range(dims[h])]
                        )
                        if omega and (h == top or ctx.rumin_d(omega)):
                            break
                    else:
                        ok = False
                        continue
                    if rumin_homotopy_residual(ctx, weight, omega):
                        ok = False
                    tested += 1
    elapsed = time.perf_counter() - t0
    ok = ok and tested == 56 and elapsed < 60
    announce(
        capsys, 12, ok,
        f"omega = d_c K omega + K d_c omega exactly on {tested} sections, every "
        f"degree, n = 1, 2 (both weights) and n = 3 (bump) ({elapsed:.1f}s)",
    )
