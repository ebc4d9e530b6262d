"""The three benchmark workloads: seeded inputs, fixed operation lists, checks.

``WORKLOADS[name](seed)`` is the set-up: it makes every seeded input and
the state the operations reuse (contexts, closed forms) and returns a
``Workload``. ``Workload.ops`` is a fixed list of ``Op`` whose ``run()``
performs one operation and checks its output. Every check compares against
a computation made here, apart from the code under test, or against a
property the method must have; none compares against a stored copy of an
earlier output.

Only public names are used, called through their modules so that the
tracer's wrappers see the calls. The seeded polynomials and forms are built
here rather than taken from the CLI's or the test suite's private helpers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable

from rumincalc import cli, forms, grid, homotopy_exact
from rumincalc.forms import Form
from rumincalc.homotopy_exact import AveragingWeight
from rumincalc.polynomials import Poly
from rumincalc.rumin_complex import RuminContext


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


@dataclass
class Op:
    name: str
    run: Callable[[], None]  # raises CheckFailed on a wrong output


@dataclass
class Workload:
    # Whether operation times are scaled by the host speed of calibration.py.
    # Pure-Python exact work drifts with the host and the loop tracks it;
    # grid work barely drifts and is reported in wall seconds.
    calibrated: bool
    ops: list = field(default_factory=list)


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- seeded inputs -------------------------------------------------------------

COEFFS = (-7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7)


class Inputs:
    """Seeded inputs of a fixed shape.

    Which monomials appear is drawn from a generator with a fixed seed, and
    only the coefficients come from the workload seed. Every seed therefore
    gives polynomials of the same supports and sizes, so every run does the
    same work on different values.
    """

    def __init__(self, seed: int):
        self.shape = random.Random(0)
        self.values = random.Random(seed)

    def poly(self, nvars: int, degrees: tuple, terms: int) -> Poly:
        """``terms`` distinct monomials, each of a total degree drawn from
        ``degrees``, with nonzero rational coefficients."""
        out: dict = {}
        while len(out) < terms:
            exp = [0] * nvars
            for _ in range(self.shape.choice(degrees)):
                exp[self.shape.randrange(nvars)] += 1
            out.setdefault(tuple(exp), None)
        return Poly(nvars, {
            exp: Fraction(self.values.choice(COEFFS), self.values.randrange(1, 5)) for exp in out
        })

    def form(self, n: int, k: int, degrees: tuple, terms: int, frame: str) -> Form:
        """A k-form with a seeded coefficient on every coframe monomial."""
        nv = 2 * n + 1
        form = Form.zero(n, frame)
        for mask in range(1 << nv):
            if mask.bit_count() == k:
                form = form + Form.monomial(n, mask, self.poly(nv, degrees, terms), frame)
        return form

    def section(self, ctx: RuminContext, h: int, degrees: tuple, terms: int) -> Form:
        """A seeded section of E0^h."""
        return ctx.form_from_core(h, self.coefficients(ctx.n, h, degrees, terms))

    def coefficients(self, n: int, h: int, degrees: tuple, terms: int) -> list:
        """Seeded coefficients of a section of E0^h, one per basis element."""
        return [self.poly(2 * n + 1, degrees, terms) for _ in range(core_dimension(n, h))]


def core_dimension(n: int, h: int) -> int:
    """dim E0^h = C(2n, h) - C(2n, h - 2) for h <= n, mirrored above n."""
    if h > n:
        h = 2 * n + 1 - h
    return comb(2 * n, h) - (comb(2 * n, h - 2) if h >= 2 else 0)


# -- running the CLI -----------------------------------------------------------


def run_cli(argv: list) -> tuple:
    """(exit code, JSON rows) of ``rumincalc.cli.main(argv)``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, [json.loads(line) for line in buf.getvalue().splitlines() if line.strip()]


def rows_by_check(rows: list) -> dict:
    out: dict = {}
    for row in rows:
        out.setdefault(row.get("check"), []).append(row)
    return out


# -- exact-complex ---------------------------------------------------------------


def check_verify(n: int, code: int, rows: list) -> None:
    require(code == 0, f"verify --n {n} exited {code}")
    checks = rows_by_check(rows)
    for h in range(2 * n + 1):
        require(f"d_c^2 = 0 out of degree {h}" in checks, f"no d_c^2 row for degree {h}")
        require(f"entry audit at degree {h}" in checks, f"no entry audit for degree {h}")
    require("-Delta_0 = sum W_j^2" in checks, "no sub-Laplacian row")
    require("[d_c, zeta] order and T-zeta freedom" in checks, "no commutator audit row")
    require(sum(c.startswith(("d_c Delta", "delta_c Delta", "Delta_")) for c in checks) > 0,
            "no Laplacian commutation rows")
    for row in rows:
        require(row["status"] in ("exact", "exact-zero"), f"{row['check']}: {row['status']}")


def check_basis(n: int, code: int, rows: list) -> None:
    require(code == 0, f"basis --n {n} exited {code}")
    want = [core_dimension(n, h) for h in range(2 * n + 2)]
    dims = [r for r in rows if r["report"] == "basis"]
    require([r["dimension"] for r in dims] == want, f"E0 dimensions {dims} != {want}")
    require(all(r["match"] and r["oracle"] == r["dimension"] for r in dims), "oracle mismatch")
    summary = [r for r in rows if r["report"] == "basis-summary"]
    require(len(summary) == 1 and summary[0]["dimensions"] == want, "basis summary")
    require(summary[0]["duality"] and summary[0]["alternating_sum"] == 0, "duality or Euler sum")


def cli_op(name: str, argv: list, check: Callable) -> Op:
    n = int(argv[argv.index("--n") + 1])

    def run():
        code, rows = run_cli(argv)
        check(n, code, rows)

    return Op(name, run)


def exact_complex(seed: int) -> Workload:
    """Exact verify suites (n = 1, 2), basis (n = 3), and seeded sections of
    polynomial degree 3-4 through the d_c matrices and through the form
    pipeline. Every CLI call and every d_c build makes its own context."""
    inputs = Inputs(seed)
    wl = Workload(calibrated=True)
    wl.ops += [
        cli_op("cli verify --n 1", ["verify", "--n", "1", "--seed", str(seed)], check_verify),
        cli_op("cli verify --n 2", ["verify", "--n", "2", "--seed", str(seed)], check_verify),
        cli_op("cli basis --n 3", ["basis", "--n", "3"], check_basis),
    ]
    for n in (1, 2):
        state: dict = {}

        def build(n=n, state=state):
            ctx = RuminContext(n)
            want = [core_dimension(n, h) for h in range(2 * n + 2)]
            require(ctx.core_dims() == want, f"E0 dimensions {ctx.core_dims()} != {want}")
            state["ctx"] = ctx
            state["d_c"] = [ctx.rumin_d_matrix(h) for h in range(2 * n + 1)]

        wl.ops.append(Op(f"d_c matrices n={n}", build))
        for h in range(2 * n + 1):
            for k in range(2):
                coeffs = inputs.coefficients(n, h, (3, 4), 3)

                def section(h=h, coeffs=coeffs, state=state):
                    ctx = state["ctx"]
                    via_matrix = ctx.form_from_core(h + 1, state["d_c"][h].apply(coeffs))
                    via_forms = ctx.rumin_d(ctx.form_from_core(h, coeffs))
                    require(via_matrix == via_forms, f"M.apply != rumin_d in degree {h}")

                wl.ops.append(Op(f"section n={n} h={h} #{k}", section))
    return wl


# -- form-homotopy ---------------------------------------------------------------


def euclidean_residual(weight: AveragingWeight, omega: Form) -> Form:
    """omega - d K omega - K d omega, from the public K and d."""
    k = omega.degree()
    out = omega - forms.exterior_d(homotopy_exact.averaged_homotopy(weight, omega, k))
    d_omega = forms.exterior_d(omega)
    if d_omega:
        out = out - homotopy_exact.averaged_homotopy(weight, d_omega, k + 1)
    return out


def form_homotopy(seed: int) -> Workload:
    """Large seeded forms through d_c and the frame change, intrinsic primitives
    K omega of closed sections in every degree for n = 2, 3, and Euclidean
    cone-homotopy residuals. Contexts are built once here; no d_c matrix is
    ever asked for."""
    inputs = Inputs(seed)
    wl = Workload(calibrated=True)
    point = AveragingWeight.point_mass()
    bump = AveragingWeight.bump(Fraction(1, 3))
    contexts = {n: RuminContext(n) for n in (2, 3)}

    for k in (2, 3):
        ctx = contexts[3]
        big = inputs.form(3, k, (3, 4), 3, "left")

        def large(ctx=ctx, big=big, k=k):
            omega = ctx.rumin_d(big)
            require(bool(omega), f"d_c of the large {k}-form vanished")
            require(ctx.project_core(omega) == omega, "d_c output is not a section of E0")
            require(not ctx.rumin_d(omega), "d_c d_c != 0 on a large form")
            round_trip = forms.to_left_frame(forms.to_coordinate_frame(big))
            require(round_trip == big, "frame change round trip")

        wl.ops.append(Op(f"large {k}-form n=3", large))

    for n, ctx in contexts.items():
        for h in range(1, 2 * n + 2):
            phi = inputs.section(ctx, h - 1, (1, 2), 2)
            weight = bump if h % 2 else point

            def primitive(ctx=ctx, phi=phi, weight=weight, h=h):
                omega = ctx.rumin_d(phi)
                require(bool(omega), f"d_c phi vanished in degree {h}")
                require(not ctx.rumin_d(omega), f"d_c omega != 0 in degree {h}")
                K = homotopy_exact.rumin_homotopy_K(ctx, weight, omega)
                require(ctx.project_core(K) == K, f"K omega not in E0^{h - 1}")
                require(not (omega - ctx.rumin_d(K)), f"omega != d_c K omega in degree {h}")

            wl.ops.append(Op(f"primitive n={n} h={h}", primitive))

    for n in (2, 3):
        for k in (1, 2, 3):
            omega = inputs.form(n, k, (2, 3), 2, "coord")

            def cone(omega=omega, n=n, k=k):
                require(not euclidean_residual(bump, omega), f"Euclidean residual n={n} k={k}")

            wl.ops.append(Op(f"cone homotopy n={n} k={k}", cone))
    return wl


# -- grid-probes -----------------------------------------------------------------


def homogeneous_dim(n: int) -> int:
    return 2 * n + 2


def poincare_exponent(n: int, h: int, p: float, q: float) -> float:
    Q = homogeneous_dim(n)
    return Q / q - Q / p + (2 if h == n + 1 else 1)


def check_numeric(n: int, code: int, rows: list) -> None:
    require(code == 0, f"numeric --n {n} exited {code}")
    Q = homogeneous_dim(n)
    checks = rows_by_check(rows)
    conv = [r for c, rs in checks.items() if c.startswith("derivative convergence") for r in rs]
    require(len(conv) == 2 * n, "derivative convergence rows")
    for r in conv:
        require(r["observed_order"] >= 1.8, f"{r['check']}: order {r['observed_order']}")
    decay = checks.get("kernel decay slope", [])
    require(len(decay) == 2, "kernel decay rows")
    for r in decay:
        want = r["mu"] - Q
        require(abs(r["fitted_slope"] - want) <= 0.05 * abs(want),
                f"decay slope {r['fitted_slope']} vs {want}")
    for check, tol in (("critical L^p-L^q invariance", 0.05),
                       ("scalar Sobolev quotient invariance", 0.02)):
        (r,) = checks[check]
        spread = max(r["ratios"]) / min(r["ratios"]) - 1.0
        require(spread <= tol, f"{check}: spread {spread}")
    (off,) = checks["off-critical drift (negative control)"]
    steps = [b - a for a, b in zip(off["ratios"], off["ratios"][1:])]
    require(all(s > 0 for s in steps) or all(s < 0 for s in steps), "off-critical ratios flat")
    (scan,) = checks["fundamental-solution gauge scan"]
    best = min(scan["residuals"], key=scan["residuals"].get)
    require(float(best) == 16.0, f"gauge scan best at t-weight {best}")


def scaling_op(ctx: RuminContext, omega: Form, h: int, p: float, q: float, resolution: int,
               expected: float | None = None) -> Op:
    """Poincare quotient exponent of a closed form, against Q/q - Q/p + 1
    (+ 2 at h = n + 1) unless ``expected`` overrides it."""
    n = ctx.n
    want = poincare_exponent(n, h, p, q) if expected is None else expected

    def run():
        probe = homotopy_exact.scaling_probe(ctx, omega, p, q, resolution=resolution)
        got = probe["fitted_exponent"]
        require(abs(got - want) <= 0.02 * max(abs(want), 1.0),
                f"Poincare exponent {got} vs {want} (n={n}, h={h})")

    return Op(f"scaling n={n} h={h} p={p} q={q:g}", run)


def grid_probes(seed: int) -> Workload:
    """The ``numeric --n 1`` suite, n = 2 flow-derivative convergence at small
    resolutions, and Poincare scaling exponents of seeded closed forms.

    The convergence runs, the steadiest operations here, outnumber the
    rest, so that the median operation is one of them. The small scaling
    probes do much of their work in exact arithmetic, whose speed drifts
    with the host; as the median they spread 26 % between runs."""
    inputs = Inputs(seed)
    wl = Workload(calibrated=False)
    wl.ops.append(cli_op("cli numeric --n 1", ["numeric", "--n", "1", "--seed", str(seed)],
                         check_numeric))
    for axis in (1, 2, 3, 4):

        def convergence(axis=axis):
            conv = grid.derivative_convergence(2, axis, resolutions=(8, 10, 12))
            require(conv["observed_order"] >= 1.8, f"W_{axis} order {conv['observed_order']}")

        wl.ops.append(Op(f"convergence n=2 W_{axis}", convergence))
    for n, resolution in ((1, 20), (2, 10)):
        ctx = RuminContext(n)
        Q = homogeneous_dim(n)
        # p = q = 2 in degree 1; across the middle the pair with 1/2 - 1/q = 1/Q
        for h, q in ((1, 2.0), (n + 1, 2 * Q / (Q - 2))):
            omega = ctx.rumin_d(inputs.section(ctx, h - 1, (1, 2), 2))
            wl.ops.append(scaling_op(ctx, omega, h, 2.0, q, resolution))
    return wl


WORKLOADS = {
    "exact-complex": exact_complex,
    "form-homotopy": form_homotopy,
    "grid-probes": grid_probes,
}
