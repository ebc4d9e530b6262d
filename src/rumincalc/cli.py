"""Command-line frontend: construction, verification suites, experiments.

Subcommands
-----------
basis     dimension table of the core spaces, checked against the
          brute-force rank oracle, with duality and the alternating sum.
verify    the exact identity suite: d_c^2 = 0, the sub-Laplacian
          identity, Laplacian commutation, and every d_c entry homogeneous
          of weight 1 (2 out of degree n), which fixes the order of its
          commutators with multiplications and keeps T off the multiplier.
homotopy  exact homotopy residual suites (Euclidean and intrinsic) and the
          Poincare-quotient scaling probe.
numeric   grid experiments: derivative convergence, kernel decay slopes,
          critical-exponent invariance and the scalar Sobolev quotient;
          then the exact fundamental-solution gauge check, which must find
          Folland's t weight 16 and no other.

Each subcommand takes only the flags it reads (``FLAGS``), spelled in full.
Reports are JSON lines on stdout (optionally teed to --json and flattened
to --csv). Exit codes: 0 on success, 1 when an exact identity fails, the
arguments are invalid, a report file cannot be written or stdout is closed
before the report ends, 2 when a numeric tolerance is missed under --strict
(soft warning otherwise).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
from fractions import Fraction

from .envelope import EnvOp
from .exterior_weights import core_dimension_oracle
from .forms import random_form, random_section
from .group_geometry import homogeneous_dimension
from .rumin_complex import (
    OperatorMatrix,
    RuminContext,
    entry_audit,
    first_difference,
    laplacian_commutation_report,
    term_difference,
)


# retries for a nonzero random closed section before a hard failure
MAX_DRAWS = 20
# the smallest grid on which every grid probe runs
MIN_GRID = 8
# the most cells a numeric or homotopy run may put in one grid: 32^5, 256 MiB per
# float array
MAX_GRID_CELLS = 2 ** 25
# the highest degree of random polynomial data: homotopy at n = 3, --grid 8
# takes about 5 s at 8 on a 2-core machine
MAX_POLY_DEGREE = 8


ALL = ("basis", "verify", "homotopy", "numeric")
# each flag once: the subcommands that take it and its argparse options
FLAGS = (
    ("--n", ALL, dict(type=int, default=1, help="group index (1..3)")),
    ("--h", ("verify", "homotopy"), dict(type=int, default=None, help="restrict to one degree")),
    ("--p", ("homotopy", "numeric"),
     dict(type=float, default=2.0, help="source exponent (homotopy: >= 1; numeric: 1 < p < Q)")),
    ("--q", ("homotopy",), dict(type=float, default=2.0, help="target exponent (>= 1)")),
    ("--lambda", ("homotopy",),
     dict(dest="lam", type=float, default=2.0, help="domain-loss factor (> 1)")),
    ("--poly-degree", ("homotopy",),
     dict(type=int, default=3, help="degree cap for random polynomial data")),
    ("--grid", ("homotopy", "numeric"),
     dict(type=int, default=20, help=f"grid resolution (>= {MIN_GRID})")),
    # verify and numeric draw nothing at random; benchmarks/workloads.py:177-178
    # and benchmarks/selftest.py:38 pass verify --seed, workloads.py:335 numeric --seed
    ("--seed", ("verify", "homotopy", "numeric"), dict(type=int, default=0, help="RNG seed")),
    ("--strict", ("homotopy", "numeric"),
     dict(action="store_true", help="numeric tolerance misses exit 2 instead of warning")),
    ("--json", ALL, dict(dest="json_path", help="also write JSON lines to this path")),
    ("--csv", ALL, dict(dest="csv_path", help="flatten scalar fields to CSV at this path")),
    # benchmarks/selftest.py:42 passes it to verify
    ("--inject-delta-sign-fault", ("verify",), dict(action="store_true", help=argparse.SUPPRESS)),
)


def _convergence_resolutions(grid: int) -> tuple:
    """The grids of numeric's derivative convergence runs."""
    return (grid, grid * 3 // 2, grid * 2)


def _probe_resolution(grid: int) -> int:
    """The grid of numeric's kernel decay probe."""
    return max(grid, 32)


class Reporter:
    """Collects JSON-line rows, mirrors them to files, tracks exit status.

    Every row carries the subcommand as "report" and the group index "n";
    a row may override "report".
    """

    def __init__(self, config: argparse.Namespace):
        self.config = config
        self.rows = []
        self.hard_failures = 0
        self.soft_misses = 0

    def emit(self, row: dict) -> None:
        row = {"report": self.config.command, "n": self.config.n, **row}
        self.rows.append(row)
        print(json.dumps(row, sort_keys=True, default=str))

    def hard(self, ok: bool) -> bool:
        if not ok:
            self.hard_failures += 1
        return ok

    def soft(self, ok: bool) -> bool:
        if not ok:
            self.soft_misses += 1
        return ok

    def miss(self, row: dict, ok_key: str, exc: Exception) -> None:
        """The soft miss of a probe that raised: ``ok_key`` is false and the
        reason names the exception."""
        self.soft(False)
        self.emit({**row, ok_key: False, "reason": f"{type(exc).__name__}: {exc}"})

    def finish(self) -> int:
        try:
            if self.config.json_path:
                with open(self.config.json_path, "w") as fh:
                    for row in self.rows:
                        fh.write(json.dumps(row, sort_keys=True, default=str) + "\n")
            if self.config.csv_path:
                flat = [
                    {k: v for k, v in row.items() if isinstance(v, (str, int, float, bool))}
                    for row in self.rows
                ]
                keys = sorted({k for row in flat for k in row})
                with open(self.config.csv_path, "w", newline="") as fh:
                    writer = csv.DictWriter(fh, fieldnames=keys)
                    writer.writeheader()
                    writer.writerows(flat)
        except OSError as exc:
            # the rows are already on stdout; only the copy is lost
            print(f"error: cannot write the report file: {exc}", file=sys.stderr)
            return 1
        if self.hard_failures:
            return 1
        # only the subcommands with soft rows take --strict
        if self.soft_misses and self.config.strict:
            return 2
        return 0


def _degrees(cfg: argparse.Namespace, top: int, lowest: int = 0) -> list:
    if cfg.h is not None:
        return [cfg.h]
    return list(range(lowest, top + 1))


# -- subcommands -----------------------------------------------------------


def cmd_basis(cfg: argparse.Namespace) -> int:
    rep = Reporter(cfg)
    ctx = RuminContext(cfg.n)
    dims = ctx.core_dims()
    oracle = [core_dimension_oracle(cfg.n, h) for h in range(len(dims))]
    for h, (got, want) in enumerate(zip(dims, oracle)):
        basis = [str(v) for v in ctx.cores[h].basis]
        rep.hard(got == want)
        rep.emit({"h": h, "dimension": got, "oracle": want, "match": got == want, "basis": basis})
    duality = all(dims[h] == dims[len(dims) - 1 - h] for h in range(len(dims)))
    alternating = sum((-1) ** h * d for h, d in enumerate(dims))
    rep.hard(duality)
    rep.hard(alternating == 0)
    rep.emit({"report": "basis-summary", "dimensions": dims, "duality": duality,
              "alternating_sum": alternating})
    return rep.finish()


def cmd_verify(cfg: argparse.Namespace) -> int:
    rep = Reporter(cfg)
    ctx = RuminContext(cfg.n)
    degrees = _degrees(cfg, 2 * cfg.n)

    for h in degrees:
        square = ctx.rumin_d_matrix(h + 1).compose(ctx.rumin_d_matrix(h))
        ok = square.is_zero()
        rep.hard(ok)
        row = {"check": f"d_c^2 = 0 out of degree {h}", "status": "exact-zero" if ok else "failed"}
        if not ok:
            zero = OperatorMatrix.zero(cfg.n, h, h + 2, square.rows, square.cols)
            row["witness"] = {"degree": h, **first_difference(square, zero)}
        rep.emit(row)

    audits = [entry_audit(ctx, h) for h in degrees]
    for h, audit in zip(degrees, audits):
        ok = rep.hard(audit["homogeneous"])
        row = {
            "check": f"entry audit at degree {h}",
            "status": "exact" if ok else "failed",
            "expected_weight": audit["expected_weight"],
            "nonzero_entries": audit["nonzero_entries"],
        }
        if not ok:
            row["witness"] = audit["witness"]
        rep.emit(row)

    lap0 = ctx.rumin_delta_d(0).entries[0].get(0, EnvOp.zero(cfg.n))
    if cfg.inject_delta_sign_fault:
        lap0 = -lap0
    expected = EnvOp.zero(cfg.n)
    for j in range(2 * cfg.n):
        w = EnvOp.generator(cfg.n, j)
        expected = expected + w * w
    got = lap0.scale(Fraction(-1))
    ok = got == expected
    rep.hard(ok)
    row = {
        "check": "-Delta_0 = sum W_j^2",
        "status": "exact" if ok else "failed",
        "fault_injected": cfg.inject_delta_sign_fault,
    }
    if not ok:
        row["witness"] = term_difference(got, expected)
    rep.emit(row)

    commutation = laplacian_commutation_report(ctx)
    for c in commutation["checks"]:
        rep.hard(c["exact_zero"])
        row = {"check": c["identity"], "status": "exact-zero" if c["exact_zero"] else "failed"}
        if "witness" in c:
            row["witness"] = c["witness"]
        rep.emit(row)

    # homogeneous entries make [d_c, zeta] free of T zeta, of order one below
    # the largest PBW order of an entry for generic zeta (``entry_audit``)
    ok = rep.hard(all(audit["homogeneous"] for audit in audits))
    rep.emit({
        "check": "[d_c, zeta] order and T-zeta freedom",
        "entries": sum(audit["nonzero_entries"] for audit in audits),
        "max_order": max(audit["max_order"] for audit in audits) - 1,
        "status": "exact" if ok else "failed",
    })
    return rep.finish()


def cmd_homotopy(cfg: argparse.Namespace) -> int:
    from .homotopy_exact import (
        AveragingWeight,
        admissible,
        euclidean_homotopy_residual,
        rumin_homotopy_residual,
        rumin_primitive_residual,
        scaling_probe,
    )

    rep = Reporter(cfg)
    rng = random.Random(cfg.seed)
    n = cfg.n
    point = AveragingWeight.point_mass()
    bump = AveragingWeight.bump(Fraction(1, 3))

    def zero_row(check: str, residuals: list) -> None:
        """A hard row: every residual must be exactly zero, and a row with none
        fails with a reason. A failed row names a witness: the first nonzero
        residual's trial (its index among the row's trials), its first coframe
        mask, and that coefficient's first exponent, in sorted order, with its
        coefficient."""
        failed = [trial for trial, r in enumerate(residuals) if r]
        ok = rep.hard(bool(residuals) and not failed)
        row = {"check": check, "trials": len(residuals), "status": "exact-zero" if ok else "failed"}
        if not residuals:
            row["reason"] = "no nonzero section was drawn"
        if failed:
            coeffs = residuals[failed[0]].coeffs
            mask = min(coeffs)
            exp = min(coeffs[mask].terms)
            row["witness"] = {
                "trial": failed[0],
                "mask": mask,
                "exponent": list(exp),
                "coefficient": str(coeffs[mask].terms[exp]),
            }
        rep.emit(row)

    residuals = []
    for k in (1, 2, 3):
        for _ in range(5):
            omega = random_form(rng, n, k, min(cfg.poly_degree, 4), frame="coord")
            if omega:
                residuals += [euclidean_homotopy_residual(w, omega) for w in (point, bump)]
    zero_row("omega - d K omega - K d omega = 0 (Euclidean)", residuals)

    ctx = RuminContext(n)
    residuals = []
    for h in _degrees(cfg, 2 * n + 1, lowest=1):
        for trial in range(3):
            omega = ctx.rumin_d(random_section(rng, ctx, h - 1, cfg.poly_degree))
            if omega:
                weight = bump if trial % 2 else point
                residuals.append(rumin_primitive_residual(ctx, weight, omega))
    zero_row("omega = d_c K omega on closed sections", residuals)

    h_gap = 1 if cfg.h is None else cfg.h
    rep.emit({
        "check": "exponent admissibility",
        "h": h_gap,
        "p": cfg.p,
        "q": cfg.q,
        "admissible": admissible(n, h_gap, cfg.p, cfg.q),
    })

    probe_degrees = [cfg.h] if cfg.h is not None else sorted({1, n + 1})
    for h in probe_degrees:
        for _ in range(MAX_DRAWS):
            omega = ctx.rumin_d(random_section(rng, ctx, h - 1, 2))
            if omega:
                break
        else:
            rep.hard(False)
            rep.emit({
                "check": "Poincare quotient scaling exponent",
                "h": h,
                "status": "failed",
                "reason": f"no nonzero closed {h}-section in {MAX_DRAWS} draws",
            })
            continue
        row = {"check": "Poincare quotient scaling exponent", "h": h, "p": cfg.p, "q": cfg.q}
        try:
            probe = scaling_probe(ctx, omega, cfg.p, cfg.q, lam=Fraction(cfg.lam),
                                  resolution=cfg.grid)
        except (ValueError, OverflowError) as exc:
            # a quotient of 0 on a coarse grid, or a ball too large for floats
            rep.miss(row, "within_2pct", exc)
            continue
        ok = probe["relative_error"] <= 0.02
        rep.soft(ok)
        rep.emit({
            **row,
            "expected_exponent": probe["expected_exponent"],
            "fitted_exponent": probe["fitted_exponent"],
            "relative_error": probe["relative_error"],
            "within_2pct": ok,
        })

    # drawn after every other row, so a fixed seed leaves their output unchanged
    residuals = []
    for h in _degrees(cfg, 2 * n + 1):
        for trial in range(2):
            omega = random_section(rng, ctx, h, cfg.poly_degree)
            if omega:
                weight = bump if trial % 2 else point
                residuals.append(rumin_homotopy_residual(ctx, weight, omega))
    zero_row("omega = d_c K omega + K d_c omega on E0 sections", residuals)
    return rep.finish()


def cmd_numeric(cfg: argparse.Namespace) -> int:
    from .grid import derivative_convergence
    from .kernels import (
        bump_grid,
        critical_exponent,
        decay_slope_probe,
        fundamental_gauge_scan,
        lp_lq_probe,
        scalar_sobolev_check,
    )

    rep = Reporter(cfg)
    n = cfg.n

    resolutions = _convergence_resolutions(cfg.grid)
    for i in range(1, 2 * n + 1):
        conv = derivative_convergence(n, i, resolutions=resolutions)
        ok = conv["observed_order"] >= 1.8
        rep.soft(ok)
        rep.emit({
            "check": f"derivative convergence along W_{i}",
            "resolutions": list(resolutions),
            "errors": conv["errors"],
            "boundary_fractions": conv["boundary_fractions"],
            "observed_order": conv["observed_order"],
            "order_at_least_1.8": ok,
        })

    for mu in (1.0, 2.0):
        probe = decay_slope_probe(n, mu, resolution=_probe_resolution(cfg.grid))
        ok = probe["relative_error"] <= 0.05
        rep.soft(ok)
        rep.emit({
            "check": "kernel decay slope",
            "mu": mu,
            "expected_slope": probe["expected_slope"],
            "fitted_slope": probe["fitted_slope"],
            "relative_error": probe["relative_error"],
            "within_5pct": ok,
        })

    # alpha = 1, so --p lies in (1, Q/alpha) and q_critical is finite
    alpha, p = 1.0, cfg.p
    q_critical = critical_exponent(n, alpha, p)
    critical_row = {"check": "critical L^p-L^q invariance", "alpha": alpha, "p": p, "q": q_critical}
    off_row = {"check": "off-critical drift (negative control)", "q": 0.75 * q_critical}
    try:
        # one convolution per dilate serves both rows
        critical, off = lp_lq_probe(n, alpha, p, qs=(None, off_row["q"]), resolution=cfg.grid)
    except ValueError as exc:
        # an L^q norm beyond the float range: no NaN or Infinity may reach the rows
        rep.miss(critical_row, "within_5pct", exc)
        rep.miss(off_row, "monotone", exc)
    else:
        ok = critical["max_relative_spread"] <= 0.05
        rep.soft(ok)
        rep.emit({
            **critical_row,
            "ratios": [r["ratio"] for r in critical["rows"]],
            "max_relative_spread": critical["max_relative_spread"],
            "within_5pct": ok,
        })
        ratios = [r["ratio"] for r in off["rows"]]
        monotone = all(a < b for a, b in zip(ratios, ratios[1:])) or all(
            a > b for a, b in zip(ratios, ratios[1:])
        )
        rep.soft(monotone)
        rep.emit({
            **off_row,
            "ratios": ratios,
            "expected_drift_exponent": off["expected_drift_exponent"],
            "monotone": monotone,
        })

    sob_row = {"check": "scalar Sobolev quotient invariance", "p": p, "q": q_critical}
    u = bump_grid(n, 1.0, cfg.grid, 0.5)
    try:
        sob = scalar_sobolev_check(n, p, u)
    except ValueError as exc:
        # a norm of 0 or beyond the float range measures nothing
        rep.miss(sob_row, "within_2pct", exc)
    else:
        ok = sob["max_relative_spread"] <= 0.02
        rep.soft(ok)
        rep.emit({
            **sob_row,
            "ratios": [r["ratio"] for r in sob["rows"]],
            "boundary_fractions": [r["boundary_fraction"] for r in sob["rows"]],
            "max_relative_spread": sob["max_relative_spread"],
            "within_2pct": ok,
        })

    # a hard row: Folland's remainder R_a is zero at a = 16 and at no other weight
    scan = fundamental_gauge_scan(n)
    remainders = {r["t_weight"]: r["remainder"] for r in scan["rows"]}
    ok = rep.hard(all((not r) == (a == 16.0) for a, r in remainders.items()))
    row = {
        "check": "fundamental-solution gauge scan",
        "residuals": {str(r["t_weight"]): r["residual"] for r in scan["rows"]},
        "best_t_weight": scan["best_t_weight"],
        "expected_t_weight": 16.0,
        "match": ok,
    }
    if not ok:
        # the first term of R_16 in sorted exponent order; with R_16 zero,
        # the first other weight whose remainder is zero too
        r16 = remainders[16.0]
        if r16:
            exp = min(r16.terms)
            row["witness"] = {"t_weight": 16.0, "exponent": list(exp),
                              "coefficient": str(r16.terms[exp])}
        else:
            zero = next(a for a, r in remainders.items() if not r and a != 16.0)
            row["witness"] = {"t_weight": zero, "coefficient": "0"}
    rep.emit(row)
    return rep.finish()


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumincalc",
        description="Exact intrinsic-complex construction and desk-scale probes on H^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("basis", "core dimension table with oracle cross-check"),
        ("verify", "exact identity suite"),
        ("homotopy", "homotopy residuals and Poincare scaling"),
        ("numeric", "grid experiments"),
    ):
        # no prefix forms: a subcommand without --h would read it as --help
        cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, commands, options in FLAGS:
            if name in commands:
                cmd.add_argument(flag, **options)
    return parser


def _argument_error(args) -> str | None:
    """The first invalid argument, described in one line, or None. Only the
    flags that the subcommand takes are on ``args``."""
    if args.n < 1 or args.n > 3:
        return "--n must be 1, 2, or 3"
    if args.command == "homotopy":
        if not all(map(math.isfinite, (args.p, args.q, args.lam))):
            return "--p, --q and --lambda must be finite"
        if args.lam <= 1.0:
            return "--lambda must exceed 1"
    if "h" in args and args.h is not None:
        top = 2 * args.n + 1
        low, high = {"verify": (0, top - 1), "homotopy": (1, top)}[args.command]
        if not low <= args.h <= high:
            return f"--h must lie in {low}..{high} for {args.command} at n = {args.n}"
    if "grid" in args:
        if args.grid < MIN_GRID:
            return f"--grid must be at least {MIN_GRID}"
        largest = args.grid
        if args.command == "numeric":
            largest = max(*_convergence_resolutions(args.grid), _probe_resolution(args.grid))
        cells = largest ** (2 * args.n + 1)
        if cells > MAX_GRID_CELLS:
            return (f"{args.command} at n = {args.n}, --grid {args.grid} needs a grid of"
                    f" {cells} cells; the limit is {MAX_GRID_CELLS} (32^5)")
    if args.command == "homotopy" and (args.p < 1.0 or args.q < 1.0):
        return "--p and --q must be at least 1"
    if args.command == "numeric":
        Q = homogeneous_dimension(args.n)
        if not 1.0 < args.p < Q:
            return f"--p must lie strictly between 1 and Q = {Q} for numeric at n = {args.n}"
    if "poly_degree" in args and not 0 <= args.poly_degree <= MAX_POLY_DEGREE:
        return f"--poly-degree must lie in 0..{MAX_POLY_DEGREE}"
    return None


def _leftover_error(command: str, leftover: str) -> str:
    """The refusal, in one line, of an argument that no parser took."""
    try:
        float(leftover)
        positional = True
    except ValueError:
        positional = not leftover.startswith("-")
    if positional:
        return f"{command} takes no positional argument, got {leftover!r}"
    flag = leftover.split("=")[0]
    if any(flag == name for name, _, _ in FLAGS):
        return f"{flag} does not apply to {command}"
    return f"unknown flag {flag}"


def main(argv=None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
    except SystemExit as exc:
        # usage errors exit 1: exit code 2 means a strict numeric miss
        return 1 if exc.code else 0
    if unknown:
        error = _leftover_error(args.command, unknown[0])
    else:
        error = _argument_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    handler = {
        "basis": cmd_basis,
        "verify": cmd_verify,
        "homotopy": cmd_homotopy,
        "numeric": cmd_numeric,
    }[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: the rest of the report
        # has nowhere to go; point stdout at the null device so the flush at
        # exit cannot fail again, and exit 1 with no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
