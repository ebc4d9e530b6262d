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
# takes about 3 s at 8 on a 2-core machine
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


class Reporter:
    """Collects JSON-line rows, mirrors them to files, tracks exit status.

    Every row carries the subcommand as "report" and the group index "n";
    a row may override "report". A row with a verdict goes out through the
    call that writes and counts it: ``exact`` and ``agrees`` for hard rows,
    ``probe`` for soft ones.
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

    def exact(self, row: dict, ok: bool, witness=None, passed: str = "exact") -> None:
        """A hard row whose "status" is ``passed``, or "failed". A failed row
        names ``witness()``, a zero-argument callable called only then."""
        self._hard({**row, "status": passed if ok else "failed"}, ok, witness)

    def agrees(self, row: dict, key: str, ok: bool, witness=None) -> None:
        """A hard row whose verdict is the bool ``key``, with a witness as in ``exact``."""
        self._hard({**row, key: ok}, ok, witness)

    def _hard(self, row: dict, ok: bool, witness) -> None:
        if not ok:
            self.hard_failures += 1
            if witness:
                row["witness"] = witness()
        self.emit(row)

    def probe(self, row: dict, key: str, ok: bool, error: Exception | None = None) -> None:
        """A soft row whose verdict is the bool ``key``. A probe that raised
        ``error`` misses, and the row's "reason" names the exception."""
        if error is not None:
            row = {**row, "reason": f"{type(error).__name__}: {error}"}
        self.soft_misses += not ok
        self.emit({**row, key: ok})

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
        rep.agrees({"h": h, "dimension": got, "oracle": want, "basis": basis}, "match", got == want)
    duality = all(dims[h] == dims[len(dims) - 1 - h] for h in range(len(dims)))
    alternating = sum((-1) ** h * d for h, d in enumerate(dims))
    # duality pairs the 2n + 2 degrees as h and 2n + 1 - h, of opposite parity,
    # so the alternating sum is 0 whenever duality holds: duality is the verdict
    rep.agrees({"report": "basis-summary", "dimensions": dims, "alternating_sum": alternating},
               "duality", duality)
    return rep.finish()


def cmd_verify(cfg: argparse.Namespace) -> int:
    rep = Reporter(cfg)
    ctx = RuminContext(cfg.n)
    degrees = _degrees(cfg, 2 * cfg.n)

    for h in degrees:
        square = ctx.rumin_d_matrix(h + 1).compose(ctx.rumin_d_matrix(h))
        zero = OperatorMatrix.zero(cfg.n, h, h + 2, square.rows, square.cols)
        rep.exact({"check": f"d_c^2 = 0 out of degree {h}"}, square.is_zero(),
                  lambda: {"degree": h, **first_difference(square, zero)}, passed="exact-zero")

    audits = [entry_audit(ctx, h) for h in degrees]
    for h, audit in zip(degrees, audits):
        rep.exact({
            "check": f"entry audit at degree {h}",
            "expected_weight": audit["expected_weight"],
            "nonzero_entries": audit["nonzero_entries"],
        }, audit["homogeneous"], lambda: audit["witness"])

    lap0 = ctx.rumin_delta_d(0).entries[0].get(0, EnvOp.zero(cfg.n))
    if cfg.inject_delta_sign_fault:
        lap0 = -lap0
    expected = EnvOp.zero(cfg.n)
    for j in range(2 * cfg.n):
        w = EnvOp.generator(cfg.n, j)
        expected = expected + w * w
    got = lap0.scale(Fraction(-1))
    rep.exact({"check": "-Delta_0 = sum W_j^2", "fault_injected": cfg.inject_delta_sign_fault},
              got == expected, lambda: term_difference(got, expected))

    for c in laplacian_commutation_report(ctx)["checks"]:
        rep.exact({"check": c["identity"]}, c["exact_zero"], lambda: c["witness"],
                  passed="exact-zero")

    # homogeneous entries make [d_c, zeta] free of T zeta, of order one below
    # the largest PBW order of an entry for generic zeta (``entry_audit``)
    rep.exact({
        "check": "[d_c, zeta] order and T-zeta freedom",
        "entries": sum(audit["nonzero_entries"] for audit in audits),
        "max_order": max(audit["max_order"] for audit in audits) - 1,
    }, all(audit["homogeneous"] for audit in audits))
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
        row = {"check": check, "trials": len(residuals)}
        if not residuals:
            row["reason"] = "no nonzero section was drawn"

        def witness() -> dict:
            coeffs = residuals[failed[0]].coeffs
            mask = min(coeffs)
            exp = min(coeffs[mask].terms)
            return {"trial": failed[0], "mask": mask, "exponent": list(exp),
                    "coefficient": str(coeffs[mask].terms[exp])}

        rep.exact(row, bool(residuals) and not failed, witness if failed else None,
                  passed="exact-zero")

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
            rep.exact({"check": "Poincare quotient scaling exponent", "h": h,
                       "reason": f"no nonzero closed {h}-section in {MAX_DRAWS} draws"}, False)
            continue
        row = {"check": "Poincare quotient scaling exponent", "h": h, "p": cfg.p, "q": cfg.q}
        try:
            probe = scaling_probe(ctx, omega, cfg.p, cfg.q, lam=Fraction(cfg.lam),
                                  resolution=cfg.grid)
        except (ValueError, OverflowError) as exc:
            # a quotient of 0 on a coarse grid, or a ball too large for floats
            rep.probe(row, "within_2pct", False, exc)
            continue
        rep.probe({
            **row,
            "expected_exponent": probe["expected_exponent"],
            "fitted_exponent": probe["fitted_exponent"],
            "relative_error": probe["relative_error"],
        }, "within_2pct", probe["relative_error"] <= 0.02)

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
        rep.probe({
            "check": f"derivative convergence along W_{i}",
            "resolutions": list(resolutions),
            "errors": conv["errors"],
            "boundary_fractions": conv["boundary_fractions"],
            "observed_order": conv["observed_order"],
        }, "order_at_least_1.8", conv["observed_order"] >= 1.8)

    for mu in (1.0, 2.0):
        probe = decay_slope_probe(n, mu, resolution=max(cfg.grid, 32))
        rep.probe({
            "check": "kernel decay slope",
            "mu": mu,
            "expected_slope": probe["expected_slope"],
            "fitted_slope": probe["fitted_slope"],
            "relative_error": probe["relative_error"],
        }, "within_5pct", probe["relative_error"] <= 0.05)

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
        rep.probe(critical_row, "within_5pct", False, exc)
        rep.probe(off_row, "monotone", False, exc)
    else:
        rep.probe({
            **critical_row,
            "ratios": [r["ratio"] for r in critical["rows"]],
            "max_relative_spread": critical["max_relative_spread"],
        }, "within_5pct", critical["max_relative_spread"] <= 0.05)
        ratios = [r["ratio"] for r in off["rows"]]
        monotone = all(a < b for a, b in zip(ratios, ratios[1:])) or all(
            a > b for a, b in zip(ratios, ratios[1:])
        )
        rep.probe({**off_row, "ratios": ratios,
                   "expected_drift_exponent": off["expected_drift_exponent"]}, "monotone", monotone)

    sob_row = {"check": "scalar Sobolev quotient invariance", "p": p, "q": q_critical}
    u = bump_grid(n, 1.0, cfg.grid, 0.5)
    try:
        sob = scalar_sobolev_check(n, p, u)
    except ValueError as exc:
        # a norm of 0 or beyond the float range measures nothing
        rep.probe(sob_row, "within_2pct", False, exc)
    else:
        rep.probe({
            **sob_row,
            "ratios": [r["ratio"] for r in sob["rows"]],
            "boundary_fractions": [r["boundary_fraction"] for r in sob["rows"]],
            "max_relative_spread": sob["max_relative_spread"],
        }, "within_2pct", sob["max_relative_spread"] <= 0.02)

    # a hard row: Folland's remainder R_a is zero at a = 16 and at no other weight
    scan = fundamental_gauge_scan(n)
    remainders = {r["t_weight"]: r["remainder"] for r in scan["rows"]}

    def witness() -> dict:
        # the first term of R_16 in sorted exponent order; with R_16 zero,
        # the first other weight whose remainder is zero too
        r16 = remainders[16.0]
        if r16:
            exp = min(r16.terms)
            return {"t_weight": 16.0, "exponent": list(exp), "coefficient": str(r16.terms[exp])}
        zero = next(a for a, r in remainders.items() if not r and a != 16.0)
        return {"t_weight": zero, "coefficient": "0"}

    rep.agrees({
        "check": "fundamental-solution gauge scan",
        "residuals": {str(r["t_weight"]): r["residual"] for r in scan["rows"]},
        "best_t_weight": scan["best_t_weight"],
        "expected_t_weight": 16.0,
    }, "match", all((not r) == (a == 16.0) for a, r in remainders.items()), witness)
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
            # the decay probe's lattice, (r/2)^(2n) x r cells for r = max(grid, 32),
            # passes the limit wherever the finest convergence grid does
            largest = max(_convergence_resolutions(args.grid))
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
