import argparse
import ast
import csv
import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from rumincalc import cli, homotopy_exact, kernels
from rumincalc.envelope import EnvOp
from rumincalc.forms import Form
from rumincalc.homotopy_exact import AveragingWeight, scaling_probe
from rumincalc.polynomials import Poly
from rumincalc.rumin_complex import OperatorMatrix, RuminContext


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, rows


def test_basis_subcommand(capsys):
    code, rows = run_cli(capsys, ["basis", "--n", "1"])
    assert code == 0
    dims = {r["h"]: r["dimension"] for r in rows if r["report"] == "basis"}
    assert dims == {0: 1, 1: 2, 2: 2, 3: 1}
    assert all(r["match"] for r in rows if r["report"] == "basis")
    summary = [r for r in rows if r["report"] == "basis-summary"]
    assert summary[0]["alternating_sum"] == 0
    assert summary[0]["duality"] is True
    assert summary[0]["dimensions"] == [1, 2, 2, 1]


def test_basis_lists_the_covector_basis(capsys):
    _, rows = run_cli(capsys, ["basis", "--n", "1"])
    degree_one = [r for r in rows if r["report"] == "basis" and r["h"] == 1]
    assert degree_one[0]["basis"]  # printable covector strings
    assert any("w1" in b for b in degree_one[0]["basis"])


def test_basis_rejects_degree_flag(capsys):
    # the dimension table always covers the whole complex, so a degree in
    # range is refused as firmly as one out of range
    code = cli.main(["basis", "--n", "2", "--h", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert not captured.out
    assert captured.err == "error: --h does not apply to basis\n"


def test_verify_subcommand(capsys):
    code, rows = run_cli(capsys, ["verify", "--n", "1", "--seed", "3"])
    assert code == 0
    checks = [r["check"] for r in rows]
    assert any(c.startswith("d_c^2 = 0") for c in checks)
    assert any(c.startswith("entry audit") for c in checks)
    assert "-Delta_0 = sum W_j^2" in checks
    assert any("Delta" in c and "d_c" in c for c in checks)
    assert "[d_c, zeta] order and T-zeta freedom" in checks
    assert all(r["status"] != "failed" for r in rows)


def test_verify_single_degree(capsys):
    code, rows = run_cli(capsys, ["verify", "--n", "1", "--h", "1"])
    assert code == 0
    squares = [r for r in rows if r["check"].startswith("d_c^2")]
    assert [r["check"] for r in squares] == ["d_c^2 = 0 out of degree 1"]


def test_verify_fault_injection_fails(capsys):
    code, rows = run_cli(capsys, ["verify", "--n", "1", "--inject-delta-sign-fault"])
    assert code == 1
    bad = [r for r in rows if r["check"] == "-Delta_0 = sum W_j^2"]
    assert bad[0]["status"] == "failed"
    assert bad[0]["fault_injected"] is True
    # the first PBW exponent in sorted order whose coefficients differ: Y_1^2
    assert bad[0]["witness"] == {"exponent": [0, 2, 0], "got": "-1", "expected": "1"}
    code, rows = run_cli(capsys, ["verify", "--n", "1"])
    good = [r for r in rows if r["check"] == "-Delta_0 = sum W_j^2"]
    assert code == 0 and good[0]["status"] == "exact" and "witness" not in good[0]


def _assert_first_difference(witness, left, right):
    """The witness names the first entry, in row-major order, where the two
    operator matrices differ, and the first exponent, in sorted order, where
    that entry's coefficients differ."""
    zero = EnvOp.zero(left.n)
    r, col = witness["row"], witness["column"]
    for i in range(r + 1):
        a, b = left.entries[i], right.entries[i]
        for j in sorted(a.keys() | b.keys()):
            if (i, j) < (r, col):
                assert a.get(j, zero) == b.get(j, zero), (i, j)
    x, y = left.entries[r].get(col, zero).terms, right.entries[r].get(col, zero).terms
    exp = tuple(witness["exponent"])
    assert all(x.get(e, 0) == y.get(e, 0) for e in x.keys() | y.keys() if e < exp)
    assert (witness["got"], witness["expected"]) == (str(x.get(exp, 0)), str(y.get(exp, 0)))
    assert x.get(exp, 0) != y.get(exp, 0)


def _plant_t(monkeypatch):
    """Every context's d_c out of degree 0 gets T added to entry (0, 0)."""
    original = RuminContext.rumin_d_matrix

    def patched(self, h):
        mat = original(self, h)
        if h != 0:
            return mat
        entries = [dict(row) for row in mat.entries]
        entries[0][0] = entries[0].get(0, EnvOp.zero(self.n)) + EnvOp.generator(self.n, 2)
        return OperatorMatrix(self.n, 0, 1, entries, mat.shape)

    monkeypatch.setattr(RuminContext, "rumin_d_matrix", patched)


def test_failed_square_and_commutation_rows_name_a_witness(capsys, monkeypatch):
    # T added to entry (0, 0) of d_c out of degree 0 breaks d_c^2 = 0 out of
    # degree 0 and the commutation identities that reach that matrix
    _plant_t(monkeypatch)
    code, rows = run_cli(capsys, ["verify", "--n", "1"])
    assert code == 1
    by_check = {r["check"]: r for r in rows}
    ctx = RuminContext(1)
    d0, d1 = ctx.rumin_d_matrix(0), ctx.rumin_d_matrix(1)
    square = by_check["d_c^2 = 0 out of degree 0"]
    assert square["status"] == "failed" and square["witness"]["degree"] == 0
    _assert_first_difference(square["witness"], d1.compose(d0),
                             OperatorMatrix.zero(1, 0, 2, d1.rows, d0.cols))
    assert "witness" not in by_check["d_c^2 = 0 out of degree 1"]
    crossing = by_check["Delta_1 d_c = (d_c delta_c d_c) Delta_0"]
    assert crossing["status"] == "failed"
    _assert_first_difference(crossing["witness"], ctx.rumin_laplacian(1).compose(d0),
                             ctx.rumin_d_delta(1).compose(d0).compose(ctx.rumin_laplacian(0)))
    identities = [r for r in rows if "Delta_" in r["check"] and "=" in r["check"]
                  and r["check"] != "-Delta_0 = sum W_j^2"]
    assert len(identities) == 6
    for row in identities:
        if row["status"] == "failed":
            assert set(row["witness"]) == {"row", "column", "exponent", "got", "expected"}
        else:
            assert "witness" not in row
    assert sum(r["status"] == "failed" for r in identities) == 4


def test_failed_entry_audit_names_a_witness(capsys, monkeypatch):
    # the control: every degree's entries are homogeneous
    code, rows = run_cli(capsys, ["verify", "--n", "1"])
    assert code == 0
    audits = [r for r in rows if r["check"].startswith("entry audit")]
    assert [r["status"] for r in audits] == ["exact"] * 3
    assert all("witness" not in r for r in audits)
    # T, of weight 2, planted in entry (0, 0) of d_c out of degree 0, whose
    # entries have weight 1
    _plant_t(monkeypatch)
    code, rows = run_cli(capsys, ["verify", "--n", "1"])
    assert code == 1
    by_check = {r["check"]: r for r in rows}
    audit = by_check["entry audit at degree 0"]
    assert audit["status"] == "failed"
    assert audit["witness"] == {"degree": 0, "row": 0, "column": 0,
                                "exponent": [0, 0, 1], "homogeneity": 2}
    for h in (1, 2):
        row = by_check[f"entry audit at degree {h}"]
        assert row["status"] == "exact" and "witness" not in row
    assert by_check["[d_c, zeta] order and T-zeta freedom"]["status"] == "failed"


def test_homotopy_subcommand(capsys):
    code, rows = run_cli(capsys, ["homotopy", "--n", "1", "--grid", "10", "--seed", "1"])
    assert code == 0
    by_check = {r["check"]: r for r in rows}
    assert by_check["omega - d K omega - K d omega = 0 (Euclidean)"]["status"] == "exact-zero"
    assert by_check["omega = d_c K omega on closed sections"]["status"] == "exact-zero"
    chain = by_check["omega = d_c K omega + K d_c omega on E0 sections"]
    assert chain["status"] == "exact-zero" and chain["trials"] > 0
    assert rows[-1] is chain  # drawn last, so the rows above keep their data
    assert by_check["exponent admissibility"]["admissible"] is True
    scaling = [r for r in rows if r["check"] == "Poincare quotient scaling exponent"]
    assert {r["h"] for r in scaling} == {1, 2}
    assert all(r["within_2pct"] for r in scaling)


def test_homotopy_failed_rows_name_a_witness(capsys, monkeypatch):
    # a bump of total mass 2 breaks every residual that uses it; the
    # Euclidean row's witness is read back off the recorded residuals
    moment = AveragingWeight.moment

    def wrong(self, beta, dimension):
        value = moment(self, beta, dimension)
        return 2 * value if self.radius and not any(beta) else value

    monkeypatch.setattr(AveragingWeight, "moment", wrong)
    residual, seen = homotopy_exact.euclidean_homotopy_residual, []

    def recorded(weight, omega):
        seen.append(residual(weight, omega))
        return seen[-1]

    monkeypatch.setattr(homotopy_exact, "euclidean_homotopy_residual", recorded)
    code, rows = run_cli(capsys, ["homotopy", "--n", "1", "--grid", "8", "--seed", "1"])
    assert code == 1
    by_check = {r["check"]: r for r in rows}
    row = by_check["omega - d K omega - K d omega = 0 (Euclidean)"]
    trial = next(i for i, r in enumerate(seen) if r)
    assert trial % 2 == 1  # the point mass, drawn first, keeps its moments
    coeffs = seen[trial].coeffs
    mask = min(coeffs)
    exp = min(coeffs[mask].terms)
    assert row["status"] == "failed" and row["witness"] == {
        "trial": trial,
        "mask": mask,
        "exponent": list(exp),
        "coefficient": str(coeffs[mask].terms[exp]),
    }
    assert Fraction(row["witness"]["coefficient"]) != 0
    for check in ("omega = d_c K omega on closed sections",
                  "omega = d_c K omega + K d_c omega on E0 sections"):
        witness = by_check[check]["witness"]
        assert by_check[check]["status"] == "failed"
        assert set(witness) == {"trial", "mask", "exponent", "coefficient"}
        assert len(witness["exponent"]) == 3 and Fraction(witness["coefficient"]) != 0
    monkeypatch.undo()
    code, rows = run_cli(capsys, ["homotopy", "--n", "1", "--grid", "8", "--seed", "1"])
    assert code == 0 and not any("witness" in r for r in rows)


@pytest.mark.parametrize("argv", [
    ["--n", "1", "--grid", "8", "--poly-degree", "0"],
    ["--n", "1", "--h", "2", "--poly-degree", "1", "--grid", "8", "--seed", "13"],
])
def test_homotopy_row_without_trials_fails(capsys, argv):
    # d_c of every drawn phi is 0 (constants; seed 13's three linear draws),
    # so no closed section reaches the row
    code, rows = run_cli(capsys, ["homotopy", *argv])
    assert code == 1
    (row,) = [r for r in rows if r["check"] == "omega = d_c K omega on closed sections"]
    assert row["trials"] == 0 and row["status"] == "failed"
    assert row["reason"] == "no nonzero section was drawn"


def test_homotopy_exponent_flags(capsys):
    code, rows = run_cli(
        capsys,
        ["homotopy", "--n", "1", "--h", "1", "--p", "2", "--q", "4",
         "--grid", "10", "--seed", "0"],
    )
    assert code == 0
    scaling = [r for r in rows if r["check"] == "Poincare quotient scaling exponent"]
    assert len(scaling) == 1
    assert scaling[0]["p"] == 2.0 and scaling[0]["q"] == 4.0
    assert scaling[0]["within_2pct"]
    # 1/2 - 1/4 lies exactly on the gap 1/Q
    (gap_row,) = [r for r in rows if r["check"] == "exponent admissibility"]
    assert gap_row["admissible"] is True


def test_homotopy_lambda_is_taken_exactly(capsys):
    # rounding 1.004 to a denominator of at most 100 gave lambda = 1, and the
    # Poincare quotient then raised
    code, rows = run_cli(
        capsys, ["homotopy", "--n", "1", "--h", "1", "--lambda", "1.004", "--grid", "8"]
    )
    assert code == 0
    scaling = [r for r in rows if r["check"] == "Poincare quotient scaling exponent"]
    assert len(scaling) == 1 and scaling[0]["fitted_exponent"] is not None


@pytest.mark.parametrize("flags, reason", [
    (["--lambda", "3.7"], "ValueError: Poincare quotient is 0 at resolution 8"),
    (["--lambda", "1e300"], "OverflowError"),
    # the L^p norm of the data overflows: no NaN may reach the JSON rows
    (["--p", "1e300"], "ValueError: Poincare quotient is not finite at p = 1e+300, q = 2.0:"),
    # |K omega| < 1 in the inner ball, so its L^q norm underflows to 0
    (["--q", "1e300"], "ValueError: Poincare quotient is 0 at resolution 8; no slope to fit: "
     "the primitive is nonzero on the inner ball B(e, 1) of 24 cells, but its L^q norm there "
     "underflows to 0 at p = 2.0, q = 1e+300"),
], ids=["3.7-ValueError: Poincare quotient is 0 at resolution 8", "1e300-OverflowError",
        "p-1e300", "q-1e300"])
def test_homotopy_probe_errors_are_soft_misses(capsys, flags, reason):
    argv = ["homotopy", "--n", "1", "--h", "1", *flags, "--grid", "8"]
    for extra, exit_code in (([], 0), (["--strict"], 2)):
        with warnings.catch_warnings():
            # numpy's overflow warnings would reach stderr
            warnings.simplefilter("error", RuntimeWarning)
            code, rows = run_cli(capsys, argv + extra)
        assert code == exit_code
        (row,) = [r for r in rows if r["check"] == "Poincare quotient scaling exponent"]
        assert row["within_2pct"] is False
        assert row["reason"].startswith(reason)
        # the rows after the probe still run
        assert rows[-1]["check"] == "omega = d_c K omega + K d_c omega on E0 sections"


def test_probe_reasons_name_the_cause_and_the_exponents_in_full(capsys):
    # 24 cells lie in the inner ball, so a larger grid cannot help: the L^q
    # norm of the primitive underflows
    code, rows = run_cli(capsys, ["homotopy", "--n", "1", "--q", "1e308", "--grid", "8"])
    assert code == 0
    scaling = [r for r in rows if r["check"] == "Poincare quotient scaling exponent"]
    assert [r["h"] for r in scaling] == [1, 2]
    for row in scaling:
        assert row["reason"] == (
            "ValueError: Poincare quotient is 0 at resolution 8; no slope to fit: the "
            "primitive is nonzero on the inner ball B(e, 1) of 24 cells, but its L^q norm "
            "there underflows to 0 at p = 2.0, q = 1e+308")
    # p = 3.9999999 rounds to 4 under :g, outside numeric's range at n = 1
    code, rows = run_cli(capsys, ["numeric", "--n", "1", "--grid", "8", "--p", "3.9999999"])
    assert code == 0
    reasons = {r["check"]: r["reason"] for r in rows if "reason" in r}
    lp_lq = ("ValueError: L^p-L^q ratio is inf at p = 3.9999999, q = 159999996.70913902, "
             "lambda = 1.0: the L^q norm leaves the float range")
    assert reasons == {
        "critical L^p-L^q invariance": lp_lq,
        "off-critical drift (negative control)": lp_lq,
        "scalar Sobolev quotient invariance": (
            "ValueError: Sobolev ratio is 0.0 at p = 3.9999999, q = 159999996.70913902, "
            "lambda = 1.0: a norm is 0 or leaves the float range"),
    }


def test_numeric_subcommand(capsys):
    code, rows = run_cli(capsys, ["numeric", "--n", "1", "--grid", "12", "--seed", "1"])
    assert code == 0
    checks = [r["check"] for r in rows]
    assert "derivative convergence along W_1" in checks
    assert "derivative convergence along W_2" in checks
    assert "kernel decay slope" in checks
    assert "critical L^p-L^q invariance" in checks
    assert "off-critical drift (negative control)" in checks
    assert "scalar Sobolev quotient invariance" in checks
    assert "fundamental-solution gauge scan" in checks
    for row in rows:
        if row["check"].startswith("derivative convergence"):
            assert len(row["errors"]) == len(row["resolutions"])
            assert len(row["boundary_fractions"]) == len(row["resolutions"])
            assert all(0 <= f < 1 for f in row["boundary_fractions"])
    (sob,) = [r for r in rows if r["check"] == "scalar Sobolev quotient invariance"]
    assert len(sob["boundary_fractions"]) == len(sob["ratios"]) == 2
    assert all(0 < f < 1 for f in sob["boundary_fractions"])
    code, rows_n2 = run_cli(capsys, ["numeric", "--n", "2", "--grid", "8"])
    assert code == 0
    # the exact gauge row comes last at every n, and R_a is zero at a = 16 only
    for n, scan in ((1, rows[-1]), (2, rows_n2[-1])):
        assert scan["check"] == "fundamental-solution gauge scan" and scan["n"] == n
        assert scan["best_t_weight"] == 16.0 and scan["match"] is True
        assert [a for a, r in scan["residuals"].items() if r == 0.0] == ["16.0"]
        assert len(scan["residuals"]) == 7 and "witness" not in scan


def test_gauge_row_names_a_witness_when_it_fails(capsys, monkeypatch):
    # a remainder taken at a + 4 vanishes at a = 12, so R_16 is nonzero and
    # the row names its first term in sorted exponent order
    remainder = kernels.folland_remainder
    monkeypatch.setattr(kernels, "folland_remainder", lambda n, a: remainder(n, a + 4))
    code, rows = run_cli(capsys, ["numeric", "--n", "1", "--grid", "8"])
    assert code == 1
    row = rows[-1]
    r16 = remainder(1, 20)[0]
    exp = min(r16.terms)
    assert row["match"] is False and row["best_t_weight"] == 12.0
    assert row["witness"] == {"t_weight": 16.0, "exponent": list(exp),
                              "coefficient": str(r16.terms[exp])}
    # a remainder that is zero at every weight: the witness is the first
    # other weight whose remainder is zero too
    monkeypatch.setattr(kernels, "folland_remainder",
                        lambda n, a: (Poly.zero(3), remainder(n, a)[1]))
    code, rows = run_cli(capsys, ["numeric", "--n", "1", "--grid", "8"])
    assert code == 1
    assert rows[-1]["match"] is False
    assert rows[-1]["witness"] == {"t_weight": 1.0, "coefficient": "0"}


def _loads(node, *path) -> set:
    """The attributes that a definition loads off ``cfg`` or ``self.config``."""
    read = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            base, names = child.value, []
            while isinstance(base, ast.Attribute):
                names.insert(0, base.attr)
                base = base.value
            if isinstance(base, ast.Name) and (base.id, *names) == path:
                read.add(child.attr)
    return read


def test_each_subcommand_takes_the_flags_it_reads():
    tree = ast.parse(Path(cli.__file__).read_text())
    defs = {d.name: d for d in tree.body if isinstance(d, (ast.FunctionDef, ast.ClassDef))}
    reporter = _loads(defs["Reporter"], "self", "config")
    # the subcommand and --strict, which finish reads only after a soft miss
    assert {"command", "strict"} <= reporter
    taken = {}
    for command in ("basis", "verify", "homotopy", "numeric"):
        handler = defs[f"cmd_{command}"]
        called = {getattr(c.func, "attr", getattr(c.func, "id", None))
                  for c in ast.walk(handler) if isinstance(c, ast.Call)}
        read = _loads(handler, "cfg") | (reporter - {"command", "strict"})
        if "_degrees" in called:
            read |= _loads(defs["_degrees"], "cfg")
        if "probe" in called:
            read.add("strict")
        if command in ("verify", "numeric"):
            read.add("seed")  # the benchmark passes it; neither draws anything
        taken[command] = set(vars(cli.build_parser().parse_args([command]))) - {"command"}
        assert taken[command] == read, command
    assert [len(flags) for flags in taken.values()] == [3, 6, 11, 7]


# the bool keys of soft rows; every other verdict is hard
SOFT_KEYS = ("within_2pct", "within_5pct", "order_at_least_1.8", "monotone")


@pytest.mark.parametrize("argv, exit_code", [
    (["basis", "--n", "1"], 0),
    (["verify", "--n", "1"], 0),
    (["verify", "--n", "1", "--inject-delta-sign-fault"], 1),
    (["homotopy", "--n", "1", "--grid", "8", "--poly-degree", "0"], 1),
    (["homotopy", "--n", "1", "--h", "1", "--lambda", "3.7", "--grid", "8"], 0),
    (["homotopy", "--n", "1", "--h", "1", "--lambda", "3.7", "--grid", "8", "--strict"], 2),
    (["numeric", "--n", "1", "--grid", "8", "--p", "3.99"], 0),
    (["numeric", "--n", "1", "--grid", "8", "--p", "3.99", "--strict"], 2),
])
def test_exit_code_is_read_off_the_rows(capsys, argv, exit_code):
    code, rows = run_cli(capsys, argv)
    hard = any(r.get("status") == "failed" or r.get("match") is False
               or r.get("duality") is False or r.get("alternating_sum", 0) != 0 for r in rows)
    soft = any(r.get(key) is False for r in rows for key in SOFT_KEYS)
    assert code == (1 if hard else 2 if soft and "--strict" in argv else 0) == exit_code


def test_readme_lists_the_flags_each_subcommand_takes():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullets = readme.split("Each subcommand takes only the flags it reads:\n\n")[1].split("\n\n")[0]
    listed = {}
    for bullet in re.split(r"^- ", bullets, flags=re.M)[1:]:
        command, text = re.match(r"`(\w+)`:(.*)", bullet, re.S).groups()
        listed[command] = set(re.findall(r"`(--[\w-]+)`", text))
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    taken = {
        command: {flag for action in parser._actions if action.help != argparse.SUPPRESS
                  for flag in action.option_strings} - {"-h", "--help"}
        for command, parser in subparsers.choices.items()
    }
    assert listed == taken


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_every_subcommand_prints_strict_json(capsys):
    # NaN and Infinity are Python's extensions, not JSON
    runs = [["basis", "--n", "1"], ["verify", "--n", "1"],
            ["homotopy", "--n", "1", "--grid", "8"], ["numeric", "--n", "1", "--grid", "8"],
            # q_critical = 1596: the L^q norms of the L^p-L^q rows overflow
            ["numeric", "--n", "1", "--grid", "8", "--p", "3.99"]]
    for argv in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv)
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and lines, argv
        for line in lines:
            json.loads(line, parse_constant=_reject_constant)


def test_overflowing_lp_lq_norms_are_soft_misses(capsys):
    argv = ["numeric", "--n", "1", "--grid", "8", "--p", "3.99"]
    for extra, exit_code in (([], 0), (["--strict"], 2)):
        code, rows = run_cli(capsys, argv + extra)
        assert code == exit_code
        by_check = {r["check"]: r for r in rows}
        critical = by_check["critical L^p-L^q invariance"]
        off = by_check["off-critical drift (negative control)"]
        assert critical["within_5pct"] is False and off["monotone"] is False
        q = critical["q"]
        for row in (critical, off):
            assert row["reason"].startswith(
                f"ValueError: L^p-L^q ratio is inf at p = 3.99, q = {q!r}, lambda = 1.0:")
            assert "ratios" not in row
        assert critical["q"] == pytest.approx(1596.0) and off["q"] == 0.75 * critical["q"]
        # the bump's L^q norm underflows to 0 at q = 1596
        sob = by_check["scalar Sobolev quotient invariance"]
        assert sob["within_2pct"] is False and "ratios" not in sob
        assert sob["reason"].startswith(
            f"ValueError: Sobolev ratio is 0.0 at p = 3.99, q = {q!r}, lambda = 1.0:")
        assert sob["q"] == q and sob["p"] == critical["p"] == 3.99
        # the rows after the probe still run
        assert rows[-1]["check"] == "fundamental-solution gauge scan"


def test_output_is_deterministic(capsys):
    argv = ["verify", "--n", "1", "--seed", "7"]
    cli.main(argv)
    first = capsys.readouterr().out
    cli.main(argv)
    second = capsys.readouterr().out
    assert first and first == second


def test_json_and_csv_outputs(tmp_path, capsys):
    jpath = tmp_path / "rows.jsonl"
    cpath = tmp_path / "rows.csv"
    code, rows = run_cli(
        capsys, ["basis", "--n", "1", "--json", str(jpath), "--csv", str(cpath)]
    )
    assert code == 0
    saved = [json.loads(line) for line in jpath.read_text().splitlines()]
    assert saved == rows
    with open(cpath) as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == len(rows)
    assert "report" in table[0]
    assert "dimension" in table[0]


def test_unwritable_report_path_is_one_error_line(tmp_path, capsys):
    missing = tmp_path / "missing"
    for flag in ("--json", "--csv"):
        code = cli.main(["basis", "--n", "1", flag, str(missing / "rows")])
        captured = capsys.readouterr()
        assert code == 1, flag
        # the rows already printed stay on stdout
        assert [json.loads(line)["report"] for line in captured.out.splitlines()][-1] == "basis-summary"
        assert len(captured.err.strip().splitlines()) == 1, flag
        assert "missing" in captured.err and "Traceback" not in captured.err


def test_invalid_arguments(capsys, ctx1):
    assert cli.main(["basis", "--n", "5"]) == 1
    assert cli.main(["basis", "--n", "1", "--lambda", "1.0"]) == 1
    capsys.readouterr()
    for argv in (
        ["numeric", "--n", "1", "--grid", "0"],
        ["numeric", "--n", "1", "--grid", "7"],
        ["homotopy", "--n", "1", "--h", "2", "--grid", "4"],
        ["homotopy", "--n", "2", "--h", "1", "--grid", "5"],
        ["homotopy", "--n", "1", "--p", "0.5"],
        ["homotopy", "--n", "1", "--q", "0"],
        ["verify", "--n", "1", "--poly-degree", "-1"],
        ["verify", "--n", "1", "--poly-degree", "100000000"],
        ["homotopy", "--n", "3", "--grid", "8", "--poly-degree", str(cli.MAX_POLY_DEGREE + 1)],
        ["numeric", "--n", "1", "--h", "1"],
        ["homotopy", "--n", "1", "--grid", "8", "--p", "nan"],
        ["homotopy", "--n", "1", "--grid", "8", "--lambda", "nan"],
        ["homotopy", "--n", "1", "--grid", "8", "--q", "inf"],
        ["numeric", "--n", "1", "--p", "nan"],
        # numeric ran at p = 2 in place of a p outside (1, Q)
        ["numeric", "--n", "1", "--p", "1"],
        ["numeric", "--n", "1", "--p", "5"],
        ["verify", "--n", "1", "--q=-inf"],
        ["numeric", "--n", "2"],
        ["numeric", "--n", "3", "--grid", "8"],
        ["homotopy", "--n", "1", "--grid", "330"],
        ["homotopy", "--n", "1", "--grid", "500"],
        ["homotopy", "--n", "2", "--grid", "40"],
        # --h is a prefix of --help, which would exit 0
        ["basis", "--n", "1", "--h", "3"],
        ["basis", "--n", "1", "--grid", "20"],
    ):
        assert cli.main(argv) == 1, argv
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, argv
    # the grid volume is checked before any grid is built: 40^5 cells at n = 2
    assert cli.main(["numeric", "--n", "2", "--grid", "20"]) == 1
    err = capsys.readouterr().err
    assert f"{40 ** 5} cells" in err and f"{2 ** 25}" in err
    # numeric is sized by its finest convergence grid, 16^7 cells here
    assert cli.main(["numeric", "--n", "3", "--grid", "8"]) == 1
    assert capsys.readouterr().err == ("error: numeric at n = 3, --grid 8 needs a grid of"
                                       " 268435456 cells; the limit is 33554432 (32^5)\n")
    assert cli.main(["numeric", "--n", "2", "--grid", "8", "--p", "6"]) == 1
    assert "strictly between 1 and Q = 6" in capsys.readouterr().err
    # homotopy's Poincare probe builds grids of --grid^(2n+1) cells: 330^3 here
    assert cli.main(["homotopy", "--n", "1", "--grid", "330"]) == 1
    err = capsys.readouterr().err
    assert f"{330 ** 3} cells" in err and f"{2 ** 25}" in err
    # the degree of random polynomial data is capped before any is drawn
    assert cli.main(["homotopy", "--n", "1", "--poly-degree", "200"]) == 1
    assert f"0..{cli.MAX_POLY_DEGREE}" in capsys.readouterr().err
    args = cli.build_parser().parse_args(["homotopy", "--poly-degree", str(cli.MAX_POLY_DEGREE)])
    assert cli._argument_error(args) is None
    # usage errors must not exit 2, which means a strict numeric miss
    assert cli.main(["verify", "--bogus"]) == 1
    capsys.readouterr()
    # an argument no parser took: a stray positional, a flag no subcommand
    # takes (before or after the subcommand) and a flag of another subcommand
    for argv, message in (
        (["basis", "--n", "1", "extra"], "basis takes no positional argument, got 'extra'"),
        (["basis", "--n", "1", "-5"], "basis takes no positional argument, got '-5'"),
        (["--bogus", "basis", "--n", "1"], "unknown flag --bogus"),
        (["verify", "--n", "1", "--bogus=3"], "unknown flag --bogus"),
        (["homotopy", "--n", "1", "--lam", "3"], "unknown flag --lam"),
        (["basis", "--n", "1", "--grid=20"], "--grid does not apply to basis"),
    ):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and not captured.out, argv
    x, y = Poly.var(3, 0), Poly.var(3, 1)
    omega = ctx1.rumin_d(Form.from_function(1, x**2))
    # a message about a grid too coarse for lambda names a resolution that
    # fits, and that resolution gives a slope
    for lam, resolution, reason, fits in (
        (Fraction(2), 3, "resolution 3; no slope to fit: the inner ball holds only the "
         "centre cell, and the primitive vanishes there; the next even resolution with "
         "cells there is 6", 6),
        (Fraction(5), 9, "resolution 9; no slope to fit: the inner ball holds only the "
         "centre cell, and the primitive vanishes there; the next even resolution with "
         "cells there is 26", 26),
        (Fraction(37, 10), 8, "resolution 8: 0 grid cells lie in the inner ball "
         "B(e, 1); the smallest even resolution with cells there is 14", 14),
    ):
        with pytest.raises(ValueError) as caught:
            scaling_probe(ctx1, omega, 2.0, 2.0, lam=lam, resolution=resolution)
        assert str(caught.value).endswith(reason)
        probe = scaling_probe(ctx1, omega, 2.0, 2.0, lam=lam, resolution=fits)
        assert probe["relative_error"] < 1e-12
    # x y vanishes on the axes through the centre cell, where an odd grid
    # puts the four other cells of the inner ball
    with pytest.raises(ValueError, match="holds the centre cell and 4 more, .* is 14$"):
        scaling_probe(ctx1, ctx1.rumin_d(Form.from_function(1, x * y)), 2.0, 2.0,
                      lam=Fraction(37, 10), resolution=9)
    with pytest.raises(OverflowError, match="lambda = 1e\\+100"):
        scaling_probe(ctx1, omega, 2.0, 2.0, lam=Fraction(10) ** 100, resolution=8)


def _rejects_degree(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert not captured.out
    assert len(captured.err.strip().splitlines()) == 1
    assert "--h" in captured.err


def test_basis_rejects_degree_out_of_range(capsys):
    _rejects_degree(capsys, ["basis", "--n", "1", "--h", "4"])
    _rejects_degree(capsys, ["basis", "--n", "1", "--h", "-1"])


def test_verify_rejects_degree_out_of_range(capsys):
    _rejects_degree(capsys, ["verify", "--n", "1", "--h", "9"])
    _rejects_degree(capsys, ["verify", "--n", "1", "--h", "3"])


def test_homotopy_rejects_degree_out_of_range(capsys):
    # --h 0 used to loop forever drawing sections of the top degree
    _rejects_degree(capsys, ["homotopy", "--n", "1", "--h", "0"])
    _rejects_degree(capsys, ["homotopy", "--n", "1", "--h", "4"])


def test_homotopy_gives_up_on_closed_data_after_bounded_draws(capsys, monkeypatch):
    monkeypatch.setattr(
        cli.RuminContext, "rumin_d", lambda self, form: Form.zero(self.n)
    )
    code, rows = run_cli(capsys, ["homotopy", "--n", "1", "--h", "1", "--grid", "8"])
    assert code == 1
    (row,) = [r for r in rows if r["check"] == "Poincare quotient scaling exponent"]
    assert row["status"] == "failed"
    assert str(cli.MAX_DRAWS) in row["reason"]


def test_strict_mode_escalates_soft_misses(capsys, monkeypatch):
    import rumincalc.grid as gridmod

    original = gridmod.derivative_convergence

    def degraded(*args, **kwargs):
        rep = original(*args, **kwargs)
        rep["observed_order"] = 0.0
        return rep

    monkeypatch.setattr(gridmod, "derivative_convergence", degraded)
    code_soft, rows_soft = run_cli(
        capsys, ["numeric", "--n", "1", "--grid", "10", "--seed", "1"]
    )
    conv = [r for r in rows_soft if r["check"].startswith("derivative convergence")]
    assert conv and not conv[0]["order_at_least_1.8"]
    assert code_soft == 0
    code_strict, _ = run_cli(
        capsys, ["numeric", "--n", "1", "--grid", "10", "--seed", "1", "--strict"]
    )
    assert code_strict == 2


def _child_env(**extra):
    # the child imports the package this test imported, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **extra}


def _run_child(args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=_child_env(),
    )


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_ends_without_a_traceback(unbuffered):
    # the read end of the pipe is closed before the child starts, so every
    # write to stdout fails, whether each print writes (unbuffered) or only
    # the last flush does; the child exits 1 and writes nothing to stderr
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rumincalc.cli", "verify", "--n", "1"],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=_child_env(PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_module_entry_point_runs():
    proc = _run_child(["-m", "rumincalc.cli", "basis", "--n", "1"])
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_overflowing_lambda_leaves_stderr_empty():
    # the probe rejects lambda before it builds a grid that would overflow
    argv = ["homotopy", "--n", "1", "--h", "1", "--lambda", "1e300", "--grid", "8"]
    proc = _run_child(["-m", "rumincalc.cli", *argv])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "OverflowError: lambda = 1e+300" in proc.stdout


def test_exponents_beyond_the_gap_leave_stderr_empty():
    # the exponent admissibility row carries the verdict; nothing is warned
    argv = ["homotopy", "--n", "1", "--q", "100", "--h", "1", "--grid", "8"]
    proc = _run_child(["-m", "rumincalc.cli", *argv])
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["admissible"] for r in rows if "admissible" in r] == [False]


def test_cli_import_leaves_numpy_out():
    # only the numeric and homotopy subcommands need numpy, and import it lazily
    proc = _run_child(["-c", "import sys, rumincalc.cli; print('numpy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
