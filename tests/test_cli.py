import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rumincalc import cli
from rumincalc.forms import Form
from rumincalc.homotopy_exact import scaling_probe
from rumincalc.polynomials import Poly


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


def test_basis_respects_degree_flag(capsys):
    code, rows = run_cli(capsys, ["basis", "--n", "2", "--h", "3"])
    assert code == 0
    # the dimension table always covers the whole complex; --h does not
    # truncate it, the summary still closes over all degrees
    summary = [r for r in rows if r["report"] == "basis-summary"]
    assert summary[0]["dimensions"] == [1, 4, 5, 5, 4, 1]


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


def test_homotopy_lambda_is_taken_exactly(capsys):
    # rounding 1.004 to a denominator of at most 100 gave lambda = 1, and the
    # Poincare quotient then raised
    code, rows = run_cli(
        capsys, ["homotopy", "--n", "1", "--h", "1", "--lambda", "1.004", "--grid", "8"]
    )
    assert code == 0
    scaling = [r for r in rows if r["check"] == "Poincare quotient scaling exponent"]
    assert len(scaling) == 1 and scaling[0]["fitted_exponent"] is not None


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
    scan = [r for r in rows if r["check"] == "fundamental-solution gauge scan"]
    assert scan[0]["best_t_weight"] == 16.0


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
        ["numeric", "--n", "1", "--h", "1"],
        ["homotopy", "--n", "1", "--grid", "8", "--p", "nan"],
        ["homotopy", "--n", "1", "--grid", "8", "--lambda", "nan"],
        ["homotopy", "--n", "1", "--grid", "8", "--q", "inf"],
        ["numeric", "--n", "1", "--p", "nan"],
        ["verify", "--n", "1", "--q=-inf"],
    ):
        assert cli.main(argv) == 1, argv
        assert len(capsys.readouterr().err.strip().splitlines()) == 1, argv
    # usage errors must not exit 2, which means a strict numeric miss
    assert cli.main(["verify", "--bogus"]) == 1
    capsys.readouterr()
    omega = ctx1.rumin_d(Form.from_function(1, Poly.var(3, 0) ** 2))
    with pytest.raises(ValueError, match="resolution 3"):
        scaling_probe(ctx1, omega, 2.0, 2.0, resolution=3)


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


def test_module_entry_point_runs():
    # the child imports the package this test imported, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "rumincalc.cli", "basis", "--n", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()
