"""Self-test of the benchmark: the correctness gate bites, and runs print every metric.

    python3 benchmarks/selftest.py

Run from the root of a source checkout. Exits 0 when every check holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

run.import_package()

import workloads  # noqa: E402
from rumincalc.rumin_complex import RuminContext  # noqa: E402


def counted(op) -> list:
    failures: list = []
    run.run_op(op, failures)
    return failures


def expect(ok: bool, what: str, problems: list) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def gate_checks(problems: list) -> None:
    argv = ["verify", "--n", "1", "--seed", "0"]
    clean = counted(workloads.cli_op("verify", argv, workloads.check_verify))
    expect(clean == [], "exact-complex: verify --n 1 passes the gate", problems)
    faulty = counted(workloads.cli_op(
        "verify with fault", argv + ["--inject-delta-sign-fault"], workloads.check_verify))
    expect(len(faulty) == 1 and "wrong_output" in faulty[0],
           "exact-complex: verify with --inject-delta-sign-fault is counted as failed", problems)

    ctx = RuminContext(1)
    omega = ctx.rumin_d(workloads.Inputs(0).section(ctx, 0, (1, 2), 2))
    right = workloads.poincare_exponent(1, 1, 2.0, 2.0)
    expect(counted(workloads.scaling_op(ctx, omega, 1, 2.0, 2.0, 20)) == [],
           f"grid-probes: exponent checked against theory ({right}) passes", problems)
    wrong = counted(workloads.scaling_op(ctx, omega, 1, 2.0, 2.0, 20, expected=right + 0.5))
    expect(len(wrong) == 1 and "wrong_output" in wrong[0],
           f"grid-probes: exponent checked against {right + 0.5} is counted as failed", problems)


# the quickest workload; a traced run does two rounds
SHORT_WORKLOAD = "grid-probes"


def short_runs(problems: list) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        cmd = spec["command"] + ["--workload", SHORT_WORKLOAD, "--seed", "0",
                                 "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = result["metrics"]
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in metrics.items()}
        expect(proc.returncode == 0 and got == want,
               f"--trace {trace} prints every {key} metric with its unit", problems)
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
               f"--trace {trace} run is correct with no failed operation", problems)


def without_sources(problems: list) -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", SHORT_WORKLOAD, "--seed", "0",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "a checkout without src/ exits nonzero and prints no result", problems)


def main() -> int:
    problems: list = []
    gate_checks(problems)
    without_sources(problems)
    short_runs(problems)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
