"""The benchmark's verify gate accepts today's verify output.

``benchmarks/workloads.py`` requires each verify row by name and every status
exact. Running its check here makes a renamed row, a status that is not
exact or a refused ``--seed`` fail the test suite rather than a later
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [1, 2])
def test_verify_passes_the_benchmark_gate(n, monkeypatch):
    workloads = _load_workloads(monkeypatch)
    code, rows = workloads.run_cli(["verify", "--n", str(n), "--seed", "0"])
    workloads.check_verify(n, code, rows)
