"""The traced benchmark wraps public rumincalc names from outside the package.

Installing its tracer here makes a removed or renamed wrapped name fail the
test suite rather than a later traced benchmark run.
"""

import importlib.util
from pathlib import Path

from rumincalc import exterior_weights, forms

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    originals = (exterior_weights.algebraic_d, forms.exterior_d)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert exterior_weights.algebraic_d is not originals[0]
        assert forms.exterior_d is not originals[1]
    finally:
        tracer.uninstall()
    assert (exterior_weights.algebraic_d, forms.exterior_d) == originals
