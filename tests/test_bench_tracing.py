"""The traced benchmark wraps public rumincalc names from outside the package.

Installing its tracer here makes a removed or renamed wrapped name fail the
test suite rather than a later traced benchmark run.
"""

import importlib.util
from pathlib import Path

from rumincalc import envelope, exterior_weights, forms, homotopy_exact, rumin_complex

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()

    def traced():
        return (
            exterior_weights.algebraic_d,
            forms.exterior_d,
            envelope.EnvOp.__mul__,  # counted
            rumin_complex.laplacian_commutation_report,  # a span
            homotopy_exact.averaged_homotopy,
            homotopy_exact.rumin_homotopy_K,
        )

    originals = traced()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for now, before in zip(traced(), originals):
            assert now is not before
    finally:
        tracer.uninstall()
    assert traced() == originals
