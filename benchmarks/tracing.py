"""Per-layer spans and counts, recorded from outside the package.

``Tracer.install()`` replaces public functions and methods of rumincalc's
modules with timing wrappers and ``uninstall()`` puts the originals back;
nothing inside ``src/`` changes. A function is wrapped under every name it
is looked up by: each loaded ``rumincalc`` module attribute that is the
same object is replaced, so ``cli.laplacian_commutation_report`` and
``forms.algebraic_d`` are covered as well as the defining modules.

Each span records name, start, end and parent; spans stay in memory and are
written out when the run ends. A metric's time is the summed duration of its
outermost spans (a span nested inside another span of the same metric is not
counted twice). Self time, per span name, is the duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

from rumincalc import cli, envelope, exterior_weights, forms, grid, homotopy_exact, kernels, linalg
from rumincalc import polynomials, rumin_complex

# span name -> (owner, attribute). Owners are modules or classes.
SPANS = {
    "linalg.rref": (linalg, "rref"),
    "exterior_weights.algebraic_d": (exterior_weights, "algebraic_d"),
    "exterior_weights.build_spaces": (exterior_weights, "build_spaces"),
    "envelope.EnvOp.act": (envelope.EnvOp, "act"),
    "polynomials.Poly.compose": (polynomials.Poly, "compose"),
    "polynomials.Poly.evaluate_float": (polynomials.Poly, "evaluate_float"),
    "forms.exterior_d": (forms, "exterior_d"),
    "forms.to_coordinate_frame": (forms, "to_coordinate_frame"),
    "forms.to_left_frame": (forms, "to_left_frame"),
    "rumin_complex.RuminContext.__init__": (rumin_complex.RuminContext, "__init__"),
    "rumin_complex.RuminContext.rumin_d_matrix": (rumin_complex.RuminContext, "rumin_d_matrix"),
    "rumin_complex.RuminContext.rumin_d": (rumin_complex.RuminContext, "rumin_d"),
    "rumin_complex.OperatorMatrix.compose": (rumin_complex.OperatorMatrix, "compose"),
    "rumin_complex.laplacian_commutation_report": (rumin_complex, "laplacian_commutation_report"),
    "homotopy_exact.averaged_homotopy": (homotopy_exact, "averaged_homotopy"),
    "homotopy_exact.rumin_homotopy_K": (homotopy_exact, "rumin_homotopy_K"),
    "homotopy_exact.scaling_probe": (homotopy_exact, "scaling_probe"),
    "grid.Grid.from_poly": (grid.Grid, "from_poly"),
    "grid.discrete_horizontal_derivative": (grid, "discrete_horizontal_derivative"),
    "grid.discrete_t_derivative": (grid, "discrete_t_derivative"),
    "kernels.group_convolve": (kernels, "group_convolve"),
    "cli.cmd_verify": (cli, "cmd_verify"),
    "cli.cmd_basis": (cli, "cmd_basis"),
    "cli.cmd_numeric": (cli, "cmd_numeric"),
}

# Hot leaf calls: counted, not timed, so the count costs one increment.
COUNTERS = {
    "exterior_weights.structure_d_one_form": (exterior_weights, "structure_d_one_form"),
    "envelope.EnvOp.__mul__": (envelope.EnvOp, "__mul__"),
}

# metric -> span names whose outermost durations it sums
TIMES = {
    "linalg.rref_s": ["linalg.rref"],
    "exterior_weights.algebraic_d_s": ["exterior_weights.algebraic_d"],
    "exterior_weights.build_spaces_s": ["exterior_weights.build_spaces"],
    "envelope.act_s": ["envelope.EnvOp.act"],
    "polynomials.compose_s": ["polynomials.Poly.compose"],
    "polynomials.evaluate_float_s": ["polynomials.Poly.evaluate_float"],
    "forms.exterior_d_s": ["forms.exterior_d"],
    "forms.frame_change_s": ["forms.to_coordinate_frame", "forms.to_left_frame"],
    "rumin_complex.context_build_s": ["rumin_complex.RuminContext.__init__"],
    "rumin_complex.dc_matrix_s": ["rumin_complex.RuminContext.rumin_d_matrix"],
    "rumin_complex.rumin_d_s": ["rumin_complex.RuminContext.rumin_d"],
    "rumin_complex.operator_compose_s": ["rumin_complex.OperatorMatrix.compose"],
    "homotopy_exact.averaged_homotopy_s": ["homotopy_exact.averaged_homotopy"],
    "homotopy_exact.rumin_homotopy_K_s": ["homotopy_exact.rumin_homotopy_K"],
    "homotopy_exact.scaling_probe_s": ["homotopy_exact.scaling_probe"],
    "grid.from_poly_s": ["grid.Grid.from_poly"],
    "grid.flow_derivative_s": ["grid.discrete_horizontal_derivative", "grid.discrete_t_derivative"],
    "kernels.group_convolve_s": ["kernels.group_convolve"],
    "cli.verify_s": ["cli.cmd_verify"],
    "cli.basis_s": ["cli.cmd_basis"],
    "cli.numeric_s": ["cli.cmd_numeric"],
}

# metric -> span or counter name whose calls it counts
CALLS = {
    "linalg.rref_calls": "linalg.rref",
    "exterior_weights.structure_d_calls": "exterior_weights.structure_d_one_form",
    "envelope.envop_mul_calls": "envelope.EnvOp.__mul__",
    "forms.exterior_d_calls": "forms.exterior_d",
    "rumin_complex.rumin_d_calls": "rumin_complex.RuminContext.rumin_d",
}

# Sizes read off results, all counts.
SIZES = (
    "polynomials.evaluate_float_points",
    "rumin_complex.dc_nonzero_entries",
    "kernels.kernel_evals",
)


def _on_evaluate_float(tracer, result):
    tracer.sizes["polynomials.evaluate_float_points"] += int(np.size(result))


def _on_dc_matrix(tracer, result):
    # rumin_d_matrix caches per context; count each distinct matrix once
    if id(result) not in tracer.seen:
        tracer.seen[id(result)] = result
        tracer.sizes["rumin_complex.dc_nonzero_entries"] += sum(
            1 for row in result.entries for e in row if e
        )


def _on_group_convolve(tracer, result):
    report = result[1]
    tracer.sizes["kernels.kernel_evals"] += report["cells"] * report["outputs"]


ON_RESULT = {
    "polynomials.Poly.evaluate_float": _on_evaluate_float,
    "rumin_complex.RuminContext.rumin_d_matrix": _on_dc_matrix,
    "kernels.group_convolve": _on_group_convolve,
}


def _rumincalc_modules() -> list:
    return [m for name, m in sys.modules.items()
            if name == "rumincalc" or name.startswith("rumincalc.")]


class Tracer:
    """Spans and counts of one traced run; ``install`` before the work and
    ``uninstall`` after it."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.sizes: Counter = Counter({name: 0 for name in SIZES})
        self.seen: dict = {}
        self._patched: list = []  # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, on_result = self.spans, self.stack, ON_RESULT.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(owner, attr, raw, classmethod(make(raw.__func__)))
            return
        wrapper = make(raw)
        if isinstance(owner, type):
            self._set(owner, attr, raw, wrapper)
            return
        for module in _rumincalc_modules():
            for name, value in list(vars(module).items()):
                if value is raw:
                    self._set(module, name, raw, wrapper)

    def _set(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for name, (owner, attr) in SPANS.items():
            self._patch(owner, attr, functools.partial(self._span, name))
        for name, (owner, attr) in COUNTERS.items():
            self._patch(owner, attr, functools.partial(self._counter, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------------

    def _outermost_time(self, names: list) -> float:
        wanted = set(names)
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in wanted:
                continue
            while parent >= 0 and self.spans[parent][0] not in wanted:
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def per_name(self) -> dict:
        """name -> {calls, inclusive_s (outermost), self_s}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - child_time[i]
        for name, row in table.items():
            row["inclusive_s"] = self._outermost_time([name])
        for name, count in self.counts.items():
            table[name] = {"calls": count}
        return table

    def metrics(self, scale: float) -> dict:
        """Every per-layer metric; times are multiplied by ``scale``."""
        span_calls = Counter(span[0] for span in self.spans)
        out = {}
        for metric, names in TIMES.items():
            out[metric] = {"value": self._outermost_time(names) * scale, "unit": "s"}
        for metric, name in CALLS.items():
            calls = self.counts[name] if name in COUNTERS else span_calls[name]
            out[metric] = {"value": calls, "unit": "count"}
        for metric in SIZES:
            out[metric] = {"value": self.sizes[metric], "unit": "count"}
        return out

    def write(self, path) -> None:
        """The per-name table on the first line, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"per_name": self.per_name()}, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
