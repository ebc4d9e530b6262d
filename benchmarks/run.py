"""Benchmark of rumincalc: one workload, one seed, one run.

    python3 benchmarks/run.py --workload exact-complex --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, and the run stops with exit code 2 if it
is not there. A run sets up the workload's seeded inputs, then runs the
workload's fixed list of operations in whole rounds, checking every output,
for as many rounds as are expected to end within ``--seconds`` (at least
one; a traced run adds its traced round). The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Times of pure-Python work are in reference seconds (see ``calibration.py``):
the host-speed loop runs before and after the set-up and, for the exact
workloads, after every operation, and a wall time is scaled by the mean
speed measured on either side of it. The grid workload's operations are
timed in wall seconds.

* ``--trace 0``: ``setup_s`` (median of three set-ups, this one and two in
  fresh processes, each from the top of this script to the end of the
  set-up), ``run_s`` (median time of one round), ``op_p50_s`` (median time of
  one operation over all rounds) and ``peak_rss_mb`` (``ru_maxrss`` of this
  process).
* ``--trace 1``: the per-layer metrics of ``tracing.py``, from spans over the
  set-up and the first round (times scaled by that round's mean speed),
  followed by untraced rounds for the rest of the time;
  ``bench.trace_overhead_s`` is the traced round's time minus the median
  untraced one.

The result, with the wall times and host speeds behind it, is also written to
``benchmarks/out/``, and for traced runs the spans too.
"""

import time

import calibration

# Host speed just before the set-up; with the one just after, it scales
# the set-up time, which is pure-Python work (imports, contexts) everywhere.
SPEED_BEFORE_SETUP = calibration.speed()
START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: group_convolve's products are the only BLAS calls, and a
# second thread on a shared two-core host adds more spread than speed.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    if not (ROOT / "src" / "rumincalc" / "__init__.py").is_file():
        print(f"error: no rumincalc sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import rumincalc

    if Path(rumincalc.__file__).resolve().parents[1] != ROOT / "src":
        print(f"error: imported rumincalc from {rumincalc.__file__}", file=sys.stderr)
        sys.exit(2)


def run_op(op, failures: list) -> float:
    """Wall time of one operation, run with the cyclic garbage collector off
    (as ``timeit`` does) and followed by an untimed collection: otherwise a
    collection's pause lands on whichever operation crosses the allocation
    threshold, which differs between seeds."""
    from workloads import CheckFailed

    gc.disable()
    t0 = time.perf_counter()
    try:
        op.run()
    except CheckFailed as exc:
        failures.append({"op": op.name, "wrong_output": str(exc)})
    except Exception:  # an operation that raises is counted and the run goes on
        failures.append({"op": op.name, "error": traceback.format_exc()})
    finally:
        wall = time.perf_counter() - t0
        gc.enable()
    gc.collect()
    return wall


def run_round(ops, failures: list, speeds: list, calibrated: bool) -> list:
    """Wall time of each operation, in order. The host speed after each is
    appended to ``speeds``, which holds the one before the first; without
    calibration the speed is taken as 1."""
    walls = []
    for op in ops:
        walls.append(run_op(op, failures))
        speeds.append(calibration.speed() if calibrated else 1.0)
    return walls


def fresh_setup_seconds(args) -> float:
    """Set-up time of the same workload and seed in a new interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed)
    setup_wall = time.perf_counter() - START
    setup_s = setup_wall * (SPEED_BEFORE_SETUP + calibration.speed()) / 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    failures: list = []
    walls: list = []  # per round, the wall time of each operation
    speeds = [calibration.speed() if workload.calibrated else 1.0]
    t_begin = time.perf_counter()
    if tracer is not None:
        walls.append(run_round(workload.ops, failures, speeds, workload.calibrated))
        tracer.uninstall()
    while True:
        walls.append(run_round(workload.ops, failures, speeds, workload.calibrated))
        elapsed = time.perf_counter() - t_begin
        if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break  # one more round would likely end after --seconds
    # reference seconds: each operation scaled by the mean speed on either side of it
    flat = [t for w in walls for t in w]
    op_times = [t * (a + b) / 2 for t, a, b in zip(flat, speeds, speeds[1:])]
    per_round = len(workload.ops)
    rounds = [sum(op_times[i:i + per_round]) for i in range(0, len(op_times), per_round)]

    if tracer is None:
        setups = [setup_s] + [fresh_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(rounds), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"
            },
        }
    else:
        metrics = tracer.metrics(scale=rounds[0] / sum(walls[0]))
        metrics["bench.trace_overhead_s"] = {
            "value": rounds[0] - statistics.median(rounds[1:]), "unit": "s"
        }
    result = {
        "correct": not any("wrong_output" in f for f in failures),
        "attempted": len(op_times),
        "failed": len(failures),
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({**result, "setup_wall_s": setup_wall, "speeds": speeds, "rounds_s": rounds,
                   "op_names": [op.name for op in workload.ops], "op_wall_s": walls,
                   "failures": failures}, fh, indent=1)
    if tracer is not None:
        tracer.write(f"{stem}-spans.jsonl")
    for f in failures:
        print(f"FAILED {f['op']}: {f.get('wrong_output') or f.get('error')}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
