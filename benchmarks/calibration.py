"""Host-speed calibration, so that timings of pure-Python work compare.

The speed at which the shared host this benchmark was built on runs
pure-Python code drifts by a third within seconds to minutes, while NumPy
array work on the same host stays within a few per cent. A short fixed loop
that uses no rumincalc code, exact rational arithmetic on tuple-keyed dicts
the way the exact layers spend their time, is timed in the same process
next to the measured work. A time is then reported in reference seconds:

    wall seconds * (REFERENCE / loop time measured next to it)

that is, the time the work would take on a host that runs the loop in
REFERENCE seconds. A change to rumincalc cannot move the loop. A loop over
float arrays was tried for the grid work and dropped: its time moved with
the allocator's state after large grids, not with the host, and it made the
grid timings less steady than their wall times.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# Loop time, in seconds, on the host the benchmark was tuned on in its
# faster phases; it only fixes the unit.
REFERENCE = 0.025


def exact_loop() -> None:
    rng = random.Random(0)
    acc: dict = {}
    for _ in range(4000):
        key = (rng.randrange(4), rng.randrange(4))
        acc[key] = acc.get(key, Fraction(0)) + Fraction(rng.randrange(1, 50), rng.randrange(1, 9))


def _time() -> float:
    t0 = time.perf_counter()
    exact_loop()
    return time.perf_counter() - t0


def speed() -> float:
    """Host speed for pure-Python work relative to the reference: REFERENCE
    over the median time of three loops run now (one loop alone reads up to
    half again too fast or too slow now and then)."""
    return REFERENCE / statistics.median(_time() for _ in range(3))
