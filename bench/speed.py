"""Machine-speed reference for the timings of one run.

The benchmark runs on a few cores of a shared host, whose speed drifts
with its neighbours' load: every command of a run, and the interpreter
start-up, slow down or speed up together, by up to 1.3x from one minute
to the next.  A run's medians take in whatever speed the host had while
it ran, and ten runs spread past their bounds although the code is the
same.

So a fixed pure-Python loop (string keys, dict updates and float
arithmetic, the kind of work the library does) is timed between the
program's calls, and every end-to-end timing of the run is scaled by
``REFERENCE_S / median(loop time in the run)``: the values are seconds on
a host where the loop takes ``REFERENCE_S``.  The loop is part of the
benchmark, not of the program, so a change to the program moves the
scaled timings exactly as it moves the raw ones; the raw timings and the
factor are kept in each run's record.
"""

from __future__ import annotations

import math
import time
from statistics import median
from typing import List

# about the loop's time in the faster periods of the 2-vCPU Xeon VM the
# benchmark was written on (Python 3.11); its median there is 0.033-0.037 s
REFERENCE_S = 0.025
_ITEMS = 40000


def _loop() -> float:
    table: dict = {}
    total = 0.0
    for i in range(_ITEMS):
        key = "g%d" % (i % 4093)
        table[key] = table.get(key, 0) + 1
        total += math.log1p(i & 1023) * table[key]
    return total


def reference_seconds() -> float:
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def scale(samples: List[float]) -> float:
    """Factor that turns a run's raw seconds into reference seconds."""
    return REFERENCE_S / median(samples)
