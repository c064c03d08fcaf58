"""The host's current speed, from a fixed piece of pure-Python work.

The benchmark's host is shared: the same code runs up to a third faster or
slower from one second to the next, and every timing moves with it.  A probe
is a fixed piece of work (Fraction sums, tuple keys in a dict, a sort), small
enough to run between two operations.  An operation's time multiplied by
REFERENCE_PROBE_S / (probe time around it) is its time at the reference
speed: what it would take on a host that runs the probe in exactly
REFERENCE_PROBE_S.  The probe is the benchmark's own code, so a change to
locallab changes the operation's time and not the probe's.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# About the probe's median time on the machine the baseline was measured on
# (see baseline.json), so reference-speed times read close to wall times there.
REFERENCE_PROBE_S = 0.0003


def probe() -> float:
    """Seconds taken by one run of the fixed work, with the collector paused
    so that the heap the workload left behind does not count."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    total = Fraction(0)
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(80):
        key = (i % 7, i % 11, i)
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(i % 5 + 1, i % 3 + 2)
    sorted(counts.items())
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


def scale(repeats: int = 5) -> float:
    """Reference-speed seconds per wall second now: the median of a few probes."""
    return REFERENCE_PROBE_S / statistics.median(probe() for _ in range(repeats))
