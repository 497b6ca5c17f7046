"""Machine-speed probe for timings on a shared host.

On a small shared machine the whole CPU runs faster or slower for
seconds to minutes at a time, depending on what the neighbours do
(1.4-1.7x between the phases).  A run that falls into a slow phase
then reads slower although the program did the same work.

:func:`kernel_s` times a fixed interpreted loop of about a third of a
millisecond that builds tuples, strings and a dict, the kind of object
traffic the pipeline's Python code does.  The benchmark runs it between
timed operations and scales each operation by
``REF_KERNEL_S / kernel time around it``, which turns a wall time into
seconds at the reference speed: the speed at which the loop takes
``REF_KERNEL_S``.  Busy phases slow this loop about as much as they
slow the pipeline; an integer-arithmetic loop, used at first, slowed
less than the object-heavy ``crowded`` operations (see README.md,
Noise).  Raw wall times are reported next to the scaled ones.
"""

from __future__ import annotations

import time

# a little under the loop's fastest time (0.23 ms) on an Intel Xeon 2-vCPU
# shared host; any fixed value would do, this one keeps scaled times close
# to the wall times of a quiet phase
REF_KERNEL_S = 0.21e-3
KERNEL_REPEATS = 3  # back to back; the fastest drops interrupts and timer jitter
KERNEL_ROWS = 800


def _kernel() -> float:
    rows = [(i, i * 0.5, str(i)) for i in range(KERNEL_ROWS)]
    table = {key: a * b for a, b, key in rows}
    return sum(table.values())


def kernel_s() -> float:
    """Fastest of a few back-to-back runs of the loop, in seconds."""
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds: float, kernel: float) -> float:
    """``seconds`` of wall time measured at kernel time ``kernel``, at the reference speed."""
    return seconds * REF_KERNEL_S / kernel
