"""Host-speed reference: every timing is scaled to one host speed.

A small virtual machine runs at the speed its host lets it, and that
speed swings by up to 1.7x within seconds as other tenants come and
go.  The benchmark times a fixed reference loop right before and right
after each operation and scales the operation's time by
``REFERENCE_S`` over the loop's mean time: the result is what the
operation would have taken on a host where the loop takes
``REFERENCE_S``.  On a 2-vCPU VM the loop's time tracked a repeated
operation's time with a correlation of 0.95 across one-second bins, and
scaling cut that operation's spread from 0.20 to 0.07.

The loop only dispatches interpreter instructions on cached small ints:
it allocates nothing and reads no program state, so no change to the
program can move it.  This module imports only the standard library,
so set-up probes can sample the host before the program is imported.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of the reference loop, and the loop's time on the
#: reference host (a 2-vCPU KVM guest on a Xeon Sapphire Rapids host).
REFERENCE_LOOPS = 1_000
REFERENCE_S = 0.05e-3
#: Loop runs per sample; the fastest counts, so an interrupt that
#: lands in one run does not read as a slow host.
REFERENCE_REPEATS = 3


def reference_time() -> float:
    """Seconds the reference loop takes now (fastest of the repeats)."""
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        started = time.perf_counter()
        x = 0
        for _ in range(REFERENCE_LOOPS):
            x = (x * 7 + 3) & 31
        best = min(best, time.perf_counter() - started)
    return best


def scale(samples: list[float]) -> float:
    """Factor from times measured while the loop took ``samples`` to
    times at the reference speed."""
    return REFERENCE_S / statistics.fmean(samples)
