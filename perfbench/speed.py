"""A CPU-speed probe, to report times as on a reference CPU.

The benchmark shares its host's cores with other tenants, and the
speed it gets drifts: over a few minutes the same pure-Python loop ran
at speeds up to 45% apart, in bursts of seconds and in slower drifts.
Process CPU time drifts with wall time, so the cause is a slower core
(a busy hyperthread sibling, shared caches), not time spent
descheduled. Neither more queries nor medians can take such a drift out
of one run.

So every timed stretch of a run is bracketed by :func:`probe`, a fixed
pure-Python loop that does not touch the program under test, and the
stretch's times are divided by its *slowdown*: the mean of the two
probes around it over :data:`REFERENCE_S`. A change to the program moves
the stretch but not the probe, so it shows in full; a slower host moves
both. On a lazy_scan seed run for three minutes in one-second windows,
the log of the window's median latency followed the log of the probe
with slope 1.04 (correlation 0.84), and across 10-second blocks the
spread of the median latency fell from 0.14 to 0.04.
"""

from __future__ import annotations

import time

#: The probe's time on the reference CPU: reported times are what the
#: program would take on a CPU that runs :func:`_kernel` in this long.
REFERENCE_S = 1.0e-3
#: Repeats per probe; the fastest counts, so an interrupt in one repeat
#: does not read as a slow host.
REPEATS = 5
_TABLE = bytes(range(256)) * 8


def _kernel() -> int:
    """Byte indexing, integer arithmetic and dict stores: the mix the
    program's decode and probe loops spend their time on."""
    table = _TABLE
    seen: dict[int, int] = {}
    total = 0
    for i in range(10_000):
        total += table[i & 2047]
        seen[i & 255] = total
    return total


def probe() -> float:
    """Seconds the kernel takes now, the fastest of :data:`REPEATS`."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference CPU the host ran between two
    probes: divide a time measured between them by this."""
    return (before + after) / 2.0 / REFERENCE_S
