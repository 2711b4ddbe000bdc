"""Host-speed correction for timings taken on a shared, noisy host.

On a host shared with other tenants, the same Python code runs up to about
1.85x slower for stretches of seconds to minutes, with `process_time` equal
to wall time, so the program is not descheduled: the CPU itself is slower.
`HostSpeed` measures how slow it is right now by timing a fixed reference
kernel every `INTERVAL` seconds from a SIGALRM handler, interleaved with the
program's own work.  A duration is then reported in reference seconds: each
stretch of it is scaled by `REFERENCE_KERNEL_S / (kernel time near that
stretch)`, and the kernel's own runs inside it are left out.  So a reference
second is a wall second at the speed the development host has when nothing
else loads it.

The kernel is plain Python of the same kind as dedekind's hot loops (table
lookups, bitmask updates, small-int dict stores) and creates no object the
garbage collector tracks, so a collection never lands inside a sample.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

_clock = time.perf_counter

INTERVAL = 0.05
# the kernel's time on an unloaded 2-vCPU 2.0 GHz host (Python 3.11)
REFERENCE_KERNEL_S = 0.0014

_TABLE = [[(i * j + 7) % 256 for j in range(256)] for i in range(256)]
_SLOTS = dict.fromkeys(range(256), 0)


def kernel() -> int:
    """The fixed reference work whose time measures the host's current speed."""
    table, slots = _TABLE, _SLOTS
    mask = 0
    for a in range(0, 256, 2):
        row = table[a]
        for b in range(0, 256, 3):
            y = row[b]
            if not (mask >> y) & 1:
                mask |= 1 << y
            slots[y] = a
    return mask


class HostSpeed:
    """Samples the kernel's time while active; converts wall intervals."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, *_) -> None:
        start = _clock()
        kernel()
        end = _clock()
        self.starts.append(start)
        self.ends.append(end)

    def start(self) -> None:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()

    def _factor(self, k: int) -> float:
        """Reference seconds per wall second around sample k (median of 3)."""
        k = min(max(k, 0), len(self.starts) - 1)
        lo, hi = max(k - 1, 0), min(k + 2, len(self.starts))
        kernel_s = statistics.median(self.ends[i] - self.starts[i] for i in range(lo, hi))
        return REFERENCE_KERNEL_S / kernel_s

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds spent in the wall interval [start, end]."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        total, t = 0.0, start
        for k in range(first, last):
            total += (self.starts[k] - t) * self._factor(k)
            t = min(self.ends[k], end)
        return total + max(end - t, 0.0) * self._factor(last - 1 if last > first else last)
