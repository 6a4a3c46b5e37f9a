"""The host's pace: how long a fixed pure-Python loop takes right now.

On a shared host other tenants slow the processor down, in user time as
much as in wall time, in bursts from milliseconds to minutes, so whole
runs of the same code read 1.2-1.5 times slower than others. The
benchmark times this loop before and after every timed operation and
every step of a set-up, and scales the wall time by REFERENCE_S over
the mean of those two loop times. The result is the time on a host
where the loop takes REFERENCE_S. A change to the program moves it as
it moves the wall time, because the loop is not program code; a slow
spell of the host slows the loop as well and mostly cancels. The loops
right next to an operation track it better than loops further away,
because the slowdowns come and go within a second.
"""

from __future__ import annotations

import time

LOOPS = 4000
# About the loop's best time on the 2-vCPU KVM guest the benchmark was
# written on; it only sets the scale of the reported times.
REFERENCE_S = 0.0005


def loop_seconds() -> float:
    """Time the loop once."""
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(LOOPS):
        total += i * i % 7
        table[i % 1000] = total
    return time.perf_counter() - start


class Pacer:
    """Paces operations timed one after another; the loop timed after
    one operation is also the loop before the next."""

    def __init__(self) -> None:
        self.last = loop_seconds()
        # Totals over the calls made through timed().
        self.wall = 0.0
        self.paced = 0.0

    def timed(self, fn, *args):
        """``fn(*args)``, with its wall and paced time added to the totals."""
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        self.wall += seconds
        self.paced += self.pace(seconds)
        return result

    def pace(self, seconds: float) -> float:
        """``seconds``, just measured, at the reference pace."""
        before, self.last = self.last, loop_seconds()
        return seconds * 2.0 * REFERENCE_S / (before + self.last)
