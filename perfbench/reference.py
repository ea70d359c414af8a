"""A host-speed reference that the timing metrics are scaled by.

The host this benchmark was written on shares its cores with other guests,
and its speed drifts: the same pure-Python loop ran up to 40% slower from
one minute to the next, and the medians of ten back-to-back 15-second runs
spread 24% (IQR over median).  Medians within a run cannot remove a drift
that lasts longer than the run, so every untraced run also times a fixed
chunk of pure-Python work (an arithmetic loop and a round of heap and dict
operations, the kind of work the simulator and the striping glue do)
between operations, about 5% of its time.  Each operation's host time is
then multiplied by (``NOMINAL_S`` over the median time of the chunks
around it) to the power ``SENSITIVITY``, which reads as about the time it
would take on a host where the chunk takes ``NOMINAL_S``.  The raw times
stay in the run record.

The chunk runs only between operations, or between the cells of a sweep,
when no ptcp code is running, so a slower program cannot slow the chunk and
hide itself.
"""

from __future__ import annotations

import heapq
import statistics
import time

clock = time.perf_counter

NOMINAL_S = 0.003  # about the chunk's median time on a 2-vCPU Xeon guest
SHARE = 0.05  # of a run's time spent on reference chunks
# When the host sped the chunk up by a factor x, it sped the operations up
# by about x ** 0.4 (loopback_bulk) to x ** 0.8 (sweep_default): much of
# their work is C and kernel code, which speeds up less than the
# interpreter loop.  Scaling by the full x over-corrected (ten-seed spreads
# up to 28% on simwire_lossy), so timings are scaled by x ** SENSITIVITY.
SENSITIVITY = 0.5


def chunk() -> float:
    """Run the fixed reference work once and return its host time."""
    start = clock()
    total = 0
    for i in range(10000):
        total += i * i % 7
    heap: list[tuple[float, int]] = []
    counts: dict[int, float] = {}
    for i in range(1500):
        heapq.heappush(heap, ((i * 7919) % 1000 * 0.001, i))
        counts[i % 97] = counts.get(i % 97, 0.0) + 1.5
    while heap:
        heapq.heappop(heap)
    return clock() - start


def median_chunk(count: int) -> float:
    return statistics.median(chunk() for _ in range(count))


class Pace:
    """Reference chunks interleaved with a run, ``share`` of its time.

    ``keep_up`` runs chunks until they have taken ``share`` of the time
    since the last ``restart``, and then on until the host clock reaches
    ``until``; call it only where no ptcp code is running.
    """

    def __init__(self, share: float = SHARE):
        self.share = share
        self.seconds: list[float] = []
        self.restart()

    def restart(self) -> None:
        """Count the share from now on, not from when the pace was made."""
        self.started = clock()
        self.spent = 0.0  # host time inside keep_up

    def keep_up(self, until: float = 0.0) -> None:
        begin = clock()
        while (
            self.spent + (clock() - begin) < self.share * (clock() - self.started) or clock() < until
        ):
            self.seconds.append(chunk())
        self.spent += clock() - begin

    def factor(self, seconds: list[float] | None = None) -> float:
        """``NOMINAL_S`` over the median time of ``seconds`` (by default of
        every chunk run so far), to the power ``SENSITIVITY``."""
        return (NOMINAL_S / statistics.median(seconds or self.seconds)) ** SENSITIVITY
