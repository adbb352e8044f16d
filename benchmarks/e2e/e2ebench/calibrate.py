"""A calibrated clock: wall time corrected for how slow the machine is right now.

The box this benchmark runs on is shared.  The same replay, same seed, took
between 4.9 s and 7.3 s in eight back-to-back runs; CPU time moved with wall
time, so it is the processor running slower (a busy neighbour, a shared cache),
not the process waiting, and the slow states last from seconds to minutes.  A
median over repeats cannot remove a level shift that outlasts the run, and raw
wall time would read it as a regression.

So every timed region carries its own yardstick.  About fifty times inside the
region (between pages, never inside one) two small stdlib-only kernels are
timed: a dictionary-churn loop (interpretive compute, the program's bread and
butter) and random reads over a cache-resident table.  Each kernel's time over
its fixed reference time is a slowdown; the machine's slowdown is their
geometric mean with weights 3:1.  On 10-12 same-seed runs each of four
workloads that mix cut the interquartile spread of the timed region from
8-19 % (raw wall) to 3-7 %; no single kernel or other weighting did better on
all four.  *Reference seconds* are wall seconds divided by the slowdown in
force, interval by interval; time inside the kernels belongs to no interval.

The kernels use nothing from ``src/``, so speeding up the program cannot speed
up the yardstick.  The reference times are constants of this file: they fix the
unit (a second of this box's quiet state), and changing them rescales every
host-time metric of every commit alike.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List, Sequence, Tuple

#: Kernel times in the reference machine state, in ns.
CHURN_REFERENCE_NS = 280_000.0
READS_REFERENCE_NS = 400_000.0
#: Geometric weight of the churn kernel (the reads kernel gets the rest).
CHURN_WEIGHT = 0.75

_CHURN_STEPS = 2500
_READ_STEPS = 3000
_TABLE_SIZE = 30_000

_clock = time.perf_counter_ns

#: ``(start_ns, end_ns, slowdown)``.
Sample = Tuple[int, int, float]


class Calibrator:
    """Samples the machine's slowdown and converts wall spans accordingly."""

    def __init__(self) -> None:
        rng = random.Random(20110)
        self._table = [{"id": index, "text": str(index)}
                       for index in range(_TABLE_SIZE)]
        self._order = [rng.randrange(_TABLE_SIZE) for _ in range(_READ_STEPS)]
        self.samples: List[Sample] = []

    @staticmethod
    def _churn() -> int:
        started = _clock()
        table: dict = {}
        for value in range(_CHURN_STEPS):
            key = ("k", value & 255)
            table[key] = table.get(key, 0) + value
        return _clock() - started

    def _reads(self) -> int:
        table = self._table
        started = _clock()
        total = 0
        for index in self._order:
            total += table[index]["id"]
        return _clock() - started

    def sample(self) -> None:
        """Time both kernels now (best of three: interruptions only add)."""
        started = _clock()
        churn = min(self._churn() for _ in range(3))
        reads = min(self._reads() for _ in range(3))
        slowdown = ((churn / CHURN_REFERENCE_NS) ** CHURN_WEIGHT
                    * (reads / READS_REFERENCE_NS) ** (1.0 - CHURN_WEIGHT))
        self.samples.append((started, _clock(), slowdown))

    def mark(self) -> int:
        """Sample now and return the sample's index (a span boundary)."""
        self.sample()
        return len(self.samples) - 1

    def intervals(self, first: int, last: int) -> List[Tuple[int, int, float]]:
        """``(start_ns, end_ns, reference_seconds)`` of each gap between
        consecutive samples ``first..last``."""
        samples = self.samples[first:last + 1]
        return [(end, start, (start - end) / ((before + after) / 2.0) / 1e9)
                for (_, end, before), (start, _, after)
                in zip(samples, samples[1:])]

    def reference_seconds(self, first: int, last: int) -> float:
        return sum(seconds for _, _, seconds in self.intervals(first, last))

    def slowdown(self, first: int, last: int) -> float:
        return statistics.mean(s for _, _, s in self.samples[first:last + 1])


def median_rate(ends_ns: Sequence[int],
                intervals: Sequence[Tuple[int, int, float]],
                segments: int) -> float:
    """Median events per reference second over ``segments`` slices.

    ``ends_ns`` are completion times; each falls inside one calibration
    interval.  Intervals are grouped, in order, into slices of about equal
    event count, so one burst of interference moves one slice, not the median.
    """
    ends = sorted(ends_ns)
    counts, cursor = [], 0
    for _, interval_end, _ in intervals:
        start = cursor
        while cursor < len(ends) and ends[cursor] <= interval_end:
            cursor += 1
        counts.append(cursor - start)
    counts[-1] += len(ends) - cursor
    target = len(ends) / max(1, min(segments, len(intervals)))
    rates, events, seconds = [], 0, 0.0
    for count, (_, _, reference) in zip(counts, intervals):
        events += count
        seconds += reference
        if events >= target:
            rates.append(events / seconds)
            events, seconds = 0, 0.0
    if events and seconds:
        rates.append(events / seconds)
    return statistics.median(rates)
