"""Fixed-bucket histograms with deterministic, element-wise merge.

The :class:`Histogram` is **fixed-bucket**: bucket bounds are chosen up front
(usually :func:`exponential_buckets`) and never change, so (a) merging two
histograms is element-wise counter addition — associative, deterministic,
no re-bucketing — and (b) memory is O(buckets) however many samples stream
through.  That bounded-memory property is what lets
:class:`repro.sim.metrics.RunMetrics` stream latency percentiles for
10⁴–10⁶-client populations without retaining a per-sample array
(``simulate_population`` passes the engine an event budget computed from the
population, so 10⁶ clients finish instead of tripping a fixed cap); the price
is quantization: a quantile is reported as its bucket's upper bound
(clamped into the observed [min, max]), so for geometric buckets of factor
``f`` the reported value is at most ``f``× the exact one.

Counters live in the slot classes of the layers that move them
(``CostCounters``, ``CacheStats``, the per-object stats); this module holds
only the one distribution primitive they lack.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Optional, Sequence, Tuple

from ..errors import SimulationError

__all__ = ["Histogram", "exponential_buckets", "DEFAULT_LATENCY_BUCKETS_S"]


def exponential_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` geometric bucket upper bounds: start, start*factor, ...

    The standard shape for latency histograms: constant *relative*
    quantization error (``factor - 1``) across the whole range.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise SimulationError(
            f"exponential_buckets needs start>0, factor>1, count>=1 "
            f"(got {start!r}, {factor!r}, {count!r})")
    bounds = []
    edge = start
    for _ in range(count):
        bounds.append(edge)
        edge *= factor
    return tuple(bounds)


#: Default latency bounds (seconds): 100µs … ~4300s at 5% relative error.
DEFAULT_LATENCY_BUCKETS_S = exponential_buckets(1e-4, 1.05, 360)


class Histogram:
    """Fixed-bucket histogram: bounded memory, element-wise merge.

    ``bounds`` are ascending bucket upper edges; one implicit overflow
    bucket catches everything above the last edge.  Exact count/sum/min/max
    ride along, so means stay exact — only quantiles are bucketized.
    """

    kind = "histogram"
    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds or list(self.bounds) != sorted(set(self.bounds)):
            raise SimulationError(
                f"histogram bounds must be ascending and distinct: {bounds!r}")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Count ``value`` in bucket i = (previous edge, edge i]; NaN is
        refused — it has no bucket, and would poison ``total`` and the mean.
        """
        value = float(value)
        if value != value:
            raise SimulationError(
                f"histogram {self.name!r} cannot observe NaN")
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def quantile(self, fraction: float) -> float:
        """Nearest-rank quantile, reported as the containing bucket's upper
        edge clamped into the observed [min, max].

        Uses the same rank formula as :func:`repro.sim.metrics.percentile`,
        so a histogram-backed percentile differs from the exact one only by
        bucket quantization (at most ``factor - 1`` relative for geometric
        bounds), never by rank semantics.
        """
        if not self.count:
            return 0.0
        rank = min(self.count - 1,
                   max(0, int(round(fraction * (self.count - 1)))))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if rank < seen:
                edge = (self.bounds[index] if index < len(self.bounds)
                        else self.max)
                return min(max(edge, self.min), self.max)
        return self.max  # pragma: no cover - rank < count always terminates

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise SimulationError(
                f"cannot merge histogram {other.name!r}: bucket bounds "
                f"differ ({len(other.bounds)} vs {len(self.bounds)} edges)")
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_json(self) -> Dict[str, Any]:
        # Sparse bucket encoding: only non-empty buckets, index -> count
        # (360 default bounds would otherwise dominate every document).
        return {
            "kind": self.kind, "name": self.name,
            "count": self.count, "total": self.total,
            "min": self.min, "max": self.max,
            "bounds": [self.bounds[0],
                       self.bounds[1] / self.bounds[0] if len(self.bounds) > 1
                       else 1.0,
                       len(self.bounds)] if self._geometric() else list(self.bounds),
            "bounds_encoding": "geometric" if self._geometric() else "explicit",
            "buckets": {str(i): c for i, c in enumerate(self.counts) if c},
        }

    def _geometric(self) -> bool:
        if len(self.bounds) < 2:
            return False
        factor = self.bounds[1] / self.bounds[0]
        return all(abs(self.bounds[i + 1] / self.bounds[i] - factor) < 1e-9
                   for i in range(len(self.bounds) - 1))
