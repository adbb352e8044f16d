"""Measurement aggregation: throughput, latency, percentiles, per-page stats.

:class:`RunMetrics` has two storage modes with identical numbers:

* **retained** (default) — every :class:`PageCompletion` is kept and the
  derived metrics filter by the measurement window lazily.  The window may
  be set (or changed) after recording.
* **streaming** (``retain_completions=False``) — completions are folded
  into running aggregates at record time and dropped, so an arbitrarily
  large population holds **O(1)** state: counts, sums, and one fixed-bucket
  latency histogram (:class:`repro.obs.Histogram`) for the percentiles.
  Percentiles are therefore bucket-quantized in this mode (≤ 5% high with
  the default geometric bounds); every other number — throughput, means,
  per-page averages — is exact and identical to retained mode.  The window
  must be closed *during* recording, no later than the first completion
  that falls outside it (``simulate_population`` closes it the moment the
  first client finishes); moving ``window_end`` afterwards is not
  supported in this mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..obs.metrics import DEFAULT_LATENCY_BUCKETS_S, Histogram

#: Version stamp of the run-result JSON documents (``RunMetrics.to_json``,
#: ``ReplayResult.to_json``) consumed by ``python -m repro.bench report``.
#: Schema 2: the traced run document carries the page-demand histogram as a
#: plain ``page_total_demand_ms`` section in place of schema 1's ``registry``.
RUN_JSON_SCHEMA = 2


class PageCompletion:
    """One completed page load in the simulation.

    A ``__slots__`` record (not a dataclass): the closed-loop simulator
    creates one per completed page, and for retained-mode runs over large
    populations the per-instance ``__dict__`` dominated memory.
    """

    __slots__ = ("client_id", "page", "user_id", "start_time", "end_time")

    def __init__(self, client_id: int, page: str, user_id: int,
                 start_time: float, end_time: float) -> None:
        self.client_id = client_id
        self.page = page
        self.user_id = user_id
        self.start_time = start_time   # seconds
        self.end_time = end_time       # seconds

    @property
    def latency(self) -> float:
        return self.end_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PageCompletion(client_id={self.client_id}, "
                f"page={self.page!r}, user_id={self.user_id}, "
                f"start_time={self.start_time}, end_time={self.end_time})")


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class RunMetrics:
    """Throughput and latency statistics for one simulated run."""

    completions: List[PageCompletion] = field(default_factory=list)
    #: End of the measurement window: the time the first client ran out of work
    #: (the paper averages over the interval during which all clients run).
    window_end: Optional[float] = None
    duration: float = 0.0
    #: False = streaming mode: aggregate at record time, retain nothing.
    retain_completions: bool = True
    #: Contention counters of the replay whose demands this run simulated
    #: (``cas_retry_rounds``, ``lease_contended``, ...); empty for replays
    #: without a contention summary.
    contention: Dict[str, int] = field(default_factory=dict)
    #: Per-key telemetry snapshot of the replay (adaptive consistency runs
    #: only — the strategy's :class:`~repro.adaptive.telemetry.KeyTelemetry`,
    #: hottest key first); empty for every other strategy.
    key_telemetry: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Discrete events the engine processed to produce this run — the
    #: denominator-independent work measure ``benchmarks/e2e`` turns into
    #: events/sec.
    engine_events: int = 0
    # Streaming aggregates (unused while retaining completions).
    _count: int = field(default=0, init=False, repr=False, compare=False)
    _latency_sum: float = field(default=0.0, init=False, repr=False,
                                compare=False)
    _latency_hist: Histogram = field(
        default_factory=lambda: Histogram("latency_s",
                                          DEFAULT_LATENCY_BUCKETS_S),
        init=False, repr=False, compare=False)
    _page_latency_sums: Dict[str, float] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _page_counts: Dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def record(self, completion: PageCompletion) -> None:
        if self.retain_completions:
            self.completions.append(completion)
            return
        # Streaming: aggregate exactly what the retained mode would later
        # measure.  Completions recorded before the window closes are all
        # inside it (simulation time is monotone); afterwards, only ties at
        # the window edge still count.
        end_time = completion.end_time
        if self.window_end is not None and end_time > self.window_end:
            return
        latency = end_time - completion.start_time
        self._count += 1
        self._latency_sum += latency
        self._latency_hist.observe(latency)
        page = completion.page
        self._page_latency_sums[page] = (
            self._page_latency_sums.get(page, 0.0) + latency)
        self._page_counts[page] = self._page_counts.get(page, 0) + 1

    # -- derived metrics -------------------------------------------------------

    def _measured(self) -> List[PageCompletion]:
        if self.window_end is None:
            return self.completions
        return [c for c in self.completions if c.end_time <= self.window_end]

    @property
    def measured_window(self) -> float:
        if self.window_end is not None:
            return self.window_end
        return self.duration

    @property
    def completed_pages(self) -> int:
        if not self.retain_completions:
            return self._count
        return len(self._measured())

    @property
    def throughput(self) -> float:
        """Page loads per second inside the measurement window."""
        window = self.measured_window
        if window <= 0:
            return 0.0
        return self.completed_pages / window

    @property
    def mean_latency(self) -> float:
        if not self.retain_completions:
            return self._latency_sum / self._count if self._count else 0.0
        measured = self._measured()
        if not measured:
            return 0.0
        return sum(c.latency for c in measured) / len(measured)

    def latency_percentile(self, fraction: float) -> float:
        """Nearest-rank latency percentile (seconds).

        Streaming mode reads the fixed-bucket histogram — bounded memory at
        any population size, bucket-quantized (reported at the bucket's
        upper edge, ≤ 5% above exact with the default bounds).  Retained
        mode is exact.
        """
        if not self.retain_completions:
            return self._latency_hist.quantile(fraction)
        return percentile([c.latency for c in self._measured()], fraction)

    def latency_by_page(self) -> Dict[str, float]:
        """Average latency per page type (Table 2 of the paper)."""
        if not self.retain_completions:
            return {page: self._page_latency_sums[page] / self._page_counts[page]
                    for page in self._page_latency_sums}
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for completion in self._measured():
            sums[completion.page] = sums.get(completion.page, 0.0) + completion.latency
            counts[completion.page] = counts.get(completion.page, 0) + 1
        return {page: sums[page] / counts[page] for page in sums}

    def throughput_by_page(self) -> Dict[str, float]:
        window = self.measured_window
        if window <= 0:
            return {}
        if not self.retain_completions:
            counts: Dict[str, int] = self._page_counts
        else:
            counts = {}
            for completion in self._measured():
                counts[completion.page] = counts.get(completion.page, 0) + 1
        return {page: count / window for page, count in counts.items()}

    def summary(self) -> Dict[str, float]:
        return {
            "throughput_pages_per_s": self.throughput,
            "mean_latency_s": self.mean_latency,
            "p95_latency_s": self.latency_percentile(0.95),
            "completed_pages": float(self.completed_pages),
            "window_s": self.measured_window,
        }

    # -- stable JSON export -----------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """Every derived number, JSON-ready (no completion objects)."""
        return {
            "mode": "retained" if self.retain_completions else "streaming",
            "summary": self.summary(),
            "latency_by_page": self.latency_by_page(),
            "throughput_by_page": self.throughput_by_page(),
            "contention": dict(self.contention),
            "key_telemetry": {key: dict(row)
                              for key, row in self.key_telemetry.items()},
            "engine_events": self.engine_events,
        }

    def to_json(self) -> Dict[str, Any]:
        """Versioned document for ``python -m repro.bench report``."""
        return {"schema": RUN_JSON_SCHEMA, "kind": "run_metrics",
                **self.as_dict()}
