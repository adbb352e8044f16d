"""Bounded, deterministic per-key telemetry for adaptive consistency.

The static consistency strategies pick one point in the freshness/DB-work
trade-off for *every* key of a cached object.  The per-run contention
counters (``cas_retry_rounds``, ``lease_contended``, ``stale_served``) show
the right point differs per key; :class:`KeyTelemetry` is the measurement
half of closing that loop — a bounded store of per-key read/write rates and
contention tallies that the :class:`~repro.adaptive.strategy.AdaptiveStrategy`
classifies into bands.

Design constraints, in order:

* **Deterministic.**  No wall clock, no randomness: rates decay on the
  simulated clock, eviction breaks ties on the key string, and
  :meth:`snapshot` orders its output.  Two replays of the same trace produce
  bit-identical telemetry (the differential tests pin this).
* **Bounded.**  At most ``capacity`` keys are tracked.  When a new key
  arrives at capacity, the key with the least lifetime traffic (ties broken
  by key string) is evicted — the cold tail the adaptive strategy treats as
  its default band anyway.
* **Cheap.**  Hook points (``CacheClient``, ``TriggerOpQueue``,
  ``RefreshQueue``) are all ``telemetry is None``-guarded, so runs without
  an adaptive strategy pay one attribute read per hook; with one, a touch
  costs a dict lookup and a decay, and an admission at capacity finds its
  victim through a heap in amortized O(log capacity) — never by scanning
  the tracked keys (see :meth:`KeyTelemetry._evict_coldest`).
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import Callable, Dict, List, Optional, Tuple


class KeyStats:
    """Telemetry record for one cache key."""

    __slots__ = ("key", "first_seen", "reads", "writes", "cas_mismatches",
                 "cas_retries", "lease_contended", "stale_served", "refreshes",
                 "read_rate", "write_rate", "contention_rate", "decayed_at")

    def __init__(self, key: str, now: float) -> None:
        self.key = key
        #: Virtual time the key was first observed (dwell anchor for the
        #: adaptive strategy's hysteresis before any explicit band state).
        self.first_seen = now
        # Lifetime tallies (monotone).
        self.reads = 0
        self.writes = 0
        self.cas_mismatches = 0
        self.cas_retries = 0
        self.lease_contended = 0
        self.stale_served = 0
        self.refreshes = 0
        # Exponentially decayed rates (events per half-life window), decayed
        # lazily to ``decayed_at`` on the simulated clock.
        self.read_rate = 0.0
        self.write_rate = 0.0
        self.contention_rate = 0.0
        self.decayed_at = now

    @property
    def traffic(self) -> int:
        """Lifetime reads + writes — the eviction ranking."""
        return self.reads + self.writes

    def as_dict(self) -> Dict[str, float]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "cas_mismatches": self.cas_mismatches,
            "cas_retries": self.cas_retries,
            "lease_contended": self.lease_contended,
            "stale_served": self.stale_served,
            "refreshes": self.refreshes,
            "read_rate": self.read_rate,
            "write_rate": self.write_rate,
            "contention_rate": self.contention_rate,
        }


class KeyTelemetry:
    """Bounded top-K per-key telemetry on the simulated clock.

    ``clock`` is a callable returning virtual seconds (the genie's clock).
    ``half_life_seconds`` sets the exponential decay of the per-key rates:
    with a frozen clock the rates degenerate to lifetime counts, which keeps
    frozen-clock replays deterministic rather than undefined.
    """

    def __init__(self, clock: Callable[[], float], capacity: int = 512,
                 half_life_seconds: float = 8.0) -> None:
        if capacity <= 0:
            raise ValueError("telemetry capacity must be positive")
        if half_life_seconds <= 0:
            raise ValueError("telemetry half-life must be positive")
        self.clock = clock
        self.capacity = int(capacity)
        self.half_life_seconds = float(half_life_seconds)
        self._entries: Dict[str, KeyStats] = {}
        #: Eviction index: one ``(traffic when last ranked, key)`` per
        #: tracked key, a min-heap.  ``len(_heap) == len(_entries)`` always.
        self._heap: List[Tuple[int, str]] = []
        # Lifetime statistics, for tests and the ablation report.
        self.evictions = 0
        self.total_reads = 0
        self.total_writes = 0

    # -- bookkeeping -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[KeyStats]:
        """The tracked record for ``key``, decayed to now, or None."""
        entry = self._entries.get(key)
        if entry is not None:
            self._decay(entry, self.clock())
        return entry

    def _entry(self, key: str) -> KeyStats:
        now = self.clock()
        entry = self._entries.get(key)
        if entry is None:
            if len(self._entries) >= self.capacity:
                self._evict_coldest()
            entry = KeyStats(key, now)
            self._entries[key] = entry
            heappush(self._heap, (0, key))
        else:
            self._decay(entry, now)
        return entry

    def _decay(self, entry: KeyStats, now: float) -> None:
        elapsed = now - entry.decayed_at
        if elapsed <= 0.0:
            return
        factor = 0.5 ** (elapsed / self.half_life_seconds)
        entry.read_rate *= factor
        entry.write_rate *= factor
        entry.contention_rate *= factor
        entry.decayed_at = now

    def _evict_coldest(self) -> None:
        """Drop the least-trafficked key (ties broken by key string).

        The heap ranks each key by the traffic it had when last ranked.
        Lifetime traffic only grows, so that is a lower bound: an out-of-
        date top is re-ranked in place, and the first top whose recorded
        traffic is current is below every other key's bound, hence exactly
        ``min((traffic, key))`` over the tracked keys.  Each touch outdates
        at most one heap item, so re-ranking is amortized O(log capacity)
        per touch.
        """
        heap, entries = self._heap, self._entries
        while True:
            ranked, key = heap[0]
            traffic = entries[key].traffic
            if traffic == ranked:
                break
            heapreplace(heap, (traffic, key))
        heappop(heap)
        del entries[key]
        self.evictions += 1

    # -- hook points -----------------------------------------------------------

    def note_read(self, key: str) -> KeyStats:
        """Count one read; returns the record, decayed to the clock reading
        this call took (``decayed_at``) — the read path classifies from it
        without a second lookup."""
        self.total_reads += 1
        entry = self._entry(key)
        entry.reads += 1
        entry.read_rate += 1.0
        return entry

    def note_write(self, key: str) -> None:
        self.total_writes += 1
        entry = self._entry(key)
        entry.writes += 1
        entry.write_rate += 1.0

    def note_cas_mismatch(self, key: str) -> None:
        entry = self._entry(key)
        entry.cas_mismatches += 1
        entry.contention_rate += 1.0

    def note_cas_retry(self, key: str) -> None:
        entry = self._entry(key)
        entry.cas_retries += 1
        entry.contention_rate += 1.0

    def note_lease_contended(self, key: str) -> None:
        entry = self._entry(key)
        entry.lease_contended += 1
        entry.contention_rate += 1.0

    def note_stale(self, key: str) -> None:
        self._entry(key).stale_served += 1

    def note_refresh(self, key: str) -> None:
        self._entry(key).refreshes += 1

    # -- introspection ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-key telemetry, hottest first (ties broken by key string).

        Rates are decayed to the current clock before reporting, so two
        snapshots at the same virtual time are identical.
        """
        now = self.clock()
        ranked = sorted(self._entries.values(),
                        key=lambda e: (-e.traffic, e.key))
        out: Dict[str, Dict[str, float]] = {}
        for entry in ranked:
            self._decay(entry, now)
            out[entry.key] = entry.as_dict()
        return out
