"""Event counting and the simulated cost model.

The storage engine and the memcache client do all work functionally (real
data structures, real results) but *charge* their work to an event recorder.
The cost model then converts event counts into simulated service demands on
three resources:

* ``db_cpu``  — query parsing/planning, per-row evaluation, trigger Python
* ``db_disk`` — buffer-pool misses and WAL/commit writes
* ``cache_net`` — round trips between a client (or a trigger) and memcached

The default parameters are calibrated from the paper's §5.3 microbenchmarks:
a memcached round trip costs ~0.2 ms, a plain INSERT ~6.3 ms, a no-op trigger
adds ~0.2 ms, opening a remote memcached connection inside a trigger adds
~5.4 ms, and each cache operation inside a trigger adds ~0.2 ms.  Simple
B+Tree lookups end up 10–25× slower than a cache get depending on index
depth and buffer-pool residency, matching the paper's reported range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple
import contextlib

from .._counters import compile_counter_methods

#: Field names of :class:`CostCounters`, in declaration order.  The hot
#: accumulation methods are compiled from this tuple (see
#: :mod:`repro._counters`); one page load records thousands of events, so
#: the per-call ``dataclasses.fields()`` walk the dataclass version paid is
#: replaced by straight-line code over these names.
COST_COUNTER_FIELDS: Tuple[str, ...] = (
    # Buffer pool / heap events
    "pages_hit", "pages_missed", "pages_dirtied",
    "rows_scanned", "rows_returned", "index_node_touches",
    # Statement events
    "statements", "inserts", "updates", "deletes", "commits",
    "sorts", "sorted_rows", "joins",
    # Trigger events (see the field comments below)
    "trigger_launches", "trigger_connections", "trigger_cache_batches", "trigger_cache_overlapped_batches",
    "trigger_cache_batch_ops", "trigger_rows_examined",
    # Cache client events (issued by the application, not by triggers)
    "cache_multi_gets", "cache_multi_sets", "cache_multi_deletes",
    "cache_multi_cas", "cas_multi_mismatch", "cas_retry_rounds",
    "lease_contended", "cache_overlapped_batches",
    "cache_multi_leases", "cache_multi_counters",
    "cache_hits", "cache_misses", "cache_bytes_moved", "cache_node_down",
    # Adaptive per-key consistency: band reclassifications and the cache
    # invalidations issued solely to migrate a key between bands.  Free in
    # the cost model — the migration's delete pays its own round trip.
    "band_switches", "adaptive_migrations",
)


class CostCounters:
    """Raw event counts accumulated while executing one operation.

    A ``__slots__`` counter bag (historically a dataclass; the constructor
    signature — every field a keyword with a 0 default — is unchanged).
    Field semantics, beyond the self-explanatory ones:

    * ``trigger_cache_batches`` — round trips issued from triggers, one per
      server batch (a single-key call is a batch of one).
    * ``trigger_cache_overlapped_batches`` — trigger-side server batches
      whose latency is hidden behind another batch of the same multi-op call
      (``pipeline_batches``): still a wire round trip, but charged no
      network wait.
    * ``trigger_cache_batch_ops`` — keys carried inside trigger-side batches
      that are sent, to a live node or the gutter (marshalling CPU, no round
      trip).
    * ``cache_multi_gets``/``_sets``/``_deletes``/``_cas`` — application
      round trips, one event per server batch, not per key (a single-key
      call is a batch of one; a CAS is charged stored or not — the value
      travels to the server either way).
    * ``cas_multi_mismatch`` — per-key CAS losses (any client context):
      keys whose token went stale between the read and the write.
    * ``cas_retry_rounds`` — extra gets_multi/cas_multi rounds a commit-time
      flush ran because at least one key lost its CAS (the rounds' round
      trips are counted by their own events; this tallies how often
      contention forced a retry).
    * ``lease_contended`` — lease reads denied the recompute token because
      another claimant holds the per-key window (served stale instead) —
      the lease-contention signal of the concurrent-worker replay.
    * ``cache_overlapped_batches`` — application-side server batches
      overlapped by ``pipeline_batches`` (wire round trips that wait behind
      a concurrent batch, so zero net ms).
    * ``cache_multi_leases`` — lease-protocol reads, one event per server
      batch.
    * ``cache_multi_counters`` — counter adjustments (incr/decr and their
      ``*_multi`` forms), one event per server batch.
    * ``cache_node_down`` — operations that failed fast against a dead cache
      node (cluster faults).  Not a round trip and free in the cost model:
      the liveness check is a client-side connection refusal, not a server
      exchange.
    """

    __slots__ = COST_COUNTER_FIELDS

    #: Field-name tuple, the slots equivalent of ``dataclasses.fields()``.
    FIELDS = COST_COUNTER_FIELDS

    @property
    def cache_round_trips(self) -> int:
        """Total cache-network round trips (one per server batch).

        Overlapped (pipelined) batches are still round trips on the wire —
        pipelining hides their *latency*, it does not remove the messages —
        so they count here and are excluded only from the network demand.
        """
        return (self.cache_multi_gets + self.cache_multi_sets
                + self.cache_multi_deletes + self.cache_multi_cas
                + self.cache_multi_leases + self.cache_multi_counters
                + self.cache_overlapped_batches
                + self.trigger_cache_batches
                + self.trigger_cache_overlapped_batches)

    def copy(self) -> "CostCounters":
        return CostCounters(**self.as_dict())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CostCounters):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in COST_COUNTER_FIELDS)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = ", ".join(f"{name}={getattr(self, name)}"
                            for name in COST_COUNTER_FIELDS
                            if getattr(self, name))
        return f"CostCounters({nonzero})"


for _name, _method in compile_counter_methods(COST_COUNTER_FIELDS).items():
    setattr(CostCounters, _name, _method)
CostCounters.add.__doc__ = "Accumulate another counter set into this one."
CostCounters.as_dict.__doc__ = "Field name -> value mapping, in field order."
del _name, _method


class Recorder:
    """Collects :class:`CostCounters` events for the currently active scope.

    The database, its triggers, and the memcache client all write into the
    same recorder so that a single measured operation (for example, one ORM
    query, or one INSERT whose trigger updates three cache keys) produces one
    combined counter set.
    """

    def __init__(self) -> None:
        self.total = CostCounters()
        self._active: Optional[CostCounters] = None

    def record(self, event: str, n: int = 1) -> None:
        """Record ``n`` occurrences of ``event`` (a CostCounters field name)."""
        total = self.total
        setattr(total, event, getattr(total, event) + n)
        active = self._active
        if active is not None:
            setattr(active, event, getattr(active, event) + n)

    def record_read(self, event: str, round_trips: int, hits: int,
                    misses: int, bytes_moved: int) -> None:
        """Record one cache read call's four counts at once: its
        ``round_trips`` as ``event``, and its hits, misses and bytes moved
        — what one :meth:`record` per batch and per key would add."""
        for bag in (self.total, self._active):
            if bag is not None:
                setattr(bag, event, getattr(bag, event) + round_trips)
                bag.cache_hits += hits
                bag.cache_misses += misses
                bag.cache_bytes_moved += bytes_moved

    def record_statement(self, index_node_touches: int, pages_hit: int,
                         pages_missed: int, rows_scanned: int,
                         rows_returned: int, sorts: int, sorted_rows: int,
                         joins: int) -> None:
        """Record one statement's work at once: one ``statements`` and its
        counts of each other event — what one :meth:`record` per event
        would add.  Unrolled over the two bags: the loop of
        :meth:`record_read` costs a statement 0.1 µs more."""
        bag = self.total
        bag.statements += 1
        bag.index_node_touches += index_node_touches
        bag.pages_hit += pages_hit
        bag.pages_missed += pages_missed
        bag.rows_scanned += rows_scanned
        bag.rows_returned += rows_returned
        bag.sorts += sorts
        bag.sorted_rows += sorted_rows
        bag.joins += joins
        bag = self._active
        if bag is not None:
            bag.statements += 1
            bag.index_node_touches += index_node_touches
            bag.pages_hit += pages_hit
            bag.pages_missed += pages_missed
            bag.rows_scanned += rows_scanned
            bag.rows_returned += rows_returned
            bag.sorts += sorts
            bag.sorted_rows += sorted_rows
            bag.joins += joins

    def activate_scope(self, counters: Optional[CostCounters]) -> Optional[CostCounters]:
        """Swap the active measurement scope, returning the previous one.

        The concurrent replay engine attributes events to whichever worker
        is running: on every worker switch it installs that worker's page
        counters as the scope.  Unlike :meth:`measure`, swapped-out scopes
        do not absorb the events of the scope that replaced them — they
        were recorded while a *different* worker ran.
        """
        previous, self._active = self._active, counters
        return previous

    @contextlib.contextmanager
    def measure(self) -> Iterator[CostCounters]:
        """Collect the events recorded inside the ``with`` block.

        Nested measurements are not supported (the inner block would steal
        events from the outer one); the previous scope is restored on exit so
        accidental nesting degrades to outer-scope attribution.
        """
        previous = self._active
        counters = CostCounters()
        self._active = counters
        try:
            yield counters
        finally:
            self._active = previous
            if previous is not None:
                previous.add(counters)


@dataclass
class Demand:
    """Simulated service demand of one operation, split by resource (ms)."""

    db_cpu_ms: float = 0.0
    db_disk_ms: float = 0.0
    cache_net_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return self.db_cpu_ms + self.db_disk_ms + self.cache_net_ms

    def add(self, other: "Demand") -> None:
        self.db_cpu_ms += other.db_cpu_ms
        self.db_disk_ms += other.db_disk_ms
        self.cache_net_ms += other.cache_net_ms

    def scaled(self, factor: float) -> "Demand":
        return Demand(
            self.db_cpu_ms * factor,
            self.db_disk_ms * factor,
            self.cache_net_ms * factor,
        )


@dataclass
class CostModel:
    """Converts event counts into per-resource service demands.

    All parameters are in milliseconds per event.  Defaults are calibrated
    against the microbenchmarks reported in §5.3 of the paper.
    """

    # --- DB CPU costs ---
    statement_overhead_ms: float = 0.45     # parse/plan/dispatch per statement
    row_scan_cpu_ms: float = 0.006          # evaluate predicate against one row
    row_return_cpu_ms: float = 0.012        # materialize one result row
    index_node_cpu_ms: float = 0.02         # walk one B+Tree node
    sort_row_cpu_ms: float = 0.008          # comparison-sort work per row
    join_overhead_ms: float = 0.08          # per join in a statement
    page_hit_cpu_ms: float = 0.02           # touch a page already in the pool
    trigger_launch_cpu_ms: float = 0.2      # fire one trigger (paper: 6.5 - 6.3 ms)
    trigger_row_cpu_ms: float = 0.05        # per-row Python work inside a trigger
    trigger_op_cpu_ms: float = 0.6          # marshal/serialize one value inside a trigger
    # --- DB disk costs ---
    page_read_disk_ms: float = 3.0          # random read on a buffer miss
    page_write_disk_ms: float = 0.5         # write back one dirtied page (amortized)
    insert_disk_ms: float = 6.0             # WAL + heap/index writes for one INSERT
    update_disk_ms: float = 4.0             # WAL + in-place write for one UPDATE
    delete_disk_ms: float = 4.0             # WAL + tombstone for one DELETE
    commit_disk_ms: float = 2.5             # group-commit fsync share per write
    # --- cache / network costs ---
    cache_op_net_ms: float = 0.2            # one memcached round trip (paper: ~0.2 ms)
    cache_byte_net_ms: float = 0.00002      # marginal per-byte transfer cost
    # Opening a remote memcached connection from inside a trigger costs ~5.4 ms
    # in the paper's microbenchmark.  Roughly half of that is CPU on the
    # database host (socket setup, plpython marshalling) and half is waiting
    # on the network — split accordingly so trigger-heavy writes consume real
    # database capacity as well as latency.
    trigger_connection_cpu_ms: float = 2.7
    trigger_connection_net_ms: float = 2.7
    trigger_cache_op_ms: float = 0.2        # each memcached op issued from a trigger

    def demand(self, counters: CostCounters) -> Demand:
        """Convert ``counters`` into a per-resource service demand."""
        cpu = (
            counters.statements * self.statement_overhead_ms
            + counters.rows_scanned * self.row_scan_cpu_ms
            + counters.rows_returned * self.row_return_cpu_ms
            + counters.index_node_touches * self.index_node_cpu_ms
            + counters.sorted_rows * self.sort_row_cpu_ms
            + counters.joins * self.join_overhead_ms
            + counters.pages_hit * self.page_hit_cpu_ms
            + counters.trigger_launches * self.trigger_launch_cpu_ms
            + counters.trigger_rows_examined * self.trigger_row_cpu_ms
            # Batching a trigger-side op saves the round trip, not the
            # per-value marshalling: each key of a batch pays CPU.
            + counters.trigger_cache_batch_ops * self.trigger_op_cpu_ms
            + counters.trigger_connections * self.trigger_connection_cpu_ms
        )
        disk = (
            counters.pages_missed * self.page_read_disk_ms
            + counters.pages_dirtied * self.page_write_disk_ms
            + counters.inserts * self.insert_disk_ms
            + counters.updates * self.update_disk_ms
            + counters.deletes * self.delete_disk_ms
            + counters.commits * self.commit_disk_ms
        )
        net = (
            # A batch pays one round trip per server, however many keys it
            # carries (the per-key payload is in cache_bytes_moved).
            # Overlapped batches (``pipeline_batches``) wait behind another
            # batch of the same call, so they add no network time here —
            # the flush pays max() over its per-server batches, not sum().
            (counters.cache_multi_gets + counters.cache_multi_sets
             + counters.cache_multi_deletes + counters.cache_multi_cas
             + counters.cache_multi_leases + counters.cache_multi_counters)
            * self.cache_op_net_ms
            + counters.cache_bytes_moved * self.cache_byte_net_ms
            # The network-wait half of opening a trigger-side memcached
            # connection, plus each memcached round trip issued by a trigger
            # (one per server batch; overlapped trigger batches are
            # latency-free, as above).
            + counters.trigger_connections * self.trigger_connection_net_ms
            + counters.trigger_cache_batches * self.trigger_cache_op_ms
        )
        return Demand(db_cpu_ms=cpu, db_disk_ms=disk, cache_net_ms=net)
