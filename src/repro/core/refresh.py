"""Background refresh worker for stale-serving consistency strategies.

The ``leased-invalidate`` and ``async-refresh`` strategies decouple *serving*
from *recomputing*: a read that finds a stale entry returns it immediately
and schedules one recompute instead of blocking on the database.  The
:class:`RefreshQueue` models the background worker that performs those
recomputes: entries are keyed by cache key (a burst of stale reads schedules
exactly one refresh), each carries a virtual-time ``ready_at``, and the queue
drains lazily whenever the application next touches the cache — the same
way a worker thread would make progress between requests.

Refreshes recompute through the owning cached object and store through its
strategy (so async-refresh envelopes get a new freshness deadline, and a
leased key's fresh ``set`` clears the server-side stale retention).  Each
completed refresh credits the object's ``recomputations`` counter — the
background analogue of a blocking ``db_fallbacks``.

**Worker contexts.**  Under the concurrent replay engine each worker models
its own refresh thread: the engine installs the worker's own
:class:`RefreshContext` as :attr:`RefreshQueue.context` whenever it runs, so
a worker drains only the refreshes its own stale reads scheduled and
coalescing is per worker.  At worker teardown
:meth:`RefreshQueue.close_context` folds any outstanding refreshes back into
the context the caller had — background work survives the replay, it just
loses its thread affinity.  The serial pipeline never installs one: one
worker *is* the default refresh thread.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from ..obs import hooks

if TYPE_CHECKING:  # pragma: no cover
    from .cache_classes.base import CacheClass


class _PendingRefresh:
    __slots__ = ("cached_object", "key", "params", "ready_at")

    def __init__(self, cached_object: "CacheClass", key: str,
                 params: Dict[str, Any], ready_at: float) -> None:
        self.cached_object = cached_object
        self.key = key
        self.params = params
        self.ready_at = ready_at


class RefreshContext:
    """One refresh thread's backlog: pending refreshes by cache key, and
    whether a drain of them is in progress."""

    __slots__ = ("pending", "draining")

    def __init__(self) -> None:
        self.pending: "OrderedDict[str, _PendingRefresh]" = OrderedDict()
        self.draining = False


class RefreshQueue:
    """Deduplicated queue of pending background recomputes.

    ``clock`` is a callable returning virtual seconds (the genie's clock);
    ``delay_seconds`` models the latency between scheduling a refresh and
    the background worker completing it — with the default of 0 the refresh
    is applied at the next drain point (still never on the critical path of
    the read that scheduled it).
    """

    def __init__(self, clock: Callable[[], float],
                 delay_seconds: float = 0.0) -> None:
        self.clock = clock
        self.delay_seconds = float(delay_seconds)
        #: The live refresh thread's backlog.
        self.context = RefreshContext()
        #: Every backlog not yet closed — the live one and any paused
        #: worker's — so removals and node deaths reach them all.
        self._backlogs: List[RefreshContext] = [self.context]
        # Lifetime statistics, for tests and the ablation report.
        self.scheduled = 0
        self.coalesced = 0
        self.completed = 0
        #: Refreshes dropped because their key's cache node died while the
        #: claim was outstanding (see :meth:`drop_orphaned`).
        self.orphaned_dropped = 0
        #: Keys in completion order — lets tests pin that a fixed scheduler
        #: seed drains contended refreshes in a deterministic order.
        self.completed_log: List[str] = []

    # -- state ------------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        return len(self.context.pending)

    def pending_keys(self) -> List[str]:
        return list(self.context.pending)

    # -- worker contexts --------------------------------------------------------

    def open_context(self) -> RefreshContext:
        """A new, empty backlog for one more refresh thread (a replay
        worker).  It becomes live when assigned to :attr:`context`."""
        context = RefreshContext()
        self._backlogs.append(context)
        return context

    def close_context(self, context: RefreshContext) -> int:
        """Retire a worker's backlog, folding it into the live one.

        Worker teardown: a refresh the worker scheduled but never drained is
        still owed to the cache — it returns to the live (normally default)
        backlog instead of vanishing with its thread.  A key already pending
        there coalesces.  Returns the number of refreshes adopted.
        """
        self._backlogs.remove(context)
        live = self.context.pending
        adopted = 0
        for key, entry in context.pending.items():
            if key in live:
                self.coalesced += 1
            else:
                live[key] = entry
                adopted += 1
        context.pending.clear()
        return adopted

    # -- scheduling -------------------------------------------------------------

    def schedule(self, cached_object: "CacheClass", key: str,
                 params: Dict[str, Any]) -> bool:
        """Queue one background recompute of ``key``.

        A key already pending coalesces (the later schedule is a no-op) —
        this is what turns a thundering herd of stale reads into a single
        database recompute.  Returns True if a new refresh was queued.
        """
        telemetry = getattr(getattr(cached_object, "app_cache", None),
                            "telemetry", None)
        if telemetry is not None:
            # Every schedule call is one stale serve (coalesced or not) —
            # the per-key staleness signal for adaptive band selection.
            telemetry.note_stale(key)
        pending = self.context.pending
        if key in pending:
            self.coalesced += 1
            return False
        self.scheduled += 1
        pending[key] = _PendingRefresh(
            cached_object, key, dict(params),
            ready_at=self.clock() + self.delay_seconds)
        return True

    # -- draining ---------------------------------------------------------------

    def drain(self, now: Optional[float] = None) -> int:
        """Run every pending refresh whose ``ready_at`` has passed.

        Re-entrant calls (a refresh's own database statements trigger a
        drain-calling code path) return immediately.  Returns the number of
        refreshes completed.
        """
        context = self.context
        pending = context.pending
        if context.draining or not pending:
            return 0
        now = self.clock() if now is None else now
        due = [key for key, entry in pending.items()
               if entry.ready_at <= now]
        if not due:
            return 0
        context.draining = True
        try:
            with hooks.span("refresh:drain", due=len(due)):
                for key in due:
                    with hooks.span("refresh:recompute", key=key):
                        self._run(pending.pop(key))
            return len(due)
        finally:
            context.draining = False

    def discard(self) -> int:
        """Drop every pending refresh, paused workers' included (teardown)."""
        dropped = 0
        for context in self._backlogs:
            dropped += len(context.pending)
            context.pending.clear()
        return dropped

    def discard_for(self, cached_object: "CacheClass") -> int:
        """Drop the pending refreshes scheduled by one cached object.

        Called when the object is removed: a refresh that outlives its
        declaration would recompute a dead query and repopulate a key whose
        triggers are gone (the same leak-after-removal class of bug that
        per-object stats once had).  Paused workers' backlogs are swept
        too: a removal that races a paused worker must not leave that worker
        a refresh of a dead query.
        """
        return self._drop_where(
            lambda key, entry: entry.cached_object is cached_object)

    def drop_orphaned(self, is_orphaned: Callable[[str], bool]) -> int:
        """Drop pending refreshes whose keys satisfy ``is_orphaned``.

        Cluster fault handling: when a cache node dies, any refresh claim a
        worker held for one of its keys is orphaned — completing it would
        write through to a dead node (a fail-fast no-op) while the claim's
        existence keeps other readers from re-claiming the key.  The cluster
        controller calls this with "routes to the dead node" as the
        predicate so surviving workers can win a fresh claim within one
        refresh cycle.  Sweeps every backlog, not just the live one (a dead
        lease holder is usually a paused worker).  Returns the number of
        claims dropped.
        """
        dropped = self._drop_where(lambda key, entry: is_orphaned(key))
        self.orphaned_dropped += dropped
        return dropped

    def _drop_where(self, doomed: Callable[[str, Any], bool]) -> int:
        dropped = 0
        for context in self._backlogs:
            pending = context.pending
            victims = [key for key, entry in pending.items()
                       if doomed(key, entry)]
            for key in victims:
                del pending[key]
            dropped += len(victims)
        return dropped

    def _run(self, entry: _PendingRefresh) -> None:
        cached_object = entry.cached_object
        frozen = cached_object._freeze(
            cached_object.compute_from_db(entry.params))
        # Stored through the *current* strategy: if the key's band switched
        # while the refresh was pending (adaptive consistency), the store
        # re-homes the entry under the new band's envelope + TTL.
        cached_object.strategy.store(cached_object, cached_object.app_cache,
                                     entry.key, frozen)
        cached_object.stats.recomputations += 1
        telemetry = getattr(cached_object.app_cache, "telemetry", None)
        if telemetry is not None:
            telemetry.note_refresh(entry.key)
        self.completed += 1
        self.completed_log.append(entry.key)
