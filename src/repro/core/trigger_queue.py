"""Commit-time coalescing of trigger-side cache operations.

The paper's §5.3 overhead analysis shows that per-operation cache round trips
dominate trigger cost: every row a transaction touches fires its triggers'
cache operations independently, so a 50-row update pays 50 round trips even
when they all land on the same handful of keys.  The :class:`TriggerOpQueue`
is the middleware answer: trigger-side operations *enqueue* instead of
executing, duplicate operations against the same key coalesce, and the queue
flushes as batched multi-key operations when the surrounding database
transaction commits.  An abort simply discards the queue: the cache was never
touched, so there is nothing to undo.

The paper's eager propagation (``CacheGenie(batch_trigger_ops=False)``) is
this same queue flushed right after each enqueued operation, inside the
trigger.  It writes the cache before its transaction commits, so it keeps
the paper's "dirty but not stale" window: an abort finds nothing to discard
and leaves whatever the flushes wrote.

Deferral also amortizes the trigger-side connection: however many triggers
fired during the transaction, the flush opens (at most) one memcached
connection, realizing the paper's connection-reuse future work as a side
effect of batching.

Two operation kinds cover every generated trigger body:

* ``delete`` — invalidation; wins over any pending mutation of the key.
* ``mutate`` — a read-modify-write (incremental update, count bump, or
  recomputation).  Mutations against the same key chain in order and are
  applied to a single batched read at flush; if the key is not cached the
  whole chain quits (paper §3.2).

The flush propagates mutations with the *batched CAS protocol*:
``gets_multi`` reads every pending key with its CAS token (one round trip
per server), the mutation chains run in memory, and ``cas_multi`` writes the
results back conditionally (again one round trip per server).  Per-key
verdicts mean a stale token loses only its own key: the flush re-reads and
retries just the losers, up to :data:`CAS_MAX_RETRIES` rounds, then
falls back to invalidating whatever still cannot win.  Within one database
(one writer) the tokens never go stale and the flush costs exactly one
gets_multi/cas_multi pair; under concurrent writers the CAS keeps lost-update
anomalies out of the cache at the cost of the occasional retry round.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (Any, Callable, Dict, FrozenSet, List,  # noqa: F401
                    Optional, Tuple)

from ..memcache.server import CAS_MISMATCH, CAS_STORED, CAS_TOO_LARGE
from ..obs import hooks
from .strategies import is_envelope

#: Mutation: current cached value -> new value, or None to leave it untouched.
MutateFn = Callable[[Any], Optional[Any]]

#: Bounded CAS rounds per flush before falling back to invalidation.
CAS_MAX_RETRIES = 5


class _PendingOp:
    """The coalesced pending operation for one cache key."""

    __slots__ = ("kind", "owner", "mutations")

    def __init__(self, kind: str, owner: Any) -> None:
        self.kind = kind                     # "delete" | "mutate"
        self.owner = owner                   # the CacheClass for stats credit
        self.mutations: List[MutateFn] = []


class OpContext:
    """One transaction's coalesced ops by cache key, whether a flush of them
    is in progress, and their key set frozen."""

    __slots__ = ("ops", "flushing", "frozen")

    def __init__(self) -> None:
        self.ops: "OrderedDict[str, _PendingOp]" = OrderedDict()
        self.flushing = False
        #: ``frozenset(ops)``, cached until the key set changes.
        self.frozen: Optional[FrozenSet[str]] = None

    def pending_keys(self) -> FrozenSet[str]:
        """The pending op keys, as a cached frozenset (do not mutate)."""
        frozen = self.frozen
        if frozen is None:
            frozen = self.frozen = frozenset(self.ops)
        return frozen


class TriggerOpQueue:
    """Per-transaction queue of trigger-side cache operations.

    Ops enqueue during the transaction (keyed by cache key, coalescing
    duplicates) and flush as ``gets_multi``/``cas_multi``/``delete_multi``
    batches at commit, or right after each enqueue when ``per_operation``
    (the eager mode).  :meth:`discard` drops everything on abort.
    """

    def __init__(self, cache_client: Any, per_operation: bool,
                 cas_max_retries: int = CAS_MAX_RETRIES) -> None:
        self.cache = cache_client
        self.per_operation = per_operation
        self.cas_max_retries = cas_max_retries
        #: The live transaction's pending ops (see :class:`OpContext`).
        self.context = OpContext()
        # Lifetime statistics only this queue keeps.  Flushes and their
        # keys are flush()'s return and the ``trigger:flush`` span; CAS
        # retry rounds are the recorder's ``cas_retry_rounds``, and the
        # keys retried each owner's ``stats.cas_retries``.
        self.enqueued = 0
        self.coalesced = 0
        self.discarded = 0
        #: Keys invalidated after exhausting every CAS retry round.
        self.cas_fallbacks = 0

    # -- enqueueing -------------------------------------------------------------

    def enqueue_delete(self, owner: Any, key: str) -> None:
        """Queue an invalidation of ``key`` (wins over pending mutations)."""
        context = self.context
        self.enqueued += 1
        ops = context.ops
        if key in ops:
            self.coalesced += 1
        else:
            context.frozen = None
        ops[key] = _PendingOp("delete", owner)
        if self.per_operation:
            self.flush()

    def enqueue_mutate(self, owner: Any, key: str, mutate: MutateFn) -> None:
        """Queue a read-modify-write of ``key``.

        A pending delete absorbs the mutation (the key will not be cached
        when the trigger would have read it, so the trigger would quit);
        a pending mutation chains with it.
        """
        context = self.context
        self.enqueued += 1
        pending = context.ops.get(key)
        if pending is not None:
            self.coalesced += 1
            if pending.kind == "delete":
                return
            pending.mutations.append(mutate)
            return
        op = _PendingOp("mutate", owner)
        op.mutations.append(mutate)
        context.frozen = None
        context.ops[key] = op
        if self.per_operation:
            self.flush()

    # -- flush / discard ---------------------------------------------------------

    def flush(self) -> int:
        """Execute the queued operations as batched multi-ops.

        Returns the number of keys operated on.  Re-entrant calls (a mutation
        that recomputes from the database commits its own read statements)
        see an empty queue and return immediately.  If the propagation is
        interrupted — a mutation raises, or the replay engine unwinds the
        worker at one of its yield points — every key of the flush is
        invalidated before the exception continues: the transaction has
        already committed, so its ops must not vanish with the flush.
        """
        context = self.context
        if context.flushing or not context.ops:
            return 0
        context.flushing = True
        context.frozen = None
        ops, context.ops = context.ops, OrderedDict()
        with hooks.span("trigger:flush", pending=len(ops)):
            try:
                deletes = [(k, op) for k, op in ops.items()
                           if op.kind == "delete"]
                mutates = {k: op for k, op in ops.items()
                           if op.kind == "mutate"}

                if mutates:
                    self._flush_mutations(mutates)

                if deletes:
                    self._flush_deletes(deletes)
                return len(ops)
            except BaseException:
                # delete_multi lands before its own pause, so this holds
                # even when that pause re-raises the engine's unwind.
                self._invalidate_fallback(ops)
                raise
            finally:
                context.flushing = False

    def _flush_deletes(self, deletes: List[Tuple[str, _PendingOp]]) -> None:
        """Flush queued invalidations, one batched multi-op per strategy.

        Each owner's :class:`~repro.core.strategies.ConsistencyStrategy`
        chooses the wire form of its batched invalidation —
        ``delete_multi`` for classic invalidation, ``lease_delete_multi``
        (stale-retaining) for leased invalidation — so a transaction mixing
        strategies still flushes one batch per (strategy, server).
        """
        groups: "OrderedDict[int, Tuple[Any, List[Tuple[str, _PendingOp]]]]" = OrderedDict()
        for key, op in deletes:
            strategy = getattr(op.owner, "strategy", None)
            bucket = groups.setdefault(id(strategy), (strategy, []))
            bucket[1].append((key, op))
        for strategy, items in groups.values():
            keys = [k for k, _ in items]
            if strategy is not None:
                removed = set(strategy.flush_invalidations(self.cache, keys))
            else:
                removed = set(self.cache.delete_multi(keys))
            for key, op in items:
                if key in removed:
                    self._credit(op.owner, "invalidations")

    def _flush_mutations(self, pending: Dict[str, _PendingOp]) -> None:
        """Propagate mutation chains with batched CAS, retrying only losers.

        Each round: one ``gets_multi`` over the outstanding keys, the chains
        applied in memory, one ``cas_multi``.  Keys whose
        token went stale (``mismatch``) stay outstanding for the next round;
        keys that vanished, were never cached, or whose chain declined to
        write drop out (the trigger quits, paper §3.2).  Keys still losing
        after the retry bound are invalidated for safety.
        """
        outstanding = dict(pending)
        for round_index in range(self.cas_max_retries):
            with hooks.span("trigger:cas_round", round=round_index,
                            outstanding=len(outstanding)):
                losers = self._flush_cas_round(outstanding, round_index)
            if losers is None:
                return
            outstanding = losers
        # Retries exhausted: invalidate the unwinnable keys so no stale
        # value survives.
        self._invalidate_fallback(outstanding)

    def _flush_cas_round(self, outstanding: Dict[str, _PendingOp],
                         round_index: int) -> Optional[Dict[str, _PendingOp]]:
        """One gets_multi → mutate → cas_multi round; returns the losing
        keys still outstanding, or None when the flush is settled."""
        current = self.cache.gets_multi(list(outstanding))
        staged: Dict[str, Tuple[Any, int]] = {}
        staged_ops: Dict[str, _PendingOp] = {}
        foreign: Dict[str, _PendingOp] = {}
        for key, op in outstanding.items():
            hit = current.get(key)
            if hit is None:
                continue  # not cached: the trigger quits (paper §3.2)
            value, token = hit
            if is_envelope(value):
                # An adaptive band migration re-wrapped the entry as an
                # async-refresh envelope after this mutation enqueued.
                # Incremental patches cannot apply to the foreign
                # representation (and the envelope's base predates the
                # write), so fall back to invalidation — the chain
                # quits on a representation it does not own.
                foreign[key] = op
                continue
            dirty = False
            for mutate in op.mutations:
                # None means "this mutation leaves the entry alone"
                # (the trigger's per-op quit); later mutations in
                # the chain still apply to the last written value.
                new_value = mutate(value)
                if new_value is not None:
                    value = new_value
                    dirty = True
            if not dirty:
                continue
            staged[key] = (value, token)
            staged_ops[key] = op
        if foreign:
            self._invalidate_fallback(foreign)
        if not staged_ops:
            return None
        losers: Dict[str, _PendingOp] = {}
        unstorable: Dict[str, _PendingOp] = {}
        for key, verdict in self.cache.cas_multi(staged).items():
            if verdict == CAS_STORED:
                self._credit(staged_ops[key].owner, "updates_applied")
            elif verdict == CAS_MISMATCH:
                # Token went stale between the batched read and this
                # write: keep only this key for the next round.
                losers[key] = staged_ops[key]
            elif verdict == CAS_TOO_LARGE:
                # Re-reading cannot shrink an oversized value, so
                # skip the retry rounds and invalidate immediately.
                unstorable[key] = staged_ops[key]
            else:
                # "missing": the entry vanished between the read and
                # the write.  On a live node the invalidation is a
                # cheap no-op (the key is already gone), but when the
                # verdict comes from a *dead* node — CAS tokens die
                # with their node — the fallback forwards the delete
                # to the gutter pool, so no fallback copy of the key
                # outlives the mutation that just failed to land.
                unstorable[key] = staged_ops[key]
        if unstorable:
            self._invalidate_fallback(unstorable)
        if not losers:
            return None
        recorder = getattr(self.cache, "recorder", None)
        if recorder is not None:
            recorder.record("cas_retry_rounds")
        telemetry = getattr(self.cache, "telemetry", None)
        if telemetry is not None:
            # Per-key contention signal for adaptive band selection:
            # each loser re-enters a retry round under a concurrent
            # writer (the mismatch itself was noted by cas_multi).
            for key in losers:
                telemetry.note_cas_retry(key)
        for op in losers.values():
            self._credit(op.owner, "cas_retries")
        return losers

    def _invalidate_fallback(self, unwinnable: Dict[str, _PendingOp]) -> None:
        """Invalidate keys whose mutation cannot be stored (lost every CAS
        round, the value outgrew the server's item limit, or the flush was
        interrupted)."""
        self.cas_fallbacks += len(unwinnable)
        removed = set(self.cache.delete_multi(list(unwinnable)))
        for key, op in unwinnable.items():
            if key in removed:
                self._credit(op.owner, "invalidations")

    def discard(self) -> int:
        """Drop every queued operation without touching the cache (abort)."""
        return self.close_context(self.context)

    def open_context(self) -> OpContext:
        """A new, empty op space (a replay worker's); it becomes live when
        assigned to :attr:`context`."""
        return OpContext()

    def close_context(self, context: OpContext) -> int:
        """Drop ``context``'s queued operations without touching the cache:
        an abort, or a worker retired with a transaction it never committed.
        Returns the number dropped."""
        dropped = len(context.ops)
        context.ops.clear()
        context.frozen = None
        self.discarded += dropped
        return dropped

    @staticmethod
    def _credit(owner: Any, counter: str) -> None:
        stats = getattr(owner, "stats", None)
        if stats is not None and hasattr(stats, counter):
            setattr(stats, counter, getattr(stats, counter) + 1)
