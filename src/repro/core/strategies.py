"""First-class, pluggable cache-consistency strategies.

The paper exposes three per-cached-object strategies (§3.1, §4), selected
with ``cacheable(..., update_strategy=...)`` or inherited from the genie's
``default_strategy``.  They used to be plain strings dispatched with
``if strategy == "invalidate"`` comparisons scattered across the trigger
generator, the commit-time op queue, the cache-class base, and the benchmark
scenarios; they are now *objects* implementing the
:class:`ConsistencyStrategy` protocol, resolved once through a registry, so
every layer dispatches through the object and new strategies plug in without
touching any of those layers.

Built-in strategies
-------------------

``update-in-place`` (:class:`UpdateInPlaceStrategy`, the default)
    Generated triggers *incrementally patch* the cached value on every
    INSERT/UPDATE/DELETE of a backing row: counts bump, Top-K lists splice
    the changed row in or out, feature rows are rewritten.  Readers never
    see stale data and — unlike invalidation — never pay a recompute after
    a write.  With commit-time batching (the system default) each
    transaction's mutations coalesce per key and flush at COMMIT as one
    ``gets_multi`` + ``cas_multi`` pair per server with per-key verdicts;
    the eager mode runs a per-key ``gets``/``cas`` loop inside the trigger.
    Moves ``updates_applied`` (and ``recomputations`` where a patch is not
    derivable), plus ``cas_retries``/``invalidations`` under contention.

``invalidate`` (:class:`InvalidateStrategy`)
    Triggers *delete* every affected key; the next read misses and
    recomputes from the database.  Always correct, no stale data, but
    read-heavy workloads pay a database round trip after every write and
    hot keys can thrash.  Under batching, deletes coalesce per key and
    flush as one ``delete_multi`` per server at COMMIT.
    Moves ``invalidations`` and, on the read side, ``cache_misses`` +
    ``db_fallbacks``.

``expiry`` (:class:`ExpiryStrategy`)
    No triggers at all: entries carry a TTL (``expiry_seconds``, default
    30 s) and readers tolerate staleness up to that bound — the classic
    memcached deployment the paper argues against for dynamic sites.
    Moves ``expirations`` on the servers; neither ``updates_applied`` nor
    ``invalidations`` ever change.

``leased-invalidate`` (:class:`LeasedInvalidateStrategy`)
    Invalidation plus a short per-key *lease*: a trigger-side delete
    retains the old value as *stale* for ``stale_seconds``, and the cache
    server hands out at most one lease token per ``lease_seconds`` per key.
    The reader that wins the token schedules one background recompute; every
    other reader in the window is served the stale value instead of
    stampeding the database — the fix for invalidation's hot-key thundering
    herd (the lease design of Nishtala et al., *Scaling Memcache at
    Facebook*).  Staleness is bounded by the lease window.  Moves
    ``stale_served`` + ``recomputations`` in place of most of plain
    invalidation's ``db_fallbacks``.

``async-refresh`` (:class:`AsyncRefreshStrategy`)
    Stale-while-revalidate, a new point between ``expiry`` and
    ``invalidate``: entries carry a *freshness* window (no triggers), but a
    read past the window still serves the stale entry and schedules exactly
    one background recompute instead of blocking on the database the way an
    expired entry would.  Worst-case staleness is the hard TTL
    (``refresh_seconds + stale_grace_seconds``) — a rarely-read entry can be
    served up to that age before it dies; once a stale read fires the
    refresh, subsequent reads are fresh again.  Moves ``stale_served`` +
    ``recomputations``; never ``invalidations``.

Extending
---------

Subclass :class:`ConsistencyStrategy`, override the hooks the strategy
needs, and call :func:`register_strategy`::

    class TimestampedInvalidate(InvalidateStrategy):
        name = "timestamped-invalidate"
        ...

    register_strategy(TimestampedInvalidate())
    genie.cacheable(..., update_strategy="timestamped-invalidate")

The read path is written once, in :func:`read_through`; a strategy changes
how keys are read by overriding ``fetch_multi`` and how they are dropped by
overriding ``flush_invalidations``.  Both take ``single``, which the call
site fixes: ``evaluate()`` reads a batch of one and an eager trigger drops
one key with ``single=True``.  The strategy then calls the single-key client
method (``get``, ``lease``, ``delete``, ``lease_delete``; the write-back is a
``set``) instead of its ``*_multi`` form, so the round trip is charged as a
single-key event and does not yield to the replay scheduler.  Nothing else
depends on it.

Legacy string names (``"update-in-place"``, ``"invalidate"``, ``"expiry"``)
resolve through the registry to module-level singletons, so every existing
``cacheable(...)`` call keeps working unchanged.
"""

from __future__ import annotations

from typing import (Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING,
                    Union)

from ..errors import CacheClassError
from ..memcache.server import LEASE_ACQUIRED, LEASE_HIT, LEASE_STALE

if TYPE_CHECKING:  # pragma: no cover
    from .cache_classes.base import CacheClass

#: Canonical names of the built-in strategies.
UPDATE_IN_PLACE = "update-in-place"
INVALIDATE = "invalidate"
EXPIRY = "expiry"
LEASED_INVALIDATE = "leased-invalidate"
ASYNC_REFRESH = "async-refresh"

#: Key marking an async-refresh wrapper envelope in the cache.
_FRESH_UNTIL_KEY = "__cg_fresh_until__"

#: ``(cached_object, key, params)``: one request of the read path.
ReadEntry = Tuple["CacheClass", str, Dict[str, Any]]


def is_envelope(value: Any) -> bool:
    """Whether a cached value is an async-refresh envelope."""
    return isinstance(value, dict) and _FRESH_UNTIL_KEY in value


def unwrap_envelope(value: Any) -> Any:
    """The frozen value inside an async-refresh envelope; any other value
    is returned as it is."""
    return value["value"] if is_envelope(value) else value


def _get(client: Any, keys: List[str], single: bool) -> Dict[str, Any]:
    """``get_multi``, or ``get`` for a batch of one; returns the hits."""
    if not single:
        return client.get_multi(keys)
    value = client.get(keys[0])
    return {} if value is None else {keys[0]: value}


def read_through(client: Any, entries: Sequence[ReadEntry],
                 single: bool = False) -> List[Any]:
    """The read path (§3.1): serve each request from the cache, else compute
    it from the database and write it back.

    Unique keys are grouped by strategy so each read protocol runs once, in
    :meth:`ConsistencyStrategy.fetch_multi` (one round trip per server; a
    stale-serving strategy also schedules its background refreshes there).
    Hits, stale serves and misses are counted on each request's object, and
    the misses are written back with one ``set_multi`` per expiry group.
    ``single`` is ``evaluate()``'s batch of one (see the module docstring).
    Returns the values in request order, shaped as ``evaluate()`` hands them
    out.
    """
    by_strategy: Dict[int, Tuple[ConsistencyStrategy, List[ReadEntry]]] = {}
    seen_keys = set()
    for cached_object, key, normalized in entries:
        if key in seen_keys:
            continue
        seen_keys.add(key)
        bucket = by_strategy.setdefault(
            id(cached_object.strategy), (cached_object.strategy, []))
        bucket[1].append((cached_object, key, normalized))
    found: Dict[str, Tuple[Any, bool]] = {}
    for strategy, items in by_strategy.values():
        found.update(strategy.fetch_multi(client, items, single))

    # Miss write-back: every value is enveloped by its *own* object's
    # strategy (wrap_for_store may depend on per-object state), then batched
    # into one set_multi per expiry group.
    writes: Dict[Optional[float], Dict[str, Any]] = {}
    computed: Dict[str, Any] = {}
    results: List[Any] = []
    for cached_object, key, normalized in entries:
        if key in found:
            frozen, stale = found[key]
            cached_object.stats.cache_hits += 1
            if stale:
                cached_object.stats.stale_served += 1
        elif key in computed:
            # A duplicate request in the same batch: serve the value computed
            # a moment ago (a sequential loop would have hit the fresh entry).
            cached_object.stats.cache_hits += 1
            frozen = computed[key]
        else:
            cached_object.stats.cache_misses += 1
            cached_object.stats.db_fallbacks += 1
            value = cached_object.compute_from_db(normalized)
            frozen = cached_object._freeze(value)
            computed[key] = frozen
            writes.setdefault(cached_object._expire(key), {})[key] = \
                cached_object.strategy.wrap_for_store(cached_object, frozen,
                                                      key=key)
        results.append(cached_object._present(cached_object._thaw(frozen)))
    for expire, mapping in writes.items():
        if single:
            [(key, value)] = mapping.items()
            client.set(key, value, expire=expire)
        else:
            client.set_multi(mapping, expire=expire)
    return results


class ConsistencyStrategy:
    """The protocol every cache-consistency strategy implements.

    A strategy object owns *policy*; the cache classes own *mechanism*
    (how to patch a Top-K list, how to compute a count).  One strategy
    instance is shared by every cached object using it, so instances hold
    configuration only (windows, TTLs) — per-object state lives on the
    :class:`~repro.core.cache_classes.base.CacheClass` and per-transaction
    state on the :class:`~repro.core.trigger_queue.TriggerOpQueue`.

    Hook overview (everything has a working default):

    ===========================  ==================================================
    hook                         responsibility
    ===========================  ==================================================
    ``needs_triggers``           class attr: install DB triggers for this strategy?
    ``serves_stale``             class attr: may a read return stale data?
    ``counters_moved``           class attr: stats this strategy moves (for docs)
    ``on_write``                 a trigger fired: propagate the change
    ``flush_invalidations``      drop the commit-time queue's keys, or one key
                                 eagerly (``single=True``)
    ``render_trigger_body``      per-key body lines of the generated trigger source
    ``fetch_multi``              the read protocol of :func:`read_through`
    ``fetch``                    evaluate()'s read path: fetch_multi on a batch
                                 of one (override fetch_multi)
    ``wrap_for_store``           envelope applied to stored values
    ``expiry_for``               server-side TTL for stored entries
    ===========================  ==================================================
    """

    #: Registry name; also what ``CacheClass.update_strategy`` reports.
    name: str = "abstract"
    #: Whether CacheGenie must install INSERT/UPDATE/DELETE triggers.
    needs_triggers: bool = False
    #: Whether a read may return data older than the latest committed write.
    serves_stale: bool = False
    #: Statistics counters this strategy moves (documentation/introspection).
    counters_moved: Tuple[str, ...] = ()
    #: One-line description of how the strategy degrades when a cache node
    #: dies (cluster dynamics; see docs/CLUSTER.md's failover table).
    failover: str = ("reads miss through to the database; writes are "
                     "fail-fast no-ops against the dead node")

    # -- storage ---------------------------------------------------------------

    def expiry_for(self, cached_object: "CacheClass",
                   key: Optional[str] = None) -> Optional[float]:
        """Server-side TTL (seconds) for this object's entries, or None.

        ``key`` is the cache key being stored, for strategies whose policy
        varies per key (the adaptive strategy); static strategies ignore it.
        """
        return None

    def wrap_for_store(self, cached_object: "CacheClass", frozen: Any,
                       key: Optional[str] = None) -> Any:
        """Envelope a frozen value before it is stored (identity by default).

        ``key`` is the cache key being stored (see :meth:`expiry_for`).
        """
        return frozen

    def store(self, cached_object: "CacheClass", client: Any, key: str,
              frozen: Any) -> None:
        """Write a computed value through this strategy's envelope + TTL."""
        client.set(key, self.wrap_for_store(cached_object, frozen, key=key),
                   expire=self.expiry_for(cached_object, key=key))

    # -- read path -------------------------------------------------------------

    def fetch(self, cached_object: "CacheClass", key: str,
              params: Dict[str, Any]) -> Any:
        """``evaluate()``'s read path: :meth:`fetch_multi` on a batch of one,
        through :func:`read_through`.  Override :meth:`fetch_multi`."""
        return read_through(cached_object.app_cache,
                            [(cached_object, key, params)], single=True)[0]

    def fetch_multi(self, client: Any, items: Sequence[ReadEntry],
                    single: bool = False) -> Dict[str, Tuple[Any, bool]]:
        """The read protocol of :func:`read_through`.

        ``items`` carries unique keys with their owning object and
        parameters.  Returns ``{key: (frozen_value, was_stale)}`` for every
        key this strategy can serve without the database; the caller
        computes the rest and writes them back.  Side effects (scheduling
        refreshes) happen here; per-request hit/miss statistics are counted
        by the caller.  The default is the classic look-aside ``get``.
        """
        found = _get(client, [key for _, key, _ in items], single)
        return {key: (value, False) for key, value in found.items()}

    # -- write path (trigger side) ---------------------------------------------

    def on_write(self, cached_object: "CacheClass", table: str, event: str,
                 new: Optional[Dict[str, Any]],
                 old: Optional[Dict[str, Any]]) -> None:
        """A database trigger fired for a row change affecting this object.

        Only called when :attr:`needs_triggers` is True (otherwise no
        triggers exist to fire).  The default does nothing.
        """

    def flush_invalidations(self, client: Any, keys: Sequence[str],
                            single: bool = False) -> List[str]:
        """Drop ``keys``: the commit-time queue's pending invalidations for
        this strategy in one multi-op per server, or — ``single`` — one key
        right now (the eager, per-operation trigger path).

        Returns the keys that existed (for ``invalidations`` crediting).
        """
        if single:
            return [keys[0]] if client.delete(keys[0]) else []
        return client.delete_multi(list(keys))

    def render_trigger_body(self, cached_object: "CacheClass",
                            batched: bool) -> List[str]:
        """Source lines of the generated trigger's per-key loop (§5.2).

        ``batched`` selects between the commit-time-queue body and the
        paper's original eager per-key body.  Only consulted when
        :attr:`needs_triggers` is True.
        """
        return ["    pass  # no trigger-side work for this strategy"]

    # -- introspection ---------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """Summary used by docs tooling and the strategy ablation report."""
        return {
            "name": self.name,
            "needs_triggers": self.needs_triggers,
            "serves_stale": self.serves_stale,
            "counters_moved": list(self.counters_moved),
            "failover": self.failover,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self.name!r}>"


# ---------------------------------------------------------------------------
# Built-in strategies
# ---------------------------------------------------------------------------

class UpdateInPlaceStrategy(ConsistencyStrategy):
    """Triggers incrementally patch affected entries (the paper's headline)."""

    name = UPDATE_IN_PLACE
    needs_triggers = True
    serves_stale = False
    counters_moved = ("updates_applied", "recomputations", "cas_retries",
                      "invalidations")
    failover = ("CAS tokens die with the node: flush-time cas_multi reports "
                "'missing' and falls back to invalidation (forwarded to the "
                "gutter), so no stale fallback copy survives a mutation")

    def on_write(self, cached_object: "CacheClass", table: str, event: str,
                 new: Optional[Dict[str, Any]],
                 old: Optional[Dict[str, Any]]) -> None:
        cached_object.apply_incremental_update(table, event, new, old)

    def render_trigger_body(self, cached_object: "CacheClass",
                            batched: bool) -> List[str]:
        apply_fn = f"apply_{cached_object.cache_class_type.lower()}_update"
        if batched:
            return [
                "    for cache_key in affected:",
                "        # flush: gets_multi -> apply chain -> cas_multi (retry losers)",
                f"        queue.enqueue_mutate(cache_key, lambda cached_value: {apply_fn}(",
                "            cached_value, event, new_row, old_row))",
            ]
        return [
            "    for cache_key in affected:",
            "        (cached_value, cas_token) = cache.gets(cache_key)",
            "        if cached_value is None:",
            "            continue  # not cached: the trigger quits",
            f"        new_value = {apply_fn}(",
            "            cached_value, event, new_row, old_row)",
            "        if new_value is None:",
            "            continue",
            "        if not cache.cas(cache_key, new_value, cas_token):",
            "            cache.delete(cache_key)  # lost the race: fall back to invalidation",
        ]


class InvalidateStrategy(ConsistencyStrategy):
    """Triggers delete affected keys; the next read recomputes."""

    name = INVALIDATE
    needs_triggers = True
    serves_stale = False
    counters_moved = ("invalidations", "cache_misses", "db_fallbacks")
    failover = ("deletes are forwarded to the gutter pool so fallback reads "
                "never outlive an invalidation; reads miss through otherwise")

    def on_write(self, cached_object: "CacheClass", table: str, event: str,
                 new: Optional[Dict[str, Any]],
                 old: Optional[Dict[str, Any]]) -> None:
        cached_object.invalidate_affected(table, event, new, old)

    def render_trigger_body(self, cached_object: "CacheClass",
                            batched: bool) -> List[str]:
        if batched:
            return [
                "    for cache_key in affected:",
                "        queue.enqueue_delete(cache_key)  # coalesced per key",
            ]
        return [
            "    for cache_key in affected:",
            "        cache.delete(cache_key)",
        ]


class ExpiryStrategy(ConsistencyStrategy):
    """No triggers: entries age out on a TTL (classic memcached)."""

    #: Default TTL when the cached object declares no ``expiry_seconds``.
    DEFAULT_TTL = 30.0

    name = EXPIRY
    needs_triggers = False
    serves_stale = True
    counters_moved = ("cache_misses", "db_fallbacks")
    failover = ("gutter entries carry the gutter TTL (shorter than the "
                "strategy TTL), so staleness stays bounded by the smaller of "
                "the two windows")

    def __init__(self, default_ttl: float = DEFAULT_TTL) -> None:
        self.default_ttl = float(default_ttl)

    def expiry_for(self, cached_object: "CacheClass",
                   key: Optional[str] = None) -> Optional[float]:
        if cached_object.expiry_seconds is not None:
            return cached_object.expiry_seconds
        return self.default_ttl

    def describe(self) -> Dict[str, Any]:
        out = super().describe()
        out["default_ttl"] = self.default_ttl
        return out


class LeasedInvalidateStrategy(InvalidateStrategy):
    """Invalidation with per-key leases: one reader recomputes, others get
    the retained stale value — invalidation minus the hot-key thundering herd.

    A trigger-side delete becomes a :meth:`~repro.memcache.server.CacheServer.
    lease_delete`: the server drops the live entry but *retains* it as stale
    for ``stale_seconds``.  Reads go through ``lease()``: a fresh entry is a
    plain hit; on a stale entry the server issues at most one lease token
    per ``lease_seconds`` per key — the winner schedules one background
    recompute (via the genie's refresh queue) and every reader in the window,
    winner included, is served the stale value instead of blocking on the
    database.  A true miss (nothing retained) falls back to the database as
    usual.  Staleness is bounded by the stale-retention window.
    """

    name = LEASED_INVALIDATE
    needs_triggers = True
    serves_stale = True
    counters_moved = ("invalidations", "stale_served", "recomputations",
                      "db_fallbacks")
    failover = ("a gutter hit is served LEASE_STALE *without* a token (its "
                "bound is the gutter TTL, no refresh is claimed); a dead "
                "lease holder's claim is dropped by the refresh queue so a "
                "new claimant wins within one cycle")

    def __init__(self, lease_seconds: float = 2.0,
                 stale_seconds: Optional[float] = None) -> None:
        if lease_seconds <= 0:
            raise CacheClassError("lease_seconds must be positive")
        self.lease_seconds = float(lease_seconds)
        #: How long a lease-deleted value is retained as servable-stale.
        self.stale_seconds = float(stale_seconds if stale_seconds is not None
                                   else lease_seconds)

    # -- read path -------------------------------------------------------------

    def fetch_multi(self, client: Any, items: Sequence[ReadEntry],
                    single: bool = False) -> Dict[str, Tuple[Any, bool]]:
        keys = [key for _, key, _ in items]
        states = ({keys[0]: client.lease(keys[0], self.lease_seconds)}
                  if single else client.lease_multi(keys, self.lease_seconds))
        served: Dict[str, Tuple[Any, bool]] = {}
        for cached_object, key, params in items:
            state, value, token = states.get(key, (None, None, None))
            if state == LEASE_HIT:
                served[key] = (value, False)
            elif state == LEASE_STALE or (state == LEASE_ACQUIRED
                                          and value is not None):
                # Stale serve: the value predates the invalidation.  Whoever
                # won the token (at most one reader per lease window)
                # schedules the single background recompute.
                if token is not None:
                    cached_object.genie.schedule_refresh(cached_object, key,
                                                         params)
                served[key] = (value, True)
        return served

    # -- write path ------------------------------------------------------------

    def flush_invalidations(self, client: Any, keys: Sequence[str],
                            single: bool = False) -> List[str]:
        if single:
            return ([keys[0]] if client.lease_delete(keys[0], self.stale_seconds)
                    else [])
        return client.lease_delete_multi(list(keys), self.stale_seconds)

    def render_trigger_body(self, cached_object: "CacheClass",
                            batched: bool) -> List[str]:
        if batched:
            return [
                "    for cache_key in affected:",
                "        # coalesced per key; flushed as one lease_delete_multi per server",
                f"        queue.enqueue_delete(cache_key)  # retains stale for {self.stale_seconds}s",
            ]
        return [
            "    for cache_key in affected:",
            f"        cache.lease_delete(cache_key, {self.stale_seconds})",
        ]

    def describe(self) -> Dict[str, Any]:
        out = super().describe()
        out["lease_seconds"] = self.lease_seconds
        out["stale_seconds"] = self.stale_seconds
        return out


class AsyncRefreshStrategy(ConsistencyStrategy):
    """Stale-while-revalidate: serve the stale entry, refresh in the background.

    Entries are stored in an envelope carrying a *freshness deadline*
    (``refresh_seconds`` ahead of the write) under a longer hard TTL.  A
    read within the deadline is a plain hit.  A read past it still serves
    the (stale) entry — no blocking database fallback — and schedules
    exactly one background recompute through the genie's refresh queue;
    once the recompute lands, reads are fresh again.  Entries untouched
    past the hard TTL (``refresh_seconds + stale_grace_seconds``) age out
    on the server like any expiring entry — which makes the hard TTL the
    *worst-case* staleness a read can observe (a rarely-read key may be
    served just before it dies); the freshness window only bounds how old
    an entry can get before a read starts a refresh.

    No triggers are installed: this sits between ``expiry`` (which blocks
    on a database recompute the moment the TTL passes) and ``invalidate``
    (which needs trigger round trips on every write).
    """

    name = ASYNC_REFRESH
    needs_triggers = False
    serves_stale = True
    counters_moved = ("stale_served", "recomputations", "cache_misses",
                      "db_fallbacks")
    failover = ("envelopes stored to the gutter keep their freshness "
                "deadline but expire on the gutter TTL; orphaned refresh "
                "claims are dropped like leased-invalidate's")

    def __init__(self, refresh_seconds: float = 30.0,
                 stale_grace_seconds: Optional[float] = None) -> None:
        if refresh_seconds <= 0:
            raise CacheClassError("refresh_seconds must be positive")
        self.refresh_seconds = float(refresh_seconds)
        #: How long past the freshness deadline an entry stays servable.
        self.stale_grace_seconds = float(
            stale_grace_seconds if stale_grace_seconds is not None
            else 4.0 * refresh_seconds)

    # -- storage ---------------------------------------------------------------

    def _freshness_window(self, cached_object: "CacheClass") -> float:
        if cached_object.expiry_seconds is not None:
            return cached_object.expiry_seconds
        return self.refresh_seconds

    def expiry_for(self, cached_object: "CacheClass",
                   key: Optional[str] = None) -> Optional[float]:
        return self._freshness_window(cached_object) + self.stale_grace_seconds

    def wrap_for_store(self, cached_object: "CacheClass", frozen: Any,
                       key: Optional[str] = None) -> Any:
        deadline = (cached_object.genie.now()
                    + self._freshness_window(cached_object))
        return {_FRESH_UNTIL_KEY: deadline, "value": frozen}

    def _unwrap(self, cached_object: "CacheClass", raw: Any) -> Tuple[Any, bool]:
        """Return ``(frozen_value, is_stale)`` from a stored envelope."""
        if isinstance(raw, dict) and _FRESH_UNTIL_KEY in raw:
            stale = cached_object.genie.now() > raw[_FRESH_UNTIL_KEY]
            return raw["value"], stale
        return raw, False  # not an envelope (e.g. strategy switched): fresh

    # -- read path -------------------------------------------------------------

    def fetch_multi(self, client: Any, items: Sequence[ReadEntry],
                    single: bool = False) -> Dict[str, Tuple[Any, bool]]:
        found = _get(client, [key for _, key, _ in items], single)
        served: Dict[str, Tuple[Any, bool]] = {}
        for cached_object, key, params in items:
            raw = found.get(key)
            if raw is None:
                continue
            frozen, stale = self._unwrap(cached_object, raw)
            if stale:
                cached_object.genie.schedule_refresh(cached_object, key, params)
            served[key] = (frozen, stale)
        return served

    def describe(self) -> Dict[str, Any]:
        out = super().describe()
        out["refresh_seconds"] = self.refresh_seconds
        out["stale_grace_seconds"] = self.stale_grace_seconds
        return out


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, ConsistencyStrategy] = {}


def register_strategy(strategy: ConsistencyStrategy,
                      replace: bool = False) -> ConsistencyStrategy:
    """Register a strategy instance under its :attr:`name`.

    Raises :class:`~repro.errors.CacheClassError` if the name is taken
    (pass ``replace=True`` to override deliberately) or the object does not
    implement the protocol.
    """
    if not isinstance(strategy, ConsistencyStrategy):
        raise CacheClassError(
            f"{strategy!r} does not implement ConsistencyStrategy")
    name = strategy.name
    if not name or name == ConsistencyStrategy.name:
        raise CacheClassError(
            "consistency strategies must define a non-default name")
    if name in _REGISTRY and not replace:
        raise CacheClassError(
            f"consistency strategy {name!r} is already registered "
            f"({_REGISTRY[name]!r}); pass replace=True to override it")
    _REGISTRY[name] = strategy
    return strategy


def unregister_strategy(name: str) -> None:
    """Remove a registered strategy (built-ins included — use with care)."""
    if name not in _REGISTRY:
        raise CacheClassError(f"no consistency strategy named {name!r}")
    del _REGISTRY[name]


def get_strategy(name: str) -> ConsistencyStrategy:
    """Look up a registered strategy by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CacheClassError(
            f"unknown update_strategy {name!r}; expected one of "
            f"{sorted(_REGISTRY)} or a ConsistencyStrategy instance"
        ) from None


def resolve_strategy(
    strategy: Union[str, ConsistencyStrategy, None],
    default: Union[str, ConsistencyStrategy] = UPDATE_IN_PLACE,
) -> ConsistencyStrategy:
    """Resolve a strategy spec — a registered name, an instance, or None
    (meaning ``default``) — to a :class:`ConsistencyStrategy` object."""
    if strategy is None:
        strategy = default
    if isinstance(strategy, ConsistencyStrategy):
        return strategy
    if isinstance(strategy, str):
        return get_strategy(strategy)
    raise CacheClassError(
        f"update_strategy must be a registered name or a ConsistencyStrategy "
        f"instance, got {type(strategy).__name__}")


def registered_strategies() -> Dict[str, ConsistencyStrategy]:
    """Snapshot of the registry (name -> strategy instance)."""
    return dict(_REGISTRY)


#: The built-in singletons, registered at import time.
UPDATE_IN_PLACE_STRATEGY = register_strategy(UpdateInPlaceStrategy())
INVALIDATE_STRATEGY = register_strategy(InvalidateStrategy())
EXPIRY_STRATEGY = register_strategy(ExpiryStrategy())
LEASED_INVALIDATE_STRATEGY = register_strategy(LeasedInvalidateStrategy())
ASYNC_REFRESH_STRATEGY = register_strategy(AsyncRefreshStrategy())


# -- legacy string helpers (kept for API compatibility) -------------------------

def validate_strategy(strategy: Union[str, ConsistencyStrategy]) -> str:
    """Validate a strategy spec, returning its canonical *name*.

    The pre-registry API took and returned plain strings; it now resolves
    through the registry, so custom registered strategies validate too.
    """
    return resolve_strategy(strategy).name


def needs_triggers(strategy: Union[str, ConsistencyStrategy]) -> bool:
    """Return True if the strategy keeps the cache consistent via triggers."""
    return resolve_strategy(strategy).needs_triggers
