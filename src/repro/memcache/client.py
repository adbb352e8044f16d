"""The cache client used by the application and by database triggers.

The client routes keys to servers via consistent hashing and charges every
round trip to the shared cost recorder so the simulation can model
cache-network time.  It keeps no statistics of its own: each count has one
owner — the recorder for per-call outcomes (hits, misses, round trips,
bytes, ``cache_node_down``, ``lease_contended``), each
:class:`CacheServer`'s ``stats`` for per-node state, and the gutter pool's
counters for gutter traffic.  Two "contexts" exist:

* the application client (``from_trigger=False``) — charges ``cache_*`` events;
* the trigger client (``from_trigger=True``) — charges ``trigger_cache_ops``
  and, once per trigger-side client construction, a connection-open cost,
  reproducing the paper's observation that opening a remote memcached
  connection inside a trigger dominates trigger overhead (§5.3).

One implementation per operation: each family — reads, leases, stores,
CAS, deletes, counters — is written once, over a batch of keys, and a
single-key call (``get``, ``cas``, ``incr``, ...) is its batched twin run on
a batch of one with ``single=True``.  That flag changes exactly three
things: the call is charged one single-key round trip (``cache_gets``,
``cache_sets``, ``cache_cas``, ``cache_deletes``, ``cache_leases``, or
``trigger_cache_ops`` from a trigger) instead of a per-server batch event
and the per-key ``trigger_cache_batch_ops``; it is no ``cache:<op>``
boundary on :mod:`repro.obs.hooks`' chain; and a CAS mismatch records no
``cas_multi_mismatch``.  Routing, the dead-node and gutter branch and the
per-key accounting are shared.  Single-key methods call the private family
method, never a public ``*_multi`` name: the benchmark's span recorder
shadows those on the instance.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import CacheServerError, CacheValueError
from ..obs import hooks
from ..storage.costmodel import Recorder
from .hashring import HashRing
from .item import sizeof_value
from .server import (CAS_MISMATCH, CAS_MISSING, CAS_STORED, CAS_TOO_LARGE,
                     LEASE_ACQUIRED, LEASE_CONTENDED, LEASE_HIT, LEASE_STALE,
                     CacheServer)


class CacheClient:
    """Client over one or more :class:`CacheServer` instances.

    With ``pipeline_batches`` enabled, the per-server batches of one
    multi-key call are issued concurrently instead of one after another:
    the call's network time is the ``max`` of its per-server round trips
    (charged as one full batch plus latency-free *overlapped* batches)
    rather than their ``sum``.  Real memcached clients do exactly this —
    each server has its own socket, so nothing serializes the batches.
    """

    def __init__(
        self,
        servers: Sequence[CacheServer],
        recorder: Optional[Recorder] = None,
        from_trigger: bool = False,
        reuse_connections: bool = False,
        pipeline_batches: bool = False,
    ) -> None:
        if not servers:
            raise CacheServerError("CacheClient requires at least one server")
        self._servers: Dict[str, CacheServer] = {s.name: s for s in servers}
        if len(self._servers) != len(servers):
            raise CacheServerError("cache server names must be unique")
        self.ring = HashRing(list(self._servers))
        #: Optional gutter pool (set by the cluster controller): a small
        #: fallback server set this client routes to when a key's primary
        #: node is dead.  Gutter entries are short-TTL, and the pool speaks
        #: no CAS and no leases — reads either hit a recently re-set value
        #: or miss through to the database.
        self.gutter: Optional[Any] = None
        self.recorder = recorder or Recorder()
        self.from_trigger = from_trigger
        self.reuse_connections = reuse_connections
        self.pipeline_batches = pipeline_batches
        self._connected = False
        #: The concurrent replayer sets ``current_worker`` while a worker
        #: context runs; lease reads pass it to the server as the claimant,
        #: and the server decides which rate-limited reads were contended.
        self.current_worker: Optional[Any] = None
        #: Optional per-key telemetry sink (adaptive consistency): a
        #: :class:`~repro.adaptive.telemetry.KeyTelemetry` attached by the
        #: adaptive strategy.  None everywhere else — every hook is guarded.
        self.telemetry: Optional[Any] = None

    # -- connection / accounting ----------------------------------------------

    def _charge_connection(self) -> None:
        """Charge the connection-open cost for trigger-side clients.

        Each trigger invocation opens a fresh connection (callers mark the
        old one closed with :meth:`reset_connection`).  The paper's
        future-work optimization — reusing connections between triggers —
        is modeled by ``reuse_connections``: when enabled, only the first
        operation pays the connection cost.
        """
        if self.from_trigger and not self._connected:
            self.recorder.record("trigger_connections")
            self._connected = True

    def reset_connection(self) -> None:
        """Mark the trigger-side connection as closed (fired per trigger)."""
        if not self.reuse_connections:
            self._connected = False

    def _server_for(self, key: str) -> CacheServer:
        return self._servers[self.ring.server_for(key)]

    def _group_by_server(self, keys: Sequence[str]) -> Dict[str, List[str]]:
        """Partition ``keys`` into per-server batches via the hash ring.

        Duplicates are dropped (one wire slot per key) but the first-seen
        order within each server batch is preserved.
        """
        batches: Dict[str, List[str]] = {}
        seen = set()
        for key in keys:
            if key in seen:
                continue
            seen.add(key)
            batches.setdefault(self.ring.server_for(key), []).append(key)
        return batches

    def _node_down(self, server: CacheServer) -> None:
        """Account one fail-fast refusal against a dead node.

        Counted on the dead server's stats and recorded as a
        ``cache_node_down`` cost event — free in the cost model, because
        a refused connection is not a round trip.  The caller then surfaces
        the operation as a miss (or routes it to the gutter pool).
        """
        server.stats.node_down_errors += 1
        self.recorder.record("cache_node_down")

    def _charge(self, event: str, single: bool, index: int = 0) -> None:
        """Charge one round trip.

        ``event`` is the application-side event; a trigger-side client
        charges ``trigger_cache_ops`` for a single-key call and
        ``trigger_cache_batches`` for a server batch.  ``index`` is a
        batch's position within its multi-op call: when batches are
        pipelined, only the first pays network latency and the rest are
        charged as latency-free overlapped round trips.
        """
        overlapped = self.pipeline_batches and index > 0
        if self.from_trigger:
            event = ("trigger_cache_ops" if single
                     else "trigger_cache_overlapped_batches" if overlapped
                     else "trigger_cache_batches")
        elif overlapped:
            event = "cache_overlapped_batches"
        self.recorder.record(event)

    def _round_trip_done(self, label: str, keys: int) -> None:
        """Announce a completed multi-key call as its ``cache:<op>``
        boundary: a span holding a pause, where another replay worker may
        run (which is what lets two workers race a gets_multi/cas_multi pair
        on the same key).  The call records no trace event and moves no
        clock, so a span opened once it completes is the one that would
        have bracketed it."""
        hooks.pause_in_span(label, keys=keys,
                            client="trigger" if self.from_trigger else "app")

    @property
    def servers(self) -> List[CacheServer]:
        return list(self._servers.values())

    # -- reads ----------------------------------------------------------------

    def _gutter_get(self, batch: List[str], event: str, single: bool,
                    index: int) -> Dict[str, Any]:
        """A dead primary's batch read from the gutter pool (a round trip of
        its own); nothing without a pool."""
        if self.gutter is None:
            return {}
        self._charge(event, single, index)
        return self.gutter.get_multi(batch)

    def _read(self, keys: Sequence[str], cas: bool,
              single: bool) -> Dict[str, Any]:
        """The read family; returns the hits (``(value, token)`` with ``cas``).

        Keys are grouped into per-server batches on the hash ring, one round
        trip each — the batched protocol the paper's §5.3 round-trip
        analysis motivates; hits, misses and byte transfer are recorded per
        key.  A dead primary fails fast (``cache_node_down``,
        no round trip) and a plain read falls through to the gutter pool
        when one is attached.  A CAS read of a dead primary is a plain miss:
        the gutter speaks no CAS, so there is no token to hand out and no
        swap to attempt later.
        """
        if not keys:
            return {}
        self._charge_connection()
        event = "cache_gets" if single else "cache_multi_gets"
        record = self.recorder.record
        batch_ops = self.from_trigger and not single
        out: Dict[str, Any] = {}
        for index, (server_name, batch) in enumerate(self._group_by_server(keys).items()):
            server = self._servers[server_name]
            if batch_ops:
                record("trigger_cache_batch_ops", len(batch))
            if server.alive:
                self._charge(event, single, index)
                found = server.gets_multi(batch) if cas else server.get_multi(batch)
            else:
                self._node_down(server)
                server = self.gutter   # it sizes the values it serves
                found = {} if cas else self._gutter_get(batch, event, single, index)
            for key in batch:
                value = found.get(key)
                if value is None:
                    record("cache_misses")
                else:
                    record("cache_hits")
                    record("cache_bytes_moved", server.value_size(key))
                    out[key] = value
        if not single and hooks.chain:
            # gets_multi's pause is what makes batched CAS contendable: a
            # worker that just read its tokens can be suspended here while
            # another worker writes the same keys.
            self._round_trip_done(
                "cache:gets_multi" if cas else "cache:get_multi", len(keys))
        return out

    def get(self, key: str) -> Optional[Any]:
        """Fetch a value; returns None on a miss."""
        return self._read([key], False, True).get(key)

    def gets(self, key: str) -> Tuple[Optional[Any], Optional[int]]:
        """Fetch a value together with its CAS token (``(None, None)`` on a
        miss)."""
        return self._read([key], True, True).get(key, (None, None))

    def get_multi(self, keys: Sequence[str]) -> Dict[str, Any]:
        """Fetch several keys in one round trip per server; returns the hits."""
        return self._read(keys, False, False)

    def gets_multi(self, keys: Sequence[str]) -> Dict[str, Tuple[Any, int]]:
        """Fetch several keys *with their CAS tokens*, batched per server.

        The read half of a batched read-modify-write (``gets_multi`` +
        :meth:`cas_multi`).  Returns ``{key: (value, token)}`` for the hits.
        """
        return self._read(keys, True, False)

    # -- leases ---------------------------------------------------------------

    def _lease(self, keys: Sequence[str], lease_seconds: float, single: bool,
               ) -> Dict[str, Tuple[str, Optional[Any], Optional[int]]]:
        """The lease family: read keys under the lease protocol (see
        :meth:`CacheServer.lease`).

        Accounted like a read: a served value (fresh or stale) counts as a
        hit and moves its bytes, a true miss as a miss.  A read the server
        answers :data:`LEASE_CONTENDED` (another worker holds the window's
        token) is recorded as ``lease_contended`` and returned as
        :data:`LEASE_STALE`, so callers see three states.  A dead primary
        degrades per the gutter contract: a gutter hit is served as
        :data:`LEASE_STALE` *without a token* (its freshness bound is the
        gutter TTL, and no token means no refresh is scheduled); a gutter
        miss — or no gutter — comes back :data:`LEASE_ACQUIRED` with no
        token, which callers resolve by recomputing synchronously.
        """
        if not keys:
            return {}
        self._charge_connection()
        event = "cache_leases" if single else "cache_multi_leases"
        record = self.recorder.record
        batch_ops = self.from_trigger and not single
        out: Dict[str, Tuple[str, Optional[Any], Optional[int]]] = {}
        for index, (server_name, batch) in enumerate(self._group_by_server(keys).items()):
            server = self._servers[server_name]
            if batch_ops:
                record("trigger_cache_batch_ops", len(batch))
            if not server.alive:
                self._node_down(server)
                found = self._gutter_get(batch, event, single, index)
                for key in batch:
                    value = found.get(key)
                    if value is None:
                        record("cache_misses")
                        out[key] = (LEASE_ACQUIRED, None, None)
                    else:
                        record("cache_hits")
                        record("cache_bytes_moved", self.gutter.value_size(key))
                        out[key] = (LEASE_STALE, value, None)
                continue
            self._charge(event, single, index)
            states = server.lease_multi(batch, lease_seconds,
                                        claimant=self.current_worker)
            for key in batch:
                state, value, _token = answer = states[key]
                if state == LEASE_CONTENDED:
                    answer = (LEASE_STALE, value, None)
                    record("lease_contended")
                    if self.telemetry is not None:
                        self.telemetry.note_lease_contended(key)
                out[key] = answer
                if value is None and state != LEASE_HIT:
                    record("cache_misses")
                else:
                    record("cache_hits")
                    record("cache_bytes_moved", server.value_size(key))
        if not single and hooks.chain:
            self._round_trip_done("cache:lease_multi", len(keys))
        return out

    def lease(self, key: str,
              lease_seconds: float) -> Tuple[str, Optional[Any], Optional[int]]:
        """Read a key under the lease protocol: ``(state, value, token)``."""
        return self._lease([key], lease_seconds, True)[key]

    def lease_multi(self, keys: Sequence[str], lease_seconds: float,
                    ) -> Dict[str, Tuple[str, Optional[Any], Optional[int]]]:
        """Batched :meth:`lease` in one round trip per server."""
        return self._lease(keys, lease_seconds, False)

    # -- writes ---------------------------------------------------------------

    def _set(self, mapping: Dict[str, Any], expire: Optional[float],
             single: bool) -> List[str]:
        """The store family; returns the keys that failed to store.

        A key fails when its value is over the item limit (the server
        refuses it, as python-memcached's ``set_multi`` reports) or when its
        primary is dead and no gutter pool is attached.  A dead primary's
        keys otherwise go to the gutter (short gutter TTL, whatever
        ``expire`` says).  A refused store counts neither as a set nor as
        bytes moved.
        """
        if not mapping:
            return []
        self._charge_connection()
        event = "cache_sets" if single else "cache_multi_sets"
        failed: List[str] = []
        for index, (server_name, batch) in enumerate(
                self._group_by_server(list(mapping)).items()):
            server = self._servers[server_name]
            if not server.alive:
                self._node_down(server)
                if self.gutter is None:
                    failed.extend(batch)
                    continue
            self._charge(event, single, index)
            if self.from_trigger and not single:
                self.recorder.record("trigger_cache_batch_ops", len(batch))
            sizes = {k: sizeof_value(mapping[k]) for k in batch}
            values = {k: mapping[k] for k in batch}
            if server.alive:
                refused = server.set_multi(values, expire, value_sizes=sizes)
            else:
                refused = self.gutter.set_multi(values, sizes)
            for key in refused:
                del sizes[key]
            failed.extend(refused)
            if sizes:
                self.recorder.record("cache_bytes_moved", sum(sizes.values()))
        if not single and hooks.chain:
            self._round_trip_done("cache:set_multi", len(mapping))
        return failed

    def set(self, key: str, value: Any, expire: Optional[float] = None) -> bool:
        """Store a value unconditionally; False if it was refused."""
        return not self._set({key: value}, expire, True)

    def set_multi(self, mapping: Dict[str, Any],
                  expire: Optional[float] = None) -> List[str]:
        """Store several values in one round trip per server; returns the
        keys that failed to store."""
        return self._set(mapping, expire, False)

    def add(self, key: str, value: Any, expire: Optional[float] = None) -> bool:
        """Store a value only if the key is absent.

        It has no batched twin.  A dead primary routes the add to the gutter
        pool (or fails without one); an oversized value is refused, as
        :meth:`set` refuses it.
        """
        self._charge_connection()
        server = self._server_for(key)
        if not server.alive:
            self._node_down(server)
            if self.gutter is None:
                return False
        self._charge("cache_sets", True)
        size = sizeof_value(value)
        try:
            if server.alive:
                added = server.add(key, value, expire, value_size=size)
            else:
                added = self.gutter.add(key, value, size)
        except CacheValueError:
            return False
        # The value travels to the server whether or not the add wins.
        self.recorder.record("cache_bytes_moved", size)
        return added

    def _cas(self, items: Dict[str, Tuple[Any, int]], expire: Optional[float],
             single: bool) -> Dict[str, str]:
        """The CAS family: a per-key verdict map (``"stored"`` /
        ``"mismatch"`` / ``"missing"`` / ``"too-large"``).

        Callers re-read and retry *only the mismatches*.  Every key's value
        travels to its server whatever the verdict, except an oversized one
        the server refused.  Against a dead primary the tokens have vanished
        with the node: every key reports ``"missing"`` (callers invalidate,
        not retry), with no round trip.  A batched mismatch records a
        ``cas_multi_mismatch`` event for the CAS-contention ablation.
        """
        if not items:
            return {}
        self._charge_connection()
        event = "cache_cas" if single else "cache_multi_cas"
        record = self.recorder.record
        verdicts: Dict[str, str] = {}
        for index, (server_name, batch) in enumerate(
                self._group_by_server(list(items)).items()):
            server = self._servers[server_name]
            if not server.alive:
                self._node_down(server)
                for key in batch:
                    verdicts[key] = CAS_MISSING
                continue
            # A CAS is its own round-trip event — not a set — so the
            # ablations can separate conditional from unconditional writes.
            self._charge(event, single, index)
            if self.from_trigger and not single:
                record("trigger_cache_batch_ops", len(batch))
            sizes = {k: sizeof_value(items[k][0]) for k in batch}
            outcome = server.cas_multi({k: items[k] for k in batch}, expire,
                                       value_sizes=sizes)
            for key in batch:
                verdict = verdicts[key] = outcome[key]
                if verdict == CAS_TOO_LARGE:
                    continue
                if verdict == CAS_MISMATCH:
                    if not single:
                        record("cas_multi_mismatch")
                    if self.telemetry is not None:
                        self.telemetry.note_cas_mismatch(key)
                record("cache_bytes_moved", sizes[key])
        if not single and hooks.chain:
            self._round_trip_done("cache:cas_multi", len(items))
        return verdicts

    def cas(self, key: str, value: Any, cas_token: int,
            expire: Optional[float] = None) -> bool:
        """Compare-and-swap a value previously read with :meth:`gets`."""
        return self._cas({key: (value, cas_token)}, expire, True)[key] == CAS_STORED

    def cas_multi(self, items: Dict[str, Tuple[Any, int]],
                  expire: Optional[float] = None) -> Dict[str, str]:
        """Compare-and-swap several keys in one round trip per server.

        ``items`` maps each key to ``(new_value, cas_token)`` as returned by
        :meth:`gets_multi`; returns the per-key verdicts.
        """
        return self._cas(items, expire, False)

    # -- deletes --------------------------------------------------------------

    def _delete(self, keys: Sequence[str], stale_seconds: Optional[float],
                single: bool) -> List[str]:
        """The delete family; returns the keys that existed (and were removed).

        With ``stale_seconds`` it is the leased-invalidation variant: each
        value is retained as servable-stale for that long.  Accounting is
        the same either way (a lease delete is a delete on the wire), so the
        flush of a leased-invalidation transaction costs what a plain
        invalidation flush costs.  Even with the primary dead, the
        invalidation still reaches the gutter pool — a stale gutter copy
        outliving the write would break the bound the short gutter TTL
        promises.  The gutter keeps no stale retention, so there a lease
        delete degrades to a plain one.
        """
        if not keys:
            return []
        self._charge_connection()
        event = "cache_deletes" if single else "cache_multi_deletes"
        batch_ops = self.from_trigger and not single
        existed: List[str] = []
        for index, (server_name, batch) in enumerate(self._group_by_server(keys).items()):
            server = self._servers[server_name]
            if batch_ops:
                self.recorder.record("trigger_cache_batch_ops", len(batch))
            if server.alive:
                self._charge(event, single, index)
                existed.extend(server.delete_multi(batch) if stale_seconds is None
                               else server.lease_delete_multi(batch, stale_seconds))
            else:
                self._node_down(server)
                if self.gutter is not None:
                    self._charge(event, single, index)
                    existed.extend(self.gutter.delete_multi(batch))
        if not single and hooks.chain:
            self._round_trip_done(
                "cache:delete_multi" if stale_seconds is None
                else "cache:lease_delete_multi", len(keys))
        return existed

    def delete(self, key: str) -> bool:
        """Invalidate a key; True if it existed."""
        return bool(self._delete([key], None, True))

    def delete_multi(self, keys: Sequence[str]) -> List[str]:
        """Invalidate several keys in one round trip per server."""
        return self._delete(keys, None, False)

    def lease_delete(self, key: str, stale_seconds: float) -> bool:
        """Invalidate a key, retaining its value as servable-stale."""
        return bool(self._delete([key], stale_seconds, True))

    def lease_delete_multi(self, keys: Sequence[str],
                           stale_seconds: float) -> List[str]:
        """Batched :meth:`lease_delete` in one round trip per server."""
        return self._delete(keys, stale_seconds, False)

    # -- counters -------------------------------------------------------------

    def _counters(self, deltas: Dict[str, int], single: bool,
                  label: str = "cache:incr_multi") -> Dict[str, Optional[int]]:
        """The counter family: ``{key: signed_delta}`` in, new values out.

        Negative deltas decrement, floored at zero, so one batch can carry
        a mixed run such as a group-moving UPDATE's ``-1``/``+1`` pair; a
        delta counts as an increment unless it is negative.  A key that
        misses reports None — and so does every key on a dead primary: the
        gutter speaks no counter protocol (a counter resurrected at zero
        would silently corrupt the count), so callers fall back to
        invalidate-and-recompute like any miss.
        """
        if not deltas:
            return {}
        self._charge_connection()
        event = "cache_sets" if single else "cache_multi_counters"
        out: Dict[str, Optional[int]] = {}
        for index, (server_name, batch) in enumerate(
                self._group_by_server(list(deltas)).items()):
            server = self._servers[server_name]
            if server.alive:
                self._charge(event, single, index)
                if self.from_trigger and not single:
                    self.recorder.record("trigger_cache_batch_ops", len(batch))
                results = server.incr_multi({k: deltas[k] for k in batch})
            else:
                self._node_down(server)
                results = dict.fromkeys(batch)
            out.update(results)
        if not single and hooks.chain:
            self._round_trip_done(label, len(deltas))
        return out

    def incr(self, key: str, delta: int = 1) -> Optional[int]:
        """Add the signed ``delta`` to an integer value (None on a miss)."""
        return self._counters({key: delta}, True)[key]

    def decr(self, key: str, delta: int = 1) -> Optional[int]:
        """Subtract ``delta`` from an integer value, floored at zero."""
        return self._counters({key: -delta}, True)[key]

    def incr_multi(self, deltas: Dict[str, int]) -> Dict[str, Optional[int]]:
        """Adjust several counters (signed deltas) in one round trip per server."""
        return self._counters(deltas, False)

    def decr_multi(self, deltas: Dict[str, int]) -> Dict[str, Optional[int]]:
        """Batched :meth:`decr`: ``{key: delta}`` with deltas applied negatively."""
        return self._counters({key: -delta for key, delta in deltas.items()},
                              False, "cache:decr_multi")

    def flush_all(self) -> None:
        """Drop every item on every server (dead nodes included) and in the
        gutter pool, so a full flush leaves no fallback copies behind."""
        for server in self._servers.values():
            server.flush_all()
        if self.gutter is not None:
            self.gutter.flush_all()
