"""The cache client used by the application and by database triggers.

The client routes keys to servers via consistent hashing, aggregates
statistics, and charges every round trip to the shared cost recorder so the
simulation can model cache-network time.  Two "contexts" exist:

* the application client (``from_trigger=False``) — charges ``cache_*`` events;
* the trigger client (``from_trigger=True``) — charges ``trigger_cache_ops``
  and, once per trigger-side client construction, a connection-open cost,
  reproducing the paper's observation that opening a remote memcached
  connection inside a trigger dominates trigger overhead (§5.3).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import CacheServerError
from ..storage.costmodel import Recorder
from .hashring import HashRing
from .item import sizeof_value
from .server import (CAS_MISMATCH, CAS_MISSING, CAS_STORED, CAS_TOO_LARGE,
                     LEASE_ACQUIRED, LEASE_HIT, LEASE_STALE, CacheServer)
from .stats import CacheStats


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
        self.stats = CacheStats()
        #: Cooperative-scheduling hook (installed only by the concurrent
        #: replayer): called with ``"cache:<op>"`` after each multi-key
        #: operation completes — a round-trip boundary where another worker
        #: may legally run (which is what lets two workers race a
        #: gets_multi/cas_multi pair on the same key).
        self.checkpoint: Optional[Callable[[str], None]] = None
        #: Worker attribution: the concurrent replayer sets
        #: ``current_worker`` while a worker context runs, and every round
        #: trip the client issues is tallied against it here.
        self.current_worker: Optional[Any] = None
        self.ops_by_worker: Dict[Any, int] = {}
        #: Which worker won each key's most recent lease window (every
        #: lease read flows through this client, so the map stays exact):
        #: a rate-limited read is *contended* only when a different worker
        #: holds the window's token.
        self._lease_winners: Dict[str, Any] = {}
        #: Optional per-key telemetry sink (adaptive consistency): a
        #: :class:`~repro.adaptive.telemetry.KeyTelemetry` attached by the
        #: adaptive strategy.  None everywhere else — every hook is guarded.
        self.telemetry: Optional[Any] = None

    # -- connection / accounting ----------------------------------------------

    def _charge_connection(self) -> None:
        """Charge the connection-open cost for trigger-side clients.

        The paper's future-work optimization — reusing connections between
        triggers — is modeled by ``reuse_connections``: when enabled, only the
        first operation pays the connection cost.
        """
        if not self.from_trigger:
            return
        if self._connected and self.reuse_connections:
            return
        if not self._connected:
            self.recorder.record("trigger_connections")
            self._connected = True
        elif not self.reuse_connections:
            # Each trigger invocation opens a fresh connection; callers create
            # a new logical connection by calling reset_connection().
            pass

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

    def _node_down(self, server: CacheServer, n: int = 1) -> None:
        """Account ``n`` fail-fast refusals against a dead node.

        Counted on the client *and* on the dead server's stats, and recorded
        as ``cache_node_down`` cost events — free in the cost model, because
        a refused connection is not a round trip.  The caller then surfaces
        the operation as a miss (or routes it to the gutter pool).
        """
        self.stats.node_down_errors += n
        server.stats.node_down_errors += n
        self.recorder.record("cache_node_down", n)

    def _attribute_round_trip(self) -> None:
        """Tally one round trip against the active worker context (if any)."""
        worker = self.current_worker
        if worker is not None:
            self.ops_by_worker[worker] = self.ops_by_worker.get(worker, 0) + 1

    def _charge_single(self, app_event: str) -> None:
        """Charge one single-key round trip (``app_event`` from the
        application; trigger-side clients fold into ``trigger_cache_ops``)."""
        self._attribute_round_trip()
        if self.from_trigger:
            self.recorder.record("trigger_cache_ops")
        else:
            self.recorder.record(app_event)

    def _charge_batch(self, app_event: str, index: int = 0) -> None:
        """Charge one round trip for a multi-key batch sent to one server.

        ``index`` is the batch's position within its multi-op call.  When
        batches are pipelined, only the first batch of a call pays network
        latency; the rest overlap with it and are charged as latency-free
        overlapped round trips.
        """
        self._attribute_round_trip()
        overlapped = self.pipeline_batches and index > 0
        if self.from_trigger:
            self.recorder.record("trigger_cache_overlapped_batches" if overlapped
                                 else "trigger_cache_batches")
        else:
            self.recorder.record("cache_overlapped_batches" if overlapped
                                 else app_event)

    def _yield_point(self, op: str) -> None:
        """Give the interleave scheduler a turn after a multi-op round trip."""
        if self.checkpoint is not None:
            self.checkpoint(f"cache:{op}")

    def _charge_batch_item(self) -> None:
        """Charge the per-key (marshalling) share of a batched operation."""
        if self.from_trigger:
            self.recorder.record("trigger_cache_batch_ops")

    @property
    def servers(self) -> List[CacheServer]:
        return list(self._servers.values())

    # -- reads ----------------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """Fetch a value; returns None on a miss.

        A dead primary fails fast (``cache_node_down``, no round trip) and
        the read falls through to the gutter pool when one is attached.
        """
        self._charge_connection()
        server = self._server_for(key)
        if not server.alive:
            self._node_down(server)
            self.stats.gets += 1
            if self.gutter is None:
                self.stats.misses += 1
                self.recorder.record("cache_misses")
                return None
            value = self.gutter.get(key)
            self._charge_single("cache_gets")
            if value is None:
                self.stats.misses += 1
                self.stats.gutter_misses += 1
                self.recorder.record("cache_misses")
            else:
                self.stats.hits += 1
                self.stats.gutter_hits += 1
                self.recorder.record("cache_hits")
                self.recorder.record("cache_bytes_moved",
                                     self.gutter.value_size(key))
            return value
        value = server.get(key)
        self.stats.gets += 1
        self._charge_single("cache_gets")
        if value is None:
            self.stats.misses += 1
            self.recorder.record("cache_misses")
        else:
            self.stats.hits += 1
            self.recorder.record("cache_hits")
            self.recorder.record("cache_bytes_moved", server.value_size(key))
        return value

    def gets(self, key: str) -> Tuple[Optional[Any], Optional[int]]:
        """Fetch a value together with its CAS token.

        A dead primary is a plain miss: the gutter pool speaks no CAS, so
        there is no token to hand out and no swap to attempt later.
        """
        self._charge_connection()
        server = self._server_for(key)
        if not server.alive:
            self._node_down(server)
            self.stats.gets += 1
            self.stats.misses += 1
            self.recorder.record("cache_misses")
            return None, None
        value, token = server.gets(key)
        self.stats.gets += 1
        self._charge_single("cache_gets")
        if value is None:
            self.stats.misses += 1
            self.recorder.record("cache_misses")
        else:
            self.stats.hits += 1
            self.recorder.record("cache_hits")
            self.recorder.record("cache_bytes_moved", server.value_size(key))
        return value, token

    def get_multi(self, keys: Sequence[str]) -> Dict[str, Any]:
        """Fetch several keys in one round trip per server; returns the hits.

        Keys are grouped into per-server batches on the hash ring and each
        batch is charged a single round trip (``cache_multi_gets`` from the
        application, ``trigger_cache_batches`` from a trigger) — the batched
        protocol the paper's §5.3 round-trip analysis motivates.  Hit/miss
        statistics and byte transfer are still accounted per key.
        """
        if not keys:
            return {}
        self._charge_connection()
        out: Dict[str, Any] = {}
        for index, (server_name, batch) in enumerate(self._group_by_server(keys).items()):
            server = self._servers[server_name]
            if not server.alive:
                # One refused connection per dead batch; the gutter lookup
                # (when attached) is a real round trip of its own.
                self._node_down(server)
                found = {}
                if self.gutter is not None:
                    self._charge_batch("cache_multi_gets", index)
                    found = self.gutter.get_multi(batch)
                for key in batch:
                    self.stats.gets += 1
                    self._charge_batch_item()
                    value = found.get(key)
                    if value is None:
                        self.stats.misses += 1
                        if self.gutter is not None:
                            self.stats.gutter_misses += 1
                        self.recorder.record("cache_misses")
                    else:
                        self.stats.hits += 1
                        self.stats.gutter_hits += 1
                        self.recorder.record("cache_hits")
                        self.recorder.record("cache_bytes_moved",
                                             self.gutter.value_size(key))
                        out[key] = value
                continue
            self._charge_batch("cache_multi_gets", index)
            found = server.get_multi(batch)
            for key in batch:
                self.stats.gets += 1
                self._charge_batch_item()
                value = found.get(key)
                if value is None:
                    self.stats.misses += 1
                    self.recorder.record("cache_misses")
                else:
                    self.stats.hits += 1
                    self.recorder.record("cache_hits")
                    self.recorder.record("cache_bytes_moved",
                                         server.value_size(key))
                    out[key] = value
        self._yield_point("get_multi")
        return out

    def gets_multi(self, keys: Sequence[str]) -> Dict[str, Tuple[Any, int]]:
        """Fetch several keys *with their CAS tokens*, batched per server.

        The CAS counterpart of :meth:`get_multi` — the read half of a batched
        read-modify-write (``gets_multi`` + :meth:`cas_multi`).  Accounting
        matches :meth:`get_multi`: one round trip per server batch, hit/miss
        and byte transfer per key.  Returns ``{key: (value, token)}`` for the
        hits.
        """
        if not keys:
            return {}
        self._charge_connection()
        out: Dict[str, Tuple[Any, int]] = {}
        for index, (server_name, batch) in enumerate(self._group_by_server(keys).items()):
            server = self._servers[server_name]
            if not server.alive:
                # No CAS tokens from the gutter: every key is a plain miss,
                # so the flush path treats them like uncached entries.
                self._node_down(server)
                for key in batch:
                    self.stats.gets += 1
                    self._charge_batch_item()
                    self.stats.misses += 1
                    self.recorder.record("cache_misses")
                continue
            self._charge_batch("cache_multi_gets", index)
            found = server.gets_multi(batch)
            for key in batch:
                self.stats.gets += 1
                self._charge_batch_item()
                hit = found.get(key)
                if hit is None:
                    self.stats.misses += 1
                    self.recorder.record("cache_misses")
                else:
                    self.stats.hits += 1
                    self.recorder.record("cache_hits")
                    self.recorder.record("cache_bytes_moved",
                                         server.value_size(key))
                    out[key] = hit
        # The yield point that makes batched CAS contendable: a worker that
        # just read its tokens can be paused here while another worker
        # writes the same keys, going on to lose the cas_multi.
        self._yield_point("gets_multi")
        return out

    # -- writes ---------------------------------------------------------------

    def set(self, key: str, value: Any, expire: Optional[float] = None) -> bool:
        """Store a value unconditionally.

        A dead primary routes the store to the gutter pool (short gutter
        TTL, whatever ``expire`` says) or reports failure without one.
        """
        self._charge_connection()
        server = self._server_for(key)
        if not server.alive:
            self._node_down(server)
            if self.gutter is None:
                return False
            size = sizeof_value(value)
            self.gutter.set(key, value, size)
            self.stats.sets += 1
            self._charge_single("cache_sets")
            self.recorder.record("cache_bytes_moved", size)
            return True
        size = sizeof_value(value)
        result = server.set(key, value, expire, value_size=size)
        self.stats.sets += 1
        self._charge_single("cache_sets")
        self.recorder.record("cache_bytes_moved", size)
        return result

    def set_multi(self, mapping: Dict[str, Any],
                  expire: Optional[float] = None) -> List[str]:
        """Store several values in one round trip per server.

        Returns the keys that failed to store (oversized values), mirroring
        python-memcached's ``set_multi`` contract.
        """
        if not mapping:
            return []
        self._charge_connection()
        failed: List[str] = []
        for index, (server_name, batch) in enumerate(
                self._group_by_server(list(mapping)).items()):
            server = self._servers[server_name]
            if not server.alive:
                self._node_down(server)
                if self.gutter is None:
                    failed.extend(batch)
                    continue
                self._charge_batch("cache_multi_sets", index)
                sizes = {k: sizeof_value(mapping[k]) for k in batch}
                self.gutter.set_multi({k: mapping[k] for k in batch}, sizes)
                for key in batch:
                    self._charge_batch_item()
                    self.stats.sets += 1
                    self.recorder.record("cache_bytes_moved", sizes[key])
                continue
            self._charge_batch("cache_multi_sets", index)
            sizes = {k: sizeof_value(mapping[k]) for k in batch}
            rejected = set(server.set_multi({k: mapping[k] for k in batch},
                                            expire, value_sizes=sizes))
            failed.extend(k for k in batch if k in rejected)
            for key in batch:
                self._charge_batch_item()
                if key in rejected:
                    # Parity with single-op set(): a store the server refused
                    # (oversized value) counts neither as a set nor as bytes.
                    continue
                self.stats.sets += 1
                self.recorder.record("cache_bytes_moved", sizes[key])
        self._yield_point("set_multi")
        return failed

    def add(self, key: str, value: Any, expire: Optional[float] = None) -> bool:
        """Store a value only if the key is absent."""
        self._charge_connection()
        server = self._server_for(key)
        if not server.alive:
            self._node_down(server)
            self.stats.adds += 1
            if self.gutter is None:
                return False
            size = sizeof_value(value)
            result = self.gutter.add(key, value, size)
            self._charge_single("cache_sets")
            self.recorder.record("cache_bytes_moved", size)
            return result
        size = sizeof_value(value)
        result = server.add(key, value, expire, value_size=size)
        self.stats.adds += 1
        self._charge_single("cache_sets")
        # The value travels to the server whether or not the add wins.
        self.recorder.record("cache_bytes_moved", size)
        return result

    def cas(self, key: str, value: Any, cas_token: int,
            expire: Optional[float] = None) -> bool:
        """Compare-and-swap a value previously read with :meth:`gets`.

        Against a dead primary the token has vanished with the node: the
        swap fails like a :data:`~repro.memcache.server.CAS_MISSING` (the
        caller's fallback is to invalidate, not retry), with no round trip.
        """
        self._charge_connection()
        server = self._server_for(key)
        if not server.alive:
            self._node_down(server)
            self.stats.cas_miss += 1
            return False
        size = sizeof_value(value)
        result = server.cas(key, value, cas_token, expire, value_size=size)
        if result:
            self.stats.cas_ok += 1
        else:
            self.stats.cas_mismatch += 1
        # A CAS is its own round-trip event — not a cache_sets — so the
        # ablations can separate conditional from unconditional writes,
        # and a losing CAS no longer masquerades as a stored value.
        self._charge_single("cache_cas")
        # The value travels to the server whether or not the swap wins.
        self.recorder.record("cache_bytes_moved", size)
        return result

    def cas_multi(self, items: Dict[str, Tuple[Any, int]],
                  expire: Optional[float] = None) -> Dict[str, str]:
        """Compare-and-swap several keys in one round trip per server.

        ``items`` maps each key to ``(new_value, cas_token)`` as returned by
        :meth:`gets_multi`.  Returns a per-key verdict map (``"stored"`` /
        ``"mismatch"`` / ``"missing"``) so callers re-read and retry *only
        the losers* instead of replaying the whole batch.  Every key's value
        travels to its server regardless of the verdict (byte accounting per
        attempt); each mismatch additionally records a ``cas_multi_mismatch``
        event for the CAS-contention ablation.
        """
        if not items:
            return {}
        self._charge_connection()
        verdicts: Dict[str, str] = {}
        for index, (server_name, batch) in enumerate(
                self._group_by_server(list(items)).items()):
            server = self._servers[server_name]
            if not server.alive:
                # The tokens died with the node: every key reports
                # "missing", which callers resolve by invalidating.
                self._node_down(server)
                for key in batch:
                    verdicts[key] = CAS_MISSING
                    self.stats.cas_miss += 1
                continue
            self._charge_batch("cache_multi_cas", index)
            sizes = {k: sizeof_value(items[k][0]) for k in batch}
            outcome = server.cas_multi({k: items[k] for k in batch}, expire,
                                       value_sizes=sizes)
            for key in batch:
                self._charge_batch_item()
                verdict = outcome[key]
                verdicts[key] = verdict
                if verdict == CAS_TOO_LARGE:
                    # Parity with set_multi: a store the server refused
                    # (oversized value) counts neither stats nor bytes.
                    continue
                if verdict == CAS_STORED:
                    self.stats.cas_ok += 1
                elif verdict == CAS_MISMATCH:
                    self.stats.cas_mismatch += 1
                    self.recorder.record("cas_multi_mismatch")
                    if self.telemetry is not None:
                        self.telemetry.note_cas_mismatch(key)
                else:
                    self.stats.cas_miss += 1
                self.recorder.record("cache_bytes_moved", sizes[key])
        self._yield_point("cas_multi")
        return verdicts

    def delete(self, key: str) -> bool:
        """Invalidate a key.

        Even with the primary dead, the invalidation still reaches the
        gutter pool — a stale gutter copy outliving the write would break
        the bound the short gutter TTL promises.
        """
        self._charge_connection()
        server = self._server_for(key)
        self.stats.deletes += 1
        if not server.alive:
            self._node_down(server)
            if self.gutter is None:
                return False
            result = self.gutter.delete(key)
            self._charge_single("cache_deletes")
            return result
        result = server.delete(key)
        self._charge_single("cache_deletes")
        return result

    def delete_multi(self, keys: Sequence[str]) -> List[str]:
        """Invalidate several keys in one round trip per server.

        Returns the keys that actually existed (and were removed).
        """
        if not keys:
            return []
        self._charge_connection()
        deleted: List[str] = []
        for index, (server_name, batch) in enumerate(self._group_by_server(keys).items()):
            server = self._servers[server_name]
            if not server.alive:
                # Invalidations still reach the gutter (coherence: a stale
                # gutter copy must not outlive the write that doomed it).
                self._node_down(server)
                if self.gutter is not None:
                    self._charge_batch("cache_multi_deletes", index)
                    deleted.extend(self.gutter.delete_multi(batch))
                for _key in batch:
                    self.stats.deletes += 1
                    self._charge_batch_item()
                continue
            self._charge_batch("cache_multi_deletes", index)
            deleted.extend(server.delete_multi(batch))
            for _key in batch:
                self.stats.deletes += 1
                self._charge_batch_item()
        self._yield_point("delete_multi")
        return deleted

    def lease_delete(self, key: str, stale_seconds: float) -> bool:
        """Invalidate a key, retaining its value as servable-stale.

        The leased-invalidation trigger op: accounting matches
        :meth:`delete` (it is a delete variant on the wire).
        """
        self._charge_connection()
        server = self._server_for(key)
        self.stats.deletes += 1
        self.stats.lease_deletes += 1
        if not server.alive:
            # The gutter keeps no stale-retention buffer (no leases), so the
            # lease variant degrades to a plain gutter delete.
            self._node_down(server)
            if self.gutter is None:
                return False
            result = self.gutter.delete(key)
            self._charge_single("cache_deletes")
            return result
        result = server.lease_delete(key, stale_seconds)
        self._charge_single("cache_deletes")
        return result

    def lease_delete_multi(self, keys: Sequence[str],
                           stale_seconds: float) -> List[str]:
        """Batched :meth:`lease_delete` in one round trip per server.

        Returns the keys that existed (and were moved to stale retention).
        Round-trip accounting matches :meth:`delete_multi` — the flush of a
        leased-invalidation transaction costs what a plain invalidation
        flush costs.
        """
        if not keys:
            return []
        self._charge_connection()
        existed: List[str] = []
        for index, (server_name, batch) in enumerate(self._group_by_server(keys).items()):
            server = self._servers[server_name]
            if not server.alive:
                # No stale retention in the gutter: degrade to plain deletes
                # so no gutter copy outlives the invalidation.
                self._node_down(server)
                if self.gutter is not None:
                    self._charge_batch("cache_multi_deletes", index)
                    existed.extend(self.gutter.delete_multi(batch))
                for _key in batch:
                    self.stats.deletes += 1
                    self.stats.lease_deletes += 1
                    self._charge_batch_item()
                continue
            self._charge_batch("cache_multi_deletes", index)
            existed.extend(server.lease_delete_multi(batch, stale_seconds))
            for _key in batch:
                self.stats.deletes += 1
                self.stats.lease_deletes += 1
                self._charge_batch_item()
        self._yield_point("lease_delete_multi")
        return existed

    def _note_lease_contention(self, key: str, state: str) -> None:
        """Track lease-window winners and record contended stale serves.

        A :data:`LEASE_STALE` read counts as *contended* only when the
        window's token is held by a different worker than the reader —
        the same worker re-reading its own window is just the per-key rate
        limit working (and is what a serial replay produces).
        """
        # The record deliberately survives LEASE_HITs: the server's
        # rate-limit window (and its winner) outlives a fresh store, so a
        # stale read in the same window after a refresh must still compare
        # against that window's winner — pruning here would diverge from
        # the server's verdict.  The map is bounded by the leased key
        # space and cleared by flush_all().
        if state == LEASE_ACQUIRED:
            self._lease_winners[key] = self.current_worker
        elif state == LEASE_STALE and \
                self._lease_winners.get(key) != self.current_worker:
            self.stats.lease_contended += 1
            self.recorder.record("lease_contended")
            if self.telemetry is not None:
                self.telemetry.note_lease_contended(key)

    def lease(self, key: str,
              lease_seconds: float) -> Tuple[str, Optional[Any], Optional[int]]:
        """Read a key under the lease protocol (see CacheServer.lease).

        One round trip, like :meth:`get`; a served value (fresh or stale)
        counts as a hit and moves its bytes, a true miss as a miss.

        A dead primary degrades per the gutter contract: a gutter hit is
        served as :data:`LEASE_STALE` *without a token* (its freshness bound
        is the gutter TTL, and no token means no refresh is scheduled), a
        gutter miss — or no gutter — comes back :data:`LEASE_ACQUIRED` with
        no token, which callers resolve by recomputing synchronously.
        """
        self._charge_connection()
        server = self._server_for(key)
        if not server.alive:
            self._node_down(server)
            self.stats.gets += 1
            value = None
            if self.gutter is not None:
                value = self.gutter.get(key)
                self._charge_single("cache_leases")
            if value is not None:
                self.stats.hits += 1
                self.stats.stale_hits += 1
                self.stats.gutter_hits += 1
                self.recorder.record("cache_hits")
                self.recorder.record("cache_bytes_moved",
                                     self.gutter.value_size(key))
                return LEASE_STALE, value, None
            if self.gutter is not None:
                self.stats.gutter_misses += 1
            self.stats.misses += 1
            self.recorder.record("cache_misses")
            return LEASE_ACQUIRED, None, None
        state, value, token = server.lease(
            key, lease_seconds, claimant=self.current_worker)
        self.stats.gets += 1
        self._charge_single("cache_leases")
        self._note_lease_contention(key, state)
        if value is None and state != LEASE_HIT:
            self.stats.misses += 1
            self.recorder.record("cache_misses")
        else:
            self.stats.hits += 1
            if state != LEASE_HIT:
                self.stats.stale_hits += 1
            self.recorder.record("cache_hits")
            self.recorder.record("cache_bytes_moved", server.value_size(key))
        if state == LEASE_ACQUIRED:
            self.stats.leases_granted += 1
        return state, value, token

    def lease_multi(self, keys: Sequence[str], lease_seconds: float,
                    ) -> Dict[str, Tuple[str, Optional[Any], Optional[int]]]:
        """Batched :meth:`lease` in one round trip per server.

        The lease counterpart of :meth:`get_multi`; per-key accounting
        matches N single :meth:`lease` calls.
        """
        if not keys:
            return {}
        self._charge_connection()
        out: Dict[str, Tuple[str, Optional[Any], Optional[int]]] = {}
        for index, (server_name, batch) in enumerate(self._group_by_server(keys).items()):
            server = self._servers[server_name]
            if not server.alive:
                # Same degradation as single-key lease(): gutter hits serve
                # stale with no token, everything else recomputes inline.
                self._node_down(server)
                found = {}
                if self.gutter is not None:
                    self._charge_batch("cache_multi_leases", index)
                    found = self.gutter.get_multi(batch)
                for key in batch:
                    self.stats.gets += 1
                    self._charge_batch_item()
                    value = found.get(key)
                    if value is not None:
                        self.stats.hits += 1
                        self.stats.stale_hits += 1
                        self.stats.gutter_hits += 1
                        self.recorder.record("cache_hits")
                        self.recorder.record("cache_bytes_moved",
                                             self.gutter.value_size(key))
                        out[key] = (LEASE_STALE, value, None)
                    else:
                        if self.gutter is not None:
                            self.stats.gutter_misses += 1
                        self.stats.misses += 1
                        self.recorder.record("cache_misses")
                        out[key] = (LEASE_ACQUIRED, None, None)
                continue
            self._charge_batch("cache_multi_leases", index)
            states = server.lease_multi(batch, lease_seconds,
                                        claimant=self.current_worker)
            for key in batch:
                self.stats.gets += 1
                self._charge_batch_item()
                state, value, token = states[key]
                out[key] = (state, value, token)
                self._note_lease_contention(key, state)
                if value is None and state != LEASE_HIT:
                    self.stats.misses += 1
                    self.recorder.record("cache_misses")
                else:
                    self.stats.hits += 1
                    if state != LEASE_HIT:
                        self.stats.stale_hits += 1
                    self.recorder.record("cache_hits")
                    self.recorder.record("cache_bytes_moved",
                                         server.value_size(key))
                if state == LEASE_ACQUIRED:
                    self.stats.leases_granted += 1
        self._yield_point("lease_multi")
        return out

    def incr(self, key: str, delta: int = 1) -> Optional[int]:
        """Increment an integer value.

        Dead primary → a miss (None): the gutter speaks no counter protocol
        (a counter resurrected at zero would silently corrupt the count), so
        callers fall back to invalidate-and-recompute like any incr miss.
        """
        self._charge_connection()
        server = self._server_for(key)
        if not server.alive:
            self._node_down(server)
            self.stats.incr_miss += 1
            return None
        result = server.incr(key, delta)
        self._charge_single("cache_sets")
        if result is None:
            self.stats.incr_miss += 1
        else:
            self.stats.incr_ok += 1
        return result

    def decr(self, key: str, delta: int = 1) -> Optional[int]:
        """Decrement an integer value (floored at zero).

        Dead primary → a miss (None), like :meth:`incr`.
        """
        self._charge_connection()
        server = self._server_for(key)
        if not server.alive:
            self._node_down(server)
            self.stats.decr_miss += 1
            return None
        result = server.decr(key, delta)
        self._charge_single("cache_sets")
        if result is None:
            self.stats.decr_miss += 1
        else:
            self.stats.decr_ok += 1
        return result

    def incr_multi(self, deltas: Dict[str, int]) -> Dict[str, Optional[int]]:
        """Adjust several counters in one round trip per server.

        ``deltas`` maps keys to *signed* deltas (negative values decrement,
        floored at zero like :meth:`decr`), so one batch can carry a mixed
        run such as a group-moving UPDATE's ``-1``/``+1`` pair.  Returns the
        new value per key, or None where the key missed.
        """
        if not deltas:
            return {}
        self._charge_connection()
        out: Dict[str, Optional[int]] = {}
        for index, (server_name, batch) in enumerate(
                self._group_by_server(list(deltas)).items()):
            server = self._servers[server_name]
            if not server.alive:
                # No counter protocol in the gutter (see incr): every key in
                # the dead batch reports a sign-appropriate miss.
                self._node_down(server)
                for key in batch:
                    out[key] = None
                    if deltas[key] >= 0:
                        self.stats.incr_miss += 1
                    else:
                        self.stats.decr_miss += 1
                continue
            self._charge_batch("cache_multi_counters", index)
            results = server.incr_multi({k: deltas[k] for k in batch})
            for key in batch:
                self._charge_batch_item()
                result = results[key]
                out[key] = result
                if deltas[key] >= 0:
                    if result is None:
                        self.stats.incr_miss += 1
                    else:
                        self.stats.incr_ok += 1
                elif result is None:
                    self.stats.decr_miss += 1
                else:
                    self.stats.decr_ok += 1
        self._yield_point("incr_multi")
        return out

    def decr_multi(self, deltas: Dict[str, int]) -> Dict[str, Optional[int]]:
        """Batched :meth:`decr`: ``{key: delta}`` with deltas applied negatively."""
        return self.incr_multi({key: -delta for key, delta in deltas.items()})

    def flush_all(self) -> None:
        """Drop every item on every server (dead nodes included) and in the
        gutter pool, so a full flush leaves no fallback copies behind."""
        for server in self._servers.values():
            server.flush_all()
        if self.gutter is not None:
            self.gutter.flush_all()
        self._lease_winners.clear()

    # -- introspection --------------------------------------------------------

    def aggregate_server_stats(self) -> CacheStats:
        """Sum the per-server statistics."""
        total = CacheStats()
        for server in self._servers.values():
            total.add(server.stats)
        return total

    def total_items(self) -> int:
        return sum(s.item_count for s in self._servers.values())

    def total_used_bytes(self) -> int:
        return sum(s.used_bytes for s in self._servers.values())
