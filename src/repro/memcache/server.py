"""A single cache server, API-compatible with the memcached operations
CacheGenie relies on: ``get``/``gets``, ``set``/``add``/``cas``, ``delete``,
``incr``/``decr``, ``flush_all``, and ``stats``.

Values are arbitrary Python objects (clients of real memcached serialize
values; we keep them as objects and account their serialized size for
eviction purposes).  Expiry is evaluated lazily against a clock callable so
the simulation's virtual clock can drive it.
"""

from __future__ import annotations

import itertools
import re
import time as _time
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from ..errors import CacheKeyError, CacheValueError, NodeDownError
from .item import ITEM_HEADER_BYTES, Item, sizeof_value
from .lru import LRUStore
from .stats import CacheStats

#: memcached's classic limits.
MAX_KEY_LENGTH = 250
DEFAULT_MAX_ITEM_BYTES = 1024 * 1024

#: What a key may not contain: whitespace and control characters (every
#: code point for which ``ch.isspace() or ord(ch) < 33``).
_BAD_KEY_CHAR = re.compile(r"[\s\x00-\x20]")

#: Per-key verdicts of a (batched) compare-and-swap, mirroring the memcached
#: text protocol's three CAS responses.
CAS_STORED = "stored"      # token matched; the new value was written
CAS_MISMATCH = "mismatch"  # key exists but was rewritten since the gets (EXISTS)
CAS_MISSING = "missing"    # key is gone — evicted/expired/deleted (NOT_FOUND)
CAS_TOO_LARGE = "too-large"  # value exceeds max_item_bytes (SERVER_ERROR);
                             # retrying cannot help — invalidate instead

#: Per-key states of a lease read (the leased-invalidation protocol, after
#: the lease design in Nishtala et al., *Scaling Memcache at Facebook*).
LEASE_HIT = "hit"            # live fresh entry: an ordinary cache hit
LEASE_STALE = "stale"        # stale-retained value served inside the caller's
                             # own lease window (the issue rate limit): don't
                             # recompute
LEASE_CONTENDED = "contended"  # as LEASE_STALE, but a *different* claimant
                               # holds the window's token: a real race
LEASE_ACQUIRED = "acquired"  # caller won the lease token: it is the one
                             # reader responsible for recomputing this key


def _key_refusal(key: Any) -> Optional[str]:
    """Why memcached would refuse ``key``, or None for a valid key."""
    if not isinstance(key, str) or not key:
        return f"invalid cache key {key!r}"
    if len(key) > MAX_KEY_LENGTH:
        return f"cache key longer than {MAX_KEY_LENGTH} bytes: {key[:40]}..."
    if _BAD_KEY_CHAR.search(key):
        return f"cache key contains whitespace/control chars: {key!r}"
    return None


class _StaleEntry:
    """A recently lease-deleted value, retained for stale serving."""

    __slots__ = ("value", "value_size", "stale_until")

    def __init__(self, value: Any, value_size: int, stale_until: float) -> None:
        self.value = value
        self.value_size = value_size
        self.stale_until = stale_until


class CacheServer:
    """One memcached-like server instance."""

    def __init__(
        self,
        name: str = "cache0",
        capacity_bytes: int = 64 * 1024 * 1024,
        max_item_bytes: int = DEFAULT_MAX_ITEM_BYTES,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.store = LRUStore(capacity_bytes)
        self.max_item_bytes = max_item_bytes
        self.clock = clock or _time.monotonic
        #: Liveness flag driven by the cluster controller's kill/revive: a
        #: dead node rejects every operation with :class:`NodeDownError`
        #: (the client checks this first and fails fast without a round
        #: trip).  ``flush_all`` stays allowed — reviving flushes the node,
        #: because a real restart comes back empty.
        self.alive = True
        self.stats = CacheStats()
        self._cas_counter = itertools.count(1)
        #: Recently lease-deleted values, servable as stale during their
        #: retention window (Facebook's "recently deleted items" structure).
        self._stale: Dict[str, _StaleEntry] = {}
        #: Per-key (timestamp, window) of the last lease token issued: the
        #: timestamp rate-limits token grants, the window lets the sweep
        #: prune records once their rate-limit period has passed.
        self._lease_issued_at: Dict[str, Tuple[float, float]] = {}
        #: Distinct claimants seen in the current lease window per key (the
        #: token winner plus every rate-limited stale reader); feeds the
        #: ``herd_size_max`` contention stat.  The winner's identity decides
        #: whether a rate-limited read counts as *contended*: the same
        #: claimant re-reading its own window is rate limiting working as
        #: intended, a different claimant is a real race.
        self._lease_herd: Dict[str, set] = {}
        self._lease_winner: Dict[str, Any] = {}

    # -- validation -----------------------------------------------------------

    def _check_alive(self) -> None:
        if not self.alive:
            self.stats.node_down_errors += 1
            raise NodeDownError(f"cache node {self.name!r} is down")

    def _check_key(self, key: str) -> None:
        self._check_alive()
        refusal = _key_refusal(key)
        if refusal is not None:
            raise CacheKeyError(refusal)

    def _expiry(self, expire: Optional[float]) -> Optional[float]:
        if expire is None or expire == 0:
            return None
        return self.clock() + float(expire)

    def _live_item(self, key: str) -> Optional[Item]:
        """The unexpired item for ``key``, without an LRU touch (the read
        families touch in their own loops); an expired one is dropped."""
        item = self.store.get(key, touch=False)
        if item is None:
            return None
        if item.is_expired(self.clock()):
            self.store.delete(key)
            self.stats.expirations += 1
            return None
        return item

    # -- reads ----------------------------------------------------------------

    def _read(self, keys: Sequence[str], cas: bool) -> Dict[str, Any]:
        """The read family in one pass: ``{key: value}`` for the keys that
        hit (``{key: (value, cas_token)}`` with ``cas``).

        One liveness check and one clock reading serve the whole batch, so
        expiry is judged at the batch's instant.  Each key is looked up, then
        touched (LRU) or lazily expired, in order.  Only a key the store does
        not hold is validated: every stored key was, when it was stored.
        The statistics are summed as it goes and added on the way out, so a
        key refused mid-batch leaves the earlier keys counted, as N single
        reads would.  A stored None is counted as a hit but left out of the
        result.
        """
        out: Dict[str, Any] = {}
        if not keys:
            return out
        self._check_alive()
        now = self.clock()
        store = self.store
        # LRUStore.get inlined: the lookup and the touch on the store's map.
        lookup, touch = store._items.get, store._items.move_to_end
        gets = hits = expired = 0
        try:
            for key in keys:
                item = lookup(key) if isinstance(key, str) else None
                if item is None:
                    refusal = _key_refusal(key)
                    if refusal is not None:
                        raise CacheKeyError(refusal)
                    gets += 1
                    continue
                gets += 1
                expires_at = item.expires_at
                if expires_at is not None and now >= expires_at:
                    store.delete(key)
                    expired += 1
                    continue
                touch(key)
                hits += 1
                value = item.value
                if value is not None:
                    out[key] = (value, item.cas_id) if cas else value
        finally:
            stats = self.stats
            stats.gets += gets
            stats.hits += hits
            stats.misses += gets - hits
            stats.expirations += expired
        return out

    def get(self, key: str) -> Optional[Any]:
        """Return the value for ``key`` or None on a miss."""
        return self._read((key,), False).get(key)

    def gets(self, key: str) -> Tuple[Optional[Any], Optional[int]]:
        """Return ``(value, cas_token)`` — the CAS form of :meth:`get`."""
        return self._read((key,), True).get(key, (None, None))

    def get_multi(self, keys: Sequence[str]) -> Dict[str, Any]:
        """Batched :meth:`get`: return the values of the keys that hit.

        One network round trip carries the whole batch (the client charges
        round-trip costs); hit/miss statistics still count per key.
        """
        return self._read(keys, False)

    def gets_multi(self, keys: Sequence[str]) -> Dict[str, Tuple[Any, int]]:
        """Batched :meth:`gets`: ``{key: (value, cas_token)}`` for the hits.

        The CAS form of :meth:`get_multi` — the read half of the batched
        read-modify-write protocol (``gets_multi`` + ``cas_multi``).
        """
        return self._read(keys, True)

    def touch_key(self, key: str) -> bool:
        """Return True if the key is present (without counting a get)."""
        return self._live_item(key) is not None

    def value_bytes(self, keys: Iterable[str]) -> int:
        """Total serialized size of the values a read of ``keys`` just
        served.

        Values are sized once, when stored; a read reports those sizes
        rather than serializing the values again.  Covers live items and,
        for lease reads, stale-retained entries.  No statistics, no LRU
        touch.
        """
        lookup = self.store._items.get
        total = 0
        for key in keys:
            item = lookup(key)
            total += (item.value_size if item is not None
                      else self._stale[key].value_size)
        return total

    # -- writes ---------------------------------------------------------------

    def _store(self, key: str, value: Any, expires_at: Optional[float],
               value_size: Optional[int] = None) -> None:
        """Store ``value`` until ``expires_at`` (None: no expiry);
        ``value_size`` is its :func:`sizeof_value` when the caller (the
        client, for its byte accounting) has already taken it."""
        if value_size is None:
            value_size = sizeof_value(value)
        size = len(key) + value_size + ITEM_HEADER_BYTES
        if size > self.max_item_bytes:
            raise CacheValueError(
                f"item of {size} bytes exceeds the {self.max_item_bytes}-byte limit"
            )
        item = Item(key=key, value=value, cas_id=next(self._cas_counter),
                    expires_at=expires_at, size=size,
                    value_size=value_size)
        evicted = self.store.put(item)
        self.stats.evictions += len(evicted)
        # A fresh store supersedes any stale-retained value for the key.
        self._stale.pop(key, None)

    def set(self, key: str, value: Any, expire: Optional[float] = None,
            value_size: Optional[int] = None) -> bool:
        """Unconditionally store a value.

        ``value_size`` (here and on every other write) is the value's
        :func:`sizeof_value` when the caller has already taken it, so a value
        is serialized once per store; omitted, the server sizes it.
        """
        self._check_key(key)
        # may reject an oversized value
        self._store(key, value, self._expiry(expire), value_size)
        self.stats.sets += 1
        return True

    def add(self, key: str, value: Any, expire: Optional[float] = None,
            value_size: Optional[int] = None) -> bool:
        """Store only if the key is absent; returns False if it exists."""
        self._check_key(key)
        self.stats.adds += 1
        if self._live_item(key) is not None:
            return False
        self._store(key, value, self._expiry(expire), value_size)
        return True

    def set_multi(self, mapping: Mapping[str, Any],
                  expire: Optional[float] = None,
                  value_sizes: Optional[Mapping[str, int]] = None) -> List[str]:
        """Batched :meth:`set`.  Returns the keys that failed to store."""
        failed: List[str] = []
        sizes = value_sizes or {}
        for key, value in mapping.items():
            try:
                self.set(key, value, expire, sizes.get(key))
            except CacheValueError:
                failed.append(key)
        return failed

    def cas(self, key: str, value: Any, cas_token: int,
            value_size: Optional[int] = None) -> bool:
        """Compare-and-swap: store only if the item's CAS id still matches."""
        return self.cas_verdict(key, value, cas_token,
                                value_size) == CAS_STORED

    def cas_verdict(self, key: str, value: Any, cas_token: int,
                    value_size: Optional[int] = None) -> str:
        """:meth:`cas` distinguishing why a swap failed.

        Returns :data:`CAS_STORED`, :data:`CAS_MISMATCH` (the token went
        stale — a retry with a fresh ``gets`` can win), or
        :data:`CAS_MISSING` (the entry vanished — a retry cannot help).
        """
        self._check_key(key)
        item = self._live_item(key)
        if item is None:
            self.stats.cas_miss += 1
            return CAS_MISSING
        if item.cas_id != cas_token:
            self.stats.cas_mismatch += 1
            return CAS_MISMATCH
        # may reject an oversized value; a swapped item has no expiry
        self._store(key, value, None, value_size)
        self.stats.cas_ok += 1
        # A successful CAS stores a value just like set() does.
        self.stats.sets += 1
        return CAS_STORED

    def cas_multi(self, items: Mapping[str, Tuple[Any, int]],
                  value_sizes: Optional[Mapping[str, int]] = None) -> Dict[str, str]:
        """Batched :meth:`cas`: ``{key: (value, cas_token)}`` in, per-key
        verdicts out.

        Each key is swapped independently — one stale token does not poison
        the batch — so callers can retry exactly the :data:`CAS_MISMATCH`
        losers.  Per-key statistics match N single ``cas`` calls.
        """
        out: Dict[str, str] = {}
        sizes = value_sizes or {}
        for key, (value, token) in items.items():
            try:
                out[key] = self.cas_verdict(key, value, token,
                                            sizes.get(key))
            except CacheValueError:
                # Parity with set_multi: an oversized value fails only its
                # key — and re-reading cannot shrink it, so the verdict is
                # distinct from a mismatch (callers invalidate, not retry).
                out[key] = CAS_TOO_LARGE
        return out

    def delete(self, key: str) -> bool:
        """Remove a key; returns True if it existed."""
        self._check_key(key)
        self.stats.deletes += 1
        # Consistency with the lease read path: an expired stale retention
        # is already gone, so it must not count as "existed".
        retained = self._stale_entry(key) is not None
        self._stale.pop(key, None)
        return self.store.delete(key) or retained

    def delete_multi(self, keys: Sequence[str]) -> List[str]:
        """Batched :meth:`delete`.  Returns the keys that actually existed."""
        return [key for key in keys if self.delete(key)]

    # -- leases (stale-retaining invalidation) ---------------------------------

    #: Sweep the stale-retention buffer for expired entries once it exceeds
    #: this many keys (amortized cleanup for cold keys never re-read).
    _STALE_SWEEP_THRESHOLD = 1024

    def _sweep_stale(self) -> None:
        """Drop expired stale retentions and spent rate-limit records so
        cold, never-re-read keys do not accumulate without bound (live
        entries are inherently bounded by the activity of one window)."""
        now = self.clock()
        if len(self._stale) > self._STALE_SWEEP_THRESHOLD:
            for key in [k for k, e in self._stale.items()
                        if now >= e.stale_until]:
                del self._stale[key]
                self._lease_issued_at.pop(key, None)
        if len(self._lease_issued_at) > self._STALE_SWEEP_THRESHOLD:
            for key in [k for k, (issued, window)
                        in self._lease_issued_at.items()
                        if now - issued >= window]:
                del self._lease_issued_at[key]
                self._lease_herd.pop(key, None)
                self._lease_winner.pop(key, None)

    def lease_delete(self, key: str, stale_seconds: float) -> bool:
        """Invalidate ``key`` but *retain* its value as servable-stale.

        The live entry is removed (reads no longer count it as a hit) and
        its value moves to the recently-deleted buffer for ``stale_seconds``,
        where :meth:`lease` can serve it while one lease holder recomputes.
        Returns True if the key existed (live or already stale-retained).
        """
        self._check_key(key)
        self.stats.deletes += 1
        self.stats.lease_deletes += 1
        self._sweep_stale()
        item = self._live_item(key)
        if item is not None:
            self.store.delete(key)
            self._stale[key] = _StaleEntry(item.value, item.value_size,
                                           self.clock() + float(stale_seconds))
            return True
        entry = self._stale_entry(key)
        if entry is not None:
            # Another invalidation during the window: extend the retention
            # (the value is already stale; staleness is still bounded by
            # ``stale_seconds`` past the *latest* write).
            entry.stale_until = self.clock() + float(stale_seconds)
            return True
        return False

    def lease_delete_multi(self, keys: Sequence[str],
                           stale_seconds: float) -> List[str]:
        """Batched :meth:`lease_delete`.  Returns the keys that existed."""
        return [key for key in keys if self.lease_delete(key, stale_seconds)]

    def _stale_entry(self, key: str) -> Optional[_StaleEntry]:
        entry = self._stale.get(key)
        if entry is None:
            return None
        if self.clock() >= entry.stale_until:
            del self._stale[key]
            return None
        return entry

    def _lease(self, keys: Sequence[str], lease_seconds: float, claimant: Any,
               ) -> Dict[str, Tuple[str, Optional[Any], Optional[int]]]:
        """The lease family in one pass: ``{key: (state, value, token)}``.

        As :meth:`_read`: one liveness check and one clock reading for the
        batch, each key answered in order (a key the store does not hold
        validated first), and the statistics summed as it goes and added on
        the way out.
        """
        out: Dict[str, Tuple[str, Optional[Any], Optional[int]]] = {}
        if not keys:
            return out
        self._check_alive()
        now = self.clock()
        window = float(lease_seconds)
        store = self.store
        stale, issued_at = self._stale, self._lease_issued_at
        herds, winners = self._lease_herd, self._lease_winner
        gets = hits = stale_hits = granted = contended = expired = 0
        herd_max = 0
        try:
            for key in keys:
                item = store.get(key) if isinstance(key, str) else None
                if item is None:
                    refusal = _key_refusal(key)
                    if refusal is not None:
                        raise CacheKeyError(refusal)
                gets += 1
                if item is not None:
                    expires_at = item.expires_at
                    if expires_at is None or now < expires_at:
                        hits += 1
                        out[key] = (LEASE_HIT, item.value, None)
                        continue
                    store.delete(key)
                    expired += 1
                record = issued_at.get(key)
                issued = record[0] if record is not None else None
                can_issue = issued is None or (now - issued) >= window
                entry = stale.get(key)
                if entry is not None and now >= entry.stale_until:
                    del stale[key]
                    entry = None
                if entry is None:
                    if issued is not None and can_issue:
                        # Lazy pruning: with no stale value retained and the
                        # rate-limit window passed, the record carries no
                        # information — drop it so a churning key space
                        # doesn't grow this map without bound (the
                        # lease_delete-time sweep catches keys never read
                        # again).
                        del issued_at[key]
                        herds.pop(key, None)
                        winners.pop(key, None)
                    # True miss: nothing retained.  Always grant, and without
                    # starting the rate-limit window — the caller must go to
                    # the database anyway, and its set repopulates the key
                    # for everyone; the limit exists to bound recomputes of
                    # *stale-retained* (hot, invalidated) keys.
                    granted += 1
                    out[key] = (LEASE_ACQUIRED, None, next(self._cas_counter))
                    continue
                hits += 1
                stale_hits += 1
                if can_issue:
                    issued_at[key] = (now, window)
                    granted += 1
                    # A fresh window opens with one claimant: the token winner.
                    winners[key] = claimant
                    herds[key] = {claimant}
                    herd_max = max(herd_max, 1)
                    out[key] = (LEASE_ACQUIRED, entry.value,
                                next(self._cas_counter))
                    continue
                # Rate-limited.  A *different* claimant wanting the token
                # while the winner holds it is the contended case the
                # concurrent replay measures; the winner re-reading its own
                # window is the rate limit doing its job.
                winner = winners.get(key)
                herd = herds.setdefault(key, {winner})
                herd.add(claimant)
                herd_max = max(herd_max, len(herd))
                if claimant != winner:
                    contended += 1
                    out[key] = (LEASE_CONTENDED, entry.value, None)
                else:
                    out[key] = (LEASE_STALE, entry.value, None)
        finally:
            stats = self.stats
            stats.gets += gets
            stats.hits += hits
            stats.misses += gets - hits
            stats.expirations += expired
            stats.stale_hits += stale_hits
            stats.leases_granted += granted
            stats.lease_contended += contended
            stats.herd_size_max = max(stats.herd_size_max, herd_max)
        return out

    def lease(self, key: str, lease_seconds: float,
              claimant: Any = None) -> Tuple[str, Optional[Any], Optional[int]]:
        """Read ``key`` under the lease protocol.

        ``claimant`` identifies the reading context (the concurrent replay
        passes its worker id; serial callers leave it None).  It decides
        contention only: a rate-limited read whose claimant differs from the
        window's token winner is :data:`LEASE_CONTENDED` and counts in
        ``lease_contended``, and ``herd_size_max`` tracks the most
        *distinct* claimants racing one key's window.

        Returns ``(state, value, token)``:

        * :data:`LEASE_HIT` — a live fresh entry; ``value`` is it.
        * :data:`LEASE_ACQUIRED` — the caller won the lease token and is the
          one reader that should recompute.  ``value`` is the stale-retained
          value if one exists (serve it; recompute in the background) or
          None on a true miss (recompute on the critical path, as usual).
        * :data:`LEASE_STALE` — a stale-retained value served while the
          per-key token rate limit of one token per ``lease_seconds`` is in
          effect and the caller won the window's token: do not recompute.
        * :data:`LEASE_CONTENDED` — the same, but another claimant won the
          window's token.

        Token issuance is rate-limited per key — at most one token every
        ``lease_seconds`` — which is what bounds a hot key's recompute rate
        however many invalidations and readers hit it.
        """
        return self._lease((key,), lease_seconds, claimant)[key]

    def lease_multi(self, keys: Sequence[str], lease_seconds: float,
                    claimant: Any = None,
                    ) -> Dict[str, Tuple[str, Optional[Any], Optional[int]]]:
        """Batched :meth:`lease`: ``{key: (state, value, token)}``."""
        return self._lease(keys, lease_seconds, claimant)

    def incr(self, key: str, delta: int = 1) -> Optional[int]:
        """Increment an integer value; returns the new value or None on miss."""
        self._check_key(key)
        item = self._live_item(key)
        if item is None or not isinstance(item.value, int):
            self.stats.incr_miss += 1
            return None
        self.stats.incr_ok += 1
        new_value = item.value + delta
        # memcached keeps an item's expiry across incr/decr.
        self._store(key, new_value, item.expires_at)
        return new_value

    def decr(self, key: str, delta: int = 1) -> Optional[int]:
        """Decrement an integer value, floored at zero as memcached does."""
        self._check_key(key)
        item = self._live_item(key)
        if item is None or not isinstance(item.value, int):
            self.stats.decr_miss += 1
            return None
        self.stats.decr_ok += 1
        new_value = max(0, item.value - delta)
        self._store(key, new_value, item.expires_at)
        return new_value

    def incr_multi(self, deltas: Mapping[str, int]) -> Dict[str, Optional[int]]:
        """Batched counter adjustment: ``{key: signed_delta}`` in, new values out.

        Positive deltas increment, negative deltas decrement (floored at
        zero, as :meth:`decr` does) — one wire batch can carry a mixed run,
        which is what a group-moving UPDATE's ``-1``/``+1`` pair needs.
        Per-key statistics match N single ``incr``/``decr`` calls; misses
        (absent or non-integer values) report None for their key.
        """
        out: Dict[str, Optional[int]] = {}
        for key, delta in deltas.items():
            if delta >= 0:
                out[key] = self.incr(key, delta)
            else:
                out[key] = self.decr(key, -delta)
        return out

    def decr_multi(self, deltas: Mapping[str, int]) -> Dict[str, Optional[int]]:
        """Batched :meth:`decr`: ``{key: delta}`` with deltas applied negatively."""
        return self.incr_multi({key: -delta for key, delta in deltas.items()})

    def release(self, owns: Callable[[str], bool]) -> int:
        """Drop the items (stale retentions included) whose keys ``owns``
        rejects: a ring change gave them to another node, and a copy left
        here would be served stale if a later change gave them back.  No
        statistic moves; returns how many stored items went."""
        gone = [key for key in self.store.keys() if not owns(key)]
        for key in gone:
            self.store.delete(key)
        for key in [key for key in self._stale if not owns(key)]:
            del self._stale[key]
        return len(gone)

    def flush_all(self) -> None:
        """Drop every item (stale-retained values included)."""
        self.store.clear()
        self._stale.clear()
        self._lease_issued_at.clear()
        self._lease_herd.clear()
        self._lease_winner.clear()

    # -- introspection --------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self.store.used_bytes

    @property
    def item_count(self) -> int:
        return len(self.store)

    def stats_dict(self) -> Dict[str, float]:
        out = self.stats.as_dict()
        # Summed across a fleet this is the live-node count.
        out["alive"] = 1.0 if self.alive else 0.0
        out["curr_items"] = self.item_count
        out["bytes"] = self.used_bytes
        out["limit_maxbytes"] = self.store.capacity_bytes
        out["lru_evictions"] = self.store.evictions
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CacheServer {self.name}: {self.item_count} items, {self.used_bytes}B>"
