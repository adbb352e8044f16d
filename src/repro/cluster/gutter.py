"""The gutter pool: a small fallback fleet for keys whose primary is dead.

Modeled after the *gutter* machines of Nishtala et al., *Scaling Memcache at
Facebook*: when a client's request to a primary node fails, it retries
against a small dedicated pool whose entries carry a short TTL.  The short
TTL is the whole consistency story — gutter entries are **not** invalidated
by the trigger pipeline's delete traffic for live nodes (the primary is
dead; its delete batches fail fast), so a bounded lifetime is what keeps a
dead node's window of staleness bounded.  Invalidation traffic that *does*
target a dead primary is forwarded here by the client, so an explicitly
doomed value never outlives its write even inside the TTL window.

The pool deliberately speaks a reduced protocol: batched reads, and
set/add/delete with their batched forms.  No CAS (tokens from a vanished primary are
meaningless) and no leases (stale retention on a fallback would stack two
staleness bounds).  Clients do all round-trip cost accounting; the pool's
own counters only split gutter traffic into hits/misses/sets/deletes for
the cluster ablation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..errors import CacheServerError, CacheValueError
from ..memcache.hashring import HashRing
from ..memcache.server import CacheServer

#: Default gutter entry lifetime.  Short by design: it is the bound on how
#: stale a value served for a dead primary's key can get.
DEFAULT_GUTTER_TTL = 2.0


class GutterPool:
    """A small set of fallback cache servers with a short per-entry TTL."""

    def __init__(self, servers: Sequence[CacheServer],
                 ttl_seconds: float = DEFAULT_GUTTER_TTL) -> None:
        if not servers:
            raise CacheServerError("gutter pool requires at least one server")
        if ttl_seconds <= 0:
            raise CacheServerError("gutter TTL must be positive")
        self._servers: Dict[str, CacheServer] = {s.name: s for s in servers}
        if len(self._servers) != len(servers):
            raise CacheServerError("gutter server names must be unique")
        self.ttl_seconds = float(ttl_seconds)
        #: The pool has its own ring: gutter membership is independent of the
        #: primary fleet's (a primary dying must not remap gutter keys).
        self.ring = HashRing(list(self._servers))
        self.hits = 0
        self.misses = 0
        self.sets = 0
        self.deletes = 0

    # -- routing ---------------------------------------------------------------

    @property
    def servers(self) -> List[CacheServer]:
        return list(self._servers.values())

    def _server_for(self, key: str) -> CacheServer:
        return self._servers[self.ring.server_for(key)]

    # -- reduced protocol ------------------------------------------------------

    def get_multi(self, keys: Sequence[str]) -> Dict[str, Any]:
        """The values of the (distinct) keys that hit: one ``get_multi`` per
        gutter server, each key counted a hit or a miss."""
        out: Dict[str, Any] = {}
        asked = 0
        for name, batch in self.ring.partition(keys).items():
            asked += len(batch)
            out.update(self._servers[name].get_multi(batch))
        self.hits += len(out)
        self.misses += asked - len(out)
        return out

    def value_bytes(self, keys: Sequence[str]) -> int:
        """Total stored size of the values a gutter read of ``keys`` just
        served (:meth:`CacheServer.value_bytes`, per gutter server)."""
        return sum(self._servers[name].value_bytes(batch)
                   for name, batch in self.ring.partition(keys).items())

    def set(self, key: str, value: Any, value_size: Optional[int] = None) -> bool:
        self.sets += 1
        return self._server_for(key).set(key, value, self.ttl_seconds,
                                         value_size=value_size)

    def set_multi(self, mapping: Dict[str, Any],
                  value_sizes: Optional[Dict[str, int]] = None) -> List[str]:
        """Store several values; returns the keys refused as oversized."""
        failed: List[str] = []
        sizes = value_sizes or {}
        for key, value in mapping.items():
            try:
                self.set(key, value, sizes.get(key))
            except CacheValueError:
                failed.append(key)
        return failed

    def add(self, key: str, value: Any, value_size: Optional[int] = None) -> bool:
        self.sets += 1
        return self._server_for(key).add(key, value, self.ttl_seconds,
                                         value_size=value_size)

    def delete(self, key: str) -> bool:
        self.deletes += 1
        return self._server_for(key).delete(key)

    def delete_multi(self, keys: Sequence[str]) -> List[str]:
        return [key for key in keys if self.delete(key)]

    # -- introspection ---------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """The pool's traffic split (clients account round trips)."""
        return {
            "gutter_hits": self.hits,
            "gutter_misses": self.misses,
            "gutter_sets": self.sets,
            "gutter_deletes": self.deletes,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<GutterPool {sorted(self._servers)} ttl={self.ttl_seconds}s "
                f"hits={self.hits} misses={self.misses}>")
