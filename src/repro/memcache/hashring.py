"""Consistent hashing ring for distributing keys across cache servers.

The paper stresses that CacheGenie maintains *a single logical cache across
many cache servers* (unlike SI-cache's per-application-server caches), which
in practice means client-side key partitioning — memcached clients use
consistent hashing (ketama).  This ring implements that scheme with virtual
nodes so adding/removing a server only remaps a small fraction of keys.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence

from ..errors import CacheServerError

#: Most keys the placement memo holds before it is dropped wholesale and
#: refilled, so a long-running process with a churning key space cannot leak.
PLACEMENT_MEMO_MAX = 1 << 16


def _hash(value: str) -> int:
    """Stable 32-bit hash of a string (md5-based, like ketama)."""
    digest = hashlib.md5(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class HashRing:
    """Consistent-hash ring mapping keys to named servers."""

    def __init__(self, servers: Sequence[str], replicas: int = 100) -> None:
        if not servers:
            raise CacheServerError("hash ring requires at least one server")
        if replicas < 1:
            raise CacheServerError("replicas must be >= 1")
        self.replicas = replicas
        self._ring: Dict[int, str] = {}
        self._sorted_points: List[int] = []
        self._servers: List[str] = []
        #: key -> owning server memo.  Placement is pure given fixed
        #: membership, so the memo is cleared on every membership change
        #: (add/remove) and cannot change any lookup.
        self._placement: Dict[str, str] = {}
        for server in servers:
            self.add_server(server)

    @property
    def servers(self) -> List[str]:
        return list(self._servers)

    def add_server(self, server: str) -> None:
        """Add a server and its virtual nodes to the ring."""
        if server in self._servers:
            raise CacheServerError(f"server {server!r} already on the ring")
        self._placement.clear()
        self._servers.append(server)
        for i in range(self.replicas):
            point = _hash(f"{server}#{i}")
            # Hash collisions across virtual nodes are vanishingly rare but
            # must not silently drop a node; nudge until free.
            while point in self._ring:
                point = (point + 1) % (1 << 32)
            self._ring[point] = server
            bisect.insort(self._sorted_points, point)

    def remove_server(self, server: str) -> None:
        """Remove a server and its virtual nodes from the ring."""
        if server not in self._servers:
            raise CacheServerError(f"server {server!r} not on the ring")
        self._placement.clear()
        self._servers.remove(server)
        points = [p for p, s in self._ring.items() if s == server]
        for point in points:
            del self._ring[point]
            idx = bisect.bisect_left(self._sorted_points, point)
            del self._sorted_points[idx]

    def server_for(self, key: str) -> str:
        """Return the server responsible for ``key``."""
        placement = self._placement
        server = placement.get(key)
        if server is not None:
            return server
        if not self._sorted_points:
            raise CacheServerError("hash ring is empty")
        point = _hash(key)
        idx = bisect.bisect_right(self._sorted_points, point)
        if idx == len(self._sorted_points):
            idx = 0
        server = self._ring[self._sorted_points[idx]]
        if len(placement) >= PLACEMENT_MEMO_MAX:
            placement.clear()
        placement[key] = server
        return server

    def distribution(self, keys: Sequence[str]) -> Dict[str, int]:
        """Count how many of ``keys`` map to each server (for tests/metrics)."""
        counts = {server: 0 for server in self._servers}
        for key in keys:
            counts[self.server_for(key)] += 1
        return counts
