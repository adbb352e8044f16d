"""The cluster controller: one live hash ring, four lifecycle verbs.

The controller owns the hash ring that every cache client in the deployment
routes on, so a membership change made here is immediately visible to the
application clients *and* the trigger-side clients — there is one logical
cache, per the paper, and therefore one view of its membership.

Lifecycle verbs:

* :meth:`join` — a new, cold node enters the ring.  Consistent hashing
  remaps only ``~1/n`` of the key space, but every remapped key now routes
  to an empty node: the controller measures that warm-up debt as the
  cached keys the live members hand over, and drops them there.
* :meth:`drain` — planned removal: the node leaves the ring (keys remap to
  survivors) but stays alive, so nothing fails — only remapped keys go cold.
* :meth:`kill` — a crash: the node stays **on** the ring (clients cannot
  re-route what they cannot detect as a membership change; they fail fast
  per request and fall back to the gutter pool).  Refresh-queue claims held
  by workers recomputing keys of the dead node are dropped so other readers
  can re-claim within one refresh cycle.
* :meth:`revive` — the node returns *empty* (a real restart loses RAM):
  the controller counts the items flushed as the post-revival invalidation
  cost — every one is a key that must be recomputed even though the node
  is "back".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import CacheServerError
from ..memcache.client import CacheClient
from ..memcache.hashring import HashRing
from ..memcache.server import CacheServer
from .gutter import GutterPool


@dataclass
class ClusterEvent:
    """One lifecycle action applied to the fleet, with its measured effects."""

    at: float
    action: str
    node: str
    details: Dict[str, float] = field(default_factory=dict)


class ClusterController:
    """Drive node lifecycle over a shared ring for a set of cache clients."""

    def __init__(
        self,
        clients: Sequence[CacheClient],
        servers: Sequence[CacheServer],
        clock: Callable[[], float],
        gutter: Optional[GutterPool] = None,
        genie: Optional[Any] = None,
    ) -> None:
        if not clients:
            raise CacheServerError("cluster controller requires at least one client")
        if not servers:
            raise CacheServerError("cluster controller requires at least one server")
        self._clients = list(clients)
        self._servers: Dict[str, CacheServer] = {s.name: s for s in servers}
        if len(self._servers) != len(servers):
            raise CacheServerError("cache server names must be unique")
        self.clock = clock
        self.gutter = gutter
        #: The CacheGenie instance (when wired): kill() uses its refresh
        #: queue to drop recompute claims orphaned by the dead node.
        self.genie = genie
        #: THE ring.  Every client routes on this same object, so one
        #: membership change here re-routes the whole deployment at once.
        self.ring = HashRing(list(self._servers))
        for client in self._clients:
            client.ring = self.ring
            client._servers = self._servers
            client.gutter = gutter
        self.events: List[ClusterEvent] = []
        # Cumulative fleet-level costs of dynamics.
        self.keys_remapped = 0
        self.orphaned_claims_dropped = 0
        self.post_revival_invalidations = 0

    # -- introspection ---------------------------------------------------------

    @property
    def servers(self) -> List[CacheServer]:
        return list(self._servers.values())

    def server(self, name: str) -> CacheServer:
        try:
            return self._servers[name]
        except KeyError:
            raise CacheServerError(f"unknown cache node {name!r}")

    def alive_nodes(self) -> List[str]:
        return [name for name, s in self._servers.items() if s.alive]

    def _log(self, action: str, node: str, **details: float) -> ClusterEvent:
        event = ClusterEvent(at=self.clock(), action=action, node=node,
                             details=dict(details))
        self.events.append(event)
        return event

    # -- lifecycle -------------------------------------------------------------

    def join(self, server: CacheServer) -> ClusterEvent:
        """Add a cold node to the fleet and the ring.

        The node enters empty: a drained node joining again is flushed
        first, because every write made while it was away went to the
        survivors and its old items may be stale.  Measures the warm-up
        debt: the cached keys that now route to the (empty) newcomer and
        will therefore miss until recomputed.  Their old nodes drop them,
        so each live node holds only keys that route to it: a copy left
        behind would be served stale once a later :meth:`drain` routed
        its key back.
        """
        if server.name in self._servers:
            raise CacheServerError(f"cache node {server.name!r} already in the fleet")
        server.flush_all()
        self._servers[server.name] = server
        self.ring.add_server(server.name)
        remapped = 0
        for name in self.ring.servers:
            holder = self._servers[name]
            if holder.alive:
                remapped += holder.release(
                    lambda key, name=name: self.ring.server_for(key) == name)
        self.keys_remapped += remapped
        return self._log("join", server.name, keys_remapped=remapped)

    def drain(self, name: str) -> ClusterEvent:
        """Planned removal: take the node off the ring, leaving it alive.

        Keys remap to the survivors and go cold there; nothing fails fast
        because no client routes to the drained node any more.  The node
        leaves the fleet but stays alive, so a later :meth:`join` of the
        same server object can bring it back (empty).
        """
        server = self.server(name)
        if name not in self.ring.servers:
            raise CacheServerError(f"cache node {name!r} is not on the ring")
        if len(self.ring.servers) == 1:
            raise CacheServerError("cannot drain the last ring member")
        remapped = len(server.store.keys())
        self.ring.remove_server(name)
        del self._servers[name]
        self.keys_remapped += remapped
        return self._log("drain", name, keys_remapped=remapped)

    def kill(self, name: str) -> ClusterEvent:
        """Crash a node: it stays on the ring but refuses every operation.

        Clients fail fast (``cache_node_down``) and fall back to the gutter
        pool when one is attached.  Refresh claims held for keys owned by
        the dead node are dropped so surviving workers can re-claim them —
        a dead lease holder must not block everyone else.
        """
        server = self.server(name)
        if not server.alive:
            raise CacheServerError(f"cache node {name!r} is already down")
        server.alive = False
        orphaned = 0
        if self.genie is not None:
            orphaned = self.genie.refresh_queue.drop_orphaned(
                lambda key: self.ring.server_for(key) == name)
            self.orphaned_claims_dropped += orphaned
        return self._log("kill", name, orphaned_claims_dropped=orphaned)

    def revive(self, name: str) -> ClusterEvent:
        """Bring a dead node back — empty, as a real restart would.

        The items it held at death are flushed and counted as the
        post-revival invalidation cost: each one must be recomputed even
        though its node is nominally back.
        """
        server = self.server(name)
        if server.alive:
            raise CacheServerError(f"cache node {name!r} is not down")
        invalidated = server.item_count
        server.flush_all()
        server.alive = True
        self.post_revival_invalidations += invalidated
        return self._log("revive", name, post_revival_invalidations=invalidated)

    # -- reporting -------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        out = {
            "keys_remapped": self.keys_remapped,
            "orphaned_claims_dropped": self.orphaned_claims_dropped,
            "post_revival_invalidations": self.post_revival_invalidations,
        }
        if self.gutter is not None:
            out.update(self.gutter.counters())
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<ClusterController nodes={sorted(self._servers)} "
                f"alive={self.alive_nodes()} events={len(self.events)}>")
