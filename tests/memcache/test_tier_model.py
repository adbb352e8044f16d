"""The cache tier against a model: long random histories, one oracle.

A ``hypothesis`` state machine drives two :class:`CacheClient` s (the
application's and the trigger's), the shared :class:`HashRing`, two or
three :class:`CacheServer` s, an optional :class:`GutterPool` and the
:class:`ClusterController` on one mutable clock, and checks every answer
against a plain model: key -> (value, expiry, CAS token) for the live
fleet, key -> (value, stale-until) for lease-deleted values, and
key -> (value, expiry) for the gutter pool.  Every value the machine
writes is unique, so a served value names the write that stored it.

Rules: each of the 19 client operations (single-key and ``*_multi``) over
key lists with duplicates and oversized values, from either client and
under any replay worker; ``kill`` / ``revive`` / ``join`` / ``drain`` (and
re-joining a drained node); a node killed between a ``gets_multi`` and its
``cas_multi``; clock advances past TTLs, stale retention, lease windows
and the gutter TTL.

Checked on every call and after every step, against the owner of each
count (the client keeps none):

* a live node serves only what the model holds, and loses only what it
  evicted or what expired;
* a revived node serves nothing it held before it died;
* a gutter hit is younger than the gutter TTL and is the gutter's value;
* ``hits + misses == gets`` on every server, and on the recorder against
  the keys the calls read;
* one call charges one round trip per distinct live server batch it
  sent: a live primary's batch, or a dead primary's batch the gutter
  pool served; bytes moved are the sizes of the values that travelled;
* an oversized value is refused alike by every family, and never stored;
* a server evicts only when it is over capacity;
* the recorder's ``lease_contended`` and ``cache_node_down`` are the sums
  of the servers' counts, and its hits are the servers' hits.

Tier-1 runs a short budget; CI runs ``--hypothesis-profile=deep``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.cluster import ClusterController, GutterPool
from repro.memcache import (CAS_MISMATCH, CAS_MISSING, CAS_STORED,
                            CAS_TOO_LARGE, CacheClient, CacheServer)
from repro.memcache.item import ITEM_HEADER_BYTES, sizeof_value
from repro.memcache.lru import LRUStore
from repro.memcache.server import LEASE_ACQUIRED, LEASE_HIT, LEASE_STALE
from repro.storage.costmodel import Recorder

ITEM_LIMIT = 400
CAPACITY = 1100          # three big values overflow a node
GUTTER_TTL = 2.0
LEASE_SECONDS = 3.0
STALE_SECONDS = 2.5
MAX_RING = 4
KEYS = ("ka", "kb", "kc", "kd", "ke", "kf")
#: Half the draws are ``ka``: a hot key sees lease windows, herds and
#: rewrites within one short history.
KEY = st.sampled_from(KEYS) | st.just(KEYS[0])
KINDS = ("small", "int", "big", "oversized")

#: Families that fall back to the gutter pool for a dead primary.
GUTTER_FAMILIES = ("get", "lease", "set", "add", "delete")


class MutableClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class SpyStore(LRUStore):
    """An LRU store that logs each eviction pass: the bytes it held when
    the pass began and what it evicted."""

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        self.passes: List[Tuple[int, List[str]]] = []

    def _evict_if_needed(self) -> List[str]:
        held = self.used_bytes
        evicted = super()._evict_if_needed()
        if evicted:
            self.passes.append((held, evicted))
        return evicted


def make_server(name: str, clock: MutableClock,
                capacity: int = CAPACITY) -> CacheServer:
    server = CacheServer(name, capacity_bytes=capacity,
                         max_item_bytes=ITEM_LIMIT, clock=clock)
    server.store = SpyStore(capacity)
    return server


def item_size(key: str, value: Any) -> int:
    return len(key) + sizeof_value(value) + ITEM_HEADER_BYTES


class Entry:
    """The model of one stored item."""

    __slots__ = ("value", "expires_at", "token")

    def __init__(self, value: Any, expires_at: Optional[float]) -> None:
        self.value = value
        self.expires_at = expires_at
        #: The item's CAS token, read off the server right after the store
        #: (the model cannot know the number; it checks that each store
        #: issues a new one and that every read reports it).
        self.token: Optional[int] = None


class TierModel(RuleBasedStateMachine):

    # -- set-up ------------------------------------------------------------------

    @initialize(nodes=st.integers(2, 3), with_gutter=st.booleans())
    def build(self, nodes: int, with_gutter: bool) -> None:
        self.clock = MutableClock()
        self.recorder = Recorder()
        self.servers: Dict[str, CacheServer] = {}   # every node ever made
        for i in range(nodes):
            self.servers[f"cache{i}"] = make_server(f"cache{i}", self.clock)
        fleet = list(self.servers.values())
        self.gutter: Optional[GutterPool] = None
        self.gutter_servers: List[CacheServer] = []
        if with_gutter:
            self.gutter_servers = [make_server("gutter0", self.clock,
                                               capacity=1 << 20)]
            self.gutter = GutterPool(self.gutter_servers,
                                     ttl_seconds=GUTTER_TTL)
        self.clients = {
            "app": CacheClient(fleet, recorder=self.recorder),
            "trigger": CacheClient(fleet, recorder=self.recorder,
                                   from_trigger=True, pipeline_batches=True),
        }
        self.controller = ClusterController(
            list(self.clients.values()), fleet, self.clock, gutter=self.gutter)
        self.drained: List[CacheServer] = []
        self.joined = nodes
        # The model.
        self.live: Dict[str, Entry] = {}
        self.stale: Dict[str, Tuple[Any, float]] = {}
        self.guttered: Dict[str, Tuple[Any, float]] = {}
        #: Values each node held when it died: never served after revival.
        self.buried: Dict[str, set] = {}
        #: Keys read through the clients, and those no server was asked for
        #: (a dead primary with no gutter to ask).
        self.keys_read = 0
        self.unasked_reads = 0
        self.tokens_seen: Dict[str, int] = {}   # per server: highest token
        self.old_tokens: Dict[str, int] = {}    # per key: its first token
        self.passes_seen: Dict[str, int] = {}
        self.values = 0
        self.last_bytes = 0

    # -- the model's view of the fleet ---------------------------------------------

    def now(self) -> float:
        return self.clock.t

    def owner(self, key: str) -> str:
        return self.controller.ring.server_for(key)

    def alive(self, key: str) -> bool:
        return self.servers[self.owner(key)].alive

    def live_entry(self, key: str) -> Optional[Entry]:
        entry = self.live.get(key)
        if entry is not None and entry.expires_at is not None \
                and self.now() >= entry.expires_at:
            del self.live[key]          # the server drops it lazily, too
            return None
        return entry

    def stale_value(self, key: str) -> Optional[Any]:
        retained = self.stale.get(key)
        if retained is None:
            return None
        if self.now() >= retained[1]:
            del self.stale[key]
            return None
        return retained[0]

    def gutter_value(self, key: str) -> Optional[Any]:
        held = self.guttered.get(key)
        if held is None:
            return None
        if self.now() >= held[1]:
            del self.guttered[key]
            return None
        return held[0]

    def new_value(self, kind: str) -> Any:
        self.values += 1
        n = self.values
        if kind == "int":
            return 1000 * n
        if kind == "small":
            return f"v{n}"
        if kind == "big":
            return f"b{n}-" + "x" * 260
        return f"o{n}-" + "x" * ITEM_LIMIT

    def oversized(self, key: str, value: Any) -> bool:
        return item_size(key, value) > ITEM_LIMIT

    def expiry(self, expire: Optional[float]) -> Optional[float]:
        return None if not expire else self.now() + float(expire)

    def store(self, key: str, value: Any, expire: Optional[float]) -> None:
        self.live[key] = Entry(value, self.expiry(expire))
        self.stale.pop(key, None)

    # -- one call, measured ----------------------------------------------------------

    def batches(self, keys: Sequence[str]) -> Dict[str, List[str]]:
        """The call's distinct keys by primary, first-seen order."""
        out: Dict[str, List[str]] = {}
        for key in dict.fromkeys(keys):
            out.setdefault(self.owner(key), []).append(key)
        return out

    def expected_round_trips(self, keys: Sequence[str], family: str) -> int:
        trips = 0
        for name in self.batches(keys):
            if self.servers[name].alive:
                trips += 1
            elif family in GUTTER_FAMILIES and self.gutter is not None:
                trips += 1
        return trips

    def call(self, client: str, family: str, keys: Sequence[str], thunk):
        """Run one client call; check its round trips and bytes."""
        before = self.recorder.total.copy()
        trips = self.expected_round_trips(keys, family)
        result = thunk(self.clients[client])
        total = self.recorder.total
        assert total.cache_round_trips - before.cache_round_trips == trips, \
            (family, keys)
        self.last_bytes = total.cache_bytes_moved - before.cache_bytes_moved
        return result

    def check_bytes(self, expected: int) -> None:
        assert self.last_bytes == expected, (self.last_bytes, expected)

    # -- reads ---------------------------------------------------------------------

    def check_served(self, key: str, value: Any) -> None:
        """``value`` came from ``key``'s primary (alive) or the gutter."""
        owner = self.owner(key)
        if self.servers[owner].alive:
            assert value not in self.buried.get(owner, ()), \
                f"{owner} served {key}={value!r} from before it died"
            entry = self.live_entry(key)
            assert entry is not None and entry.value == value, \
                f"{owner} served {key}={value!r}, model holds " \
                f"{entry.value if entry else None!r}"
        else:
            assert value == self.gutter_value(key), \
                f"gutter served {key}={value!r} past its TTL or overwritten"

    def expected_read(self, key: str, cas: bool) -> Optional[Any]:
        if self.alive(key):
            entry = self.live_entry(key)
            return entry.value if entry else None
        if cas or self.gutter is None:
            return None
        return self.gutter_value(key)

    def count_reads(self, keys: Sequence[str], cas: bool) -> None:
        for key in dict.fromkeys(keys):
            self.keys_read += 1
            if not self.alive(key) and (cas or self.gutter is None):
                self.unasked_reads += 1

    @rule(client=st.sampled_from(("app", "trigger")),
          keys=st.lists(KEY, max_size=5),
          cas=st.booleans(), single=st.booleans())
    def read(self, client, keys, cas, single):
        if single:
            keys = keys[:1] or ["ka"]
        expected = {key: self.expected_read(key, cas) for key in keys}
        if single:
            key = keys[0]
            got = self.call(client, "gets" if cas else "get", keys,
                            lambda c: c.gets(key) if cas else c.get(key))
            found = {} if got in (None, (None, None)) else {key: got}
        else:
            found = self.call(client, "gets" if cas else "get", keys,
                              lambda c: c.gets_multi(keys) if cas
                              else c.get_multi(keys))
        moved = 0
        for key, want in expected.items():
            got = found.get(key)
            if cas and got is not None:
                got, token = got
                assert token == self.live[key].token, (key, token)
            if got is not None:
                self.check_served(key, got)
                moved += sizeof_value(got)
            assert got == want, (key, got, want)
        self.check_bytes(moved)
        self.count_reads(keys, cas)

    @rule(client=st.sampled_from(("app", "trigger")),
          keys=st.lists(KEY, max_size=5),
          single=st.booleans())
    def lease(self, client, keys, single):
        if single:
            keys = keys[:1] or ["ka"]
            key = keys[0]
            out = {key: self.call(client, "lease", keys,
                                  lambda c: c.lease(key, LEASE_SECONDS))}
        else:
            out = self.call(client, "lease", keys,
                            lambda c: c.lease_multi(keys, LEASE_SECONDS))
        assert set(out) == set(keys)
        moved = 0
        for key, (state, value, token) in out.items():
            if not self.alive(key):
                held = self.gutter_value(key) if self.gutter else None
                if held is None:
                    assert (state, value, token) == (LEASE_ACQUIRED, None, None)
                else:
                    assert (state, value, token) == (LEASE_STALE, held, None)
                    moved += sizeof_value(held)
                continue
            entry = self.live_entry(key)
            stale = self.stale_value(key)
            if entry is not None:
                assert (state, value, token) == (LEASE_HIT, entry.value, None)
            elif stale is not None:
                assert value == stale, (key, value, stale)
                assert (state == LEASE_ACQUIRED and token is not None) or \
                    (state == LEASE_STALE and token is None), (state, token)
            else:
                assert (state, value) == (LEASE_ACQUIRED, None)
                assert token is not None
            if value is not None:
                moved += sizeof_value(value)
        self.check_bytes(moved)
        self.count_reads(keys, cas=False)

    @rule(client=st.sampled_from(("app", "trigger")),
          keys=st.lists(KEY, min_size=1, max_size=3),
          workers=st.lists(st.sampled_from((None, 0, 1)), min_size=2,
                           max_size=4))
    def herd(self, client, keys, workers):
        """Workers lease the same keys back to back: a herd on one window."""
        for worker in workers:
            self.switch_worker(worker)
            self.lease(client, keys, single=False)

    # -- stores --------------------------------------------------------------------

    @rule(client=st.sampled_from(("app", "trigger")),
          writes=st.lists(st.tuples(KEY,
                                    st.sampled_from(KINDS)), max_size=4),
          expire=st.sampled_from((None, 0, 1.0, 4.0)), single=st.booleans())
    def set(self, client, writes, expire, single):
        if single:
            writes = writes[:1] or [("ka", "small")]
        mapping = {key: self.new_value(kind) for key, kind in writes}
        keys = list(mapping)
        if single:
            key = keys[0]
            ok = self.call(client, "set", keys,
                           lambda c: c.set(key, mapping[key], expire))
            failed = [] if ok else [key]
        else:
            failed = self.call(client, "set", keys,
                               lambda c: c.set_multi(mapping, expire))
        want_failed, moved = [], 0
        for key, value in mapping.items():
            refused = self.oversized(key, value) or (
                not self.alive(key) and self.gutter is None)
            if refused:
                want_failed.append(key)
                continue
            moved += sizeof_value(value)
            if self.alive(key):
                self.store(key, value, expire)
            else:
                self.guttered[key] = (value, self.now() + GUTTER_TTL)
        assert sorted(failed) == sorted(want_failed), (failed, want_failed)
        self.check_bytes(moved)

    @rule(client=st.sampled_from(("app", "trigger")),
          key=KEY, kind=st.sampled_from(KINDS),
          expire=st.sampled_from((None, 1.0)))
    def add(self, client, key, kind, expire):
        value = self.new_value(kind)
        added = self.call(client, "add", [key],
                          lambda c: c.add(key, value, expire))
        if self.alive(key):
            present = self.live_entry(key) is not None
        elif self.gutter is not None:
            present = self.gutter_value(key) is not None
        else:
            assert added is False
            self.check_bytes(0)
            return
        too_big = self.oversized(key, value)
        assert added is (not present and not too_big)
        # The value travels unless the server refused it for its size.
        self.check_bytes(0 if too_big and not present else sizeof_value(value))
        if added:
            if self.alive(key):
                self.store(key, value, expire)
            else:
                self.guttered[key] = (value, self.now() + GUTTER_TTL)

    def cas_verdicts(self, items: Dict[str, Tuple[Any, int]]
                     ) -> Tuple[Dict[str, str], int]:
        """The model's verdicts for a CAS call, applied; and its bytes.  A
        swapped entry has no expiry."""
        verdicts, moved = {}, 0
        for key, (value, token) in items.items():
            if not self.alive(key):
                verdicts[key] = CAS_MISSING
                continue
            entry = self.live_entry(key)
            if entry is None:
                verdicts[key] = CAS_MISSING
            elif entry.token != token:
                verdicts[key] = CAS_MISMATCH
            elif self.oversized(key, value):
                verdicts[key] = CAS_TOO_LARGE
                continue
            else:
                verdicts[key] = CAS_STORED
                self.store(key, value, None)
            moved += sizeof_value(value)
        return verdicts, moved

    @rule(client=st.sampled_from(("app", "trigger")),
          writes=st.lists(st.tuples(KEY,
                                    st.sampled_from(KINDS),
                                    st.sampled_from(("current", "old", "zero"))),
                          max_size=4),
          single=st.booleans())
    def cas(self, client, writes, single):
        if single:
            writes = writes[:1] or [("ka", "small", "current")]
        items = {}
        for key, kind, which in writes:
            entry = self.live.get(key)
            if which == "current" and entry is not None:
                token = entry.token
            elif which == "old" and key in self.old_tokens:
                token = self.old_tokens[key]
            else:
                token = 0          # no server ever issues token 0
            items[key] = (self.new_value(kind), token)
        keys = list(items)
        if single:
            key = keys[0]
            ok = self.call(client, "cas", keys,
                           lambda c: c.cas(key, *items[key]))
            got = {key: ok}
        else:
            got = self.call(client, "cas", keys,
                            lambda c: c.cas_multi(items))
        want, moved = self.cas_verdicts(items)
        if single:
            want = {key: want[key] == CAS_STORED}
        assert got == want, (got, want)
        self.check_bytes(moved)

    @rule(keys=st.lists(KEY, min_size=1, max_size=5),
          node=st.integers(0, 3), kind=st.sampled_from(KINDS))
    def kill_between_gets_and_cas(self, keys, node, kind):
        """A node dies between a batched read and its CAS: its keys report
        missing (no round trip), the rest swap as if nothing happened."""
        found = self.call("trigger", "gets", keys,
                          lambda c: c.gets_multi(keys))
        self.count_reads(keys, cas=True)
        for key, (value, token) in found.items():
            self.check_served(key, value)
            assert token == self.live[key].token
        self.check_bytes(sum(sizeof_value(value)
                             for value, _token in found.values()))
        alive = self.ring_nodes(alive=True)
        if alive:
            self.kill_node(self.pick(alive, node))
        items = {key: (self.new_value(kind), token)
                 for key, (_value, token) in found.items()}
        got = self.call("trigger", "cas", list(items),
                        lambda c: c.cas_multi(items))
        want, moved = self.cas_verdicts(items)
        assert got == want, (got, want)
        self.check_bytes(moved)

    # -- deletes and counters --------------------------------------------------------

    @rule(client=st.sampled_from(("app", "trigger")),
          keys=st.lists(KEY, max_size=5),
          leased=st.booleans(), single=st.booleans())
    def delete(self, client, keys, leased, single):
        if single:
            keys = keys[:1] or ["ka"]
        # A plain delete reports an item whose TTL passed as existing while
        # its node still holds it (expiry is lazy), as the gutter does.
        want, either = [], set()
        for key in dict.fromkeys(keys):
            if self.alive(key):
                held = key in self.live
                entry = self.live_entry(key)
                stale = self.stale_value(key)
                if held and entry is None and not leased:
                    either.add(key)
                if entry is not None or stale is not None:
                    want.append(key)
                self.live.pop(key, None)
                if leased and (entry is not None or stale is not None):
                    self.stale[key] = (entry.value if entry else stale,
                                       self.now() + STALE_SECONDS)
                else:
                    self.stale.pop(key, None)
            elif self.gutter is not None:
                if key in self.guttered and self.gutter_value(key) is None:
                    either.add(key)
                if self.gutter_value(key) is not None:
                    want.append(key)
                self.guttered.pop(key, None)
        if single:
            key = keys[0]
            existed = self.call(
                client, "delete", keys,
                lambda c: c.lease_delete(key, STALE_SECONDS) if leased
                else c.delete(key))
            existed = [key] if existed else []
        else:
            existed = self.call(
                client, "delete", keys,
                lambda c: c.lease_delete_multi(keys, STALE_SECONDS) if leased
                else c.delete_multi(keys))
        assert set(existed) - either == set(want) - either, (existed, want)
        self.check_bytes(0)

    @rule(client=st.sampled_from(("app", "trigger")),
          deltas=st.dictionaries(KEY, st.integers(-3, 3),
                                 max_size=4),
          decr=st.booleans(), single=st.booleans())
    def counters(self, client, deltas, decr, single):
        if single:
            deltas = dict(list(deltas.items())[:1]) or {"ka": 1}
        keys = list(deltas)
        if single:
            key, delta = keys[0], deltas[keys[0]]
            got = {key: self.call(client, "counters", keys,
                                  lambda c: c.decr(key, delta) if decr
                                  else c.incr(key, delta))}
        else:
            got = self.call(client, "counters", keys,
                            lambda c: c.decr_multi(deltas) if decr
                            else c.incr_multi(deltas))
        want = {}
        for key, delta in deltas.items():
            signed = -delta if decr else delta
            entry = self.live_entry(key) if self.alive(key) else None
            if entry is None or not isinstance(entry.value, int):
                want[key] = None
                continue
            value = entry.value + signed
            if signed < 0:
                value = max(0, value)
            want[key] = value
            # memcached keeps an item's expiry across incr/decr; the
            # counter is a new version with a new CAS token.
            self.live[key] = Entry(value, entry.expires_at)
        assert got == want, (got, want)
        self.check_bytes(0)

    # -- the fleet -------------------------------------------------------------------

    def kill_node(self, name: str) -> None:
        self.buried.setdefault(name, set()).update(
            item.value for _key, item in self.servers[name].store.items())
        self.controller.kill(name)

    @staticmethod
    def pick(candidates: Sequence[Any], node: int) -> Any:
        return candidates[node % len(candidates)]

    def ring_nodes(self, alive: bool) -> List[str]:
        return [name for name in self.controller.ring.servers
                if self.servers[name].alive is alive]

    @precondition(lambda self: self.ring_nodes(alive=True))
    @rule(node=st.integers(0, 3))
    def kill(self, node):
        self.kill_node(self.pick(self.ring_nodes(alive=True), node))

    @precondition(lambda self: self.ring_nodes(alive=False))
    @rule(node=st.integers(0, 3))
    def revive(self, node):
        name = self.pick(self.ring_nodes(alive=False), node)
        self.controller.revive(name)
        server = self.servers[name]
        assert server.item_count == 0 and server.used_bytes == 0
        for key in list(self.live):
            if self.owner(key) == name:
                del self.live[key]
        for key in list(self.stale):
            if self.owner(key) == name:
                del self.stale[key]

    def remap(self, change) -> None:
        """Apply a ring change; keys whose owner moved are cold."""
        before = {key: self.owner(key) for key in KEYS}
        change()
        for key in KEYS:
            if self.owner(key) != before[key]:
                self.live.pop(key, None)
                self.stale.pop(key, None)

    @precondition(lambda self: len(self.controller.ring.servers) < MAX_RING)
    @rule()
    def join(self):
        name = f"cache{self.joined}"
        self.joined += 1
        self.servers[name] = server = make_server(name, self.clock)
        self.remap(lambda: self.controller.join(server))

    @precondition(lambda self: self.drained
                  and len(self.controller.ring.servers) < MAX_RING)
    @rule(node=st.integers(0, 3))
    def rejoin(self, node):
        server = self.pick(self.drained, node)
        self.drained.remove(server)
        self.remap(lambda: self.controller.join(server))

    @precondition(lambda self: len(self.controller.ring.servers) > 1)
    @rule(node=st.integers(0, 3))
    def drain(self, node):
        name = self.pick(self.controller.ring.servers, node)
        server = self.servers[name]
        self.remap(lambda: self.controller.drain(name))
        if server.alive:
            self.drained.append(server)

    # -- time and context ------------------------------------------------------------

    @rule(seconds=st.sampled_from((0.5, 1.0, 1.6, 2.1, 3.2, 4.5)))
    def advance(self, seconds):
        self.clock.t += seconds

    @rule(worker=st.sampled_from((None, 0, 1)))
    def switch_worker(self, worker):
        for client in self.clients.values():
            client.current_worker = worker

    @rule()
    def new_trigger_connection(self):
        self.clients["trigger"].reset_connection()

    # -- after every step ------------------------------------------------------------

    def all_servers(self) -> List[CacheServer]:
        return list(self.servers.values()) + self.gutter_servers

    @invariant()
    def sync_model(self):
        """Fold the step's evictions into the model and read each new
        version's CAS token off its node."""
        for name, server in self.servers.items():
            passes = server.store.passes
            for _held, evicted in passes[self.passes_seen.get(name, 0):]:
                for key in evicted:
                    entry = self.live.get(key)
                    if entry is None or self.owner(key) != name:
                        continue
                    # Evicted, unless the same call stored it again.
                    item = server.store.get(key, touch=False)
                    if item is None or item.value != entry.value:
                        del self.live[key]
            self.passes_seen[name] = len(passes)
        issued: Dict[str, List[int]] = {}
        for key, entry in self.live.items():
            if entry.token is not None:
                continue
            server = self.servers[self.owner(key)]
            item = server.store.get(key, touch=False)
            assert item is not None and item.value == entry.value, \
                f"{server.name} lost {key}={entry.value!r} without evicting it"
            entry.token = item.cas_id
            self.old_tokens.setdefault(key, item.cas_id)
            issued.setdefault(server.name, []).append(item.cas_id)
        for name, tokens in issued.items():
            assert len(set(tokens)) == len(tokens) and \
                min(tokens) > self.tokens_seen.get(name, 0), \
                f"{name} reused a CAS token"
            self.tokens_seen[name] = max(tokens)

    @invariant()
    def evictions_only_over_capacity(self):
        for server in self.all_servers():
            store = server.store
            assert all(held > store.capacity_bytes
                       for held, _evicted in store.passes)
            assert server.stats.evictions == sum(
                len(evicted) for _held, evicted in store.passes)
            assert store.used_bytes <= store.capacity_bytes
            assert store.used_bytes == sum(item.size for _k, item
                                           in store.items())

    @invariant()
    def every_read_is_a_hit_or_a_miss(self):
        for server in self.all_servers():
            stats = server.stats
            assert stats.hits + stats.misses == stats.gets, server.name
        total = self.recorder.total
        assert total.cache_hits + total.cache_misses == self.keys_read
        assert total.cache_hits == sum(s.stats.hits for s in self.all_servers())
        assert total.cache_misses == self.unasked_reads + sum(
            s.stats.misses for s in self.all_servers())

    @invariant()
    def the_recorder_agrees_with_the_servers(self):
        total, servers = self.recorder.total, self.all_servers()
        assert total.lease_contended == sum(s.stats.lease_contended
                                            for s in servers)
        assert total.cache_node_down == sum(s.stats.node_down_errors
                                            for s in servers)
        if self.gutter is not None:
            assert self.gutter.hits == sum(s.stats.hits
                                           for s in self.gutter_servers)


TestTierModel = TierModel.TestCase
TestTierModel.settings = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow],
    **({} if settings.get_current_profile_name() == "deep"
       else {"max_examples": 50, "stateful_step_count": 30}))


# -- the machine's shrunk counterexamples, pinned ------------------------------------

class Replay:
    """Run named rules on a fresh machine, checking every invariant after
    each step as the machine does."""

    INVARIANTS = ("sync_model", "evictions_only_over_capacity",
                  "every_read_is_a_hit_or_a_miss",
                  "the_recorder_agrees_with_the_servers")

    def __init__(self, nodes: int = 2, with_gutter: bool = False) -> None:
        self.state = TierModel()
        self.state.build(nodes=nodes, with_gutter=with_gutter)
        self.check()

    def check(self) -> None:
        for name in self.INVARIANTS:
            getattr(self.state, name)()

    def __getattr__(self, rule: str):
        def step(**kwargs: Any) -> None:
            getattr(self.state, rule)(**kwargs)
            self.check()
        return step

    def node(self, name: str) -> int:
        return self.state.controller.ring.servers.index(name)


def write_every_key(replay: Replay, kind: str = "small") -> None:
    replay.set(client="app", writes=[(key, kind) for key in KEYS],
               expire=None, single=False)


def read_every_key(replay: Replay) -> None:
    replay.read(client="app", keys=list(KEYS), cas=False, single=False)


def test_pinned_a_rejoined_node_enters_empty():
    """A drained node came back with the items it held when it left, and
    served them although every write since had gone to the survivors."""
    replay = Replay()
    write_every_key(replay)
    replay.drain(node=replay.node("cache0"))
    write_every_key(replay)
    replay.rejoin(node=0)
    read_every_key(replay)


def test_pinned_a_join_leaves_no_copy_behind():
    """A join handed keys to the newcomer but left their copies on the old
    node; draining the newcomer routed the keys back, and the old copies
    were served although writes had since gone to the newcomer."""
    replay = Replay()
    write_every_key(replay)
    replay.join()
    assert any(replay.state.owner(key) == "cache2" for key in KEYS)
    write_every_key(replay)
    replay.drain(node=replay.node("cache2"))
    read_every_key(replay)


def test_pinned_a_counter_keeps_its_expiry():
    """``incr`` re-stored a counter without its TTL, so it never expired."""
    replay = Replay()
    replay.set(client="app", writes=[("ka", "int")], expire=1.0, single=True)
    replay.counters(client="trigger", deltas={"ka": 1}, decr=False,
                    single=True)
    replay.advance(seconds=1.6)
    replay.read(client="app", keys=["ka"], cas=False, single=True)


def test_pinned_a_lease_window_keeps_its_winner():
    """A true-miss grant to another worker does not take the window from
    its winner: the client once counted the winner's re-read as contended
    while the server did not."""
    replay = Replay(nodes=2)
    replay.set(client="app", writes=[("ka", "small")], expire=None,
               single=True)
    replay.delete(client="trigger", keys=["ka"], leased=True, single=True)
    replay.switch_worker(worker=0)
    replay.lease(client="app", keys=["ka"], single=True)     # wins the window
    replay.advance(seconds=2.6)                              # stale copy gone
    replay.switch_worker(worker=1)
    replay.lease(client="app", keys=["ka"], single=True)     # true miss
    replay.set(client="app", writes=[("ka", "small")], expire=None,
               single=True)
    replay.delete(client="trigger", keys=["ka"], leased=True, single=True)
    replay.switch_worker(worker=0)
    replay.lease(client="app", keys=["ka"], single=True)     # its own window
    assert replay.state.recorder.total.lease_contended == 0
