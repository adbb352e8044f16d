"""Tests for the cluster controller's lifecycle verbs."""

import pytest

from repro.cluster import ClusterController, GutterPool
from repro.core.refresh import RefreshQueue
from repro.errors import CacheServerError
from repro.memcache import CacheClient, CacheServer


class MutableClock:
    def __init__(self, start: float = 0.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t


def make_cluster(names=("cache0", "cache1"), gutter=False, genie=None):
    clock = MutableClock()
    servers = [CacheServer(name, clock=clock) for name in names]
    client = CacheClient(servers)
    pool = GutterPool([CacheServer("gutter0", clock=clock)]) if gutter else None
    controller = ClusterController([client], servers, clock,
                                   gutter=pool, genie=genie)
    return controller, client, {s.name: s for s in servers}, clock


def keys_owned_by(controller, node, count, prefix="k"):
    """First ``count`` probe keys the live ring routes to ``node``."""
    out = []
    i = 0
    while len(out) < count:
        key = f"{prefix}{i}"
        if controller.ring.server_for(key) == node:
            out.append(key)
        i += 1
    return out


class TestConstruction:
    def test_requires_clients_and_servers(self):
        server = CacheServer("c0")
        with pytest.raises(CacheServerError):
            ClusterController([], [server], MutableClock())
        with pytest.raises(CacheServerError):
            ClusterController([CacheClient([server])], [], MutableClock())

    def test_rejects_duplicate_server_names(self):
        servers = [CacheServer("dup"), CacheServer("dup")]
        with pytest.raises(CacheServerError):
            ClusterController([CacheClient([servers[0]])], servers,
                              MutableClock())

    def test_clients_share_the_controllers_ring(self):
        controller, client, _servers, _clock = make_cluster()
        assert client.ring is controller.ring
        # A membership change through the controller re-routes the client.
        controller.join(CacheServer("cache2"))
        assert "cache2" in client.ring.servers

    def test_unknown_node_rejected(self):
        controller, _client, _servers, _clock = make_cluster()
        with pytest.raises(CacheServerError):
            controller.server("nope")


class TestJoin:
    def test_join_counts_warmup_debt(self):
        controller, client, _servers, _clock = make_cluster(names=("cache0",))
        for i in range(40):
            client.set(f"k{i}", i)
        event = controller.join(CacheServer("cache1"))
        assert event.action == "join"
        assert event.node == "cache1"
        # Consistent hashing: some but not most keys remap to the newcomer.
        assert 0 < controller.keys_remapped < 40
        assert event.details["keys_remapped"] == controller.keys_remapped
        # Every remapped key now routes to the (empty) joiner: a cold miss.
        remapped = [f"k{i}" for i in range(40)
                    if controller.ring.server_for(f"k{i}") == "cache1"]
        assert len(remapped) == controller.keys_remapped
        assert all(client.get(key) is None for key in remapped)

    def test_join_existing_node_rejected(self):
        controller, _client, _servers, _clock = make_cluster()
        with pytest.raises(CacheServerError):
            controller.join(CacheServer("cache0"))


class TestDrain:
    def test_drain_removes_from_ring_and_counts_cold_keys(self):
        controller, client, servers, _clock = make_cluster()
        for i in range(40):
            client.set(f"k{i}", i)
        held = servers["cache1"].item_count
        assert held > 0
        event = controller.drain("cache1")
        assert "cache1" not in controller.ring.servers
        assert event.details["keys_remapped"] == held
        # Nothing fails: reads simply go cold on the survivors.
        assert client.recorder.total.cache_node_down == 0

    def test_drain_last_member_rejected(self):
        controller, _client, _servers, _clock = make_cluster(names=("solo",))
        with pytest.raises(CacheServerError):
            controller.drain("solo")

    def test_drain_node_not_on_ring_rejected(self):
        controller, _client, _servers, _clock = make_cluster()
        controller.drain("cache1")
        with pytest.raises(CacheServerError):
            controller.drain("cache1")


class TestKillAndRevive:
    def test_kill_leaves_node_on_ring_but_dead(self):
        controller, client, servers, _clock = make_cluster()
        controller.kill("cache1")
        assert not servers["cache1"].alive
        assert "cache1" in controller.ring.servers
        assert controller.alive_nodes() == ["cache0"]
        key = keys_owned_by(controller, "cache1", 1)[0]
        assert client.get(key) is None
        assert client.recorder.total.cache_node_down == 1
        assert servers["cache1"].stats.node_down_errors == 1

    def test_kill_dead_node_rejected(self):
        controller, _client, _servers, _clock = make_cluster()
        controller.kill("cache1")
        with pytest.raises(CacheServerError):
            controller.kill("cache1")

    def test_revive_comes_back_empty_and_counts_the_loss(self):
        controller, client, servers, clock = make_cluster()
        for i in range(40):
            client.set(f"k{i}", i)
        held = servers["cache1"].item_count
        assert held > 0
        clock.t = 5.0
        controller.kill("cache1")
        clock.t = 9.0
        event = controller.revive("cache1")
        assert event.at == 9.0
        assert servers["cache1"].alive
        assert servers["cache1"].item_count == 0
        assert controller.post_revival_invalidations == held
        assert event.details["post_revival_invalidations"] == held

    def test_revive_live_node_rejected(self):
        controller, _client, _servers, _clock = make_cluster()
        with pytest.raises(CacheServerError):
            controller.revive("cache0")

    def test_kill_drops_orphaned_refresh_claims(self):
        class FakeGenie:
            def __init__(self):
                self.refresh_queue = RefreshQueue(clock=lambda: 0.0)

        genie = FakeGenie()
        controller, _client, _servers, _clock = make_cluster(genie=genie)
        victim_key = keys_owned_by(controller, "cache1", 1)[0]
        survivor_key = keys_owned_by(controller, "cache0", 1, prefix="s")[0]
        genie.refresh_queue.schedule(object(), victim_key, {})
        genie.refresh_queue.schedule(object(), survivor_key, {})
        event = controller.kill("cache1")
        assert controller.orphaned_claims_dropped == 1
        assert event.details["orphaned_claims_dropped"] == 1
        assert genie.refresh_queue.pending_keys() == [survivor_key]


class TestEventsAndCounters:
    def test_events_record_the_clock(self):
        controller, _client, _servers, clock = make_cluster()
        clock.t = 3.5
        controller.kill("cache1")
        clock.t = 7.0
        controller.revive("cache1")
        assert [(e.at, e.action, e.node) for e in controller.events] == [
            (3.5, "kill", "cache1"), (7.0, "revive", "cache1")]

    def test_counters_merge_gutter_counters(self):
        controller, client, _servers, _clock = make_cluster(gutter=True)
        controller.kill("cache1")
        key = keys_owned_by(controller, "cache1", 1)[0]
        client.set(key, "v")        # routed to the gutter
        assert client.get(key) == "v"
        counters = controller.counters()
        assert counters["gutter_hits"] == 1
        assert counters["gutter_sets"] == 1
        assert counters["keys_remapped"] == 0
        assert client.recorder.total.cache_hits == 1
