"""CacheClient against a dead node: fail-fast misses and gutter routing."""

import pytest

from repro.cluster import GutterPool
from repro.errors import NodeDownError
from repro.memcache import CacheClient, CacheServer
from repro.memcache.server import LEASE_ACQUIRED, LEASE_STALE
from repro.storage.costmodel import Recorder


class MutableClock:
    def __init__(self, start: float = 0.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def fleet():
    clock = MutableClock()
    servers = [CacheServer("cache0", clock=clock),
               CacheServer("cache1", clock=clock)]
    recorder = Recorder()
    client = CacheClient(servers, recorder=recorder)

    def key_on(node, prefix="k"):
        for i in range(10_000):
            key = f"{prefix}{i}"
            if client.ring.server_for(key) == node:
                return key
        raise AssertionError(f"no key routed to {node}")  # pragma: no cover

    return {"client": client, "recorder": recorder, "clock": clock,
            "servers": {s.name: s for s in servers}, "key_on": key_on}


def kill(fleet, name="cache1"):
    fleet["servers"][name].alive = False


class TestServerLiveness:
    def test_dead_server_refuses_operations(self, fleet):
        server = fleet["servers"]["cache1"]
        server.set("k", "v")
        server.alive = False
        with pytest.raises(NodeDownError):
            server.get("k")
        with pytest.raises(NodeDownError):
            server.set("k", "w")
        assert server.stats.node_down_errors == 2

    def test_flush_all_works_on_a_dead_server(self, fleet):
        # revive() flushes before flipping alive back on.
        server = fleet["servers"]["cache1"]
        server.set("k", "v")
        server.alive = False
        server.flush_all()
        server.alive = True
        assert server.get("k") is None

    def test_alive_appears_in_stats(self, fleet):
        server = fleet["servers"]["cache1"]
        assert server.stats_dict()["alive"] == 1.0
        server.alive = False
        assert server.stats_dict()["alive"] == 0.0


class TestFailFastWithoutGutter:
    def test_get_is_a_miss_and_counts_node_down(self, fleet):
        client, key_on = fleet["client"], fleet["key_on"]
        key = key_on("cache1")
        kill(fleet)
        assert client.get(key) is None
        assert fleet["servers"]["cache1"].stats.node_down_errors == 1
        assert fleet["recorder"].total.cache_misses == 1
        assert fleet["recorder"].total.cache_node_down == 1
        # Fail-fast is not a round trip: none charged.
        assert fleet["recorder"].total.cache_round_trips == 0

    def test_live_node_keys_are_unaffected(self, fleet):
        client, key_on = fleet["client"], fleet["key_on"]
        live_key = key_on("cache0")
        client.set(live_key, "v")
        kill(fleet)
        assert client.get(live_key) == "v"
        assert fleet["recorder"].total.cache_node_down == 0

    def test_gets_returns_no_token(self, fleet):
        client, key_on = fleet["client"], fleet["key_on"]
        key = key_on("cache1")
        kill(fleet)
        assert client.gets(key) == (None, None)

    def test_cas_fails_like_missing(self, fleet):
        client, key_on = fleet["client"], fleet["key_on"]
        key = key_on("cache1")
        client.set(key, "v")
        _value, token = client.gets(key)
        kill(fleet)
        assert client.cas(key, "w", token) is False
        # The tokens vanished with the node: no round trip, nothing swapped.
        assert fleet["recorder"].total.cache_node_down == 1
        assert fleet["recorder"].total.cache_multi_cas == 0
        assert fleet["servers"]["cache1"].stats.cas_ok == 0

    def test_set_and_delete_report_failure(self, fleet):
        client, key_on = fleet["client"], fleet["key_on"]
        key = key_on("cache1")
        kill(fleet)
        assert client.set(key, "v") is False
        assert client.delete(key) is False

    def test_counters_have_no_fallback(self, fleet):
        client, key_on = fleet["client"], fleet["key_on"]
        key = key_on("cache1")
        kill(fleet)
        assert client.incr(key) is None
        assert fleet["recorder"].total.cache_node_down == 1
        assert fleet["recorder"].total.cache_round_trips == 0

    def test_lease_degrades_to_blocking_recompute(self, fleet):
        client, key_on = fleet["client"], fleet["key_on"]
        key = key_on("cache1")
        kill(fleet)
        state, value, token = client.lease(key, 5.0)
        assert (state, value, token) == (LEASE_ACQUIRED, None, None)


class TestGutterRouting:
    @pytest.fixture
    def gutter(self, fleet):
        pool = GutterPool([CacheServer("gutter0", clock=fleet["clock"])],
                          ttl_seconds=2.0)
        fleet["client"].gutter = pool
        return pool

    def test_set_then_get_round_trips_through_the_gutter(self, fleet, gutter):
        client, key_on = fleet["client"], fleet["key_on"]
        key = key_on("cache1")
        kill(fleet)
        assert client.set(key, "v") is True
        assert client.get(key) == "v"
        assert gutter.hits == 1
        assert fleet["recorder"].total.cache_hits == 1
        # Gutter round trips are charged like primary ones.
        assert fleet["recorder"].total.cache_multi_gets == 1

    def test_gutter_miss_counts_both_ways(self, fleet, gutter):
        client, key_on = fleet["client"], fleet["key_on"]
        key = key_on("cache1")
        kill(fleet)
        assert client.get(key) is None
        assert gutter.misses == 1
        assert fleet["recorder"].total.cache_misses == 1

    def test_gutter_entries_expire_at_the_short_ttl(self, fleet, gutter):
        client, key_on, clock = fleet["client"], fleet["key_on"], fleet["clock"]
        key = key_on("cache1")
        kill(fleet)
        client.set(key, "v")
        clock.t = 2.5
        assert client.get(key) is None, \
            "gutter staleness must be bounded by the pool TTL"

    def test_delete_reaches_the_gutter_copy(self, fleet, gutter):
        # An invalidation targeting a dead primary must still kill any
        # gutter copy, else the stale value outlives its write.
        client, key_on = fleet["client"], fleet["key_on"]
        key = key_on("cache1")
        kill(fleet)
        client.set(key, "old")
        assert client.delete(key) is True
        assert client.get(key) is None

    def test_lease_serves_gutter_value_as_stale_without_token(self, fleet,
                                                              gutter):
        client, key_on = fleet["client"], fleet["key_on"]
        key = key_on("cache1")
        kill(fleet)
        client.set(key, "v")
        state, value, token = client.lease(key, 5.0)
        assert (state, value, token) == (LEASE_STALE, "v", None)
        assert gutter.hits == 1
        assert fleet["recorder"].total.cache_hits == 1

    def test_get_multi_merges_gutter_and_primary(self, fleet, gutter):
        client, key_on = fleet["client"], fleet["key_on"]
        dead_key = key_on("cache1")
        live_key = key_on("cache0")
        client.set(live_key, "live")
        kill(fleet)
        client.set(dead_key, "guttered")
        assert client.get_multi([live_key, dead_key]) == {
            live_key: "live", dead_key: "guttered"}

    def test_counters_still_have_no_gutter_protocol(self, fleet, gutter):
        client, key_on = fleet["client"], fleet["key_on"]
        key = key_on("cache1")
        kill(fleet)
        assert client.incr(key) is None
        assert gutter.counters()["gutter_sets"] == 0
