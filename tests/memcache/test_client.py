"""Tests for the multi-server cache client."""

import pytest

from repro.errors import CacheServerError
from repro.memcache import CacheClient, CacheServer
from repro.storage import Recorder


def make_client(servers=2, from_trigger=False, reuse=False, recorder=None):
    backing = [CacheServer(f"s{i}", capacity_bytes=1024 * 1024) for i in range(servers)]
    client = CacheClient(backing, recorder=recorder or Recorder(),
                         from_trigger=from_trigger, reuse_connections=reuse)
    return client, backing


class TestRouting:
    def test_requires_servers(self):
        with pytest.raises(CacheServerError):
            CacheClient([])

    def test_duplicate_server_names_rejected(self):
        servers = [CacheServer("same"), CacheServer("same")]
        with pytest.raises(CacheServerError):
            CacheClient(servers)

    def test_round_trip_across_servers(self):
        client, backing = make_client(3)
        for i in range(60):
            client.set(f"key:{i}", i)
        for i in range(60):
            assert client.get(f"key:{i}") == i
        # Keys actually spread over multiple servers.
        assert sum(1 for s in backing if s.item_count > 0) >= 2


class TestOperations:
    def test_get_multi_returns_only_hits(self):
        client, _ = make_client()
        client.set("a", 1)
        client.set("b", 2)
        assert client.get_multi(["a", "b", "c"]) == {"a": 1, "b": 2}

    def test_gets_cas_through_client(self):
        client, _ = make_client()
        client.set("k", [1])
        value, token = client.gets("k")
        assert client.cas("k", value + [2], token) is True
        assert client.get("k") == [1, 2]
        assert client.cas("k", [9], token) is False

    def test_add_incr_decr_delete(self):
        client, _ = make_client()
        assert client.add("n", 5) is True
        assert client.add("n", 9) is False
        assert client.incr("n", 2) == 7
        assert client.decr("n", 3) == 4
        assert client.delete("n") is True

    def test_flush_all(self):
        client, _ = make_client()
        client.set("a", 1)
        client.flush_all()
        assert client.get("a") is None


class TestCostAccounting:
    def test_application_ops_recorded(self):
        recorder = Recorder()
        client, _ = make_client(recorder=recorder)
        with recorder.measure() as counters:
            client.set("a", 1)
            client.get("a")
            client.get("missing")
            client.delete("a")
        assert counters.cache_sets == 1
        assert counters.cache_gets == 2
        assert counters.cache_hits == 1
        assert counters.cache_misses == 1
        assert counters.cache_deletes == 1
        assert counters.trigger_cache_ops == 0

    def test_trigger_ops_recorded_with_connection(self):
        recorder = Recorder()
        client, _ = make_client(from_trigger=True, recorder=recorder)
        with recorder.measure() as counters:
            client.reset_connection()
            client.get("k")
            client.set("k", 1)
        assert counters.trigger_connections == 1
        assert counters.trigger_cache_ops == 2

    def test_connection_reopened_per_trigger_without_reuse(self):
        recorder = Recorder()
        client, _ = make_client(from_trigger=True, recorder=recorder)
        with recorder.measure() as counters:
            for _ in range(3):
                client.reset_connection()   # a new trigger invocation
                client.get("k")
        assert counters.trigger_connections == 3

    def test_connection_reuse_optimization(self):
        recorder = Recorder()
        client, _ = make_client(from_trigger=True, reuse=True, recorder=recorder)
        with recorder.measure() as counters:
            for _ in range(3):
                client.reset_connection()
                client.get("k")
        assert counters.trigger_connections == 1
