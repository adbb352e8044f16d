"""Tests for the lease protocol and bulk counter ops on server and client."""

import pytest

from repro.memcache import CacheClient, CacheServer
from repro.memcache.server import (LEASE_ACQUIRED, LEASE_CONTENDED, LEASE_HIT,
                                   LEASE_STALE)
from repro.storage.costmodel import Recorder


@pytest.fixture
def clocked_server():
    now = [0.0]
    server = CacheServer("lease-srv", capacity_bytes=1024 * 1024,
                         clock=lambda: now[0])
    return server, now


class TestServerLease:
    def test_live_entry_is_a_hit(self, clocked_server):
        server, _now = clocked_server
        server.set("k", "v")
        assert server.lease("k", 5.0) == (LEASE_HIT, "v", None)

    def test_lease_delete_retains_stale_value(self, clocked_server):
        server, now = clocked_server
        server.set("k", "v1")
        assert server.lease_delete("k", stale_seconds=3.0) is True
        assert server.get("k") is None               # no longer a live hit
        state, value, token = server.lease("k", 5.0)
        assert (state, value) == (LEASE_ACQUIRED, "v1")
        assert token is not None
        # A second reader inside the window: stale serve, no token.
        state, value, token = server.lease("k", 5.0)
        assert (state, value, token) == (LEASE_STALE, "v1", None)

    def test_stale_retention_expires(self, clocked_server):
        server, now = clocked_server
        server.set("k", "v1")
        server.lease_delete("k", stale_seconds=3.0)
        now[0] = 4.0
        state, value, token = server.lease("k", 5.0)
        assert (state, value) == (LEASE_ACQUIRED, None)   # hard miss
        assert token is not None

    def test_token_rate_limited_per_key(self, clocked_server):
        server, now = clocked_server
        server.set("k", "v1")
        server.lease_delete("k", stale_seconds=30.0)
        assert server.lease("k", 10.0)[0] == LEASE_ACQUIRED
        now[0] = 5.0
        assert server.lease("k", 10.0)[0] == LEASE_STALE   # inside the window
        now[0] = 11.0
        assert server.lease("k", 10.0)[0] == LEASE_ACQUIRED  # window passed

    def test_fresh_set_supersedes_stale(self, clocked_server):
        server, _now = clocked_server
        server.set("k", "v1")
        server.lease_delete("k", stale_seconds=30.0)
        server.set("k", "v2")
        assert server.lease("k", 5.0) == (LEASE_HIT, "v2", None)

    def test_hard_delete_kills_stale_value(self, clocked_server):
        server, _now = clocked_server
        server.set("k", "v1")
        server.lease_delete("k", stale_seconds=30.0)
        assert server.delete("k") is True
        assert server.lease("k", 5.0)[1] is None

    def test_repeated_lease_delete_extends_retention(self, clocked_server):
        server, now = clocked_server
        server.set("k", "v1")
        server.lease_delete("k", stale_seconds=3.0)
        now[0] = 2.0
        assert server.lease_delete("k", stale_seconds=3.0) is True
        now[0] = 4.0   # past the first window, inside the extended one
        assert server.lease("k", 100.0)[1] == "v1"

    def test_delete_of_expired_stale_retention_reports_missing(self, clocked_server):
        """delete() must agree with the lease read path: an expired stale
        retention is already gone and does not count as 'existed'."""
        server, now = clocked_server
        server.set("k", "v1")
        server.lease_delete("k", stale_seconds=3.0)
        now[0] = 4.0
        assert server.delete("k") is False

    def test_spent_rate_limit_records_are_swept(self, clocked_server):
        """The grant -> refresh-set -> hit path must not leak one rate-limit
        record per key forever: the sweep prunes records whose window passed
        even when the key's stale retention is long gone."""
        server, now = clocked_server
        server._STALE_SWEEP_THRESHOLD = 4
        for i in range(6):
            key = f"k{i}"
            server.set(key, "v")
            server.lease_delete(key, stale_seconds=1.0)
            assert server.lease(key, 1.0)[0] == LEASE_ACQUIRED  # records grant
            server.set(key, "v2")                # the refresh lands: hits now
            assert server.lease(key, 1.0)[0] == LEASE_HIT
        now[0] = 10.0                            # every rate-limit window over
        server.set("fresh", 1)
        server.lease_delete("fresh", stale_seconds=1.0)  # triggers the sweep
        assert len(server._lease_issued_at) == 0

    def test_expired_stale_entries_are_swept(self, clocked_server):
        server, now = clocked_server
        server._STALE_SWEEP_THRESHOLD = 4     # shrink the amortization bound
        for i in range(6):
            server.set(f"k{i}", i)
            server.lease_delete(f"k{i}", stale_seconds=1.0)
        now[0] = 10.0                          # everything retained has expired
        server.set("fresh", 1)
        server.lease_delete("fresh", stale_seconds=1.0)  # triggers the sweep
        assert len(server._stale) == 1         # only the fresh retention left

    def test_flush_all_clears_stale_buffer(self, clocked_server):
        server, _now = clocked_server
        server.set("k", "v1")
        server.lease_delete("k", stale_seconds=30.0)
        server.flush_all()
        assert server.lease("k", 5.0)[1] is None

    def test_lease_stats(self, clocked_server):
        server, _now = clocked_server
        server.set("k", "v1")
        server.lease_delete("k", stale_seconds=30.0)
        server.lease("k", 10.0)      # acquired (stale value)
        server.lease("k", 10.0)      # stale serve
        assert server.stats.lease_deletes == 1
        assert server.stats.leases_granted == 1
        assert server.stats.stale_hits == 2

    def test_lease_multi_mixed_states(self, clocked_server):
        server, _now = clocked_server
        server.set("live", "a")
        server.set("gone", "b")
        server.lease_delete("gone", stale_seconds=30.0)
        out = server.lease_multi(["live", "gone", "absent"], 5.0)
        assert out["live"][0] == LEASE_HIT
        assert out["gone"][0] == LEASE_ACQUIRED and out["gone"][1] == "b"
        assert out["absent"] == (LEASE_ACQUIRED, None, out["absent"][2])


class TestServerCounterMulti:
    def test_incr_multi_mixed_signs(self):
        server = CacheServer("ctr")
        server.set("a", 5)
        server.set("b", 1)
        out = server.incr_multi({"a": 2, "b": -3, "missing": 1})
        assert out == {"a": 7, "b": 0, "missing": None}  # decr floors at zero
        assert server.get("a") == 7 and server.get("b") == 0

    def test_decr_multi_negates(self):
        server = CacheServer("ctr")
        server.set("a", 5)
        assert server.decr_multi({"a": 2}) == {"a": 3}


class TestClientLeaseAccounting:
    def _stack(self, servers=2):
        recorder = Recorder()
        now = [0.0]
        cache_servers = [CacheServer(f"s{i}", clock=lambda: now[0])
                         for i in range(servers)]
        client = CacheClient(cache_servers, recorder=recorder)
        return client, recorder, now

    def test_lease_charges_one_round_trip(self):
        client, recorder, _now = self._stack()
        client.set("k", "v")
        state, value, _ = client.lease("k", 5.0)
        assert (state, value) == (LEASE_HIT, "v")
        assert recorder.total.cache_leases == 1
        assert recorder.total.cache_hits == 1

    def test_lease_multi_batches_per_server(self):
        client, recorder, _now = self._stack(servers=2)
        keys = [f"k{i}" for i in range(8)]
        for key in keys:
            client.set(key, key)
        out = client.lease_multi(keys, 5.0)
        assert all(out[k][0] == LEASE_HIT for k in keys)
        # One round trip per server batch, not per key.
        assert recorder.total.cache_multi_leases == 2
        assert recorder.total.cache_round_trips < len(keys) + 8 + 2

    def test_lease_delete_multi_counts_as_delete_batches(self):
        client, recorder, _now = self._stack(servers=2)
        keys = [f"k{i}" for i in range(6)]
        for key in keys:
            client.set(key, 1)
        existed = client.lease_delete_multi(keys, 3.0)
        assert sorted(existed) == sorted(keys)
        assert recorder.total.cache_multi_deletes == 2
        assert sum(s.stats.lease_deletes for s in client.servers) == 6
        # The retained values serve as stale through the same client.
        assert client.lease(keys[0], 5.0)[1] == 1

    def test_incr_multi_batches_and_stats(self):
        client, recorder, _now = self._stack(servers=2)
        keys = [f"c{i}" for i in range(6)]
        for key in keys:
            client.set(key, 10)
        deltas = {key: (1 if i % 2 == 0 else -1) for i, key in enumerate(keys)}
        deltas["absent"] = 1
        out = client.incr_multi(deltas)
        assert out["absent"] is None
        assert all(out[k] in (9, 11) for k in keys)
        assert recorder.total.cache_multi_counters == 2
        assert sum(s.stats.incr_ok + s.stats.decr_ok
                   for s in client.servers) == 6
        assert sum(s.stats.incr_miss for s in client.servers) == 1

    def test_empty_batches_are_free(self):
        client, recorder, _now = self._stack()
        assert client.lease_multi([], 5.0) == {}
        assert client.incr_multi({}) == {}
        assert client.lease_delete_multi([], 5.0) == []
        assert recorder.total.cache_round_trips == 0


class TestLeaseContention:
    def test_server_counts_contended_claimants(self, clocked_server):
        server, _now = clocked_server
        server.set("k", "v")
        server.lease_delete("k", stale_seconds=30.0)
        state, value, token = server.lease("k", 5.0, claimant=0)
        assert state == LEASE_ACQUIRED and value == "v" and token is not None
        assert server.stats.lease_contended == 0
        assert server.stats.herd_size_max == 1
        # A different claimant in the same window: contended, herd grows.
        assert server.lease("k", 5.0, claimant=1)[0] == LEASE_CONTENDED
        assert server.stats.lease_contended == 1
        assert server.stats.herd_size_max == 2
        # The winner re-reading its own window is the rate limit working,
        # not contention; the herd counts *distinct* claimants.
        assert server.lease("k", 5.0, claimant=0)[0] == LEASE_STALE
        assert server.stats.lease_contended == 1
        assert server.stats.herd_size_max == 2
        assert server.lease("k", 5.0, claimant=2)[0] == LEASE_CONTENDED
        assert server.stats.herd_size_max == 3

    def test_serial_claimant_never_contends(self, clocked_server):
        server, _now = clocked_server
        server.set("k", "v")
        server.lease_delete("k", stale_seconds=30.0)
        for _ in range(4):
            server.lease("k", 5.0)  # claimant defaults to None (serial)
        assert server.stats.lease_contended == 0
        assert server.stats.herd_size_max == 1

    def test_client_records_the_servers_contention_verdict(self):
        server = CacheServer("contend-srv")
        recorder = Recorder()
        client = CacheClient([server], recorder=recorder)
        client.set("k", "v")
        client.lease_delete("k", 30.0)
        client.current_worker = 0
        state, _value, token = client.lease("k", 1000.0)
        assert state == LEASE_ACQUIRED and token is not None
        # The client's callers see three states: a contended read is stale.
        client.current_worker = 1
        assert client.lease("k", 1000.0) == (LEASE_STALE, "v", None)
        assert recorder.total.lease_contended == 1
        assert server.stats.lease_contended == 1
        client.current_worker = 0
        assert client.lease_multi(["k"], 1000.0)["k"] == (LEASE_STALE, "v", None)
        assert recorder.total.lease_contended == 1  # own window: not contended
        assert server.stats.lease_contended == 1

    def test_own_window_reread_after_a_foreign_true_miss_is_not_contended(self):
        """A true-miss grant opens no window, so it does not change the
        window's winner: the winner re-reading its own window later is the
        rate limit working, however many other workers were granted a
        true miss in between.  (A client that kept its own copy of the
        winner overwrote it on the true miss and counted this read as
        contended while the server did not.)"""
        now = [0.0]
        server = CacheServer("contend-srv", clock=lambda: now[0])
        recorder = Recorder()
        client = CacheClient([server], recorder=recorder)
        client.set("k", "v1")
        client.lease_delete("k", 1.0)
        client.current_worker = "W"
        assert client.lease("k", 100.0)[0] == LEASE_ACQUIRED  # W's window
        now[0] = 2.0                                  # the stale copy expires
        client.current_worker = "R"
        assert client.lease("k", 100.0)[:2] == (LEASE_ACQUIRED, None)
        client.set("k", "v2")                         # R's recompute lands
        client.lease_delete("k", 1.0)                 # and is invalidated
        client.current_worker = "W"
        assert client.lease("k", 100.0) == (LEASE_STALE, "v2", None)
        assert server.stats.lease_contended == 0
        assert recorder.total.lease_contended == 0

    def test_stats_aggregate_herd_by_max(self):
        from repro.memcache.stats import CacheStats
        a = CacheStats()
        a.herd_size_max = 3
        a.hits = 1
        b = CacheStats()
        b.herd_size_max = 2
        b.hits = 5
        a.add(b)
        assert a.herd_size_max == 3
        assert a.hits == 6
