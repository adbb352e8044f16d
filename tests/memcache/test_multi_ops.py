"""Batched multi-key protocol: grouping, round-trip accounting, stat fixes."""

from __future__ import annotations

import pytest

from repro.errors import CacheKeyError
from repro.memcache import CacheClient, CacheServer, hashring
from repro.memcache.item import sizeof_value
from repro.memcache.stats import CacheStats
from repro.obs import hooks
from repro.storage.costmodel import Recorder


def make_client(server_count=2, recorder=None, **kwargs):
    servers = [CacheServer(f"s{i}") for i in range(server_count)]
    return CacheClient(servers, recorder=recorder or Recorder(), **kwargs), servers


def fleet_stats(servers):
    """The servers' ``stats`` summed: what the fleet counted per key."""
    total = CacheStats()
    for server in servers:
        total.add(server.stats)
    return total


class TestServerMultiOps:
    def test_get_multi_returns_hits_and_counts_per_key(self):
        server = CacheServer("m0")
        server.set("a", 1)
        server.set("b", 2)
        assert server.get_multi(["a", "b", "c"]) == {"a": 1, "b": 2}
        assert server.stats.gets == 3
        assert server.stats.hits == 2
        assert server.stats.misses == 1

    def test_set_multi_stores_everything(self):
        server = CacheServer("m0")
        assert server.set_multi({"a": 1, "b": 2}) == []
        assert server.get("a") == 1
        assert server.get("b") == 2
        assert server.stats.sets == 2

    def test_set_multi_reports_oversized_keys(self):
        server = CacheServer("m0", max_item_bytes=256)
        failed = server.set_multi({"small": 1, "big": "x" * 1024})
        assert failed == ["big"]
        assert server.get("small") == 1

    def test_delete_multi_returns_existing_keys(self):
        server = CacheServer("m0")
        server.set("a", 1)
        assert server.delete_multi(["a", "missing"]) == ["a"]
        assert server.get("a") is None

    def test_multi_ops_validate_keys(self):
        server = CacheServer("m0")
        with pytest.raises(CacheKeyError):
            server.get_multi(["ok", "has space"])
        with pytest.raises(CacheKeyError):
            server.set_multi({"": 1})
        with pytest.raises(CacheKeyError):
            server.delete_multi(["bad\nkey"])


class TestDecrAccountingFixes:
    def test_server_decr_validates_key(self):
        server = CacheServer("m0")
        with pytest.raises(CacheKeyError):
            server.decr("has space")

    def test_server_decr_uses_decr_counters(self):
        server = CacheServer("m0")
        server.set("n", 10)
        assert server.decr("n", 3) == 7
        assert server.decr("missing") is None
        server.set("text", "not-an-int")
        assert server.decr("text") is None
        assert server.stats.decr_ok == 1
        assert server.stats.decr_miss == 2
        # decr outcomes must no longer pollute the incr counters.
        assert server.stats.incr_ok == 0
        assert server.stats.incr_miss == 0

    def test_client_decr_mirrors_incr_accounting(self):
        client, servers = make_client(1)
        client.set("n", 10)
        assert client.decr("n", 4) == 6
        assert client.decr("missing") is None
        assert servers[0].stats.decr_ok == 1
        assert servers[0].stats.decr_miss == 1
        assert servers[0].stats.incr_ok == servers[0].stats.incr_miss == 0


class TestWriteAccountingFixes:
    def test_client_add_charges_bytes_moved(self):
        recorder = Recorder()
        client, _ = make_client(1, recorder=recorder)
        client.add("k", "payload")
        assert recorder.total.cache_bytes_moved > 0

    @pytest.mark.parametrize("from_trigger", [False, True])
    def test_client_add_is_charged_as_a_store_of_one_key(self, from_trigger):
        """``add`` costs what a ``set`` of the same key costs, app or
        trigger side, but announces no ``cache:<op>`` pause."""
        totals, labels = [], []
        for call in (lambda c: c.add("k", "payload"),
                     lambda c: c.set("k", "payload")):
            client, _ = make_client(1, from_trigger=from_trigger)
            with hooks.subscribed(hooks.OnPause(labels.append)):
                assert call(client)
            totals.append(client.recorder.total.as_dict())
        assert totals[0] == totals[1]
        assert totals[0]["cache_multi_sets" if not from_trigger
                         else "trigger_cache_batch_ops"] == 1
        assert labels == ["cache:set_multi"]

    def test_server_cas_success_counts_as_set(self):
        server = CacheServer("m0")
        server.set("k", "v1")
        assert server.stats.sets == 1
        _value, token = server.gets("k")
        assert server.cas("k", "v2", token)
        assert server.stats.sets == 2
        # A failed CAS stores nothing and must not count.
        assert not server.cas("k", "v3", token)
        assert server.stats.sets == 2


class TestHashRingGrouping:
    def test_virtual_node_collision_nudges_to_free_point(self, monkeypatch):
        monkeypatch.setattr(hashring, "_hash", lambda value: 100)
        ring = hashring.HashRing(["a", "b"], replicas=2)
        # Every virtual node hashes to 100; the nudge walks to the next free
        # points instead of silently overwriting earlier nodes.
        assert ring._ring == {100: "a", 101: "a", 102: "b", 103: "b"}
        assert ring._sorted_points == [100, 101, 102, 103]
        # All keys hash to 100 too; bisect_right lands on point 101 -> "a".
        assert ring.server_for("any-key") == "a"

    def test_group_by_server_matches_ring_assignment(self):
        client, servers = make_client(3)
        keys = [f"k:{i}" for i in range(60)]
        batches = client.ring.partition(keys)
        assert sum(len(batch) for batch in batches.values()) == 60
        assert len(batches) > 1  # 60 keys spread over several servers
        for server_name, batch in batches.items():
            for key in batch:
                assert client.ring.server_for(key) == server_name

    def test_group_by_server_drops_duplicates_preserving_order(self):
        client, _ = make_client(1)
        batches = client.ring.partition(["a", "b", "a", "c", "b"])
        assert list(batches.values())[0] == ["a", "b", "c"]


class TestClientMultiOpAccounting:
    def test_get_multi_charges_one_round_trip_per_server_batch(self):
        recorder = Recorder()
        client, servers = make_client(2, recorder=recorder)
        keys = [f"key:{i}" for i in range(20)]
        for key in keys[:10]:
            client.set(key, "v")
        before = recorder.total.copy()
        found = client.get_multi(keys)
        assert set(found) == set(keys[:10])
        batches = len(client.ring.partition(keys))
        assert 1 <= batches <= 2
        assert recorder.total.cache_multi_gets - before.cache_multi_gets == batches
        # One round trip per server batch, not one per key...
        assert (recorder.total.cache_round_trips
                - before.cache_round_trips) == batches
        # ...but hit/miss outcomes still count per key.
        assert recorder.total.cache_hits - before.cache_hits == 10
        assert recorder.total.cache_misses - before.cache_misses == 10
        assert fleet_stats(servers).hits == 10
        assert fleet_stats(servers).misses == 10

    def test_set_and_delete_multi_round_trip_accounting(self):
        recorder = Recorder()
        client, servers = make_client(2, recorder=recorder)
        mapping = {f"key:{i}": i for i in range(12)}
        batches = len(client.ring.partition(list(mapping)))
        assert client.set_multi(mapping) == []
        assert recorder.total.cache_multi_sets == batches
        assert recorder.total.cache_round_trips == batches
        assert recorder.total.cache_bytes_moved > 0
        assert fleet_stats(servers).sets == 12
        deleted = client.delete_multi(list(mapping))
        assert sorted(deleted) == sorted(mapping)
        assert recorder.total.cache_multi_deletes == batches
        assert recorder.total.cache_round_trips == 2 * batches

    def test_set_multi_failed_keys_excluded_from_set_accounting(self):
        recorder = Recorder()
        servers = [CacheServer("s0", max_item_bytes=256)]
        client = CacheClient(servers, recorder=recorder)
        failed = client.set_multi({"small": 1, "big": "x" * 1024})
        assert failed == ["big"]
        # Parity with single-op set(): the refused store counts nothing.
        assert servers[0].stats.sets == 1
        assert recorder.total.cache_bytes_moved == sizeof_value(1)

    def test_empty_multi_ops_charge_nothing(self):
        recorder = Recorder()
        client, _ = make_client(2, recorder=recorder)
        assert client.get_multi([]) == {}
        assert client.set_multi({}) == []
        assert client.delete_multi([]) == []
        assert recorder.total.cache_multi_gets == 0
        assert recorder.total.cache_multi_sets == 0
        assert recorder.total.cache_multi_deletes == 0

    def test_trigger_context_batches_and_single_connection(self):
        recorder = Recorder()
        client, _ = make_client(2, recorder=recorder, from_trigger=True)
        keys = [f"key:{i}" for i in range(8)]
        client.reset_connection()
        client.get_multi(keys)
        client.set_multi({k: 1 for k in keys})
        total = recorder.total
        # Every batch charges the trigger-side batch event, never the
        # application-side multi counters.
        assert total.trigger_cache_batches >= 2
        assert total.cache_multi_gets == 0
        assert total.cache_multi_sets == 0
        # Per-key marshalling is still accounted (16 keys overall).
        assert total.trigger_cache_batch_ops == 16
        # However many batches flowed, the flush opened one connection.
        assert total.trigger_connections == 1

    def test_multi_get_round_trips_beat_single_gets(self):
        """The headline ≥2x claim at the client level: n keys, few batches."""
        recorder = Recorder()
        client, _ = make_client(2, recorder=recorder)
        keys = [f"key:{i}" for i in range(30)]
        client.set_multi({k: "v" for k in keys})
        before = recorder.total.copy()
        client.get_multi(keys)
        multi_trips = recorder.total.cache_round_trips - before.cache_round_trips
        single_trips = len(keys)  # what a per-key loop would have charged
        assert multi_trips * 2 <= single_trips


class TestServerCasMulti:
    def test_gets_multi_returns_values_with_tokens(self):
        server = CacheServer("m0")
        server.set("a", 1)
        server.set("b", 2)
        out = server.gets_multi(["a", "b", "c"])
        assert set(out) == {"a", "b"}
        assert out["a"][0] == 1 and out["b"][0] == 2
        # Tokens are live: a cas with them succeeds.
        assert server.cas("a", 10, out["a"][1])
        assert server.stats.gets == 3
        assert server.stats.hits == 2
        assert server.stats.misses == 1

    def test_cas_multi_per_key_verdicts(self):
        from repro.memcache import CAS_MISMATCH, CAS_MISSING, CAS_STORED
        server = CacheServer("m0")
        server.set("fresh", 1)
        server.set("stale", 1)
        tokens = server.gets_multi(["fresh", "stale"])
        server.set("stale", 2)  # bumps the CAS id behind the reader's back
        verdicts = server.cas_multi({
            "fresh": (10, tokens["fresh"][1]),
            "stale": (20, tokens["stale"][1]),
            "gone": (30, 12345),
        })
        assert verdicts == {"fresh": CAS_STORED, "stale": CAS_MISMATCH,
                            "gone": CAS_MISSING}
        # One stale token did not poison the batch: the winner stored.
        assert server.get("fresh") == 10
        assert server.get("stale") == 2
        assert server.stats.cas_ok == 1
        assert server.stats.cas_mismatch == 1
        assert server.stats.cas_miss == 1

    def test_cas_multi_oversized_value_fails_only_its_key(self):
        from repro.memcache import CAS_STORED, CAS_TOO_LARGE
        server = CacheServer("m0", max_item_bytes=256)
        server.set("small", 1)
        server.set("big", 1)
        tokens = server.gets_multi(["small", "big"])
        verdicts = server.cas_multi({
            "small": (2, tokens["small"][1]),
            "big": ("x" * 1024, tokens["big"][1]),
        })
        assert verdicts["small"] == CAS_STORED
        # Distinct from a mismatch: a retry can never store this value.
        assert verdicts["big"] == CAS_TOO_LARGE
        assert server.get("small") == 2
        assert server.get("big") == 1
        # The refused store counted neither a win nor a set.
        assert server.stats.cas_ok == 1


class TestClientCasAccounting:
    def test_single_cas_charges_cache_cas_not_cache_sets(self):
        """A single ``cas`` is a CAS batch of one: ``cache_multi_cas``."""
        recorder = Recorder()
        client, servers = make_client(1, recorder=recorder)
        client.set("k", "v1")
        sets_before = recorder.total.cache_multi_sets
        _value, token = client.gets("k")
        assert client.cas("k", "v2", token)
        # A losing CAS is a round trip too — and still not a set.
        assert not client.cas("k", "v3", token)
        assert recorder.total.cache_multi_cas == 2
        assert recorder.total.cache_multi_sets == sets_before
        assert servers[0].stats.cas_ok == 1
        assert servers[0].stats.cas_mismatch == 1
        assert recorder.total.cas_multi_mismatch == 1

    def test_single_cas_on_a_vanished_key_counts_a_miss(self):
        client, servers = make_client(1)
        client.set("stale", 1)
        client.set("gone", 1)
        _value, stale_token = client.gets("stale")
        _value, gone_token = client.gets("gone")
        client.set("stale", 2)
        client.delete("gone")
        assert not client.cas("stale", 3, stale_token)
        assert not client.cas("gone", 3, gone_token)
        # One of each, as cas_multi counts them.
        assert (servers[0].stats.cas_miss, servers[0].stats.cas_mismatch) == (1, 1)

    def test_single_cas_mismatch_reaches_telemetry(self):
        class Telemetry:
            def __init__(self):
                self.mismatched = []

            def note_cas_mismatch(self, key):
                self.mismatched.append(key)

        client, _ = make_client(1)
        client.telemetry = Telemetry()
        client.set("k", 1)
        _value, token = client.gets("k")
        client.set("k", 2)
        assert not client.cas("k", 3, token)
        assert client.telemetry.mismatched == ["k"]

    def test_cas_multi_round_trip_and_mismatch_accounting(self):
        from repro.memcache import CAS_MISMATCH, CAS_STORED
        recorder = Recorder()
        client, servers = make_client(2, recorder=recorder)
        keys = [f"key:{i}" for i in range(8)]
        client.set_multi({k: 0 for k in keys})
        tokens = client.gets_multi(keys)
        client.set(keys[3], 99)  # invalidate one token behind the reader
        before = recorder.total.copy()
        verdicts = client.cas_multi({k: (1, tokens[k][1]) for k in keys})
        batches = len(client.ring.partition(keys))
        assert recorder.total.cache_multi_cas - before.cache_multi_cas \
            + recorder.total.cache_overlapped_batches \
            - before.cache_overlapped_batches == batches
        assert recorder.total.cache_multi_sets == before.cache_multi_sets
        assert verdicts[keys[3]] == CAS_MISMATCH
        assert all(verdicts[k] == CAS_STORED for k in keys if k != keys[3])
        assert recorder.total.cas_multi_mismatch - before.cas_multi_mismatch == 1
        assert fleet_stats(servers).cas_ok == 7
        assert fleet_stats(servers).cas_mismatch == 1

    def test_partial_failure_retries_only_losers_without_double_charging(self):
        """Satellite acceptance: per-key verdicts, loser-only retry, and no
        second cache_bytes_moved charge for the keys that already won."""
        from repro.memcache import CAS_MISMATCH, CAS_STORED
        recorder = Recorder()
        client, _ = make_client(1, recorder=recorder)
        client.set("w", 0)
        client.set("l", 0)
        tokens = client.gets_multi(["w", "l"])
        client.set("l", 5)  # contending writer: "l" will lose round one
        winner_value, loser_value = "winner-payload", "loser-payload"
        before = recorder.total.copy()
        verdicts = client.cas_multi({"w": (winner_value, tokens["w"][1]),
                                     "l": (loser_value, tokens["l"][1])})
        assert verdicts == {"w": CAS_STORED, "l": CAS_MISMATCH}
        first_bytes = recorder.total.cache_bytes_moved - before.cache_bytes_moved
        assert first_bytes == sizeof_value(winner_value) + sizeof_value(loser_value)
        # Retry exactly the loser with a fresh token.
        retry_tokens = client.gets_multi(["l"])
        mid = recorder.total.copy()
        verdicts = client.cas_multi({"l": (loser_value, retry_tokens["l"][1])})
        assert verdicts == {"l": CAS_STORED}
        retry_bytes = recorder.total.cache_bytes_moved - mid.cache_bytes_moved
        # Only the loser's payload travelled again (plus nothing for "w").
        assert retry_bytes == sizeof_value(loser_value)
        assert client.get("w") == winner_value
        assert client.get("l") == loser_value

    def test_empty_cas_multi_charges_nothing(self):
        recorder = Recorder()
        client, _ = make_client(2, recorder=recorder)
        assert client.cas_multi({}) == {}
        assert recorder.total.cache_multi_cas == 0


class TestPipelinedBatches:
    def _spread_keys(self, client, count=40):
        """Keys guaranteed to span both servers of the two-server ring."""
        keys = [f"key:{i}" for i in range(count)]
        assert len(client.ring.partition(keys)) == 2
        return keys

    def test_overlapped_batches_charged_latency_free(self):
        from repro.storage.costmodel import CostModel
        serial_rec, piped_rec = Recorder(), Recorder()
        serial, _ = make_client(2, recorder=serial_rec)
        piped, _ = make_client(2, recorder=piped_rec, pipeline_batches=True)
        keys = self._spread_keys(serial)
        serial.get_multi(keys)
        piped.get_multi(keys)
        model = CostModel()
        # Same wire round trips either way...
        assert (serial_rec.total.cache_round_trips
                == piped_rec.total.cache_round_trips == 2)
        # ...but the pipelined call charges max() not sum() of batch latency.
        assert piped_rec.total.cache_overlapped_batches == 1
        assert piped_rec.total.cache_multi_gets == 1
        serial_net = model.demand(serial_rec.total).cache_net_ms
        piped_net = model.demand(piped_rec.total).cache_net_ms
        assert piped_net == serial_net - model.cache_op_net_ms

    def test_trigger_context_overlap_counter(self):
        recorder = Recorder()
        client, _ = make_client(2, recorder=recorder, from_trigger=True,
                                pipeline_batches=True)
        keys = self._spread_keys(client)
        client.reset_connection()
        client.get_multi(keys)
        assert recorder.total.trigger_cache_batches == 1
        assert recorder.total.trigger_cache_overlapped_batches == 1

    def test_single_server_call_never_overlaps(self):
        recorder = Recorder()
        client, _ = make_client(1, recorder=recorder, pipeline_batches=True)
        client.set_multi({f"k{i}": i for i in range(10)})
        assert recorder.total.cache_overlapped_batches == 0
        assert recorder.total.cache_multi_sets == 1
