"""A value is sized once, when it is stored: reads report the stored size.

``cache_bytes_moved`` is the pickled size of every value that crosses the
wire.  Pickling is the expensive part, so the size is taken once per store —
by the client, which hands it down to the server — and every read reports
the size the item already carries.  These tests count ``pickle.dumps`` calls.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cluster import GutterPool
from repro.memcache import (CAS_MISMATCH, CAS_STORED, CAS_TOO_LARGE,
                            CacheClient, CacheServer)
from repro.memcache import item as item_module
from repro.memcache.item import ITEM_HEADER_BYTES, sizeof_value
from repro.memcache.server import LEASE_ACQUIRED, LEASE_HIT, LEASE_STALE
from repro.storage.costmodel import Recorder

ROWS = [{"id": i, "text": "x" * 20} for i in range(5)]


class MutableClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def dumps_calls(monkeypatch):
    """Count every ``pickle.dumps`` the size estimator makes."""
    calls = []
    real = pickle.dumps

    def counting(value, *args, **kwargs):
        calls.append(value)
        return real(value, *args, **kwargs)
    monkeypatch.setattr(item_module.pickle, "dumps", counting)
    return calls


@pytest.fixture
def rig():
    clock = MutableClock()
    servers = [CacheServer("cache0", clock=clock),
               CacheServer("cache1", clock=clock)]
    recorder = Recorder()
    client = CacheClient(servers, recorder=recorder)
    return client, recorder, servers, clock


def bytes_moved(recorder) -> int:
    return recorder.total.cache_bytes_moved


class TestHitsDoNotPickle:
    def test_every_read_op_reports_the_stored_size(self, rig, dumps_calls):
        client, recorder, _servers, _clock = rig
        client.set("k", ROWS)
        client.set_multi({"a": ROWS, "b": ROWS[:2]})
        size = {"k": sizeof_value(ROWS), "a": sizeof_value(ROWS),
                "b": sizeof_value(ROWS[:2])}
        del dumps_calls[:]
        before = bytes_moved(recorder)

        assert client.get("k") == ROWS
        assert client.gets("k")[0] == ROWS
        assert set(client.get_multi(["a", "b", "absent"])) == {"a", "b"}
        assert set(client.gets_multi(["a", "b"])) == {"a", "b"}
        assert client.lease("k", 1.0)[0] == LEASE_HIT
        assert {state for state, _v, _t in
                client.lease_multi(["a", "b"], 1.0).values()} == {LEASE_HIT}

        assert dumps_calls == []
        assert bytes_moved(recorder) - before == (
            3 * size["k"] + 3 * size["a"] + 3 * size["b"])

    def test_stale_retained_values_keep_their_size(self, rig, dumps_calls):
        client, recorder, _servers, _clock = rig
        client.set("k", ROWS)
        client.lease_delete("k", stale_seconds=5.0)
        del dumps_calls[:]
        before = bytes_moved(recorder)
        assert client.lease("k", 1.0)[0] == LEASE_ACQUIRED   # stale, token won
        assert client.lease("k", 1.0)[0] == LEASE_STALE      # rate-limited
        assert client.lease_multi(["k"], 1.0)["k"][0] == LEASE_STALE
        assert dumps_calls == []
        assert bytes_moved(recorder) - before == 3 * sizeof_value(ROWS)

    def test_gutter_hits_report_the_gutter_items_size(self, rig, dumps_calls):
        client, recorder, servers, clock = rig
        client.gutter = GutterPool([CacheServer("gutter0", clock=clock)])
        for server in servers:
            server.alive = False
        client.set("k", ROWS)            # routed to the gutter, sized once
        assert len(dumps_calls) == 1
        before = bytes_moved(recorder)
        assert client.get("k") == ROWS
        assert client.get_multi(["k"]) == {"k": ROWS}
        assert client.lease("k", 1.0)[0] == LEASE_STALE
        assert client.lease_multi(["k"], 1.0)["k"][0] == LEASE_STALE
        assert len(dumps_calls) == 1
        assert bytes_moved(recorder) - before == 4 * sizeof_value(ROWS)


class TestStoresPickleOnce:
    def test_each_write_op_sizes_its_value_once(self, rig, dumps_calls):
        client, recorder, _servers, _clock = rig
        client.set("k", ROWS)
        assert len(dumps_calls) == 1
        client.add("fresh", ROWS)
        client.add("fresh", ROWS)        # loses: the value still travelled
        assert len(dumps_calls) == 3
        client.set_multi({"a": ROWS, "b": ROWS})
        assert len(dumps_calls) == 5
        _value, token = client.gets("k")
        assert client.cas("k", ROWS[:1], token) is True
        assert client.cas("k", ROWS[:1], token) is False   # stale token
        assert len(dumps_calls) == 7
        tokens = client.gets_multi(["a", "b"])
        verdicts = client.cas_multi({"a": (ROWS[:1], tokens["a"][1]),
                                     "b": (ROWS[:1], -1)})
        assert verdicts == {"a": CAS_STORED, "b": CAS_MISMATCH}
        assert len(dumps_calls) == 9
        # Every value that travelled was charged, stored or not.
        assert bytes_moved(recorder) == (
            5 * sizeof_value(ROWS) + 4 * sizeof_value(ROWS[:1])   # writes
            + sizeof_value(ROWS) + 2 * sizeof_value(ROWS))        # the gets

    def test_handed_down_size_is_what_the_item_carries(self, rig):
        client, _recorder, servers, _clock = rig
        client.set("k", ROWS)
        server = servers[0] if servers[0].item_count else servers[1]
        stored = server.store.get("k", touch=False)
        assert stored.value_size == sizeof_value(ROWS) == server.value_size("k")
        assert stored.size == len("k") + stored.value_size + ITEM_HEADER_BYTES

    def test_server_sizes_values_nobody_sized_for_it(self, dumps_calls):
        server = CacheServer("solo")
        server.set("k", ROWS)
        assert len(dumps_calls) == 1
        assert server.value_size("k") == sizeof_value(ROWS)


class TestOversizedValuesRejectedAsBefore:
    """Rejection compares the same number the client charges."""

    def test_set_multi_failed_list_and_bytes(self):
        recorder = Recorder()
        server = CacheServer("s0", max_item_bytes=256)
        client = CacheClient([server], recorder=recorder)
        assert client.set_multi({"small": 1, "big": "x" * 1024}) == ["big"]
        assert server.stats.sets == 1
        assert bytes_moved(recorder) == sizeof_value(1)

    def test_cas_multi_too_large_verdict_and_bytes(self):
        recorder = Recorder()
        client = CacheClient([CacheServer("s0", max_item_bytes=256)],
                             recorder=recorder)
        client.set_multi({"a": 1, "b": 2})
        tokens = client.gets_multi(["a", "b"])
        before = bytes_moved(recorder)
        verdicts = client.cas_multi({"a": (3, tokens["a"][1]),
                                     "b": ("x" * 1024, tokens["b"][1])})
        assert verdicts == {"a": CAS_STORED, "b": CAS_TOO_LARGE}
        assert bytes_moved(recorder) - before == sizeof_value(3)

    def test_single_key_stores_refuse_instead_of_raising(self):
        recorder = Recorder()
        server = CacheServer("s0", max_item_bytes=256)
        client = CacheClient([server], recorder=recorder)
        client.set("k", 1)
        _value, token = client.gets("k")
        before = bytes_moved(recorder)
        big = "x" * 1024
        assert client.set("big", big) is False
        assert client.add("fresh", big) is False
        assert client.cas("k", big, token) is False
        # Refused stores count neither a set, a swap nor bytes.
        assert bytes_moved(recorder) == before
        assert (server.stats.sets, server.stats.cas_ok) == (1, 0)
        assert client.get("big") is None and client.get("fresh") is None
        assert client.get("k") == 1

    def test_gutter_refuses_an_oversized_value_for_a_dead_primary(self):
        recorder = Recorder()
        primary = CacheServer("s0")
        client = CacheClient([primary], recorder=recorder)
        gutter = CacheServer("gutter0", max_item_bytes=256)
        client.gutter = GutterPool([gutter])
        primary.alive = False
        big = "x" * 1024
        assert client.set_multi({"small": 1, "big": big}) == ["big"]
        assert client.set("big", big) is False
        assert client.get_multi(["small", "big"]) == {"small": 1}
        assert gutter.stats.sets == 1
        assert bytes_moved(recorder) == 2 * sizeof_value(1)   # stored, then read

    @pytest.mark.parametrize("value", [b"x" * 200, "é" * 100, 7, 2.5, True,
                                       None, [{"id": 1}] * 8])
    def test_boundary_is_key_plus_value_plus_header(self, value):
        size = len("k") + sizeof_value(value) + ITEM_HEADER_BYTES
        assert CacheServer("fits", max_item_bytes=size).set_multi(
            {"k": value}) == []
        assert CacheServer("tight", max_item_bytes=size - 1).set_multi(
            {"k": value}) == ["k"]
