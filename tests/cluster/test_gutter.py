"""Tests for the gutter pool: short-TTL fallback fleet for dead primaries."""

import pytest

from repro.cluster import GutterPool
from repro.errors import CacheServerError
from repro.memcache import CacheServer


class MutableClock:
    def __init__(self, start: float = 0.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t


def make_pool(ttl: float = 2.0, clock=None):
    clock = clock or MutableClock()
    servers = [CacheServer("gutter0", clock=clock),
               CacheServer("gutter1", clock=clock)]
    return GutterPool(servers, ttl_seconds=ttl), clock


class TestConstruction:
    def test_requires_servers(self):
        with pytest.raises(CacheServerError):
            GutterPool([])

    def test_requires_positive_ttl(self):
        with pytest.raises(CacheServerError):
            GutterPool([CacheServer("g0")], ttl_seconds=0.0)

    def test_rejects_duplicate_names(self):
        with pytest.raises(CacheServerError):
            GutterPool([CacheServer("g"), CacheServer("g")])


class TestReducedProtocol:
    def test_get_miss_then_hit_counts(self):
        pool, _clock = make_pool()
        assert pool.get("k") is None
        assert pool.misses == 1
        pool.set("k", "v")
        assert pool.get("k") == "v"
        assert pool.hits == 1
        assert pool.sets == 1

    def test_entries_expire_at_the_pool_ttl(self):
        pool, clock = make_pool(ttl=2.0)
        pool.set("k", "v")
        clock.t = 1.9
        assert pool.get("k") == "v"
        clock.t = 2.1
        assert pool.get("k") is None, "gutter entries must honor the short TTL"

    def test_ttl_applies_even_when_caller_wanted_longer(self):
        # The pool ignores caller TTLs by design: its own short TTL is the
        # staleness bound for serving a dead primary's keys.
        pool, clock = make_pool(ttl=0.5)
        pool.set("k", "v")
        clock.t = 0.6
        assert pool.get("k") is None

    def test_add_respects_existing_entry(self):
        pool, _clock = make_pool()
        assert pool.add("k", "first") is True
        assert pool.add("k", "second") is False
        assert pool.get("k") == "first"

    def test_delete_and_delete_multi(self):
        pool, _clock = make_pool()
        pool.set("a", 1)
        pool.set("b", 2)
        assert pool.delete("a") is True
        assert pool.delete("a") is False
        assert pool.delete_multi(["b", "missing"]) == ["b"]
        assert pool.deletes == 4

    def test_get_multi_returns_only_present(self):
        pool, _clock = make_pool()
        pool.set_multi({"a": 1, "b": 2})
        assert pool.get_multi(["a", "b", "c"]) == {"a": 1, "b": 2}
        assert pool.misses == 1

    def test_set_multi_reports_oversized_values_as_failed(self):
        pool = GutterPool([CacheServer("gutter0", max_item_bytes=256)])
        assert pool.set_multi({"a": 1, "big": "x" * 1024, "b": 2}) == ["big"]
        assert pool.get_multi(["a", "big", "b"]) == {"a": 1, "b": 2}
        assert pool.servers[0].stats.sets == 2

    def test_flush_all_and_item_count(self):
        pool, _clock = make_pool()
        pool.set_multi({f"k{i}": i for i in range(8)})
        assert pool.item_count() == 8
        pool.flush_all()
        assert pool.item_count() == 0

    def test_no_cas_and_no_lease_surface(self):
        pool, _clock = make_pool()
        assert not hasattr(pool, "gets")
        assert not hasattr(pool, "cas")
        assert not hasattr(pool, "lease")


class TestCounters:
    def test_counters_dict(self):
        pool, _clock = make_pool()
        pool.set("k", "v")
        pool.get("k")
        pool.get("nope")
        pool.delete("k")
        assert pool.counters() == {
            "gutter_hits": 1, "gutter_misses": 1,
            "gutter_sets": 1, "gutter_deletes": 1,
        }

    def test_pool_ring_is_independent(self):
        pool, _clock = make_pool()
        # Gutter membership never follows the primary fleet: the pool's ring
        # contains only gutter servers.
        assert set(pool.ring.servers) == {"gutter0", "gutter1"}
        keys = [f"k{i}" for i in range(100)]
        assert {pool.ring.server_for(k) for k in keys} <= {"gutter0", "gutter1"}
