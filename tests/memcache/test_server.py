"""Tests for the memcached-like cache server."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import CacheKeyError, CacheValueError
from repro.memcache import CacheServer
from repro.sim import VirtualClock


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def server(clock):
    return CacheServer("s0", capacity_bytes=64 * 1024, clock=clock)


class TestBasicOps:
    def test_set_get(self, server):
        assert server.set("k", [1, 2, 3]) is True
        assert server.get("k") == [1, 2, 3]

    def test_get_miss_returns_none_and_counts(self, server):
        assert server.get("missing") is None
        assert server.stats.misses == 1

    def test_add_only_if_absent(self, server):
        assert server.add("k", 1) is True
        assert server.add("k", 2) is False
        assert server.get("k") == 1

    def test_delete(self, server):
        server.set("k", 1)
        assert server.delete("k") is True
        assert server.delete("k") is False

    def test_flush_all(self, server):
        server.set("a", 1)
        server.set("b", 2)
        server.flush_all()
        assert server.item_count == 0

    def test_incr_decr(self, server):
        server.set("count", 10)
        assert server.incr("count", 5) == 15
        assert server.decr("count", 20) == 0  # floored at zero
        assert server.incr("missing") is None

    def test_incr_on_non_integer_is_miss(self, server):
        server.set("k", "text")
        assert server.incr("k") is None


class TestKeyAndValueValidation:
    def test_empty_key_rejected(self, server):
        with pytest.raises(CacheKeyError):
            server.get("")

    def test_key_with_space_rejected(self, server):
        with pytest.raises(CacheKeyError):
            server.set("bad key", 1)

    def test_overlong_key_rejected(self, server):
        with pytest.raises(CacheKeyError):
            server.get("k" * 300)

    def test_oversized_value_rejected(self, clock):
        small = CacheServer("s", capacity_bytes=1024 * 1024,
                            max_item_bytes=1024, clock=clock)
        with pytest.raises(CacheValueError):
            small.set("k", "x" * 10_000)


def reference_key_is_valid(key) -> bool:
    """The per-character predicate the precompiled check replaced."""
    if not isinstance(key, str) or not key:
        return False
    if len(key) > 250:
        return False
    return not any(ch.isspace() or ord(ch) < 33 for ch in key)


_SERVER = CacheServer("keycheck")


def accepts(key) -> bool:
    try:
        _SERVER._check_key(key)
    except CacheKeyError:
        return False
    return True


class TestKeyCheckMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(st.text(max_size=260))
    @example("")
    @example("k" * 250)
    @example("k" * 251)
    @example("tab\there")
    @example("nul\x00")
    @example("unit\x1fsep")
    @example("nbsp\u00a0")
    @example("line\u2028sep")
    @example("ideographic\u3000space")
    @example("del\x7f-is-allowed")
    @example("zero\u200bwidth-is-allowed")
    def test_arbitrary_text(self, key):
        assert accepts(key) == reference_key_is_valid(key)

    @pytest.mark.parametrize("key", [None, 42, b"bytes", ("t",), 1.5])
    def test_non_string_keys_rejected(self, key):
        assert not reference_key_is_valid(key)
        assert not accepts(key)

    def test_every_single_character_key(self):
        # Exhaustive over the code points a one-character key can hold that
        # either side could care about: all of Latin-1 and every character
        # str.isspace() knows.
        import sys
        candidates = [chr(c) for c in range(0x100)]
        candidates += [chr(c) for c in range(0x100, sys.maxunicode + 1)
                       if chr(c).isspace()]
        for ch in candidates:
            assert accepts("k" + ch) == reference_key_is_valid("k" + ch), hex(ord(ch))


class TestCAS:
    def test_gets_then_cas_succeeds(self, server):
        server.set("k", [1])
        value, token = server.gets("k")
        assert server.cas("k", value + [2], token) is True
        assert server.get("k") == [1, 2]

    def test_cas_fails_after_concurrent_set(self, server):
        server.set("k", 1)
        _value, token = server.gets("k")
        server.set("k", 2)   # concurrent writer bumps the CAS id
        assert server.cas("k", 3, token) is False
        assert server.get("k") == 2
        assert server.stats.cas_mismatch == 1

    def test_cas_on_missing_key_fails(self, server):
        assert server.cas("missing", 1, 42) is False
        assert server.stats.cas_miss == 1


class TestExpiry:
    def test_entry_expires_with_virtual_clock(self, server, clock):
        server.set("k", 1, expire=10)
        assert server.get("k") == 1
        clock.advance(11)
        assert server.get("k") is None
        assert server.stats.expirations == 1

    def test_zero_expiry_means_no_expiry(self, server, clock):
        server.set("k", 1, expire=0)
        clock.advance(10_000)
        assert server.get("k") == 1


class TestEvictionAndStats:
    def test_lru_eviction_under_pressure(self, clock):
        server = CacheServer("small", capacity_bytes=2000, clock=clock)
        for i in range(50):
            server.set(f"k{i}", "v" * 50)
        assert server.item_count < 50
        assert server.stats.evictions > 0

    def test_stats_dict_contains_core_fields(self, server):
        server.set("k", 1)
        server.get("k")
        stats = server.stats_dict()
        assert stats["curr_items"] == 1
        assert stats["hits"] == 1
        assert 0 < stats["hit_ratio"] <= 1
