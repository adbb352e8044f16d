"""Tests for the consistent-hashing ring."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterController, GutterPool
from repro.errors import CacheServerError
from repro.memcache import CacheClient, CacheServer, HashRing, hashring


class TestHashRing:
    def test_requires_servers(self):
        with pytest.raises(CacheServerError):
            HashRing([])

    def test_single_server_gets_everything(self):
        ring = HashRing(["only"])
        assert all(ring.server_for(f"key{i}") == "only" for i in range(50))

    def test_mapping_is_deterministic(self):
        ring_a = HashRing(["s1", "s2", "s3"])
        ring_b = HashRing(["s1", "s2", "s3"])
        keys = [f"user:{i}" for i in range(200)]
        assert [ring_a.server_for(k) for k in keys] == [ring_b.server_for(k) for k in keys]

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing(["s1", "s2", "s3", "s4"], replicas=200)
        keys = [f"key:{i}" for i in range(4000)]
        counts = Counter(ring.server_for(key) for key in keys)
        assert set(counts) == {"s1", "s2", "s3", "s4"}
        for count in counts.values():
            assert 0.5 * 1000 < count < 1.6 * 1000

    def test_duplicate_server_rejected(self):
        ring = HashRing(["s1"])
        with pytest.raises(CacheServerError):
            ring.add_server("s1")

    def test_remove_unknown_server_rejected(self):
        with pytest.raises(CacheServerError):
            HashRing(["s1"]).remove_server("s2")

    def test_removing_server_only_remaps_its_keys(self):
        ring = HashRing(["s1", "s2", "s3"], replicas=100)
        keys = [f"key:{i}" for i in range(1000)]
        before = {k: ring.server_for(k) for k in keys}
        ring.remove_server("s3")
        after = {k: ring.server_for(k) for k in keys}
        for key in keys:
            if before[key] != "s3":
                assert after[key] == before[key]
            else:
                assert after[key] in {"s1", "s2"}

    def test_adding_server_moves_only_a_fraction(self):
        ring = HashRing(["s1", "s2", "s3"], replicas=100)
        keys = [f"key:{i}" for i in range(2000)]
        before = {k: ring.server_for(k) for k in keys}
        ring.add_server("s4")
        moved = sum(1 for k in keys if ring.server_for(k) != before[k])
        # Consistent hashing: roughly 1/4 of keys move, never the majority.
        assert moved < len(keys) * 0.45

    @settings(max_examples=30, deadline=None)
    @given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                   min_size=1, max_size=40))
    def test_every_key_maps_to_a_registered_server(self, key):
        ring = HashRing(["a", "b", "c"])
        assert ring.server_for(key) in {"a", "b", "c"}


KEYS = [f"key:{i}" for i in range(40)]
NODES = ["n0", "n1", "n2", "n3", "n4"]


def assert_ring_matches_a_fresh_ring(ring):
    """The live (memoised) lookup equals that of a ring built afresh with
    the same members, whose first answers come from no memo."""
    fresh = HashRing(ring.servers, replicas=ring.replicas)
    assert fresh._ring == ring._ring    # no virtual node was nudged
    expected = [fresh.server_for(k) for k in KEYS]
    for _ in range(2):  # second pass: every answer now comes from the memo
        assert [ring.server_for(k) for k in KEYS] == expected


class TestPlacementMemo:
    """The placement memo never outlives the membership it was built on."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["add", "remove", "lookup"]),
                              st.sampled_from(NODES)),
                    max_size=25))
    def test_equals_a_fresh_ring_across_membership_changes(self, steps):
        ring = HashRing(["n0", "n1"], replicas=20)
        for action, node in steps:
            if action == "add" and node not in ring.servers:
                ring.add_server(node)
            elif action == "remove" and node in ring.servers \
                    and len(ring.servers) > 1:
                ring.remove_server(node)
            assert_ring_matches_a_fresh_ring(ring)

    def test_memo_is_capped(self, monkeypatch):
        monkeypatch.setattr(hashring, "PLACEMENT_MEMO_MAX", 16)
        ring = HashRing(["n0", "n1", "n2"], replicas=20)
        fresh = HashRing(["n0", "n1", "n2"], replicas=20)
        for i in range(200):
            assert ring.server_for(f"k{i}") == fresh.server_for(f"k{i}")
            assert len(ring._placement) <= 16

    def test_primary_and_gutter_rings_through_kill_and_revive(self):
        clock = lambda: 0.0  # noqa: E731
        servers = [CacheServer(f"cache{i}", clock=clock) for i in range(3)]
        client = CacheClient(servers)
        gutter = GutterPool([CacheServer("gutter0", clock=clock),
                             CacheServer("gutter1", clock=clock)])
        controller = ClusterController([client], servers, clock, gutter=gutter)
        for ring in (controller.ring, gutter.ring):
            assert_ring_matches_a_fresh_ring(ring)
        controller.kill("cache1")
        for key in KEYS:           # routed to the gutter while cache1 is dead
            client.set(key, 1)
        for ring in (controller.ring, gutter.ring):
            assert_ring_matches_a_fresh_ring(ring)
        controller.revive("cache1")
        controller.join(CacheServer("cache3", clock=clock))
        controller.drain("cache0")
        for ring in (controller.ring, gutter.ring):
            assert_ring_matches_a_fresh_ring(ring)
        assert client.ring is controller.ring
