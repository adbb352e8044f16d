"""Tests for value serialization, CacheGenie statistics, and the expiry strategy."""

import pytest

from repro.core.serializer import freeze_value, thaw_rows
from repro.core.stats import CachedObjectStats, CacheGenieStats


class TestSerializer:
    def test_thawed_rows_are_read_only_views_of_the_cached_rows(self):
        cached = [{"id": 1, "payload": {"x": 1}}]
        thawed = thaw_rows(cached)
        assert type(thawed) is list and thawed is not cached
        assert thawed == cached
        with pytest.raises(TypeError):
            thawed[0]["id"] = 2
        cached[0]["id"] = 3   # a view, not a copy: the stored dict shows
        assert thawed[0]["id"] == 3

    def test_thaw_none_is_empty_list(self):
        assert thaw_rows(None) == []

    def test_freeze_value_passes_scalars_through(self):
        assert freeze_value(7) == 7
        assert freeze_value("x") == "x"
        assert freeze_value(None) is None


class TestStats:
    def test_hit_ratio(self):
        stats = CachedObjectStats(cache_hits=3, cache_misses=1)
        assert stats.hit_ratio == pytest.approx(0.75)
        assert CachedObjectStats().hit_ratio == 0.0

    def test_totals_aggregate_across_objects(self):
        stats = CacheGenieStats()
        stats.per_object["a"] = CachedObjectStats(cache_hits=2)
        stats.per_object["b"] = CachedObjectStats(cache_hits=3,
                                                  invalidations=1)
        totals = stats.totals()
        assert totals.cache_hits == 5
        assert totals.invalidations == 1


class TestExpiryStrategy:
    def test_expiry_entries_age_out_and_recompute(self, stack):
        genie = stack["genie"]
        Person, Profile = stack["Person"], stack["Profile"]
        clock = stack["cache_server"].clock
        # Replace the server clock with a controllable one.
        from repro.sim import VirtualClock
        virtual = VirtualClock()
        stack["cache_server"].clock = virtual

        person = Person.objects.create(name="p")
        Profile.objects.create(person=person, bio="original")
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"],
                                 update_strategy="expiry", expiry_seconds=30)
        assert cached.evaluate(person_id=person.pk)[0]["bio"] == "original"

        # A write does NOT touch the cache (no triggers for expiry strategy)...
        Profile.objects.filter(person_id=person.pk).update(bio="changed")
        assert cached.evaluate(person_id=person.pk)[0]["bio"] == "original"

        # ...until the entry expires and the next read recomputes it.
        virtual.advance(31)
        assert cached.evaluate(person_id=person.pk)[0]["bio"] == "changed"

    def test_expiry_strategy_installs_no_triggers(self, stack):
        genie = stack["genie"]
        before = len(stack["database"].triggers)
        genie.cacheable(cache_class_type="CountQuery", main_model="Item",
                        where_fields=["owner_id"], update_strategy="expiry")
        assert len(stack["database"].triggers) == before
