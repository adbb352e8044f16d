"""Behavior tests for the adaptive per-key consistency strategy.

Covers the band model (hot read-mostly keys stay cold), hysteresis,
migration semantics per band pair, the all-cold write fast path, and the
foreign-envelope guards on both incremental trigger patch paths.
"""

import itertools

import pytest

from repro.adaptive import (ADAPTIVE, ALL_BANDS, AdaptiveStrategy, COLD_BAND,
                            HERD_BAND, REFRESH_BAND)
from repro.core import CacheGenie
from repro.core.strategies import (ASYNC_REFRESH, LEASED_INVALIDATE,
                                   UPDATE_IN_PLACE, _FRESH_UNTIL_KEY,
                                   registered_strategies, resolve_strategy)
from repro.memcache import CacheServer
from repro.orm import CharField, ForeignKey, Model, Registry
from repro.sim import VirtualClock
from repro.storage import Database

_COUNTER = itertools.count()


def build_stack(batch_trigger_ops: bool = True):
    """Registry + database + genie on a VirtualClock, one per test."""
    reg = Registry(f"adaptive{next(_COUNTER)}")

    class Author(Model):
        name = CharField(max_length=40)

        class Meta:
            registry = reg

    class Post(Model):
        author = ForeignKey(Author)
        title = CharField(max_length=80)

        class Meta:
            registry = reg

    clock = VirtualClock()
    database = Database(buffer_pool_pages=128)
    reg.bind(database)
    reg.create_all()
    server = CacheServer("adaptive-cache", capacity_bytes=4 * 1024 * 1024,
                         clock=clock)
    genie = CacheGenie(registry=reg, database=database, cache_servers=[server],
                       batch_trigger_ops=batch_trigger_ops).activate()
    return {"registry": reg, "database": database, "genie": genie,
            "Author": Author, "Post": Post, "clock": clock, "server": server}


@pytest.fixture
def stack():
    built = build_stack()
    yield built
    built["genie"].deactivate()


@pytest.fixture
def eager_stack():
    built = build_stack(batch_trigger_ops=False)
    yield built
    built["genie"].deactivate()


def adaptive_strategy(**overrides) -> AdaptiveStrategy:
    kwargs = dict(hot_rate_threshold=4.0, min_dwell_seconds=1.0)
    kwargs.update(overrides)
    return AdaptiveStrategy(**kwargs)


def cached_count(stack, strategy):
    return stack["genie"].cacheable(
        cache_class_type="CountQuery", main_model="Post",
        where_fields=["author_id"], name="adaptive_count",
        update_strategy=strategy)


def write_storm(stack, cached, author, rounds: int = 8):
    """Interleaved creates + reads: pushes the key's write share over the
    refresh-band threshold (the docs/ADAPTIVE.md worked example's storm)."""
    clock, Post = stack["clock"], stack["Post"]
    for i in range(rounds):
        clock.advance(0.5)
        Post.objects.create(author=author, title=f"t{i}a")
        Post.objects.create(author=author, title=f"t{i}b")
        cached.evaluate(author_id=author.pk)


def db_fallbacks(stack) -> int:
    return int(stack["genie"].stats.totals().as_dict()["db_fallbacks"])


class TestBandModel:
    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            AdaptiveStrategy(hot_rate_threshold=0.0)
        with pytest.raises(ValueError):
            AdaptiveStrategy(write_share_threshold=0.0)
        with pytest.raises(ValueError):
            AdaptiveStrategy(min_dwell_seconds=-1.0)

    def test_untracked_key_defaults_cold(self):
        assert adaptive_strategy().band_for("anything") == COLD_BAND

    def test_hot_read_mostly_key_stays_cold(self, stack):
        adaptive = adaptive_strategy()
        cached = cached_count(stack, adaptive)
        author = stack["Author"].objects.create(name="a")
        cached.evaluate(author_id=author.pk)
        for _ in range(12):
            stack["clock"].advance(0.25)
            cached.evaluate(author_id=author.pk)
        assert adaptive.switch_log == []
        assert adaptive.bands_snapshot() == {}

    def test_write_storm_promotes_to_refresh_band(self, stack):
        adaptive = adaptive_strategy()
        cached = cached_count(stack, adaptive)
        author = stack["Author"].objects.create(name="a")
        cached.evaluate(author_id=author.pk)
        write_storm(stack, cached, author)
        key = cached.make_key(author_id=author.pk)
        assert [(old, new) for _key, old, new in adaptive.switch_log] == \
            [(COLD_BAND, REFRESH_BAND)]
        assert adaptive.band_for(key) == REFRESH_BAND
        totals = stack["genie"].recorder.total
        assert (totals.band_switches, totals.adaptive_migrations) == (1, 1)

    def test_contention_promotes_to_herd_band(self, stack):
        adaptive = adaptive_strategy()
        cached = cached_count(stack, adaptive)
        author = stack["Author"].objects.create(name="a")
        cached.evaluate(author_id=author.pk)
        key = cached.make_key(author_id=author.pk)
        for _ in range(4):
            adaptive.telemetry.note_cas_mismatch(key)
        stack["clock"].advance(1.5)  # past the dwell window
        for _ in range(6):
            stack["clock"].advance(0.1)
            cached.evaluate(author_id=author.pk)
        assert adaptive.band_for(key) == HERD_BAND
        # cold -> herd shares the raw representation: nothing migrates.
        assert len(adaptive.switch_log) == 1
        assert stack["genie"].recorder.total.adaptive_migrations == 0

    def test_dwell_blocks_immediate_switch(self, stack):
        adaptive = adaptive_strategy(min_dwell_seconds=120.0)
        cached = cached_count(stack, adaptive)
        author = stack["Author"].objects.create(name="a")
        cached.evaluate(author_id=author.pk)
        write_storm(stack, cached, author)  # 4 virtual seconds < 120s dwell
        assert adaptive.switch_log == []
        assert adaptive.bands_snapshot() == {}


class TestMigration:
    def test_promotion_rewraps_in_place_without_a_miss(self, stack):
        adaptive = adaptive_strategy()
        cached = cached_count(stack, adaptive)
        author = stack["Author"].objects.create(name="a")
        cached.evaluate(author_id=author.pk)
        write_storm(stack, cached, author)
        key = cached.make_key(author_id=author.pk)
        raw = stack["genie"].app_cache.get(key)
        assert isinstance(raw, dict) and _FRESH_UNTIL_KEY in raw
        # Only the initial cold miss ever blocked on the database.
        assert db_fallbacks(stack) == 1

    def test_refresh_band_writes_propagate_nothing(self, stack):
        adaptive = adaptive_strategy()
        cached = cached_count(stack, adaptive)
        author = stack["Author"].objects.create(name="a")
        cached.evaluate(author_id=author.pk)
        write_storm(stack, cached, author)
        applied = cached.stats.updates_applied
        stack["Post"].objects.create(author=author, title="absorbed")
        assert cached.stats.updates_applied == applied
        assert cached.stats.invalidations == 0

    def test_demotion_keeps_envelope_servable_and_rehomes(self, stack):
        adaptive = adaptive_strategy()
        cached = cached_count(stack, adaptive)
        genie, clock = stack["genie"], stack["clock"]
        author = stack["Author"].objects.create(name="a")
        cached.evaluate(author_id=author.pk)
        write_storm(stack, cached, author)
        before = db_fallbacks(stack)
        clock.advance(60.0)  # the lull decays the key back below hot
        served = cached.evaluate(author_id=author.pk)
        assert served == 4  # the envelope still serves, no blocking fallback
        assert db_fallbacks(stack) == before
        assert [(old, new) for _key, old, new in adaptive.switch_log][-1] == \
            (REFRESH_BAND, COLD_BAND)
        assert genie.refresh_queue.pending_count == 1
        clock.advance(0.5)
        assert cached.evaluate(author_id=author.pk) == 16  # refresh landed
        key = cached.make_key(author_id=author.pk)
        assert isinstance(genie.app_cache.get(key), int)  # re-homed raw
        assert stack["genie"].recorder.total.adaptive_migrations == 2

    def test_refresh_to_herd_retires_envelope_via_lease(self, stack):
        adaptive = adaptive_strategy()
        cached = cached_count(stack, adaptive)
        author = stack["Author"].objects.create(name="a")
        cached.evaluate(author_id=author.pk)
        write_storm(stack, cached, author)
        key = cached.make_key(author_id=author.pk)
        for _ in range(6):
            adaptive.telemetry.note_cas_mismatch(key)
        lease_deletes = stack["server"].stats.lease_deletes
        stack["clock"].advance(1.5)  # past the dwell in the refresh band
        cached.evaluate(author_id=author.pk)
        assert adaptive.band_for(key) == HERD_BAND
        # The envelope was retired through a stale-retaining lease delete.
        assert stack["server"].stats.lease_deletes == lease_deletes + 1
        assert stack["genie"].recorder.total.adaptive_migrations == 2


class TestWritePath:
    def test_all_cold_event_patches_through_update_in_place(self, stack):
        adaptive = adaptive_strategy()
        cached = cached_count(stack, adaptive)
        author = stack["Author"].objects.create(name="a")
        cached.evaluate(author_id=author.pk)
        stack["Post"].objects.create(author=author, title="t")
        assert cached.stats.updates_applied == 1
        assert cached.stats.invalidations == 0
        assert cached.evaluate(author_id=author.pk) == 1
        # The counter-bump path attributed the write to telemetry.
        key = cached.make_key(author_id=author.pk)
        assert adaptive.telemetry.get(key).writes == 1

    def test_topk_delete_notes_its_write(self, stack):
        adaptive = adaptive_strategy()
        cached = stack["genie"].cacheable(
            cache_class_type="TopKQuery", main_model="Post",
            where_fields=["author_id"], sort_field="title", k=2,
            name="adaptive_topk", update_strategy=adaptive)
        author = stack["Author"].objects.create(name="a")
        posts = [stack["Post"].objects.create(author=author, title=f"t{i}")
                 for i in range(3)]
        assert len(cached.evaluate(author_id=author.pk)) == 2
        key = cached.make_key(author_id=author.pk)
        writes = adaptive.telemetry.get(key).writes
        posts[0].delete()
        assert adaptive.telemetry.get(key).writes == writes + 1
        assert cached.stats.updates_applied >= 1


class TestEnvelopeGuards:
    """A lingering async-refresh envelope must never absorb a trigger patch."""

    def _cached_rows(self, stack):
        return stack["genie"].cacheable(
            cache_class_type="FeatureQuery", main_model="Post",
            where_fields=["author_id"], name="guard_rows")

    def _plant_envelope(self, stack, key):
        """Re-wrap the cached entry as a foreign async-refresh envelope, as
        an adaptive band migration would mid-run."""
        client = stack["genie"].app_cache
        value = client.get(key)
        assert value is not None
        client.set(key, {_FRESH_UNTIL_KEY: 10_000.0, "value": value})

    def test_eager_cas_patch_invalidates_foreign_envelope(self, eager_stack):
        stack = eager_stack
        cached = self._cached_rows(stack)
        author = stack["Author"].objects.create(name="a")
        stack["Post"].objects.create(author=author, title="seed")
        assert len(cached.evaluate(author_id=author.pk)) == 1
        key = cached.make_key(author_id=author.pk)
        self._plant_envelope(stack, key)
        stack["Post"].objects.create(author=author, title="patch-me")
        assert stack["genie"].app_cache.get(key) is None
        assert cached.stats.invalidations == 1
        assert cached.stats.updates_applied == 0

    def test_commit_flush_invalidates_foreign_envelope(self, stack):
        cached = self._cached_rows(stack)
        genie = stack["genie"]
        author = stack["Author"].objects.create(name="a")
        stack["Post"].objects.create(author=author, title="seed")
        assert len(cached.evaluate(author_id=author.pk)) == 1
        key = cached.make_key(author_id=author.pk)
        self._plant_envelope(stack, key)
        fallbacks = genie.trigger_op_queue.cas_fallbacks
        stack["Post"].objects.create(author=author, title="patch-me")
        assert genie.app_cache.get(key) is None
        assert genie.trigger_op_queue.cas_fallbacks == fallbacks + 1
        assert cached.stats.invalidations == 1


class TestRegistryAndDescribe:
    def test_singleton_registered(self):
        import repro.adaptive  # noqa: F401 -- registers the singleton
        assert ADAPTIVE in registered_strategies()
        assert isinstance(resolve_strategy(ADAPTIVE), AdaptiveStrategy)

    def test_describe_reports_bands_and_knobs(self):
        out = adaptive_strategy().describe()
        assert set(out["bands"]) == set(ALL_BANDS)
        assert out["bands"][COLD_BAND]["delegate"] == UPDATE_IN_PLACE
        assert out["bands"][HERD_BAND]["delegate"] == LEASED_INVALIDATE
        assert out["bands"][REFRESH_BAND]["delegate"] == ASYNC_REFRESH
        assert out["hot_rate_threshold"] == 4.0
        assert out["min_dwell_seconds"] == 1.0
        assert out["telemetry"]["capacity"] == 512
