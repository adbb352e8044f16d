"""Tests for the ConsistencyStrategy protocol and its registry.

Covers the registry contract (unknown names, duplicate registration, legacy
string resolution to singletons) and a custom strategy's full roundtrip:
``cacheable()`` -> trigger install -> write -> commit-time flush.
"""

import pytest

from repro.core import (ASYNC_REFRESH, AsyncRefreshStrategy, ConsistencyStrategy,
                        EXPIRY, ExpiryStrategy, INVALIDATE, InvalidateStrategy,
                        LEASED_INVALIDATE, LeasedInvalidateStrategy,
                        UPDATE_IN_PLACE, UpdateInPlaceStrategy, get_strategy,
                        register_strategy, registered_strategies,
                        resolve_strategy, unregister_strategy)
from repro.core.strategies import needs_triggers, validate_strategy
from repro.errors import CacheClassError


class TestRegistry:
    def test_builtins_are_registered(self):
        names = set(registered_strategies())
        assert {UPDATE_IN_PLACE, INVALIDATE, EXPIRY,
                LEASED_INVALIDATE, ASYNC_REFRESH} <= names

    def test_legacy_names_resolve_to_the_same_singletons(self):
        """Every resolution of a built-in name yields one shared instance."""
        for name, cls in ((UPDATE_IN_PLACE, UpdateInPlaceStrategy),
                          (INVALIDATE, InvalidateStrategy),
                          (EXPIRY, ExpiryStrategy),
                          (LEASED_INVALIDATE, LeasedInvalidateStrategy),
                          (ASYNC_REFRESH, AsyncRefreshStrategy)):
            first = get_strategy(name)
            assert isinstance(first, cls)
            assert resolve_strategy(name) is first
            assert get_strategy(name) is first

    def test_unknown_name_error_lists_known_strategies(self):
        with pytest.raises(CacheClassError) as excinfo:
            get_strategy("write-through")
        message = str(excinfo.value)
        assert "write-through" in message
        assert "update-in-place" in message        # the known names are listed
        assert "ConsistencyStrategy" in message    # ...and the escape hatch

    def test_duplicate_registration_rejected_unless_replaced(self):
        class Custom(InvalidateStrategy):
            name = "dup-strategy-test"

        first = register_strategy(Custom())
        try:
            with pytest.raises(CacheClassError, match="already registered"):
                register_strategy(Custom())
            second = register_strategy(Custom(), replace=True)
            assert get_strategy("dup-strategy-test") is second is not first
        finally:
            unregister_strategy("dup-strategy-test")
        with pytest.raises(CacheClassError):
            get_strategy("dup-strategy-test")

    def test_non_strategy_and_unnamed_rejected(self):
        with pytest.raises(CacheClassError):
            register_strategy(object())
        with pytest.raises(CacheClassError, match="name"):
            register_strategy(ConsistencyStrategy())

    def test_resolve_accepts_instances_and_defaults(self):
        custom = LeasedInvalidateStrategy(lease_seconds=9.0)
        assert resolve_strategy(custom) is custom
        assert resolve_strategy(None) is get_strategy(UPDATE_IN_PLACE)
        assert resolve_strategy(None, default=EXPIRY) is get_strategy(EXPIRY)
        with pytest.raises(CacheClassError):
            resolve_strategy(42)

    def test_legacy_helpers_still_work(self):
        """The pre-registry string helpers keep their contract."""
        for name in (UPDATE_IN_PLACE, INVALIDATE, EXPIRY):
            assert validate_strategy(name) == name
        with pytest.raises(CacheClassError):
            validate_strategy("write-through")
        assert needs_triggers(UPDATE_IN_PLACE)
        assert needs_triggers(INVALIDATE)
        assert needs_triggers(LEASED_INVALIDATE)
        assert not needs_triggers(EXPIRY)
        assert not needs_triggers(ASYNC_REFRESH)


class RecordingInvalidate(InvalidateStrategy):
    """A custom strategy: invalidation that records every key it drops."""

    name = "recording-invalidate"

    def __init__(self):
        self.eager_keys = []
        self.flushed_keys = []

    def flush_invalidations(self, client, keys, single=False):
        (self.eager_keys if single else self.flushed_keys).extend(keys)
        return super().flush_invalidations(client, keys, single)

    def render_trigger_body(self, cached_object, batched):
        return ["    for cache_key in affected:",
                "        record_and_delete(cache_key)  # custom strategy"]


class TestCustomStrategyRoundtrip:
    def test_cacheable_to_trigger_install_to_flush(self, stack):
        """A registered custom strategy drives the whole pipeline: the
        declaration resolves it by name, triggers install and render its
        body, and the commit-time flush goes through its batched hook."""
        genie = stack["genie"]
        Person, Profile = stack["Person"], stack["Profile"]
        strategy = register_strategy(RecordingInvalidate())
        try:
            cached = genie.cacheable(
                cache_class_type="FeatureQuery", main_model="Profile",
                where_fields=["person_id"], name="custom_profile",
                update_strategy="recording-invalidate")
            assert cached.strategy is strategy
            assert cached.update_strategy == "recording-invalidate"
            # Triggers installed (the strategy says it needs them)...
            assert genie.trigger_count == 3
            # ...and the rendered source carries the custom body.
            assert "record_and_delete" in genie.trigger_generator.full_source()

            person = Person.objects.create(name="pat")
            cached.evaluate(person_id=person.pk)
            assert cached.peek(person_id=person.pk) is not None
            # A write fires the trigger; the batched queue flushes at commit
            # through the custom strategy's flush_invalidations hook.
            Profile.objects.create(person=person, bio="hello")
            assert strategy.flushed_keys, "flush did not reach the strategy"
            assert cached.peek(person_id=person.pk) is None
            assert cached.stats.invalidations >= 1
        finally:
            genie.remove_cached_object("custom_profile")
            unregister_strategy("recording-invalidate")

    def test_eager_path_uses_custom_eager_hook(self, stack):
        registry, database = stack["registry"], stack["database"]
        Person, Profile = stack["Person"], stack["Profile"]
        from repro.core import CacheGenie
        strategy = RecordingInvalidate()  # unregistered instances work too
        genie = CacheGenie(registry=registry, database=database,
                           cache_servers=[stack["cache_server"]],
                           batch_trigger_ops=False).activate()
        try:
            cached = genie.cacheable(
                cache_class_type="FeatureQuery", main_model="Profile",
                where_fields=["person_id"], name="eager_custom",
                update_strategy=strategy)
            person = Person.objects.create(name="quinn")
            cached.evaluate(person_id=person.pk)
            Profile.objects.create(person=person, bio="x")
            assert strategy.eager_keys
            assert not strategy.flushed_keys
        finally:
            genie.deactivate()
            stack["genie"].activate()
