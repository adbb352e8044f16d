"""Tests for scenario assembly (NoCache / Invalidate / Update / new strategies)."""

from repro.apps.social import SeedScale
from repro.bench import (ASYNC_REFRESH_SCENARIO, EXPIRY_SCENARIO,
                         INVALIDATE_SCENARIO, LEASED_SCENARIO, NO_CACHE,
                         Scenario, ScenarioConfig, UPDATE_SCENARIO)
from repro.core import (ASYNC_REFRESH, ConsistencyStrategy, EXPIRY, INVALIDATE,
                        LEASED_INVALIDATE, LeasedInvalidateStrategy,
                        UPDATE_IN_PLACE, get_strategy)


TINY = SeedScale.tiny()


class TestScenarioConfig:
    def test_configs_carry_resolved_strategy_objects(self):
        """The config resolves its strategy *object* once at construction —
        nothing downstream matches on the scenario-name string."""
        assert ScenarioConfig(name=NO_CACHE).strategy is None
        for name, expected in ((INVALIDATE_SCENARIO, INVALIDATE),
                               (UPDATE_SCENARIO, UPDATE_IN_PLACE),
                               (EXPIRY_SCENARIO, EXPIRY),
                               (LEASED_SCENARIO, LEASED_INVALIDATE),
                               (ASYNC_REFRESH_SCENARIO, ASYNC_REFRESH)):
            config = ScenarioConfig(name=name)
            assert isinstance(config.strategy, ConsistencyStrategy)
            assert config.strategy is get_strategy(expected)

    def test_strategy_accepts_names_and_instances(self):
        by_name = ScenarioConfig(name=UPDATE_SCENARIO, strategy=INVALIDATE)
        assert by_name.strategy is get_strategy(INVALIDATE)
        custom = LeasedInvalidateStrategy(lease_seconds=7.0)
        by_instance = ScenarioConfig(name=LEASED_SCENARIO, strategy=custom)
        assert by_instance.strategy is custom

    def test_variant_overrides(self):
        config = ScenarioConfig(name=UPDATE_SCENARIO).variant(cache_size_bytes=123)
        assert config.cache_size_bytes == 123
        assert config.name == UPDATE_SCENARIO
        assert config.strategy is get_strategy(UPDATE_IN_PLACE)

    def test_variant_name_override_re_resolves_the_strategy(self):
        """Switching scenarios via variant(name=...) must not carry the old
        scenario's strategy object along (the pre-object behavior derived
        the strategy from the name)."""
        switched = ScenarioConfig(name=UPDATE_SCENARIO).variant(
            name=INVALIDATE_SCENARIO)
        assert switched.strategy is get_strategy(INVALIDATE)
        nocache = ScenarioConfig(name=UPDATE_SCENARIO).variant(name=NO_CACHE)
        assert nocache.strategy is None
        # An explicit strategy override still wins over the name default.
        custom = LeasedInvalidateStrategy(lease_seconds=3.0)
        kept = ScenarioConfig(name=UPDATE_SCENARIO).variant(
            name=INVALIDATE_SCENARIO, strategy=custom)
        assert kept.strategy is custom



class TestScenarioAssembly:
    def test_nocache_has_no_genie(self):
        scenario = Scenario(ScenarioConfig(name=NO_CACHE, seed_scale=TINY)).setup()
        try:
            assert scenario.genie is None
            assert scenario.cached_objects == {}
            assert scenario.seed_summary.users == TINY.users
            assert scenario.cache_hit_ratio() == 0.0
        finally:
            scenario.teardown()

    def test_update_scenario_installs_cachegenie(self):
        scenario = Scenario(ScenarioConfig(name=UPDATE_SCENARIO, seed_scale=TINY)).setup()
        try:
            assert scenario.genie is not None
            assert scenario.genie.cached_object_count == 14
            assert all(obj.update_strategy == UPDATE_IN_PLACE
                       for obj in scenario.cached_objects.values())
        finally:
            scenario.teardown()

    def test_invalidate_scenario_uses_invalidation(self):
        scenario = Scenario(ScenarioConfig(name=INVALIDATE_SCENARIO, seed_scale=TINY)).setup()
        try:
            assert all(obj.update_strategy == INVALIDATE
                       for obj in scenario.cached_objects.values())
        finally:
            scenario.teardown()

    def test_triggers_disabled_for_ideal_system(self):
        scenario = Scenario(ScenarioConfig(name=UPDATE_SCENARIO, seed_scale=TINY,
                                           triggers_enabled=False)).setup()
        try:
            assert scenario.database.triggers.globally_enabled is False
        finally:
            scenario.teardown()

    def test_scenarios_can_be_built_sequentially(self):
        for name in (NO_CACHE, UPDATE_SCENARIO, INVALIDATE_SCENARIO):
            with Scenario(ScenarioConfig(name=name, seed_scale=TINY)) as scenario:
                result = scenario.app.lookup_bookmarks(1)
                assert result.page == "LookupBM"

    def test_cache_size_respected(self):
        scenario = Scenario(ScenarioConfig(name=UPDATE_SCENARIO, seed_scale=TINY,
                                           cache_size_bytes=1024 * 1024)).setup()
        try:
            assert len(scenario.cache_servers) == 2
            assert sum(s.store.capacity_bytes for s in scenario.cache_servers) == 1024 * 1024
        finally:
            scenario.teardown()
