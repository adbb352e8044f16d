"""Tests for the CacheGenie orchestrator, cacheable() API, and trigger generation."""

import pytest

from repro.adaptive import AdaptiveStrategy
from repro.core import CacheGenie, UPDATE_IN_PLACE, cacheable
from repro.core.cache_classes import CacheClass, FeatureQuery
from repro.core.triggergen import render_trigger_source, trigger_name
from repro.errors import CacheClassError


class TestCacheableAPI:
    def test_cacheable_installs_triggers_and_interception(self, stack):
        genie = stack["genie"]
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"])
        assert genie.cached_object_count == 1
        # Three triggers (insert/update/delete) on the one underlying table.
        assert genie.trigger_count == 3
        for event in ("insert", "update", "delete"):
            assert trigger_name(cached, "profile", event) in stack["database"].triggers

    def test_unknown_cache_class_rejected(self, stack):
        with pytest.raises(CacheClassError):
            stack["genie"].cacheable(cache_class_type="MaterializedView",
                                     main_model="Profile", where_fields=["person_id"])

    def test_duplicate_name_rejected(self, stack):
        genie = stack["genie"]
        genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                        where_fields=["person_id"], name="dup")
        with pytest.raises(CacheClassError):
            genie.cacheable(cache_class_type="CountQuery", main_model="Profile",
                            where_fields=["person_id"], name="dup")

    def test_where_fields_required(self, stack):
        with pytest.raises(CacheClassError):
            stack["genie"].cacheable(cache_class_type="FeatureQuery",
                                     main_model="Profile", where_fields=[])

    def test_module_level_cacheable_uses_active_genie(self, stack):
        cached = cacheable(cache_class_type="CountQuery", main_model="Item",
                           where_fields=["owner_id"])
        assert cached.name in stack["genie"].cached_objects

    def test_remove_cached_object_drops_triggers(self, stack):
        genie = stack["genie"]
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"], name="removable")
        genie.remove_cached_object("removable")
        assert genie.cached_object_count == 0
        assert genie.trigger_count == 0
        assert trigger_name(cached, "profile", "insert") not in stack["database"].triggers

    def test_deactivate_cleans_everything(self, stack):
        genie = stack["genie"]
        genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                        where_fields=["person_id"])
        genie.deactivate()
        assert genie.cached_object_count == 0
        assert stack["registry"].interceptors == []
        # Reactivate so the fixture teardown has something consistent to tear down.
        genie.activate()

    def test_expiry_strategy_installs_no_triggers(self, stack):
        genie = stack["genie"]
        genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                        where_fields=["person_id"], update_strategy="expiry",
                        expiry_seconds=30)
        assert genie.trigger_count == 0

    def test_custom_cache_class_registration(self, stack):
        genie = stack["genie"]

        class NewestOnly(FeatureQuery):
            """A trivially customized cache class (extensibility hook)."""

            cache_class_type = "NewestOnly"

        genie.register_cache_class(NewestOnly)
        cached = genie.cacheable(cache_class_type="NewestOnly", main_model="Profile",
                                 where_fields=["person_id"])
        assert isinstance(cached, NewestOnly)

    def test_register_non_cache_class_rejected(self, stack):
        with pytest.raises(CacheClassError):
            stack["genie"].register_cache_class(dict)


class TestEffortMetrics:
    def test_effort_report_counts(self, stack):
        genie = stack["genie"]
        genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                        where_fields=["person_id"])
        genie.cacheable(cache_class_type="CountQuery", main_model="Item",
                        where_fields=["owner_id"])
        report = genie.effort_report()
        assert report["cached_objects"] == 2
        assert report["generated_triggers"] == 6
        assert report["generated_trigger_lines"] > 50

    def test_trigger_source_is_rendered_python(self, stack):
        """The default (batched) genie renders commit-time-queue triggers."""
        genie = stack["genie"]
        cached = genie.cacheable(cache_class_type="TopKQuery", main_model="Wall",
                                 where_fields=["person_id"], sort_field="posted",
                                 k=5)
        source = "\n".join(record.source
                           for record in genie.trigger_generator.generated)
        assert "def cg_" in source
        # Batched default: the trigger enqueues; the flush runs the CAS pair.
        assert "queue.enqueue_mutate(cache_key" in source
        assert "gets_multi" in source and "cas_multi" in source
        assert cached.keys.prefix in source
        # Each generated trigger's metadata carries its own source text.
        trigger = stack["database"].triggers.list_triggers("wall")[0]
        assert trigger.metadata["cached_object"] == cached.name
        assert "memcache.Client" in trigger.metadata["source"]

    @pytest.mark.parametrize("strategy", [UPDATE_IN_PLACE, "invalidate",
                                          "leased-invalidate",
                                          AdaptiveStrategy()],
                             ids=lambda strategy: getattr(strategy, "name",
                                                          strategy))
    def test_eager_and_batched_genies_render_identical_source(self, stack,
                                                              strategy):
        """One trigger body: batch_trigger_ops changes only when the queue
        flushes, never what the generated trigger says."""
        def rendered(batch_trigger_ops):
            genie = CacheGenie(registry=stack["registry"],
                               database=stack["database"],
                               cache_servers=[stack["cache_server"]],
                               batch_trigger_ops=batch_trigger_ops).activate()
            try:
                genie.cacheable(cache_class_type="TopKQuery", main_model="Wall",
                                where_fields=["person_id"],
                                sort_field="posted", k=5, name="one_body",
                                update_strategy=strategy)
                return [record.source
                        for record in genie.trigger_generator.generated]
            finally:
                genie.deactivate()

        try:
            eager, batched = rendered(False), rendered(True)
        finally:
            stack["genie"].activate()
        assert eager and eager == batched
        assert all("queue = cachegenie.txn_op_queue()" in source
                   for source in eager)

    def test_invalidate_source_uses_queued_delete(self, stack):
        genie = stack["genie"]
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"],
                                 update_strategy="invalidate")
        spec = cached.get_trigger_info()[0]
        source = render_trigger_source(cached, spec)
        assert "queue.enqueue_delete(cache_key)" in source
        assert "cache.cas(" not in source


class TestStats:
    def test_global_hit_ratio_aggregates_objects(self, stack):
        genie = stack["genie"]
        Person, Profile = stack["Person"], stack["Profile"]
        person = Person.objects.create(name="p")
        Profile.objects.create(person=person, bio="b")
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"])
        cached.evaluate(person_id=person.pk)
        cached.evaluate(person_id=person.pk)
        assert 0.0 < genie.cache_hit_ratio() < 1.0
        assert genie.stats.totals().cache_hits == 1
