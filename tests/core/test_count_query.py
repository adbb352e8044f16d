"""Tests for the CountQuery cache class."""

import pytest

from repro.core import INVALIDATE


@pytest.fixture
def items_setup(stack):
    Person, Item = stack["Person"], stack["Item"]
    owners = [Person.objects.create(name=f"owner{i}") for i in range(2)]
    for i in range(5):
        Item.objects.create(owner=owners[0], label=f"item{i}")
    for i in range(2):
        Item.objects.create(owner=owners[1], label=f"other{i}")
    stack["owners"] = owners
    return stack


class TestCountQuery:
    def test_evaluate_returns_int(self, items_setup):
        genie = items_setup["genie"]
        cached = genie.cacheable(cache_class_type="CountQuery", main_model="Item",
                                 where_fields=["owner_id"])
        assert cached.evaluate(owner_id=items_setup["owners"][0].pk) == 5
        assert cached.evaluate(owner_id=items_setup["owners"][1].pk) == 2

    def test_transparent_count_interception(self, items_setup):
        genie = items_setup["genie"]
        Item = items_setup["Item"]
        cached = genie.cacheable(cache_class_type="CountQuery", main_model="Item",
                                 where_fields=["owner_id"])
        owner = items_setup["owners"][0]
        assert Item.objects.filter(owner_id=owner.pk).count() == 5
        assert Item.objects.filter(owner_id=owner.pk).count() == 5
        assert cached.stats.cache_hits == 1
        assert cached.stats.transparent_fetches == 2

    def test_insert_increments_cached_count(self, items_setup):
        genie = items_setup["genie"]
        Item = items_setup["Item"]
        cached = genie.cacheable(cache_class_type="CountQuery", main_model="Item",
                                 where_fields=["owner_id"])
        owner = items_setup["owners"][0]
        cached.evaluate(owner_id=owner.pk)
        Item.objects.create(owner=owner, label="new")
        assert cached.peek(owner_id=owner.pk) == 6
        assert cached.stats.updates_applied >= 1

    def test_delete_decrements_cached_count(self, items_setup):
        genie = items_setup["genie"]
        Item = items_setup["Item"]
        cached = genie.cacheable(cache_class_type="CountQuery", main_model="Item",
                                 where_fields=["owner_id"])
        owner = items_setup["owners"][0]
        cached.evaluate(owner_id=owner.pk)
        Item.objects.filter(owner_id=owner.pk, label="item0").delete()
        assert cached.peek(owner_id=owner.pk) == 4

    def test_uncached_key_not_created_by_trigger(self, items_setup):
        genie = items_setup["genie"]
        Item = items_setup["Item"]
        cached = genie.cacheable(cache_class_type="CountQuery", main_model="Item",
                                 where_fields=["owner_id"])
        owner = items_setup["owners"][1]
        Item.objects.create(owner=owner, label="extra")
        assert cached.peek(owner_id=owner.pk) is None

    def test_update_moving_row_adjusts_both_counts(self, items_setup):
        genie = items_setup["genie"]
        Item = items_setup["Item"]
        cached = genie.cacheable(cache_class_type="CountQuery", main_model="Item",
                                 where_fields=["owner_id"])
        a, b = items_setup["owners"]
        cached.evaluate(owner_id=a.pk)
        cached.evaluate(owner_id=b.pk)
        victim = Item.objects.filter(owner_id=a.pk).first()
        Item.objects.filter(id=victim.pk).update(owner_id=b.pk)
        assert cached.peek(owner_id=a.pk) == 4
        assert cached.peek(owner_id=b.pk) == 3

    def test_update_not_affecting_group_leaves_count(self, items_setup):
        genie = items_setup["genie"]
        Item = items_setup["Item"]
        cached = genie.cacheable(cache_class_type="CountQuery", main_model="Item",
                                 where_fields=["owner_id"])
        a = items_setup["owners"][0]
        cached.evaluate(owner_id=a.pk)
        Item.objects.filter(owner_id=a.pk).update(rank=5)
        assert cached.peek(owner_id=a.pk) == 5

    def test_invalidate_strategy_deletes_key(self, items_setup):
        genie = items_setup["genie"]
        Item = items_setup["Item"]
        cached = genie.cacheable(cache_class_type="CountQuery", main_model="Item",
                                 where_fields=["owner_id"],
                                 update_strategy=INVALIDATE)
        owner = items_setup["owners"][0]
        cached.evaluate(owner_id=owner.pk)
        Item.objects.create(owner=owner, label="boom")
        assert cached.peek(owner_id=owner.pk) is None
        assert cached.evaluate(owner_id=owner.pk) == 6

    def test_count_of_zero_is_a_valid_cached_value(self, items_setup):
        genie = items_setup["genie"]
        Person = items_setup["Person"]
        cached = genie.cacheable(cache_class_type="CountQuery", main_model="Item",
                                 where_fields=["owner_id"])
        lonely = Person.objects.create(name="lonely")
        assert cached.evaluate(owner_id=lonely.pk) == 0
        # Second evaluate must be a cache hit, not a recomputation of zero.
        cached.evaluate(owner_id=lonely.pk)
        assert cached.stats.cache_hits == 1


class TestEagerBulkCounters:
    def test_eager_single_bump_rides_incr_multi(self, items_setup):
        """The eager (batch_trigger_ops=False) path sends every counter run
        through the incr_multi bulk protocol: one trigger batch per bump,
        no classic per-key incr/decr wire op."""
        from repro.core import CacheGenie
        items_setup["genie"].deactivate()
        eager = CacheGenie(registry=items_setup["registry"],
                           database=items_setup["database"],
                           cache_servers=[items_setup["cache_server"]],
                           batch_trigger_ops=False).activate()
        try:
            Item = items_setup["Item"]
            cached = eager.cacheable(cache_class_type="CountQuery",
                                     main_model="Item",
                                     where_fields=["owner_id"])
            owner = items_setup["owners"][0]
            assert cached.evaluate(owner_id=owner.pk) == 5
            recorder = items_setup["database"].recorder
            batches_before = recorder.total.trigger_cache_batches
            counters_before = recorder.total.cache_multi_counters
            Item.objects.create(owner=owner, label="bulk")
            assert cached.peek(owner_id=owner.pk) == 6
            assert cached.stats.updates_applied == 1
            # The bump traveled as one one-key incr_multi batch (1 RT), on
            # the trigger's account, not the application's.
            assert recorder.total.trigger_cache_batches == batches_before + 1
            assert recorder.total.cache_multi_counters == counters_before
        finally:
            eager.deactivate()

    def test_eager_group_move_is_one_mixed_batch(self, items_setup):
        from repro.core import CacheGenie
        items_setup["genie"].deactivate()
        eager = CacheGenie(registry=items_setup["registry"],
                           database=items_setup["database"],
                           cache_servers=[items_setup["cache_server"]],
                           batch_trigger_ops=False).activate()
        try:
            Item = items_setup["Item"]
            cached = eager.cacheable(cache_class_type="CountQuery",
                                     main_model="Item",
                                     where_fields=["owner_id"])
            old_owner, new_owner = items_setup["owners"]
            assert cached.evaluate(owner_id=old_owner.pk) == 5
            assert cached.evaluate(owner_id=new_owner.pk) == 2
            recorder = items_setup["database"].recorder
            batches_before = recorder.total.trigger_cache_batches
            Item.objects.filter(owner_id=old_owner.pk, label="item0").update(
                owner_id=new_owner.pk)
            assert cached.peek(owner_id=old_owner.pk) == 4
            assert cached.peek(owner_id=new_owner.pk) == 3
            # The -1/+1 pair rode one batch (both keys on the one server).
            assert recorder.total.trigger_cache_batches == batches_before + 1
        finally:
            eager.deactivate()
