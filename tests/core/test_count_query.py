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


class TestEagerBumps:
    def test_eager_bump_is_one_gets_multi_and_one_cas_multi(self, items_setup):
        """With ``batch_trigger_ops=False`` a counter bump is the trigger-op
        queue flushed at once, inside the firing: one one-key ``gets_multi``
        and one one-key ``cas_multi``, on the trigger's account, and nothing
        left pending for the commit."""
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
            server = items_setup["cache_server"]
            recorder = items_setup["database"].recorder
            before = recorder.total.copy()
            gets_before, cas_before = server.stats.gets, server.stats.cas_ok
            Item.objects.create(owner=owner, label="bump")
            after = recorder.total.copy()
            assert (server.stats.gets - gets_before,
                    server.stats.cas_ok - cas_before) == (1, 1)
            assert (after.trigger_cache_batches
                    - before.trigger_cache_batches) == 2
            assert (after.trigger_cache_batch_ops
                    - before.trigger_cache_batch_ops) == 2
            assert after.cache_multi_counters == before.cache_multi_counters
            assert not eager.trigger_op_queue.context.pending_keys()
            assert cached.peek(owner_id=owner.pk) == 6
            assert cached.stats.updates_applied == 1
            # A group-moving update bumps two keys: a pair for each.
            other = items_setup["owners"][1]
            assert cached.evaluate(owner_id=other.pk) == 2
            before = recorder.total.copy()
            Item.objects.filter(owner_id=owner.pk, label="bump").update(
                owner_id=other.pk)
            assert (recorder.total.trigger_cache_batches
                    - before.trigger_cache_batches) == 4
            assert cached.peek(owner_id=owner.pk) == 5
            assert cached.peek(owner_id=other.pk) == 3
        finally:
            eager.deactivate()


class TestSlicedCount:
    """``qs[a:b].count()`` counts the rows of the window, as ``len(qs[a:b])``
    does, whether the database or a CountQuery cached object answers."""

    WINDOWS = [slice(None, 2), slice(None, 9), slice(2, None), slice(1, 3),
               slice(5, None), slice(100, None), slice(3, 3)]

    def counts(self, Item, owner):
        queryset = Item.objects.filter(owner_id=owner.pk)
        return [(queryset[window].count(), len(list(queryset[window])))
                for window in self.WINDOWS]

    def test_on_the_database(self, items_setup):
        counts = self.counts(items_setup["Item"], items_setup["owners"][0])
        assert [count for count, _ in counts] == [2, 5, 3, 2, 0, 0, 0]
        assert all(count == length for count, length in counts)

    def test_under_interception(self, items_setup):
        genie, Item = items_setup["genie"], items_setup["Item"]
        cached = genie.cacheable(cache_class_type="CountQuery", main_model="Item",
                                 where_fields=["owner_id"])
        owner = items_setup["owners"][0]
        assert Item.objects.filter(owner_id=owner.pk)[:2].count() == 2
        assert Item.objects.filter(owner_id=owner.pk)[:9].count() == 5
        assert cached.stats.transparent_fetches == 2
        counts = self.counts(Item, owner)
        assert [count for count, _ in counts] == [2, 5, 3, 2, 0, 0, 0]
        assert all(count == length for count, length in counts)
