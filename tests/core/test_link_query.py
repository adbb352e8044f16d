"""Tests for the LinkQuery cache class (relationship-chain queries)."""

import pytest

from repro.core import ChainStep, INVALIDATE
from repro.errors import CacheClassError


@pytest.fixture
def graph(stack):
    """alice follows bob and carol; bob owns 2 items, carol owns 1."""
    Person, Edge, Item = stack["Person"], stack["Edge"], stack["Item"]
    alice = Person.objects.create(name="alice")
    bob = Person.objects.create(name="bob")
    carol = Person.objects.create(name="carol")
    dave = Person.objects.create(name="dave")
    Edge.objects.create(src=alice, dst=bob)
    Edge.objects.create(src=alice, dst=carol)
    Edge.objects.create(src=dave, dst=bob)
    Item.objects.create(owner=bob, label="bob-item-1", rank=1)
    Item.objects.create(owner=bob, label="bob-item-2", rank=2)
    Item.objects.create(owner=carol, label="carol-item-1", rank=3)
    Item.objects.create(owner=dave, label="dave-item-1", rank=4)
    stack.update(alice=alice, bob=bob, carol=carol, dave=dave)
    return stack


def friends_items(genie, **kwargs):
    """LinkQuery: items owned by the people a user follows."""
    return genie.cacheable(
        cache_class_type="LinkQuery", name=kwargs.pop("name", "followed_items"),
        main_model="Edge", where_fields=["src_id"],
        chain=[ChainStep.forward("dst"), ChainStep.reverse("Item", "owner")],
        use_transparently=False, **kwargs)


class TestDefinition:
    def test_empty_chain_rejected(self, stack):
        with pytest.raises(CacheClassError):
            stack["genie"].cacheable(cache_class_type="LinkQuery", main_model="Edge",
                                     where_fields=["src_id"], chain=[])

    def test_const_filters_on_a_chain_rejected(self, stack):
        with pytest.raises(CacheClassError, match="constant filters"):
            stack["genie"].cacheable(cache_class_type="LinkQuery", main_model="Edge",
                                     where_fields=["src_id"], const_filters={"dst_id": 1},
                                     chain=[ChainStep.forward("dst")])

    def test_reverse_step_requires_model_name(self):
        with pytest.raises(CacheClassError):
            ChainStep(direction="reverse", field="owner")

    def test_tuple_chain_steps_accepted(self, graph):
        cached = graph["genie"].cacheable(
            cache_class_type="LinkQuery", name="tuple_chain",
            main_model="Edge", where_fields=["src_id"],
            chain=[("forward", "dst"), ("reverse", "Item", "owner")],
            use_transparently=False)
        rows = cached.evaluate(src_id=graph["alice"].pk)
        assert len(rows) == 3

    def test_triggers_installed_on_every_chain_table(self, graph):
        genie = graph["genie"]
        cached = friends_items(genie, name="chain_tables")
        tables = {spec.table for spec in cached.get_trigger_info()}
        assert tables == {"edge", "person", "item"}


class TestEvaluate:
    def test_single_hop_forward(self, graph):
        cached = graph["genie"].cacheable(
            cache_class_type="LinkQuery", name="followees",
            main_model="Edge", where_fields=["src_id"],
            chain=[ChainStep.forward("dst")], use_transparently=False)
        rows = cached.evaluate(src_id=graph["alice"].pk)
        assert {r["name"] for r in rows} == {"bob", "carol"}

    def test_two_hop_chain(self, graph):
        cached = friends_items(graph["genie"])
        rows = cached.evaluate(src_id=graph["alice"].pk)
        assert {r["label"] for r in rows} == {"bob-item-1", "bob-item-2", "carol-item-1"}

    def test_cache_hit_on_second_evaluate(self, graph):
        cached = friends_items(graph["genie"])
        cached.evaluate(src_id=graph["alice"].pk)
        cached.evaluate(src_id=graph["alice"].pk)
        assert cached.stats.cache_hits == 1

    def test_ordering_and_limit(self, graph):
        cached = graph["genie"].cacheable(
            cache_class_type="LinkQuery", name="top_followed_items",
            main_model="Edge", where_fields=["src_id"],
            chain=[ChainStep.forward("dst"), ChainStep.reverse("Item", "owner")],
            order_by="rank", descending=True, limit=2, use_transparently=False)
        rows = cached.evaluate(src_id=graph["alice"].pk)
        assert [r["rank"] for r in rows] == [3, 2]


class TestConsistency:
    def test_new_item_of_followed_user_appears(self, graph):
        Item = graph["Item"]
        cached = friends_items(graph["genie"])
        alice = graph["alice"]
        assert len(cached.evaluate(src_id=alice.pk)) == 3
        Item.objects.create(owner=graph["bob"], label="bob-item-3", rank=9)
        assert {r["label"] for r in cached.evaluate(src_id=alice.pk)} >= {"bob-item-3"}
        assert len(cached.evaluate(src_id=alice.pk)) == 4

    def test_item_of_unrelated_user_does_not_touch_key(self, graph):
        Item = graph["Item"]
        cached = friends_items(graph["genie"])
        alice = graph["alice"]
        cached.evaluate(src_id=alice.pk)
        hits_before = cached.stats.cache_hits
        Item.objects.create(owner=graph["dave"], label="dave-item-2", rank=5)
        rows = cached.evaluate(src_id=alice.pk)
        assert len(rows) == 3
        assert cached.stats.cache_hits == hits_before + 1

    def test_deleting_item_removes_it(self, graph):
        Item = graph["Item"]
        cached = friends_items(graph["genie"])
        alice = graph["alice"]
        cached.evaluate(src_id=alice.pk)
        Item.objects.filter(label="bob-item-1").delete()
        assert {r["label"] for r in cached.evaluate(src_id=alice.pk)} == {
            "bob-item-2", "carol-item-1"}

    def test_new_edge_refreshes_base_key(self, graph):
        Edge = graph["Edge"]
        cached = friends_items(graph["genie"])
        alice, dave = graph["alice"], graph["dave"]
        cached.evaluate(src_id=alice.pk)
        Edge.objects.create(src=alice, dst=dave)
        labels = {r["label"] for r in cached.evaluate(src_id=alice.pk)}
        assert "dave-item-1" in labels

    def test_invalidate_strategy_drops_affected_key(self, graph):
        Item = graph["Item"]
        cached = friends_items(graph["genie"], name="followed_items_inval",
                               update_strategy=INVALIDATE)
        alice = graph["alice"]
        cached.evaluate(src_id=alice.pk)
        Item.objects.create(owner=graph["carol"], label="carol-item-2", rank=6)
        assert cached.peek(src_id=alice.pk) is None
        assert len(cached.evaluate(src_id=alice.pk)) == 4

    def test_affected_keys_walks_chain_backwards(self, graph):
        cached = friends_items(graph["genie"], name="affected_keys_probe")
        alice, dave, bob = graph["alice"], graph["dave"], graph["bob"]
        item_row = {"id": 999, "owner_id": bob.pk, "label": "x", "rank": 0}
        keys = cached.affected_keys("item", item_row)
        expected = {cached.make_key(src_id=alice.pk), cached.make_key(src_id=dave.pk)}
        assert set(keys) == expected
