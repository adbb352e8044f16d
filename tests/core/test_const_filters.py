"""Const-filter support: constants alongside Param in cacheable templates.

Covers declaration (queryset-native folding), cache-key separation, database
computation, trigger row gating (rows outside the constant subset must not
touch the cache), boundary-crossing updates, and transparent interception.
"""

import pytest

from repro.core import Param
from repro.errors import CacheClassError


@pytest.fixture
def const_stack(stack):
    """The core stack plus a status-carrying model declared on its registry."""
    # Reuse Item (owner, label, rank): treat rank as the constant dimension.
    return stack


class TestDeclaration:
    def test_queryset_consts_fold_into_the_object(self, const_stack):
        genie = const_stack["genie"]
        Item = const_stack["Item"]
        cached = genie.cacheable(
            Item.objects.filter(owner_id=Param("owner_id"), rank=3),
            name="rank3_items")
        assert cached.const_filters == {"rank": 3}
        assert cached.where_fields == ["owner_id"]
        assert ("rank", 3) in cached.template.const_filters

    def test_same_params_different_consts_are_distinct_shapes(self, const_stack):
        genie = const_stack["genie"]
        Item = const_stack["Item"]
        genie.cacheable(Item.objects.filter(owner_id=Param("o"), rank=1),
                        name="rank1")
        cached2 = genie.cacheable(Item.objects.filter(owner_id=Param("o"), rank=2),
                                  name="rank2")
        assert cached2.name in genie.cached_objects
        # A third duplicate of an existing (params, consts) shape still fails.
        with pytest.raises(CacheClassError, match="same query shape"):
            genie.cacheable(Item.objects.filter(owner_id=Param("o"), rank=1),
                            name="rank1_again")

    def test_const_keyword_override_rejected_on_queryset_form(self, const_stack):
        genie = const_stack["genie"]
        Item = const_stack["Item"]
        with pytest.raises(CacheClassError, match="derived from the queryset"):
            genie.cacheable(Item.objects.filter(owner_id=Param("o"), rank=1),
                            name="bad", const_filters={"rank": 2})

    def test_keys_do_not_collide_across_const_values(self, const_stack):
        genie = const_stack["genie"]
        Item = const_stack["Item"]
        rank1 = genie.cacheable(Item.objects.filter(owner_id=Param("o"), rank=1),
                                name="rank1")
        rank2 = genie.cacheable(Item.objects.filter(owner_id=Param("o"), rank=2),
                                name="rank2")
        assert rank1.make_key(owner_id=7) != rank2.make_key(owner_id=7)


class TestEvaluationAndTriggers:
    def _setup(self, stack, **cacheable_kwargs):
        genie = stack["genie"]
        Person, Item = stack["Person"], stack["Item"]
        cached = genie.cacheable(
            Item.objects.filter(owner_id=Param("owner_id"), rank=1),
            name="rank1_items", **cacheable_kwargs)
        person = Person.objects.create(name="pat")
        Item.objects.create(owner=person, label="in-a", rank=1)
        Item.objects.create(owner=person, label="out", rank=2)
        return genie, cached, person

    def test_compute_applies_the_constant_predicate(self, const_stack):
        _genie, cached, person = self._setup(const_stack)
        rows = cached.evaluate(owner_id=person.pk)
        assert [r["label"] for r in rows] == ["in-a"]

    def test_out_of_scope_writes_do_not_touch_the_cache(self, const_stack):
        _genie, cached, person = self._setup(const_stack)
        Item = const_stack["Item"]
        cached.evaluate(owner_id=person.pk)
        before = dict(updates=cached.stats.updates_applied,
                      invalidations=cached.stats.invalidations)
        Item.objects.create(owner=person, label="out-2", rank=9)
        assert cached.stats.updates_applied == before["updates"]
        assert cached.stats.invalidations == before["invalidations"]
        assert [r["label"] for r in cached.peek(owner_id=person.pk)] == ["in-a"]

    def test_in_scope_insert_patches_the_entry(self, const_stack):
        _genie, cached, person = self._setup(const_stack)
        Item = const_stack["Item"]
        cached.evaluate(owner_id=person.pk)
        Item.objects.create(owner=person, label="in-b", rank=1)
        labels = sorted(r["label"] for r in cached.peek(owner_id=person.pk))
        assert labels == ["in-a", "in-b"]

    def test_boundary_crossing_update_behaves_as_insert_or_delete(self, const_stack):
        _genie, cached, person = self._setup(const_stack)
        Item = const_stack["Item"]
        cached.evaluate(owner_id=person.pk)
        # rank 2 -> 1: the row enters the cached subset.
        Item.objects.filter(owner_id=person.pk, rank=2).update(rank=1)
        labels = sorted(r["label"] for r in cached.peek(owner_id=person.pk))
        assert labels == ["in-a", "out"]
        # rank 1 -> 5 for one row: it leaves the subset again.
        Item.objects.filter(label="out").update(rank=5)
        labels = [r["label"] for r in cached.peek(owner_id=person.pk)]
        assert labels == ["in-a"]

    def test_invalidate_strategy_also_gated(self, const_stack):
        _genie, cached, person = self._setup(const_stack,
                                             update_strategy="invalidate")
        Item = const_stack["Item"]
        cached.evaluate(owner_id=person.pk)
        Item.objects.create(owner=person, label="out-3", rank=7)
        # Out-of-scope write: the entry must survive (no invalidation).
        assert cached.peek(owner_id=person.pk) is not None
        Item.objects.create(owner=person, label="in-c", rank=1)
        assert cached.peek(owner_id=person.pk) is None
        assert cached.stats.invalidations == 1

    def test_interception_requires_matching_constant(self, const_stack):
        genie, cached, person = self._setup(const_stack)
        Item = const_stack["Item"]
        cached.evaluate(owner_id=person.pk)
        hits_before = cached.stats.cache_hits
        rows = list(Item.objects.filter(owner_id=person.pk, rank=1))
        assert cached.stats.cache_hits == hits_before + 1
        assert len(rows) == 1
        # A different constant value must NOT be served from this object.
        rows2 = list(Item.objects.filter(owner_id=person.pk, rank=2))
        assert cached.stats.cache_hits == hits_before + 1
        assert [getattr(r, "label", r.get("label") if isinstance(r, dict) else None)
                for r in rows2] == ["out"]

    def test_count_with_const_filter(self, const_stack):
        genie = const_stack["genie"]
        Person, Item = const_stack["Person"], const_stack["Item"]
        cached = genie.cacheable(
            Item.objects.filter(owner_id=Param("owner_id"), rank=1).count(),
            name="rank1_count")
        person = Person.objects.create(name="quinn")
        Item.objects.create(owner=person, label="a", rank=1)
        Item.objects.create(owner=person, label="b", rank=2)
        assert cached.evaluate(owner_id=person.pk) == 1
        Item.objects.create(owner=person, label="c", rank=1)
        assert cached.evaluate(owner_id=person.pk) == 2
        Item.objects.create(owner=person, label="d", rank=3)   # out of scope
        assert cached.evaluate(owner_id=person.pk) == 2
