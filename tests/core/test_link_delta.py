"""A LinkQuery change anywhere in its chain is patched from the change
itself, in both propagation modes: the keys come from walking the chain
back to its base rows, and the rows from walking it forward, so no key is
ever decoded back into its parameters.

Keyed by a person's *name*, a key is built from a base row's value; a new
edge reaches it through the walk back and adds the person it leads to.
"""

from __future__ import annotations

import pytest

from repro.core import CacheGenie, ChainStep


@pytest.mark.parametrize("batched", [False, True], ids=["eager", "flush"])
def test_a_key_by_a_name_is_patched_not_recomputed(stack, batched):
    Person, Edge = stack["Person"], stack["Edge"]
    genie = CacheGenie(registry=stack["registry"], database=stack["database"],
                       cache_servers=[stack["cache_server"]],
                       batch_trigger_ops=batched).activate()
    try:
        followees = genie.cacheable(
            cache_class_type="LinkQuery", name="followees_by_name",
            main_model="Person", where_fields=["name"],
            chain=[ChainStep.reverse("Edge", "src"), ChainStep.forward("dst")],
            use_transparently=False)
        alice = Person.objects.create(name="alice")
        bob = Person.objects.create(name="bob")
        assert followees.evaluate(name="alice") == []

        Edge.objects.create(src=alice, dst=bob)
        assert [row["name"] for row in followees.peek(name="alice")] == ["bob"]
        Edge.objects.create(src=alice, dst=bob)     # the edge twice: bob twice
        assert [row["name"] for row in followees.peek(name="alice")] == \
            ["bob", "bob"]
        Edge.objects.filter(src_id=alice.pk).first().delete()
        assert [row["name"] for row in followees.peek(name="alice")] == ["bob"]

        assert followees.stats.updates_applied == 3
        assert followees.stats.invalidations == 0
        assert followees.stats.recomputations == 0
    finally:
        genie.deactivate()
        stack["genie"].activate()
