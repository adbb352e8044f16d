"""A LinkQuery key that does not decode back to its parameters is
invalidated, through the one-key invalidation, in both propagation modes.

A change to a base or intermediate chain table recomputes each affected key
from parameters decoded out of the key itself; only integer where-values
decode.  Keyed by a person's *name*, the key cannot be decoded, so the
write must drop it instead — eagerly as one ``delete``, or queued and
flushed at commit.
"""

from __future__ import annotations

import pytest

from repro.core import CacheGenie, ChainStep


@pytest.mark.parametrize("batched", [False, True], ids=["eager", "flush"])
def test_an_undecodable_key_is_invalidated(stack, batched):
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

        before = genie.recorder.total.as_dict()
        Edge.objects.create(src=alice, dst=bob)
        after = genie.recorder.total.as_dict()

        assert followees.peek(name="alice") is None
        assert followees.stats.invalidations == 1
        assert followees.stats.recomputations == 0
        trigger_round_trips = (after["trigger_cache_ops"]
                               - before["trigger_cache_ops"]
                               + after["trigger_cache_batches"]
                               - before["trigger_cache_batches"])
        assert trigger_round_trips == 1     # the delete, and nothing else
        assert [row["name"] for row in followees.evaluate(name="alice")] == \
            ["bob"]
    finally:
        genie.deactivate()
        stack["genie"].activate()
