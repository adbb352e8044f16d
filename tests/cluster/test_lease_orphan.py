"""A dead lease holder must not block the refresh pipeline.

The satellite scenario of the cluster-dynamics issue: a worker claims the
refresh window for a leased key (stale read schedules the recompute), then
the node owning that key is killed.  The claim is orphaned — completing it
would write to a dead node while its existence keeps every other reader from
re-claiming — so :meth:`ClusterController.kill` drops it, surviving readers
recompute without blocking, and once the node is back a fresh claim wins the
window within one refresh cycle.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cluster import ClusterController
from repro.core import CacheGenie, LeasedInvalidateStrategy
from repro.memcache import CacheServer
from repro.orm import CharField, ForeignKey, IntegerField, Model, Registry

_COUNTER = itertools.count()


class MutableClock:
    def __init__(self, start: float = 0.0) -> None:
        self.t = start

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def cluster_stack():
    reg = Registry(f"cluster{next(_COUNTER)}")

    class Person(Model):
        name = CharField(max_length=60)

        class Meta:
            registry = reg

    class Item(Model):
        owner = ForeignKey(Person)
        label = CharField(max_length=60)
        rank = IntegerField(default=0)

        class Meta:
            registry = reg

    from repro.storage import Database
    database = Database(buffer_pool_pages=256)
    reg.bind(database)
    reg.create_all()
    clock = MutableClock()
    servers = [CacheServer("cache0", clock=clock),
               CacheServer("cache1", clock=clock)]
    genie = CacheGenie(registry=reg, database=database,
                       cache_servers=servers).activate()
    controller = ClusterController([genie.app_cache, genie.trigger_cache],
                                   servers, clock, genie=genie)
    yield {
        "registry": reg, "database": database, "genie": genie,
        "Person": Person, "Item": Item, "controller": controller,
        "clock": clock,
    }
    genie.deactivate()


def _owner_on(stack, node):
    """Create owners until one's cached count key routes to ``node``."""
    genie, controller = stack["genie"], stack["controller"]
    strategy = LeasedInvalidateStrategy(lease_seconds=1000.0)
    cached = genie.cacheable(cache_class_type="CountQuery",
                             main_model="Item", where_fields=["owner_id"],
                             update_strategy=strategy)
    for i in range(64):
        owner = stack["Person"].objects.create(name=f"p{i}")
        key = cached.make_key(owner_id=owner.pk)
        if controller.ring.server_for(key) == node:
            return cached, owner, key
    raise AssertionError(f"no probe key routed to {node}")  # pragma: no cover


class TestDeadLeaseHolder:
    def test_kill_drops_the_claim_and_a_new_claimant_wins(self, cluster_stack):
        genie = cluster_stack["genie"]
        controller = cluster_stack["controller"]
        queue = genie.refresh_queue
        # Keep scheduled refreshes pending so the claim is live at the kill.
        queue.delay_seconds = 1e9
        cached, owner, key = _owner_on(cluster_stack, "cache1")
        Item = cluster_stack["Item"]

        Item.objects.create(owner=owner, label="seed")
        assert cached.evaluate(owner_id=owner.pk) == 1
        # A write lease-deletes the key; the stale value is retained.
        Item.objects.create(owner=owner, label="second")

        # Worker 0 reads stale and claims the refresh window.
        genie.app_cache.current_worker = 0
        assert cached.evaluate(owner_id=owner.pk) == 1
        assert queue.pending_keys() == [key]

        # Worker 1 is locked out of the window while the claim is live.
        genie.app_cache.current_worker = 1
        assert cached.evaluate(owner_id=owner.pk) == 1
        assert queue.scheduled == 1
        assert genie.recorder.total.lease_contended == 1
        assert controller.server("cache1").stats.lease_contended == 1

        # The claimant's node dies: the claim is dropped with it.
        event = controller.kill("cache1")
        assert queue.pending_keys() == []
        assert event.details["orphaned_claims_dropped"] == 1
        assert controller.counters()["orphaned_claims_dropped"] == 1

        # Worker 1 is not blocked by the dead holder: its next read
        # degrades to a synchronous recompute (no gutter attached) and
        # still observes the fresh count.
        assert cached.evaluate(owner_id=owner.pk) == 2
        assert queue.scheduled == 1     # no refresh against a dead node

        # Node returns (empty), the key is recomputed and re-written...
        controller.revive("cache1")
        assert cached.evaluate(owner_id=owner.pk) == 2
        # ...and the next stale window is claimable again: a new claimant
        # wins and its refresh completes within one cycle.
        Item.objects.create(owner=owner, label="third")
        genie.app_cache.current_worker = 0
        assert cached.evaluate(owner_id=owner.pk) == 2   # stale, new claim
        assert queue.scheduled == 2
        assert queue.pending_keys() == [key]
        assert queue.drain(now=float("inf")) == 1
        assert cached.peek(owner_id=owner.pk) == 3
        genie.app_cache.current_worker = None

    def test_parked_worker_contexts_are_swept_too(self, cluster_stack):
        genie = cluster_stack["genie"]
        controller = cluster_stack["controller"]
        queue = genie.refresh_queue
        queue.delay_seconds = 1e9
        cached, owner, key = _owner_on(cluster_stack, "cache1")
        Item = cluster_stack["Item"]
        Item.objects.create(owner=owner, label="seed")
        assert cached.evaluate(owner_id=owner.pk) == 1
        Item.objects.create(owner=owner, label="second")

        # The claim is scheduled inside a worker's own refresh context and
        # the worker then parks (a paused replay thread).
        serial, worker = queue.context, queue.open_context()
        queue.context = worker
        assert cached.evaluate(owner_id=owner.pk) == 1
        assert queue.pending_keys() == [key]
        queue.context = serial
        assert queue.pending_keys() == []     # claim parked with worker 0

        event = controller.kill("cache1")
        assert event.details["orphaned_claims_dropped"] == 1
        assert not worker.pending             # swept while parked
        queue.close_context(worker)
