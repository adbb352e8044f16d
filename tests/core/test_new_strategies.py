"""Behavior tests for the two new strategies: leased invalidation and
async-refresh (stale-while-revalidate), driven by a controllable clock."""

import itertools

import pytest

from repro.core import (AsyncRefreshStrategy, CacheGenie,
                        LeasedInvalidateStrategy)
from repro.core.cache_classes.base import evaluate_many
from repro.memcache import CacheServer
from repro.orm import CharField, ForeignKey, IntegerField, Model, Registry
from repro.sim import VirtualClock
from repro.storage import Database

_COUNTER = itertools.count()


@pytest.fixture
def timed_stack():
    """Registry + database + genie whose cache servers run on a VirtualClock."""
    reg = Registry(f"timed{next(_COUNTER)}")

    class Owner(Model):
        name = CharField(max_length=40)

        class Meta:
            registry = reg

    class Note(Model):
        owner = ForeignKey(Owner)
        body = CharField(max_length=80)
        score = IntegerField(default=0)

        class Meta:
            registry = reg

    clock = VirtualClock()
    database = Database(buffer_pool_pages=128)
    reg.bind(database)
    reg.create_all()
    servers = [CacheServer("timed-cache", capacity_bytes=4 * 1024 * 1024,
                           clock=clock)]
    genie = CacheGenie(registry=reg, database=database,
                       cache_servers=servers).activate()
    yield {"registry": reg, "database": database, "genie": genie,
           "Owner": Owner, "Note": Note, "clock": clock,
           "server": servers[0]}
    genie.deactivate()


class TestLeasedInvalidation:
    def _cached_count(self, stack, **kwargs):
        return stack["genie"].cacheable(
            cache_class_type="CountQuery", main_model="Note",
            where_fields=["owner_id"], name="leased_count",
            update_strategy=LeasedInvalidateStrategy(lease_seconds=5.0),
            **kwargs)

    def test_write_retains_stale_value_and_one_reader_refreshes(self, timed_stack):
        stack = timed_stack
        Owner, Note = stack["Owner"], stack["Note"]
        cached = self._cached_count(stack)
        owner = Owner.objects.create(name="ada")
        Note.objects.create(owner=owner, body="n1")
        assert cached.evaluate(owner_id=owner.pk) == 1
        baseline_fallbacks = cached.stats.db_fallbacks

        # The write invalidates, but the value is retained as stale.
        Note.objects.create(owner=owner, body="n2")
        stack["clock"].advance(0.5)
        # First stale read: served the old value, schedules ONE refresh.
        assert cached.evaluate(owner_id=owner.pk) == 1
        assert cached.stats.stale_served == 1
        assert cached.stats.db_fallbacks == baseline_fallbacks
        assert stack["genie"].refresh_queue.pending_count == 1
        # The background refresh lands on the next cache activity; reads are
        # fresh again without any blocking fallback.
        assert cached.evaluate(owner_id=owner.pk) == 2
        assert cached.stats.recomputations == 1
        assert cached.stats.db_fallbacks == baseline_fallbacks

    def test_token_rate_limit_bounds_recomputes_per_window(self, timed_stack):
        stack = timed_stack
        Owner, Note = stack["Owner"], stack["Note"]
        cached = self._cached_count(stack)
        owner = Owner.objects.create(name="bo")
        assert cached.evaluate(owner_id=owner.pk) == 0

        # Three write/read alternations inside one 5s lease window: plain
        # invalidation would recompute three times; the lease rate limit
        # allows exactly one.
        for step in range(3):
            Note.objects.create(owner=owner, body=f"n{step}")
            stack["clock"].advance(1.0)
            cached.evaluate(owner_id=owner.pk)
        assert cached.stats.recomputations == 1
        assert cached.stats.stale_served >= 2
        # Past the window a new token is issued and the value converges.
        stack["clock"].advance(5.0)
        cached.evaluate(owner_id=owner.pk)
        cached.evaluate(owner_id=owner.pk)
        assert cached.evaluate(owner_id=owner.pk) == 3

    def test_stale_retention_expires_to_a_hard_miss(self, timed_stack):
        stack = timed_stack
        Owner, Note = stack["Owner"], stack["Note"]
        cached = stack["genie"].cacheable(
            cache_class_type="CountQuery", main_model="Note",
            where_fields=["owner_id"], name="leased_count",
            update_strategy=LeasedInvalidateStrategy(lease_seconds=2.0))
        owner = Owner.objects.create(name="cy")
        assert cached.evaluate(owner_id=owner.pk) == 0
        Note.objects.create(owner=owner, body="n")
        before = cached.stats.db_fallbacks
        # Past the stale retention window nothing is servable: the read is a
        # classic blocking miss and repopulates the key.
        stack["clock"].advance(10.0)
        assert cached.evaluate(owner_id=owner.pk) == 1
        assert cached.stats.db_fallbacks == before + 1
        assert cached.stats.stale_served == 0

    def test_batched_flush_uses_lease_delete_multi(self, timed_stack):
        stack = timed_stack
        Owner, Note = stack["Owner"], stack["Note"]
        cached = self._cached_count(stack)
        owner = Owner.objects.create(name="di")
        cached.evaluate(owner_id=owner.pk)
        server = stack["server"]
        before = server.stats.lease_deletes
        Note.objects.create(owner=owner, body="n")
        assert server.stats.lease_deletes == before + 1
        # The retained value is immediately servable as stale.
        state, value, _token = server.lease(cached.make_key(owner_id=owner.pk),
                                            5.0)
        assert state in ("acquired", "stale")
        assert value == 0


class TestAsyncRefresh:
    def _cached_rows(self, stack):
        return stack["genie"].cacheable(
            cache_class_type="FeatureQuery", main_model="Note",
            where_fields=["owner_id"], name="async_rows",
            update_strategy=AsyncRefreshStrategy(refresh_seconds=10.0))

    def test_no_triggers_installed(self, timed_stack):
        self._cached_rows(timed_stack)
        assert timed_stack["genie"].trigger_count == 0

    def test_fresh_reads_hit_without_refresh(self, timed_stack):
        stack = timed_stack
        Owner, Note = stack["Owner"], stack["Note"]
        cached = self._cached_rows(stack)
        owner = Owner.objects.create(name="em")
        Note.objects.create(owner=owner, body="n1")
        assert len(cached.evaluate(owner_id=owner.pk)) == 1
        stack["clock"].advance(5.0)  # still inside the freshness window
        assert len(cached.evaluate(owner_id=owner.pk)) == 1
        assert cached.stats.stale_served == 0
        assert stack["genie"].refresh_queue.pending_count == 0

    def test_stale_read_serves_and_refreshes_once(self, timed_stack):
        stack = timed_stack
        Owner, Note = stack["Owner"], stack["Note"]
        cached = self._cached_rows(stack)
        owner = Owner.objects.create(name="fi")
        Note.objects.create(owner=owner, body="n1")
        cached.evaluate(owner_id=owner.pk)
        Note.objects.create(owner=owner, body="n2")  # no triggers: cache unaware
        before = cached.stats.db_fallbacks

        stack["clock"].advance(11.0)  # past the freshness deadline
        stale = cached.evaluate(owner_id=owner.pk)
        assert len(stale) == 1                      # served the stale rows
        assert cached.stats.stale_served == 1
        assert cached.stats.db_fallbacks == before  # nothing blocked
        # One background recompute refreshes the entry for the next read.
        fresh = cached.evaluate(owner_id=owner.pk)
        assert len(fresh) == 2
        assert cached.stats.recomputations == 1

    def test_peek_unwraps_the_envelope(self, timed_stack):
        stack = timed_stack
        Owner, Note = stack["Owner"], stack["Note"]
        cached = self._cached_rows(stack)
        owner = Owner.objects.create(name="gus")
        Note.objects.create(owner=owner, body="n1")
        cached.evaluate(owner_id=owner.pk)
        peeked = cached.peek(owner_id=owner.pk)
        assert isinstance(peeked, list) and len(peeked) == 1

    def test_hard_ttl_ages_the_entry_out(self, timed_stack):
        stack = timed_stack
        Owner, Note = stack["Owner"], stack["Note"]
        cached = stack["genie"].cacheable(
            cache_class_type="FeatureQuery", main_model="Note",
            where_fields=["owner_id"], name="async_rows",
            update_strategy=AsyncRefreshStrategy(refresh_seconds=2.0))
        owner = Owner.objects.create(name="hal")
        Note.objects.create(owner=owner, body="n1")
        cached.evaluate(owner_id=owner.pk)
        before = cached.stats.db_fallbacks
        stack["clock"].advance(100.0)  # way past refresh + grace
        assert cached.peek(owner_id=owner.pk) is None
        cached.evaluate(owner_id=owner.pk)
        assert cached.stats.db_fallbacks == before + 1
        assert cached.stats.stale_served == 0

    def test_removing_the_object_drops_its_pending_refreshes(self, timed_stack):
        """A refresh must not outlive its declaration: it would recompute a
        dead query and repopulate a key whose triggers are gone."""
        stack = timed_stack
        Owner, Note = stack["Owner"], stack["Note"]
        cached = self._cached_rows(stack)
        owner = Owner.objects.create(name="hex")
        Note.objects.create(owner=owner, body="n1")
        cached.evaluate(owner_id=owner.pk)
        stack["clock"].advance(11.0)
        cached.evaluate(owner_id=owner.pk)           # stale: schedules refresh
        genie = stack["genie"]
        assert genie.refresh_queue.pending_count == 1
        genie.remove_cached_object("async_rows")
        assert genie.refresh_queue.pending_count == 0
        before = cached.stats.recomputations
        assert genie.run_pending_refreshes() == 0
        assert cached.stats.recomputations == before

    def test_batched_reads_serve_stale_and_schedule(self, timed_stack):
        stack = timed_stack
        Owner, Note = stack["Owner"], stack["Note"]
        cached = self._cached_rows(stack)
        owner = Owner.objects.create(name="io")
        Note.objects.create(owner=owner, body="n1")
        cached.evaluate(owner_id=owner.pk)
        stack["clock"].advance(11.0)
        results = evaluate_many([(cached, {"owner_id": owner.pk})])
        assert len(results[0]) == 1
        assert cached.stats.stale_served == 1
        assert stack["genie"].refresh_queue.pending_count == 1
