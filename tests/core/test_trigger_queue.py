"""TriggerOpQueue: coalescing, commit-time and per-operation flush,
abort-discard, txn2pl."""

from __future__ import annotations

import pytest

from repro.core import (CacheGenie, TransactionalCacheSession, TriggerOpQueue,
                        TwoPhaseLockingCoordinator)
from repro.core.cache_classes.base import evaluate_many
from repro.core.stats import CachedObjectStats
from repro.memcache import CacheClient, CacheServer
from repro.obs import hooks
from repro.storage.costmodel import Recorder
from tests.helpers import SpanLog, database_rows


class FakeOwner:
    """Stats-bearing stand-in for a cached object."""

    def __init__(self) -> None:
        self.stats = CachedObjectStats()


@pytest.fixture
def cache():
    server = CacheServer("queue-cache")
    return CacheClient([server], recorder=Recorder(), from_trigger=True), server


class TestQueueCoalescing:
    def test_mutations_to_same_key_chain_into_one_op(self, cache):
        client, server = cache
        client.set("n", 10)
        queue = TriggerOpQueue(client, per_operation=False)
        owner = FakeOwner()
        for _ in range(5):
            queue.enqueue_mutate(owner, "n", lambda v: v + 1)
        assert queue.context.pending_keys() == frozenset({"n"})
        assert queue.coalesced == 4
        gets_before, sets_before = server.stats.gets, server.stats.sets
        assert queue.flush() == 1
        # One batched read + one batched write for the whole chain.
        assert server.stats.gets - gets_before == 1
        assert server.stats.sets - sets_before == 1
        assert client.get("n") == 15
        assert owner.stats.updates_applied == 1

    def test_delete_wins_over_pending_mutations(self, cache):
        client, _server = cache
        client.set("k", [1])
        queue = TriggerOpQueue(client, per_operation=False)
        owner = FakeOwner()
        queue.enqueue_mutate(owner, "k", lambda v: v + [2])
        queue.enqueue_delete(owner, "k")
        # A mutation arriving after the delete is absorbed: the eager path
        # would find the key gone and quit.
        queue.enqueue_mutate(owner, "k", lambda v: v + [3])
        assert queue.context.pending_keys() == frozenset({"k"})
        queue.flush()
        assert client.get("k") is None
        assert owner.stats.invalidations == 1
        assert owner.stats.updates_applied == 0

    def test_absent_key_quits_like_the_eager_trigger(self, cache):
        client, server = cache
        queue = TriggerOpQueue(client, per_operation=False)
        owner = FakeOwner()
        queue.enqueue_mutate(owner, "never-cached", lambda v: v + 1)
        sets_before = server.stats.sets
        queue.flush()
        assert server.stats.sets == sets_before
        assert owner.stats.updates_applied == 0

    def test_mutation_returning_none_leaves_entry_untouched(self, cache):
        client, _server = cache
        client.set("k", "original")
        queue = TriggerOpQueue(client, per_operation=False)
        queue.enqueue_mutate(FakeOwner(), "k", lambda v: None)
        queue.flush()
        assert client.get("k") == "original"

    def test_late_noop_mutation_keeps_earlier_chain_results(self, cache):
        """A None mid-chain is a per-op no-op, not a chain abort.

        Eager semantics: the first trigger writes its value via CAS, the
        second finds nothing to change and quits — the first write survives.
        """
        client, _server = cache
        client.set("rows", [1, 2, 3])
        queue = TriggerOpQueue(client, per_operation=False)
        owner = FakeOwner()
        queue.enqueue_mutate(owner, "rows", lambda rows: [10, 20])
        queue.enqueue_mutate(owner, "rows", lambda rows: None)  # nothing to do
        queue.enqueue_mutate(owner, "rows", lambda rows: rows + [30])
        queue.flush()
        assert client.get("rows") == [10, 20, 30]
        assert owner.stats.updates_applied == 1

    def test_discard_drops_everything_without_touching_cache(self, cache):
        client, server = cache
        client.set("k", 1)
        queue = TriggerOpQueue(client, per_operation=False)
        queue.enqueue_mutate(FakeOwner(), "k", lambda v: v + 1)
        queue.enqueue_delete(FakeOwner(), "other")
        deletes_before = server.stats.deletes
        assert queue.discard() == 2
        assert not queue.context.pending_keys()
        assert queue.flush() == 0
        assert client.get("k") == 1
        # No queued delete ever reached the server.
        assert server.stats.deletes == deletes_before
        assert queue.discarded == 2

    def test_flush_is_reentrancy_safe(self, cache):
        client, _server = cache
        client.set("a", 1)
        queue = TriggerOpQueue(client, per_operation=False)

        def mutate(value):
            # A recompute-from-db mutation can commit read statements, which
            # fires the on_commit hook and re-enters flush(); it must no-op.
            assert queue.flush() == 0
            return value + 1

        queue.enqueue_mutate(FakeOwner(), "a", mutate)
        assert queue.flush() == 1
        assert client.get("a") == 2


class TestPerOperationFlush:
    def test_each_enqueue_flushes_at_once(self, cache):
        """The eager mode: every enqueue is its own flush, so nothing
        coalesces and an abort has nothing to discard."""
        client, _server = cache
        client.set("n", 1)
        queue = TriggerOpQueue(client, per_operation=True)
        owner = FakeOwner()
        queue.enqueue_mutate(owner, "n", lambda v: v + 1)
        assert client.get("n") == 2
        assert not queue.context.pending_keys()
        queue.enqueue_mutate(owner, "n", lambda v: v + 1)
        queue.enqueue_delete(owner, "n")
        assert client.get("n") is None
        assert owner.stats.updates_applied == 2
        assert owner.stats.invalidations == 1
        assert queue.coalesced == 0
        assert queue.discard() == 0


class TestGenieCommitTimeBatching:
    @pytest.fixture(params=[True, False], ids=["at-commit", "per-operation"])
    def batched(self, request, stack):
        """Rebuild the conftest stack's genie with its trigger-op queue
        flushed at commit, or right after each enqueued operation (the
        eager mode)."""
        stack["genie"].deactivate()
        servers = [CacheServer("bq0", capacity_bytes=8 * 1024 * 1024),
                   CacheServer("bq1", capacity_bytes=8 * 1024 * 1024)]
        genie = CacheGenie(registry=stack["registry"],
                           database=stack["database"],
                           cache_servers=servers,
                           batch_trigger_ops=request.param).activate()
        stack["genie"] = genie
        stack["servers"] = servers
        yield stack
        genie.deactivate()

    @staticmethod
    def _server_ops(servers):
        return sum(s.stats.gets + s.stats.sets + s.stats.deletes for s in servers)

    def test_multi_row_transaction_one_op_per_distinct_key(self, batched):
        """Acceptance: N same-key rows in one txn -> one coalesced op at
        commit; flushed per operation, one op per row."""
        genie, db = batched["genie"], batched["database"]
        Person, Wall = batched["Person"], batched["Wall"]
        alice = Person(name="alice"); alice.save()
        counted = genie.cacheable(cache_class_type="CountQuery",
                                  main_model=Wall, where_fields=["person"])
        assert counted.evaluate(person=alice.pk) == 0  # warm the key
        recorder = db.recorder
        before = recorder.total.copy()
        ops_before = self._server_ops(batched["servers"])
        with hooks.subscribed(SpanLog("trigger:flush")) as flushes:
            with db.transaction():
                for i in range(6):
                    db.insert(Wall._meta.db_table,
                              {"person_id": alice.pk, "content": f"p{i}",
                               "posted": float(i)})
        delta = recorder.total
        if not genie.batch_trigger_ops:
            # Each firing flushed its own bump: a read and a write batch,
            # over a connection of its own.
            assert [args["pending"] for _, args in flushes.spans] == [1] * 6
            assert genie.trigger_op_queue.coalesced == 0
            assert self._server_ops(batched["servers"]) - ops_before == 12
            assert delta.trigger_cache_batches - before.trigger_cache_batches == 12
            assert delta.trigger_connections - before.trigger_connections == 6
            assert counted.evaluate(person=alice.pk) == 6
            return
        # Six trigger firings enqueued six bumps that coalesced to one key...
        assert [args["pending"] for _, args in flushes.spans] == [1]
        assert genie.trigger_op_queue.coalesced == 5
        # ...flushed as one read batch + one write batch (2 wire ops, not 6).
        assert self._server_ops(batched["servers"]) - ops_before == 2
        assert delta.trigger_cache_batches - before.trigger_cache_batches == 2
        # And the whole flush opened a single trigger-side connection.
        assert delta.trigger_connections - before.trigger_connections == 1
        assert counted.evaluate(person=alice.pk) == 6

    def test_autocommit_statement_flushes_immediately(self, batched):
        genie = batched["genie"]
        db = batched["database"]
        Person, Wall = batched["Person"], batched["Wall"]
        bob = Person(name="bob"); bob.save()
        counted = genie.cacheable(cache_class_type="CountQuery",
                                  main_model=Wall, where_fields=["person"])
        assert counted.evaluate(person=bob.pk) == 0
        db.insert(Wall._meta.db_table,
                  {"person_id": bob.pk, "content": "solo", "posted": 1.0})
        # No transaction block: the statement's implicit commit flushed.
        assert not genie.trigger_op_queue.context.pending_keys()
        assert counted.evaluate(person=bob.pk) == 1

    def test_abort_discards_queued_trigger_ops(self, batched):
        genie, db = batched["genie"], batched["database"]
        Person, Wall = batched["Person"], batched["Wall"]
        eve = Person(name="eve"); eve.save()
        counted = genie.cacheable(cache_class_type="CountQuery",
                                  main_model=Wall, where_fields=["person"])
        assert counted.evaluate(person=eve.pk) == 0
        at_commit = genie.batch_trigger_ops
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert(Wall._meta.db_table,
                          {"person_id": eve.pk, "content": "doomed", "posted": 9.0})
                assert len(genie.trigger_op_queue.context.pending_keys()) == \
                    (1 if at_commit else 0)
                raise RuntimeError("roll it back")
        assert not genie.trigger_op_queue.context.pending_keys()
        # At commit, the cache never saw the aborted bump.  Flushed per
        # operation, the bump landed before the abort: the paper's "dirty
        # but not stale" window leaves the dirty count behind.
        assert counted.evaluate(person=eve.pk) == (0 if at_commit else 1)
        assert database_rows(Wall, person_id=eve.pk) == []

    def test_invalidate_strategy_coalesces_deletes(self, batched):
        genie, db = batched["genie"], batched["database"]
        Person, Wall = batched["Person"], batched["Wall"]
        kim = Person(name="kim"); kim.save()
        cached = genie.cacheable(cache_class_type="FeatureQuery",
                                 main_model=Wall, where_fields=["person"],
                                 update_strategy="invalidate")
        cached.evaluate(person=kim.pk)
        before = db.recorder.total.copy()
        with db.transaction():
            for i in range(4):
                db.insert(Wall._meta.db_table,
                          {"person_id": kim.pk, "content": f"w{i}", "posted": float(i)})
        delta = db.recorder.total
        # Four invalidations of one key -> one delete batch at commit, or
        # one per row flushed per operation (the first removes the key).
        assert delta.trigger_cache_batches - before.trigger_cache_batches == \
            (1 if genie.batch_trigger_ops else 4)
        assert cached.stats.invalidations == 1

    def test_deactivate_unregisters_commit_hooks(self, batched):
        genie, db = batched["genie"], batched["database"]
        flush = genie.trigger_op_queue.flush
        assert flush in db.transactions.on_commit
        genie.deactivate()  # fixture teardown's second deactivate is a no-op
        assert genie.trigger_op_queue is None
        assert flush not in db.transactions.on_commit
        assert db.transactions.on_abort == []

    def test_reactivated_genie_propagates_through_a_fresh_queue(self, batched):
        genie, db = batched["genie"], batched["database"]
        Person, Wall = batched["Person"], batched["Wall"]
        genie.deactivate()
        genie.activate()
        queue = genie.trigger_op_queue
        assert queue is not None and queue.per_operation != genie.batch_trigger_ops
        assert db.transactions.on_commit.count(queue.flush) == 1
        ann = Person(name="ann"); ann.save()
        counted = genie.cacheable(cache_class_type="CountQuery",
                                  main_model=Wall, where_fields=["person"])
        assert counted.evaluate(person=ann.pk) == 0
        db.insert(Wall._meta.db_table,
                  {"person_id": ann.pk, "content": "back", "posted": 1.0})
        assert counted.peek(person=ann.pk) == 1


class TestEvaluateMany:
    def test_batched_evaluation_and_writeback(self, stack):
        genie, recorder = stack["genie"], stack["database"].recorder
        Person, Profile = stack["Person"], stack["Profile"]
        people = []
        for name in ("ann", "ben", "cal"):
            person = Person(name=name); person.save()
            Profile(person_id=person.pk, bio=f"bio of {name}").save()
            people.append(person)
        cached = genie.cacheable(cache_class_type="FeatureQuery",
                                 main_model=Profile, where_fields=["person"])
        before = recorder.total.copy()
        results = evaluate_many([(cached, {"person": p.pk}) for p in people])
        delta_multi = recorder.total.cache_multi_gets - before.cache_multi_gets
        assert [rows[0]["bio"] for rows in results] == \
            ["bio of ann", "bio of ben", "bio of cal"]
        assert delta_multi == 1  # one batch for the one server, not one per key
        assert cached.stats.cache_misses == 3
        # The write-back used set_multi; a second batch is all hits.
        results2 = evaluate_many([(cached, {"person": p.pk}) for p in people])
        assert results2 == results
        assert cached.stats.cache_hits == 3

    def test_duplicate_requests_share_one_computation(self, stack):
        genie = stack["genie"]
        Person, Wall = stack["Person"], stack["Wall"]
        person = Person(name="dot"); person.save()
        counted = genie.cacheable(cache_class_type="CountQuery",
                                  main_model=Wall, where_fields=["person"])
        results = evaluate_many([(counted, {"person": person.pk})] * 3)
        assert results == [0, 0, 0]
        assert counted.stats.db_fallbacks == 1
        assert counted.stats.cache_hits == 2

    def test_topk_presentation_trims_reserve_rows(self, stack):
        genie = stack["genie"]
        Person, Item = stack["Person"], stack["Item"]
        person = Person(name="eli"); person.save()
        for rank in range(8):
            Item(owner_id=person.pk, label=f"i{rank}", rank=rank).save()
        top = genie.cacheable(cache_class_type="TopKQuery",
                              main_model=Item, where_fields=["owner"],
                              sort_field="rank", k=3, reserve=4)
        (rows,) = evaluate_many([(top, {"owner": person.pk})])
        assert len(rows) == 3  # never the k + reserve backing list
        assert [r["rank"] for r in rows] == [7, 6, 5]
        assert rows == top.evaluate(owner=person.pk)

    def test_mixed_objects_share_one_round_trip(self, stack):
        genie, recorder = stack["genie"], stack["database"].recorder
        Person, Wall = stack["Person"], stack["Wall"]
        person = Person(name="fay"); person.save()
        counted = genie.cacheable(cache_class_type="CountQuery",
                                  main_model=Wall, where_fields=["person"])
        profile_like = genie.cacheable(cache_class_type="FeatureQuery",
                                       main_model=Person, where_fields=["id"])
        # Warm both, then batch across the two different cached objects.
        counted.evaluate(person=person.pk)
        profile_like.evaluate(id=person.pk)
        before = recorder.total.copy()
        count_value, person_rows = evaluate_many([
            (counted, {"person": person.pk}),
            (profile_like, {"id": person.pk}),
        ])
        assert count_value == 0
        assert person_rows[0]["name"] == "fay"
        assert recorder.total.cache_multi_gets - before.cache_multi_gets == 1
        assert recorder.total.cache_round_trips - before.cache_round_trips == 1


class TestTransactionalSessionQueue:
    def test_get_multi_acquires_read_locks(self):
        coordinator = TwoPhaseLockingCoordinator()
        client = CacheClient([CacheServer("2pl-cache")], recorder=Recorder())
        client.set("a", 1)
        session = TransactionalCacheSession(coordinator, client)
        found = session.get_multi(["a", "b"])
        assert found == {"a": 1}
        assert coordinator.readers_of("a") == {session.tid}
        assert coordinator.readers_of("b") == {session.tid}
        session.commit()

    def test_commit_flushes_and_abort_discards_op_queue(self):
        coordinator = TwoPhaseLockingCoordinator()
        client = CacheClient([CacheServer("2pl-cache")], recorder=Recorder())
        client.set("n", 5)
        queue = TriggerOpQueue(client, per_operation=False)
        session = TransactionalCacheSession(coordinator, client, op_queue=queue)
        queue.enqueue_mutate(FakeOwner(), "n", lambda v: v + 1)
        session.commit()
        assert client.get("n") == 6
        # Abort path: queued work vanishes with the transaction.
        queue2 = TriggerOpQueue(client, per_operation=False)
        session2 = TransactionalCacheSession(coordinator, client, op_queue=queue2)
        queue2.enqueue_mutate(FakeOwner(), "n", lambda v: v + 10)
        session2.abort()
        assert not queue2.context.pending_keys()
        assert client.get("n") == 6


class TestFlushCasRetries:
    """The flush's batched CAS: winners commit, losers re-read and retry."""

    def test_flush_writes_through_cas(self, cache):
        client, server = cache
        client.set("n", 1)
        queue = TriggerOpQueue(client, per_operation=False)
        queue.enqueue_mutate(FakeOwner(), "n", lambda v: v + 1)
        cas_before = server.stats.cas_ok
        queue.flush()
        assert client.get("n") == 2
        assert server.stats.cas_ok == cas_before + 1

    def test_contended_key_retries_only_the_loser(self, cache):
        client, server = cache
        client.set("w", 10)
        client.set("l", 10)
        queue = TriggerOpQueue(client, per_operation=False)
        owner = FakeOwner()
        sneaks = []

        def contended(value):
            # A concurrent writer rewrites "l" between the flush's batched
            # read and its batched CAS — but only the first time around.
            if not sneaks:
                sneaks.append(True)
                client.set("l", 100)
            return value + 1

        queue.enqueue_mutate(owner, "w", lambda v: v + 1)
        queue.enqueue_mutate(owner, "l", contended)
        gets_before = server.stats.gets
        queue.flush()
        # Round 1 read both keys; round 2 re-read only the loser.
        assert server.stats.gets - gets_before == 3
        # The winner committed once; the loser's chain re-applied to the
        # contending writer's value, not the stale snapshot.
        assert client.get("w") == 11
        assert client.get("l") == 101
        assert owner.stats.updates_applied == 2
        assert owner.stats.cas_retries == 1
        assert queue.cas_fallbacks == 0

    def test_retries_exhausted_fall_back_to_invalidation(self, cache):
        client, _server = cache
        client.set("hot", 0)
        queue = TriggerOpQueue(client, per_operation=False, cas_max_retries=2)
        owner = FakeOwner()

        def always_contended(value):
            client.set("hot", value + 1000)  # every round loses the race
            return value + 1

        queue.enqueue_mutate(owner, "hot", always_contended)
        queue.flush()
        # No stale value survives: the unwinnable key was invalidated.
        assert client.get("hot") is None
        assert owner.stats.invalidations == 1
        assert owner.stats.updates_applied == 0
        assert owner.stats.cas_retries == 2
        assert queue.cas_fallbacks == 1

    def test_oversized_result_invalidates_without_burning_retries(self, cache):
        server0 = CacheServer("tiny", max_item_bytes=256)
        client = CacheClient([server0], recorder=Recorder(), from_trigger=True)
        client.set("k", "seed")
        queue = TriggerOpQueue(client, per_operation=False)
        owner = FakeOwner()
        queue.enqueue_mutate(owner, "k", lambda v: "x" * 1024)
        gets_before = server0.stats.gets
        queue.flush()
        # One read round only: too-large skips straight to invalidation.
        assert server0.stats.gets - gets_before == 1
        assert owner.stats.cas_retries == 0
        assert queue.cas_fallbacks == 1
        assert client.get("k") is None
        assert owner.stats.invalidations == 1

    def test_key_vanishing_mid_flush_falls_back_to_invalidation(self, cache):
        client, _server = cache
        client.set("gone", 1)
        queue = TriggerOpQueue(client, per_operation=False)
        owner = FakeOwner()

        def deletes_underneath(value):
            client.delete("gone")
            return value + 1

        queue.enqueue_mutate(owner, "gone", deletes_underneath)
        queue.flush()
        # CAS_MISSING: the entry vanished mid-flush.  No retry (a fresh
        # read cannot resurrect the token), but the safety-net invalidation
        # fires — on a live node it is a no-op delete, and when the verdict
        # comes from a *dead* node it forwards the delete to the gutter so
        # no fallback copy outlives the mutation.
        assert client.get("gone") is None
        assert owner.stats.updates_applied == 0
        assert owner.stats.cas_retries == 0
        assert queue.cas_fallbacks == 1
        # The key was already gone, so the fallback credits no invalidation.
        assert owner.stats.invalidations == 0

    def test_interrupted_flush_invalidates_every_key(self, cache):
        """The transaction has committed by the time its ops flush: a flush
        that cannot finish must not leave the keys it was updating stale."""
        client, _server = cache
        client.set("a", 1)
        client.set("b", 2)
        queue = TriggerOpQueue(client, per_operation=False)
        owner = FakeOwner()

        def explodes(value):
            raise RuntimeError("mutation exploded")

        queue.enqueue_mutate(owner, "a", lambda v: v + 1)
        queue.enqueue_mutate(owner, "b", explodes)
        with pytest.raises(RuntimeError, match="mutation exploded"):
            queue.flush()
        assert client.get("a") is None and client.get("b") is None
        assert queue.cas_fallbacks == 2
        assert owner.stats.invalidations == 2
        assert not queue.context.pending_keys() and not queue.context.flushing


class TestWorkerContexts:
    def test_ops_enqueue_and_flush_per_context(self, cache):
        client, _server = cache
        client.set("a", 1)
        client.set("b", 2)
        queue = TriggerOpQueue(client, per_operation=False)
        serial, worker = queue.context, queue.open_context()
        owner = FakeOwner()
        queue.enqueue_mutate(owner, "a", lambda v: v + 1)
        queue.context = worker
        assert not queue.context.pending_keys()  # w1 starts with its own empty space
        queue.enqueue_mutate(owner, "b", lambda v: v + 10)
        assert queue.context.pending_keys() == frozenset({"b"})
        assert worker.pending_keys() == frozenset({"b"})
        assert queue.flush() == 1  # flushes only w1's op
        assert client.get("b") == 12
        assert client.get("a") == 1  # the serial context's op is untouched
        queue.context = serial
        assert queue.context.pending_keys() == frozenset({"a"})
        assert queue.flush() == 1
        assert client.get("a") == 2
        assert queue.enqueued == 2

    def test_close_context_discards_pending_ops(self, cache):
        client, _server = cache
        queue = TriggerOpQueue(client, per_operation=False)
        serial, worker = queue.context, queue.open_context()
        owner = FakeOwner()
        queue.context = worker
        queue.enqueue_delete(owner, "k")
        assert worker.pending_keys() == frozenset({"k"})
        queue.context = serial
        assert queue.close_context(worker) == 1
        assert queue.discarded == 1
        assert worker.pending_keys() == frozenset()


class TestInterleavedFlushContention:
    def test_interleaved_flushes_contend_and_retry(self, cache):
        """Deterministic recreation of the concurrent-replay CAS race: B's
        commit lands between A's gets_multi and cas_multi, so A's token goes
        stale, loses the swap, and pays a retry round."""
        client, _server = cache
        client.set("n", 100)
        queue = TriggerOpQueue(client, per_operation=False)
        a, b = queue.context, queue.open_context()
        owner = FakeOwner()
        queue.enqueue_mutate(owner, "n", lambda v: v + 1)       # context A
        queue.context = b
        queue.enqueue_mutate(owner, "n", lambda v: v + 10)      # context B
        queue.context = a

        fired = []

        def checkpoint(label):
            if label == "cache:gets_multi" and not fired:
                fired.append(label)
                queue.context = b
                queue.flush()  # B commits while A still holds its token
                queue.context = a

        with hooks.subscribed(hooks.OnPause(checkpoint)):
            assert queue.flush() == 1
        # Both transactions' mutations landed, in commit order (B then A).
        assert client.get("n") == 111
        assert owner.stats.cas_retries == 1
        assert client.recorder.total.cas_multi_mismatch == 1
        assert client.recorder.total.cas_retry_rounds == 1

    def test_suspended_flush_flag_is_per_context(self, cache):
        client, _server = cache
        client.set("x", 1)
        queue = TriggerOpQueue(client, per_operation=False)
        a, b = queue.context, queue.open_context()
        owner = FakeOwner()
        queue.enqueue_mutate(owner, "x", lambda v: v + 1)
        flushed_inside = []

        def checkpoint(label):
            if label == "cache:gets_multi" and not flushed_inside:
                # While A's flush is suspended, B's context must not see
                # itself as "already flushing".
                assert a.flushing and not b.flushing
                queue.context = b
                queue.enqueue_delete(owner, "y")
                flushed_inside.append(queue.flush())
                queue.context = a

        with hooks.subscribed(hooks.OnPause(checkpoint)):
            queue.flush()
        assert flushed_inside == [1]
        assert not a.flushing
