"""RefreshQueue under concurrent workers: one recompute per contended
lease window, and deterministic drain order under a fixed scheduler seed."""

from __future__ import annotations

import contextlib

import pytest

from repro.apps.social import SeedScale
from repro.bench.experiments import HOT_KEY_WORKLOAD, ablation_config
from repro.bench.scenarios import LEASED_SCENARIO, Scenario
from repro.core import CacheGenie, LeasedInvalidateStrategy
from repro.sim import ADVERSARIAL, ConcurrentReplayer
from repro.workload import WorkloadGenerator


@contextlib.contextmanager
def leased_scenario():
    config = ablation_config(LEASED_SCENARIO, SeedScale.tiny())
    scenario = Scenario(config).setup()
    try:
        yield scenario, config
    finally:
        scenario.teardown()


class TestOneRecomputePerContendedWindow:
    def test_loser_workers_do_not_schedule_a_second_refresh(self, stack):
        """Two workers race one key's lease window: exactly one background
        recompute is scheduled (by the token winner) and completed."""
        genie_default = stack["genie"]
        genie_default.deactivate()
        genie = CacheGenie(registry=stack["registry"],
                          database=stack["database"],
                          cache_servers=[stack["cache_server"]]).activate()
        try:
            # Keep the scheduled refresh pending during the race so the
            # loser's read really does find the window contended.
            genie.refresh_queue.delay_seconds = 1e9
            Item = stack["Item"]
            strategy = LeasedInvalidateStrategy(lease_seconds=1000.0,
                                                stale_seconds=1000.0)
            cached = genie.cacheable(cache_class_type="CountQuery",
                                     main_model="Item",
                                     where_fields=["owner_id"],
                                     update_strategy=strategy)
            owner = stack["Person"].objects.create(name="hot")
            Item.objects.create(owner=owner, label="seed")
            assert cached.evaluate(owner_id=owner.pk) == 1
            # A write lease-deletes the key (stale value retained).
            Item.objects.create(owner=owner, label="second")
            queue = genie.refresh_queue
            key = cached.make_key(owner_id=owner.pk)

            genie.app_cache.current_worker = 0
            assert cached.evaluate(owner_id=owner.pk) == 1  # stale served
            assert queue.scheduled == 1
            genie.app_cache.current_worker = 1
            assert cached.evaluate(owner_id=owner.pk) == 1  # stale, no token
            genie.app_cache.current_worker = 2
            assert cached.evaluate(owner_id=owner.pk) == 1
            # Exactly one pending recompute, however many losers piled on.
            assert queue.scheduled == 1
            assert queue.pending_keys() == [key]
            assert genie.recorder.total.lease_contended == 2
            assert stack["cache_server"].stats.lease_contended == 2
            assert stack["cache_server"].stats.herd_size_max == 3

            # The background worker runs once; everyone is fresh again.
            assert queue.drain(now=float("inf")) == 1
            assert queue.completed == 1
            assert queue.completed_log == [key]
            assert cached.stats.recomputations == 1
            assert cached.peek(owner_id=owner.pk) == 2
        finally:
            genie.app_cache.current_worker = None
            genie.deactivate()


class _StubObject:
    """Just enough of a CacheClass for RefreshQueue bookkeeping tests."""

    def __init__(self, name: str) -> None:
        self.name = name


def make_queue():
    from repro.core.refresh import RefreshQueue
    return RefreshQueue(clock=lambda: 0.0)


class TestWorkerContexts:
    def test_contexts_isolate_pending_refreshes(self):
        queue = make_queue()
        serial, worker = queue.context, queue.open_context()
        queue.schedule(_StubObject("a"), "k:shared", {})
        queue.context = worker
        assert queue.pending_keys() == []       # fresh per-worker backlog
        queue.schedule(_StubObject("b"), "k:worker0", {})
        queue.context = serial
        assert queue.pending_keys() == ["k:shared"]
        queue.context = worker                  # parked state comes back
        assert queue.pending_keys() == ["k:worker0"]

    def test_close_context_folds_back_and_coalesces(self):
        queue = make_queue()
        serial, worker = queue.context, queue.open_context()
        queue.schedule(_StubObject("a"), "k:shared", {})
        queue.context = worker
        queue.schedule(_StubObject("b"), "k:shared", {})   # duplicate
        queue.schedule(_StubObject("b"), "k:worker1", {})
        queue.context = serial
        coalesced_before = queue.coalesced
        assert queue.close_context(worker) == 1            # one adopted
        assert queue.coalesced == coalesced_before + 1     # one coalesced
        assert queue.pending_keys() == ["k:shared", "k:worker1"]
        assert not worker.pending
        # Closed: a later sweep no longer visits it.
        queue.context = worker
        queue.schedule(_StubObject("c"), "k:late", {})
        queue.context = serial
        assert queue.discard() == 2

    def test_discard_clears_parked_contexts_too(self):
        queue = make_queue()
        serial, worker = queue.context, queue.open_context()
        queue.schedule(_StubObject("a"), "k:live", {})
        queue.context = worker
        queue.schedule(_StubObject("b"), "k:parked", {})
        queue.context = serial
        assert queue.discard() == 2
        queue.context = worker
        assert queue.pending_keys() == []

    def test_discard_for_sweeps_parked_contexts(self):
        queue = make_queue()
        serial, worker = queue.context, queue.open_context()
        doomed, kept = _StubObject("doomed"), _StubObject("kept")
        queue.schedule(doomed, "k:live-doomed", {})
        queue.context = worker
        queue.schedule(doomed, "k:parked-doomed", {})
        queue.schedule(kept, "k:parked-kept", {})
        queue.context = serial
        assert queue.discard_for(doomed) == 2
        assert queue.pending_keys() == []
        queue.context = worker
        assert queue.pending_keys() == ["k:parked-kept"]


class TestDeterministicDrainOrder:
    def _replay_completed_log(self, seed: int):
        workload = HOT_KEY_WORKLOAD.with_overrides(
            clients=6, sessions_per_client=2, page_loads_per_session=4)
        with leased_scenario() as (scenario, config):
            user_ids = list(range(1, config.seed_scale.users + 1))
            trace = WorkloadGenerator(workload, user_ids).generate()
            replayer = ConcurrentReplayer(
                scenario.app, scenario.database, genie=scenario.genie,
                workers=3, policy=ADVERSARIAL, seed=seed,
                clock=scenario.clock,
                page_interval_seconds=config.page_interval_seconds)
            result = replayer.replay(trace)
            queue = scenario.genie.refresh_queue
            return (result.schedule_signature, list(queue.completed_log),
                    queue.scheduled, queue.completed)

    def test_fixed_seed_drains_in_identical_order(self):
        first = self._replay_completed_log(seed=99)
        second = self._replay_completed_log(seed=99)
        assert first == second
        signature, completed_log, scheduled, completed = first
        assert completed_log, "the hot-key replay should refresh something"
        # Every scheduled recompute either completed or is still pending —
        # never more completions than schedules (one per window).
        assert completed <= scheduled
