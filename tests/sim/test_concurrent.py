"""ConcurrentReplayer: serial equivalence, determinism, real contention,
the hand-off's failure paths, the schedule contract and node faults."""

from __future__ import annotations

import contextlib
import errno
import hashlib
import os
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.social import SeedScale
from repro.apps.social.models import BookmarkInstance
from repro.bench.experiments import (HOT_KEY_WORKLOAD,
                                     STRATEGY_ABLATION_SCENARIOS,
                                     ablation_config)
from repro.bench.scenarios import (INVALIDATE_SCENARIO, LEASED_SCENARIO,
                                   NO_CACHE, Scenario, ScenarioConfig,
                                   UPDATE_SCENARIO)
from repro.cluster import (ClusterController, FaultEvent, FaultInjector,
                           FaultSchedule, GutterPool)
from repro.core import LinkQuery
from repro.errors import SimulationError
from repro.memcache import CacheServer
from repro.obs import Tracer, hooks
from repro.sim import (ADVERSARIAL, ALL_POLICIES, ConcurrentReplayResult,
                       ConcurrentReplayer, InterleaveScheduler, KEY_OVERLAP,
                       RANDOM, ROUND_ROBIN, ReplayResult, interleave_trace,
                       simulate_population)
from repro.storage.costmodel import CostCounters
from repro.workload import WorkloadGenerator
from repro.workload.trace import WorkloadTrace

#: The quick contention workload: short hot-key trace, heavy write share.
WORKLOAD = HOT_KEY_WORKLOAD.with_overrides(
    clients=6, sessions_per_client=2, page_loads_per_session=4)


@contextlib.contextmanager
def contention_scenario(name: str = UPDATE_SCENARIO):
    config = ablation_config(name, SeedScale.tiny())
    scenario = Scenario(config).setup()
    try:
        yield scenario, config
    finally:
        scenario.teardown()


def make_trace(config: ScenarioConfig):
    user_ids = list(range(1, config.seed_scale.users + 1))
    return WorkloadGenerator(WORKLOAD, user_ids).generate()


def build_replayer(scenario: Scenario, config: ScenarioConfig, workers: int,
                   policy: str = ROUND_ROBIN, seed: int = 0, scheduler=None,
                   tracer=None):
    return ConcurrentReplayer(
        scenario.app, scenario.database, genie=scenario.genie,
        workers=workers, policy=policy, seed=seed, scheduler=scheduler,
        tracer=tracer, clock=scenario.clock,
        page_interval_seconds=config.page_interval_seconds)


def concurrent_replay(scenario: Scenario, config: ScenarioConfig,
                      workers: int, policy: str, seed: int = 0):
    return build_replayer(scenario, config, workers, policy,
                          seed).replay(make_trace(config))


def page_fingerprint(result: ReplayResult):
    return [(p.client_id, p.page, p.user_id, p.counters.as_dict())
            for p in result.pages]


def layer_contexts(scenario: Scenario, tracer=None):
    """The live context object of every per-worker layer."""
    genie = scenario.genie
    layers = [scenario.database.transactions, genie.trigger_op_queue,
              genie.refresh_queue]
    if tracer is not None:
        layers.append(tracer)
    return [layer.context for layer in layers]


def assert_same_objects(now, then):
    assert len(now) == len(then)
    for current, saved in zip(now, then):
        assert current is saved


class TestSerialEquivalence:
    def test_one_worker_ignores_the_policy(self):
        with contention_scenario() as (scenario, config):
            serial = concurrent_replay(scenario, config, workers=1,
                                       policy=ROUND_ROBIN)
        with contention_scenario() as (scenario, config):
            shuffled = concurrent_replay(scenario, config, workers=1,
                                         policy=RANDOM)
        assert page_fingerprint(serial) == page_fingerprint(shuffled)
        assert (serial.total_counters.as_dict()
                == shuffled.total_counters.as_dict())

    def test_one_worker_never_contends(self):
        with contention_scenario() as (scenario, config):
            result = concurrent_replay(scenario, config, workers=1,
                                       policy=ADVERSARIAL)
        assert result.contention_summary() == {
            "cas_multi_mismatch": 0, "cas_retry_rounds": 0,
            "lease_contended": 0}

    def test_serial_seams_restored_after_replay(self):
        with contention_scenario() as (scenario, config):
            contexts = layer_contexts(scenario)
            concurrent_replay(scenario, config, workers=2, policy=RANDOM)
            assert hooks.chain == ()
            assert_same_objects(layer_contexts(scenario), contexts)
            assert scenario.genie.app_cache.current_worker is None
            # A serial replay on the same stack still works afterwards.
            follow_up = concurrent_replay(scenario, config, workers=1,
                                          policy=ROUND_ROBIN)
            assert follow_up.pages


def reference_serial_replay(scenario: Scenario, config: ScenarioConfig):
    """The historical serial loop, written out longhand: render each page of
    the canonical interleave order under its own recorder scope."""
    trace = make_trace(config)
    recorder = scenario.database.recorder
    fingerprints, total = [], CostCounters()
    previous = recorder.activate_scope(None)
    try:
        for page_load in interleave_trace(trace):
            if config.page_interval_seconds > 0:
                scenario.clock.advance(config.page_interval_seconds)
            counters = CostCounters()
            recorder.activate_scope(counters)
            scenario.app.render(page_load.page, page_load.user_id)
            fingerprints.append((page_load.client_id, page_load.page,
                                 page_load.user_id, counters.as_dict()))
            total.add(counters)
    finally:
        recorder.activate_scope(previous)
    return fingerprints, total


class TestOneWorkerIsTheReferenceSerialReplay:
    """The workers=1 path must be bit-for-bit the historical serial loop —
    for every one of the five ConsistencyStrategies."""

    @pytest.mark.parametrize("name", STRATEGY_ABLATION_SCENARIOS)
    def test_workers1_matches_reference_loop(self, name):
        with contention_scenario(name) as (scenario, config):
            result = concurrent_replay(scenario, config, workers=1,
                                       policy=ROUND_ROBIN)
        with contention_scenario(name) as (scenario, config):
            reference, reference_total = reference_serial_replay(scenario,
                                                                 config)
        assert page_fingerprint(result) == reference
        assert result.total_counters.as_dict() == reference_total.as_dict()

    def test_workers1_schedule_is_the_degenerate_log(self):
        with contention_scenario() as (scenario, config):
            result = concurrent_replay(scenario, config, workers=1,
                                       policy=ROUND_ROBIN)
        assert result.schedule == [0] * len(result.pages)
        payload = ",".join("0" for _ in result.pages).encode("ascii")
        assert (result.schedule_signature
                == hashlib.sha256(payload).hexdigest()[:16])
        assert result.pages_by_worker == {0: len(result.pages)}
        assert result.page_stores[0] == result.pages


class TestKeyOverlapIntegration:
    def test_key_overlap_contends_on_leased_invalidation(self):
        with contention_scenario(LEASED_SCENARIO) as (scenario, config):
            result = concurrent_replay(scenario, config, workers=2,
                                       policy=KEY_OVERLAP)
        assert result.contention_summary()["lease_contended"] > 0

    def test_key_overlap_still_parks_cas_holders(self):
        with contention_scenario(UPDATE_SCENARIO) as (scenario, config):
            result = concurrent_replay(scenario, config, workers=2,
                                       policy=KEY_OVERLAP)
        summary = result.contention_summary()
        assert summary["cas_multi_mismatch"] > 0
        assert summary["cas_retry_rounds"] > 0


class TestDeterminism:
    def test_fixed_seed_reproduces_schedule_and_metrics(self):
        runs = []
        for _ in range(2):
            with contention_scenario() as (scenario, config):
                runs.append(concurrent_replay(scenario, config, workers=3,
                                              policy=RANDOM, seed=1234))
        first, second = runs
        assert first.schedule == second.schedule
        assert first.schedule_signature == second.schedule_signature
        assert first.pages_by_worker == second.pages_by_worker
        assert page_fingerprint(first) == page_fingerprint(second)
        assert (first.total_counters.as_dict()
                == second.total_counters.as_dict())

    def test_different_seeds_interleave_differently(self):
        signatures = []
        for seed in (1, 2):
            with contention_scenario() as (scenario, config):
                result = concurrent_replay(scenario, config, workers=3,
                                           policy=RANDOM, seed=seed)
                signatures.append(result.schedule_signature)
        assert signatures[0] != signatures[1]


class TestContention:
    def test_adversarial_workers_race_the_cas_flush(self):
        with contention_scenario() as (scenario, config):
            result = concurrent_replay(scenario, config, workers=2,
                                       policy=ADVERSARIAL)
            assert scenario.genie.stats.totals().cas_retries > 0
        # Both workers enqueued trigger ops and flushed them: each one's
        # pages carry trigger-side and other cache round trips in their
        # own scoped counters.
        for counter in ("trigger_launches", "cache_round_trips"):
            assert {worker for worker, pages in result.page_stores.items()
                    if any(getattr(page.counters, counter)
                           for page in pages)} == {0, 1}
        counters = result.total_counters
        assert counters.cas_multi_mismatch > 0
        assert counters.cas_retry_rounds > 0

    def test_lease_windows_contend_across_workers(self):
        with contention_scenario(LEASED_SCENARIO) as (scenario, config):
            result = concurrent_replay(scenario, config, workers=2,
                                       policy=ADVERSARIAL)
            herd = scenario.cache_stats().get("herd_size_max", 0)
            totals = scenario.genie.stats.totals()
            assert herd >= 2
            assert totals.stale_served > 0
        assert result.total_counters.lease_contended > 0

    def test_result_feeds_the_closed_loop_simulation(self):
        with contention_scenario() as (scenario, config):
            result = concurrent_replay(scenario, config, workers=2,
                                       policy=ADVERSARIAL)
        assert isinstance(result, ConcurrentReplayResult)
        assert isinstance(result, ReplayResult)
        metrics = simulate_population(result, clients=WORKLOAD.clients)
        assert metrics.throughput > 0
        assert sum(result.pages_by_worker.values()) == len(result.pages)


class TestEngineEdges:
    def test_nocache_scenario_interleaves(self):
        with contention_scenario(NO_CACHE) as (scenario, config):
            result = concurrent_replay(scenario, config, workers=2,
                                       policy=RANDOM)
            expected = sum(len(s.page_loads)
                           for s in make_trace(config).sessions)
        assert len(result.pages) == expected

    def test_zero_workers_rejected(self):
        with contention_scenario() as (scenario, _config):
            with pytest.raises(SimulationError):
                ConcurrentReplayer(scenario.app, scenario.database,
                                   genie=scenario.genie, workers=0)

    def test_worker_errors_propagate(self):
        with contention_scenario() as (scenario, config):
            def boom(page, user_id):
                raise RuntimeError("render exploded")
            scenario.app.render = boom
            replayer = ConcurrentReplayer(
                scenario.app, scenario.database, genie=scenario.genie,
                workers=2, policy=RANDOM, clock=scenario.clock,
                page_interval_seconds=config.page_interval_seconds)
            with pytest.raises(RuntimeError):
                replayer.replay(make_trace(config))
            # The yield is unsubscribed even on the error path.
            assert hooks.chain == ()


# -- failure paths of the direct hand-off ----------------------------------------

#: Every failure below must surface long before the 120 s hand-off watchdog.
FAILS_WITHIN_SECONDS = 5.0


def worker_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("replay-worker-")]


def assert_stack_restored(scenario: Scenario, scope, contexts, tracer=None):
    """Every subscriber, context and scope a threaded replay touches is
    back: ``contexts`` is :func:`layer_contexts` taken before the replay."""
    transactions = scenario.database.transactions
    queue = scenario.genie.trigger_op_queue
    refresh = scenario.genie.refresh_queue
    assert hooks.chain == ()
    assert_same_objects(layer_contexts(scenario, tracer), contexts)
    assert transactions.current is None
    assert not queue.context.pending_keys()
    # Every worker's refresh backlog was closed: sweeps reach only ours.
    assert refresh._backlogs == [refresh.context]
    for client in (scenario.genie.app_cache, scenario.genie.trigger_cache):
        assert client.current_worker is None
    recorder = scenario.database.recorder
    assert recorder.activate_scope(scope) is scope
    if tracer is not None:
        assert tracer.context == []
    assert worker_threads() == []


class MisbehavingScheduler(InterleaveScheduler):
    """Round-robin, except that during its *first* replay every decision is
    first offered to ``misbehave(decision_number, runnable)``, which may
    raise or return a worker id of its own (None: behave)."""

    def __init__(self, misbehave):
        super().__init__(ROUND_ROBIN)
        self.misbehave = misbehave
        self.replays = 0

    def reset(self):
        super().reset()
        self.replays += 1

    def choose(self, runnable):
        if self.replays == 1:
            pick = self.misbehave(len(self.decisions) + 1, runnable)
            if pick is not None:
                return pick
        return super().choose(runnable)


def raises_on_decision_20(decision, runnable):
    if decision == 20:
        raise RuntimeError("scheduler exploded")


def picks_an_unknown_worker_on_decision_20(decision, runnable):
    return 3 if decision == 20 else None


def picks_the_first_worker_to_finish(decision, runnable):
    """Misbehaves in the decision the first *finishing* worker takes: there
    is no page left to unwind there, the error just has to reach replay()."""
    finished = {0, 1, 2} - {status.worker_id for status in runnable}
    return finished.pop() if finished else None


class ParkAFlushingWorker(InterleaveScheduler):
    """``policy`` until a worker's trigger flush yields at
    ``cache:gets_multi`` — with ``in_retry_round``, the ``gets_multi`` of a
    CAS retry round — then that worker stays parked while the others run."""

    def __init__(self, policy, recorder, in_retry_round):
        super().__init__(policy)
        self.recorder = recorder
        self.in_retry_round = in_retry_round
        self.parked = None
        self.retry_rounds_at_park = None
        self._retry_rounds = 0

    def choose(self, runnable):
        if self.parked is None:
            # A label changes only when its worker yields: the one that
            # just ran is the last one picked.
            rounds = self.recorder.total.cas_retry_rounds
            retrying, self._retry_rounds = rounds > self._retry_rounds, rounds
            for status in runnable:
                if (status.label == "cache:gets_multi"
                        and status.worker_id == self.decisions[-1]
                        and (retrying or not self.in_retry_round)):
                    self.parked = status.worker_id
                    self.retry_rounds_at_park = rounds
        others = [s for s in runnable if s.worker_id != self.parked]
        if self.parked is not None and others:
            self.decisions.append(others[0].worker_id)
            return others[0].worker_id
        return super().choose(runnable)


def fail_then_replay(first_replayer, second_replayer, trace, error):
    """A failing replay, then a complete one; returns the second's pages."""
    started = time.monotonic()
    with pytest.raises(type(error), match=str(error)):
        first_replayer.replay(trace)
    assert time.monotonic() - started < FAILS_WITHIN_SECONDS
    assert worker_threads() == []
    return page_fingerprint(second_replayer.replay(trace))


class TestHandOffFailures:
    """Fail loudly, restore all scoped state, never hang (ROADMAP item 3)."""

    @pytest.mark.parametrize("misbehave, error", [
        (raises_on_decision_20, RuntimeError("scheduler exploded")),
        (picks_an_unknown_worker_on_decision_20,
         SimulationError(r"chose worker 3, which is not runnable "
                         r"\(runnable: \[0, 1, 2\]\)")),
        (picks_the_first_worker_to_finish,
         SimulationError(r"chose worker (\d), which is not runnable "
                         r"\(runnable: \[(?!.*\1)\d, \d\]\)")),
    ])
    def test_scheduler_failure_surfaces_at_once(self, misbehave, error):
        """With three workers somebody is always parked mid-page when the
        scheduler raises, or picks a worker outside the runnable set: the
        error comes back as itself, at once, and the replayer that failed
        replays afterwards exactly like a brand-new one."""
        replays = []
        for reuse in (True, False):
            with contention_scenario() as (scenario, config):
                contexts = layer_contexts(scenario)
                scope = CostCounters()
                scenario.database.recorder.activate_scope(scope)
                trace = make_trace(config)
                # A page that swallows every ordinary exception must not be
                # able to swallow the scheduler's.
                render, swallowed = scenario.app.render, []

                def forgiving_render(page, user_id):
                    try:
                        return render(page, user_id)
                    except Exception as exc:
                        swallowed.append(exc)
                scenario.app.render = forgiving_render
                failing = build_replayer(
                    scenario, config, workers=3,
                    scheduler=MisbehavingScheduler(misbehave))
                fresh = build_replayer(scenario, config, workers=3)
                replays.append(fail_then_replay(
                    failing, failing if reuse else fresh, trace, error))
                assert swallowed == []
                assert_stack_restored(scenario, scope, contexts)
        assert replays[0] == replays[1]

    def test_worker_error_while_another_is_parked_in_a_transaction(self):
        """Worker 1 parks at ``cache:gets_multi`` inside an explicit
        transaction with trigger ops pending; worker 0 then raises after
        its own ``gets_multi``.  The original error surfaces, worker 1's
        transaction is rolled back in *its* contexts, nothing leaks."""
        with contention_scenario() as (scenario, config):
            transactions = scenario.database.transactions
            queue = scenario.genie.trigger_op_queue
            cache = scenario.genie.app_cache
            saved = BookmarkInstance.objects.count()
            serial_ops, began_in = queue.context, []

            def render(page, user_id):
                if cache.current_worker == 1:
                    began_in.append((transactions.context, queue.context))
                    transactions.begin()
                    BookmarkInstance(bookmark_id=1, user_id=user_id,
                                     description="parked", note="").save()
                    cache.gets_multi(["parked-here"])
                    raise AssertionError("worker 1 was resumed")
                cache.gets_multi(["tokens-held"])
                raise RuntimeError("page exploded")
            scenario.app.render = render

            class ParkWorkerOneThenRunWorkerZero(InterleaveScheduler):
                def choose(self, runnable):
                    parked = any(status.worker_id == 1
                                 and status.label == "cache:gets_multi"
                                 for status in runnable)
                    self.decisions.append(0 if parked else 1)
                    return self.decisions[-1]

            aborts = []
            transactions.on_abort.insert(0, lambda: aborts.append(
                (transactions.context, queue.context,
                 len(queue.context.pending_keys()))))
            scope = CostCounters()
            scenario.database.recorder.activate_scope(scope)
            tracer = Tracer(clock=scenario.clock)
            contexts = layer_contexts(scenario, tracer)
            replayer = build_replayer(
                scenario, config, workers=2, tracer=tracer,
                scheduler=ParkWorkerOneThenRunWorkerZero())
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="page exploded"):
                replayer.replay(make_trace(config))
            assert time.monotonic() - started < FAILS_WITHIN_SECONDS
            # One rollback, in worker 1's transaction *and* op-queue context,
            # with its trigger ops still pending there to be discarded.
            assert len(aborts) == 1 and len(began_in) == 1
            assert aborts[0][0] is began_in[0][0]
            assert aborts[0][1] is began_in[0][1]
            assert aborts[0][1] is not serial_ops
            assert aborts[0][2] > 0
            assert transactions.aborted == 1
            assert BookmarkInstance.objects.count() == saved
            assert_stack_restored(scenario, scope, contexts, tracer)

    @pytest.mark.parametrize("policy, in_retry_round", [
        (ROUND_ROBIN, False), (ADVERSARIAL, True)])
    def test_worker_unwound_inside_its_commit_flush(self, policy,
                                                    in_retry_round):
        """A worker parked between its flush's ``gets_multi`` and
        ``cas_multi`` (its transaction already committed) is unwound by
        another worker's error: the keys it was updating are invalidated,
        so the cache, which the next replay on the same scenario reads,
        holds nothing the database does not."""
        with contention_scenario() as (scenario, config):
            queue = scenario.genie.trigger_op_queue
            cache = scenario.genie.app_cache
            scheduler = ParkAFlushingWorker(policy, queue.cache.recorder,
                                            in_retry_round)
            render = scenario.app.render

            def render_until_parked(page, user_id):
                if scheduler.parked not in (None, cache.current_worker):
                    raise RuntimeError("page exploded")
                return render(page, user_id)
            scenario.app.render = render_until_parked
            contexts = layer_contexts(scenario)
            scope = CostCounters()
            scenario.database.recorder.activate_scope(scope)
            trace = make_trace(config)
            replayer = build_replayer(scenario, config, workers=2,
                                      scheduler=scheduler)
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="page exploded"):
                replayer.replay(trace)
            assert time.monotonic() - started < FAILS_WITHIN_SECONDS
            assert scheduler.parked is not None
            assert (scheduler.retry_rounds_at_park > 0) == in_retry_round
            assert_stack_restored(scenario, scope, contexts)
            assert audit(scenario, trace) == []
            assert queue.cas_fallbacks > 0

    @pytest.mark.parametrize("clients, wedged_page, watchdog", [
        # Worker 1 is still parked at "start": its own watchdog fires.
        (6, 1, "worker 1 was never rescheduled"),
        # Worker 1 (no pages) is long gone, nobody is parked: only the main
        # thread's progress watchdog is left to notice.
        (1, 2, "worker 0 never yielded control"),
    ])
    def test_wedged_worker_fails_loudly(self, monkeypatch, clients,
                                        wedged_page, watchdog):
        """A worker that never reaches its next checkpoint trips a watchdog;
        it cannot be unwound, so the replay names the thread it left behind
        (chained to the watchdog's error) instead of returning quietly."""
        monkeypatch.setattr("repro.sim.concurrent._HANDOFF_TIMEOUT_SECONDS",
                            0.4)
        unwedge = threading.Event()
        with contention_scenario() as (scenario, config):
            contexts = layer_contexts(scenario)
            render, calls = scenario.app.render, []

            def wedging_render(page, user_id):
                calls.append(page)
                if len(calls) == wedged_page:
                    unwedge.wait(timeout=30)
                    raise RuntimeError("unwedged")
                return render(page, user_id)
            scenario.app.render = wedging_render
            trace = make_trace(config)
            trace = WorkloadTrace(sessions=[
                s for s in trace.sessions if s.client_id < clients])
            replayer = build_replayer(scenario, config, workers=2)
            started = time.monotonic()
            try:
                with pytest.raises(SimulationError,
                                   match=r"\[0\] still alive") as raised:
                    replayer.replay(trace)
                assert time.monotonic() - started < FAILS_WITHIN_SECONDS
                assert watchdog in str(raised.value.__cause__)
                assert hooks.chain == ()
                assert_same_objects(layer_contexts(scenario), contexts)
            finally:
                unwedge.set()
                for thread in worker_threads():
                    thread.join(timeout=30)
            assert worker_threads() == []

    @pytest.mark.parametrize("clients", [0, 2])
    def test_idle_workers_complete(self, clients):
        """More workers than clients (workers 2 and 3 get an empty stream),
        down to an empty trace: every worker is still picked once, finishes,
        and the replayer replays the real trace afterwards like a new one."""
        replays = []
        for reuse in (True, False):
            with contention_scenario() as (scenario, config):
                trace = make_trace(config)
                sparse = WorkloadTrace(sessions=[
                    s for s in trace.sessions if s.client_id < clients])
                first = build_replayer(scenario, config, 4, ADVERSARIAL)
                started = time.monotonic()
                result = first.replay(sparse)
                assert time.monotonic() - started < FAILS_WITHIN_SECONDS
                assert len(result.pages) == sparse.total_page_loads
                assert sorted(set(result.schedule)) == [0, 1, 2, 3]
                assert [result.pages_by_worker[w] for w in (2, 3)] == [0, 0]
                assert worker_threads() == []
                second = (first if reuse else
                          build_replayer(scenario, config, 4, ADVERSARIAL))
                replays.append(page_fingerprint(second.replay(trace)))
                assert worker_threads() == []
        assert replays[0] == replays[1]


# -- the schedule contract ---------------------------------------------------------


class ContractCheckingScheduler(InterleaveScheduler):
    """Checks, at every decision, what the engine shows the scheduler
    against what the stack itself says about each worker."""

    def __init__(self, policy, seed, streams):
        super().__init__(policy, seed)
        self.streams = streams
        self.completed = {worker_id: 0 for worker_id in streams}
        self.labels = {worker_id: "start" for worker_id in streams}
        #: Each worker's own OpContext, as seen live on its decisions.
        self.op_contexts = {}
        self.checked = 0

    def watch(self, scenario, replayer):
        """Observe renders and checkpoints from outside the engine."""
        self.queue = scenario.genie.trigger_op_queue
        self.serial_ops = self.queue.context
        self.cache = cache = scenario.genie.app_cache
        render, checkpoint = scenario.app.render, replayer._checkpoint

        def counting_render(page, user_id):
            result = render(page, user_id)
            self.completed[cache.current_worker] += 1
            self.labels[cache.current_worker] = "page:end"
            return result

        def recording_checkpoint(label):
            self.labels[cache.current_worker] = label
            checkpoint(label)
        scenario.app.render = counting_render
        # Shadowed on the instance, the way the benchmark's span recorder
        # does it: the engine looks the hook up when it subscribes it.
        replayer._checkpoint = recording_checkpoint

    def choose(self, runnable):
        unfinished = [w for w, stream in self.streams.items()
                      if self.completed[w] < len(stream)]
        assert [status.worker_id for status in runnable] == unfinished
        yielding = self.cache.current_worker   # None: the main thread
        if yielding is not None:
            # The decision runs on the yielding worker's thread, in its own
            # op context — the same object for the whole replay, and
            # neither the caller's nor another worker's.
            live = self.queue.context
            assert live is not self.serial_ops
            assert self.op_contexts.setdefault(yielding, live) is live
            assert [w for w, own in self.op_contexts.items()
                    if own is live] == [yielding]
        for status in runnable:
            worker_id = status.worker_id
            assert status.label == self.labels[worker_id]
            assert status.pages_completed == self.completed[worker_id]
            own = self.op_contexts.get(worker_id)
            assert status.pending_keys == (
                own.pending_keys() if own is not None else frozenset())
        chosen = super().choose(runnable)
        assert chosen in unfinished
        self.checked += 1
        return chosen


class TestScheduleContract:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(policy=st.sampled_from(ALL_POLICIES),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           workers=st.sampled_from([2, 3, 4]))
    def test_schedule_contract(self, policy, seed, workers):
        runs = []
        for _ in range(2):
            with contention_scenario() as (scenario, config):
                trace = make_trace(config)
                ordered = interleave_trace(trace)
                clients = sorted({p.client_id for p in ordered})
                streams = {
                    worker_id: [p for p in ordered
                                if clients.index(p.client_id) % workers
                                == worker_id]
                    for worker_id in range(workers)}
                scheduler = ContractCheckingScheduler(policy, seed, streams)
                replayer = build_replayer(scenario, config, workers,
                                          scheduler=scheduler)
                scheduler.watch(scenario, replayer)
                result = replayer.replay(trace)
            # Every decision was checked on the thread that took it; an
            # assertion failing there surfaces from replay() as itself.
            assert scheduler.checked == len(result.schedule) > len(ordered)
            assert sum(result.pages_by_worker.values()) == len(ordered)
            for worker_id, stream in streams.items():
                assert ([(p.client_id, p.page, p.user_id)
                         for p in result.page_stores[worker_id]]
                        == [(p.client_id, p.page, p.user_id) for p in stream])
            runs.append((result.schedule, result.schedule_signature,
                         page_fingerprint(result)))
        assert runs[0] == runs[1]


# -- where the workers run ---------------------------------------------------------

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_getaffinity and at least two allowed CPUs")


def record_render_affinity(scenario: Scenario):
    """Wrap ``app.render`` to log the affinity mask of the thread rendering."""
    render, masks = scenario.app.render, []

    def recording_render(page, user_id):
        masks.append(frozenset(os.sched_getaffinity(0)))
        return render(page, user_id)
    scenario.app.render = recording_render
    return masks


def contended_replay(workers: int = 2):
    """A threaded adversarial replay, and the affinity masks its pages saw."""
    with contention_scenario() as (scenario, config):
        masks = (record_render_affinity(scenario)
                 if hasattr(os, "sched_getaffinity") else [])
        result = concurrent_replay(scenario, config, workers=workers,
                                   policy=ADVERSARIAL)
    return result, masks


class TestWorkerPlacement:
    """Every worker of a threaded replay runs on the CPU its caller was on."""

    @needs_two_cpus
    def test_workers_share_one_cpu(self):
        before = os.sched_getaffinity(0)
        result, masks = contended_replay()
        assert len(masks) == len(result.pages)
        (mask,) = set(masks)
        assert len(mask) == 1 and mask <= before
        # The calling thread itself is never pinned.
        assert os.sched_getaffinity(0) == before

    @needs_two_cpus
    def test_workers_follow_the_caller_to_its_cpu(self):
        """Called from a thread on the highest allowed CPU, the workers run
        there too — not on CPU 0, where every process of a ``--jobs`` pool
        would pile up under a fixed choice."""
        highest = max(os.sched_getaffinity(0))
        outcome = {}

        def replay_from_highest_cpu():
            try:
                os.sched_setaffinity(0, {highest})
                outcome["masks"] = set(contended_replay()[1])
            except BaseException as exc:  # re-raised on the test's thread
                outcome["error"] = exc
        caller = threading.Thread(target=replay_from_highest_cpu)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        if "error" in outcome:
            raise outcome["error"]
        assert outcome["masks"] == {frozenset({highest})}

    @pytest.mark.parametrize("breakage", ["setaffinity raises",
                                          "no setaffinity", "no /proc"])
    def test_unpinnable_workers_run_unpinned(self, monkeypatch, capsys,
                                             breakage):
        """Where a thread cannot be pinned the replay runs as it always did:
        no error, nothing printed, and the same schedule and counters."""
        ordinary, _ = contended_replay()
        capsys.readouterr()
        refused = []

        def refuse(pid, cpus):
            refused.append(cpus)
            raise OSError(errno.EINVAL, "CPU no longer in the cpuset")
        if breakage == "setaffinity raises":
            monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        elif breakage == "no setaffinity":
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        else:
            monkeypatch.setattr("repro.sim.concurrent._THREAD_STAT",
                                "/nonexistent/thread-self/stat")
        caller_mask = (frozenset(os.sched_getaffinity(0))
                       if hasattr(os, "sched_getaffinity") else None)
        fallback, masks = contended_replay()
        assert capsys.readouterr() == ("", "")
        assert fallback.schedule_signature == ordinary.schedule_signature
        assert (fallback.total_counters.as_dict()
                == ordinary.total_counters.as_dict())
        assert set(masks) <= {caller_mask}
        if breakage == "setaffinity raises" and sys.platform == "linux":
            assert len(refused) == 2    # each worker tried once, then ran

    def test_one_worker_reads_no_cpu(self, monkeypatch):
        """The inline ``workers=1`` path starts no thread: nothing to place."""
        def unexpected():
            raise AssertionError("the serial path looked up a CPU")
        monkeypatch.setattr("repro.sim.concurrent._caller_cpu", unexpected)
        result, _ = contended_replay(workers=1)
        assert result.pages


# -- a threaded replay under node faults ---------------------------------------------

#: Long enough that the kill and the revive both land mid-trace.
FAULT_WORKLOAD = WORKLOAD.with_overrides(sessions_per_client=6, seed=11)

#: Fault plans: (fraction of the trace in pages, action, node), in order.
SINGLE_FAULT = ((0.30, "kill", "cache1"), (0.65, "revive", "cache1"))
FAULT_PLANS = {
    "overlap": ((0.20, "kill", "cache1"), (0.35, "kill", "cache0"),
                (0.50, "revive", "cache1"), (0.70, "revive", "cache0")),
    "nested": ((0.20, "kill", "cache1"), (0.30, "kill", "cache0"),
               (0.40, "revive", "cache0"), (0.60, "revive", "cache1")),
    "flap": ((0.20, "kill", "cache1"), (0.21, "revive", "cache1"),
             (0.22, "kill", "cache1"), (0.60, "revive", "cache1")),
}


def fault_instants(interval: float, pages: int, start: float, plan):
    """Virtual instant of each planned fault, from the same running sum of
    page intervals the replayer adds up before each page."""
    marks = [int(fraction * pages) for fraction, _action, _node in plan]
    running, now = [], start
    for _ in range(max(marks) + 1):
        now += interval
        running.append(now)
    return [running[mark] for mark in marks]


def canonical(value, distinct: bool):
    """Row lists as multisets of rows, or as sets of distinct rows."""
    if isinstance(value, list):
        rows = (tuple(sorted(row.items())) for row in value)
        return set(rows) if distinct else Counter(rows)
    return value


def audit(scenario: Scenario, trace: WorkloadTrace,
          links_distinct: bool = True):
    """Every traced user x every cached object, cached versus recomputed, as
    multisets; ``links_distinct`` compares a ``LinkQuery`` as a set, because
    it keeps one copy of a row the database join repeats per duplicate
    friendship edge."""
    genie, mismatches = scenario.genie, []
    for user_id in trace.distinct_users():
        for name, cached_object in genie.cached_objects.items():
            params = {cached_object.where_fields[0]: user_id}
            cached = cached_object.evaluate(**params)
            genie.app_cache.delete(cached_object.make_key(**params))
            fresh = cached_object.evaluate(**params)
            distinct = links_distinct and isinstance(cached_object, LinkQuery)
            if canonical(cached, distinct) != canonical(fresh, distinct):
                mismatches.append(f"{name}({user_id})")
    return mismatches


class StatusRecordingScheduler(InterleaveScheduler):
    """Adversarial, remembering the statuses it was shown last."""

    def __init__(self):
        super().__init__(ADVERSARIAL)
        self.shown = []

    def choose(self, runnable):
        self.shown = list(runnable)
        return super().choose(runnable)


def replay_through_faults(name: str, plan, workers: int,
                          links_distinct: bool = True):
    """``workers`` replay while ``plan``'s faults fire behind a gutter pool;
    returns the result, what the other workers were parked at when each
    fault fired, the controller's counters and the audit."""
    with contention_scenario(name) as (scenario, config):
        user_ids = list(range(1, config.seed_scale.users + 1))
        trace = WorkloadGenerator(FAULT_WORKLOAD, user_ids).generate()
        genie = scenario.genie
        controller = ClusterController(
            clients=[genie.app_cache, genie.trigger_cache],
            servers=scenario.cache_servers, clock=scenario.clock,
            gutter=GutterPool([CacheServer("gutter0", clock=scenario.clock)],
                              ttl_seconds=2.0),
            genie=genie)
        instants = fault_instants(config.page_interval_seconds,
                                  trace.total_page_loads,
                                  scenario.clock.now(), plan)
        injector = FaultInjector(controller, FaultSchedule([
            FaultEvent(at=instant, action=action, node=node)
            for instant, (_fraction, action, node) in zip(instants, plan)]))
        scheduler = StatusRecordingScheduler()
        parked = []
        for instant in instants:
            # A probe at a fault's instant fires right after the fault.
            injector.schedule_probe(instant, lambda: parked.append([
                (status.label, status.holds_write_intent)
                for status in scheduler.shown
                if status.worker_id != genie.app_cache.current_worker]))
        replayer = ConcurrentReplayer(
            scenario.app, scenario.database, genie=genie, workers=workers,
            scheduler=scheduler, clock=scenario.clock,
            page_interval_seconds=config.page_interval_seconds,
            fault_injector=injector)
        result = replayer.replay(trace)
        assert ([(event.action, event.node) for event in injector.fired]
                == [(action, node) for _fraction, action, node in plan])
        return (result, parked, controller.counters(),
                audit(scenario, trace, links_distinct))


def replay_twice_through_faults(name: str, plan, workers: int):
    """:func:`replay_through_faults`, twice: both runs must agree on the
    schedule, every page, every counter and the controller's counters.
    Returns the first run's parked workers, controller counters and audit."""
    first, parked, counters, mismatches = replay_through_faults(
        name, plan, workers)
    second, _, second_counters, _ = replay_through_faults(name, plan, workers)
    assert first.schedule_signature == second.schedule_signature
    assert page_fingerprint(first) == page_fingerprint(second)
    assert (first.total_counters.as_dict()
            == second.total_counters.as_dict())
    assert counters == second_counters
    return parked, counters, mismatches


class TestNodeFaults:
    """Nodes die and return mid-trace under racing workers."""

    @pytest.mark.parametrize("name", [UPDATE_SCENARIO, INVALIDATE_SCENARIO])
    def test_kill_and_revive_between_parked_workers(self, name):
        parked, counters, mismatches = replay_twice_through_faults(
            name, SINGLE_FAULT, workers=2)
        # Each fault fired while the other worker was parked mid-page: under
        # update-in-place holding CAS tokens it had not written back yet.
        # Invalidation flushes deletes, so it never holds write intent.
        assert len(parked) == 2
        for (label, holds_write_intent), in parked:
            assert label not in ("start", "page:end")
            assert holds_write_intent == (name == UPDATE_SCENARIO)
        assert counters["gutter_hits"] > 0
        # Consistent after the revive.
        assert mismatches == []

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("name", [UPDATE_SCENARIO, INVALIDATE_SCENARIO])
    @pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
    def test_overlapping_nested_and_flapping_faults(self, plan, name,
                                                    workers):
        """Two nodes down at once, one death inside another, and a node
        that dies again right after returning: deterministic, and every
        cached object equals its recompute once both nodes are back."""
        _parked, _counters, mismatches = replay_twice_through_faults(
            name, FAULT_PLANS[plan], workers)
        assert mismatches == []

    def test_link_queries_keep_the_joins_multiplicity(self):
        """Once AcceptFR has written a friendship edge twice, the join
        repeats a friend's new bookmark, and so does friend_bookmarks."""
        *_, mismatches = replay_through_faults(
            UPDATE_SCENARIO, SINGLE_FAULT, workers=2, links_distinct=False)
        assert mismatches == []
