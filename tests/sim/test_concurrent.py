"""ConcurrentReplayer: serial equivalence, determinism, real contention."""

from __future__ import annotations

import contextlib

import pytest

import hashlib

from repro.apps.social import SeedScale
from repro.bench.experiments import (HOT_KEY_WORKLOAD,
                                     STRATEGY_ABLATION_SCENARIOS,
                                     ablation_config)
from repro.bench.scenarios import (LEASED_SCENARIO, NO_CACHE, Scenario,
                                   ScenarioConfig, UPDATE_SCENARIO)
from repro.errors import SimulationError
from repro.sim import (ADVERSARIAL, ConcurrentReplayResult, ConcurrentReplayer,
                       KEY_OVERLAP, RANDOM, ROUND_ROBIN, ReplayResult,
                       interleave_trace, simulate_population)
from repro.storage.costmodel import CostCounters
from repro.workload import WorkloadGenerator

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


def concurrent_replay(scenario: Scenario, config: ScenarioConfig,
                      workers: int, policy: str, seed: int = 0):
    replayer = ConcurrentReplayer(
        scenario.app, scenario.database, genie=scenario.genie,
        workers=workers, policy=policy, seed=seed, clock=scenario.clock,
        page_interval_seconds=config.page_interval_seconds)
    return replayer.replay(make_trace(config))


def page_fingerprint(result: ReplayResult):
    return [(p.client_id, p.page, p.user_id, p.counters.as_dict())
            for p in result.pages]


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
            app_checkpoint = scenario.app.checkpoint
            concurrent_replay(scenario, config, workers=2, policy=RANDOM)
            assert scenario.app.checkpoint is app_checkpoint
            assert scenario.database.transactions.checkpoint is None
            assert scenario.database.transactions.context_key is None
            assert scenario.genie.trigger_op_queue.context_key is None
            assert scenario.genie.app_cache.checkpoint is None
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
            queue = scenario.genie.trigger_op_queue
            assert queue.cas_retry_rounds > 0
            assert queue.cas_retries > 0
            # Ops were attributed to both workers' contexts.
            contexts = set(queue.enqueued_by_context)
            assert {("worker", 0), ("worker", 1)} <= contexts
            clients = scenario.genie.app_cache.ops_by_worker
            assert set(clients) == {0, 1}
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
            # The seams are restored even on the error path.
            assert scenario.database.transactions.checkpoint is None
            assert scenario.genie.app_cache.checkpoint is None
