"""Zero-perturbation, proven differentially: traced replay == untraced replay.

The observability layer's contract is that installing a tracer changes
*nothing* about the replay — not the pages, not a single cost counter, not
the concurrent schedule.  This suite replays every consistency strategy
(plus the adaptive arm) with and without a tracer, at one and two workers,
and requires bit-identical fingerprints — the fingerprint
``tests/sim/test_differential.py`` pins against its golden digests — and
that the replay leaves nothing subscribed to the boundary chain.  It also
pins what the trace actually contains: every instrumented layer and correct
per-worker thread attribution.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps.social import SeedScale
from repro.bench.experiments import (ADAPTIVE_SCENARIO,
                                     MIXED_HOT_COLD_WORKLOAD,
                                     QUICK_HOT_KEY_WORKLOAD as WORKLOAD,
                                     STRATEGY_ABLATION_SCENARIOS,
                                     STRATEGY_PAGE_INTERVAL,
                                     _ablation_strategy, _adaptive_arrival,
                                     ablation_config, run_scenario)
from repro.bench.scenarios import (LEASED_SCENARIO, Scenario,
                                   UPDATE_SCENARIO)
from repro.obs import Tracer, hooks
from repro.sim import ADVERSARIAL, ROUND_ROBIN, ConcurrentReplayer
from repro.workload import WorkloadGenerator

ADAPTIVE_WORKLOAD = MIXED_HOT_COLD_WORKLOAD.with_overrides(
    clients=6, sessions_per_client=2, page_loads_per_session=6)


def replay_once(scenario_name: str, traced: bool, workers: int = 1,
                policy: str = ROUND_ROBIN):
    """One replay of the quick contention workload; returns (result,
    tracer), after checking that the replay left no subscriber behind."""
    config = ablation_config(scenario_name, SeedScale.tiny())
    scenario = Scenario(config).setup()
    try:
        tracer = Tracer(clock=scenario.clock) if traced else None
        user_ids = list(range(1, config.seed_scale.users + 1))
        trace = WorkloadGenerator(WORKLOAD, user_ids).generate()
        replayer = ConcurrentReplayer(
            scenario.app, scenario.database, genie=scenario.genie,
            workers=workers, policy=policy, seed=0, clock=scenario.clock,
            page_interval_seconds=config.page_interval_seconds,
            tracer=tracer)
        result = replayer.replay(trace)
        assert hooks.chain == ()
        return result, tracer
    finally:
        scenario.teardown()


def replay_fingerprint(result):
    return {
        "pages": [(p.client_id, p.page, p.user_id, p.counters.as_dict(),
                   dataclasses.asdict(p.demand))
                  for p in result.pages],
        "total": result.total_counters.as_dict(),
        "schedule": result.schedule,
        "signature": result.schedule_signature,
        "pages_by_worker": result.pages_by_worker,
        "contention": result.contention_summary(),
    }


class TestTracedReplayIdentical:
    """The differential core: tracing changes nothing, at 1 and 2 workers."""

    @pytest.mark.parametrize("scenario_name", STRATEGY_ABLATION_SCENARIOS)
    @pytest.mark.parametrize("workers,policy",
                             [(1, ROUND_ROBIN), (2, ADVERSARIAL)])
    def test_traced_identical_per_strategy(self, scenario_name, workers,
                                           policy):
        untraced, _ = replay_once(scenario_name, False, workers, policy)
        traced, tracer = replay_once(scenario_name, True, workers, policy)
        assert replay_fingerprint(traced) == replay_fingerprint(untraced)
        assert tracer.finished, "traced replay recorded no spans"

    @pytest.mark.parametrize("workers,policy",
                             [(1, ROUND_ROBIN), (2, ADVERSARIAL)])
    def test_traced_identical_adaptive(self, workers, policy):
        def run(traced: bool):
            strategy = _ablation_strategy(ADAPTIVE_SCENARIO)
            config = ablation_config(ADAPTIVE_SCENARIO, SeedScale.tiny(),
                                     strategy=strategy)
            total_pages = (ADAPTIVE_WORKLOAD.clients
                           * ADAPTIVE_WORKLOAD.sessions_per_client
                           * ADAPTIVE_WORKLOAD.page_loads_per_session)
            result = run_scenario(
                config, workload=ADAPTIVE_WORKLOAD, warmup=None,
                workers=workers, policy=policy, traced=traced,
                arrival_model=_adaptive_arrival(
                    total_pages,
                    base_interval_seconds=3.0 * STRATEGY_PAGE_INTERVAL),
            ).replay
            fingerprint = replay_fingerprint(result)
            fingerprint["key_telemetry"] = result.key_telemetry
            fingerprint["switch_log"] = list(strategy.switch_log)
            fingerprint["band_switches"] = strategy.band_switches
            fingerprint["migrations"] = strategy.migrations
            return result, fingerprint

        result_u, fingerprint_u = run(False)
        _result_t, fingerprint_t = run(True)
        assert fingerprint_t == fingerprint_u
        assert hooks.chain == ()
        # Only meaningful if the band machinery genuinely ran.
        assert result_u.total_counters.band_switches > 0


class TestTraceContents:
    """What a traced replay actually records."""

    def test_all_layers_present_for_leased(self):
        _, tracer = replay_once(LEASED_SCENARIO, True, workers=2,
                                policy=ADVERSARIAL)
        assert set(tracer.categories()) >= {"page", "app", "orm", "cache",
                                            "trigger", "refresh"}
        assert tracer.dropped == 0

    def test_worker_attribution_at_two_workers(self):
        _, tracer = replay_once(UPDATE_SCENARIO, True, workers=2,
                                policy=ADVERSARIAL)
        tids = {span.tid for span in tracer.finished}
        assert tids == {0, 1}
        # Every page span nests its fragments on the same worker's thread.
        for span in tracer.finished:
            if span.parent is not None:
                assert span.tid == span.parent.tid

    def test_serial_replay_traces_on_thread_zero(self):
        _, tracer = replay_once(UPDATE_SCENARIO, True, workers=1)
        assert {span.tid for span in tracer.finished} == {0}
        assert tracer.spans_named("trigger:flush")

    def test_cas_retry_rounds_become_spans(self):
        """The Update strategy at 2 adversarial workers is the scenario the
        contention ablation relies on for CAS retries — those rounds must
        be visible as nested trigger:cas_round spans."""
        result, tracer = replay_once(UPDATE_SCENARIO, True, workers=2,
                                     policy=ADVERSARIAL)
        rounds = tracer.spans_named("trigger:cas_round")
        assert rounds
        assert all(r.parent is not None
                   and r.parent.name == "trigger:flush" for r in rounds)
        retry_rounds = [r for r in rounds if r.args["round"] > 0]
        assert retry_rounds, "adversarial schedule produced no CAS retries"
        # Every retry span implies a losers-producing previous round; the
        # counter can exceed the span count only when retries exhaust.
        assert len(retry_rounds) <= result.total_counters.cas_retry_rounds
        assert all(r.args["outstanding"] > 0 for r in retry_rounds)

    def test_cache_spans_distinguish_app_and_trigger_clients(self):
        _, tracer = replay_once(UPDATE_SCENARIO, True, workers=2,
                                policy=ADVERSARIAL)
        clients = {span.args.get("client")
                   for span in tracer.finished
                   if span.category == "cache"}
        assert clients == {"app", "trigger"}
