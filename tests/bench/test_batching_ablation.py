"""The --batch-ops ablation: batched protocol vs per-key round trips."""

from __future__ import annotations

import pytest

from repro.apps.social import SeedScale
from repro.apps.social.models import User, WallPost
from repro.bench.cli import build_parser
from repro.bench.experiments import (BATCHED, EXPERIMENTS, MODE_CONFIGS,
                                     SERIAL, UNBATCHED, round_trip_reduction,
                                     run_sweep)
from repro.bench.reporting import render_sweep
from repro.bench.scenarios import Scenario, ScenarioConfig, UPDATE_SCENARIO
from repro.workload import WorkloadConfig

TINY = SeedScale.tiny()

#: Small wall/top-k-leaning workload so the ablation test stays fast.
SMALL_WORKLOAD = WorkloadConfig(clients=4, sessions_per_client=2,
                                page_loads_per_session=4,
                                page_mix={"LookupBM": 55.0, "LookupFBM": 25.0,
                                          "CreateBM": 10.0, "AcceptFR": 10.0})


class TestScenarioWiring:
    def test_default_scenario_is_batched_and_pipelined(self):
        """batch_ops defaults on everywhere since the committed baseline."""
        scenario = Scenario(ScenarioConfig(name=UPDATE_SCENARIO,
                                           seed_scale=TINY)).setup()
        try:
            assert scenario.genie.batch_trigger_ops
            assert scenario.genie.trigger_op_queue is not None
            assert scenario.app.batch_reads
            assert scenario.genie.app_cache.pipeline_batches
            assert scenario.genie.trigger_cache.pipeline_batches
        finally:
            scenario.teardown()

    def test_batch_ops_off_restores_legacy_eager_mode(self):
        """The eager mode is the same trigger-op queue, flushed inside each
        firing: a write in an open transaction leaves nothing pending."""
        scenario = Scenario(ScenarioConfig(name=UPDATE_SCENARIO, seed_scale=TINY,
                                           batch_ops=False,
                                           pipeline_batches=False)).setup()
        try:
            genie = scenario.genie
            assert not genie.batch_trigger_ops
            assert not scenario.app.batch_reads
            assert not genie.app_cache.pipeline_batches
            queue = genie.trigger_op_queue
            assert queue is not None
            user = User.objects.filter().first()
            enqueued = queue.enqueued
            with scenario.database.transaction():
                WallPost.objects.create(user=user, sender=user, content="hi",
                                        date_posted=1.0)
                assert queue.enqueued > enqueued
                assert not queue.context.pending_keys()
        finally:
            scenario.teardown()


class TestBatchingAblation:
    """One class-scoped sweep of the three modes: the per-key protocol, the
    batched flush with serial server batches, and the default (pipelined)."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_sweep("exp-batch", workload=SMALL_WORKLOAD)

    def test_every_mode_is_a_distinct_configuration(self):
        modes = EXPERIMENTS["exp-batch"].axes[0].values
        assert modes == (UNBATCHED, SERIAL, BATCHED)
        assert set(MODE_CONFIGS) == set(modes)
        configs = {tuple(sorted(config.items()))
                   for config in MODE_CONFIGS.values()}
        assert len(configs) == len(MODE_CONFIGS)

    def test_batched_mode_halves_round_trips(self, result):
        """Acceptance: >= 2x fewer recorded cache round trips with batching."""
        assert result.one(mode=UNBATCHED)["round_trips"] > 0
        assert result.one(mode=BATCHED)["round_trips"] > 0
        assert round_trip_reduction(result) >= 2.0

    def test_batched_modes_strictly_reduce_round_trips(self, result):
        unbatched, serial, batched = (result.one(mode=mode)["round_trips"]
                                      for mode in (UNBATCHED, SERIAL, BATCHED))
        assert unbatched > serial > 0
        assert unbatched > batched > 0

    def test_batched_mode_actually_batches(self, result):
        batched = result.one(mode=BATCHED)["counters"]
        assert batched["cache_multi_gets"] > 0
        assert batched["trigger_cache_batches"] > 0
        # A batched trigger round trip carries several keys...
        assert batched["trigger_cache_batch_ops"] > batched["trigger_cache_batches"]
        eager = result.one(mode=UNBATCHED)["counters"]
        # ...an eager one carries exactly one: the queue flushed per
        # operation reads and swaps one key at a time.
        assert eager["trigger_cache_batches"] > 0
        assert eager["trigger_cache_batch_ops"] == eager["trigger_cache_batches"]
        # The application reads one key per round trip without batching.
        assert eager["cache_multi_gets"] > 2 * batched["cache_multi_gets"]

    def test_update_in_place_actually_batches_its_cas_path(self, result):
        serial = result.one(mode=SERIAL)["counters"]
        assert serial["trigger_cache_batches"] > 0
        assert serial["trigger_cache_batch_ops"] > serial["trigger_cache_batches"]
        eager = result.one(mode=UNBATCHED)["counters"]
        # The eager read-modify-writes and counter bumps are batches of
        # one, so they take more round trips than the flush.
        assert eager["trigger_cache_batches"] > serial["trigger_cache_batches"]
        # The batched flush writes through CAS — swaps land on the servers.
        assert result.one(mode=SERIAL)["cache"]["cas_ok"] > 0

    def test_batched_mode_amortizes_trigger_connections(self, result):
        assert (result.one(mode=BATCHED)["counters"]["trigger_connections"]
                < result.one(mode=UNBATCHED)["counters"]["trigger_connections"])

    def test_pipelining_overlaps_batches_without_changing_round_trips(self, result):
        serial = result.one(mode=SERIAL)
        pipelined = result.one(mode=BATCHED)
        assert pipelined["round_trips"] == serial["round_trips"]
        overlapped = "trigger_cache_overlapped_batches"
        assert pipelined["counters"][overlapped] > 0
        assert serial["counters"][overlapped] == 0
        # max() instead of sum(): strictly less cache-network time per page.
        assert pipelined["cache_net_ms"] < serial["cache_net_ms"]

    def test_trigger_path_reduction_isolates_the_cas_flush(self, result):
        """The headline number must not credit app-side read batching."""
        assert (result.one(mode=UNBATCHED)["trigger_round_trips"]
                > result.one(mode=SERIAL)["trigger_round_trips"] > 0)
        assert round_trip_reduction(result, "trigger_round_trips",
                                    SERIAL) >= 2.0

    def test_cache_stays_warm_in_every_mode(self, result):
        for mode in (UNBATCHED, SERIAL, BATCHED):
            assert result.one(mode=mode)["hit_ratio"] > 0.5

    def test_render(self, result):
        out = render_sweep(result)
        assert "TOTAL round trips" in out
        assert "Trigger-path round trips" in out
        assert "Round-trip reduction" in out
        assert "Trigger-path reduction" in out
        assert "Pipelining gain" in out
        assert "Unbatched" in out and "Serial" in out and "Batched" in out


class TestCli:
    def test_exp_batch_registered_with_flag(self):
        parser = build_parser()
        args = parser.parse_args(["exp-batch"])
        assert args.batch_ops == "both"
        assert callable(args.func)
        args = parser.parse_args(["exp-batch", "--batch-ops", "on"])
        assert args.batch_ops == "on"
        args = parser.parse_args(["exp-batch", "--batch-ops", "off"])
        assert args.batch_ops == "off"
        with pytest.raises(SystemExit):
            parser.parse_args(["exp-batch", "--batch-ops", "sideways"])

    def test_batch_ops_presets(self):
        """``both`` runs all three modes; ``on`` is the default alone."""
        presets = EXPERIMENTS["exp-batch"].axes[0].presets
        assert presets == {"on": (BATCHED,), "off": (UNBATCHED,),
                           "both": (UNBATCHED, SERIAL, BATCHED)}

    def test_exp_batch_is_the_only_batching_ablation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp-cas-batch"])

    def test_exp_batch_help_documents_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp-batch", "--help"])
        out = capsys.readouterr().out
        assert "--batch-ops" in out
        assert "batched protocol" in out
