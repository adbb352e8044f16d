"""The --batch-ops ablation: batched protocol vs per-key round trips."""

from __future__ import annotations

import pytest

from repro.apps.social import SeedScale
from repro.bench.cli import build_parser
from repro.bench.experiments import (BATCHED, BATCHED_CAS, EAGER_CAS,
                                     PIPELINED_CAS, UNBATCHED,
                                     round_trip_reduction, run_sweep)
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
        scenario = Scenario(ScenarioConfig(name=UPDATE_SCENARIO, seed_scale=TINY,
                                           batch_ops=False,
                                           pipeline_batches=False)).setup()
        try:
            assert not scenario.genie.batch_trigger_ops
            assert scenario.genie.trigger_op_queue is None
            assert not scenario.app.batch_reads
            assert not scenario.genie.app_cache.pipeline_batches
        finally:
            scenario.teardown()


class TestBatchingAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_sweep("exp-batch", workload=SMALL_WORKLOAD)

    def test_batched_mode_halves_round_trips(self, result):
        """Acceptance: >= 2x fewer recorded cache round trips with batching."""
        assert result.one(mode=UNBATCHED)["round_trips"] > 0
        assert result.one(mode=BATCHED)["round_trips"] > 0
        assert round_trip_reduction(result) >= 2.0

    def test_batched_mode_actually_batches(self, result):
        batched = result.one(mode=BATCHED)["counters"]
        assert batched["cache_gets"] == 0
        assert batched["cache_multi_gets"] > 0
        assert batched["trigger_cache_ops"] == 0
        assert batched["trigger_cache_batches"] > 0
        eager = result.one(mode=UNBATCHED)["counters"]
        assert eager["cache_multi_gets"] == 0
        # The eager path still issues per-key gets/cas round trips, but its
        # counter bumps ride incr_multi batches (the PR-5 bulk-counter
        # follow-up), so a handful of trigger batches is expected.
        assert eager["trigger_cache_ops"] > 0
        assert eager["trigger_cache_batches"] > 0

    def test_batched_mode_amortizes_trigger_connections(self, result):
        assert (result.one(mode=BATCHED)["counters"]["trigger_connections"]
                < result.one(mode=UNBATCHED)["counters"]["trigger_connections"])

    def test_cache_stays_warm_in_both_modes(self, result):
        for mode in (UNBATCHED, BATCHED):
            assert result.one(mode=mode)["hit_ratio"] > 0.5

    def test_render(self, result):
        out = render_sweep(result)
        assert "TOTAL round trips" in out
        assert "Round-trip reduction" in out
        assert "Unbatched" in out and "Batched" in out


class TestCli:
    def test_exp_batch_registered_with_flag(self):
        parser = build_parser()
        args = parser.parse_args(["exp-batch"])
        assert args.batch_ops == "both"
        args = parser.parse_args(["exp-batch", "--batch-ops", "on"])
        assert args.batch_ops == "on"
        with pytest.raises(SystemExit):
            parser.parse_args(["exp-batch", "--batch-ops", "sideways"])

    def test_exp_batch_help_documents_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp-batch", "--help"])
        out = capsys.readouterr().out
        assert "--batch-ops" in out
        assert "batched protocol" in out


class TestCasBatchingAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return run_sweep("exp-cas-batch", workload=SMALL_WORKLOAD)

    def test_batched_cas_strictly_reduces_round_trips(self, result):
        """Acceptance: batched CAS on strictly reduces recorded round trips."""
        eager, batched, pipelined = (result.one(mode=mode)["round_trips"]
                                     for mode in (EAGER_CAS, BATCHED_CAS,
                                                  PIPELINED_CAS))
        assert eager > batched > 0
        assert eager > pipelined > 0

    def test_update_in_place_actually_batches_its_cas_path(self, result):
        batched = result.one(mode=BATCHED_CAS)["counters"]
        assert batched["trigger_cache_ops"] == 0
        assert batched["trigger_cache_batches"] > 0
        eager = result.one(mode=EAGER_CAS)["counters"]
        assert eager["trigger_cache_ops"] > 0
        # Eager counter bumps ride one-key incr_multi batches (PR 5); the
        # gets/cas read-modify-writes remain per-key single ops.
        assert eager["trigger_cache_batches"] > 0
        assert eager["trigger_cache_ops"] > eager["trigger_cache_batches"]
        # The batched flush writes through CAS — swaps land on the servers.
        assert result.one(mode=BATCHED_CAS)["cache"]["cas_ok"] > 0

    def test_pipelining_overlaps_batches_without_changing_round_trips(self, result):
        batched = result.one(mode=BATCHED_CAS)
        pipelined = result.one(mode=PIPELINED_CAS)
        assert pipelined["round_trips"] == batched["round_trips"]
        overlapped = "trigger_cache_overlapped_batches"
        assert pipelined["counters"][overlapped] > 0
        assert batched["counters"][overlapped] == 0
        # max() instead of sum(): strictly less cache-network time per page.
        assert pipelined["cache_net_ms"] < batched["cache_net_ms"]

    def test_trigger_path_reduction_isolates_the_cas_flush(self, result):
        """The headline number must not credit app-side read batching."""
        assert (result.one(mode=EAGER_CAS)["trigger_round_trips"]
                > result.one(mode=BATCHED_CAS)["trigger_round_trips"] > 0)
        assert round_trip_reduction(result, "trigger_round_trips",
                                    EAGER_CAS, BATCHED_CAS) >= 2.0

    def test_render(self, result):
        out = render_sweep(result)
        assert "Trigger-path round trips" in out
        assert "TOTAL round trips" in out
        assert "Trigger-path reduction" in out
        assert "Pipelining gain" in out
        assert "EagerCAS" in out and "BatchedCAS" in out and "Pipelined" in out


class TestCasBatchCli:
    def test_exp_cas_batch_registered_with_flag(self):
        parser = build_parser()
        args = parser.parse_args(["exp-cas-batch"])
        assert args.cas_batch == "both"
        assert callable(args.func)
        args = parser.parse_args(["exp-cas-batch", "--cas-batch", "off"])
        assert args.cas_batch == "off"
        with pytest.raises(SystemExit):
            parser.parse_args(["exp-cas-batch", "--cas-batch", "diagonal"])

    def test_exp_cas_batch_help_documents_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp-cas-batch", "--help"])
        out = capsys.readouterr().out
        assert "--cas-batch" in out
