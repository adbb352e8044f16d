"""The cluster-dynamics ablation end to end (quick configuration)."""

from __future__ import annotations

import pytest

from repro.bench.experiments import (CLUSTER_NODE_KILL,
                                     CLUSTER_NODE_KILL_NOGUTTER,
                                     CLUSTER_SCALE_OUT, check_cluster,
                                     determinism_fingerprints, run_sweep)
from repro.bench.reporting import render_sweep
from repro.bench.scenarios import LEASED_SCENARIO, UPDATE_SCENARIO


@pytest.fixture(scope="module")
def quick_result():
    return run_sweep("exp-cluster", quick=True)


def segment(row, label):
    (found,) = [seg for seg in row["segments"] if seg["label"] == label]
    return found


class TestQuickSweep:
    def test_check_cluster_passes(self, quick_result):
        assert check_cluster(quick_result) == []

    def test_quick_covers_both_kill_cases_for_both_strategies(self, quick_result):
        cells = {(row["scenario"], row["fault_case"])
                 for row in quick_result.rows}
        assert cells == {
            (UPDATE_SCENARIO, CLUSTER_NODE_KILL),
            (UPDATE_SCENARIO, CLUSTER_NODE_KILL_NOGUTTER),
            (LEASED_SCENARIO, CLUSTER_NODE_KILL),
            (LEASED_SCENARIO, CLUSTER_NODE_KILL_NOGUTTER),
        }

    def test_kill_runs_have_the_three_segment_trajectory(self, quick_result):
        for row in quick_result.rows:
            assert [seg["label"] for seg in row["segments"]] == [
                "pre-fault", "degraded", "recovered"]
            assert sum(seg["pages"] for seg in row["segments"]) > 0

    def test_gutter_cushions_the_degraded_segment(self, quick_result):
        for scenario in (UPDATE_SCENARIO, LEASED_SCENARIO):
            with_gutter = segment(quick_result.one(
                scenario=scenario, fault_case=CLUSTER_NODE_KILL), "degraded")
            without = segment(quick_result.one(
                scenario=scenario, fault_case=CLUSTER_NODE_KILL_NOGUTTER),
                "degraded")
            assert with_gutter["hit_ratio"] > without["hit_ratio"]
            assert with_gutter["gutter_hits"] > 0
            assert without["gutter_hits"] == 0

    def test_fault_events_fire_at_the_scheduled_instants(self, quick_result):
        row = quick_result.one(scenario=UPDATE_SCENARIO,
                               fault_case=CLUSTER_NODE_KILL)
        assert [e["action"] for e in row["events"]] == ["kill", "revive"]
        kill, revive = row["events"]
        assert kill["at"] < revive["at"]
        assert row["fleet"]["post_revival_invalidations"] > 0

    def test_update_strategy_never_serves_stale(self, quick_result):
        for case in (CLUSTER_NODE_KILL, CLUSTER_NODE_KILL_NOGUTTER):
            row = quick_result.one(scenario=UPDATE_SCENARIO, fault_case=case)
            assert not row["serves_stale"]
            assert row["stale_served"] == 0

    def test_determinism_fingerprints_match(self, quick_result):
        first, second = determinism_fingerprints(quick_result)
        assert first == second

    def test_render_mentions_every_cell(self, quick_result):
        rendered = render_sweep(quick_result)
        assert "Cluster-dynamics ablation" in rendered
        assert "pre-fault" in rendered and "degraded" in rendered
        assert "node-kill-nogutter" in rendered
        assert "Determinism" in rendered


class TestScaleOut:
    def test_join_case_reports_warmup_debt(self):
        result = run_sweep("exp-cluster", quick=True,
                           scenario=(UPDATE_SCENARIO,),
                           fault_case=(CLUSTER_SCALE_OUT,))
        (row,) = result.rows
        assert [e["action"] for e in row["events"]] == ["join"]
        assert row["fleet"]["keys_remapped"] > 0
        assert [seg["label"] for seg in row["segments"]] == [
            "pre-fault", "scaled-out"]
        # A join kills nothing: no fail-fast refusals anywhere.
        assert all(seg["node_down_errors"] == 0 for seg in row["segments"])
