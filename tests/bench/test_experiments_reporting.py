"""Smoke tests for the experiment harness and its reporting.

Full-scale experiment validation lives in ``benchmarks/``; here each
experiment runs at a deliberately tiny scale to verify plumbing, result
structure, and the qualitative relationships that must hold at any scale.
"""

import pytest

from repro.apps.social import SeedScale
from repro.bench import (INVALIDATE_SCENARIO, NO_CACHE, ScenarioConfig,
                         UPDATE_SCENARIO, format_table, micro_lookup,
                         micro_trigger, programmer_effort, render_effort,
                         render_micro_lookup, render_micro_trigger,
                         render_sweep, run_scenario, run_sweep, table1)
from repro.workload import WorkloadConfig

TINY_SCALE = SeedScale(users=40, unique_bookmarks=15, max_instances_per_bookmark=3,
                       max_friends_per_user=5, max_pending_invitations_per_user=2,
                       max_wall_posts_per_user=3)
TINY_WORKLOAD = WorkloadConfig(clients=8, sessions_per_client=1,
                               page_loads_per_session=6, seed=3)
TINY_WARMUP = WorkloadConfig(clients=4, sessions_per_client=1,
                             page_loads_per_session=4, seed=31)


def tiny_config(name, **overrides):
    return ScenarioConfig(name=name, seed_scale=TINY_SCALE).variant(**overrides)


class TestRunScenario:
    def test_cached_beats_nocache_even_at_tiny_scale(self):
        nocache = run_scenario(tiny_config(NO_CACHE), workload=TINY_WORKLOAD,
                               warmup=TINY_WARMUP)
        update = run_scenario(tiny_config(UPDATE_SCENARIO), workload=TINY_WORKLOAD,
                              warmup=TINY_WARMUP)
        assert update.throughput > nocache.throughput
        assert update.cache_hit_ratio > 0.5
        assert update.effort["cached_objects"] == 14

    def test_invalidate_scenario_runs(self):
        run = run_scenario(tiny_config(INVALIDATE_SCENARIO), workload=TINY_WORKLOAD,
                           warmup=None)
        assert run.throughput > 0
        assert run.metrics.latency_by_page()


class TestMicrobenchmarks:
    def test_micro_lookup_favors_cache(self):
        result = micro_lookup(rows=400, lookups=60)
        assert result.db_lookup_ms > result.cache_lookup_ms
        assert "Ratio" in render_micro_lookup(result)

    def test_micro_trigger_ordering(self):
        result = micro_trigger(inserts=40)
        assert result.plain_insert_ms < result.noop_trigger_insert_ms
        assert result.noop_trigger_insert_ms < result.cache_trigger_insert_ms
        # The paper's headline: connection opening dominates trigger overhead.
        assert result.connection_overhead_ms > 5 * result.noop_overhead_ms
        assert "INSERT" in render_micro_trigger(result)


class TestProgrammerEffort:
    def test_effort_matches_paper_counts(self):
        result = programmer_effort(scale=TINY_SCALE)
        assert result.cached_objects == 14
        assert result.generated_triggers >= 40
        assert result.generated_trigger_lines > 1000
        assert result.application_lines_changed <= 25
        assert "Cached objects defined" in render_effort(result)


class TestExperiment5:
    def test_trigger_overhead_positive(self):
        result = run_sweep("exp5", scenario=(UPDATE_SCENARIO,),
                           workload=TINY_WORKLOAD)
        row = result.one(scenario=UPDATE_SCENARIO)
        assert row["ideal"] >= row["with_triggers"]
        assert 0.0 <= row["overhead"] < 0.9
        assert "Trigger overhead" in render_sweep(result)


class TestReportingHelpers:
    def test_table1_lists_cachegenie_last(self):
        rendered = table1()
        assert "CacheGenie" in rendered
        assert "Incremental update-in-place" in rendered

    def test_format_table_alignment(self):
        text = format_table(["a", "long header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[:2])) >= 1
