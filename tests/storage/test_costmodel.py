"""Tests for event recording and the simulated cost model."""

import pytest

from repro.storage import ColumnDef, CostCounters, CostModel, Database, Recorder, TableSchema


class TestRecorder:
    def test_measure_collects_scoped_events(self):
        recorder = Recorder()
        recorder.record("inserts")
        with recorder.measure() as counters:
            recorder.record("inserts", 2)
            recorder.record("cache_multi_gets")
        assert counters.inserts == 2
        assert counters.cache_multi_gets == 1
        assert recorder.total.inserts == 3

    def test_nested_measure_propagates_to_outer(self):
        recorder = Recorder()
        with recorder.measure() as outer:
            recorder.record("statements")
            with recorder.measure() as inner:
                recorder.record("statements", 2)
        assert inner.statements == 2
        assert outer.statements == 3

    def test_counters_add_and_copy(self):
        a = CostCounters(inserts=1, cache_multi_gets=2)
        b = CostCounters(inserts=3)
        a.add(b)
        assert a.inserts == 4
        clone = a.copy()
        clone.inserts = 0
        assert a.inserts == 4


class TestCostModel:
    def test_read_only_work_has_no_disk_demand(self):
        model = CostModel()
        counters = CostCounters(statements=3, rows_scanned=10, rows_returned=5,
                                pages_hit=4)
        demand = model.demand(counters)
        assert demand.db_cpu_ms > 0
        assert demand.db_disk_ms == 0
        assert demand.cache_net_ms == 0

    def test_writes_charge_disk(self):
        model = CostModel()
        demand = model.demand(CostCounters(inserts=1, commits=1))
        assert demand.db_disk_ms == pytest.approx(
            model.insert_disk_ms + model.commit_disk_ms)

    def test_cache_ops_charge_network(self):
        model = CostModel()
        demand = model.demand(CostCounters(cache_multi_gets=5))
        assert demand.cache_net_ms == pytest.approx(5 * model.cache_op_net_ms)

    def test_trigger_connection_split_between_cpu_and_net(self):
        model = CostModel()
        demand = model.demand(CostCounters(trigger_connections=1))
        assert demand.db_cpu_ms == pytest.approx(model.trigger_connection_cpu_ms)
        assert demand.cache_net_ms == pytest.approx(model.trigger_connection_net_ms)

    def test_demand_add_and_scale(self):
        model = CostModel()
        demand = model.demand(CostCounters(statements=1))
        other = model.demand(CostCounters(inserts=1))
        demand.add(other)
        assert demand.total_ms == pytest.approx(
            model.statement_overhead_ms + model.insert_disk_ms)
        scaled = demand.scaled(0.5)
        assert scaled.total_ms == pytest.approx(demand.total_ms / 2)


class TestCalibration:
    """The §5.3 microbenchmark anchors the default parameters."""

    def test_plain_insert_single_digit_milliseconds(self):
        """The paper's unloaded INSERT is ~6.3 ms; ours lands in the same order."""
        database = Database()
        database.create_table(TableSchema(
            "t", [ColumnDef("id", "integer", nullable=True)]))
        with database.measure() as counters:
            for _ in range(10):
                database.insert("t", {})
        per_insert = database.demand_of(counters).total_ms / 10
        assert 4.0 <= per_insert <= 14.0

    def test_noop_trigger_adds_fraction_of_ms(self):
        model = CostModel()
        assert 0.05 <= model.trigger_launch_cpu_ms <= 0.5

    def test_cache_round_trip_is_sub_millisecond(self):
        model = CostModel()
        assert model.cache_op_net_ms < 1.0

    def test_btree_lookup_is_many_times_slower_than_cache_get(self):
        """Paper: simple B+Tree lookups take 10-25x longer than cache gets.

        Our cost model is calibrated primarily for the workload-level shape;
        the lookup ratio lands lower than the paper's but the database stays
        several times slower than memcached (see EXPERIMENTS.md).
        """
        from repro.bench import micro_lookup
        result = micro_lookup(rows=1500, lookups=150)
        assert result.ratio >= 3.0
        assert result.db_lookup_ms > result.cache_lookup_ms
