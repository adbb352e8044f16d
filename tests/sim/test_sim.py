"""Tests for the simulation substrate: clock, engine, resources, metrics, MVA."""

import pytest

from repro.errors import SimulationError
from repro.sim import (DelayResource, EventEngine, PageCompletion,
                       QueueingResource, RunMetrics, VirtualClock,
                       asymptotic_bounds, exact_mva, percentile)


class TestVirtualClock:
    def test_advance(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.advance(5.5)
        assert clock() == 5.5

    def test_cannot_go_backwards(self):
        clock = VirtualClock(10.0)
        with pytest.raises(ValueError):
            clock.advance(-1)


class TestEventEngine:
    def test_events_run_in_time_order(self):
        engine = EventEngine()
        order = []
        engine.schedule(5, lambda: order.append("b"))
        engine.schedule(1, lambda: order.append("a"))
        engine.schedule(9, lambda: order.append("c"))
        end = engine.run()
        assert order == ["a", "b", "c"]
        assert end == 9

    def test_ties_preserve_fifo_order(self):
        engine = EventEngine()
        order = []
        for name in "abc":
            engine.schedule(1.0, lambda n=name: order.append(n))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            EventEngine().schedule(-1, lambda: None)

    def test_run_until_bound(self):
        engine = EventEngine()
        fired = []
        engine.schedule(1, lambda: fired.append(1))
        engine.schedule(100, lambda: fired.append(2))
        engine.run(until=10)
        assert fired == [1]
        assert engine.pending_events == 1

    def test_runaway_loop_guard(self):
        engine = EventEngine()

        def reschedule():
            engine.schedule(1, reschedule)

        engine.schedule(1, reschedule)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_non_finite_delays_rejected(self):
        # NaN compares False against 0, so it used to slip past the
        # negative-delay check and scramble the heap order.
        engine = EventEngine()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError):
                engine.schedule(bad, lambda: None)
        assert engine.pending_events == 0

    def test_non_finite_timestamps_rejected(self):
        engine = EventEngine()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError):
                engine.schedule_at(bad, lambda: None)
        assert engine.pending_events == 0


class TestQueueingResource:
    def test_single_server_serializes_jobs(self):
        engine = EventEngine()
        resource = QueueingResource(engine, "disk")
        finish_times = []
        for _ in range(3):
            resource.request(10.0, lambda: finish_times.append(engine.now))
        engine.run()
        assert finish_times == [10.0, 20.0, 30.0]
        assert resource.jobs_served == 3
        assert resource.mean_wait() == pytest.approx(10.0)

    def test_zero_service_completes_immediately(self):
        engine = EventEngine()
        resource = QueueingResource(engine, "cpu")
        done = []
        resource.request(0.0, lambda: done.append(True))
        assert done == [True]

    def test_busy_time(self):
        engine = EventEngine()
        resource = QueueingResource(engine, "cpu")
        resource.request(5.0, lambda: None)
        engine.run()
        assert resource.busy_time == pytest.approx(5.0)

    def test_delay_resource_never_queues(self):
        engine = EventEngine()
        delay = DelayResource(engine, "net")
        finish_times = []
        for _ in range(4):
            delay.request(7.0, lambda: finish_times.append(engine.now))
        engine.run()
        assert finish_times == [7.0] * 4


class TestMetrics:
    def make_metrics(self):
        metrics = RunMetrics()
        for i in range(10):
            metrics.record(PageCompletion(
                client_id=0, page="LookupBM", user_id=1,
                start_time=float(i), end_time=float(i) + 0.5))
        metrics.record(PageCompletion(client_id=1, page="CreateBM", user_id=2,
                                      start_time=0.0, end_time=2.0))
        metrics.duration = 10.0
        return metrics

    def test_throughput_and_latency(self):
        metrics = self.make_metrics()
        assert metrics.completed_pages == 11
        assert metrics.throughput == pytest.approx(1.1)
        assert 0.5 < metrics.mean_latency < 0.7

    def test_window_excludes_late_completions(self):
        metrics = self.make_metrics()
        metrics.window_end = 5.0
        assert metrics.completed_pages == 6
        assert metrics.measured_window == 5.0

    def test_latency_by_page(self):
        by_page = self.make_metrics().latency_by_page()
        assert by_page["LookupBM"] == pytest.approx(0.5)
        assert by_page["CreateBM"] == pytest.approx(2.0)

    def test_percentile(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.95) == pytest.approx(95.0, abs=1.0)
        assert percentile([], 0.5) == 0.0


class TestMVA:
    def test_single_station_saturation(self):
        result = exact_mva({"db_cpu": 10.0}, clients=50, think_time_ms=0.0)
        assert result.throughput_per_s == pytest.approx(100.0, rel=0.01)
        assert result.bottleneck == "db_cpu"

    def test_throughput_monotone_in_population_until_saturation(self):
        demands = {"db_cpu": 5.0, "db_disk": 10.0}
        previous = 0.0
        for clients in (1, 2, 4, 8, 16, 32):
            result = exact_mva(demands, clients, think_time_ms=20.0)
            assert result.throughput_per_s >= previous - 1e-9
            previous = result.throughput_per_s
        assert previous <= 100.0 + 1e-6  # bounded by the disk

    def test_single_client_has_no_queueing(self):
        result = exact_mva({"a": 4.0, "b": 6.0}, clients=1, think_time_ms=10.0)
        assert result.response_time_ms == pytest.approx(10.0)
        assert result.throughput_per_s == pytest.approx(1000.0 / 20.0)

    def test_asymptotic_bounds(self):
        bounds = asymptotic_bounds({"db_cpu": 5.0, "db_disk": 10.0},
                                   think_time_ms=15.0)
        assert bounds["max_throughput_per_s"] == pytest.approx(100.0)
        assert bounds["saturation_clients"] == pytest.approx(3.0)
