"""Tests for the serial (one-worker) replay and closed-loop simulation."""

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.sim import (STREAM_CLIENT_THRESHOLD, ConcurrentReplayer,
                       SimulationOptions, exact_mva, simulate_population)
from repro.sim.runner import ReplayResult, ReplayedPage
from repro.storage.costmodel import CostCounters, Demand
from repro.workload import WorkloadConfig, WorkloadGenerator
from tests.helpers import exact_numbers


def synthetic_replay(clients: int, pages_per_client: int = 2) -> ReplayResult:
    """A hand-built replay: heterogeneous demands, no functional execution."""
    result = ReplayResult()
    for client_id in range(clients):
        for index in range(pages_per_client):
            result.pages.append(ReplayedPage(
                client_id=client_id,
                page="LookupBM" if index % 2 else "CreateBM",
                user_id=client_id + 1,
                demand=Demand(db_cpu_ms=1.0 + (client_id % 7) * 0.25,
                              db_disk_ms=0.5, cache_net_ms=0.25),
                counters=CostCounters()))
    return result


@pytest.fixture
def replayed(social_genie):
    config = WorkloadConfig(clients=4, sessions_per_client=1,
                            page_loads_per_session=4, seed=11)
    trace = WorkloadGenerator(config, list(range(1, 21))).generate()
    replayer = ConcurrentReplayer(social_genie["app"],
                                  social_genie["database"], workers=1)
    replay = replayer.replay(trace)
    return replay, trace


class TestReplay:
    def test_every_page_load_measured(self, replayed):
        replay, trace = replayed
        assert len(replay.pages) == trace.total_page_loads
        assert replay.client_ids() == [0, 1, 2, 3]

    def test_demands_are_positive(self, replayed):
        replay, _ = replayed
        mean = replay.mean_demand()
        assert mean.db_cpu_ms > 0
        assert mean.total_ms > 0

    def test_unrecorded_replay_returns_empty(self, social_genie):
        config = WorkloadConfig(clients=1, sessions_per_client=1,
                                page_loads_per_session=2)
        trace = WorkloadGenerator(config, [1, 2, 3]).generate()
        replayer = ConcurrentReplayer(social_genie["app"],
                                      social_genie["database"], workers=1)
        result = replayer.replay(trace, record=False)
        assert result.pages == []

    def test_interleaving_round_robins_clients(self, replayed):
        replay, _ = replayed
        first_clients = [p.client_id for p in replay.pages[:4]]
        assert first_clients == [0, 1, 2, 3]

    def test_client_index_tracks_appends(self, replayed):
        replay, _ = replayed
        assert 9999 not in replay.client_ids()
        # The per-client index must rebuild when pages are appended after a
        # lookup (the concurrent replayer appends in completion order).
        replay.pages.append(dataclasses.replace(replay.pages[0],
                                                client_id=9999))
        assert replay.client_ids()[-1] == 9999
        replay.pages.pop()



class TestSimulation:
    def test_throughput_positive_and_window_set(self, replayed):
        replay, _ = replayed
        metrics = simulate_population(replay, clients=4)
        assert metrics.throughput > 0
        assert metrics.mean_latency > 0
        assert metrics.window_end is not None

    def test_more_clients_do_not_reduce_throughput_before_saturation(self, replayed):
        replay, _ = replayed
        one = simulate_population(replay, clients=1)
        four = simulate_population(replay, clients=4)
        assert four.throughput >= one.throughput * 0.9

    def test_empty_population(self, replayed):
        replay, _ = replayed
        assert simulate_population(replay, clients=0).throughput == 0.0

    def test_think_time_lowers_low_load_throughput(self, replayed):
        replay, _ = replayed
        fast = simulate_population(replay, clients=1,
                                   options=SimulationOptions(think_time_ms=1.0))
        slow = simulate_population(replay, clients=1,
                                   options=SimulationOptions(think_time_ms=200.0))
        assert fast.throughput > slow.throughput

    def test_simulation_roughly_agrees_with_mva(self, replayed):
        """Cross-check the event simulation against exact MVA."""
        replay, _ = replayed
        options = SimulationOptions(think_time_ms=30.0)
        metrics = simulate_population(replay, clients=4, options=options)
        mean = replay.mean_demand()
        demands = {"db_cpu": mean.db_cpu_ms, "db_disk": mean.db_disk_ms}
        mva = exact_mva(demands, clients=4,
                        think_time_ms=options.think_time_ms + mean.cache_net_ms)
        # The replayed pages are heterogeneous while MVA assumes homogeneous
        # demands, so agreement within ~40% is the expected envelope.
        assert metrics.throughput == pytest.approx(mva.throughput_per_s, rel=0.4)


class TestClientIndexReuse:
    def test_sweep_builds_the_index_once(self, replayed):
        """A client sweep simulates the same replay many times; the lazy
        per-client index must be built exactly once, not once per cell."""
        replay, _ = replayed
        for count in (1, 2, 3, 4, 4, 1):
            simulate_population(replay, clients=count)
        assert replay.index_builds == 1

    def test_index_rebuilds_only_when_pages_change(self):
        replay = synthetic_replay(clients=3)
        simulate_population(replay)
        simulate_population(replay)
        assert replay.index_builds == 1
        replay.pages.append(replay.pages[0])
        simulate_population(replay)
        assert replay.index_builds == 2


class TestStreamingMetrics:
    def test_streaming_equals_retained_numbers(self):
        """Both metric modes accumulate in the same order, so every
        non-percentile number is identical — not approximately, exactly.
        Percentiles stream through a fixed-bucket histogram (bounded memory
        at any population size) and are bucket-quantized: reported at the
        containing bucket's upper edge, never below the exact value and at
        most 5% above it with the default geometric bounds."""
        replay = synthetic_replay(clients=40)
        retained = simulate_population(replay, retain_completions=True)
        streamed = simulate_population(replay, retain_completions=False)
        assert retained.retain_completions and not streamed.retain_completions
        assert exact_numbers(streamed) == exact_numbers(retained)
        for fraction in (0.5, 0.9, 0.95, 0.99):
            exact = retained.latency_percentile(fraction)
            quantized = streamed.latency_percentile(fraction)
            assert exact <= quantized <= exact * 1.05

    def test_streaming_percentile_state_is_bounded(self):
        """The streaming mode must hold O(1) percentile state — a fixed
        bucket array, not a per-completion latency list."""
        small = simulate_population(synthetic_replay(clients=40),
                                    retain_completions=False)
        large = simulate_population(
            synthetic_replay(clients=2_000, pages_per_client=2),
            options=SimulationOptions(think_time_ms=0.0))
        assert large.retain_completions is False
        assert (len(large._latency_hist.counts)
                == len(small._latency_hist.counts))
        assert large._latency_hist.count == large.completed_pages

    def test_streaming_engages_at_the_client_threshold(self):
        below = simulate_population(synthetic_replay(clients=4))
        at = simulate_population(
            synthetic_replay(STREAM_CLIENT_THRESHOLD, pages_per_client=1))
        assert below.retain_completions is True
        assert at.retain_completions is False

    def test_large_population_retains_no_completion_objects(self):
        """10⁴ clients: the memory guard — the metrics hold no per-page
        completion objects, only the streamed aggregates."""
        replay = synthetic_replay(clients=10_000, pages_per_client=2)
        metrics = simulate_population(
            replay, options=SimulationOptions(think_time_ms=0.0))
        assert metrics.retain_completions is False
        assert metrics.completions == []
        assert metrics.completed_pages > 0
        assert metrics.throughput > 0
        assert metrics.mean_latency > 0


class TestSimulationOptionsValidation:
    """Nonsense used to pass silently: a negative or NaN think time was
    treated as 0 (``nan > 0`` is false)."""

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_think_time_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(SimulationError, match="think_time_ms"):
            SimulationOptions(think_time_ms=bad)

    def test_the_values_in_use_are_legal(self):
        assert SimulationOptions().think_time_ms == 30.0
        assert SimulationOptions(think_time_ms=0.0).think_time_ms == 0.0
