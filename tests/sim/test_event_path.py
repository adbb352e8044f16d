"""The event path of the closed-loop simulator: pins, a reference, unit cases.

Every modelled number the repository reports — Fig. 2a throughput, Table 2
latencies, each ``sim.modelled_*`` row of the benchmark — is what
``simulate_population`` computes from the *order* in which events fire:
events at one instant run in the order they were scheduled, so the sequence
number an event is given decides every tie, and a tie decided the other way
moves queue waits, completion times and the measurement window.

``EventEngine`` events are ``(time, sequence, callback, args)``; the resources
schedule one bound ``_complete`` with the job's ``done`` as its argument, and a
:class:`SimulatedClient` keeps its one page in flight on itself.  The path they
replaced — ``(time, sequence, callback)`` triples, one ``complete`` closure per
job and three nested functions per page — is kept here, in the ``Reference*``
classes, and nowhere in ``src/``.

* :data:`GOLDEN_EVENT_ORDER` pins four populations in the shape of the
  benchmark's ``synthetic_populations`` (taken at commit c8af8c7, from the
  closure-based path): every completion in record order, ``engine_events``,
  ``duration`` and ``window_end``.
* The differential builds the rig from the public classes, the way
  ``simulate_population`` does, once from the reference and once from the real
  ones, over random small populations full of zero-cost stages and exact ties.
* Seeded mutants of the real classes must each fail that comparison.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import itertools
import json
import math
import random
import weakref
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import (ConcurrentReplayResult, DelayResource, EventEngine,
                       PageCompletion, QueueingResource, RunMetrics,
                       SimulatedClient, SimulationOptions, simulate_population)
from repro.sim import runner as runner_module
from repro.sim.runner import ReplayResult, ReplayedPage
from repro.storage.costmodel import CostCounters, Demand


# ---------------------------------------------------------------------------
# The reference: the closure-based event path, as it was at commit c8af8c7.
# ---------------------------------------------------------------------------

class ReferenceEngine:
    def __init__(self):
        self.now = 0.0
        self._sequence = itertools.count()
        self._events = []
        self.processed_events = 0

    def schedule(self, delay, callback):
        if not math.isfinite(delay):
            raise SimulationError(f"event delay must be finite, got {delay}")
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} in the past")
        heapq.heappush(self._events,
                       (self.now + delay, next(self._sequence), callback))

    def run(self):
        while self._events:
            timestamp, _seq, callback = heapq.heappop(self._events)
            self.now = timestamp
            callback()
            self.processed_events += 1
        return self.now


class ReferenceQueueingResource:
    def __init__(self, engine, name, servers=1):
        self.engine = engine
        self.name = name
        self.servers = servers
        self._busy = 0
        self._queue = deque()
        self.jobs_served = 0
        self.busy_time = 0.0
        self.total_queue_wait = 0.0
        self.total_service_time = 0.0

    def request(self, service_time, done):
        if service_time <= 0:
            done()
            return
        if self._busy < self.servers:
            self._start(service_time, done, queued_at=None)
        else:
            self._queue.append((service_time, done, self.engine.now))

    def _start(self, service_time, done, queued_at):
        self._busy += 1
        if queued_at is not None:
            self.total_queue_wait += self.engine.now - queued_at
        self.busy_time += service_time
        self.total_service_time += service_time

        def complete():
            self._busy -= 1
            self.jobs_served += 1
            if self._queue:
                next_service, next_done, arrived = self._queue.popleft()
                self._start(next_service, next_done, queued_at=arrived)
            done()

        self.engine.schedule(service_time, complete)

    def mean_wait(self):
        if self.jobs_served == 0:
            return 0.0
        return self.total_queue_wait / self.jobs_served


class ReferenceDelayResource:
    def __init__(self, engine, name):
        self.engine = engine
        self.name = name
        self.jobs_served = 0
        self.total_service_time = 0.0

    def request(self, service_time, done):
        if service_time <= 0:
            done()
            return
        self.total_service_time += service_time

        def complete():
            self.jobs_served += 1
            done()

        self.engine.schedule(service_time, complete)


class ReferenceClient:
    def __init__(self, client_id, engine, db_cpu, db_disk, cache_net, pages,
                 metrics, think_time_ms=0.0, on_finished=None):
        self.client_id = client_id
        self.engine = engine
        self.db_cpu = db_cpu
        self.db_disk = db_disk
        self.cache_net = cache_net
        self.pages = pages
        self.metrics = metrics
        self.think_time_ms = think_time_ms
        self.on_finished = on_finished
        self._index = 0
        self.finish_time = None

    def start(self):
        self.engine.schedule(0.0, self._start_next_page)

    def _start_next_page(self):
        if self._index >= len(self.pages):
            self.finish_time = self.engine.now
            if self.on_finished is not None:
                self.on_finished(self)
            return
        page = self.pages[self._index]
        self._index += 1
        start_time = self.engine.now

        def after_cache():
            self.metrics.record(PageCompletion(
                client_id=self.client_id, page=page.page,
                user_id=page.user_id, start_time=start_time / 1000.0,
                end_time=self.engine.now / 1000.0))
            if self.think_time_ms > 0:
                self.engine.schedule(self.think_time_ms, self._start_next_page)
            else:
                self.engine.schedule(0.0, self._start_next_page)

        def after_disk():
            self.cache_net.request(page.demand.cache_net_ms, after_cache)

        def after_cpu():
            self.db_disk.request(page.demand.db_disk_ms, after_disk)

        self.db_cpu.request(page.demand.db_cpu_ms, after_cpu)


class Rig:
    """The four classes a closed-loop simulation is assembled from."""

    def __init__(self, engine, queueing, delay, client):
        self.engine, self.queueing, self.delay, self.client = (
            engine, queueing, delay, client)

    def but(self, **changed):
        parts = dict(engine=self.engine, queueing=self.queueing,
                     delay=self.delay, client=self.client)
        parts.update(changed)
        return Rig(**parts)


REFERENCE = Rig(ReferenceEngine, ReferenceQueueingResource,
                ReferenceDelayResource, ReferenceClient)
REAL = Rig(EventEngine, QueueingResource, DelayResource, SimulatedClient)


def run_rig(rig, client_pages, think_time_ms=0.0, cpu_servers=1,
            disk_servers=1):
    """Assemble and run one simulation the way ``simulate_population`` does;
    return everything a run can be told apart by.

    ``client_pages`` is ``[(client_id, pages), ...]`` in dispatch order.
    """
    engine = rig.engine()
    db_cpu = rig.queueing(engine, "db_cpu", servers=cpu_servers)
    db_disk = rig.queueing(engine, "db_disk", servers=disk_servers)
    cache_net = rig.delay(engine, "cache_net")
    metrics = RunMetrics(retain_completions=True)

    def on_finished(client):
        finish = client.finish_time / 1000.0
        if metrics.window_end is None or finish < metrics.window_end:
            metrics.window_end = finish

    simulated = [
        rig.client(client_id=client_id, engine=engine, db_cpu=db_cpu,
                   db_disk=db_disk, cache_net=cache_net, pages=pages,
                   metrics=metrics, think_time_ms=think_time_ms,
                   on_finished=on_finished)
        for client_id, pages in client_pages]
    for client in simulated:
        client.start()
    end_time = engine.run()
    return {
        "completions": completion_rows(metrics),
        "engine_events": engine.processed_events,
        "duration": end_time / 1000.0,
        "window_end": metrics.window_end,
        "finish_times": [client.finish_time for client in simulated],
        "resources": {
            resource.name: [getattr(resource, field, None) for field in (
                "jobs_served", "busy_time", "total_queue_wait",
                "total_service_time")]
            + [resource.mean_wait() if hasattr(resource, "mean_wait")
               else None]
            for resource in (db_cpu, db_disk, cache_net)},
    }


def completion_rows(metrics):
    return [(c.client_id, c.page, c.user_id, repr(c.start_time),
             repr(c.end_time)) for c in metrics.completions]


def selected(replay, clients=None):
    """The ``(client_id, pages)`` list ``simulate_population`` simulates."""
    order = getattr(replay, "client_dispatch_order", replay.client_ids)()
    return [(client_id, replay.pages_for_client(client_id))
            for client_id in order[:clients]]


# ---------------------------------------------------------------------------
# Hand-built populations in the shape of the benchmark's.
# ---------------------------------------------------------------------------

#: ``synthetic_populations``' seven demand classes.
BENCHMARK_DEMANDS = [Demand(db_cpu_ms=1.0 + step * 0.25, db_disk_ms=0.5,
                            cache_net_ms=0.25) for step in range(7)]

#: Stages that cost nothing call ``done()`` synchronously and schedule no
#: event; equal costs at different stations make completions tie.
ZERO_STAGE_DEMANDS = [
    Demand(db_cpu_ms=1.0, db_disk_ms=0.0, cache_net_ms=0.25),
    Demand(db_cpu_ms=0.5, db_disk_ms=0.5, cache_net_ms=0.0),
    Demand(db_cpu_ms=0.0, db_disk_ms=0.0, cache_net_ms=0.0),
    Demand(db_cpu_ms=0.0, db_disk_ms=0.5, cache_net_ms=0.5),
    Demand(db_cpu_ms=0.5, db_disk_ms=0.5, cache_net_ms=0.5),
    Demand(db_cpu_ms=1.0, db_disk_ms=0.0, cache_net_ms=0.0),
]


def population(seed, clients, pages_per_client, demands=BENCHMARK_DEMANDS,
               demand_per_page=False):
    """Shared ``Demand``s and counter bag; the seed picks each client's
    demand class (or, for the zero-stage population, each page's)."""
    rng = random.Random(seed)
    counters = CostCounters()
    result = ReplayResult()
    for client_id in range(clients):
        demand = demands[rng.randrange(len(demands))]
        for index in range(pages_per_client):
            if demand_per_page:
                demand = demands[rng.randrange(len(demands))]
            result.pages.append(ReplayedPage(
                client_id=client_id,
                page="LookupBM" if index % 2 else "CreateBM",
                user_id=client_id + 1, demand=demand, counters=counters))
    return result


#: name -> (population, simulation options)
PINNED_POPULATIONS = {
    "saturated/2000x3/think=0": (
        lambda: population(20, 2_000, 3),
        SimulationOptions(think_time_ms=0.0)),
    "thinking/40x12/think=30": (
        lambda: population(21, 40, 12), SimulationOptions()),
    "servers=2,3/12x10/think=0.5": (
        lambda: population(22, 12, 10),
        SimulationOptions(think_time_ms=0.5, db_cpu_servers=2,
                          db_disk_servers=3)),
    "zero-stages/16x8/think=0": (
        lambda: population(23, 16, 8, ZERO_STAGE_DEMANDS,
                           demand_per_page=True),
        SimulationOptions(think_time_ms=0.0)),
}

#: SHA-256 of :func:`event_order_fingerprint`, generated at commit c8af8c7 from
#: the closure-based path.  Regenerate only for a deliberate behaviour change:
#: every modelled number in EXPERIMENTS.md moves with these.
GOLDEN_EVENT_ORDER = {
    "saturated/2000x3/think=0":
        "6469e68c5cbc291ad0d8cff8d4162a81b2f0761a80c84afbba9db99383ea4ab3",
    "thinking/40x12/think=30":
        "76528d08adeb8961078c0cb9ae1e8c7066a11d0d5aef784928b82bdab4731c96",
    "servers=2,3/12x10/think=0.5":
        "e2712e44dcad197c533ee411cb95739a727ffb9414db181854abb28aa72923cc",
    "zero-stages/16x8/think=0":
        "bc70d3b14105d9d9e7c1e696175701e12b7c94b54a8ad229f89af7afc8e4cf22",
}


def event_order_fingerprint(completions, engine_events, duration, window_end):
    return {"completions": completions, "engine_events": engine_events,
            "duration": repr(duration), "window_end": repr(window_end)}


def digest(fingerprint):
    canonical = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestGoldenEventOrder:
    @pytest.mark.parametrize("name", sorted(PINNED_POPULATIONS))
    def test_retained_run_matches_the_pin(self, name):
        build, options = PINNED_POPULATIONS[name]
        replay = build()
        metrics = simulate_population(replay, options=options,
                                      retain_completions=True)
        assert len(metrics.completions) == len(replay.pages)
        fingerprint = event_order_fingerprint(
            completion_rows(metrics), metrics.engine_events, metrics.duration,
            metrics.window_end)
        assert digest(fingerprint) == GOLDEN_EVENT_ORDER[name]

    @pytest.mark.parametrize("name", sorted(PINNED_POPULATIONS))
    def test_streamed_run_equals_the_retained_run(self, name):
        """Streaming folds each completion in as it is recorded; every exact
        number equals what the retained list gives afterwards."""
        build, options = PINNED_POPULATIONS[name]
        replay = build()
        retained = simulate_population(replay, options=options,
                                       retain_completions=True)
        streamed = simulate_population(replay, options=options,
                                       retain_completions=False)
        assert streamed.completions == []
        exact = [key for key in retained.summary() if key != "p95_latency_s"]
        assert ({key: streamed.summary()[key] for key in exact}
                == {key: retained.summary()[key] for key in exact})
        assert streamed.latency_by_page() == retained.latency_by_page()
        assert streamed.throughput_by_page() == retained.throughput_by_page()
        assert streamed.engine_events == retained.engine_events
        assert repr(streamed.duration) == repr(retained.duration)
        assert repr(streamed.window_end) == repr(retained.window_end)
        quantized = streamed.latency_percentile(0.95)
        assert (retained.latency_percentile(0.95) <= quantized
                <= retained.latency_percentile(0.95) * 1.05)

    def test_zero_stage_population_really_has_synchronous_stages(self):
        build, options = PINNED_POPULATIONS["zero-stages/16x8/think=0"]
        replay = build()
        metrics = simulate_population(replay, options=options)
        stages = sum((page.demand.db_cpu_ms > 0) + (page.demand.db_disk_ms > 0)
                     + (page.demand.cache_net_ms > 0) for page in replay.pages)
        assert any(page.demand.total_ms == 0 for page in replay.pages)
        # One start event a client, one next-page event a page, and one
        # completion event for each stage that costs anything.
        assert metrics.engine_events == 16 + len(replay.pages) + stages
        assert metrics.engine_events < 16 + 4 * len(replay.pages)


# ---------------------------------------------------------------------------
# Reference against real, over random small populations.
# ---------------------------------------------------------------------------

#: Few distinct costs, 0 among them, equal across stations: most instants
#: carry several events and the sequence numbers decide their order.
SMALL_DEMANDS = [Demand(db_cpu_ms=cpu, db_disk_ms=disk, cache_net_ms=net)
                 for cpu in (0.0, 0.5, 1.0) for disk in (0.0, 0.5)
                 for net in (0.0, 0.5)]


@st.composite
def scripts(draw):
    page_counts = draw(st.lists(st.integers(0, 6), min_size=1, max_size=12))
    demand = st.integers(0, len(SMALL_DEMANDS) - 1)
    return {
        "pages": [draw(st.lists(demand, min_size=count, max_size=count))
                  for count in page_counts],
        "order": draw(st.permutations(range(len(page_counts)))),
        "take": draw(st.integers(1, len(page_counts))),
        "think_time_ms": draw(st.sampled_from([0.0, 0.5, 30.0])),
        "cpu_servers": draw(st.integers(1, 3)),
        "disk_servers": draw(st.integers(1, 3)),
    }


def script_pages(script):
    counters = CostCounters()
    return {client_id: [ReplayedPage(client_id=client_id, page=f"P{index % 3}",
                                     user_id=client_id + 1,
                                     demand=SMALL_DEMANDS[choice],
                                     counters=counters)
                        for index, choice in enumerate(choices)]
            for client_id, choices in enumerate(script["pages"])}


def script_options(script):
    return dict(think_time_ms=script["think_time_ms"],
                cpu_servers=script["cpu_servers"],
                disk_servers=script["disk_servers"])


def dispatched_replay(pages_by_client, order):
    """A replay whose ``client_dispatch_order`` is ``order`` (clients in the
    order their first page completed), less the clients with no pages."""
    replay = ConcurrentReplayResult()
    for position in range(max(map(len, pages_by_client.values()))):
        for client_id in order:
            if position < len(pages_by_client[client_id]):
                replay.pages.append(pages_by_client[client_id][position])
    return replay


def assert_same_run(expected, actual):
    for key in expected:
        assert actual[key] == expected[key], key


@settings(max_examples=300, deadline=None)
@given(scripts())
def test_event_path_matches_the_closure_based_reference(script):
    pages_by_client = script_pages(script)
    options = script_options(script)

    # The rig itself, clients without pages included: such a client finishes
    # at its start event (and closes the measurement window at 0).
    client_pages = [(client_id, pages_by_client[client_id])
                    for client_id in script["order"][:script["take"]]]
    expected = run_rig(REFERENCE, client_pages, **options)
    assert_same_run(expected, run_rig(REAL, client_pages, **options))
    assert expected["finish_times"].count(None) == 0

    # ``simulate_population`` over a replay that carries a dispatch order,
    # asked for fewer clients than the replay holds.
    if not any(pages_by_client.values()):
        return
    replay = dispatched_replay(pages_by_client, script["order"])
    assert replay.client_dispatch_order() == [
        client_id for client_id in script["order"] if pages_by_client[client_id]]
    expected = run_rig(REFERENCE, selected(replay, script["take"]), **options)
    metrics = simulate_population(
        replay, clients=script["take"], retain_completions=True,
        options=SimulationOptions(
            think_time_ms=script["think_time_ms"],
            db_cpu_servers=script["cpu_servers"],
            db_disk_servers=script["disk_servers"]))
    assert completion_rows(metrics) == expected["completions"]
    assert metrics.engine_events == expected["engine_events"]
    assert metrics.duration == expected["duration"]
    assert metrics.window_end == expected["window_end"]


def test_reference_reproduces_the_pins():
    """The reference in this file is the path the pins were taken from."""
    for name, (build, options) in PINNED_POPULATIONS.items():
        run = run_rig(REFERENCE, selected(build()),
                      think_time_ms=options.think_time_ms,
                      cpu_servers=options.db_cpu_servers,
                      disk_servers=options.db_disk_servers)
        fingerprint = event_order_fingerprint(
            run["completions"], run["engine_events"], run["duration"],
            run["window_end"])
        assert digest(fingerprint) == GOLDEN_EVENT_ORDER[name]


# -- seeded mutants: each must fail the comparison above ------------------------

class DoneBeforeNextJob(QueueingResource):
    """Calls ``done`` before it hands the server to the next queued job: the
    two events they schedule swap sequence numbers."""

    def _complete(self, done):
        self.jobs_served += 1
        done()
        if self._queue:
            service_time, next_done, arrived = self._queue.popleft()
            self.total_queue_wait += self.engine.now - arrived
            self.busy_time += service_time
            self.total_service_time += service_time
            self.engine.schedule(service_time, self._complete, next_done)
        else:
            self._busy -= 1


class SkipsTheNextPageEvent(SimulatedClient):
    """Starts the next page inside the completion when there is no think
    time, instead of scheduling the zero-delay event."""

    def _after_cache(self):
        page = self._page
        self.metrics.record(PageCompletion(
            self.client_id, page.page, page.user_id,
            self._page_started / 1000.0, self.engine.now / 1000.0))
        if self.think_time_ms > 0:
            self.engine.schedule(self.think_time_ms, self._start_next_page)
        else:
            self._start_next_page()


class DropsTheSequenceNumber(EventEngine):
    """Every heap entry carries the same sequence number: ties fall through
    to comparing callbacks."""

    def schedule(self, delay, callback, *args):
        heapq.heappush(self._events, (self.now + delay, 0, callback, args))


MUTANTS = {
    "done-before-next-job": REAL.but(queueing=DoneBeforeNextJob),
    "next-page-event-skipped": REAL.but(client=SkipsTheNextPageEvent),
    "sequence-number-dropped": REAL.but(engine=DropsTheSequenceNumber),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_seeded_mutants_fail_the_differential(name):
    build, options = PINNED_POPULATIONS["zero-stages/16x8/think=0"]
    client_pages = selected(build())
    expected = run_rig(REFERENCE, client_pages)
    assert_same_run(expected, run_rig(REAL, client_pages))
    # Unorderable callbacks (TypeError) are as much a failure as a difference.
    with pytest.raises((AssertionError, TypeError)):
        assert_same_run(expected, run_rig(MUTANTS[name], client_pages))


# ---------------------------------------------------------------------------
# Unit cases.
# ---------------------------------------------------------------------------

class TestEventArguments:
    def test_schedule_passes_the_arguments(self):
        engine = EventEngine()
        calls = []
        engine.schedule(1.0, lambda *args: calls.append(args), "a", "b")
        engine.schedule_at(2.0, lambda *args: calls.append(args), "c")
        engine.run()
        assert calls == [("a", "b"), ("c",)]

    def test_two_argument_form(self):
        engine = EventEngine()
        calls = []
        engine.schedule(1.0, lambda: calls.append("delay"))
        engine.schedule_at(0.5, lambda: calls.append("timestamp"))
        assert engine.pending_events == 2
        assert engine.run() == 1.0
        assert calls == ["timestamp", "delay"]

    @pytest.mark.parametrize("bad, message", [
        (-1, "cannot schedule an event -1 in the past"),
        (float("nan"), "event delay must be finite, got nan"),
        (float("inf"), "event delay must be finite, got inf"),
        (float("-inf"), "event delay must be finite, got -inf"),
    ])
    def test_schedule_keeps_both_messages(self, bad, message):
        engine = EventEngine()
        with pytest.raises(SimulationError) as raised:
            engine.schedule(bad, lambda: None)
        assert str(raised.value) == message
        assert engine.pending_events == 0

    @pytest.mark.parametrize("bad, message", [
        (-1, "cannot schedule an event at -1 < now=0.0"),
        (float("nan"), "event timestamp must be finite, got nan"),
        (float("inf"), "event timestamp must be finite, got inf"),
        (float("-inf"), "event timestamp must be finite, got -inf"),
    ])
    def test_schedule_at_keeps_both_messages(self, bad, message):
        engine = EventEngine()
        with pytest.raises(SimulationError) as raised:
            engine.schedule_at(bad, lambda: None)
        assert str(raised.value) == message
        assert engine.pending_events == 0

    def test_schedule_at_refuses_the_past_of_a_running_engine(self):
        engine = EventEngine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        engine.schedule_at(5.0, lambda: None)        # now itself is allowed
        with pytest.raises(SimulationError, match=r"at 4\.5 < now=5\.0"):
            engine.schedule_at(4.5, lambda: None)

    def test_a_raising_callback_keeps_the_count_of_events_before_it(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.schedule(3.0, lambda: 1 / 0)
        engine.schedule(4.0, lambda: None)
        with pytest.raises(ZeroDivisionError):
            engine.run()
        assert engine.processed_events == 2
        assert engine.pending_events == 1
        engine.run()
        assert engine.processed_events == 3


class TestEventCap:
    """``max_events`` is the number of events a run may process."""

    @staticmethod
    def engine_with(events):
        engine = EventEngine()
        for index in range(events):
            engine.schedule(float(index), lambda: None)
        return engine

    def test_exactly_the_cap_returns(self):
        engine = self.engine_with(3)
        assert engine.run(max_events=3) == 2.0
        assert engine.processed_events == 3

    def test_one_more_raises_with_the_cap_processed(self):
        engine = self.engine_with(4)
        with pytest.raises(SimulationError, match="exceeded 3 events"):
            engine.run(max_events=3)
        assert engine.processed_events == 3
        assert engine.pending_events == 1

    def test_a_scheduling_loop_still_trips_it(self):
        engine = EventEngine()

        def reschedule():
            engine.schedule(1, reschedule)

        engine.schedule(1, reschedule)
        with pytest.raises(SimulationError, match="likely a scheduling loop"):
            engine.run(max_events=100)
        assert engine.processed_events == 100

    def test_population_brings_its_own_budget(self, monkeypatch):
        """3 000 pages are 12 000 events and more; the engine's default cap
        is for callers that cannot say how many events they expect."""
        defaults = list(EventEngine.run.__defaults__)
        defaults[-1] = 100
        monkeypatch.setattr(EventEngine.run, "__defaults__", tuple(defaults))
        engine = self.engine_with(101)
        with pytest.raises(SimulationError, match="exceeded 100 events"):
            engine.run()
        replay = population(24, 1_000, 3)
        metrics = simulate_population(
            replay, options=SimulationOptions(think_time_ms=0.0))
        assert metrics.engine_events == 1_000 + 4 * 3_000

    def test_population_budget_is_named_when_a_loop_trips_it(self, monkeypatch):
        class Restarts(SimulatedClient):
            def _start_next_page(self):
                self._index = 0
                super()._start_next_page()

        monkeypatch.setattr(runner_module, "SimulatedClient", Restarts)
        with pytest.raises(SimulationError) as raised:
            simulate_population(population(25, 2, 3))
        # Two start events and four events for each of six pages.
        assert "exceeded 26 events" in str(raised.value)
        assert "4 a page + 1 a client" in str(raised.value)


class TestNoClientOutlivesItsRun:
    def test_clients_die_with_the_run_without_a_collection(self, monkeypatch):
        """A client that stored its own bound methods would be a reference
        cycle, and 2 500 of them a benchmark part would wait for the next
        full collection: peak memory up, not down."""
        alive = []

        class Tracked(SimulatedClient):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                alive.append(weakref.ref(self))

        monkeypatch.setattr(runner_module, "SimulatedClient", Tracked)
        replay = population(26, 50, 4)
        gc.collect()
        gc.disable()
        try:
            metrics = simulate_population(replay)
            survivors = [ref for ref in alive if ref() is not None]
        finally:
            gc.enable()
        assert len(alive) == 50 and metrics.completed_pages > 0
        assert survivors == []
