"""Simulated resources: queueing servers and pure delays.

The evaluation testbed is modeled as three resources:

* ``db_cpu``  — the database machine's CPU (a FIFO queueing server);
* ``db_disk`` — the database machine's disk (a FIFO queueing server);
* ``cache_net`` — the memcached machine plus network, which in the paper is
  never the bottleneck and is therefore modeled as a pure delay (infinite
  servers).

Whichever queueing resource has the largest per-page demand saturates first
and caps throughput — the same structure the paper describes (NoCache is
CPU-bound; the cached configurations become disk-bound).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Tuple

from .events import EventEngine

Completion = Callable[[], None]


class QueueingResource:
    """A FIFO server pool with a fixed number of identical servers."""

    def __init__(self, engine: EventEngine, name: str, servers: int = 1) -> None:
        if servers < 1:
            raise ValueError("a queueing resource needs at least one server")
        self.engine = engine
        self.name = name
        self.servers = servers
        self._busy = 0
        # Each queued entry is (service_time, completion callback, arrival time).
        self._queue: Deque[Tuple[float, Completion, float]] = deque()
        # Statistics
        self.jobs_served = 0
        self.busy_time = 0.0
        self.total_queue_wait = 0.0
        self.total_service_time = 0.0

    def request(self, service_time: float, done: Completion) -> None:
        """Request ``service_time`` units of service; call ``done`` when finished."""
        if service_time <= 0:
            done()
        elif self._busy < self.servers:
            self._busy += 1
            self.busy_time += service_time
            self.total_service_time += service_time
            self.engine.schedule(service_time, self._complete, done)
        else:
            self._queue.append((service_time, done, self.engine.now))

    def _complete(self, done: Completion) -> None:
        self.jobs_served += 1
        # Hand the server to the next queued job *before* telling this one's
        # owner: both usually schedule an event, and the order they do it in
        # hands out the sequence numbers that break a tie between the two.
        if self._queue:
            service_time, next_done, arrived = self._queue.popleft()
            self.total_queue_wait += self.engine.now - arrived
            self.busy_time += service_time
            self.total_service_time += service_time
            self.engine.schedule(service_time, self._complete, next_done)
        else:
            self._busy -= 1
        done()

    # -- statistics -----------------------------------------------------------

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def utilization(self, elapsed: float) -> float:
        """Fraction of capacity used over ``elapsed`` simulated time."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / (elapsed * self.servers))

    def mean_wait(self) -> float:
        if self.jobs_served == 0:
            return 0.0
        return self.total_queue_wait / self.jobs_served


class DelayResource:
    """An infinite-server resource: pure latency, never a bottleneck."""

    def __init__(self, engine: EventEngine, name: str) -> None:
        self.engine = engine
        self.name = name
        self.jobs_served = 0
        self.total_service_time = 0.0

    def request(self, service_time: float, done: Completion) -> None:
        if service_time <= 0:
            done()
            return
        self.total_service_time += service_time
        self.engine.schedule(service_time, self._complete, done)

    def _complete(self, done: Completion) -> None:
        self.jobs_served += 1
        done()
