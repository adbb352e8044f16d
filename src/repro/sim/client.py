"""Simulated closed-loop clients.

Each client owns a sequence of page-load *demands* (measured during the
functional replay) and walks through them: a page occupies the database CPU,
then the database disk, then incurs the cache/network delay, then the client
"thinks" briefly and starts its next page.  Clients never overlap their own
pages (closed loop), but all clients contend for the shared resources — which
is where queueing, saturation, and the paper's throughput ceilings come from.

The ``pages`` sequence is duck-typed: anything with ``page``, ``user_id``
and ``demand`` attributes works — a replay's own
:class:`~repro.sim.runner.ReplayedPage` objects as much as hand-built
:class:`PageDemand` stubs.  Clients never copy or mutate the sequence, so
``simulate_population`` hands every client a view into the replay's
per-client index instead of materializing a demand list per client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..storage.costmodel import Demand
from .events import EventEngine
from .metrics import PageCompletion, RunMetrics
from .resources import DelayResource, QueueingResource


@dataclass
class PageDemand:
    """The simulated resource demand of one page load."""

    page: str
    user_id: int
    demand: Demand


class SimulatedClient:
    """One closed-loop client replaying its page-demand sequence."""

    def __init__(
        self,
        client_id: int,
        engine: EventEngine,
        db_cpu: QueueingResource,
        db_disk: QueueingResource,
        cache_net: DelayResource,
        pages: Sequence["PageDemand"],
        metrics: RunMetrics,
        think_time_ms: float = 0.0,
        on_finished: Optional[Callable[["SimulatedClient"], None]] = None,
    ) -> None:
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
        self.finish_time: Optional[float] = None
        # A closed-loop client has exactly one page in flight: it and its
        # start time live here, not in a closure per page.
        self._page: Optional["PageDemand"] = None
        self._page_started = 0.0

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Begin executing the client's first page load."""
        self.engine.schedule(0.0, self._start_next_page)

    # Stage 1: database CPU, Stage 2: database disk, Stage 3: cache network.
    # Each stage hands the resource a *fresh* bound method.  Never store one on
    # the instance: a client that holds its own bound methods is a reference
    # cycle, and a population of them then dies only at the next full
    # collection instead of with the run.

    def _start_next_page(self) -> None:
        if self._index >= len(self.pages):
            self.finish_time = self.engine.now
            if self.on_finished is not None:
                self.on_finished(self)
            return
        page = self._page = self.pages[self._index]
        self._index += 1
        self._page_started = self.engine.now
        self.db_cpu.request(page.demand.db_cpu_ms, self._after_cpu)

    def _after_cpu(self) -> None:
        self.db_disk.request(self._page.demand.db_disk_ms, self._after_disk)

    def _after_disk(self) -> None:
        self.cache_net.request(self._page.demand.cache_net_ms, self._after_cache)

    def _after_cache(self) -> None:
        page = self._page
        self.metrics.record(PageCompletion(
            self.client_id, page.page, page.user_id,
            self._page_started / 1000.0, self.engine.now / 1000.0))
        think = self.think_time_ms
        self.engine.schedule(think if think > 0 else 0.0, self._start_next_page)
