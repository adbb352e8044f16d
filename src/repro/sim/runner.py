"""Workload replay and closed-loop simulation.

Running an experiment has two phases, mirroring how the paper's final
measurements replay query traces:

1. **Functional replay** — every page load in the workload trace is executed
   for real against the system under test (ORM + CacheGenie + database +
   memcached).  The cache warms up, triggers fire, hit ratios evolve; the
   database's event recorder measures each page load, and the cost model
   converts the events into per-resource service demands.  There is exactly
   one replay pipeline: the concurrent engine
   (:class:`~repro.sim.concurrent.ConcurrentReplayer`); ``workers=1`` is its
   inline serial path.  This module holds the result types it fills.

2. **Closed-loop simulation** — the measured per-page demands are replayed
   through a discrete-event model of the testbed (N clients contending for
   the database CPU and disk, with cache/network as a delay), yielding the
   throughput and latency numbers the paper's figures report.  When the
   replay came from the concurrent engine, the simulation consumes its
   schedule: clients are dispatched in the order the real interleaving
   first completed their pages, and the replay's contention counters
   (``cas_retry_rounds``, ``lease_contended``, ...) ride along on the
   metrics — the cost of every retry round and lease wait is already baked
   into the measured demands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import SimulationError
from ..storage.costmodel import CostCounters, Demand
from .client import SimulatedClient
from .events import EventEngine
from .metrics import RunMetrics
from .resources import DelayResource, QueueingResource

#: Populations at or above this many simulated clients stream their metrics
#: (no retained per-completion objects) unless the caller says otherwise.
STREAM_CLIENT_THRESHOLD = 1000


@dataclass
class SimulationOptions:
    """Knobs of the discrete-event testbed model."""

    #: Client-side processing between page loads (ms): page assembly on the
    #: application layer plus the client turnaround.  Calibrated so the
    #: throughput knee falls in the 5–15 client range, as in Figure 2a.
    think_time_ms: float = 30.0

    def __post_init__(self) -> None:
        if not 0 <= self.think_time_ms < math.inf:
            raise SimulationError(
                f"think_time_ms must be finite and non-negative, "
                f"got {self.think_time_ms}")


@dataclass
class ReplayedPage:
    """One functionally executed page load and its measured demand.

    Slotted by hand (``dataclass(slots=True)`` needs Python 3.10): a large
    population is walked once per simulated page, and a ``__dict__`` per page
    was a fifth of the simulator's memory and a dict hop on every
    ``page.demand``.  No field may take a default — a class attribute would
    collide with its slot.
    """

    __slots__ = ("client_id", "page", "user_id", "demand", "counters")

    client_id: int
    page: str
    user_id: int
    demand: Demand
    counters: CostCounters


@dataclass
class ReplayResult:
    """Outcome of the functional replay phase."""

    pages: List[ReplayedPage] = field(default_factory=list)
    total_counters: CostCounters = field(default_factory=CostCounters)
    #: Lazily built client_id -> pages index.  ``simulate_population`` asks
    #: for every client's pages, which used to rescan ``pages`` once per
    #: client (O(pages x clients)); the index makes that one pass total.
    #: Rebuilt whenever ``pages`` has changed length since it was last
    #: built, so direct appends stay supported (same-length in-place
    #: element replacement is not detected — append, don't overwrite).
    _client_index: Dict[int, List[ReplayedPage]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _client_index_size: int = field(
        default=-1, init=False, repr=False, compare=False)
    #: How many times the index was (re)built — a sweep that calls
    #: ``simulate_population`` once per client count must build it once.
    index_builds: int = field(default=0, init=False, repr=False, compare=False)

    def _indexed_by_client(self) -> Dict[int, List[ReplayedPage]]:
        if self._client_index_size != len(self.pages):
            index: Dict[int, List[ReplayedPage]] = {}
            for page in self.pages:
                index.setdefault(page.client_id, []).append(page)
            self._client_index = index
            self._client_index_size = len(self.pages)
            self.index_builds += 1
        return self._client_index

    def client_ids(self) -> List[int]:
        return sorted(self._indexed_by_client())

    def mean_demand(self) -> Demand:
        """Average per-page demand across the whole replay."""
        total = Demand()
        if not self.pages:
            return total
        for page in self.pages:
            total.add(page.demand)
        return total.scaled(1.0 / len(self.pages))


def simulate_population(
    replay: ReplayResult,
    clients: Optional[int] = None,
    options: Optional[SimulationOptions] = None,
    retain_completions: Optional[bool] = None,
) -> RunMetrics:
    """Simulate ``clients`` closed-loop clients replaying their measured pages.

    When ``clients`` is smaller than the number of clients in the replay,
    only the first ``clients`` demand streams are simulated (the paper
    likewise varies the number of parallel clients over the same workload).
    "First" follows the replay's real schedule when there is one — a
    concurrent replay contributes the clients its interleaving dispatched
    first (``client_dispatch_order``); a plain result falls back to sorted
    client ids.

    ``retain_completions=False`` streams the metrics: per-completion objects
    are aggregated on the fly and dropped, so a 10⁴-client population holds
    O(pages-measured) floats instead of a global completion list.  The
    default keeps completions for small populations and streams at
    ``STREAM_CLIENT_THRESHOLD`` and above; either mode computes identical
    numbers.
    """
    options = options or SimulationOptions()
    order_fn = getattr(replay, "client_dispatch_order", None)
    client_ids = order_fn() if callable(order_fn) else replay.client_ids()
    if clients is not None:
        client_ids = client_ids[:clients]
    contention: Dict[str, int] = {}
    summary_fn = getattr(replay, "contention_summary", None)
    if callable(summary_fn):
        contention = dict(summary_fn())
    key_telemetry: Dict[str, Dict[str, float]] = dict(
        getattr(replay, "key_telemetry", None) or {})
    if not client_ids:
        return RunMetrics(contention=contention,
                          key_telemetry=key_telemetry)
    if retain_completions is None:
        retain_completions = len(client_ids) < STREAM_CLIENT_THRESHOLD

    engine = EventEngine()
    db_cpu = QueueingResource(engine, "db_cpu")
    db_disk = QueueingResource(engine, "db_disk")
    cache_net = DelayResource(engine, "cache_net")
    metrics = RunMetrics(retain_completions=retain_completions,
                         contention=contention,
                         key_telemetry=key_telemetry)

    def on_finished(client: SimulatedClient) -> None:
        # The measurement window ends when the first client runs out of
        # work; setting it the moment that happens (finishes arrive in
        # nondecreasing time order) lets streaming mode aggregate exactly
        # the completions the retained mode would have kept.
        finish = (client.finish_time if client.finish_time is not None
                  else engine.now) / 1000.0
        if metrics.window_end is None or finish < metrics.window_end:
            metrics.window_end = finish

    by_client = replay._indexed_by_client()
    simulated: List[SimulatedClient] = []
    for client_id in client_ids:
        client = SimulatedClient(
            client_id=client_id, engine=engine,
            db_cpu=db_cpu, db_disk=db_disk, cache_net=cache_net,
            # The index's own list: read-only here, and not copying it is
            # what keeps a huge population from duplicating every page.
            pages=by_client.get(client_id, []), metrics=metrics,
            think_time_ms=options.think_time_ms,
            on_finished=on_finished,
        )
        simulated.append(client)

    for client in simulated:
        client.start()
    # The run's exact event budget: a page is at most four events (one per
    # stage that costs anything, one to start the next page) and a client has
    # one start event.  Only a scheduling loop can exceed it, at any size —
    # the engine's default cap would refuse a 10^6-client population.
    pages = sum(len(client.pages) for client in simulated)
    budget = 4 * pages + len(simulated)
    try:
        end_time = engine.run(max_events=budget)
    except SimulationError as error:
        if engine.processed_events < budget:
            raise
        raise SimulationError(
            f"{error} (the budget of {pages} pages by {len(simulated)} "
            f"clients: 4 a page + 1 a client)") from error

    metrics.duration = end_time / 1000.0
    metrics.engine_events = engine.processed_events
    return metrics
