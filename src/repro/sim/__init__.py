"""Simulation substrate: virtual clock, discrete-event engine, resources,
closed-loop clients, metrics, MVA cross-checks, and the workload runner."""

from .client import PageDemand, SimulatedClient
from .clock import VirtualClock
from .concurrent import ConcurrentReplayResult, ConcurrentReplayer
from .events import EventEngine
from .interleave import (ADVERSARIAL, ALL_POLICIES, InterleaveScheduler,
                         KEY_OVERLAP, RANDOM, ROUND_ROBIN, WorkerStatus,
                         interleave_trace)
from .metrics import (RUN_JSON_SCHEMA, PageCompletion, RunMetrics,
                      percentile)
from .mva import MVAResult, asymptotic_bounds, exact_mva
from .resources import DelayResource, QueueingResource
from .runner import (STREAM_CLIENT_THRESHOLD, ReplayResult, ReplayedPage,
                     SimulationOptions, aggregate_resource_demands,
                     simulate_population)

__all__ = [
    "ADVERSARIAL",
    "ALL_POLICIES",
    "KEY_OVERLAP",
    "RUN_JSON_SCHEMA",
    "STREAM_CLIENT_THRESHOLD",
    "ConcurrentReplayResult",
    "ConcurrentReplayer",
    "DelayResource",
    "EventEngine",
    "InterleaveScheduler",
    "MVAResult",
    "PageCompletion",
    "PageDemand",
    "QueueingResource",
    "RANDOM",
    "ROUND_ROBIN",
    "ReplayResult",
    "ReplayedPage",
    "RunMetrics",
    "SimulatedClient",
    "SimulationOptions",
    "VirtualClock",
    "WorkerStatus",
    "aggregate_resource_demands",
    "asymptotic_bounds",
    "exact_mva",
    "interleave_trace",
    "percentile",
    "simulate_population",
]
