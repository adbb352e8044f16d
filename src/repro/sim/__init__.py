"""Simulation substrate: virtual clock, discrete-event engine, resources,
closed-loop clients, metrics, MVA cross-checks, and the workload runner."""

from .client import PageDemand, SimulatedClient
from .clock import VirtualClock
from .concurrent import ConcurrentReplayResult, ConcurrentReplayer
from .events import EventEngine
from .interleave import (ADVERSARIAL, ALL_POLICIES, InterleaveScheduler,
                         KEY_OVERLAP, RANDOM, ROUND_ROBIN, WorkerStatus,
                         interleave_trace)
from .metrics import PageCompletion, RunMetrics, percentile
from .mva import MVAResult, asymptotic_bounds, exact_mva
from .resources import DelayResource, QueueingResource
from .runner import (STREAM_CLIENT_THRESHOLD, ReplayResult, ReplayedPage,
                     SimulationOptions, simulate_population)

__all__ = [
    "ADVERSARIAL",
    "ALL_POLICIES",
    "KEY_OVERLAP",
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
    "asymptotic_bounds",
    "exact_mva",
    "interleave_trace",
    "percentile",
    "simulate_population",
]
