"""Workload substrate: configuration, zipf session counts, trace generation,
the flash-crowd arrival shape."""

from .arrival import FlashCrowdArrival
from .config import DEFAULT_PAGE_MIX, WorkloadConfig
from .generator import WorkloadGenerator
from .trace import PageLoad, Session, WorkloadTrace
from .zipf import SessionCountSampler

__all__ = [
    "DEFAULT_PAGE_MIX",
    "FlashCrowdArrival",
    "PageLoad",
    "Session",
    "SessionCountSampler",
    "WorkloadConfig",
    "WorkloadGenerator",
    "WorkloadTrace",
]
