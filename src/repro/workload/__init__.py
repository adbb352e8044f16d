"""Workload substrate: configuration, zipf user selection, trace generation,
arrival shapes."""

from .arrival import ConstantArrival, DiurnalArrival, FlashCrowdArrival
from .config import DEFAULT_PAGE_MIX, WorkloadConfig
from .generator import WorkloadGenerator
from .trace import PageLoad, Session, WorkloadTrace
from .zipf import SessionCountSampler, ZipfSampler

__all__ = [
    "ConstantArrival",
    "DEFAULT_PAGE_MIX",
    "DiurnalArrival",
    "FlashCrowdArrival",
    "PageLoad",
    "Session",
    "SessionCountSampler",
    "WorkloadConfig",
    "WorkloadGenerator",
    "WorkloadTrace",
    "ZipfSampler",
]
