"""Observability: causal span tracing + fixed-bucket histograms.

Span-level visibility from the ORM down to the cache fleet, on the
simulated clock, with zero perturbation when off — see
``docs/OBSERVABILITY.md`` for the guided tour.
"""

from .export import (chrome_trace_events, composite_timestamp_us,
                     write_chrome_trace)
from .install import TRACED_MULTI_OPS, install_tracing
from .metrics import (DEFAULT_LATENCY_BUCKETS_S, Histogram,
                      exponential_buckets)
from .tracer import Span, SpanStack, Tracer

__all__ = [
    "Span", "SpanStack", "Tracer",
    "install_tracing", "TRACED_MULTI_OPS",
    "chrome_trace_events", "composite_timestamp_us", "write_chrome_trace",
    "Histogram", "exponential_buckets", "DEFAULT_LATENCY_BUCKETS_S",
]
