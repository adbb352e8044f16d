"""Observability: the layer-boundary observer chain, causal span tracing and
fixed-bucket histograms.

Span-level visibility from the ORM down to the cache fleet, on the
simulated clock, with zero perturbation when off — see
``docs/OBSERVABILITY.md`` for the guided tour.  :mod:`repro.obs.hooks` is
the one chain every layer announces its boundaries on.
"""

from . import hooks
from .export import (chrome_trace_events, composite_timestamp_us,
                     write_chrome_trace)
from .metrics import (DEFAULT_LATENCY_BUCKETS_S, Histogram,
                      exponential_buckets)
from .tracer import Span, SpanStack, Tracer

__all__ = [
    "hooks", "Span", "SpanStack", "Tracer",
    "chrome_trace_events", "composite_timestamp_us", "write_chrome_trace",
    "Histogram", "exponential_buckets", "DEFAULT_LATENCY_BUCKETS_S",
]
