"""Chrome trace-event JSON export (Perfetto / chrome://tracing loadable).

Emits the classic `trace event format`_: one ``"X"`` (complete) event per
finished span, one ``"i"`` (instant) event per marker, plus ``"M"``
metadata events naming each replay's process lane and each worker thread
in it.  Timestamps are the tracer's composite clock — virtual microseconds
plus the global event tick — so page arrivals spread along the time axis
while same-instant events keep their causal order and nesting.

.. _trace event format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Tuple

from .tracer import Span, Tracer

__all__ = ["composite_timestamp_us", "chrome_trace", "chrome_trace_events",
           "write_chrome_trace"]

#: One replay's events are exported as this process; :func:`chrome_trace`
#: gives each replay its own.
_PID = 0

#: A named replay's events: ``(lane name, chrome_trace_events(tracer))``.
Lane = Tuple[str, Sequence[Dict[str, Any]]]


def composite_timestamp_us(seconds: float, tick: int) -> int:
    """Virtual microseconds + global tick: strictly increasing, causal."""
    return int(round(seconds * 1_000_000)) + tick


def _span_event(span: Span, phase: str) -> Dict[str, Any]:
    start = composite_timestamp_us(span.start_seconds, span.start_tick)
    event: Dict[str, Any] = {
        "name": span.name,
        "cat": span.category,
        "ph": phase,
        "ts": start,
        "pid": _PID,
        "tid": span.tid,
        "args": dict(span.args),
    }
    if phase == "X":
        event["dur"] = composite_timestamp_us(
            span.end_seconds, span.end_tick) - start
    else:
        event["s"] = "t"  # thread-scoped instant
    return event


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """One replay's events: a name per worker thread, then every span and
    instant in start-tick order."""
    tids = sorted({s.tid for s in tracer.finished}
                  | {s.tid for s in tracer.instants})
    events: List[Dict[str, Any]] = [{
        "name": "thread_name", "ph": "M", "pid": _PID, "tid": tid,
        "args": {"name": f"worker {tid}"},
    } for tid in tids]
    spans = [(s, "X") for s in tracer.finished]
    spans.extend((s, "i") for s in tracer.instants)
    # Start-tick order: the viewer does not require it, but it makes the
    # exported file diffable.
    spans.sort(key=lambda pair: pair[0].start_tick)
    events.extend(_span_event(span, phase) for span, phase in spans)
    return events


def chrome_trace(lanes: Sequence[Lane]) -> Dict[str, Any]:
    """The full trace document, one process lane per named replay:
    ``{"traceEvents": [...]}``."""
    events: List[Dict[str, Any]] = []
    for pid, (name, lane) in enumerate(lanes):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": name}})
        events.extend({**event, "pid": pid} for event in lane)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(lanes: Sequence[Lane], path: str) -> str:
    """Serialize :func:`chrome_trace` of ``lanes`` to ``path``; returns the
    path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(lanes), handle, indent=1)
        handle.write("\n")
    return path
