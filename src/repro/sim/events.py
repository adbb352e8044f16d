"""A minimal discrete-event simulation engine.

Events are (time, sequence, callback, args) entries on a heap; the engine pops
them in time order and calls ``callback(*args)``, which may schedule further
events.  Events at one instant run in the order they were scheduled: the
sequence number decides every tie, so nothing after it is ever compared.
Resources and simulated clients are built on top of this engine, and hand it
bound methods and their argument instead of a closure per event.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from math import inf, isfinite
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError

Callback = Callable[..., None]


class EventEngine:
    """Priority-queue discrete-event scheduler."""

    def __init__(self) -> None:
        self.now = 0.0
        self._sequence = itertools.count()
        self._events: List[Tuple[float, int, Callback, Tuple[Any, ...]]] = []
        self.processed_events = 0

    def schedule(self, delay: float, callback: Callback, *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now."""
        # One chained comparison admits exactly the finite, non-negative
        # delays.  NaN compares False against everything, so a plain ``< 0``
        # check would let it through — and a NaN timestamp makes the heap
        # invariant (and therefore the pop order) undefined.  Infinity is
        # equally meaningless as an event time.
        if not 0 <= delay < inf:
            if not isfinite(delay):
                raise SimulationError(f"event delay must be finite, got {delay}")
            raise SimulationError(f"cannot schedule an event {delay} in the past")
        heappush(self._events,
                 (self.now + delay, next(self._sequence), callback, args))

    def schedule_at(self, timestamp: float, callback: Callback, *args: Any) -> None:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if not self.now <= timestamp < inf:
            if not isfinite(timestamp):
                raise SimulationError(f"event timestamp must be finite, got {timestamp}")
            raise SimulationError(f"cannot schedule an event at {timestamp} < now={self.now}")
        heappush(self._events,
                 (timestamp, next(self._sequence), callback, args))

    @property
    def pending_events(self) -> int:
        return len(self._events)

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Run until the event queue drains (or ``until``); returns the final
        simulation time.

        ``max_events`` is how many events this call may process: it raises
        when one more is due, not when the last allowed one drained the
        queue.  A caller that knows its event count passes it
        (``simulate_population`` does); the default only stops a loop.
        """
        # Local bindings keep the hot loop free of attribute lookups;
        # ``processed_events`` is folded back in a finally block so the
        # count survives callbacks that raise.
        events = self._events
        horizon = inf if until is None else until   # event times are finite
        processed = 0
        try:
            while events:
                timestamp, _seq, callback, args = events[0]
                if timestamp > horizon:
                    self.now = horizon
                    break
                if processed >= max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events; likely a scheduling loop"
                    )
                heappop(events)
                self.now = timestamp
                callback(*args)
                processed += 1
        finally:
            self.processed_events += processed
        return self.now
