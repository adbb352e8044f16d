"""Causal span tracing on the simulated clock.

A :class:`Tracer` records *spans* — named, nested intervals — at the layer
boundaries of the replay pipeline: page renders and fragments in the social
application, ORM interception, multi-key cache round trips, trigger-queue
flush rounds and background refresh recomputes, plus an *instant* per
cluster fault.  It is an observer on :mod:`repro.obs.hooks`' chain: a span
opens on each ``enter`` notification and closes on its ``exit``, and each
``mark`` is an instant.
Everything is driven by the replay's own virtual clock plus a global
monotonic *tick* counter, so traces are deterministic for a deterministic
replay: no wall-clock reads, no randomness, no thread-identity dependence.

**Timestamps.**  The virtual clock only advances between page loads (the
arrival model), so all events inside one page share a virtual time.  Every
tracer event therefore also consumes one global tick, and the exported
timestamp is the composite ``virtual_microseconds + tick`` — strictly
increasing, causally ordered, and meaningful in a trace viewer.  A span's
``tick_duration`` (ticks elapsed while it was open) is the deterministic
"work" measure the flame summary aggregates; its ``seconds_duration`` is
real virtual time (nonzero only for spans that straddle a clock advance,
e.g. a refresh drain after an arrival gap).

**Worker contexts.**  Under the concurrent replay engine each worker owns a
:class:`SpanStack` of its own, which the engine installs as
:attr:`Tracer.context` on every hand-off, so a span opened by worker A stays
on A's stack while B runs, and parentage is always causally correct.  The
tracer's own stack is the serial pipeline's — exported as thread 0, the
same thread id as worker 0, because the serial replay *is* worker 0's
schedule.

Tracing is **default-off and zero-perturbation by construction**: a tracer
sees the replay only while the replay engine keeps it subscribed, an
untraced boundary costs one test of the empty chain, and the tracer itself
only reads the clock — it never advances it, touches an RNG, or changes
control flow.  ``tests/obs/test_tracing_differential.py`` pins that a traced
replay is bit-identical to an untraced one and leaves nothing subscribed.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterator, List, Optional

from .hooks import Observer

__all__ = ["Span", "SpanStack", "Tracer"]


class SpanStack(list):
    """One thread's open spans, innermost last, and the thread id its spans
    export under (a replay worker's id; 0 for the serial pipeline)."""

    __slots__ = ("tid",)

    def __init__(self, tid: int = 0) -> None:
        super().__init__()
        self.tid = tid


class Span:
    """One named interval (or instant) recorded by a :class:`Tracer`.

    A ``__slots__`` record: hot replays create one per cache round trip.
    ``category`` is the layer prefix of the name (``"cache"`` for
    ``"cache:get_multi"``), which is what the Chrome exporter uses as the
    event category and the tests use to assert layer coverage.
    """

    __slots__ = ("name", "args", "stack", "tid", "parent",
                 "start_seconds", "start_tick", "end_seconds", "end_tick")

    def __init__(self, name: str, stack: SpanStack,
                 parent: Optional["Span"], start_seconds: float,
                 start_tick: int, args: Dict[str, Any]) -> None:
        self.name = name
        self.args = args
        #: The stack the span was opened on (and is popped from).
        self.stack = stack
        self.tid = stack.tid
        self.parent = parent
        self.start_seconds = start_seconds
        self.start_tick = start_tick
        self.end_seconds: Optional[float] = None
        self.end_tick: Optional[int] = None

    @property
    def category(self) -> str:
        return self.name.split(":", 1)[0]

    @property
    def tick_duration(self) -> int:
        """Ticks (tracer events) elapsed while this span was open."""
        return (self.end_tick - self.start_tick
                if self.end_tick is not None else 0)

    @property
    def seconds_duration(self) -> float:
        """Virtual seconds elapsed while this span was open."""
        return (self.end_seconds - self.start_seconds
                if self.end_seconds is not None else 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, tid={self.tid}, "
                f"ticks={self.tick_duration}, args={self.args})")


class Tracer(Observer):
    """Records causally nested spans against a virtual clock.

    ``clock`` is a callable returning virtual seconds (a
    :class:`~repro.sim.clock.VirtualClock` works directly) or None for a
    clockless trace (timestamps are then pure ticks).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        if clock is None:
            self._now: Callable[[], float] = lambda: 0.0
        elif callable(clock):
            self._now = clock
        else:
            self._now = clock.now
        self._tick = 0
        #: The live span stack: the serial pipeline's, or the running
        #: replay worker's.
        self.context = SpanStack()
        #: Completed spans, in end order (children before their parents).
        self.finished: List[Span] = []
        #: Zero-duration marker events, in record order.
        self.instants: List[Span] = []
        #: Spans abandoned open when their stack was closed (an aborted
        #: worker unwound past its end calls).
        self.dropped = 0

    # -- worker contexts --------------------------------------------------------

    def close_context(self, stack: SpanStack) -> int:
        """Retire a worker's stack (teardown); still-open spans are
        abandoned (counted in :attr:`dropped`, never exported).  Returns the
        number abandoned."""
        abandoned = len(stack)
        stack.clear()
        self.dropped += abandoned
        return abandoned

    # -- recording --------------------------------------------------------------

    def begin(self, name: str, **args: Any) -> Span:
        """Open a span on the live stack and return it."""
        return self._open(name, args)

    def _open(self, name: str, args: Dict[str, Any]) -> Span:
        stack = self.context
        self._tick += 1
        span = Span(name, stack, parent=stack[-1] if stack else None,
                    start_seconds=self._now(), start_tick=self._tick,
                    args=args)
        stack.append(span)
        return span

    def end(self, span: Span, **args: Any) -> Span:
        """Close ``span`` (popping it from the stack it was opened on)."""
        if args:
            span.args.update(args)
        self._tick += 1
        span.end_seconds = self._now()
        span.end_tick = self._tick
        stack = span.stack
        if span in stack:
            # Anything still open above the span was abandoned by an
            # unwinding error path: close the stack down to the span.
            while stack:
                top = stack.pop()
                if top is span:
                    break
                self.dropped += 1
        self.finished.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Span]:
        """``with tracer.span("page:wall", worker=w): ...`` — begin/end."""
        opened = self.begin(name, **args)
        try:
            yield opened
        finally:
            self.end(opened)

    def instant(self, name: str, **args: Any) -> Span:
        """Record a zero-duration marker (e.g. a cluster fault firing)."""
        self._tick += 1
        span = Span(name, self.context, parent=None,
                    start_seconds=self._now(), start_tick=self._tick,
                    args=args)
        span.end_seconds = span.start_seconds
        span.end_tick = span.start_tick
        self.instants.append(span)
        return span

    # -- the chain's notifications ----------------------------------------------

    def enter(self, label: str, args: Dict[str, Any]) -> None:
        self._open(label, args)

    def exit(self, label: str, args: Dict[str, Any]) -> None:
        """End the innermost open span, the one ``enter`` opened with this
        very ``args`` — unless its worker's stack was already closed."""
        stack = self.context
        if stack and stack[-1].args is args:
            self.end(stack[-1])

    def mark(self, label: str, args: Dict[str, Any]) -> None:
        self.instant(label, **args)

    # -- derived views ----------------------------------------------------------

    def flame(self) -> List[Dict[str, Any]]:
        """Aggregate finished spans by name: the text flame summary.

        Each row carries ``count``, total ``ticks``, ``self_ticks`` (total
        minus the ticks of direct children — where the work actually
        happened), and total virtual ``seconds``.  Rows are ordered by
        total ticks, heaviest first (name breaks ties, so the summary is
        stable).
        """
        rows: Dict[str, Dict[str, Any]] = {}

        def row_for(name: str) -> Dict[str, Any]:
            return rows.setdefault(name, {"name": name, "count": 0,
                                          "ticks": 0, "self_ticks": 0,
                                          "seconds": 0.0})

        for span in self.finished:
            row = row_for(span.name)
            ticks = span.tick_duration
            row["count"] += 1
            row["ticks"] += ticks
            row["self_ticks"] += ticks
            row["seconds"] += span.seconds_duration
            if span.parent is not None:
                row_for(span.parent.name)["self_ticks"] -= ticks
        return sorted(rows.values(),
                      key=lambda r: (-r["ticks"], r["name"]))
