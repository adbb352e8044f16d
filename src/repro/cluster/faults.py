"""Declarative fault schedules, fired deterministically on the virtual clock.

A fault scenario is data, not code: a list of :class:`FaultEvent` rows
(``at=12.5, action="kill", node="cache1"``) validated up front by
:class:`FaultSchedule`.  :class:`FaultInjector` loads the schedule into a
private :class:`~repro.sim.events.EventEngine` and the replay engine calls
:meth:`FaultInjector.fire_due` at every clock advance — so faults land at
exactly the same simulated instant in every run (serial or concurrent),
which is what keeps the cluster ablation reproducible under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..errors import CacheServerError
from ..memcache.server import CacheServer
from ..obs import hooks
from ..sim.events import EventEngine
from .controller import ClusterController, ClusterEvent

#: The lifecycle verbs a schedule may invoke, mapping 1:1 onto
#: :class:`ClusterController` methods.
FAULT_ACTIONS = ("kill", "revive", "drain", "join")


@dataclass(frozen=True)
class FaultEvent:
    """One timed lifecycle action.

    ``kill`` / ``revive`` / ``drain`` name an existing node via ``node``;
    ``join`` carries the new :class:`CacheServer` instance via ``server``.
    Each carries only its own field, so :attr:`target` names the node the
    action really touches.
    """

    at: float
    action: str
    node: Optional[str] = None
    server: Optional[CacheServer] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.at) or self.at < 0:
            raise CacheServerError(f"fault time must be finite and >= 0, got {self.at!r}")
        if self.action not in FAULT_ACTIONS:
            raise CacheServerError(
                f"unknown fault action {self.action!r} (expected one of {FAULT_ACTIONS})")
        if self.action == "join":
            if self.server is None or self.node is not None:
                raise CacheServerError(
                    "join fault requires server=<CacheServer> and no node")
        elif self.node is None or self.server is not None:
            raise CacheServerError(
                f"{self.action} fault requires node=<name> and no server")

    @property
    def target(self) -> str:
        return self.node if self.node is not None else self.server.name


class FaultSchedule:
    """A validated, time-ordered list of :class:`FaultEvent` rows."""

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self.events: List[FaultEvent] = sorted(events, key=lambda e: e.at)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon(self) -> float:
        """The time of the last scheduled fault (0.0 when empty)."""
        return self.events[-1].at if self.events else 0.0

    def describe(self) -> List[str]:
        return [f"t={e.at:g}s {e.action} {e.target}" for e in self.events]


class FaultInjector:
    """Fire a :class:`FaultSchedule` against a controller as time advances.

    The injector owns a private event engine so fault ordering is governed
    by simulated time alone — the replay engine only has to call
    :meth:`fire_due` with the current clock reading at its clock-advance
    points (the same points in serial and concurrent replay).  Each fired
    fault is a ``cluster:<action>`` mark on :mod:`repro.obs.hooks`' chain.
    """

    def __init__(self, controller: ClusterController,
                 schedule: FaultSchedule) -> None:
        self.controller = controller
        self.schedule = schedule
        self.fired: List[ClusterEvent] = []
        self._engine = EventEngine()
        for event in schedule:
            self._engine.schedule_at(event.at, self._apply(event))

    def _apply(self, event: FaultEvent) -> Callable[[], None]:
        def fire() -> None:
            if event.action == "join":
                result = self.controller.join(event.server)
            else:
                result = getattr(self.controller, event.action)(event.node)
            self.fired.append(result)
            hooks.mark(f"cluster:{event.action}", node=event.target,
                       at=event.at)
        return fire

    def schedule_probe(self, at: float, probe: Callable[[], None]) -> None:
        """Register an extra callback (e.g. a stats sample) at time ``at``.

        Probes share the fault engine, so a probe at the same instant as a
        fault fires in schedule order (insertion order breaks the tie) —
        experiments use this to sample segment boundaries deterministically.
        """
        self._engine.schedule_at(at, probe)

    @property
    def pending(self) -> int:
        return self._engine.pending_events

    def fire_due(self, now: float) -> int:
        """Fire every event scheduled at or before ``now``; returns the count."""
        before = len(self.fired)
        self._engine.run(until=now)
        return len(self.fired) - before
