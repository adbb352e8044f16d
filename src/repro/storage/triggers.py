"""Row-level database triggers.

CacheGenie keeps the cache consistent by installing AFTER INSERT / UPDATE /
DELETE triggers on every table that backs a cached object (§3.2 of the
paper).  This module provides the trigger registration and firing machinery;
the trigger *functions themselves* are generated by ``repro.core.triggergen``.

A trigger function receives a ``trigger_data`` mapping with the shape the
paper's example code uses::

    {"event": "insert", "table": "wall", "new": {...}, "old": None}

Triggers fire synchronously as part of the statement that modified the row,
which is what gives CacheGenie its "see your own writes" guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..errors import TriggerError
from .costmodel import Recorder

#: Trigger events, lower-case, matching the paper's terminology.
EVENTS = ("insert", "update", "delete")

TriggerFunction = Callable[[Dict[str, Any]], None]


@dataclass
class Trigger:
    """A registered trigger: a named function bound to (table, event)."""

    name: str
    table: str
    event: str
    function: TriggerFunction
    #: Free-form metadata; CacheGenie stores the cached-object name and the
    #: generated source text here so programmer-effort metrics can be computed.
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.event not in EVENTS:
            raise TriggerError(
                f"invalid trigger event {self.event!r}; expected one of {EVENTS}"
            )


class TriggerManager:
    """Stores triggers and fires them when tables change.

    The manager also supports globally disabling triggers, which the
    benchmark harness uses for Experiment 5 (the "ideal system" where the
    cache is updated for free).
    """

    def __init__(self, recorder: Optional[Recorder] = None) -> None:
        self.recorder = recorder or Recorder()
        self._triggers: Dict[str, Trigger] = {}
        self._by_table_event: Dict[tuple, List[Trigger]] = {}
        self.globally_enabled = True

    # -- registration ---------------------------------------------------------

    def create_trigger(
        self,
        name: str,
        table: str,
        event: str,
        function: TriggerFunction,
        metadata: Optional[Dict[str, Any]] = None,
        replace: bool = False,
    ) -> Trigger:
        """Register a trigger.  Raises if the name exists and ``replace`` is False."""
        if name in self._triggers and not replace:
            raise TriggerError(f"trigger {name!r} already exists")
        if name in self._triggers:
            self.drop_trigger(name)
        trigger = Trigger(name=name, table=table, event=event,
                          function=function, metadata=dict(metadata or {}))
        self._triggers[name] = trigger
        self._by_table_event.setdefault((table, event), []).append(trigger)
        return trigger

    def drop_trigger(self, name: str) -> None:
        """Remove a trigger by name."""
        trigger = self._triggers.pop(name, None)
        if trigger is None:
            raise TriggerError(f"trigger {name!r} does not exist")
        bucket = self._by_table_event.get((trigger.table, trigger.event), [])
        if trigger in bucket:
            bucket.remove(trigger)

    def list_triggers(self, table: str) -> List[Trigger]:
        """The registered triggers on ``table``."""
        return [t for t in self._triggers.values() if t.table == table]

    def __len__(self) -> int:
        return len(self._triggers)

    def __contains__(self, name: str) -> bool:
        return name in self._triggers

    # -- enable/disable ------------------------------------------------------

    def disable_all(self) -> None:
        """Globally disable trigger firing (Experiment 5's ideal system)."""
        self.globally_enabled = False

    # -- firing ---------------------------------------------------------------

    def fire(
        self,
        table: str,
        event: str,
        new: Optional[Mapping[str, Any]],
        old: Optional[Mapping[str, Any]],
    ) -> int:
        """Fire every trigger on (table, event).  Returns count fired.

        Trigger exceptions propagate to the caller: as in Postgres, a failing
        trigger aborts the statement that caused it.
        """
        if not self.globally_enabled:
            return 0
        fired = 0
        for trigger in self._by_table_event.get((table, event), []):
            self.recorder.record("trigger_launches")
            trigger_data = {
                "event": event,
                "table": table,
                "new": dict(new) if new is not None else None,
                "old": dict(old) if old is not None else None,
            }
            try:
                trigger.function(trigger_data)
            except Exception as exc:
                raise TriggerError(
                    f"trigger {trigger.name!r} failed on {event} of {table!r}: {exc}"
                ) from exc
            fired += 1
        return fired
