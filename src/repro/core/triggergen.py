"""Automatic trigger generation.

For every cached object, CacheGenie installs three triggers (INSERT, UPDATE,
DELETE) on each table that backs the object (§3.2).  This module does two
things for each trigger:

* installs an *executable* handler on the database (a closure that dispatches
  to the cache class's consistency logic through the trigger-side cache
  client); and
* renders the equivalent standalone *source text*, mirroring the PL/Python
  trigger bodies the original system emitted — the paper counts "about 1720
  lines of Python code" of generated triggers for 14 cached objects, and the
  programmer-effort experiment reproduces that metric from these renderings.
"""

from __future__ import annotations

from typing import Any, Dict, List, TYPE_CHECKING

from .cache_classes.base import CacheClass, TriggerSpec

if TYPE_CHECKING:  # pragma: no cover
    from .manager import CacheGenie


def trigger_name(cached_object: CacheClass, table: str, event: str) -> str:
    """Deterministic trigger name for (cached object, table, event)."""
    return f"cg_{cached_object.name}_{table}_{event}"


def render_trigger_source(cached_object: CacheClass, spec: TriggerSpec) -> str:
    """Render the standalone PL/Python-style source text of one trigger.

    The text is what the original CacheGenie would hand to ``CREATE FUNCTION
    ... LANGUAGE plpythonu``; it is not executed here (the installed closure
    is), but it is a faithful rendering of the same logic and is used for the
    programmer-effort metrics in §5.2.
    """
    name = trigger_name(cached_object, spec.table, spec.event)
    key_prefix = cached_object.keys.prefix
    where_fields = ", ".join(repr(f) for f in cached_object.where_fields)
    strategy = cached_object.strategy
    lines: List[str] = [
        f"# Trigger {name}: generated by CacheGenie, do not edit.",
        f"# {spec.description}",
        f"def {name}(trigger_data):",
        "    import memcache",
        f"    cache = memcache.Client(['{cached_object.genie.cache_address}'])",
        f"    table = {spec.table!r}",
        f"    event = {spec.event!r}",
        f"    key_prefix = {key_prefix!r}",
        f"    where_fields = [{where_fields}]",
        f"    strategy = {strategy.name!r}",
        "    new_row = trigger_data.get('new')",
        "    old_row = trigger_data.get('old')",
        "    affected = []",
        "    for row in (new_row, old_row):",
        "        if row is None:",
        "            continue",
        "        values = [row.get(f) for f in where_fields]",
        "        affected.append(':'.join([key_prefix] + [str(v) for v in values]))",
        # The trigger only records each operation; the per-transaction queue
        # coalesces duplicate keys and flushes them as batched multi-ops at
        # COMMIT, or right after each enqueue in the eager mode (batch_ops
        # off).  The per-key body is the strategy's: enqueue_delete for the
        # invalidating strategies (the flush picks each strategy's batched
        # delete form), enqueue_mutate for update-in-place (the flush runs
        # the gets_multi/cas_multi pair with loser-only retries).
        "    queue = cachegenie.txn_op_queue()  # flushed at COMMIT, or per operation",
    ]
    lines += strategy.render_trigger_body(cached_object)
    lines += [
        "    return None",
        "",
    ]
    return "\n".join(lines)


class GeneratedTrigger:
    """Bookkeeping record for one generated-and-installed trigger."""

    def __init__(self, cached_object: CacheClass, spec: TriggerSpec, source: str) -> None:
        self.cached_object = cached_object
        self.spec = spec
        self.source = source
        self.name = trigger_name(cached_object, spec.table, spec.event)

    @property
    def line_count(self) -> int:
        return len(self.source.splitlines())


class TriggerGenerator:
    """Generates and installs the triggers for cached objects."""

    def __init__(self, genie: "CacheGenie") -> None:
        self.genie = genie
        self.generated: List[GeneratedTrigger] = []

    def install_for(self, cached_object: CacheClass) -> List[GeneratedTrigger]:
        """Generate and install all triggers for one cached object."""
        installed: List[GeneratedTrigger] = []
        for spec in cached_object.get_trigger_info():
            source = render_trigger_source(cached_object, spec)
            record = GeneratedTrigger(cached_object, spec, source)
            self.genie.db.create_trigger(
                name=record.name,
                table=spec.table,
                event=spec.event,
                function=spec.handler,
                metadata={
                    "cached_object": cached_object.name,
                    "cache_class": cached_object.cache_class_type,
                    "strategy": cached_object.update_strategy,
                    "source": source,
                },
                replace=True,
            )
            installed.append(record)
        self.generated.extend(installed)
        return installed

    def uninstall_for(self, cached_object: CacheClass) -> int:
        """Drop the triggers belonging to one cached object."""
        victims = [g for g in self.generated if g.cached_object is cached_object]
        for record in victims:
            if record.name in self.genie.db.triggers:
                self.genie.db.triggers.drop_trigger(record.name)
            self.generated.remove(record)
        return len(victims)

    # -- programmer-effort metrics (§5.2) ---------------------------------------

    @property
    def trigger_count(self) -> int:
        return len(self.generated)

    @property
    def generated_line_count(self) -> int:
        return sum(record.line_count for record in self.generated)
