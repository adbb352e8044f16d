"""CountQuery: cache the number of rows matching a predicate.

"Count Query caches the count of rows matching some predicate ... Count
queries are good candidates for caching, as they take up little memory in
cache but can be slow to execute in the database."  (§3.1)

The cached value is a plain integer.  Update-in-place uses memcached's
``incr``/``decr`` so the trigger never has to read the old value.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .base import CacheClass


class CountQuery(CacheClass):
    """Cache ``COUNT(*)`` of ``main_model`` rows grouped by ``where_fields``."""

    cache_class_type = "CountQuery"

    # -- step 1: query generation ------------------------------------------------

    def compute_from_db(self, params: Dict[str, Any]) -> int:
        return self.db.count(self.template.query(params))

    # -- evaluation shaping: the count itself ---------------------------------------

    def _present(self, value: int) -> int:
        return value

    # -- update-in-place ---------------------------------------------------------------

    def apply_incremental_update(self, table: str, event: str,
                                 new: Optional[Dict[str, Any]],
                                 old: Optional[Dict[str, Any]]) -> None:
        if event == "insert" and new is not None:
            self._bump(self.key_from_row(new), +1)
            return
        if event == "delete" and old is not None:
            self._bump(self.key_from_row(old), -1)
            return
        if event == "update" and new is not None and old is not None:
            old_key = self.key_from_row(old)
            new_key = self.key_from_row(new)
            if old_key != new_key:
                # A group-moving update is a pure-counter run: one batched
                # incr_multi carries the -1/+1 pair in a single round trip
                # per server on the eager path (queued mode chains per key).
                self._bump_many({old_key: -1, new_key: +1})
            # An update that keeps the where-field does not change the count.

    def _bump(self, key: str, delta: int) -> None:
        """Increment/decrement the cached count if (and only if) it is cached."""
        self._bump_many({key: delta})

    def _bump_many(self, deltas: Dict[str, int]) -> None:
        """Apply a run of counter deltas, batched where the path allows.

        With commit-time batching the deltas enqueue per key (chaining with
        the transaction's other mutations).  The eager path sends every run
        — single deltas included — through the ``incr_multi`` bulk counter
        protocol: one round trip per server batch, signed deltas, so a
        group-moving UPDATE's ``-1``/``+1`` pair rides one wire batch and
        single bumps no longer need their own ``incr``/``decr`` code path.
        """
        telemetry = getattr(self.trigger_cache, "telemetry", None)
        if telemetry is not None:
            # Adaptive runs only: counter bumps bypass ``_cas_update``, so
            # they attribute their write telemetry here (same convention).
            for key in deltas:
                telemetry.note_write(key)
        queue = self._op_queue()
        if queue is not None:
            for key, delta in deltas.items():
                queue.enqueue_mutate(self, key, lambda value, d=delta: (
                    max(0, value + d) if isinstance(value, int) else None))
            return
        results = self.trigger_cache.incr_multi(deltas)
        self.stats.updates_applied += sum(
            1 for value in results.values() if value is not None)
