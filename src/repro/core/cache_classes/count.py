"""CountQuery: cache the number of rows matching a predicate.

"Count Query caches the count of rows matching some predicate ... Count
queries are good candidates for caching, as they take up little memory in
cache but can be slow to execute in the database."  (§3.1)

The cached value is a plain integer.  Update-in-place bumps it with a
read-modify-write on the trigger-op queue (``gets_multi`` + ``cas_multi`` at
the flush), like every other trigger-side write.
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
                # A group-moving update is a -1 on its old group and a +1
                # on its new one.
                self._bump(old_key, -1)
                self._bump(new_key, +1)
            # An update that keeps the where-field does not change the count.

    def _bump(self, key: str, delta: int) -> None:
        """Increment/decrement the cached count if (and only if) it is
        cached, floored at zero."""
        self._cas_update(key, lambda value: (
            max(0, value + delta) if isinstance(value, int) else None))
