"""CountQuery: cache the number of rows matching a predicate.

"Count Query caches the count of rows matching some predicate ... Count
queries are good candidates for caching, as they take up little memory in
cache but can be slow to execute in the database."  (§3.1)

The cached value is a plain integer.  Update-in-place moves it by the
base's delta (floored at zero) with a read-modify-write on the trigger-op
queue (``gets_multi`` + ``cas_multi`` at the flush), like every other
trigger-side write.
"""

from __future__ import annotations

from typing import Any, Dict

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
