"""TopKQuery: cache the top-K rows under some ordering.

"Top-K Query caches the top K elements matching some predicate ... cached
results can be incrementally updated as updates happen to the database, and
don't need to be recomputed from scratch."  (§3.1, §3.2)

The cached value is an ordered list of raw rows of length up to
``k + reserve``; the reserve rows let DELETE triggers shrink the list without
an immediate recomputation, exactly as the paper describes.  The base's
delta rule keeps the list: trimmed to capacity, refilled below K.
"""

from __future__ import annotations

from typing import Any, Dict, List, TYPE_CHECKING

from .base import CacheClass

if TYPE_CHECKING:  # pragma: no cover
    from ...orm.queryset import QueryDescription

#: Extra rows cached beyond K so deletes can be absorbed incrementally.
DEFAULT_RESERVE = 5


class TopKQuery(CacheClass):
    """Cache the top ``k`` rows of ``main_model`` per where-field group."""

    cache_class_type = "TopKQuery"

    def __init__(self, *args: Any, reserve: int = DEFAULT_RESERVE,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # limit == k encodes the Top-K shape: match() accepts queries wanting
        # the same ordering (the base reads it off the template) and at most
        # K rows.
        self.k = self.template.limit
        self.reserve = reserve

    @property
    def capacity(self) -> int:
        return self.k + self.reserve

    # -- step 1: query generation ------------------------------------------------

    def compute_from_db(self, params: Dict[str, Any]) -> List[Dict[str, Any]]:
        return self.db.select(self.template.query(params, limit=self.capacity))

    # -- transparent interception ---------------------------------------------------

    def result_for_application(self, value: List[Dict[str, Any]],
                               description: "QueryDescription") -> Any:
        limit = description.limit if description.limit is not None else self.k
        return value[: min(limit, self.k)]

    # -- evaluation shaping: never hand out more than K rows -------------------------

    def _present(self, value: List[Dict[str, Any]]) -> Any:
        """Trim the cached reserve rows: callers only ever see the top K."""
        return super()._present(value[: self.k])
