"""FeatureQuery: cache the rows of one model matching an equality predicate.

"Feature Query involves reading some or all features associated with an
entity ... reading a (partial or full) row from a table satisfying some
clause — typically one or more WHERE clauses."  (§3.1)

The cached value is the list of raw result rows (dicts), keyed by the values
of the ``where_fields`` columns (for example ``Profile`` rows keyed by
``user_id``).
"""

from __future__ import annotations

from typing import Any, Dict, List, TYPE_CHECKING

from .base import CacheClass

if TYPE_CHECKING:  # pragma: no cover
    from ...orm.queryset import QueryDescription


class FeatureQuery(CacheClass):
    """Cache full rows of ``main_model`` selected by equality on ``where_fields``."""

    cache_class_type = "FeatureQuery"

    # -- transparent interception --------------------------------------------------

    # The feature-shaped template accepts any ordering/limit, which
    # result_for_application() applies to the cached row set below.

    def result_for_application(self, value: List[Dict[str, Any]],
                               description: "QueryDescription") -> Any:
        rows = value
        if description.order_by:
            for column, descending in reversed(description.order_by):
                rows.sort(key=lambda r, c=column: (r.get(c) is None, r.get(c)),
                          reverse=descending)
        if description.limit is not None:
            rows = rows[: description.limit]
        return rows
