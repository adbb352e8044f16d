"""FeatureQuery: cache the rows of one model matching an equality predicate.

"Feature Query involves reading some or all features associated with an
entity ... reading a (partial or full) row from a table satisfying some
clause — typically one or more WHERE clauses."  (§3.1)

The cached value is the list of raw result rows (dicts), keyed by the values
of the ``where_fields`` columns (for example ``Profile`` rows keyed by
``user_id``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

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

    # -- update-in-place -----------------------------------------------------------

    def apply_incremental_update(self, table: str, event: str,
                                 new: Optional[Dict[str, Any]],
                                 old: Optional[Dict[str, Any]]) -> None:
        pk_column = self.main_model._meta.pk_column

        if event == "insert" and new is not None:
            key = self.key_from_row(new)
            self._cas_update(key, lambda rows: self._append_row(rows, new, pk_column))
            return

        if event == "delete" and old is not None:
            key = self.key_from_row(old)
            self._cas_update(key, lambda rows: self._remove_row(rows, old, pk_column))
            return

        if event == "update" and new is not None and old is not None:
            old_key = self.key_from_row(old)
            new_key = self.key_from_row(new)
            if old_key == new_key:
                self._cas_update(new_key,
                                 lambda rows: self._replace_row(rows, new, pk_column))
            else:
                # The row moved between key groups (its where-field changed).
                self._cas_update(old_key,
                                 lambda rows: self._remove_row(rows, old, pk_column))
                self._cas_update(new_key,
                                 lambda rows: self._append_row(rows, new, pk_column))

    @staticmethod
    def _append_row(rows: List[Dict[str, Any]], new: Dict[str, Any],
                    pk_column: str) -> List[Dict[str, Any]]:
        out = [r for r in rows if r.get(pk_column) != new.get(pk_column)]
        out.append(new)
        return out

    @staticmethod
    def _remove_row(rows: List[Dict[str, Any]], old: Dict[str, Any],
                    pk_column: str) -> List[Dict[str, Any]]:
        return [r for r in rows if r.get(pk_column) != old.get(pk_column)]

    @staticmethod
    def _replace_row(rows: List[Dict[str, Any]], new: Dict[str, Any],
                     pk_column: str) -> List[Dict[str, Any]]:
        out = []
        replaced = False
        for row in rows:
            if row.get(pk_column) == new.get(pk_column):
                out.append(new)
                replaced = True
            else:
                out.append(row)
        if not replaced:
            out.append(new)
        return out
