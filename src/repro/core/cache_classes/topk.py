"""TopKQuery: cache the top-K rows under some ordering.

"Top-K Query caches the top K elements matching some predicate ... cached
results can be incrementally updated as updates happen to the database, and
don't need to be recomputed from scratch."  (§3.1, §3.2)

The cached value is an ordered list of raw rows of length up to
``k + reserve``; the reserve rows let DELETE triggers shrink the list without
an immediate recomputation, exactly as the paper describes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

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
        # the same ordering and at most K rows.
        ((self.sort_column, self.descending),) = self.template.order_by
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

    # -- update-in-place ---------------------------------------------------------------

    def apply_incremental_update(self, table: str, event: str,
                                 new: Optional[Dict[str, Any]],
                                 old: Optional[Dict[str, Any]]) -> None:
        pk_column = self.main_model._meta.pk_column

        if event == "insert" and new is not None:
            key = self.key_from_row(new)
            self._cas_update(key, lambda rows: self._insert_sorted(rows, new, pk_column))
            return

        if event == "delete" and old is not None:
            key = self.key_from_row(old)
            params = {c: old.get(c) for c in self.where_fields}

            # Fold the remove and the refill decision into one mutation, so
            # the flush reads and writes the key exactly once however the
            # transaction interleaved deletes.  If the reserve is exhausted
            # the list may now be shorter than K while the database still
            # has qualifying rows: recompute.
            def remove_and_refill(rows):
                out = self._remove(rows, old, pk_column)
                if out is not None and len(out) < self.k:
                    self.stats.recomputations += 1
                    return self.compute_from_db(params)
                return out
            self._cas_update(key, remove_and_refill)
            return

        if event == "update" and new is not None and old is not None:
            old_key = self.key_from_row(old)
            new_key = self.key_from_row(new)
            if old_key == new_key:
                self._cas_update(
                    new_key, lambda rows: self._update_in_list(rows, new, pk_column))
            else:
                self._cas_update(old_key, lambda rows: self._remove(rows, old, pk_column))
                self._cas_update(new_key,
                                 lambda rows: self._insert_sorted(rows, new, pk_column))

    # -- list manipulation helpers ------------------------------------------------------

    def _sort_value(self, row: Dict[str, Any]) -> Any:
        return row.get(self.sort_column)

    def _insert_sorted(self, rows: List[Dict[str, Any]], new: Dict[str, Any],
                       pk_column: str) -> List[Dict[str, Any]]:
        """Insert ``new`` at its ordered position and trim to capacity."""
        out = [r for r in rows if r.get(pk_column) != new.get(pk_column)]
        new_value = self._sort_value(new)
        insert_pos = len(out)
        if new_value is not None:
            for idx, row in enumerate(out):
                if self._precedes(new_value, new.get(pk_column), row, pk_column):
                    insert_pos = idx
                    break
        if insert_pos >= self.capacity:
            # The new row sorts below everything we keep: nothing to do.
            return out if len(out) != len(rows) else None
        out.insert(insert_pos, new)
        return out[: self.capacity]

    def _precedes(self, value: Any, pk: Any, row: Dict[str, Any],
                  pk_column: str) -> bool:
        """Whether a row with the non-NULL sort ``value`` and primary key
        ``pk`` goes before ``row``: before a NULL, then by the sort column,
        and within a tie by primary key ascending in either direction — the
        order the engine returns a tie in (its sort is stable over row-id
        order, and a reversed index walk reverses only the keys)."""
        existing = self._sort_value(row)
        if existing is None:
            return True
        if value == existing:
            return pk < row.get(pk_column)
        return value > existing if self.descending else value < existing

    def _remove(self, rows: List[Dict[str, Any]], old: Dict[str, Any],
                pk_column: str) -> Optional[List[Dict[str, Any]]]:
        out = [r for r in rows if r.get(pk_column) != old.get(pk_column)]
        if len(out) == len(rows):
            return None
        return out

    def _update_in_list(self, rows: List[Dict[str, Any]], new: Dict[str, Any],
                        pk_column: str) -> Optional[List[Dict[str, Any]]]:
        """Replace the row if present, then restore ordering."""
        present = any(r.get(pk_column) == new.get(pk_column) for r in rows)
        if not present:
            # The paper's UPDATE trigger only touches posts already in the list;
            # but if the updated row now sorts into the window, insert it.
            return self._insert_sorted(rows, new, pk_column)
        out = [r for r in rows if r.get(pk_column) != new.get(pk_column)]
        return self._insert_sorted(out, new, pk_column) or out
