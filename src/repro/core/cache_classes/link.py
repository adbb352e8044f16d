"""LinkQuery: cache the result of traversing relationships (joins).

"Link Query involves traversing relationships between entities ... these
queries involve traversing foreign key relationships between different
tables.  Since they involve joins, Link Queries are typically slow; caching
frequently executed Link Queries is often beneficial."  (§3.1)

A LinkQuery is declared as a *chain* starting from a base model (filtered by
``where_fields``) and following one or more relationship steps; the cached
value is the list of rows of the final model in the chain.  Example — the
bookmarks saved by a user's friends, newest first::

    cacheable(Friendship.objects.filter(from_user_id=Param("from_user_id"))
              .through("to_user", ("reverse", "BookmarkInstance", "user"))
              .order_by("-added"))

Triggers are installed on *every* table in the chain; a change anywhere walks
the chain backwards to find the affected keys, which keeps invalidations
scoped to exactly the entries whose data changed (unlike template-based
schemes, §2).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ...orm.template import ChainStep, resolve_chain_models
from .base import CacheClass

__all__ = ["ChainStep", "LinkQuery"]


class LinkQuery(CacheClass):
    """Cache rows reached by traversing a relationship chain from a base model."""

    cache_class_type = "LinkQuery"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Models along the chain, index 0 = base model.
        self.chain_models = resolve_chain_models(self.main_model,
                                                 self.template.chain)
        self.result_model = self.chain_models[-1]
        self.order_column, self.descending = (
            self.template.order_by[0] if self.template.order_by else (None, True))

    # -- trigger generation ------------------------------------------------------------

    def trigger_tables(self) -> List[str]:
        return [model._meta.db_table for model in self.chain_models]

    # -- affected keys -------------------------------------------------------------------

    def affected_keys(self, table: str, row: Dict[str, Any]) -> List[str]:
        """Walk the chain backwards from ``table`` to base where-field values."""
        if table == self.main_table:
            return [self.key_from_row(row)]
        # Find which chain position the table occupies (it may appear once).
        for idx in range(1, len(self.chain_models)):
            if self.chain_models[idx]._meta.db_table == table:
                base_rows = self._walk_back(idx, [row])
                keys = {self.key_from_row(base_row) for base_row in base_rows}
                return sorted(keys)
        return []

    def _walk_back(self, index: int, rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Map rows of chain model ``index`` to connected rows of the base model."""
        current_rows = rows
        for idx in range(index, 0, -1):
            step = self.template.chain[idx - 1]
            parent_model = self.chain_models[idx - 1]
            parent_table = parent_model._meta.db_table
            parent_pk = parent_model._meta.pk_column
            next_rows: List[Dict[str, Any]] = []
            if step.direction == "forward":
                # parent.fk == current.pk  =>  query parents by fk value.
                fk = parent_model._meta.get_field(step.field)
                child_pk = self.chain_models[idx]._meta.pk_column
                for row in current_rows:
                    self.genie.recorder.record("trigger_rows_examined")
                    next_rows.extend(
                        self.db.find(parent_table, where={fk.column: row.get(child_pk)})
                    )
            else:
                # current.fk == parent.pk  =>  parent pk comes straight off the row.
                fk = self.chain_models[idx]._meta.get_field(step.field)
                parent_ids = {row.get(fk.column) for row in current_rows if row.get(fk.column) is not None}
                if idx - 1 == 0 and self.where_fields == [parent_pk]:
                    # Shortcut: the key is the parent pk itself; no query needed.
                    next_rows = [{parent_pk: pid} for pid in parent_ids]
                else:
                    for pid in parent_ids:
                        self.genie.recorder.record("trigger_rows_examined")
                        found = self.db.get_by_pk(parent_table, pid)
                        if found is not None:
                            next_rows.append(found)
            current_rows = next_rows
            if not current_rows:
                break
        return current_rows

    # -- update-in-place --------------------------------------------------------------------

    def apply_incremental_update(self, table: str, event: str,
                                 new: Optional[Dict[str, Any]],
                                 old: Optional[Dict[str, Any]]) -> None:
        """Incrementally maintain affected keys.

        Changes to the *final* table can be patched into cached lists directly
        (the rows cached are rows of that table); changes to the base or
        intermediate tables alter which rows belong to the result, so affected
        keys are recomputed from the database — still per-key, never template-
        wide (§3.2's comparison against template invalidation).
        """
        final_table = self.result_model._meta.db_table
        pk_column = self.result_model._meta.pk_column

        if table == final_table and table != self.main_table:
            # Changes to the *result* table are true incremental view updates:
            # the cached value is a list of this table's rows, so the changed
            # row can be patched straight into every affected entry.
            if event == "insert" and new is not None:
                for key in self.affected_keys(table, new):
                    self._cas_update(key, lambda rows: self._append_row(
                        rows, new, pk_column, self.order_column, self.descending))
                return
            if event == "delete" and old is not None:
                for key in self.affected_keys(table, old):
                    self._cas_update(key, lambda rows: self._remove_row(rows, old, pk_column))
                return
            if event == "update" and new is not None:
                for key in self.affected_keys(table, new or old or {}):
                    self._cas_update(key, lambda rows: self._replace_row(rows, new, pk_column))
                return

        keys: Dict[str, Dict[str, Any]] = {}
        for row in (new, old):
            if row is None:
                continue
            for key in self.affected_keys(table, row):
                keys.setdefault(key, {})
        for key in keys:
            params = self._params_for_key_recompute(table, new or old)
            if params is None:
                # Cannot reconstruct parameters cheaply: invalidate the key.
                self.invalidate_key(key)
            else:
                self._recompute_from_key(key)

    def _params_for_key_recompute(self, table: str,
                                  row: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
        if row is None:
            return None
        if table == self.main_table:
            return {c: row.get(c) for c in self.where_fields}
        return {}

    def _recompute_from_key(self, key: str) -> None:
        """Recompute a cached entry by decoding its where-values from the
        key; a key that does not decode is invalidated instead."""
        params = self._decode_key(key)
        if params is None:
            self.invalidate_key(key)
        else:
            self._recompute_key(key, params)

    def _decode_key(self, key: str) -> Optional[Dict[str, Any]]:
        """Best-effort inverse of make_key for integer where-field values."""
        suffix = key[len(self.keys.prefix) + 1:] if key.startswith(self.keys.prefix) else None
        if suffix is None:
            return None
        parts = suffix.split(":")
        if len(parts) != len(self.where_fields):
            return None
        params: Dict[str, Any] = {}
        for column, part in zip(self.where_fields, parts):
            try:
                params[column] = int(part)
            except ValueError:
                return None
        return params

    @staticmethod
    def _append_row(rows: List[Dict[str, Any]], new: Dict[str, Any], pk_column: str,
                    order_column: Optional[str], descending: bool) -> List[Dict[str, Any]]:
        out = [r for r in rows if r.get(pk_column) != new.get(pk_column)]
        out.append(new)
        if order_column is not None:
            out.sort(key=lambda r: (r.get(order_column) is None, r.get(order_column)),
                     reverse=descending)
        return out

    @staticmethod
    def _remove_row(rows: List[Dict[str, Any]], old: Dict[str, Any],
                    pk_column: str) -> Optional[List[Dict[str, Any]]]:
        out = [r for r in rows if r.get(pk_column) != old.get(pk_column)]
        return out if len(out) != len(rows) else None

    @staticmethod
    def _replace_row(rows: List[Dict[str, Any]], new: Optional[Dict[str, Any]],
                     pk_column: str) -> Optional[List[Dict[str, Any]]]:
        if new is None:
            return None
        out = []
        changed = False
        for row in rows:
            if row.get(pk_column) == new.get(pk_column):
                out.append(new)
                changed = True
            else:
                out.append(row)
        return out if changed else None
