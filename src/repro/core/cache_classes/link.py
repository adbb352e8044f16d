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
schemes, §2).  Update-in-place also walks it forwards, to the result rows
the changed row reaches, and patches those into each key it reaches, once
per path — the join's multiplicity (the base's delta rule).
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
        #: Each chain table's position (its first, should it appear twice).
        self._positions: Dict[str, int] = {}
        for position, model in enumerate(self.chain_models):
            self._positions.setdefault(model._meta.db_table, position)

    # -- trigger generation ------------------------------------------------------------

    def trigger_tables(self) -> List[str]:
        return [model._meta.db_table for model in self.chain_models]

    # -- the delta rule's two walks -----------------------------------------------------

    def derivations(self, table: str,
                    row: Optional[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Walk the chain backwards from ``table`` to the base rows ``row``
        reaches, one per path: two copies of a friendship edge reach their
        base key twice."""
        position = self._positions.get(table)
        if row is None or position is None:
            return []
        if position == 0:
            return [row]
        return self._walk_back(position, [row])

    def reached_rows(self, table: str,
                     row: Dict[str, Any]) -> List[Dict[str, Any]]:
        """The result-model rows ``row`` reaches forward: itself at the end
        of the chain, else one bound query over the steps after it
        (:meth:`QueryTemplate.tail_query`)."""
        position = self._positions[table]
        if position == len(self.chain_models) - 1:
            return [row]
        query = self.template.tail_query(position, row)
        if query is None:
            return []
        self.genie.recorder.record("trigger_rows_examined")
        return self.db.select(query)

    def _walk_back(self, index: int, rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Map rows of chain model ``index`` to connected rows of the base
        model, one per path."""
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
                # current.fk == parent.pk  =>  parent pk comes straight off the
                # row; each row is one path to its parent.
                fk = self.chain_models[idx]._meta.get_field(step.field)
                paths: Dict[Any, int] = {}
                for row in current_rows:
                    parent_id = row.get(fk.column)
                    if parent_id is not None:
                        paths[parent_id] = paths.get(parent_id, 0) + 1
                if idx - 1 == 0 and self.where_fields == [parent_pk]:
                    # Shortcut: the key is the parent pk itself; no query needed.
                    for pid, count in paths.items():
                        next_rows.extend([{parent_pk: pid}] * count)
                else:
                    for pid, count in paths.items():
                        self.genie.recorder.record("trigger_rows_examined")
                        found = self.db.get_by_pk(parent_table, pid)
                        if found is not None:
                            next_rows.extend([found] * count)
            current_rows = next_rows
            if not current_rows:
                break
        return current_rows
