"""Query execution.

The executor takes logical query objects (``repro.storage.query``), takes
the access path of each statement's shape from its base table's plan memo
(:meth:`Table.plan_for`: the planner runs once per shape and table),
applies predicates, executes inner equi-joins as index nested-loop joins,
sorts, limits, and returns plain dictionaries.  All physical work is charged
to the database's event recorder so the cost model can convert it into
simulated service time.

Every statement kind runs through one path: :meth:`Executor._open` yields
candidate rows as ``(rowid, stored values)`` pairs, one list per heap fetch,
and :meth:`Executor._scan` filters them with the predicate compiled once —
or not at all when a point lookup's key is the whole predicate.
Stored dicts are looked at in place and copied once, when a row leaves the
engine (:mod:`repro.storage.rows`).  ``rows_scanned`` / ``rows_returned`` are
counted in locals and charged once per scan, **before control leaves the
scan** — before a trigger can fire or a checkpoint can hand off to another
worker — so they land in the measurement scope a per-row charge would have hit.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import TableNotFoundError
from .planner import AccessPath, IndexRange, Plan
from .predicates import ALWAYS_TRUE
from .query import CountQuery, DeleteQuery, Join, SelectQuery, UpdateQuery
from .table import Table

Candidate = Tuple[int, Dict[str, Any]]     # (rowid, stored values)
RowCheck = Optional[Callable[[Dict[str, Any]], bool]]


class Executor:
    """Executes logical queries against a mapping of tables."""

    def __init__(self, tables: Dict[str, Table], recorder) -> None:
        self._tables = tables
        self._recorder = recorder

    # -- helpers --------------------------------------------------------------

    def _table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(f"table {name!r} does not exist") from None

    def _open(self, query) -> Tuple[Table, Plan, Iterable[List[Candidate]], RowCheck]:
        """Charge one statement and open the scan of its base table."""
        self._recorder.record("statements")
        table = self._table(query.table)
        plan = table.plan_for(query)
        predicate = query.predicate
        if plan.point:
            if plan.whole:
                value = predicate.value
                match = None if value is not None else predicate.compile()
            else:
                value = predicate.equality_bindings()[plan.column]
                match = predicate.compile()
            return table, plan, (table.fetch_rows(plan.index.lookup(value)),), match
        return (table, plan, self._batches(table, plan.path_for(predicate)),
                predicate.compile())

    def _batches(self, table: Table, path: AccessPath) -> Iterable[List[Candidate]]:
        """Candidate rows of the base table for a range or sequential scan,
        one list per heap fetch.  Both stay lazy: pages are touched only as
        far as the consumer pulls."""
        if isinstance(path, IndexRange):
            return (table.fetch_rows(rowids) for _key, rowids in path.index.range(
                path.low, path.high, reverse=path.reverse,
                include_low=path.include_low, include_high=path.include_high))
        return table.scan()

    def _scan(self, batches: Iterable[List[Candidate]], match: RowCheck,
              stop_at: Optional[int] = None) -> List[Candidate]:
        """The candidates that pass ``match``, charging ``rows_scanned`` once.

        With ``stop_at`` (the access path already yields the final order) the
        scan stops pulling at that many matches, and charges exactly the rows
        it pulled — not the rest of the batch it fetched.
        """
        scanned = 0
        found: List[Candidate] = []
        if stop_at is None:
            for batch in batches:
                scanned += len(batch)
                found += (batch if match is None else
                          [pair for pair in batch if match(pair[1])])
        else:
            for pair in chain.from_iterable(batches):
                scanned += 1
                if match is None or match(pair[1]):
                    found.append(pair)
                    if len(found) >= stop_at:
                        break
        self._recorder.record("rows_scanned", scanned)
        return found

    # -- joins ----------------------------------------------------------------

    def _joined_rows(self, batches: Iterable[List[Candidate]], match: RowCheck,
                     query: SelectQuery) -> Iterator[Dict[str, Any]]:
        """Run the join chain depth-first (one base batch at a time, so heap
        pages are touched in nested-loop order), yielding the stored values of
        the result table's row for every surviving binding."""
        bindings: Iterator[Dict[str, Dict[str, Any]]] = (
            {query.table: values}
            for batch in batches for _rowid, values in self._scan((batch,), match))
        for join in query.joins:
            self._recorder.record("joins")
            bindings = self._join_step(bindings, join, query)
        result_table = query.result_table
        return (binding[result_table] for binding in bindings
                if result_table in binding)

    def _join_step(
        self,
        bindings: Iterator[Dict[str, Dict[str, Any]]],
        join: Join,
        query: SelectQuery,
    ) -> Iterator[Dict[str, Dict[str, Any]]]:
        right_table = self._table(join.right_table)
        match = query.join_predicates.get(join.right_table, ALWAYS_TRUE).compile()
        index = right_table.index_for_column(join.right_column)
        for binding in bindings:
            left_row = binding.get(join.left_table)
            if left_row is None:
                continue
            left_value = left_row.get(join.left_column)
            if left_value is None:
                continue
            if index is not None:
                probe = (right_table.fetch_rows(index.lookup(left_value)),)
            else:
                probe = ([pair for pair in page
                          if pair[1].get(join.right_column) == left_value]
                         for page in right_table.scan())
            for _rowid, right_row in self._scan(probe, match):
                yield {**binding, join.right_table: right_row}

    # -- SELECT ---------------------------------------------------------------

    def select(self, query: SelectQuery) -> List[Dict[str, Any]]:
        """Execute a SELECT and return a list of result-row dictionaries."""
        _table, plan, batches, match = self._open(query)
        record = self._recorder.record
        limit, offset = query.limit, query.offset

        if query.joins:
            rows = list(self._joined_rows(batches, match, query))
        else:
            # Early exit when the access path already yields the right order.
            stop_at = (limit + offset if plan.ordered and limit is not None
                       and not query.distinct else None)
            rows = [values for _rowid, values in self._scan(batches, match, stop_at)]

        if query.distinct:
            columns = (query.columns
                       or self._table(query.result_table).schema.column_names)
            unique: Dict[Any, Dict[str, Any]] = {}
            for values in rows:
                unique.setdefault(tuple(values.get(c) for c in columns), values)
            rows = list(unique.values())
        record("rows_returned", len(rows))

        if query.order_by and not plan.ordered:
            record("sorts")
            record("sorted_rows", len(rows))
            for term in reversed(query.order_by):
                rows.sort(
                    key=lambda r, c=term.column: (r.get(c) is None, r.get(c)),
                    reverse=term.descending,
                )

        if offset:
            rows = rows[offset:]
        if limit is not None:
            rows = rows[:limit]

        # The one copy: only the rows that leave the engine are materialized.
        if query.columns is not None:
            return [{col: row.get(col) for col in query.columns} for row in rows]
        return [dict(row) for row in rows]

    # -- COUNT ----------------------------------------------------------------

    def count(self, query: CountQuery) -> int:
        """Execute a COUNT(*) query."""
        _table, _plan, batches, match = self._open(query)
        column = query.distinct_column
        if not query.joins:
            found = self._scan(batches, match)
            if column:
                return len({values.get(column) for _rowid, values in found})
            return len(found)
        rows = self._joined_rows(batches, match, SelectQuery(
            table=query.table,
            join_predicates=query.join_predicates,
            joins=query.joins,
        ))
        if column:
            return len({values.get(column) for values in rows})
        return sum(1 for _ in rows)

    # -- DML ------------------------------------------------------------------

    def insert(self, table: str, values: Dict[str, Any]) -> Dict[str, Any]:
        """Execute an INSERT; returns the inserted row (with assigned pk).
        An INSERT has nothing to plan, so it takes no query object."""
        self._recorder.record("statements")
        return self._table(table).insert(values).to_dict()

    def _victims(self, query) -> Tuple[Table, List[int]]:
        """The table and the row ids an UPDATE/DELETE applies to.  The scan
        is charged here, before the first trigger can fire."""
        table, _plan, batches, match = self._open(query)
        return table, [rowid for rowid, _values in self._scan(batches, match)]

    def update(self, query: UpdateQuery
               ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
        """Execute an UPDATE; returns (pre-images, new versions) of all
        affected rows.  The pre-images are the displaced stored dicts — the
        engine's own, for undo; the new versions are the caller's copies."""
        table, rowids = self._victims(query)
        images = [table.update_row(rowid, query.changes) for rowid in rowids]
        return [old for old, _new in images], [dict(new) for _old, new in images]

    def delete(self, query: DeleteQuery
               ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
        """Execute a DELETE; returns (pre-images, copies) of the deleted rows."""
        table, rowids = self._victims(query)
        olds = [table.delete_row(rowid) for rowid in rowids]
        return olds, [dict(old) for old in olds]
