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
engine (:mod:`repro.storage.rows`).

**One charge per statement.**  A statement counts its work in locals as it
runs — the index nodes it walks (read off each tree's running count), the
pages it reads (each heap read appends their ids to the statement's list),
the rows it scans, returns and sorts, its joins — and :meth:`Executor._charge`
reads those pages from the buffer pool, in order, and records everything
with one :meth:`~repro.storage.costmodel.Recorder.record_statement`.  A
SELECT or COUNT charges just before it returns; an UPDATE or DELETE charges
its scan before it changes the first row, so **before control can leave the
statement** — before a trigger can fire or a checkpoint can hand off to
another worker — and every count lands in the measurement scope a per-event
charge would have hit.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import TableNotFoundError
from .bufferpool import BufferPool, PageId
from .planner import IndexRange, Plan
from .predicates import ALWAYS_TRUE
from .query import CountQuery, DeleteQuery, Join, SelectQuery, UpdateQuery
from .table import Table

Candidate = Tuple[int, Dict[str, Any]]     # (rowid, stored values)
RowCheck = Optional[Callable[[Dict[str, Any]], bool]]


class Executor:
    """Executes logical queries against a mapping of tables."""

    def __init__(self, tables: Dict[str, Table], recorder,
                 buffer_pool: BufferPool) -> None:
        self._tables = tables
        self._recorder = recorder
        self._buffer_pool = buffer_pool

    # -- helpers --------------------------------------------------------------

    def _table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(f"table {name!r} does not exist") from None

    def _open(self, query, pages: List[PageId]
              ) -> Tuple[Table, Plan, Iterable[List[Candidate]], RowCheck, int]:
        """Open the scan of a statement's base table: the table, its plan,
        the candidate batches (their pages go to ``pages`` as they are
        read), the row check and the index nodes the access path touched."""
        table = self._table(query.table)
        plan = table.plan_for(query)
        predicate = query.predicate
        heap = table.heap
        if plan.point:
            if plan.whole:
                value = predicate.value
                match = None if value is not None else predicate.compile()
            else:
                value = predicate.equality_bindings()[plan.column]
                match = predicate.compile()
            tree = plan.index.tree
            touches = tree.node_touches
            rowids = tree.search(value)
            return (table, plan, (heap.fetch_many(rowids, pages),), match,
                    tree.node_touches - touches)
        path = plan.path_for(predicate)
        if not isinstance(path, IndexRange):
            return table, plan, heap.scan(pages), predicate.compile(), 0
        # The range is walked now; its heap pages are read only as far as
        # the consumer pulls.
        tree = path.index.tree
        touches = tree.node_touches
        keys = tree.range_scan(
            path.low, path.high, reverse=path.reverse,
            include_low=path.include_low, include_high=path.include_high)
        return (table, plan,
                (heap.fetch_many(rowids, pages) for _key, rowids in keys),
                predicate.compile(), tree.node_touches - touches)

    def _scan(self, batches: Iterable[List[Candidate]], match: RowCheck,
              stop_at: Optional[int] = None) -> Tuple[List[Candidate], int]:
        """The candidates that pass ``match``, and how many were scanned.

        With ``stop_at`` (the access path already yields the final order) the
        scan stops pulling at that many matches, and counts exactly the rows
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
        return found, scanned

    def _charge(self, touches: int, pages: List[PageId], scanned: int,
                returned: int, sorts: int, sorted_rows: int,
                joins: int) -> None:
        """Record one statement: read its pages from the buffer pool, then
        one :meth:`~repro.storage.costmodel.Recorder.record_statement`."""
        hits = self._buffer_pool.read(pages) if pages else 0
        self._recorder.record_statement(touches, hits, len(pages) - hits,
                                        scanned, returned, sorts, sorted_rows,
                                        joins)

    # -- joins ----------------------------------------------------------------

    def _joined_rows(self, batches: Iterable[List[Candidate]], match: RowCheck,
                     query: SelectQuery, pages: List[PageId],
                     tally: List[int]) -> Iterator[Dict[str, Any]]:
        """Run the join chain depth-first (one base batch at a time, so heap
        pages are touched in nested-loop order), yielding the stored values of
        the result table's row for every surviving binding.  The rows it
        scans and the index nodes its probes touch are added to ``tally``
        (``[rows scanned, node touches]``) as the consumer pulls."""
        def base() -> Iterator[Dict[str, Dict[str, Any]]]:
            for batch in batches:
                found, scanned = self._scan((batch,), match)
                tally[0] += scanned
                for _rowid, values in found:
                    yield {query.table: values}
        bindings: Iterator[Dict[str, Dict[str, Any]]] = base()
        for join in query.joins:
            bindings = self._join_step(bindings, join, query, pages, tally)
        result_table = query.result_table
        return (binding[result_table] for binding in bindings
                if result_table in binding)

    def _join_step(
        self,
        bindings: Iterator[Dict[str, Dict[str, Any]]],
        join: Join,
        query: SelectQuery,
        pages: List[PageId],
        tally: List[int],
    ) -> Iterator[Dict[str, Dict[str, Any]]]:
        right_table = self._table(join.right_table)
        heap = right_table.heap
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
                tree = index.tree
                touches = tree.node_touches
                rowids = tree.search(left_value)
                tally[1] += tree.node_touches - touches
                probe = (heap.fetch_many(rowids, pages),)
            else:
                probe = ([pair for pair in page
                          if pair[1].get(join.right_column) == left_value]
                         for page in heap.scan(pages))
            found, scanned = self._scan(probe, match)
            tally[0] += scanned
            for _rowid, right_row in found:
                yield {**binding, join.right_table: right_row}

    # -- SELECT ---------------------------------------------------------------

    def select(self, query: SelectQuery) -> List[Dict[str, Any]]:
        """Execute a SELECT and return a list of result-row dictionaries."""
        pages: List[PageId] = []
        _table, plan, batches, match, touches = self._open(query, pages)
        limit, offset = query.limit, query.offset

        if query.joins:
            tally = [0, touches]
            rows = list(self._joined_rows(batches, match, query, pages, tally))
            scanned, touches = tally
        else:
            # Early exit when the access path already yields the right order.
            stop_at = (limit + offset if plan.ordered and limit is not None
                       and not query.distinct else None)
            found, scanned = self._scan(batches, match, stop_at)
            rows = [values for _rowid, values in found]

        if query.distinct:
            columns = (query.columns
                       or self._table(query.result_table).schema.column_names)
            unique: Dict[Any, Dict[str, Any]] = {}
            for values in rows:
                unique.setdefault(tuple(values.get(c) for c in columns), values)
            rows = list(unique.values())

        sorts = sorted_rows = 0
        if query.order_by and not plan.ordered:
            sorts, sorted_rows = 1, len(rows)
            for term in reversed(query.order_by):
                rows.sort(
                    key=lambda r, c=term.column: (r.get(c) is None, r.get(c)),
                    reverse=term.descending,
                )
        self._charge(touches, pages, scanned, len(rows), sorts, sorted_rows,
                     len(query.joins))

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
        pages: List[PageId] = []
        _table, _plan, batches, match, touches = self._open(query, pages)
        column = query.distinct_column
        if not query.joins:
            found, scanned = self._scan(batches, match)
            result = (len({values.get(column) for _rowid, values in found})
                      if column else len(found))
        else:
            tally = [0, touches]
            rows = self._joined_rows(batches, match, SelectQuery(
                table=query.table,
                join_predicates=query.join_predicates,
                joins=query.joins,
            ), pages, tally)
            result = (len({values.get(column) for values in rows})
                      if column else sum(1 for _ in rows))
            scanned, touches = tally
        self._charge(touches, pages, scanned, 0, 0, 0, len(query.joins))
        return result

    # -- DML ------------------------------------------------------------------

    def insert(self, table: str, values: Dict[str, Any]) -> Dict[str, Any]:
        """Execute an INSERT; returns the inserted row (with assigned pk).
        An INSERT has nothing to plan, so it takes no query object."""
        self._recorder.record("statements")
        return self._table(table).insert(values).to_dict()

    def _victims(self, query) -> Tuple[Table, List[int]]:
        """The table and the row ids an UPDATE/DELETE applies to.  The
        statement's scan is charged here, before the first row changes and
        so before the first trigger can fire."""
        pages: List[PageId] = []
        table, _plan, batches, match, touches = self._open(query, pages)
        found, scanned = self._scan(batches, match)
        self._charge(touches, pages, scanned, 0, 0, 0, 0)
        return table, [rowid for rowid, _values in found]

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
