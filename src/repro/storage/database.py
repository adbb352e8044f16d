"""The database facade.

:class:`Database` ties the storage engine together: schemas, tables, buffer
pool, triggers, transactions, executor, and the cost recorder.  It exposes
the API the ORM and CacheGenie use:

* DDL — ``create_table``, ``create_index``, ``create_trigger``
* DML — ``insert``, ``update``, ``delete``
* queries — ``select``, ``count``
* transactions — ``begin`` / ``commit`` / ``abort``
* measurement — ``measure()`` yields the event counters of the enclosed work,
  and ``cost_model.demand(...)`` converts them to simulated service time.
"""

from __future__ import annotations

import contextlib
import marshal
import zlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from ..errors import DuplicateTableError, StorageError, TableNotFoundError
from .bufferpool import BufferPool
from .costmodel import CostCounters, CostModel, Demand, Recorder
from .executor import Executor
from .predicates import Predicate, predicate_from_filters
from .query import CountQuery, DeleteQuery, SelectQuery, UpdateQuery
from .schema import ColumnDef, IndexDef, TableSchema
from .table import Table
from .transactions import TransactionManager
from .triggers import TriggerFunction, TriggerManager

#: Default buffer-pool capacity in pages.  The evaluation datasets are scaled
#: down from the paper's 10 GB, and this default is scaled with them so that
#: the full working set does *not* fit (which is what pushes the cached
#: configurations to be disk-bound, as in the paper).
DEFAULT_BUFFER_POOL_PAGES = 512


class Database:
    """An embedded relational database with triggers and cost accounting."""

    def __init__(
        self,
        name: str = "main",
        buffer_pool_pages: int = DEFAULT_BUFFER_POOL_PAGES,
        cost_model: Optional[CostModel] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.name = name
        self.recorder = recorder or Recorder()
        self.cost_model = cost_model or CostModel()
        self.buffer_pool = BufferPool(buffer_pool_pages, self.recorder)
        self.triggers = TriggerManager(self.recorder)
        self.transactions = TransactionManager(self.recorder)
        self._tables: Dict[str, Table] = {}
        self.executor = Executor(self._tables, self.recorder,
                                 self.buffer_pool)

    # ------------------------------------------------------------------ DDL --

    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from a schema."""
        if schema.name in self._tables:
            raise DuplicateTableError(f"table {schema.name!r} already exists")
        table = Table(schema, self.buffer_pool, self.triggers, self.recorder)
        self._tables[schema.name] = table
        return table

    def create_index(self, table: str, index: IndexDef) -> None:
        """Create a secondary index on an existing table."""
        self.table(table).add_index(index)

    def create_trigger(
        self,
        name: str,
        table: str,
        event: str,
        function: TriggerFunction,
        metadata: Optional[Dict[str, Any]] = None,
        replace: bool = False,
    ) -> None:
        """Install a row-level AFTER trigger on ``table`` for ``event``."""
        if table not in self._tables:
            raise TableNotFoundError(f"table {table!r} does not exist")
        self.triggers.create_trigger(name, table, event, function,
                                     metadata=metadata, replace=replace)

    # -------------------------------------------------------------- metadata --

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    # ------------------------------------------------------------------ DML --

    def insert(self, table: str, values: Dict[str, Any]) -> Dict[str, Any]:
        """Insert one row; fires triggers; returns the stored row."""
        with self.transactions.statement(wrote=True):
            result = self.executor.insert(table, values)
            if self.transactions.in_transaction:
                self._register_insert_undo(table, result)
        return result

    def update(self, table: str, changes: Dict[str, Any],
               predicate: Predicate) -> List[Dict[str, Any]]:
        """Update matching rows; fires triggers; returns the new row versions."""
        with self.transactions.statement(wrote=True):
            pre_images, result = self.executor.update(UpdateQuery(
                table=table, changes=changes, predicate=predicate))
            if pre_images and self.transactions.in_transaction:
                self._register_update_undo(table, pre_images)
        return result

    def delete(self, table: str,
               predicate: Predicate) -> List[Dict[str, Any]]:
        """Delete matching rows; fires triggers; returns the deleted rows."""
        with self.transactions.statement(wrote=True):
            pre_images, result = self.executor.delete(DeleteQuery(
                table=table, predicate=predicate))
            if self.transactions.in_transaction:
                for values in pre_images:
                    self._register_delete_undo(table, values)
        return result

    # -------------------------------------------------------------- queries --

    def select(self, query: SelectQuery) -> List[Dict[str, Any]]:
        """Run a SELECT described by a :class:`SelectQuery`."""
        return self.transactions.read(self.executor.select, query)

    def count(self, query: CountQuery) -> int:
        """Run a COUNT described by a :class:`CountQuery`."""
        return self.transactions.read(self.executor.count, query)

    def find(self, table: str, where: Optional[Dict[str, Any]] = None,
             order_by: Optional[Sequence] = None,
             limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Convenience SELECT with Django-style ``where`` filters."""
        query = SelectQuery(table=table,
                            predicate=predicate_from_filters(where or {}))
        if order_by:
            query.order_by = list(order_by)
        query.limit = limit
        return self.select(query)

    def get_by_pk(self, table: str, pk: Any) -> Optional[Dict[str, Any]]:
        """Primary-key point lookup returning a dict or None."""
        tbl = self.table(table)
        rows = self.find(table, where={tbl.schema.primary_key: pk}, limit=1)
        return rows[0] if rows else None

    # --------------------------------------------------------- transactions --

    def begin(self) -> None:
        self.transactions.begin()

    def commit(self) -> None:
        self.transactions.commit()

    def abort(self) -> None:
        self.transactions.abort()

    @contextlib.contextmanager
    def transaction(self) -> Iterator[None]:
        """Context manager running the enclosed statements in one transaction."""
        self.begin()
        try:
            yield
        except Exception:
            self.abort()
            raise
        else:
            self.commit()

    # ---------------------------------------------------------- measurement --

    @contextlib.contextmanager
    def measure(self) -> Iterator[CostCounters]:
        """Collect the event counters generated by the enclosed work."""
        with self.recorder.measure() as counters:
            yield counters

    def demand_of(self, counters: CostCounters) -> Demand:
        """Convert measured counters into simulated per-resource demand."""
        return self.cost_model.demand(counters)

    # ------------------------------------------------------------- snapshot --

    def snapshot(self) -> bytes:
        """The data as bytes: every table's rows and trees, the buffer pool,
        the transaction ids and the recorder's totals — no schema, trigger,
        clock or cost model.  Each table is dumped and compressed on its own,
        so building the snapshot holds one table's plain copy at a time;
        ``zlib``'s fastest level keeps a third of the bytes.  ``marshal``
        writes an object met twice as a reference, numbers included, so a
        table comes back sharing what it shared."""
        tables = [zlib.compress(marshal.dumps(self._tables[name].snapshot()), 1)
                  for name in self.table_names()]
        return marshal.dumps((tables, self.buffer_pool.snapshot(),
                              self.transactions.snapshot(),
                              self.recorder.total.as_dict()))

    def restore(self, snapshot: bytes) -> None:
        """Load :meth:`snapshot`'s bytes into this database's own tables,
        which must have the snapshot's names and indexes, on which nothing
        has run yet (:meth:`require_unused`)."""
        self.require_unused()
        tables, pool, transactions, totals = marshal.loads(snapshot)
        for name, table in zip(self.table_names(), tables, strict=True):
            self._tables[name].restore(marshal.loads(zlib.decompress(table)))
        self.buffer_pool.restore(pool)
        self.transactions.restore(transactions)
        self.recorder.total.add(CostCounters(**totals))

    def require_unused(self) -> None:
        """Raise :class:`StorageError` once a statement or a page access has
        been recorded here: the state a snapshot replaces must be empty."""
        if self.recorder.total != CostCounters():
            raise StorageError(
                f"database {self.name!r} is in use: its tables may hold data")

    # -------------------------------------------------------------- internal --

    def _register_insert_undo(self, table: str, row: Dict[str, Any]) -> None:
        tbl = self.table(table)
        pk = row[tbl.schema.primary_key]

        def undo() -> None:
            rowids = tbl.primary_index.tree.search(pk)
            for rowid in rowids:
                tbl.delete_row(rowid, fire_triggers=False)

        self.transactions.record_undo(undo, f"undo insert into {table} pk={pk}")

    def _register_update_undo(self, table: str,
                              pre_images: List[Dict[str, Any]]) -> None:
        """``pre_images`` are the stored dicts the UPDATE displaced: nothing
        mutates them, and finding them charged nothing beyond the statement."""
        tbl = self.table(table)
        pk_col = tbl.schema.primary_key

        def undo() -> None:
            for old_values in pre_images:
                restore = {k: v for k, v in old_values.items() if k != pk_col}
                rowids = tbl.primary_index.tree.search(old_values[pk_col])
                for rowid in rowids:
                    tbl.update_row(rowid, restore, fire_triggers=False)

        self.transactions.record_undo(undo, f"undo update of {table}")

    def _register_delete_undo(self, table: str, values: Dict[str, Any]) -> None:
        tbl = self.table(table)

        def undo() -> None:
            tbl.insert(dict(values), fire_triggers=False)

        self.transactions.record_undo(undo, f"undo delete from {table}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Database {self.name!r}: {len(self._tables)} tables>"
