"""The database facade.

:class:`Database` ties the storage engine together: schemas, tables, buffer
pool, triggers, transactions, executor, and the cost recorder.  It exposes
the API the ORM and CacheGenie use:

* DDL — ``create_table``, ``drop_table``, ``create_index``, ``create_trigger``
* DML — ``insert``, ``update``, ``delete``
* queries — ``select``, ``count``
* transactions — ``begin`` / ``commit`` / ``abort``
* measurement — ``measure()`` yields the event counters of the enclosed work,
  and ``cost_model.demand(...)`` converts them to simulated service time.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from ..errors import DuplicateTableError, TableNotFoundError
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
        self.executor = Executor(self._tables, self.recorder)

    # ------------------------------------------------------------------ DDL --

    def create_table(self, schema: TableSchema) -> Table:
        """Create a table from a schema."""
        if schema.name in self._tables:
            raise DuplicateTableError(f"table {schema.name!r} already exists")
        table = Table(schema, self.buffer_pool, self.triggers, self.recorder)
        self._tables[schema.name] = table
        return table

    def drop_table(self, name: str) -> None:
        """Drop a table, its indexes, and its buffer-pool pages."""
        if name not in self._tables:
            raise TableNotFoundError(f"table {name!r} does not exist")
        del self._tables[name]
        self.buffer_pool.invalidate_table(name)
        for trigger in self.triggers.list_triggers(table=name):
            self.triggers.drop_trigger(trigger.name)

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
               where: Optional[Dict[str, Any]] = None,
               predicate: Optional[Predicate] = None) -> List[Dict[str, Any]]:
        """Update matching rows; fires triggers; returns the new row versions."""
        with self.transactions.statement(wrote=True):
            pre_images, result = self.executor.update(UpdateQuery(
                table=table, changes=changes,
                predicate=self._predicate(where, predicate)))
            if pre_images and self.transactions.in_transaction:
                self._register_update_undo(table, pre_images)
        return result

    def delete(self, table: str, where: Optional[Dict[str, Any]] = None,
               predicate: Optional[Predicate] = None) -> List[Dict[str, Any]]:
        """Delete matching rows; fires triggers; returns the deleted rows."""
        with self.transactions.statement(wrote=True):
            pre_images, result = self.executor.delete(DeleteQuery(
                table=table, predicate=self._predicate(where, predicate)))
            if self.transactions.in_transaction:
                for values in pre_images:
                    self._register_delete_undo(table, values)
        return result

    # -------------------------------------------------------------- queries --

    def select(self, query: SelectQuery) -> List[Dict[str, Any]]:
        """Run a SELECT described by a :class:`SelectQuery`."""
        with self.transactions.statement(wrote=False):
            result = self.executor.select(query)
        return result

    def count(self, query: CountQuery) -> int:
        """Run a COUNT described by a :class:`CountQuery`."""
        with self.transactions.statement(wrote=False):
            result = self.executor.count(query)
        return result

    def find(self, table: str, where: Optional[Dict[str, Any]] = None,
             order_by: Optional[Sequence] = None,
             limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Convenience SELECT with Django-style ``where`` filters."""
        query = SelectQuery(table=table, predicate=self._predicate(where, None))
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

    # -------------------------------------------------------------- internal --

    def _predicate(self, where: Optional[Dict[str, Any]],
                   predicate: Optional[Predicate]) -> Predicate:
        if predicate is not None:
            return predicate
        return predicate_from_filters(where or {})

    def _register_insert_undo(self, table: str, row: Dict[str, Any]) -> None:
        tbl = self.table(table)
        pk = row[tbl.schema.primary_key]

        def undo() -> None:
            rowids = tbl.primary_index.lookup(pk)
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
                rowids = tbl.primary_index.lookup(old_values[pk_col])
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
