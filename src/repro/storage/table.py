"""Table: heap storage + indexes + constraints + trigger firing.

A table owns a :class:`~repro.storage.heap.HeapFile`, a primary-key B+Tree,
and any secondary B+Trees declared in the schema.  All mutations keep every
index synchronized, enforce NOT NULL / UNIQUE constraints, and fire AFTER
row-level triggers through the database's :class:`TriggerManager`.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import ConstraintViolation, RowNotFoundError, SchemaError
from .btree import BPlusTree
from .bufferpool import BufferPool
from .costmodel import Recorder
from .heap import HeapFile
from .rows import Row
from .schema import IndexDef, TableSchema
from .triggers import TriggerManager


class Index:
    """A secondary (or primary) index: a B+Tree keyed on one or more columns."""

    def __init__(self, definition: IndexDef, recorder: Recorder) -> None:
        self.definition = definition
        self.columns: Tuple[str, ...] = definition.columns
        #: Extract this index's key from a row's values: the column's value,
        #: or a tuple of them for a composite index.  Rows reach an index
        #: complete (coerced on the way in), so no column can be missing.
        self.key_for: Callable[[Dict[str, Any]], Any] = itemgetter(*self.columns)
        self.tree = BPlusTree(unique=definition.unique)
        self.recorder = recorder

    @property
    def name(self) -> str:
        return self.definition.name

    def _charge(self, before: int) -> None:
        touched = self.tree.node_touches - before
        if touched:
            self.recorder.record("index_node_touches", touched)

    def insert(self, values: Dict[str, Any], rowid: int) -> None:
        # ``BPlusTree.insert`` counts no node touches today (the INSERT
        # asymmetry in docs/ARCHITECTURE.md's cost-model row), so this
        # charges nothing — until the tree says otherwise.
        before = self.tree.node_touches
        try:
            self.tree.insert(self.key_for(values), rowid)
        except ValueError as exc:
            raise ConstraintViolation(str(exc)) from None
        finally:
            self._charge(before)

    def delete(self, values: Dict[str, Any], rowid: int) -> None:
        before = self.tree.node_touches
        self.tree.delete(self.key_for(values), rowid)
        self._charge(before)

    def lookup(self, key: Any) -> List[int]:
        """The ascending row ids under ``key``: read them before the next
        write to this index, never mutate them."""
        before = self.tree.node_touches
        result = self.tree.search(key)
        self._charge(before)
        return result

    def range(self, low: Any = None, high: Any = None, *, reverse: bool = False,
              include_low: bool = True, include_high: bool = True
              ) -> Iterator[Tuple[Any, List[int]]]:
        before = self.tree.node_touches
        result = self.tree.range_scan(
            low, high, reverse=reverse,
            include_low=include_low, include_high=include_high,
        )
        self._charge(before)
        return result


class Table:
    """A table with heap storage, indexes, constraints, and triggers."""

    def __init__(
        self,
        schema: TableSchema,
        buffer_pool: BufferPool,
        trigger_manager: TriggerManager,
        recorder: Recorder,
    ) -> None:
        self.schema = schema
        self.recorder = recorder
        self.trigger_manager = trigger_manager
        self.heap = HeapFile(schema, buffer_pool)
        self._pk_counter = itertools.count(1)

        pk_index_def = IndexDef(
            name=f"{schema.name}_pkey", columns=(schema.primary_key,), unique=True
        )
        self.primary_index = Index(pk_index_def, recorder)
        self.secondary_indexes: Dict[str, Index] = {}
        for index_def in schema.indexes:
            self.secondary_indexes[index_def.name] = Index(index_def, recorder)

    # -- metadata -------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        return self.heap.row_count

    def all_indexes(self) -> List[Index]:
        return [self.primary_index, *self.secondary_indexes.values()]

    def add_index(self, definition: IndexDef) -> Index:
        """Create a secondary index and backfill it from existing rows."""
        if definition.name in self.secondary_indexes:
            raise SchemaError(f"index {definition.name!r} already exists")
        self.schema.add_index(definition)
        index = Index(definition, self.recorder)
        for page in self.heap.scan():
            for rowid, values in page:
                index.insert(values, rowid)
        self.secondary_indexes[definition.name] = index
        return index

    # -- constraint helpers ---------------------------------------------------

    def _check_not_null(self, values: Dict[str, Any]) -> None:
        for name in self.schema.not_null_columns:
            if values.get(name) is None:
                raise ConstraintViolation(
                    f"column {name!r} of table {self.name!r} may not be NULL"
                )

    def _next_pk(self) -> int:
        return next(self._pk_counter)

    # -- mutations ------------------------------------------------------------

    def insert(self, values: Dict[str, Any], *, fire_triggers: bool = True) -> Row:
        """Insert one row; assigns the primary key if missing; fires triggers."""
        coerced = self.schema.coerce_row(values, for_insert=True)
        pk_col = self.schema.primary_key
        if coerced.get(pk_col) is None:
            coerced[pk_col] = self._next_pk()
        else:
            # Keep auto-assignment ahead of explicitly provided keys.
            provided = coerced[pk_col]
            if isinstance(provided, int):
                current = next(self._pk_counter)
                self._pk_counter = itertools.count(max(current, provided + 1))
        self._check_not_null(coerced)

        # The row is charged (here and by the heap's page access) before a
        # trigger body can run: at workers >= 2 it may checkpoint into another
        # worker's scope.
        self.recorder.record("inserts")
        row = self.heap.insert(coerced)
        rowid = row.rowid
        try:
            self.primary_index.insert(coerced, rowid)
        except ConstraintViolation:
            self.heap.delete(rowid)
            raise
        secondaries = self.secondary_indexes.values()
        try:
            for index in secondaries:
                index.insert(coerced, rowid)
        except ConstraintViolation:
            # ``index`` is the one that refused: undo the ones before it.
            for inserted in secondaries:
                if inserted is index:
                    break
                inserted.delete(coerced, rowid)
            self.primary_index.delete(coerced, rowid)
            self.heap.delete(rowid)
            raise

        if fire_triggers:
            self.trigger_manager.fire(self.name, "insert", new=coerced, old=None)
        return row

    def update_row(self, rowid: int, changes: Dict[str, Any], *,
                   fire_triggers: bool = True) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Update one row by rowid; maintains indexes; fires triggers.

        Returns the (old, new) stored images — read them, never mutate them.
        """
        coerced = self.schema.coerce_row(changes, for_insert=False)
        if self.schema.primary_key in coerced:
            raise ConstraintViolation(
                f"primary key of table {self.name!r} cannot be updated"
            )
        if not self.heap.exists(rowid):
            raise RowNotFoundError(f"table {self.name!r} has no row id {rowid}")
        for name in self.schema.not_null_columns:
            if name in coerced and coerced[name] is None:
                raise ConstraintViolation(
                    f"column {name!r} of table {self.name!r} may not be NULL"
                )

        self.recorder.record("updates")
        old, new = self.heap.update(rowid, coerced)
        for index in self.all_indexes():
            if index.key_for(old) != index.key_for(new):
                index.delete(old, rowid)
                try:
                    index.insert(new, rowid)
                except ConstraintViolation:
                    # Roll the heap and already-moved indexes back.
                    self.heap.update(rowid, old)
                    index.insert(old, rowid)
                    raise
        if fire_triggers:
            self.trigger_manager.fire(self.name, "update", new=new, old=old)
        return old, new

    def delete_row(self, rowid: int, *, fire_triggers: bool = True) -> Dict[str, Any]:
        """Delete one row by rowid; maintains indexes; fires triggers.

        Returns the deleted row's (no longer stored) values.
        """
        if not self.heap.exists(rowid):
            raise RowNotFoundError(f"table {self.name!r} has no row id {rowid}")
        self.recorder.record("deletes")
        old = self.heap.delete(rowid)
        for index in self.all_indexes():
            index.delete(old, rowid)
        if fire_triggers:
            self.trigger_manager.fire(self.name, "delete", new=None, old=old)
        return old

    # -- reads ----------------------------------------------------------------

    def fetch_by_pk(self, pk: Any) -> Optional[Row]:
        """Point lookup through the primary-key index."""
        rowids = self.primary_index.lookup(pk)
        if not rowids:
            return None
        return self.heap.fetch(rowids[0])

    def fetch_rows(self, rowids: List[int]) -> List[Tuple[int, Dict[str, Any]]]:
        """``(rowid, stored values)`` of the given ascending rows."""
        return self.heap.fetch_many(rowids)

    def scan(self) -> Iterator[List[Tuple[int, Dict[str, Any]]]]:
        return self.heap.scan()

    def index_for_column(self, column: str) -> Optional[Index]:
        """Return an index on exactly ``column``, if any: a composite index
        leading with it cannot serve a scalar key."""
        if column == self.schema.primary_key:
            return self.primary_index
        for index in self.secondary_indexes.values():
            if index.columns == (column,):
                return index
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Table {self.name}: {self.row_count} rows>"
