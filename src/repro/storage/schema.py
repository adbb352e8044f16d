"""Schema objects: column definitions, index definitions, table schemas.

A :class:`TableSchema` is a purely declarative description of a table — the
storage engine (``table.py``) turns it into heap storage plus B+Tree indexes.
The ORM layer generates these schemas from model definitions, mirroring how
Django's ``syncdb`` creates Postgres tables from models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ColumnNotFoundError, SchemaError
from .datatypes import DataType, type_by_name


@dataclass
class ColumnDef:
    """Definition of a single column.

    Parameters
    ----------
    name:
        Column name; must be unique within the table.
    dtype:
        Either a :class:`DataType` instance or its SQL-ish name (``"integer"``).
    nullable:
        Whether NULL values are accepted.
    default:
        Default value used when an INSERT omits the column.  May be a callable
        (invoked per row) or a plain value.
    """

    name: str
    dtype: Any
    nullable: bool = True
    default: Any = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"invalid column name {self.name!r}")
        if isinstance(self.dtype, str):
            self.dtype = type_by_name(self.dtype)
        if not isinstance(self.dtype, DataType):
            raise SchemaError(f"invalid column type for {self.name!r}: {self.dtype!r}")

    def resolve_default(self) -> Any:
        """Return the default value for this column for a new row."""
        if callable(self.default):
            return self.default()
        return self.default


@dataclass
class IndexDef:
    """Definition of a secondary index over one or more columns."""

    name: str
    columns: Tuple[str, ...]
    unique: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.columns, list):
            self.columns = tuple(self.columns)
        if not self.columns:
            raise SchemaError(f"index {self.name!r} must cover at least one column")


class TableSchema:
    """Declarative description of a table: columns and indexes.  Every table
    is keyed by its ``id`` column."""

    primary_key = "id"

    def __init__(
        self,
        name: str,
        columns: Sequence[ColumnDef],
        indexes: Optional[Sequence[IndexDef]] = None,
    ) -> None:
        if not name:
            raise SchemaError("table name must be non-empty")
        self.name = name
        self.columns: List[ColumnDef] = list(columns)
        self.indexes: List[IndexDef] = list(indexes or [])

        seen: Dict[str, ColumnDef] = {}
        for col in self.columns:
            if col.name in seen:
                raise SchemaError(f"duplicate column {col.name!r} in table {name!r}")
            seen[col.name] = col
        self._by_name = seen

        if self.primary_key not in self._by_name:
            raise SchemaError(
                f"primary key column {self.primary_key!r} not defined on "
                f"table {name!r}")

        for idx in self.indexes:
            for col in idx.columns:
                if col not in self._by_name:
                    raise SchemaError(
                        f"index {idx.name!r} references unknown column {col!r}"
                    )

        # The row plan.  A schema's columns are fixed at construction (only
        # indexes are added later, and no index changes a row), so what every
        # INSERT needs per column is worked out here, once.
        #: ``(name, coerce a non-NULL value, default of an omitted column)``.
        self._insert_plan = tuple(
            (col.name, col.dtype._coerce, col.resolve_default)
            for col in self.columns)
        #: NOT NULL columns; the primary key is assigned, never checked.
        self.not_null_columns: Tuple[str, ...] = tuple(
            col.name for col in self.columns
            if not col.nullable and col.name != self.primary_key)
        # Width: the row header plus every fixed-width column, summed once;
        # only the types that measure their value (text) are asked per row.
        def measures(dtype: DataType) -> bool:
            return type(dtype).estimate_width is not DataType.estimate_width
        self._fixed_width = 8 + sum(
            col.dtype.width for col in self.columns if not measures(col.dtype))
        self._measured_widths = tuple(
            (col.name, col.dtype.estimate_width)
            for col in self.columns if measures(col.dtype))

    # -- column access ------------------------------------------------------

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    # -- index helpers ------------------------------------------------------

    def add_index(self, index: IndexDef) -> None:
        """Register an additional secondary index definition."""
        for col in index.columns:
            if col not in self._by_name:
                raise SchemaError(
                    f"index {index.name!r} references unknown column {col!r}"
                )
        self.indexes.append(index)

    # -- row helpers ---------------------------------------------------------

    def coerce_row(self, values: Dict[str, Any], *, for_insert: bool = True) -> Dict[str, Any]:
        """Validate and coerce a mapping of column values.

        For inserts, missing columns get their defaults and NOT NULL
        constraints are checked (except the primary key, which the table
        assigns automatically when omitted).  For updates, only the provided
        columns are validated.
        """
        by_name = self._by_name
        if not values.keys() <= by_name.keys():
            unknown = next(key for key in values if key not in by_name)
            raise ColumnNotFoundError(
                f"table {self.name!r} has no column {unknown!r}"
            )
        if not for_insert:
            return {key: by_name[key].dtype.coerce(value)
                    for key, value in values.items()}
        out: Dict[str, Any] = {}
        for name, coerce, resolve_default in self._insert_plan:
            value = values[name] if name in values else resolve_default()
            out[name] = None if value is None else coerce(value)
        return out

    def estimate_row_width(self, row: Dict[str, Any]) -> int:
        """Estimate the storage footprint of ``row`` in bytes."""
        total = self._fixed_width
        for name, measure in self._measured_widths:
            total += measure(row.get(name))
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(self.column_names)
        return f"<TableSchema {self.name}({cols})>"
