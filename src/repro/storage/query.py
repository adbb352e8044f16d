"""Logical query descriptions.

The ORM (and CacheGenie's cache classes) build these query objects instead of
SQL text.  They are deliberately SQL-shaped: a SELECT has a base table, an
optional chain of inner equi-joins, a predicate, ordering, and a limit.  The
planner and executor consume them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .predicates import ALWAYS_TRUE, Predicate


@dataclass
class Join:
    """An inner equi-join step.

    ``left_table`` / ``left_column`` refer to a table already present in the
    query (the base table or an earlier join); ``right_table`` is newly added
    and its ``right_column`` must equal the left side's value.
    """

    left_table: str
    left_column: str
    right_table: str
    right_column: str

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"JOIN {self.right_table} ON "
            f"{self.left_table}.{self.left_column} = {self.right_table}.{self.right_column}"
        )


@dataclass
class OrderBy:
    """A single ORDER BY term."""

    column: str
    descending: bool = False
    #: Table the column belongs to; None means the base table (or the final
    #: joined table for join queries returning that table's rows).
    table: Optional[str] = None


@dataclass
class SelectQuery:
    """A SELECT over one table, optionally joined to others.

    ``columns=None`` means all columns of the *result* table (the base table
    for simple queries; for join queries, the table named by
    ``select_from`` — defaulting to the last joined table, which matches how
    the ORM traverses foreign-key chains and returns the far end's rows).
    """

    table: str
    predicate: Predicate = field(default_factory=lambda: ALWAYS_TRUE)
    #: Predicates keyed by table name for join queries (applied to that
    #: table's rows); the plain ``predicate`` applies to the base table.
    join_predicates: Dict[str, Predicate] = field(default_factory=dict)
    joins: List[Join] = field(default_factory=list)
    columns: Optional[Sequence[str]] = None
    order_by: List[OrderBy] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0
    distinct: bool = False
    #: Which table's rows to return for join queries.
    select_from: Optional[str] = None

    @property
    def result_table(self) -> str:
        if self.select_from:
            return self.select_from
        if self.joins:
            return self.joins[-1].right_table
        return self.table

    def tables(self) -> List[str]:
        """All tables referenced by the query, base table first."""
        out = [self.table]
        for join in self.joins:
            if join.right_table not in out:
                out.append(join.right_table)
        return out


@dataclass
class CountQuery:
    """SELECT COUNT(*) with an optional join chain, mirroring SelectQuery."""

    table: str
    predicate: Predicate = field(default_factory=lambda: ALWAYS_TRUE)
    join_predicates: Dict[str, Predicate] = field(default_factory=dict)
    joins: List[Join] = field(default_factory=list)
    distinct_column: Optional[str] = None

    def tables(self) -> List[str]:
        out = [self.table]
        for join in self.joins:
            if join.right_table not in out:
                out.append(join.right_table)
        return out


@dataclass
class UpdateQuery:
    """UPDATE rows matching ``predicate`` with ``changes``."""

    table: str
    changes: Dict[str, Any] = field(default_factory=dict)
    predicate: Predicate = field(default_factory=lambda: ALWAYS_TRUE)


@dataclass
class DeleteQuery:
    """DELETE rows matching ``predicate``."""

    table: str
    predicate: Predicate = field(default_factory=lambda: ALWAYS_TRUE)
