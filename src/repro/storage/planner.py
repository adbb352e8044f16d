"""A small rule-based planner.

The planner chooses an access path for the *base table* of a query:

1. primary-key point lookup, when the predicate pins the primary key;
2. secondary-index point lookup, when it pins an indexed column;
3. secondary-index range scan, when a range predicate or an
   ``ORDER BY indexed_column LIMIT k`` makes one profitable;
4. sequential scan otherwise.

Joins are always executed as index nested-loop joins by the executor (the
schemas generated by the ORM index every foreign key), so the planner only
needs to pick how the outer rows are produced.

The choice depends on a statement's *shape* only — its predicate's
:meth:`~repro.storage.predicates.Predicate.shape`, its ordering, whether it
has a limit and whether it joins — never on its values, so each table plans
a shape once (:meth:`Table.plan_for`) and keeps the :class:`Plan`, which
takes its values from each statement it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union, TYPE_CHECKING

from .predicates import Between, Comparison, Predicate, And
from .query import CountQuery, SelectQuery

if TYPE_CHECKING:  # pragma: no cover
    from .table import Index, Table


@dataclass
class PkLookup:
    """Point lookup through the primary-key index."""

    value: Any


@dataclass
class IndexLookup:
    """Point lookup through a secondary index."""

    index: Index
    value: Any


@dataclass
class IndexRange:
    """Ordered range scan over a secondary (or primary) index."""

    index: Index
    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True
    reverse: bool = False


@dataclass
class SeqScan:
    """Full heap scan."""


AccessPath = Union[PkLookup, IndexLookup, IndexRange, SeqScan]


def _range_bounds(predicate: Predicate, column: str):
    """Extract (low, high, include_low, include_high) bounds for ``column``."""
    low = high = None
    include_low = include_high = True
    comparisons = []
    if isinstance(predicate, (Comparison, Between)):
        comparisons = [predicate]
    elif isinstance(predicate, And):
        comparisons = [c for c in predicate.children if isinstance(c, (Comparison, Between))]
    found = False
    for comp in comparisons:
        if comp.column != column:
            continue
        if isinstance(comp, Between):
            low, high = comp.low, comp.high
            include_low = include_high = True
            found = True
            continue
        if comp.op in (">", ">="):
            low = comp.value
            include_low = comp.op == ">="
            found = True
        elif comp.op in ("<", "<="):
            high = comp.value
            include_high = comp.op == "<="
            found = True
    return (low, high, include_low, include_high) if found else None


def plan_access(table: Table, query: Union[SelectQuery, CountQuery]) -> AccessPath:
    """Choose an access path for the query's base table."""
    predicate = query.predicate
    bindings = predicate.equality_bindings()

    # 1. primary-key point lookup
    pk = table.schema.primary_key
    if pk in bindings:
        return PkLookup(bindings[pk])

    # 2. secondary-index point lookup
    for column, value in bindings.items():
        index = table.index_for_column(column)
        if index is not None and index is not table.primary_index:
            return IndexLookup(index, value)

    # 3a. index range scan driven by a range predicate, the first indexed
    # column in predicate order (a set's order would follow string hashing)
    for column in dict.fromkeys(predicate.columns()):
        index = table.index_for_column(column)
        if index is None:
            continue
        bounds = _range_bounds(predicate, column)
        if bounds is not None:
            low, high, include_low, include_high = bounds
            return IndexRange(index, low, high, include_low, include_high)

    # 3b. index range scan driven by ORDER BY ... LIMIT
    order_by = getattr(query, "order_by", None)
    limit = getattr(query, "limit", None)
    if order_by and limit is not None and len(order_by) == 1:
        term = order_by[0]
        if term.table in (None, table.name):
            index = table.index_for_column(term.column)
            if index is not None:
                return IndexRange(index, reverse=term.descending)

    # 4. sequential scan
    return SeqScan()


def statement_key(query) -> Tuple[Any, ...]:
    """The shape of a statement, as :func:`plan_access` reads it: equal for
    every two statements that it plans alike on one table.  Strings, bools,
    None and tuples of them only."""
    order_by = getattr(query, "order_by", ())
    return (query.predicate.shape(),
            tuple([(term.column, term.descending, term.table)
                   for term in order_by]) if order_by else (),
            getattr(query, "limit", None) is not None,
            bool(getattr(query, "joins", ())))


class Plan:
    """The access path :func:`plan_access` chose for one statement shape on
    one table, kept without any statement's values: each statement's own
    predicate supplies them (a point lookup's key, a range scan's bounds).

    * ``index`` / ``column`` — the index the path walks and its column
      (None for a sequential scan);
    * ``point`` — the path is a point lookup;
    * ``whole`` — a point lookup whose predicate is one ``=`` on that
      column: with a non-None key the lookup returns exactly the matching
      rows, so no residual check runs;
    * ``bounded`` — a range scan whose bounds come from the predicate;
    * ``scan`` — the path itself when it carries no values (a sequential
      scan, or an ``ORDER BY ... LIMIT`` index walk), shared by every
      statement of the shape; else None;
    * ``ordered`` — the path yields the rows in the statement's order.
    """

    __slots__ = ("index", "column", "point", "whole", "bounded", "scan",
                 "ordered")

    def __init__(self, table: Table, query: Union[SelectQuery, CountQuery]) -> None:
        path = plan_access(table, query)
        predicate = query.predicate
        ranged = isinstance(path, IndexRange)
        self.point = isinstance(path, (PkLookup, IndexLookup))
        self.index = (table.primary_index if isinstance(path, PkLookup)
                      else getattr(path, "index", None))
        self.column = None if self.index is None else self.index.columns[0]
        self.whole = (self.point and isinstance(predicate, Comparison)
                      and predicate.op == "=")
        self.bounded = (ranged
                        and _range_bounds(predicate, self.column) is not None)
        self.scan = None if self.point or self.bounded else path
        order_by = getattr(query, "order_by", ())
        self.ordered = (ranged
                        and not getattr(query, "joins", ())
                        and len(order_by) == 1
                        and order_by[0].column == self.column
                        and order_by[0].descending == path.reverse)

    def path_for(self, predicate: Predicate) -> AccessPath:
        """This plan's range or sequential scan for a statement with
        ``predicate``: a bounded range scan takes its bounds from it."""
        if self.bounded:
            return IndexRange(self.index, *_range_bounds(predicate, self.column))
        return self.scan
