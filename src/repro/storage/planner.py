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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

from .predicates import Between, Comparison, Predicate, And
from .query import CountQuery, SelectQuery
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
