"""Relational storage engine substrate (stands in for PostgreSQL).

The engine provides exactly the capabilities CacheGenie needs from the
database: SQL-shaped queries compiled from an ORM, B+Tree indexes, a buffer
pool with a disk-cost asymmetry, row-level AFTER triggers written in Python,
and single-writer transactions.
"""

from .btree import BPlusTree
from .bufferpool import BufferPool
from .costmodel import CostCounters, CostModel, Demand, Recorder
from .database import Database
from .predicates import (ALWAYS_TRUE, And, Between, Comparison, Eq, In, IsNull,
                         Not, Or, Predicate, predicate_from_filters)
from .query import (CountQuery, DeleteQuery, Join, OrderBy, SelectQuery,
                    UpdateQuery)
from .rows import Row
from .schema import ColumnDef, IndexDef, TableSchema
from .table import Table
from .triggers import Trigger, TriggerManager

__all__ = [
    "ALWAYS_TRUE",
    "And",
    "Between",
    "BPlusTree",
    "BufferPool",
    "ColumnDef",
    "Comparison",
    "CostCounters",
    "CostModel",
    "CountQuery",
    "Database",
    "DeleteQuery",
    "Demand",
    "Eq",
    "In",
    "IndexDef",
    "IsNull",
    "Join",
    "Not",
    "Or",
    "OrderBy",
    "Predicate",
    "Recorder",
    "Row",
    "SelectQuery",
    "Table",
    "TableSchema",
    "Trigger",
    "TriggerManager",
    "UpdateQuery",
    "predicate_from_filters",
]
