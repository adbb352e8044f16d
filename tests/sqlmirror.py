"""An independent reference for the storage engine: the stdlib ``sqlite3``.

:class:`Mirror` keeps an in-memory sqlite database beside an engine
:class:`~repro.storage.Database`.  It turns a :class:`TableSchema` into
``CREATE TABLE``, and the query objects of :mod:`repro.storage.query` into
parameterised SQL: predicate trees, join chains with ``join_predicates``,
``select_from``, ``columns``, ``distinct``, ``distinct_column``,
``order_by``, ``limit``/``offset``, INSERT, UPDATE and DELETE.

Where the engine's semantics are not SQL's, the translation bridges the gap
at a comment starting "Gap:"; the "Storage vs SQL" table of
docs/ARCHITECTURE.md names each one and the test that pins it.  Reading the
mirror charges no engine counter, takes no pause and touches no buffer pool.
"""

from __future__ import annotations

import datetime as dt
import sqlite3
from collections import Counter
from dataclasses import replace
from typing import Any, Callable, Dict, List

from repro.storage import CountQuery, Database, IndexDef, SelectQuery, TableSchema
from repro.storage.planner import IndexRange, plan_access
from repro.storage.predicates import (ALWAYS_TRUE, And, Between, Comparison,
                                      In, IsNull, Not, Or, Predicate,
                                      TruePredicate)
from repro.storage.query import UpdateQuery

Row = Dict[str, Any]

#: Gap: sqlite's column affinity converts a value (a TEXT column stores 5 as
#: '5'), where the engine refuses one of the wrong Python type.  So columns
#: have no affinity: a bound value ``{p}`` goes through its type's expression,
#: and a CHECK keeps the stored type (the second element).
TYPES = {
    "integer": ("CASE WHEN typeof({p}) = 'real' AND {p} = CAST({p} AS INTEGER)"
                " THEN CAST({p} AS INTEGER) ELSE {p} END", "integer"),
    "float": ("CASE WHEN typeof({p}) = 'integer' THEN CAST({p} AS REAL)"
              " ELSE {p} END", "real"),
    "text": ("{p}", "text"),
    "boolean": ("CASE WHEN {p} IN (0, 1) THEN CAST({p} AS INTEGER) ELSE {p} END",
                "integer"),
    # Gap: sqlite has no timestamp type, and the engine reads a number as
    # seconds since the epoch: ISO-8601 text, at millisecond precision.
    "timestamp": ("CASE WHEN typeof({p}) IN ('integer', 'real')"
                  " THEN strftime('%Y-%m-%dT%H:%M:%f', {p}, 'unixepoch')"
                  " WHEN typeof({p}) = 'text'"
                  " THEN coalesce(strftime('%Y-%m-%dT%H:%M:%f', {p}), x'00')"
                  " ELSE {p} END", "text"),
}
#: Stored values back in the engine's Python types.
FROM_SQL = {"boolean": bool, "timestamp": dt.datetime.fromisoformat}


def bag(rows: List[Row]) -> Counter:
    """Rows as a multiset."""
    return Counter(tuple(sorted(row.items())) for row in rows)


def stored_rows(db: Database, table: str) -> List[Row]:
    """The engine's live rows in row-id order, read without charging."""
    return [dict(values) for values in db.table(table).heap._values if values]


def assert_same_state(db: Database, mirror: "Mirror") -> None:
    for name in mirror.schemas:
        assert bag(stored_rows(db, name)) == bag(mirror.rows(name)), name


class _Params:
    """The named parameters of one statement."""

    def __init__(self, types: Dict[str, Dict[str, str]]) -> None:
        self.types, self.values = types, {}

    def __call__(self, table: str, column: str, value: Any, write: bool = False) -> str:
        name, kind = f"v{len(self.values)}", self.types[table].get(column, "text")
        if isinstance(value, bool) and write and kind != "boolean":
            # Gap: Python's sqlite3 binds True as 1; the engine stores a bool
            # only in a boolean column.  A blob passes no column's CHECK.
            value = b"bool"
        elif isinstance(value, dt.datetime):
            value = value.isoformat()      # sqlite3's own adapter is deprecated
        self.values[name] = value
        return "(" + TYPES[kind][0].format(p=":" + name) + ")"


class Mirror:
    """An in-memory sqlite database holding what the engine holds."""

    def __init__(self) -> None:
        # Replay workers call in from their own threads, one at a time.
        self.connection = sqlite3.connect(":memory:", check_same_thread=False,
                                          isolation_level=None)
        self.schemas: Dict[str, TableSchema] = {}
        self.types: Dict[str, Dict[str, str]] = {}

    @classmethod
    def of(cls, db: Database) -> "Mirror":
        """A mirror of every table of ``db``: schema, indexes and rows."""
        mirror = cls()
        for name in db.table_names():
            mirror.create(db.table(name).schema)
            for values in stored_rows(db, name):
                mirror.insert(name, values)
        return mirror

    def create(self, schema: TableSchema) -> None:
        self.schemas[schema.name] = schema
        self.types[schema.name] = {c.name: c.dtype.name for c in schema.columns}
        columns = []
        for col in schema.columns:
            name = col.name
            if col.name == schema.primary_key:
                assert col.dtype.name == "integer", "the engine's keys are integers"
                columns.append(f"{name} INTEGER PRIMARY KEY AUTOINCREMENT")
                continue
            check = f"typeof({name}) IN ('null', '{TYPES[col.dtype.name][1]}')"
            if col.dtype.name == "boolean":
                check += f" AND {name} IN (0, 1)"
            if getattr(col.dtype, "max_length", None) is not None:
                check += f" AND length({name}) <= {col.dtype.max_length}"
            columns.append(f"{name}{'' if col.nullable else ' NOT NULL'} CHECK ({check})")
        self.connection.execute(f"CREATE TABLE {schema.name} ({', '.join(columns)})")
        for index in schema.indexes:
            self.create_index(schema.name, index)

    def create_index(self, table: str, index: IndexDef) -> None:
        """Raises ``sqlite3.Error`` when sqlite refuses the index."""
        self.connection.execute(
            f"CREATE {'UNIQUE ' if index.unique else ''}INDEX "
            f'"{table}.{index.name}" ON {table} '
            f"({', '.join(index.columns)})")

    # -- reads ------------------------------------------------------------------

    def _run(self, table: str, sql: str, params: _Params) -> List[Row]:
        cursor = self.connection.execute(sql, params.values)
        names = [d[0] for d in cursor.description]
        convert = [FROM_SQL.get(self.types[table].get(name)) for name in names]
        return [{name: value if to is None or value is None else to(value)
                 for name, to, value in zip(names, convert, record)}
                for record in cursor]

    def rows(self, table: str, predicate: Predicate = ALWAYS_TRUE) -> List[Row]:
        params = _Params(self.types)
        where = self._where(params, table, predicate)
        return self._run(table, f"SELECT * FROM {table} WHERE {where}", params)

    def last_key(self, table: str) -> int:
        """The largest key the table has held (sqlite's AUTOINCREMENT)."""
        found = self.connection.execute(
            "SELECT seq FROM sqlite_sequence WHERE name = ?", (table,)).fetchone()
        return found[0] if found else 0

    def _where(self, params: _Params, table: str, p: Predicate) -> str:
        if isinstance(p, TruePredicate):
            return "1"
        if isinstance(p, (And, Or)):
            joiner, empty = (" AND ", "1") if isinstance(p, And) else (" OR ", "0")
            parts = [self._where(params, table, child) for child in p.children]
            return "(" + joiner.join(parts) + ")" if parts else empty
        if isinstance(p, Not):
            return f"(NOT {self._where(params, table, p.child)})"
        column = f"{table}.{p.column}"
        if isinstance(p, IsNull):
            return f"({column} IS {'NOT ' if p.negated else ''}NULL)"
        # Gap: the engine's logic is two-valued: a comparison with NULL is
        # false, and NOT of it true.  Every leaf below is 0 or 1, never NULL.
        if isinstance(p, Comparison) and p.op == "!=":
            # Gap: ``!=`` is Python's: NULL differs from every value.
            return f"({column} IS NOT {params(table, p.column, p.value)})"
        if isinstance(p, Comparison):
            return f"coalesce({column} {p.op} {params(table, p.column, p.value)}, 0)"
        if isinstance(p, Between):
            return (f"coalesce({column} BETWEEN {params(table, p.column, p.low)}"
                    f" AND {params(table, p.column, p.high)}, 0)")
        if isinstance(p, In):
            # Gap: ``IN`` is Python's ``in``: NULL is in a list holding None.
            values = [params(table, p.column, v) for v in p.values if v is not None]
            parts = [f"coalesce({column} IN ({', '.join(values)}), 0)"] if values else []
            parts += [f"{column} IS NULL"] if None in p.values else []
            return "(" + " OR ".join(parts) + ")" if parts else "0"
        raise NotImplementedError(f"no SQL for {p!r}")

    def _source(self, params: _Params, query) -> str:
        """``FROM … JOIN … WHERE …`` of a SELECT or COUNT."""
        assert len(query.tables()) == len(query.joins) + 1, "each table joins once"
        sql = f"FROM {query.table}"
        for join in query.joins:
            right = join.right_table
            sql += (f" JOIN {right} ON {join.left_table}."
                    f"{join.left_column} = {right}.{join.right_column}")
            if right in query.join_predicates:
                sql += " AND " + self._where(params, right, query.join_predicates[right])
        return sql + " WHERE " + self._where(params, query.table, query.predicate)

    def select(self, query: SelectQuery, keyed: bool = False) -> List[Row]:
        """The rows of ``query``; ``keyed`` adds each row's ORDER BY values,
        as a tuple under ``"~"``."""
        params, result = _Params(self.types), query.result_table
        columns = query.columns if query.columns is not None else (
            self.schemas[result].column_names)
        heads = [f"{result}.{c} AS {c}" for c in columns]
        terms = []
        for number, term in enumerate(query.order_by):
            column = f"{term.table or result}.{term.column}"
            way = "DESC" if term.descending else "ASC"
            # Gap: the engine sorts NULL last ascending, first descending.
            terms.append(f"({column} IS NULL) {way}, {column} {way}")
            heads += [f'{column} AS "~{number}"'] if keyed else []
        sql = ("SELECT DISTINCT " if query.distinct else "SELECT ") + ", ".join(heads)
        sql += " " + self._source(params, query)
        sql += " ORDER BY " + ", ".join(terms) if terms else ""
        if query.limit is not None or query.offset:
            limit = -1 if query.limit is None else int(query.limit)
            sql += f" LIMIT {limit} OFFSET {int(query.offset)}"
        rows = self._run(result, sql, params)
        for row in rows if keyed else ():
            row["~"] = tuple(row.pop(f"~{n}") for n in range(len(terms)))
        return rows

    def count(self, query: CountQuery) -> int:
        params = _Params(self.types)
        result = query.joins[-1].right_table if query.joins else query.table
        head = "COUNT(*)"
        if query.distinct_column:
            column = f"{result}.{query.distinct_column}"
            # Gap: the engine counts NULL as one more distinct value.
            head = f"COUNT(DISTINCT {column}) + coalesce(MAX({column} IS NULL), 0)"
        sql = f"SELECT {head} {self._source(params, query)}"
        return self.connection.execute(sql, params.values).fetchone()[0]

    def expect(self, db: Database, query) -> Callable[[Any], None]:
        """Read now what the engine's answer to ``query`` must be, and return
        the check to run on that answer.

        A COUNT must match.  A SELECT must have sqlite's length and: sqlite's
        sequence when its ORDER BY is total; else only rows that tie with a
        row of sqlite's window (sqlite's multiset, without LIMIT/OFFSET), and
        the ORDER BY values in sqlite's order when the rows show them.  Which
        tying rows the engine keeps (and which row DISTINCT keeps for a key)
        is its scan order, which SQL leaves open: the corpus pins pin it.
        """
        if isinstance(query, CountQuery):
            count = self.count(query)

            def check_count(answer: int) -> None:
                assert answer == count, (query, answer, count)
            return check_count
        query = _walk_skips_null_keys(db, query)
        rows = self.select(query)
        order = [term.column for term in query.order_by]
        visible = query.columns is None or set(order) <= set(query.columns)
        total = (self.schemas[query.result_table].primary_key in order and visible
                 and (not query.joins or query.distinct and query.columns is None))
        universe = bag(rows)
        if query.limit is not None or query.offset:
            unbounded = replace(query, limit=None, offset=0)
            if query.distinct:
                universe = bag(self.select(unbounded))
            else:
                keyed = self.select(unbounded, keyed=True)
                edge = {row["~"] for row in keyed[query.offset:][:query.limit]}
                universe = bag([{c: v for c, v in row.items() if c != "~"}
                                for row in keyed if row["~"] in edge])

        def check_rows(answer: List[Row]) -> None:
            assert len(answer) == len(rows), (query, answer, rows)
            assert answer == rows or not total, (query, answer, rows)
            assert not bag(answer) - universe, (query, answer, rows)
            if order and visible:
                assert ([[r[c] for c in order] for r in answer]
                        == [[r[c] for c in order] for r in rows]), (query, answer, rows)
        return check_rows

    # -- writes -----------------------------------------------------------------

    def insert(self, table: str, values: Row) -> Row:
        """INSERT ``values``, an omitted column taking its literal default;
        returns the stored row, or raises ``sqlite3.Error`` when refused."""
        row = {c.name: c.default for c in self.schemas[table].columns
               if c.name not in values and c.default is not None
               and not callable(c.default)}
        row.update(values)
        params = _Params(self.types)
        sql = f"INSERT INTO {table} DEFAULT VALUES"
        if row:
            values = ", ".join(params(table, c, v, write=True) for c, v in row.items())
            sql = (f"INSERT INTO {table} ({', '.join(row)}) "
                   f"VALUES ({values})")
        key = self.connection.execute(sql, params.values).lastrowid
        return self.rows(table, Comparison(self.schemas[table].primary_key, "=", key))[0]

    def write(self, query) -> List[Row]:
        """Run an UPDATE (returning the new versions of the rows it changed)
        or a DELETE (returning the rows it removed)."""
        table, pk = query.table, self.schemas[query.table].primary_key
        matched = self.rows(table, query.predicate)
        params = _Params(self.types)
        sql = f"DELETE FROM {table}"
        if isinstance(query, UpdateQuery):
            sql = f"UPDATE {table} SET " + ", ".join(
                f"{c} = {params(table, c, v, write=True)}"
                for c, v in query.changes.items())
        sql += " WHERE " + self._where(params, table, query.predicate)
        self.connection.execute(sql, params.values)
        if not isinstance(query, UpdateQuery):
            return matched
        changed = In(pk, [row[pk] for row in matched])
        return self.rows(table, changed)

    def apply(self, table: str, new: Row, old: Row) -> None:
        """Apply one row change the engine made, from its row images."""
        if old is not None:
            pk = self.schemas[table].primary_key
            self.connection.execute(
                f"DELETE FROM {table} WHERE {pk} = ?", (old[pk],))
        if new is not None:
            self.insert(table, new)


def _walk_skips_null_keys(db: Database, query: SelectQuery) -> SelectQuery:
    """A known storage defect, bridged so that the arms see past it (the
    strict xfail ``test_ordered_index_walk_keeps_null_keys`` pins it): an
    ``ORDER BY c LIMIT k`` that the planner serves by walking the index on the
    base table's ``c`` never visits the index's NULL keys."""
    path = plan_access(db.table(query.table), query)
    if isinstance(path, IndexRange) and path.low is None and path.high is None:
        walked = IsNull(path.index.columns[0], negated=True)
        return replace(query, predicate=And([query.predicate, walked]))
    return query
