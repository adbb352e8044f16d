"""The statement and insert paths against sqlite: the hypothesis arm.

Random scripts (``scripts.py``) run on the engine and on a
:class:`~tests.sqlmirror.Mirror` of it.  A SELECT must agree with sqlite as a
multiset, and as a sequence where its ORDER BY is total; a COUNT exactly; an
UPDATE or DELETE on the rows it changed and on every table after it; an
INSERT on the row it stored or on the fact that it was refused.

What SQL cannot check — the counter bags, the buffer pool, the engine's order
among rows that tie, the stored layout — is pinned by ``test_corpus_pins.py``.
Below the arms, one test per semantic gap pins it from both sides: what the
engine does, what plain SQL does, and that the mirror's bridge does the
former.
"""

from __future__ import annotations

import datetime as dt
import sqlite3

import pytest
from hypothesis import given, settings

from repro.errors import SchemaError, StorageError
from repro.storage import (ColumnDef, CountQuery, Database, IndexDef, OrderBy,
                           SelectQuery, TableSchema)
from repro.storage.predicates import Comparison, In, Not
from tests.sqlmirror import Mirror, assert_same_state, bag
from tests.storage.scripts import (build_insert_db, build_statement_db, drawn,
                                   insert_script, run_statement,
                                   statement_script)


@settings(max_examples=300, deadline=None)
@given(script=drawn(statement_script))
def test_statements_agree_with_sqlite(script):
    rows_by_table, statements = script
    db = build_statement_db(rows_by_table)
    mirror = Mirror.of(db)
    for statement in statements:
        if isinstance(statement, (SelectQuery, CountQuery)):
            mirror.expect(db, statement)(run_statement(db, statement))
            continue
        changed = mirror.write(statement)
        assert bag(run_statement(db, statement)) == bag(changed), statement
        assert_same_state(db, mirror)


REFUSED = "refused"


def outcome(call):
    """What a statement returned, or ``REFUSED``."""
    try:
        return call()
    # ValueError: test_an_unparseable_timestamp_is_a_schema_error.
    except (StorageError, ValueError, sqlite3.Error):
        return REFUSED


@settings(max_examples=400, deadline=None)
@given(script=drawn(insert_script))
def test_inserts_agree_with_sqlite(script):
    specs, indexes, steps = script
    produced = {}
    db = build_insert_db(specs, indexes, produced)
    mirror = Mirror.of(db)
    for kind, argument in steps:
        if kind == "create_index":
            assert (outcome(lambda: db.create_index("t", argument))
                    == outcome(lambda: mirror.create_index("t", argument)))
            continue
        produced.clear()
        row = outcome(lambda: db.insert("t", dict(argument)))
        # What the engine's default factories produced stands in for them.
        values = {**argument, **produced}
        if row != REFUSED and argument.get("id") is None:
            # Gap: the engine picks the key.  sqlite would pick the next after
            # the largest it has held; the engine's counter never runs behind.
            assert row["id"] > mirror.last_key("t")
            values["id"] = row["id"]
        assert outcome(lambda: mirror.insert("t", values)) == row, argument
        assert_same_state(db, mirror)


# ---------------------------------------------------------------------------
# The gaps, each from both sides.
# ---------------------------------------------------------------------------

def gap_db(*values) -> Database:
    """Table ``t(id, a)`` holding one row per value of ``a``."""
    db = Database()
    db.create_table(TableSchema("t", [ColumnDef("id", "integer"),
                                      ColumnDef("a", "integer")],
                                indexes=[IndexDef("t_a", ("a",))]))
    for value in values:
        db.insert("t", {"a": value})
    return db


#: Per gap: ``(values of a, query, the engine's answer (ids or a count),
#: plain SQL, plain SQL's answer)``.
QUERY_GAPS = {
    "two-valued-logic": ((None, 2), SelectQuery(
        "t", predicate=Not(Comparison("a", "=", 1))), [1, 2],
        "SELECT id FROM t WHERE NOT (a = 1)", [2]),
    "not-equal-is-pythons": ((None, 2), SelectQuery(
        "t", predicate=Comparison("a", "!=", 1)), [1, 2],
        "SELECT id FROM t WHERE a != 1", [2]),
    "in-is-pythons": ((None, 2), SelectQuery(
        "t", predicate=In("a", [None, 2])), [1, 2],
        "SELECT id FROM t WHERE a IN (NULL, 2)", [2]),
    "null-last-ascending": ((None, 1, 2), SelectQuery(
        "t", order_by=[OrderBy("a")]), [2, 3, 1],
        "SELECT id FROM t ORDER BY a", [1, 2, 3]),
    "null-first-descending": ((None, 1, 2), SelectQuery(
        "t", order_by=[OrderBy("a", True)]), [1, 3, 2],
        "SELECT id FROM t ORDER BY a DESC", [3, 2, 1]),
    "count-distinct-counts-null": ((None, None, 1), CountQuery(
        "t", distinct_column="a"), 2, "SELECT COUNT(DISTINCT a) FROM t", [1]),
}


@pytest.mark.parametrize("gap", sorted(QUERY_GAPS))
def test_query_gap(gap):
    """The engine answers one way, plain SQL the other, the mirror as the
    engine does."""
    values, query, engine, sql, plain = QUERY_GAPS[gap]
    db = gap_db(*values)
    mirror = Mirror.of(db)
    for source in (db, mirror):
        assert (source.count(query) if isinstance(query, CountQuery)
                else [row["id"] for row in source.select(query)]) == engine
    assert [value for (value,) in mirror.connection.execute(sql)] == plain


def test_gap_ties_follow_the_engine_scan_order():
    """The engine: rows that tie keep their scan order, so LIMIT keeps the
    first one met.  SQL: either.  The mirror accepts any row of the tie and
    no row outside it; the corpus pins pin the engine's choice."""
    db = gap_db(1, 1, 2)
    query = SelectQuery("t", columns=["id"], order_by=[OrderBy("a")], limit=1)
    assert db.select(query) == [{"id": 1}]
    check = Mirror.of(db).expect(db, query)
    check([{"id": 1}])
    check([{"id": 2}])
    with pytest.raises(AssertionError):
        check([{"id": 3}])


def engine_and_mirror(*columns):
    """An empty table ``t(id, *columns)`` in the engine and in a mirror."""
    schema = TableSchema("t", [ColumnDef("id", "integer"), *columns])
    db, mirror = Database(), Mirror()
    db.create_table(schema)
    mirror.create(schema)
    return db, mirror


def test_gap_auto_key_counts_refused_rows():
    """The engine: a refused row burns the key it was given.  sqlite's
    AUTOINCREMENT: the next key follows the largest stored."""
    db, mirror = engine_and_mirror(ColumnDef("a", "integer", nullable=False))
    with pytest.raises(StorageError):
        db.insert("t", {})                   # a may not be NULL
    with pytest.raises(sqlite3.IntegrityError):
        mirror.insert("t", {})
    assert db.insert("t", {"a": 1})["id"] == 2
    assert mirror.insert("t", {"a": 1})["id"] == 1


@pytest.mark.parametrize("kind, affinity, value", [
    ("integer", "INTEGER", True), ("integer", "INTEGER", "3"),
    ("float", "REAL", False), ("float", "REAL", "1.5"), ("text", "TEXT", 5),
    ("timestamp", "NUMERIC", True),
])
def test_gap_values_keep_their_python_type(kind, affinity, value):
    """The engine refuses a value of the wrong Python type.  sqlite's
    affinity converts it, and Python's sqlite3 binds a bool as an int."""
    db, mirror = engine_and_mirror(ColumnDef("v", kind))
    with pytest.raises(SchemaError):
        db.insert("t", {"v": value})
    mirror.connection.execute(f"CREATE TABLE plain (v {affinity})")
    mirror.connection.execute("INSERT INTO plain VALUES (?)", (value,))
    with pytest.raises(sqlite3.IntegrityError):
        mirror.insert("t", {"v": value})


def test_gap_timestamps_are_text_in_sqlite():
    """The engine stores a ``datetime`` and reads a number as seconds since
    the epoch.  sqlite has no timestamp type and keeps the number; the mirror
    converts it with sqlite's ``unixepoch`` and stores ISO-8601 text."""
    db, mirror = engine_and_mirror(ColumnDef("at", "timestamp"))
    expected = dt.datetime(1970, 1, 2, 0, 0, 0, 500000)
    assert db.insert("t", {"at": 86400.5})["at"] == expected
    assert mirror.insert("t", {"at": 86400.5})["at"] == expected
    sql = mirror.connection.execute
    assert sql("SELECT at FROM t").fetchall() == [("1970-01-02T00:00:00.500",)]
    sql("CREATE TABLE plain (at TIMESTAMP)")
    sql("INSERT INTO plain VALUES (86400.5)")
    assert sql("SELECT at FROM plain").fetchall() == [(86400.5,)]


# ---------------------------------------------------------------------------
# Defects the mirror found, left for the re-pin that may move the pins.
# ---------------------------------------------------------------------------

@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "an ORDER BY c LIMIT k that the planner serves by walking c's index "
    "never visits the index's NULL keys: sqlite returns all four rows, the "
    "engine the two whose a is not NULL"))
def test_ordered_index_walk_keeps_null_keys():
    db = gap_db(None, 1, None, 2)
    query = SelectQuery("t", order_by=[OrderBy("a")], limit=4)
    assert [row["id"] for row in db.select(query)] == [2, 4, 1, 3]


@pytest.mark.xfail(strict=True, raises=ValueError, reason=(
    "a text timestamp that does not parse escapes TimestampType as the "
    "ValueError of datetime.fromisoformat, where every other refused value "
    "is a SchemaError"))
def test_an_unparseable_timestamp_is_a_schema_error():
    db, _mirror = engine_and_mirror(ColumnDef("at", "timestamp"))
    with pytest.raises(SchemaError):
        db.insert("t", {"at": "not a date"})
