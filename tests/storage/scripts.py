"""Random storage scripts, from one source of choices.

Every generator takes ``choose(options)``, which returns one of ``options``:
``random.Random(seed).choice`` for the corpus pins (no hypothesis upgrade can
move them), or hypothesis's bytes through :func:`drawn` for the mirror arms.
Statement scripts run over three tables with NULLs, duplicate keys, two
indexes each, two rows a page and a three-page buffer pool.  Insert scripts
draw a schema (all five types, literal and callable defaults, bounded text,
unique, composite and late indexes, order-4 trees) and a row stream holding
every way an INSERT fails.
"""

from __future__ import annotations

import datetime as dt
import itertools
from typing import Any, Callable, Dict, List, Optional, Sequence

from hypothesis import strategies as st

from repro.storage import (ColumnDef, CountQuery, Database, IndexDef, Join,
                           OrderBy, SelectQuery, TableSchema)
from repro.storage.datatypes import TextType
from repro.storage.predicates import (ALWAYS_TRUE, And, Between, Comparison,
                                      In, IsNull, Not, Or, Predicate)
from repro.storage.query import DeleteQuery, UpdateQuery

Choose = Callable[[Sequence[Any]], Any]
BOOLS = (False, True)


def drawn(generator: Callable[[Choose], Any]) -> st.SearchStrategy:
    """``generator`` as a hypothesis strategy: a byte a choice, so hypothesis
    shrinks each towards the first option (which reading past the end gets)."""
    def run(data: bytes) -> Any:
        stream = iter(data)
        return generator(lambda options: options[next(stream, 0) % len(options)])
    return st.binary(min_size=400, max_size=400).map(run)


def some(choose: Choose, make: Callable[[], Any], most: int) -> List[Any]:
    return [make() for _ in range(choose(range(most + 1)))]


# -- statement scripts ---------------------------------------------------------

TABLES = ("t", "u", "w")
COLUMNS = ("id", "a", "b", "k")
VALUES = (None, 0, 1, 2, 3, 4)
SMALL = (0, 1, 2, 3, 4)
ROWS = tuple(itertools.product(VALUES, repeat=3))    # (a, b, k)
#: ``a`` is indexed on every table; ``k`` is the indexed "foreign key"
#: (u.k -> t.id, w.k -> u.id); ``b`` has no index.
JOINS = {
    "t-u indexed": [Join("t", "id", "u", "k")],
    "t-u unindexed": [Join("t", "a", "u", "b")],
    "t-u-w": [Join("t", "id", "u", "k"), Join("u", "id", "w", "k")],
    "t-u-w from base": [Join("t", "id", "u", "k"), Join("t", "a", "w", "a")],
}


def leaf(choose: Choose, column: Optional[str] = None) -> Predicate:
    column = column or choose(COLUMNS)
    kind = choose(("true", "compare", "equal", "in", "between", "null"))
    return {"true": lambda: ALWAYS_TRUE,
            "compare": lambda: Comparison(column, choose(sorted(Comparison.OPS)),
                                          choose(VALUES)),
            "equal": lambda: Comparison(column, "=", choose(SMALL)),
            "in": lambda: In(column, some(choose, lambda: choose(VALUES), 3)),
            "between": lambda: Between(column, choose(SMALL), choose(SMALL)),
            "null": lambda: IsNull(column, choose(BOOLS))}[kind]()


def predicate(choose: Choose, depth: int = 2) -> Predicate:
    kind = choose(("leaf", "and", "or", "not") if depth else ("leaf",))
    if kind == "leaf":
        return leaf(choose)
    if kind == "not":
        return Not(predicate(choose, depth - 1))
    children = [predicate(choose, depth - 1) for _ in range(choose((1, 2, 3)))]
    return (And if kind == "and" else Or)(children)


def joined(choose: Choose, query):
    """Maybe give ``query`` a join chain and predicates on its tables."""
    chain = choose((None, *sorted(JOINS)))
    if chain:
        query.joins = list(JOINS[chain])
        query.join_predicates = {name: predicate(choose) for name in ("u", "w")
                                 if choose(BOOLS)}
    return query


def select(choose: Choose) -> SelectQuery:
    query = joined(choose, SelectQuery(
        "t", predicate(choose),
        order_by=some(choose, lambda: OrderBy(choose(COLUMNS), choose(BOOLS)), 2),
        limit=choose((None, *SMALL)), offset=choose((0, 1, 2)),
        distinct=choose(BOOLS), columns=choose((None, "some")) and list(
            dict.fromkeys(choose(COLUMNS) for _ in range(choose((1, 2, 3)))))))
    if query.joins:
        query.select_from = choose((None, "t", query.joins[0].right_table))
    return query


def ordered_walk(choose: Choose) -> SelectQuery:
    """``ORDER BY indexed LIMIT k`` with nothing else to plan on: the walk
    over an index that stops early."""
    return SelectQuery(
        "t", choose((lambda: ALWAYS_TRUE, lambda: leaf(choose, "b")))(),
        order_by=[OrderBy(choose(("id", "a", "k")), choose(BOOLS))],
        limit=choose(SMALL), offset=choose((0, 1, 2)),
        distinct=choose((False, False, True)))


def count(choose: Choose) -> CountQuery:
    return joined(choose, CountQuery("t", predicate(choose),
                                     distinct_column=choose((None, *COLUMNS))))


def update(choose: Choose) -> UpdateQuery:
    columns = dict.fromkeys(choose(("a", "b", "k")) for _ in range(choose((1, 2, 3))))
    return UpdateQuery(choose(TABLES), {c: choose(VALUES) for c in columns},
                       predicate(choose))


def delete(choose: Choose) -> DeleteQuery:
    return DeleteQuery(choose(TABLES), predicate(choose))


def statement_script(choose: Choose):
    """``(rows by table, statements)``."""
    rows = {name: [dict(zip("abk", choose(ROWS))) for _ in range(choose(range(10)))]
            for name in TABLES}
    kinds = (select, ordered_walk, count, update, delete)
    return rows, [choose(kinds)(choose) for _ in range(choose((1, 2, 3, 4)))]


def build_statement_db(rows_by_table: Dict[str, List[Dict[str, Any]]]) -> Database:
    db = Database(buffer_pool_pages=3)
    for name in TABLES:
        table = db.create_table(TableSchema(
            name, [ColumnDef(c, "integer") for c in COLUMNS],
            indexes=[IndexDef(f"{name}_a_idx", ("a",)),
                     IndexDef(f"{name}_k_idx", ("k",))]))
        table.heap.page_size = 96        # two rows a page
        for row in rows_by_table[name]:
            db.insert(name, row)
    return db


def run_statement(db: Database, statement) -> Any:
    if isinstance(statement, SelectQuery):
        return db.select(statement)
    if isinstance(statement, CountQuery):
        return db.count(statement)
    if isinstance(statement, UpdateQuery):
        return db.update(statement.table, statement.changes,
                         predicate=statement.predicate)
    return db.delete(statement.table, predicate=statement.predicate)


# -- insert scripts ------------------------------------------------------------

#: Per type: values it stores (some after conversion), then values it refuses.
TYPED_VALUES = {
    "integer": (0, 1, 2, 3, 7, 2.0, None, True, 2.5, "x"),
    "float": (0, 1.5, -2.25, 3, None, False, "x"),
    # 90 characters are wider than a whole 96-byte page: the width clamp.
    "text": ("", "a", "bb", "c" * 12, "d" * 90, None, 5),
    "boolean": (True, False, 0, 1, None, 2, "yes"),
    "timestamp": (dt.datetime(2020, 1, 2, 3, 4, 5), 0, 86400.5, -1.5,
                  "2021-03-04T05:06:07", None, True, "not a date", [1]),
}
#: What a callable default produces on its n-th call, per type.
FACTORIES = {"integer": lambda n: n % 3, "float": lambda n: n / 2,
             "text": lambda n: "f" * (n % 4), "boolean": lambda n: n % 2 == 0,
             "timestamp": float}
OMITTED = object()


def insert_script(choose: Choose):
    """``(specs, early indexes, steps)``.  A spec is ``(name, type,
    max_length, nullable, default kind, literal)``, an index ``(columns,
    unique)``, a step ``("insert", row)`` or ``("create_index", IndexDef)``."""
    specs = []
    for name in "abcde"[:choose(range(1, 6))]:
        kind = choose(sorted(TYPED_VALUES))
        specs.append((name, kind, choose((None, 1, 12)) if kind == "text" else None,
                      choose(BOOLS), choose(("none", "literal", "callable")),
                      choose(TYPED_VALUES[kind])))
    names = [spec[0] for spec in specs] + ["id"]
    # A composite index only over NOT NULL columns: a tuple key holding a
    # NULL does not compare with one holding a value.
    not_null = ["id"] + [spec[0] for spec in specs if not spec[3]]

    def index():
        if len(not_null) >= 2 and choose(BOOLS):
            first = choose(not_null)
            return (first, choose([c for c in not_null if c != first])), choose(BOOLS)
        return (choose(names),), choose(BOOLS)

    def row():
        # The key: left to the table, or explicit — colliding, below the
        # counter, far above it, or not an integer at all.
        key = choose(("auto", "auto", None, 1, 2, 3, 40, 2.0, "x"))
        out = {} if key == "auto" else {"id": key}
        for name, kind, *_ in specs:
            values = TYPED_VALUES[kind]
            value = choose((OMITTED,) * len(values) + values)   # omitted half the time
            if value is not OMITTED:
                out[name] = value
        return {**out, "nope": 1} if choose(range(10)) == 0 else out

    early, late = some(choose, index, 3), some(choose, index, 3)
    steps = [("insert", row())] + [("insert", r) for r in some(choose, row, 13)]
    for number, (columns, unique) in enumerate(late):
        steps.insert(choose(range(len(steps) + 1)),
                     ("create_index", IndexDef(f"late{number}", columns, unique)))
    return specs, early, steps


def build_insert_db(specs, indexes, produced: Optional[Dict[str, Any]] = None) -> Database:
    """The table ``t`` of an insert script; what each callable default
    produces is also written to ``produced``, under its column."""
    # One call counter for every callable default of the schema: evaluating
    # them in another order, or once too often, changes the values stored.
    calls, produced = itertools.count(), {} if produced is None else produced

    def factory(name, make):
        def default():
            produced[name] = make(next(calls))
            return produced[name]
        return default

    columns = [ColumnDef("id", "integer")] + [ColumnDef(
        name, TextType(max_length) if max_length else kind, nullable=nullable,
        default={"none": None, "literal": literal,
                 "callable": factory(name, FACTORIES[kind])}[default])
        for name, kind, max_length, nullable, default, literal in specs]
    db = Database(buffer_pool_pages=3)
    table = db.create_table(TableSchema(
        "t", columns, indexes=[IndexDef(f"early{number}", cols, unique)
                               for number, (cols, unique) in enumerate(indexes)]))
    table.heap.page_size = 96            # two narrow rows a page
    for index in table.all_indexes():
        index.tree.order = 4             # splits within a dozen rows
    return db
