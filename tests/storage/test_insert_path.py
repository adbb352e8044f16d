"""Differential test of the INSERT path.

``TableSchema`` compiles what an INSERT needs per column once — ``(name,
coerce, default)``, the NOT NULL list, the fixed part of the row width.  The
path it replaced — kept here, in the ``reference_*`` functions, and nowhere in
``src/`` — asked every ``ColumnDef`` and its ``DataType`` again for every row
and charged ``index_node_touches`` once per index per row (always zero).  The
reference stores through the engine's own heap and trees: what they store is
pinned by ``tests/apps/test_seeded_state.py`` (rows, pages, every tree leaf at
three seed scales), by the sequential load below, by the property tests of
``test_btree.py`` and by ``test_heap.py``.

Both run the same random row streams over twin databases built from the same
random schema (all five dtypes, nullable / literal / callable defaults, bounded
text, unique, composite and late-created indexes, two-row pages, a three-page
buffer pool, order-4 trees) — streams that include every way an INSERT fails —
and must agree on the returned row or the exception's type **and message**, on
the **whole** counter bag, in the scope that was active when the row went in
*and* in the scope an insert trigger switched to, the way a worker hand-off
does, on the buffer pool's hits, misses and evictions, and, after every
statement, on the stored rows, their row ids and pages, the free bytes of every
page, the next automatic key and every index tree node for node.
"""

from __future__ import annotations

import datetime as dt
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (ColumnNotFoundError, ConstraintViolation,
                          SchemaError)
from repro.storage import (BPlusTree, ColumnDef, Database, IndexDef,
                           TableSchema)
from repro.storage.costmodel import CostCounters
from repro.storage.datatypes import TextType
from repro.storage.table import Index


# ---------------------------------------------------------------------------
# The reference: the per-column path, as it was at commit ebe5bdc.
# ---------------------------------------------------------------------------

def reference_coerce_row(schema, values):
    out = {}
    for key in values:
        if key not in schema._by_name:
            raise ColumnNotFoundError(
                f"table {schema.name!r} has no column {key!r}")
    for col in schema.columns:
        if col.name in values:
            out[col.name] = col.dtype.coerce(values[col.name])
        else:
            default = col.default() if callable(col.default) else col.default
            out[col.name] = col.dtype.coerce(default)
    return out


def reference_check_not_null(schema, values):
    for col in schema.columns:
        if col.name == schema.primary_key:
            continue
        if not col.nullable and values.get(col.name) is None:
            raise ConstraintViolation(
                f"column {col.name!r} of table {schema.name!r} may not be NULL")


def reference_estimate_row_width(schema, row):
    total = 8  # per-row header
    for col in schema.columns:
        total += col.dtype.estimate_width(row.get(col.name))
    return total


def reference_index_insert(index, values, rowid):
    columns = index.definition.columns
    key = (values.get(columns[0]) if len(columns) == 1
           else tuple(values.get(col) for col in columns))
    before = index.tree.node_touches
    try:
        index.tree.insert(key, rowid)
    except ValueError as exc:
        raise ConstraintViolation(str(exc)) from None
    finally:
        index.recorder.record("index_node_touches",
                              index.tree.node_touches - before)


def reference_table_insert(table, values):
    schema = table.schema
    coerced = reference_coerce_row(schema, values)
    pk_col = schema.primary_key
    if coerced.get(pk_col) is None:
        coerced[pk_col] = next(table._pk_counter)
    else:
        provided = coerced[pk_col]
        if isinstance(provided, int):
            current = next(table._pk_counter)
            table._pk_counter = itertools.count(max(current, provided + 1))
    reference_check_not_null(schema, coerced)

    table.recorder.record("inserts")
    # The heap places the row by the compiled width: it must be the
    # per-column one.
    assert (schema.estimate_row_width(coerced)
            == reference_estimate_row_width(schema, coerced))
    rowid = table.heap.insert(coerced).rowid
    try:
        reference_index_insert(table.primary_index, coerced, rowid)
    except ConstraintViolation:
        table.heap.delete(rowid)
        raise
    inserted_secondaries = []
    try:
        for index in table.secondary_indexes.values():
            reference_index_insert(index, coerced, rowid)
            inserted_secondaries.append(index)
    except ConstraintViolation:
        for index in inserted_secondaries:
            index.delete(coerced, rowid)
        table.primary_index.delete(coerced, rowid)
        table.heap.delete(rowid)
        raise
    table.trigger_manager.fire(table.name, "insert", new=coerced, old=None)
    return coerced


def reference_insert(db, table_name, values):
    with db.transactions.statement(wrote=True):
        db.recorder.record("statements")
        return dict(reference_table_insert(db.table(table_name), values))


def reference_create_index(db, table_name, definition):
    table = db.table(table_name)
    table.schema.add_index(definition)
    index = Index(definition, table.recorder)
    for page in table.heap.scan():
        for rowid, values in page:
            reference_index_insert(index, values, rowid)
    table.secondary_indexes[definition.name] = index


# ---------------------------------------------------------------------------
# Random schemas and row streams.
# ---------------------------------------------------------------------------

#: Per dtype: values it stores (some after conversion), then values it refuses.
VALUES = {
    "integer": [0, 1, 2, 3, 7, 2.0, None, True, 2.5, "x"],
    "float": [0, 1.5, -2.25, 3, None, False, "x"],
    # 90 characters are wider than a whole 96-byte page: the width clamp.
    "text": ["", "a", "bb", "c" * 12, "d" * 90, None, 5],
    "boolean": [True, False, 0, 1, None, 2, "yes"],
    "timestamp": [dt.datetime(2020, 1, 2, 3, 4, 5), 0, 86400.5, -1.5,
                  "2021-03-04T05:06:07", None, True, "not a date", [1]],
}
#: What a callable default produces on its n-th call, per dtype.
FACTORIES = {
    "integer": lambda n: n % 3,
    "float": lambda n: n / 2,
    "text": lambda n: "f" * (n % 4),
    "boolean": lambda n: n % 2 == 0,
    "timestamp": lambda n: float(n),
}
COLUMN_NAMES = ("a", "b", "c", "d", "e")


@st.composite
def column_specs(draw):
    """``(name, dtype name, max_length, nullable, default kind, literal)``."""
    specs = []
    for name in COLUMN_NAMES[:draw(st.integers(1, len(COLUMN_NAMES)))]:
        dtype = draw(st.sampled_from(sorted(VALUES)))
        specs.append((
            name, dtype,
            draw(st.sampled_from((None, 1, 12))) if dtype == "text" else None,
            draw(st.booleans()),
            draw(st.sampled_from(("none", "literal", "callable"))),
            draw(st.sampled_from(VALUES[dtype]))))
    return specs


@st.composite
def index_specs(draw, specs):
    """``(columns, unique)``; a composite index only over NOT NULL columns
    (a tuple key holding a NULL does not compare with one holding a value)."""
    names = [spec[0] for spec in specs]
    not_null = ["id"] + [spec[0] for spec in specs if not spec[3]]
    singles = st.tuples(st.sampled_from(names + ["id"]).map(lambda c: (c,)),
                        st.booleans())
    choices = [singles]
    if len(not_null) >= 2:
        choices.append(st.tuples(
            st.lists(st.sampled_from(not_null), min_size=2, max_size=2,
                     unique=True).map(tuple),
            st.booleans()))
    return draw(st.lists(st.one_of(*choices), max_size=3))


@st.composite
def rows(draw, specs):
    row = {}
    # The key: left to the table, or explicit — colliding, below the counter,
    # far above it, or not an integer at all.
    pk = draw(st.sampled_from(("auto", "auto", None, 1, 2, 3, 40, 2.0, "x")))
    if pk != "auto":
        row["id"] = pk
    for name, dtype, _max_length, _nullable, _default, _literal in specs:
        if draw(st.booleans()):
            row[name] = draw(st.sampled_from(VALUES[dtype]))
    if draw(st.integers(0, 9)) == 0:
        row["nope"] = 1
    return row


@st.composite
def scripts(draw):
    specs = draw(column_specs())
    early = draw(index_specs(specs))
    late = draw(index_specs(specs))
    steps = [("insert", row) for row in draw(
        st.lists(rows(specs), min_size=1, max_size=14))]
    for number, (columns, unique) in enumerate(late):
        steps.insert(draw(st.integers(0, len(steps))),
                     ("create_index", IndexDef(f"late{number}", columns, unique)))
    return specs, early, steps


def build_database(specs, indexes) -> Database:
    # One call counter for every callable default of the schema: evaluating
    # them in another order, or once too often, changes the values stored.
    calls = itertools.count()
    columns = [ColumnDef("id", "integer", nullable=True)]
    for name, dtype, max_length, nullable, default, literal in specs:
        columns.append(ColumnDef(
            name, TextType(max_length) if max_length else dtype,
            nullable=nullable,
            default={"none": None, "literal": literal,
                     "callable": lambda make=FACTORIES[dtype]: make(next(calls)),
                     }[default]))
    db = Database(buffer_pool_pages=3)
    table = db.create_table(TableSchema(
        "t", columns, primary_key="id",
        indexes=[IndexDef(f"early{number}", cols, unique)
                 for number, (cols, unique) in enumerate(indexes)]))
    table.heap.page_size = 96            # two narrow rows a page
    for index in table.all_indexes():
        index.tree.order = 4             # splits within a dozen rows
    return db


def run(db: Database, scopes, step, insert, create_index):
    """Run one step; return its outcome and everything it charged.

    The insert trigger switches the recorder's scope the way a worker
    hand-off does, so anything charged *after* the trigger fired would land
    in ``handed_off`` instead of ``own``.
    """
    own, handed_off = CostCounters(), CostCounters()
    pool = db.buffer_pool
    before = (pool.hits, pool.misses, pool.evictions)
    scopes["handed_off"] = handed_off
    outer = db.recorder.activate_scope(own)
    try:
        kind, argument = step
        if kind == "insert":
            outcome = insert(db, "t", dict(argument))
        else:
            outcome = create_index(db, "t", argument)
    except Exception as exc:  # the outcome under test: type and message
        outcome = (type(exc), str(exc))
    finally:
        db.recorder.activate_scope(outer)
    return (outcome, own.as_dict(), handed_off.as_dict(),
            (pool.hits - before[0], pool.misses - before[1],
             pool.evictions - before[2]))


def dump_tree(tree: BPlusTree):
    """The tree node for node, plus the leaf chain as it is linked."""
    def dump(node):
        if node.is_leaf:
            return ("leaf", list(node.keys),
                    [[posting] if tree.unique else list(posting)
                     for posting in node.values])
        return ("internal", list(node.keys),
                [dump(child) for child in node.children])
    leaf = tree._root
    while not leaf.is_leaf:
        leaf = leaf.children[0]
    chain = []
    while leaf is not None:
        chain.append(list(leaf.keys))
        leaf = leaf.next
    return (dump(tree._root), chain, sorted(tree._null_bucket), len(tree),
            tree.height, tree.node_touches)


def dump_table(db: Database):
    table = db.table("t")
    heap = table.heap
    counter = next(table._pk_counter)
    table._pk_counter = itertools.count(counter)     # peeked, not consumed
    return {
        "rows": [(rowid, (heap._pages[rowid], values))
                 for rowid, values in enumerate(heap._values) if values is not None],
        "page_free": list(heap._page_free),
        "page_rows": [list(rowids) for rowids in heap._page_rows],
        "next_rowid": len(heap._values),
        "next_pk": counter,
        "indexes": {index.name: dump_tree(index.tree)
                    for index in table.all_indexes()},
        "declared": [definition.name for definition in table.schema.indexes],
        "resident": list(db.buffer_pool._pages.items()),
        "total": db.recorder.total.as_dict(),
    }


@settings(max_examples=400, deadline=None)
@given(script=scripts())
def test_insert_path_matches_the_per_column_reference(script):
    specs, indexes, steps = script
    sides = []
    for insert, create_index in ((Database.insert, Database.create_index),
                                 (reference_insert, reference_create_index)):
        db, scopes = build_database(specs, indexes), {}
        db.create_trigger(
            "handoff", "t", "insert",
            lambda _data, db=db, scopes=scopes:
                db.recorder.activate_scope(scopes["handed_off"]))
        sides.append((db, scopes, insert, create_index))
    for step in steps:
        new, reference = (run(db, scopes, step, insert, create_index)
                          for db, scopes, insert, create_index in sides)
        assert new == reference, step
        assert dump_table(sides[0][0]) == dump_table(sides[1][0]), step


# ---------------------------------------------------------------------------
# The B+tree alone.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", [4, 5, 8, 64])
def test_sequential_keys_split_every_level_alike(order):
    """Ascending keys (what an auto-assigned pk produces) split only the
    rightmost node of each level — the leaf, then its parents, then the root:
    every other node keeps the left half of its split, ``(order + 1) // 2``
    keys.  Three levels at order 4."""
    tree = BPlusTree(order)
    for key in range(40 * order):
        tree.insert(key, key)
    tree.check_invariants()
    level = [tree._root]
    while not level[0].is_leaf:
        level = [child for node in level for child in node.children]
        assert all(len(node.keys) == (order + 1) // 2 for node in level[:-1])
    assert tree.height >= 3 or order == 64


# ---------------------------------------------------------------------------
# The failures by name, so that a reader finds each without a shrunk example.
# ---------------------------------------------------------------------------

SPECS = [("a", "integer", None, False, "none", None),
         ("b", "text", 12, True, "literal", "bb"),
         ("c", "integer", None, True, "callable", None)]
INDEXES = [(("a",), True), (("c",), True), (("a", "id"), False)]


@pytest.mark.parametrize("row, error, message", [
    ({"a": 1, "nope": 2}, ColumnNotFoundError, "table 't' has no column 'nope'"),
    ({"a": "x"}, SchemaError, "expected integer, got 'x'"),
    ({"a": True}, SchemaError, "expected integer, got boolean True"),
    ({"a": 1, "b": "c" * 13}, SchemaError,
     "text value of length 13 exceeds max_length=12"),
    ({"b": "bb"}, ConstraintViolation, "column 'a' of table 't' may not be NULL"),
    ({"a": 5, "id": 1}, ConstraintViolation, "duplicate key 1 in unique index"),
    ({"a": 7, "c": 9}, ConstraintViolation, "duplicate key 7 in unique index"),
    ({"a": 5, "c": 1}, ConstraintViolation, "duplicate key 1 in unique index"),
])
def test_each_failure_keeps_its_type_message_and_leaves_no_trace(row, error, message):
    sides = []
    for insert in (Database.insert, reference_insert):
        db = build_database(SPECS, INDEXES)
        assert insert(db, "t", {"a": 7})["c"] == 0           # c: the factory
        assert insert(db, "t", {"a": 8})["c"] == 1
        before = dump_table(db)
        with pytest.raises(error) as caught:
            insert(db, "t", dict(row))
        assert str(caught.value) == message
        after = dump_table(db)
        # Whatever a refused row touched was rolled back; the burnt row id,
        # key and default-factory call, the page accesses and the charges
        # remain — identically on both sides.
        assert after["rows"] == before["rows"]
        assert [tree[:4] for tree in after["indexes"].values()] == \
               [tree[:4] for tree in before["indexes"].values()]
        sides.append(after)
    assert sides[0] == sides[1]
