"""Differential test of the statement path.

The executor scans stored rows in place, filters them with a predicate
compiled once, and charges ``rows_scanned`` / ``rows_returned`` once per scan.
The path it replaced — kept here, in :class:`ReferenceExecutor`, and nowhere
in ``src/`` — copied every candidate, called ``matches`` and ``record`` once
per row, and ran one lazy generator chain from the heap to the result list.

Both run the same random statements over twin databases (NULLs, duplicate
keys, secondary indexes, two-row pages, a three-page buffer pool) and must
agree on the result rows and their order, on the **whole** counter bag — in
the scope that was active when the scan ran *and* in the scope a trigger
switched to, the way a worker hand-off does — and on the buffer pool's hits,
misses and evictions.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.storage import (ColumnDef, CountQuery, Database, IndexDef, Join,
                           OrderBy, SelectQuery, TableSchema)
from repro.storage.costmodel import CostCounters
from repro.storage.planner import (IndexLookup, IndexRange, PkLookup,
                                   plan_access)
from repro.storage.predicates import (ALWAYS_TRUE, And, Between, Comparison,
                                      In, IsNull, Not, Or)

TABLES = ("t", "u", "w")
COLUMNS = ("id", "a", "b", "k")
#: ``a`` is indexed on every table; ``k`` is the indexed "foreign key"
#: (u.k -> t.id, w.k -> u.id); ``b`` has no index.
JOINS = {
    "t-u indexed": [Join("t", "id", "u", "k")],
    "t-u unindexed": [Join("t", "a", "u", "b")],
    "t-u-w": [Join("t", "id", "u", "k"), Join("u", "id", "w", "k")],
    "t-u-w from base": [Join("t", "id", "u", "k"), Join("t", "a", "w", "a")],
}


# ---------------------------------------------------------------------------
# The reference: the per-row path, as it was at commit 3090995.
# ---------------------------------------------------------------------------

class ReferenceExecutor:
    """One ``record`` and one ``matches`` per row, every candidate copied."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.record = db.recorder.record

    # -- heap reads, as the heap did them (a copy per row handed out) --------

    @staticmethod
    def _entry(heap, rowid):
        """``(page_no, stored values)`` of a live row, or None."""
        if 0 < rowid < len(heap._values) and heap._values[rowid] is not None:
            return heap._pages[rowid], heap._values[rowid]
        return None

    def _fetch_many(self, table, rowids):
        heap, rows, touched = table.heap, [], set()
        for rowid in sorted(rowids):
            entry = self._entry(heap, rowid)
            if entry is None:
                continue
            page_no, stored = entry
            if page_no not in touched:
                heap.buffer_pool.access(heap.schema.name, page_no)
                touched.add(page_no)
            rows.append((rowid, dict(stored)))
        return rows

    def _heap_scan(self, table):
        heap = table.heap
        for page_no, rowids in enumerate(heap._page_rows):
            if not rowids:
                continue
            heap.buffer_pool.access(heap.schema.name, page_no)
            for rowid in list(rowids):
                entry = self._entry(heap, rowid)
                if entry is not None:
                    yield rowid, dict(entry[1])

    # -- the generator chain --------------------------------------------------

    def _base_rows(self, table, path):
        if isinstance(path, PkLookup):
            return iter(self._fetch_many(
                table, table.primary_index.lookup(path.value)))
        if isinstance(path, IndexLookup):
            return iter(self._fetch_many(table, path.index.lookup(path.value)))
        if isinstance(path, IndexRange):
            def generate():
                for _key, rowids in path.index.range(
                        path.low, path.high, reverse=path.reverse,
                        include_low=path.include_low,
                        include_high=path.include_high):
                    yield from self._fetch_many(table, rowids)
            return generate()
        return self._heap_scan(table)

    def _filter(self, rows, predicate):
        for rowid, values in rows:
            self.record("rows_scanned")
            if predicate.matches(values):
                yield rowid, values

    def _join_step(self, bindings, join, query):
        right_table = self.db.table(join.right_table)
        right_predicate = query.join_predicates.get(join.right_table, ALWAYS_TRUE)
        index = right_table.index_for_column(join.right_column)
        for binding in bindings:
            left_row = binding.get(join.left_table)
            if left_row is None:
                continue
            left_value = left_row.get(join.left_column)
            if left_value is None:
                continue
            if index is not None:
                matches = self._fetch_many(right_table, index.lookup(left_value))
            else:
                matches = [(rowid, row) for rowid, row in self._heap_scan(right_table)
                           if row.get(join.right_column) == left_value]
            for _rowid, right_row in matches:
                self.record("rows_scanned")
                if right_predicate.matches(right_row):
                    new_binding = dict(binding)
                    new_binding[join.right_table] = right_row
                    yield new_binding

    def _execute_joins(self, base_rows, query):
        bindings = ({query.table: values} for _rowid, values in base_rows)
        for join in query.joins:
            self.record("joins")
            bindings = self._join_step(bindings, join, query)
        return bindings

    # -- statements -------------------------------------------------------------

    def select(self, query):
        with self.db.transactions.statement(wrote=False):
            self.record("statements")
            base_table = self.db.table(query.table)
            path = plan_access(base_table, query)
            base_rows = self._filter(self._base_rows(base_table, path),
                                     query.predicate)
            result_table = query.result_table
            if query.joins:
                rows = (binding[result_table]
                        for binding in self._execute_joins(base_rows, query)
                        if result_table in binding)
            else:
                rows = (values for _rowid, values in base_rows)
            ordered_by_path = (
                isinstance(path, IndexRange) and not query.joins
                and len(query.order_by) == 1
                and query.order_by[0].column == path.index.columns[0]
                and query.order_by[0].descending == path.reverse)
            columns = self.db.table(result_table).schema.column_names
            materialized, seen = [], set()
            for values in rows:
                values = dict(values)
                if query.distinct:
                    key = tuple(values.get(c) for c in (query.columns or columns))
                    if key in seen:
                        continue
                    seen.add(key)
                materialized.append(values)
                self.record("rows_returned")
                if (ordered_by_path and query.limit is not None
                        and not query.distinct
                        and len(materialized) >= query.limit + query.offset):
                    break
            if query.order_by and not ordered_by_path:
                self.record("sorts")
                self.record("sorted_rows", len(materialized))
                for term in reversed(query.order_by):
                    materialized.sort(
                        key=lambda r, c=term.column: (r.get(c) is None, r.get(c)),
                        reverse=term.descending)
            if query.offset:
                materialized = materialized[query.offset:]
            if query.limit is not None:
                materialized = materialized[:query.limit]
            if query.columns is not None:
                materialized = [{c: row.get(c) for c in query.columns}
                                for row in materialized]
        return materialized

    def count(self, query):
        with self.db.transactions.statement(wrote=False):
            self.record("statements")
            base_table = self.db.table(query.table)
            path = plan_access(base_table, query)
            base_rows = self._filter(self._base_rows(base_table, path),
                                     query.predicate)
            column = query.distinct_column
            if not query.joins:
                if column:
                    return len({values.get(column) for _rowid, values in base_rows})
                return sum(1 for _ in base_rows)
            equivalent = SelectQuery(
                table=query.table, predicate=query.predicate,
                join_predicates=query.join_predicates, joins=query.joins)
            bindings = self._execute_joins(base_rows, equivalent)
            if column:
                return len({binding[equivalent.result_table].get(column)
                            for binding in bindings})
            return sum(1 for _ in bindings)

    def _victims(self, table, predicate):
        path = plan_access(table, SelectQuery(table=table.name, predicate=predicate))
        return [rowid for rowid, _values in
                self._filter(self._base_rows(table, path), predicate)]

    def update(self, table_name, changes, predicate):
        with self.db.transactions.statement(wrote=True):
            self.record("statements")
            table = self.db.table(table_name)
            return [dict(table.update_row(rowid, changes)[1])
                    for rowid in self._victims(table, predicate)]

    def delete(self, table_name, predicate):
        with self.db.transactions.statement(wrote=True):
            self.record("statements")
            table = self.db.table(table_name)
            return [dict(table.delete_row(rowid))
                    for rowid in self._victims(table, predicate)]


# ---------------------------------------------------------------------------
# Random tables, predicates and statements.
# ---------------------------------------------------------------------------

values = st.one_of(st.none(), st.integers(0, 4))
columns = st.sampled_from(COLUMNS)
comparisons = st.builds(
    Comparison, columns, st.sampled_from(sorted(Comparison.OPS)), values)
leaves = st.one_of(
    comparisons,
    st.builds(lambda column, value: Comparison(column, "=", value),
              columns, st.integers(0, 4)),
    st.builds(In, columns, st.lists(values, max_size=3)),
    st.builds(Between, columns, st.integers(0, 4), st.integers(0, 4)),
    st.builds(IsNull, columns, st.booleans()),
    st.just(ALWAYS_TRUE),
)
predicates = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.builds(And, st.lists(children, min_size=1, max_size=3)),
        st.builds(Or, st.lists(children, min_size=1, max_size=3)),
        st.builds(Not, children)),
    max_leaves=5)

table_rows = st.lists(
    st.fixed_dictionaries({"a": values, "b": values, "k": values}), max_size=9)
order_terms = st.lists(
    st.builds(OrderBy, columns, st.booleans()), max_size=2)


@st.composite
def selects(draw):
    query = SelectQuery(
        table="t", predicate=draw(predicates),
        order_by=draw(order_terms),
        limit=draw(st.one_of(st.none(), st.integers(0, 4))),
        offset=draw(st.integers(0, 2)),
        distinct=draw(st.booleans()),
        columns=draw(st.one_of(st.none(), st.lists(
            columns, min_size=1, max_size=3, unique=True))))
    joins = draw(st.one_of(st.none(), st.sampled_from(sorted(JOINS))))
    if joins:
        query.joins = list(JOINS[joins])
        query.join_predicates = draw(st.dictionaries(
            st.sampled_from(("u", "w")), predicates, max_size=2))
        query.select_from = draw(st.sampled_from(
            (None, "t", query.joins[0].right_table)))
    return ("select", query)


@st.composite
def ordered_index_walks(draw):
    """``ORDER BY indexed LIMIT k`` with nothing else to plan on: the walk
    over an :class:`IndexRange` that stops early."""
    unindexed = st.one_of(
        st.just(ALWAYS_TRUE),
        st.builds(Comparison, st.just("b"),
                  st.sampled_from(sorted(Comparison.OPS)), values),
        st.builds(IsNull, st.just("b"), st.booleans()))
    return ("select", SelectQuery(
        table="t", predicate=draw(unindexed),
        order_by=[OrderBy(draw(st.sampled_from(("id", "a", "k"))),
                          draw(st.booleans()))],
        limit=draw(st.integers(0, 4)), offset=draw(st.integers(0, 2)),
        distinct=draw(st.sampled_from((False, False, True)))))


@st.composite
def counts(draw):
    query = CountQuery(
        table="t", predicate=draw(predicates),
        distinct_column=draw(st.one_of(st.none(), columns)))
    joins = draw(st.one_of(st.none(), st.sampled_from(sorted(JOINS))))
    if joins:
        query.joins = list(JOINS[joins])
        query.join_predicates = draw(st.dictionaries(
            st.sampled_from(("u", "w")), predicates, max_size=2))
    return ("count", query)


updates = st.tuples(
    st.just("update"), st.sampled_from(TABLES),
    st.dictionaries(st.sampled_from(("a", "b", "k")), values, min_size=1),
    predicates)
deletes = st.tuples(st.just("delete"), st.sampled_from(TABLES), predicates)
statements = st.lists(
    st.one_of(selects(), ordered_index_walks(), counts(), updates, deletes),
    min_size=1, max_size=4)


def build_database(rows_by_table) -> Database:
    db = Database(buffer_pool_pages=3)
    for name in TABLES:
        table = db.create_table(TableSchema(
            name,
            [ColumnDef("id", "integer", nullable=True)]
            + [ColumnDef(c, "integer", nullable=True) for c in COLUMNS[1:]],
            primary_key="id",
            indexes=[IndexDef(f"{name}_a_idx", ("a",)),
                     IndexDef(f"{name}_k_idx", ("k",))]))
        table.heap.page_size = 96        # two rows a page
        for row in rows_by_table[name]:
            db.insert(name, row)
    return db


def run(db: Database, executor, scopes, statement):
    """Run one statement; return its result and everything it charged.

    Write triggers on every table switch the recorder's scope the way a
    worker hand-off does, so a scan charged *after* control left it would
    land in ``handed_off`` instead of ``own``.
    """
    own, handed_off = CostCounters(), CostCounters()
    pool = db.buffer_pool
    before = (pool.hits, pool.misses, pool.evictions)
    scopes["handed_off"] = handed_off
    outer = db.recorder.activate_scope(own)
    try:
        kind = statement[0]
        if kind in ("select", "count"):
            result = getattr(executor, kind)(statement[1])
        else:
            result = getattr(executor, kind)(*statement[1:])
    finally:
        db.recorder.activate_scope(outer)
    return (result, own.as_dict(), handed_off.as_dict(),
            (pool.hits - before[0], pool.misses - before[1],
             pool.evictions - before[2]))


class DatabaseStatements:
    """The new path, behind the same four calls as the reference."""

    def __init__(self, db: Database) -> None:
        self.select, self.count = db.select, db.count
        self.update = lambda table, changes, predicate: db.update(
            table, changes, predicate=predicate)
        self.delete = lambda table, predicate: db.delete(
            table, predicate=predicate)


@settings(max_examples=300, deadline=None)
@given(rows_by_table=st.fixed_dictionaries({name: table_rows for name in TABLES}),
       script=statements)
def test_statement_path_matches_the_per_row_reference(rows_by_table, script):
    sides = []
    for make_executor in (DatabaseStatements, ReferenceExecutor):
        db, scopes = build_database(rows_by_table), {}
        for name in TABLES:
            for event in ("update", "delete"):
                db.create_trigger(
                    f"handoff_{name}_{event}", name, event,
                    lambda _data, db=db, scopes=scopes:
                        db.recorder.activate_scope(scopes["handed_off"]))
        sides.append((db, make_executor(db), scopes))
    for statement in script:
        new, reference = (run(*side, statement) for side in sides)
        assert new == reference, statement
    new_db, reference_db = sides[0][0], sides[1][0]
    for name in TABLES:
        assert (new_db.select(SelectQuery(name))
                == reference_db.select(SelectQuery(name)))


ROW_KEYS = ("id", "a", "b", "k", "missing")


@settings(max_examples=500, deadline=None)
@given(predicate=predicates,
       rows=st.lists(st.dictionaries(st.sampled_from(ROW_KEYS), values),
                     max_size=6))
def test_compiled_predicate_agrees_with_matches(predicate, rows):
    check = predicate.compile()
    for row in rows:
        expected = predicate.matches(row)
        assert (True if check is None else bool(check(row))) == bool(expected)


def test_equalities_compile_to_closures_and_true_to_no_filter():
    """What the ORM emits on the hot path must not fall back to ``matches``."""
    assert ALWAYS_TRUE.compile() is None
    single = Comparison("a", "=", 1)
    pair = And([Comparison("a", "=", 1), Comparison("b", "=", 2)])
    for predicate in (single, pair):
        assert predicate.compile() != predicate.matches
    assert single.compile()({"a": 1}) and not single.compile()({"a": 2})
    assert pair.compile()({"a": 1, "b": 2}) and not pair.compile()({"a": 1, "b": 3})
    # ``= NULL`` matches nothing, not the NULL rows.
    assert not Comparison("a", "=", None).compile()({"a": None})
    assert not And([Comparison("a", "=", None)]).compile()({"a": None})
