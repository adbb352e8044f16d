"""Tests for the planner's access-path selection and the executor's results."""

import os
import subprocess
import sys

import pytest

import repro
from repro.storage import (ColumnDef, CountQuery, Database, IndexDef, Join,
                           OrderBy, SelectQuery, TableSchema,
                           predicate_from_filters)
from repro.storage.planner import (IndexLookup, IndexRange, PkLookup, SeqScan,
                                    plan_access)
from repro.storage.predicates import And, Between, Comparison


@pytest.fixture
def database():
    db = Database(buffer_pool_pages=128)
    db.create_table(TableSchema(
        "authors",
        [ColumnDef("id", "integer", nullable=True), ColumnDef("name", "text")],
    ))
    db.create_table(TableSchema(
        "posts",
        [
            ColumnDef("id", "integer", nullable=True),
            ColumnDef("author_id", "integer"),
            ColumnDef("title", "text"),
            ColumnDef("score", "integer"),
        ],
        indexes=[IndexDef("posts_author_idx", ("author_id",)),
                 IndexDef("posts_score_idx", ("score",))],
    ))
    for author in range(1, 6):
        db.insert("authors", {"id": author, "name": f"author{author}"})
        for post in range(10):
            db.insert("posts", {"author_id": author,
                                "title": f"post {author}-{post}",
                                "score": author * 10 + post})
    return db


class TestPlanner:
    def test_pk_lookup_preferred(self, database):
        table = database.table("posts")
        query = SelectQuery("posts", predicate_from_filters({"id": 3}))
        assert isinstance(plan_access(table, query), PkLookup)

    def test_secondary_index_lookup(self, database):
        table = database.table("posts")
        query = SelectQuery("posts", predicate_from_filters({"author_id": 2}))
        path = plan_access(table, query)
        assert isinstance(path, IndexLookup)
        assert path.index.columns == ("author_id",)

    def test_range_predicate_uses_index_range(self, database):
        table = database.table("posts")
        query = SelectQuery("posts", predicate_from_filters({"score__gte": 30}))
        path = plan_access(table, query)
        assert isinstance(path, IndexRange)
        assert path.low == 30

    def test_order_by_limit_uses_index_range(self, database):
        table = database.table("posts")
        query = SelectQuery("posts", order_by=[OrderBy("score", descending=True)],
                            limit=5)
        path = plan_access(table, query)
        assert isinstance(path, IndexRange)
        assert path.reverse is True

    def test_unindexed_filter_falls_back_to_seq_scan(self, database):
        table = database.table("posts")
        query = SelectQuery("posts", predicate_from_filters({"title": "post 1-1"}))
        assert isinstance(plan_access(table, query), SeqScan)

    @pytest.mark.parametrize("comparison", [Comparison("score", "<", 31),
                                            Comparison("score", ">", 29)])
    def test_between_after_a_comparison_keeps_both_ends(self, database,
                                                        comparison):
        # The BETWEEN's bounds are inclusive whatever an earlier comparison
        # on the column set: a range that inherited its exclusive end would
        # miss score 30, which satisfies the whole conjunction.
        query = SelectQuery("posts", And([comparison, Between("score", 30, 30)]))
        path = plan_access(database.table("posts"), query)
        assert (path.low, path.high, path.include_low, path.include_high) == \
            (30, 30, True, True)
        assert [row["score"] for row in database.select(query)] == [30]


def keyed_table():
    db = Database(buffer_pool_pages=64)
    db.create_table(TableSchema(
        "t", [ColumnDef("id", "integer", nullable=True), ColumnDef("k", "integer"),
              ColumnDef("b", "integer", default=0)],
        indexes=[IndexDef("t_k", ("k",))]))
    return db


class TestStatementsReadBeforeTheyWrite:
    """An index hands out its stored posting, valid until the next write to
    the tree: every statement has read the row ids it needs before its first
    write or trigger."""

    def test_delete_through_a_lookup_removes_every_row_under_the_key(self):
        db = keyed_table()
        for k in (1, 1, 1, 1, 1, 2):
            db.insert("t", {"k": k})
        assert len(db.delete("t", predicate_from_filters({"k": 1}))) == 5
        assert db.count(CountQuery("t")) == 1

    def test_update_into_a_key_its_range_scan_has_still_to_read(self):
        db = keyed_table()
        for k in (1, 2, 3, 10):
            db.insert("t", {"k": k})
        updated = db.update("t", {"k": 10},
                            predicate_from_filters({"k__gte": 1}))
        assert sorted(row["id"] for row in updated) == [1, 2, 3, 4]
        assert db.table("t").index_for_column("k").tree.search(10) == [1, 2, 3, 4]

    def test_rows_a_trigger_adds_under_the_key_are_not_updated(self):
        db = keyed_table()
        for _ in range(3):
            db.insert("t", {"k": 1})
        db.create_trigger("spawn", "t", "update",
                          lambda _data: db.insert("t", {"k": 1}))
        assert len(db.update("t", {"b": 1},
                             predicate_from_filters({"k": 1}))) == 3
        assert sorted(row["b"] for row in db.find("t", where={"k": 1})) == [
            0, 0, 0, 1, 1, 1]


def two_range_indexes():
    db = Database(buffer_pool_pages=512)
    db.create_table(TableSchema(
        "t", [ColumnDef("id", "integer", nullable=True),
              ColumnDef("alpha", "integer"), ColumnDef("beta", "integer")],
        indexes=[IndexDef("t_alpha", ("alpha",)), IndexDef("t_beta", ("beta",))]))
    for i in range(200):
        db.insert("t", {"alpha": i, "beta": i})
    return db


ALPHA, BETA = Comparison("alpha", ">", 150), Comparison("beta", "<", 190)

#: Run under a chosen ``PYTHONHASHSEED``: the index a two-range query takes.
PICK_SCRIPT = """
from test_executor_planner import ALPHA, BETA, two_range_indexes
from repro.storage import SelectQuery
from repro.storage.planner import plan_access
from repro.storage.predicates import And
table = two_range_indexes().table("t")
print([plan_access(table, SelectQuery("t", And(order))).index.name
       for order in ([ALPHA, BETA], [BETA, ALPHA])])
"""


class TestRangeIndexChoice:
    """With range predicates on two indexed columns the planner takes the
    first in predicate order — not whichever string hashing puts first."""

    @pytest.mark.parametrize("order, index, charged", [
        ([ALPHA, BETA], "t_alpha", {"index_node_touches": 3, "rows_scanned": 49,
                                    "pages_hit": 49}),
        ([BETA, ALPHA], "t_beta", {"index_node_touches": 7, "rows_scanned": 190,
                                   "pages_hit": 190}),
    ])
    def test_first_range_column_in_predicate_order(self, order, index, charged):
        db = two_range_indexes()
        query = SelectQuery("t", And(order))
        assert plan_access(db.table("t"), query).index.name == index
        with db.measure() as counters:
            rows = db.select(query)
        assert sorted(row["alpha"] for row in rows) == list(range(151, 190))
        assert {name: getattr(counters, name) for name in charged} == charged
        assert counters.rows_returned == 39

    def test_choice_does_not_depend_on_the_hash_seed(self):
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(repro.__file__))
        picks = set()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join((here, src)))
            picks.add(subprocess.run(
                [sys.executable, "-c", PICK_SCRIPT], env=env, check=True,
                capture_output=True, text=True, timeout=60).stdout)
        assert picks == {"['t_alpha', 't_beta']\n"}


def composite_first(single_too):
    db = Database(buffer_pool_pages=64)
    indexes = [IndexDef("c_ab", ("a", "b"))]
    if single_too:
        indexes.append(IndexDef("c_a", ("a",)))
    db.create_table(TableSchema(
        "c", [ColumnDef("id", "integer", nullable=True), ColumnDef("a", "integer"),
              ColumnDef("b", "integer")],
        indexes=indexes))
    db.create_table(TableSchema(
        "p", [ColumnDef("id", "integer", nullable=True), ColumnDef("ref", "integer")]))
    for i in range(12):
        db.insert("c", {"a": i % 4, "b": i})
    for ref in (1, 3, 7):
        db.insert("p", {"ref": ref})
    return db


class TestCompositeIndexes:
    """A composite index cannot serve a scalar key, whatever column it leads
    with: only an index on exactly that column (or the primary key) can."""

    def test_composite_only_column_is_read_like_an_unindexed_one(self):
        db = composite_first(single_too=False)
        table = db.table("c")
        assert table.index_for_column("a") is None
        rows = [row for page in table.heap.scan([]) for _rowid, row in page]
        for filters, expected in (
                ({"a": 2}, [row for row in rows if row["a"] == 2]),
                ({"a__gt": 1}, [row for row in rows if row["a"] > 1])):
            query = SelectQuery("c", predicate_from_filters(filters))
            assert isinstance(plan_access(table, query), SeqScan)
            assert db.select(query) == expected
            assert db.count(CountQuery("c", predicate_from_filters(filters))) \
                == len(expected)
        probe = db.select(SelectQuery("p", joins=[Join("p", "ref", "c", "a")]))
        assert probe == [row for ref in (1, 3) for row in rows if row["a"] == ref]

    def test_single_column_index_serves_even_when_declared_second(self):
        db = composite_first(single_too=True)
        table = db.table("c")
        assert table.index_for_column("a").name == "c_a"
        path = plan_access(table, SelectQuery("c", predicate_from_filters({"a": 2})))
        assert isinstance(path, IndexLookup) and path.index.name == "c_a"
        assert [row["b"] for row in db.find("c", where={"a": 2})] == [2, 6, 10]


class TestExecutorSelect:
    def test_equality_select(self, database):
        rows = database.select(SelectQuery(
            "posts", predicate_from_filters({"author_id": 3})))
        assert len(rows) == 10
        assert all(row["author_id"] == 3 for row in rows)

    def test_order_limit_offset(self, database):
        query = SelectQuery("posts", predicate_from_filters({"author_id": 1}),
                            order_by=[OrderBy("score", descending=True)],
                            limit=3, offset=1)
        rows = database.select(query)
        assert [row["score"] for row in rows] == [18, 17, 16]

    def test_top_k_via_index_matches_sort(self, database):
        by_index = database.select(SelectQuery(
            "posts", order_by=[OrderBy("score", descending=True)], limit=5))
        assert [row["score"] for row in by_index] == [59, 58, 57, 56, 55]

    def test_column_projection(self, database):
        rows = database.select(SelectQuery(
            "posts", predicate_from_filters({"id": 1}), columns=["title"]))
        assert rows == [{"title": "post 1-0"}]

    def test_distinct(self, database):
        query = SelectQuery("posts", columns=["author_id"], distinct=True)
        rows = database.select(query)
        assert len(rows) == 5

    def test_join_returns_far_end_rows(self, database):
        query = SelectQuery(
            "posts",
            predicate_from_filters({"author_id": 2}),
            joins=[Join("posts", "author_id", "authors", "id")],
        )
        rows = database.select(query)
        assert len(rows) == 10
        assert all(row["name"] == "author2" for row in rows)

    def test_join_with_predicate_on_joined_table(self, database):
        query = SelectQuery(
            "authors",
            predicate_from_filters({"id": 4}),
            joins=[Join("authors", "id", "posts", "author_id")],
            join_predicates={"posts": predicate_from_filters({"score__gte": 45})},
        )
        rows = database.select(query)
        assert sorted(row["score"] for row in rows) == [45, 46, 47, 48, 49]


class TestExecutorCountAndDml:
    def test_count(self, database):
        assert database.count(CountQuery(
            "posts", predicate_from_filters({"author_id": 5}))) == 10

    def test_count_with_join_and_distinct(self, database):
        query = CountQuery(
            "authors",
            joins=[Join("authors", "id", "posts", "author_id")],
            distinct_column="author_id",
        )
        assert database.count(query) == 5

    def test_update_returns_new_rows(self, database):
        updated = database.update("posts", {"score": 0}, predicate_from_filters({"author_id": 1}))
        assert len(updated) == 10
        assert all(row["score"] == 0 for row in updated)

    def test_delete_returns_deleted_rows(self, database):
        deleted = database.delete("posts", predicate_from_filters({"author_id": 2}))
        assert len(deleted) == 10
        assert database.count(CountQuery("posts")) == 40
