"""Prepared reads: a warm plan memo answers exactly as a cold one.

Every read is planned once per call shape: the ORM resolves a shape into a
``PreparedRead`` on the model's ``Options``, and each ``Table`` keeps the
storage ``Plan`` of each statement shape.  A later call of the shape only
binds its values.  So a statement run against a warm memo (one that another
value of its shape filled) must do what it does against a cold memo: return
the same rows in the same order, keyed by the schema's own column-name
objects, and charge the same ``CostCounters``.  Each case starts from one
buffer-pool state, so page hits and misses compare too.

A read is also bound once (each shape's binder builds what the per-call
compile built, field for field), charged once (one ``Recorder`` call per
statement, every count in the scope a charge per event put it, pinned in
``GOLDEN_SCOPED_READS``) and copied once (an instance never aliases its row).

The traps: ``= None`` on an indexed column (the NULL bucket is searched and
the residual check must still run), an ``__in`` of one distinct value (an
index lookup) beside one of several (a scan), an index created after a plan
was memoised, two databases with the same table names, a range scan whose
bounds differ from the statement's that planned it, and an ordered index
walk that stops at its ``LIMIT``.
"""

from __future__ import annotations

import hashlib
import json
import random
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.apps.social import SeedScale, seed_database, social_registry
from repro.apps.social.models import (Bookmark, BookmarkInstance, Friendship,
                                      FriendshipInvitation, Profile, User,
                                      WallPost)
from repro.apps.social.pages import (PAGE_ACCEPT_FR, PAGE_CREATE_BM,
                                     PAGE_LOGIN, PAGE_LOGOUT, PAGE_LOOKUP_BM,
                                     PAGE_LOOKUP_FBM, SocialApplication)
from repro.orm import IntegerField
from repro.orm.models import Model
from repro.orm.queryset import QuerySet
from repro.storage import (ColumnDef, Database, IndexDef, Join, OrderBy,
                           SelectQuery, TableSchema, predicate_from_filters)
from repro.storage import planner
from repro.sim import VirtualClock
from repro.storage.costmodel import CostCounters
from repro.storage.query import CountQuery

from tests.helpers import build_blog_models

Call = Callable[[Dict[str, Any]], Any]

#: Every read call shape the six pages issue under NoCache, as a call on
#: the values of one user (:func:`page_values`: the user, the user's
#: friends, one of the user's bookmarks and that bookmark's URL).
PAGE_SHAPES: Dict[str, Call] = {
    "user by id": lambda v: list(User.objects.filter(id=v["user"])),
    "profile": lambda v: list(Profile.objects.filter(user_id=v["user"])),
    "friend count": lambda v: Friendship.objects.filter(
        from_user_id=v["user"]).count(),
    "invitation count": lambda v: FriendshipInvitation.objects.filter(
        to_user_id=v["user"]).count(),
    "bookmark count": lambda v: BookmarkInstance.objects.filter(
        user_id=v["user"]).count(),
    "wall count": lambda v: WallPost.objects.filter(user_id=v["user"]).count(),
    "friendships": lambda v: list(Friendship.objects.filter(
        from_user_id=v["user"])),
    "invitations": lambda v: list(FriendshipInvitation.objects.filter(
        to_user_id=v["user"])),
    "recent bookmarks (range, sliced)": lambda v: list(
        BookmarkInstance.objects.filter(user_id=v["user"], added__gt=0.0)[:3]),
    "sent wall posts": lambda v: WallPost.objects.filter(
        sender_id=v["user"]).count(),
    "latest wall posts": lambda v: list(WallPost.objects.filter(
        user_id=v["user"]).order_by("-date_posted")[:20]),
    "bookmarks": lambda v: list(BookmarkInstance.objects.filter(
        user_id=v["user"])),
    "save count": lambda v: BookmarkInstance.objects.filter(
        bookmark_id=v["bookmark"]).count(),
    "latest bookmarks": lambda v: list(BookmarkInstance.objects.filter(
        user_id=v["user"]).order_by("-added")[:10]),
    "bookmark details": lambda v: list(Bookmark.objects.filter(
        id=v["bookmark"])),
    "bookmark by url": lambda v: Bookmark.objects.get(url=v["url"]),
    "friends (in, several)": lambda v: list(User.objects.filter(
        id__in=v["friends"])),
    "friends (in, one)": lambda v: list(User.objects.filter(
        id__in=v["friends"][:1])),
    "user count": lambda v: User.objects.count(),
}


def forget_plans(database: Database, models) -> None:
    """Empty every plan memo: each model's prepared reads, each table's plans."""
    for model in models:
        model._meta.prepared_reads.clear()
    for name in database.table_names():
        database.table(name)._plans.clear()


def plain(answer: Any) -> Any:
    """A model instance as its column dict, a list of them as a list."""
    if isinstance(answer, list):
        return [plain(item) for item in answer]
    return answer.to_dict() if isinstance(answer, Model) else answer


def run(database: Database, call: Callable[[], Any]
        ) -> Tuple[Any, List[Tuple[str, Any]], Any]:
    """``call()``'s answer as plain data, the ``(table, result)`` of each
    statement ``Database.select``/``count`` ran, and the counters charged."""
    handed: List[Tuple[str, Any]] = []
    select, count = database.select, database.count

    def watched_select(query):
        handed.append((query.table, select(query)))
        return handed[-1][1]

    def watched_count(query):
        handed.append((query.table, count(query)))
        return handed[-1][1]
    database.select, database.count = watched_select, watched_count
    try:
        with database.measure() as counters:
            answer = call()
    finally:
        del database.select, database.count
    return plain(answer), handed, counters


def assert_keyed_by_schema(database: Database,
                           handed: List[Tuple[str, Any]]) -> None:
    """Every row handed out is keyed by its table's column-name objects."""
    for table, result in handed:
        names = database.table(table).schema.column_names
        for row in result if isinstance(result, list) else ():
            assert len(row) == len(names)
            assert all(key is name for key, name in zip(row, names)), row


def cold_and_warm(database: Database, models, call: Callable[[Any], Any],
                  value: Any, other: Any):
    """``call(value)`` against a cold memo, then against one that
    ``call(other)`` warmed, each from the same buffer-pool state."""
    pool = database.buffer_pool.snapshot()
    forget_plans(database, models)
    cold = run(database, lambda: call(value))
    database.buffer_pool.restore(pool)
    forget_plans(database, models)
    run(database, lambda: call(other))
    database.buffer_pool.restore(pool)
    warm = run(database, lambda: call(value))
    database.buffer_pool.restore(pool)
    return cold, warm


SOCIAL_MODELS = (User, Profile, Friendship, FriendshipInvitation, Bookmark,
                 BookmarkInstance, WallPost)


def page_values(database: Database, user: int) -> Dict[str, Any]:
    """What :data:`PAGE_SHAPES` reads for ``user``, read straight from
    storage (a user without friends stands in as their own)."""
    friends = [row["to_user_id"] for row in database.find(
        "friends_friendship", where={"from_user_id": user})]
    instances = database.find("bookmarks_bookmarkinstance",
                              where={"user_id": user})
    bookmark = instances[0]["bookmark_id"] if instances else 1
    url = database.find("bookmarks_bookmark", where={"id": bookmark})[0]["url"]
    return {"user": user, "friends": friends or [user], "bookmark": bookmark,
            "url": url}


class TestThePagesShapes:
    @pytest.mark.parametrize("shape", sorted(PAGE_SHAPES))
    def test_a_warm_memo_answers_as_a_cold_one(self, social_stack, shape):
        database = social_stack["database"]
        users = [u for u in range(1, 21)
                 if len(page_values(database, u)["friends"]) >= 2]
        assert len(users) >= 5
        call = PAGE_SHAPES[shape]
        for user, other in zip(users, users[1:] + users[:1]):
            values, others = page_values(database, user), page_values(database, other)
            (cold, cold_rows, cold_counts), (warm, warm_rows, warm_counts) = \
                cold_and_warm(database, SOCIAL_MODELS, call, values, others)
            assert warm == cold
            assert warm_rows == cold_rows
            assert warm_counts == cold_counts
            assert_keyed_by_schema(database, warm_rows)
            assert_keyed_by_schema(database, cold_rows)

    def test_the_list_covers_every_shape_the_pages_issue(self, social_stack):
        """Rendering all six pages under NoCache prepares no read shape that
        :data:`PAGE_SHAPES` does not."""
        database = social_stack["database"]
        forget_plans(database, SOCIAL_MODELS)
        app = SocialApplication(rng=random.Random(3))
        for user in range(1, 21):
            for page in (PAGE_LOGIN, PAGE_LOGOUT, PAGE_LOOKUP_BM,
                         PAGE_LOOKUP_FBM, PAGE_CREATE_BM, PAGE_ACCEPT_FR):
                app.render(page, user)
        issued = {(model, key) for model in SOCIAL_MODELS
                  for key in model._meta.prepared_reads}
        forget_plans(database, SOCIAL_MODELS)
        for user in range(1, 21):
            values = page_values(database, user)
            for call in PAGE_SHAPES.values():
                call(values)
        listed = {(model, key) for model in SOCIAL_MODELS
                  for key in model._meta.prepared_reads}
        assert issued and issued <= listed, issued - listed

    def test_a_warm_shape_runs_no_planner(self, social_stack, monkeypatch):
        database = social_stack["database"]
        values = page_values(database, 3)
        for call in PAGE_SHAPES.values():
            call(values)
        planned = []
        plan_access = planner.plan_access
        monkeypatch.setattr(planner, "plan_access",
                            lambda *args: planned.append(args) or plan_access(*args))
        for call in PAGE_SHAPES.values():
            call(page_values(database, 4))
        assert planned == []


# -- the traps, on a table of their own ----------------------------------------


def nullable_table(name: str = "main", *, indexed: bool = True) -> Database:
    """``t(id, a, b)`` with 60 rows: ``a`` NULL on every fifth, else ``i % 7``;
    ``b`` is ``i % 3``.  ``a`` is indexed unless ``indexed`` is False."""
    database = Database(name=name, buffer_pool_pages=16)
    database.create_table(TableSchema(
        "t", [ColumnDef("id", "integer", nullable=True),
              ColumnDef("a", "integer", nullable=True),
              ColumnDef("b", "integer")],
        indexes=[IndexDef("t_a", ("a",))] if indexed else []))
    for i in range(60):
        database.insert("t", {"a": None if i % 5 == 0 else i % 7, "b": i % 3})
    return database


def select_where(filters: Dict[str, Any], **options) -> SelectQuery:
    return SelectQuery("t", predicate_from_filters(filters), **options)


def storage_cold_and_warm(database: Database, query: Callable[[Any], Any],
                          value: Any, other: Any):
    def call(v):
        statement = query(v)
        if isinstance(statement, CountQuery):
            return database.count(statement)
        return database.select(statement)
    (cold, cold_rows, cold_counts), (warm, warm_rows, warm_counts) = \
        cold_and_warm(database, (), call, value, other)
    assert_keyed_by_schema(database, warm_rows)
    return ([rows for _table, rows in cold_rows], cold_counts), \
        ([rows for _table, rows in warm_rows], warm_counts)


class TestTheTraps:
    def test_equal_to_none_searches_the_null_bucket_and_keeps_the_check(self):
        database = nullable_table()
        (cold, cold_counts), (warm, warm_counts) = storage_cold_and_warm(
            database, lambda v: select_where({"a": v}), None, 3)
        assert cold == warm == [[]]
        assert warm_counts == cold_counts
        assert warm_counts.rows_scanned == 12     # the NULL bucket, rejected
        (cold, cold_counts), (warm, warm_counts) = storage_cold_and_warm(
            database, lambda v: select_where({"a": v}), 3, None)
        assert cold == warm and len(warm[0]) == 7
        assert warm_counts == cold_counts and warm_counts.rows_scanned == 7

    def test_equal_to_none_through_the_orm(self):
        blog = build_blog_models("prepared-none")
        Author, Post = blog["Author"], blog["Post"]
        author = Author.objects.create(username="a")
        Post.objects.create(author=author, title="t", score=1, published=1.0)
        database = blog["database"]
        (cold, _, cold_counts), (warm, _, warm_counts) = cold_and_warm(
            database, (Author, Post),
            lambda v: list(Post.objects.filter(author=v)), None, author)
        assert cold == warm == []
        assert warm_counts == cold_counts

    def test_an_in_of_one_value_and_of_several_plan_apart(self):
        database = nullable_table()
        one, several = [3], [3, 4]
        for value, other in ((one, several), (several, one)):
            (cold, cold_counts), (warm, warm_counts) = storage_cold_and_warm(
                database, lambda v: select_where({"a__in": v}), value, other)
            assert warm == cold and warm_counts == cold_counts
        (_, one_counts), _ = storage_cold_and_warm(
            database, lambda v: select_where({"a__in": v}), one, several)
        (_, several_counts), _ = storage_cold_and_warm(
            database, lambda v: select_where({"a__in": v}), several, one)
        assert one_counts.rows_scanned == 7       # an index lookup
        assert several_counts.rows_scanned == 60  # a scan

    def test_an_in_through_the_orm(self):
        blog = build_blog_models("prepared-in")
        Author = blog["Author"]
        for i in range(6):
            Author.objects.create(username=f"a{i}", karma=i % 2)
        models = (Author, blog["Post"])
        for value, other in (([1], [2, 3]), ([2, 3], [1]), ([4, 4], [5])):
            (cold, _, cold_counts), (warm, _, warm_counts) = cold_and_warm(
                blog["database"], models,
                lambda v: list(Author.objects.filter(id__in=v)), value, other)
            assert warm == cold and warm_counts == cold_counts
            assert [row["id"] for row in warm] == sorted(set(value))

    def test_an_index_created_after_a_plan_is_used(self):
        database = nullable_table(indexed=False)
        query = select_where({"b": 1})
        before = run(database, lambda: database.select(query))
        assert before[2].rows_scanned == 60
        database.create_index("t", IndexDef("t_b", ("b",)))
        after = run(database, lambda: database.select(select_where({"b": 1})))
        assert after[1] == before[1]
        assert after[2].rows_scanned == 20
        fresh = nullable_table(indexed=False)
        fresh.create_index("t", IndexDef("t_b", ("b",)))
        assert run(fresh, lambda: fresh.select(select_where({"b": 1})))[2] \
            == after[2]

    def test_two_databases_with_the_same_table_names_plan_apart(self):
        indexed, bare = nullable_table("indexed"), nullable_table("bare", indexed=False)
        for database, scanned in ((indexed, 7), (bare, 60), (indexed, 7)):
            rows, _, counters = run(
                database, lambda: database.select(select_where({"a": 3})))
            assert len(rows) == 7
            assert counters.rows_scanned == scanned

    @pytest.mark.parametrize("lookup", ["a__gt", "a__lte"])
    def test_a_range_scan_takes_its_bounds_from_each_statement(self, lookup):
        """A range shape's plan keeps no bounds: against a memo that another
        bound filled, a range scan reads what it reads against a cold one."""
        database = nullable_table()
        for value, other in ((2, 5), (5, 2)):
            (cold, cold_counts), (warm, warm_counts) = storage_cold_and_warm(
                database, lambda v: select_where({lookup: v}), value, other)
            assert warm == cold and warm_counts == cold_counts
            assert warm_counts.rows_scanned == len(warm[0])

    @pytest.mark.parametrize("descending", [False, True])
    def test_an_ordered_walk_stops_at_its_limit(self, descending):
        database = nullable_table()

        def query(window):
            offset, limit = window
            return SelectQuery("t", order_by=[OrderBy("a", descending)],
                               limit=limit, offset=offset)
        plan = database.table("t").plan_for(query((0, 5)))
        assert isinstance(plan.scan, planner.IndexRange) and plan.ordered
        for window, other in (((0, 5), (2, 3)), ((2, 3), (0, 5)), ((1, 9), (0, 1))):
            (cold, cold_counts), (warm, warm_counts) = storage_cold_and_warm(
                database, query, window, other)
            assert warm == cold and warm_counts == cold_counts
            offset, limit = window
            assert warm_counts.rows_scanned == offset + limit
            assert warm_counts.sorts == 0
        (rows, _), _ = storage_cold_and_warm(database, query, (0, 5), (0, 1))
        keys = [row["a"] for row in rows[0]]
        assert keys == sorted(keys, reverse=descending)

    def test_an_ordered_read_without_a_limit_sorts_a_scan(self):
        """Only ``ORDER BY ... LIMIT`` walks the index: the same order with
        no limit, planned after a limited one, still scans and sorts."""
        database = nullable_table()

        def query(limit):
            return SelectQuery("t", order_by=[OrderBy("a")], limit=limit)
        for limit, other in ((None, 5), (5, None)):
            (cold, cold_counts), (warm, warm_counts) = storage_cold_and_warm(
                database, query, limit, other)
            assert warm == cold and warm_counts == cold_counts
            assert warm_counts.sorts == (limit is None)


# -- one bind, one charge, one copy ---------------------------------------------


def statement_fields(statement: Any) -> Any:
    """A statement (or any part of one) as plain data, field for field: a
    predicate as its class and attributes, a dataclass as its fields."""
    if isinstance(statement, (list, tuple)):
        return [type(statement).__name__,
                [statement_fields(item) for item in statement]]
    if isinstance(statement, dict):
        return {key: statement_fields(value) for key, value in statement.items()}
    if hasattr(statement, "__dict__"):
        return [type(statement).__name__,
                {name: statement_fields(value)
                 for name, value in vars(statement).items()}]
    return statement


def reference_statement(queryset: QuerySet, kind: str):
    """What the per-call compile built before binders: each filter's part
    in order, joined as ``predicate_from_filters`` joins them, then the
    statement positionally with the shape's ORDER BY tuple."""
    table = queryset.model._meta.db_table
    predicate = predicate_from_filters(queryset._filters)
    if kind == "count":
        return CountQuery(table, predicate)
    order_by = tuple(OrderBy(column=column, descending=descending)
                     for column, descending in queryset._order_by)
    return SelectQuery(table, predicate, {}, [], None, order_by,
                       queryset._limit, queryset._offset)


#: Reads beyond the pages' shapes whose binders have a case of their own.
EXTRA_SHAPES: Dict[str, Call] = {
    "= None": lambda v: list(Profile.objects.filter(user_id=None)),
    "sliced with an offset": lambda v: list(BookmarkInstance.objects.filter(
        user_id=v["user"]).order_by("added")[1:4]),
    "sliced count": lambda v: BookmarkInstance.objects.filter(
        user_id=v["user"])[2:].count(),
    "two equalities": lambda v: list(Friendship.objects.filter(
        from_user_id=v["user"], to_user_id=v["friends"][0])),
    "no filter, ordered": lambda v: list(User.objects.filter().order_by("-id")[:2]),
}


class TestOneBind:
    @pytest.mark.parametrize("shape", sorted(PAGE_SHAPES) + sorted(EXTRA_SHAPES))
    def test_the_binder_builds_what_the_per_call_compile_built(
            self, social_stack, monkeypatch, shape):
        """Field for field — the ``__in`` of one value and of several and
        the sliced reads among the pages' shapes included."""
        call = {**PAGE_SHAPES, **EXTRA_SHAPES}[shape]
        pairs = []
        prepared = QuerySet._prepared

        def checked(queryset, kind):
            read = prepared(queryset, kind)
            pairs.append((read.query(queryset), reference_statement(queryset, kind)))
            return read
        monkeypatch.setattr(QuerySet, "_prepared", checked)
        database = social_stack["database"]
        for user in (3, 4):
            call(page_values(database, user))
        assert pairs
        for bound, reference in pairs:
            assert statement_fields(bound) == statement_fields(reference)

    def test_one_binder_per_shape(self, social_stack):
        """The second call of a shape binds with the binder the first
        compiled; its statement is a new object all the same."""
        first = Friendship.objects.filter(from_user_id=1)
        second = Friendship.objects.filter(from_user_id=2)
        assert first._prepared("select") is second._prepared("select")
        binder = first._prepared("select").query
        assert binder(first) is not binder(first)
        assert binder(second).predicate.value == 2


def spy_on_the_recorder(database: Database, monkeypatch) -> List[str]:
    """The name of every :class:`Recorder` method called from now on."""
    calls: List[str] = []
    recorder = database.recorder
    for name in ("record", "record_read", "record_statement"):
        method = getattr(recorder, name)

        def spy(*args, _name=name, _method=method):
            calls.append(_name)
            return _method(*args)
        monkeypatch.setattr(recorder, name, spy)
    return calls


def joined_tables() -> Database:
    """:func:`nullable_table`'s ``t`` plus ``u(id, k)``, ``k`` indexed and
    naming a row of ``t``: three rows of ``u`` per row of ``t`` below 20."""
    database = nullable_table()
    database.create_table(TableSchema(
        "u", [ColumnDef("id", "integer", nullable=True),
              ColumnDef("k", "integer")], indexes=[IndexDef("u_k", ("k",))]))
    for i in range(60):
        database.insert("u", {"k": i % 20 + 1})
    return database


class TestOneCharge:
    STATEMENTS = {
        "point read": SelectQuery("t", predicate_from_filters({"a": 3})),
        "primary-key read": SelectQuery("t", predicate_from_filters({"id": 7})),
        "range scan": SelectQuery("t", predicate_from_filters({"a__gt": 4})),
        "sequential scan, sorted": SelectQuery(
            "t", predicate_from_filters({"b": 1}), order_by=[OrderBy("id", True)]),
        "ordered walk that stops early": SelectQuery(
            "t", order_by=[OrderBy("a")], limit=3, offset=2),
        "join": SelectQuery("t", predicate_from_filters({"a": 3}),
                            joins=[Join("t", "id", "u", "k")]),
        "count": CountQuery("t", predicate_from_filters({"a": 3})),
        "count distinct": CountQuery("t", predicate_from_filters({"a__in": [1, 2]}),
                                     distinct_column="b"),
        "count distinct over a join": CountQuery(
            "t", predicate_from_filters({"b": 2}),
            joins=[Join("t", "id", "u", "k")], distinct_column="k"),
    }

    @pytest.mark.parametrize("name", sorted(STATEMENTS))
    def test_a_read_statement_makes_one_recorder_call(self, monkeypatch, name):
        database = joined_tables()
        statement = self.STATEMENTS[name]
        run_it = (database.count if isinstance(statement, CountQuery)
                  else database.select)
        calls = spy_on_the_recorder(database, monkeypatch)
        with database.measure() as counters:
            run_it(statement)
        assert calls == ["record_statement"]
        assert counters.statements == 1
        assert counters.rows_scanned > 0
        assert counters.pages_hit + counters.pages_missed > 0
        assert counters.joins == len(statement.joins)

    def test_the_ordered_walk_charges_the_rows_it_pulled(self):
        database = joined_tables()
        with database.measure() as counters:
            rows = database.select(self.STATEMENTS["ordered walk that stops early"])
        assert len(rows) == 3
        assert counters.rows_scanned == 5 and counters.sorts == 0

    @pytest.mark.parametrize("shape", sorted(PAGE_SHAPES))
    def test_each_page_read_is_one_call_per_statement(
            self, social_stack, monkeypatch, shape):
        database = social_stack["database"]
        values = page_values(database, 5)
        calls = spy_on_the_recorder(database, monkeypatch)
        _answer, handed, _counters = run(database,
                                         lambda: PAGE_SHAPES[shape](values))
        assert calls == ["record_statement"] * len(handed)

    def test_a_write_charges_its_scan_before_its_triggers_fire(self):
        """An UPDATE's scan is charged, in one call, before the first row
        changes: a trigger that swaps the scope sees it charged already."""
        database = nullable_table()
        scopes = [CostCounters(), CostCounters()]
        database.create_trigger("swap", "t", "update",
                                lambda _data: database.recorder.activate_scope(
                                    scopes[1]))
        database.recorder.activate_scope(scopes[0])
        try:
            database.update("t", {"b": 9}, predicate_from_filters({"a": 3}))
        finally:
            database.recorder.activate_scope(None)
        before, after = scopes
        assert (before.statements, before.rows_scanned, before.updates) == (1, 7, 1)
        assert before.index_node_touches > 0
        assert after.updates == 6 and after.statements == 0


#: Per shape of :data:`PAGE_SHAPES`, the digest (:func:`scoped_reads_digest`)
#: of what each of its statements left in a scope of its own and in
#: ``recorder.total`` for users 1-6 (:func:`scoped_reads`).  Pinned while
#: every event was charged as it happened, one ``Recorder.record`` per
#: event: one charge per statement must land every field in the same scope.
#: Rebuilt by ``tools/repin.py``.
GOLDEN_SCOPED_READS: Dict[str, str] = {
    'bookmark by url': 'dc5594bd26e9a0e5',
    'bookmark count': '2a8456e34488a1c2',
    'bookmark details': 'dc5594bd26e9a0e5',
    'bookmarks': 'ac9c7c4e4aae6660',
    'friend count': '2cd9c36f68acca48',
    'friends (in, one)': 'dc5594bd26e9a0e5',
    'friends (in, several)': 'c56866d89072e69b',
    'friendships': 'a68ce2700f47c05d',
    'invitation count': '6c2b9f9334784ede',
    'invitations': '0a8f29715c59b27c',
    'latest bookmarks': '5760b95b6c3813f1',
    'latest wall posts': 'fe99c2d401c64869',
    'profile': 'dc5594bd26e9a0e5',
    'recent bookmarks (range, sliced)': 'ac9c7c4e4aae6660',
    'save count': 'ce06f514a68aa608',
    'sent wall posts': '6fb05dd2710cd92d',
    'user by id': 'dc5594bd26e9a0e5',
    'user count': '1df484b49bb5971a',
    'wall count': '3caf9d719a03a2cf',
}


def scoped_counts(database: Database, call: Callable[[], Any]) -> List[Any]:
    """Each statement ``call()`` issues, run in a scope of its own that is
    switched in just before it (as a worker hand-off switches it between
    statements): that scope's counts and the total's growth."""
    recorder = database.recorder
    trace: List[Any] = []
    select, count = database.select, database.count

    def in_its_own_scope(execute):
        def statement(query):
            scope, total = CostCounters(), recorder.total.copy()
            previous = recorder.activate_scope(scope)
            try:
                answer = execute(query)
            finally:
                recorder.activate_scope(previous)
            grown = {name: value - getattr(total, name)
                     for name, value in recorder.total.as_dict().items()}
            trace.append({"scope": scope.as_dict(), "total": grown})
            return answer
        return statement
    database.select = in_its_own_scope(select)
    database.count = in_its_own_scope(count)
    outer = CostCounters()
    previous = recorder.activate_scope(outer)
    try:
        call()
    finally:
        recorder.activate_scope(previous)
        del database.select, database.count
    assert outer == CostCounters()      # nothing charged between statements
    return trace


def scoped_reads(shape: str) -> Dict[str, List[Any]]:
    """What ``GOLDEN_SCOPED_READS[shape]`` is the digest of: per user 1-6,
    the :func:`scoped_counts` of the shape's statements, on the tiny seed
    bound as the ``social_stack`` fixture binds it."""
    database = Database(name="test-social", buffer_pool_pages=128)
    social_registry.unbind()
    social_registry.bind(database)
    social_registry.clock = VirtualClock(1_000_000.0)
    social_registry.create_all()
    try:
        seed_database(SeedScale.tiny())
        call = PAGE_SHAPES[shape]
        values = {user: page_values(database, user) for user in range(1, 7)}
        return {f"user {user}": scoped_counts(database, lambda: call(each))
                for user, each in values.items()}
    finally:
        social_registry.unbind()


def scoped_reads_digest(quantities: Dict[str, List[Any]]) -> str:
    payload = json.dumps(quantities, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class TestScopes:
    @pytest.mark.parametrize("shape", sorted(PAGE_SHAPES))
    def test_every_count_lands_in_the_scope_it_did(self, shape):
        quantities = scoped_reads(shape)
        assert all(statement["scope"] == statement["total"]
                   for statements in quantities.values()
                   for statement in statements)
        assert scoped_reads_digest(quantities) == GOLDEN_SCOPED_READS[shape]

    def test_every_page_shape_is_pinned(self):
        assert sorted(GOLDEN_SCOPED_READS) == sorted(PAGE_SHAPES)


class TestOneCopy:
    def test_an_instance_does_not_alias_its_row(self, social_stack):
        row = social_stack["database"].find("auth_user", where={"id": 2})[0]
        user = User._meta.from_db(row)
        assert user.__dict__ is not row
        assert user.__dict__ == row
        assert user._state_adding is False
        assert "_state_adding" not in row
        row["username"] = "scribbled"
        user.email = "changed@example.com"
        assert user.username != "scribbled"
        assert row["email"] != "changed@example.com"
        # A cache hit hands out read-only views: the instance still gets a
        # plain dict of its own.
        viewed = User._meta.from_db(MappingProxyType(row))
        assert type(viewed.__dict__) is dict and viewed.__dict__ == row
        viewed.username = "renamed"
        assert row["username"] == "scribbled"

    def test_every_attname_is_its_column(self):
        """What lets one copy of the row fill an instance."""
        blog = build_blog_models("prepared-attnames")
        models = SOCIAL_MODELS + (blog["Author"], blog["Post"], blog["Comment"])
        for model in models:
            pairs = model._meta.attname_columns
            assert pairs and all(attname == column for attname, column in pairs)

    def test_a_field_added_after_the_class_is_loaded_like_the_others(self):
        blog = build_blog_models("prepared-add-field")
        Author = blog["Author"]
        IntegerField(default=0).contribute_to_class(Author, "rank")
        author = Author._meta.from_db(
            {"id": 1, "username": "a", "karma": 2, "rank": 3})
        assert (author.pk, author.karma, author.rank) == (1, 2, 3)
        assert author.to_dict() == {"id": 1, "username": "a", "karma": 2,
                                    "rank": 3}
