"""Prepared reads: a warm plan memo answers exactly as a cold one.

Every read is planned once per call shape: the ORM resolves a shape into a
``PreparedRead`` on the model's ``Options``, and each ``Table`` keeps the
storage ``Plan`` of each statement shape.  A later call of the shape only
binds its values.  So a statement run against a warm memo (one that another
value of its shape filled) must do what it does against a cold memo: return
the same rows in the same order, keyed by the schema's own column-name
objects, and charge the same ``CostCounters``.  Each case starts from one
buffer-pool state, so page hits and misses compare too.

The traps: ``= None`` on an indexed column (the NULL bucket is searched and
the residual check must still run), an ``__in`` of one distinct value (an
index lookup) beside one of several (a scan), an index created after a plan
was memoised, two databases with the same table names, a range scan whose
bounds differ from the statement's that planned it, and an ordered index
walk that stops at its ``LIMIT``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.apps.social.models import (Bookmark, BookmarkInstance, Friendship,
                                      FriendshipInvitation, Profile, User,
                                      WallPost)
from repro.apps.social.pages import (PAGE_ACCEPT_FR, PAGE_CREATE_BM,
                                     PAGE_LOGIN, PAGE_LOGOUT, PAGE_LOOKUP_BM,
                                     PAGE_LOOKUP_FBM, SocialApplication)
from repro.orm.models import Model
from repro.storage import (ColumnDef, Database, IndexDef, OrderBy,
                           SelectQuery, TableSchema, predicate_from_filters)
from repro.storage import planner
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
