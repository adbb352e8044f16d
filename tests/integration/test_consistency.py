"""Integration/property tests: the cache never serves stale data.

The paper's core guarantee is that readers "can see dirty data, but not stale
data" — every cached value reflects all writes already applied to the
database.  These tests drive the full stack (ORM + CacheGenie + triggers +
memcached) with randomized operation sequences and after every write compare
each cached object's view against a fresh database read.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.social import (Bookmark, BookmarkInstance, Friendship,
                               FriendshipInvitation, Profile, User, WallPost)
from repro.core import INVALIDATE, UPDATE_IN_PLACE

from tests.helpers import database_rows


def db_truth_count(model, **filters):
    return len(database_rows(model, **filters))


def db_truth_rows(model, **filters):
    return [dict(row) for row in database_rows(model, **filters)]


class TestCacheDatabaseAgreement:
    def _assert_agreement(self, cached, user_ids):
        """Every cached object's value equals a fresh database computation."""
        for user_id in user_ids:
            count = cached["user_bookmark_count"].peek(user_id=user_id)
            if count is not None:
                assert count == db_truth_count(BookmarkInstance, user_id=user_id)
            rows = cached["bookmarks_of_user"].peek(user_id=user_id)
            if rows is not None:
                truth = db_truth_rows(BookmarkInstance, user_id=user_id)
                assert sorted(r["id"] for r in rows) == sorted(r["id"] for r in truth)
            friends = cached["friend_count"].peek(from_user_id=user_id)
            if friends is not None:
                assert friends == db_truth_count(Friendship, from_user_id=user_id)
            wall = cached["latest_wall_posts"].peek(user_id=user_id)
            if wall is not None:
                truth = db_truth_rows(WallPost, user_id=user_id)
                truth.sort(key=lambda r: r["date_posted"], reverse=True)
                k = cached["latest_wall_posts"].k
                assert [r["id"] for r in wall[:k]] == [r["id"] for r in truth[:k]]

    def test_random_workload_keeps_cache_fresh(self, social_genie):
        app = social_genie["app"]
        cached = social_genie["cached"]
        rng = random.Random(1234)
        user_ids = list(range(1, 11))
        pages = ["LookupBM", "LookupFBM", "CreateBM", "AcceptFR", "Login"]
        for step in range(60):
            user_id = rng.choice(user_ids)
            app.render(rng.choice(pages), user_id)
            if step % 5 == 0:
                self._assert_agreement(cached, user_ids)
        self._assert_agreement(cached, user_ids)

    def test_direct_sql_style_writes_also_propagate(self, social_genie):
        """Writes that bypass the ORM models (raw database DML) still update
        the cache, because consistency is enforced by database triggers."""
        cached = social_genie["cached"]
        database = social_genie["database"]
        user_id = 1
        cached["user_bookmark_count"].evaluate(user_id=user_id)
        before = cached["user_bookmark_count"].peek(user_id=user_id)
        bookmark = Bookmark.objects.filter().first()
        database.insert("bookmarks_bookmarkinstance", {
            "bookmark_id": bookmark.pk, "user_id": user_id,
            "description": "raw insert", "note": "", "added": 123.0,
        })
        assert cached["user_bookmark_count"].peek(user_id=user_id) == before + 1

    def test_own_writes_visible_immediately(self, social_genie):
        """§3.3: a user sees the effect of her own write on the next query."""
        app = social_genie["app"]
        user_id = 2
        app.lookup_bookmarks(user_id)
        before = BookmarkInstance.objects.filter(user_id=user_id).count()
        app.create_bookmark(user_id)
        after = BookmarkInstance.objects.filter(user_id=user_id).count()
        assert after == before + 1


class TestStrategyEquivalence:
    """Invalidate and Update must converge to the same values after reads."""

    def test_profile_updates_converge_for_both_strategies(self, social_stack):
        from repro.core import CacheGenie
        from repro.memcache import CacheServer

        registry = social_stack["registry"]
        database = social_stack["database"]
        for strategy in (UPDATE_IN_PLACE, INVALIDATE):
            genie = CacheGenie(registry=registry, database=database,
                               cache_servers=[CacheServer(f"conv-{strategy}",
                                                          capacity_bytes=2 ** 20)]).activate()
            cached = genie.cacheable(cache_class_type="FeatureQuery",
                                     name=f"profile_{strategy}",
                                     main_model="Profile", where_fields=["user_id"],
                                     update_strategy=strategy)
            cached.evaluate(user_id=1)
            Profile.objects.filter(user_id=1).update(about=f"via {strategy}")
            assert cached.evaluate(user_id=1)[0]["about"] == f"via {strategy}"
            genie.deactivate()


@st.composite
def operation_sequences(draw):
    """Random sequences of (operation, user) pairs for the property test."""
    ops = st.sampled_from(["create_bm", "accept_fr", "lookup_bm", "lookup_fbm"])
    return draw(st.lists(st.tuples(ops, st.integers(1, 8)), min_size=5, max_size=25))


class TestPropertyBasedConsistency:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sequence=operation_sequences())
    def test_counts_never_stale_under_random_operations(self, social_genie, sequence):
        app = social_genie["app"]
        cached = social_genie["cached"]
        for op, user_id in sequence:
            if op == "create_bm":
                app.create_bookmark(user_id)
            elif op == "accept_fr":
                app.accept_friend_request(user_id)
            elif op == "lookup_bm":
                app.lookup_bookmarks(user_id)
            else:
                app.lookup_friend_bookmarks(user_id)
            cached_count = cached["user_bookmark_count"].peek(user_id=user_id)
            if cached_count is not None:
                assert cached_count == db_truth_count(BookmarkInstance, user_id=user_id)
            cached_invites = cached["pending_invitation_count"].peek(to_user_id=user_id)
            if cached_invites is not None:
                assert cached_invites == db_truth_count(FriendshipInvitation,
                                                        to_user_id=user_id)
