"""The social app's batched read paths (a batching genie's objects) stay
correct."""

from __future__ import annotations

import random

import pytest

from repro.apps.social import install_cached_objects, seed_database, SeedScale, social_registry
from repro.apps.social.models import (BookmarkInstance, Friendship,
                                      FriendshipInvitation, WallPost)
from repro.apps.social.pages import (PAGE_ACCEPT_FR, PAGE_CREATE_BM,
                                     PAGE_LOGIN, PAGE_LOGOUT, PAGE_LOOKUP_BM,
                                     PAGE_LOOKUP_FBM, SocialApplication)
from repro.core import CacheGenie
from repro.memcache import CacheServer
from repro.sim import VirtualClock
from repro.storage import Database

ALL_PAGES = (PAGE_LOGIN, PAGE_LOOKUP_BM, PAGE_LOOKUP_FBM,
             PAGE_CREATE_BM, PAGE_ACCEPT_FR, PAGE_LOGOUT)


@pytest.fixture
def batched_app():
    clock = VirtualClock(1_000_000.0)
    database = Database(name="batched-social", buffer_pool_pages=128)
    social_registry.unbind()
    social_registry.bind(database)
    social_registry.clock = clock
    social_registry.create_all()
    seed_database(SeedScale.tiny())
    servers = [CacheServer("ba0", capacity_bytes=8 * 1024 * 1024, clock=clock),
               CacheServer("ba1", capacity_bytes=8 * 1024 * 1024, clock=clock)]
    genie = CacheGenie(registry=social_registry, database=database,
                       cache_servers=servers, batch_trigger_ops=True).activate()
    cached = install_cached_objects(genie)
    app = SocialApplication(cached_objects=cached, rng=random.Random(5))
    assert app.batch_reads  # read from the genie's batch_trigger_ops
    yield {"app": app, "genie": genie, "database": database, "cached": cached}
    genie.deactivate()
    social_registry.unbind()


class TestBatchedPages:
    def test_every_page_renders(self, batched_app):
        app = batched_app["app"]
        for page in ALL_PAGES:
            result = app.render(page, user_id=1)
            assert result.page == page
            assert result.user_id == 1

    def test_header_counts_match_database(self, batched_app):
        app = batched_app["app"]
        # Write pages mutate state; render a few to exercise the triggers.
        app.render(PAGE_CREATE_BM, user_id=1)
        app.render(PAGE_ACCEPT_FR, user_id=1)
        header = app.login(1).shown["header"]
        assert header["friends"] == Friendship.objects.filter(from_user_id=1).count()
        assert header["invitations"] == \
            FriendshipInvitation.objects.filter(to_user_id=1).count()
        assert header["bookmarks"] == \
            BookmarkInstance.objects.filter(user_id=1).count()
        assert header["wall_posts"] == WallPost.objects.filter(user_id=1).count()

    def test_batched_reads_issue_no_single_gets(self, batched_app):
        app, database = batched_app["app"], batched_app["database"]
        app.render(PAGE_LOGIN, user_id=2)  # warm
        before = database.recorder.total.copy()
        app.render(PAGE_LOGIN, user_id=2)
        total = database.recorder.total
        keys_read = (total.cache_hits - before.cache_hits
                     + total.cache_misses - before.cache_misses)
        delta_multi = total.cache_multi_gets - before.cache_multi_gets
        # Fewer get round trips than keys: the reads travel in batches.
        assert 0 < delta_multi < keys_read

    def test_create_bookmark_keeps_cached_lists_fresh(self, batched_app):
        app, cached = batched_app["app"], batched_app["cached"]
        count_before = cached["user_bookmark_count"].evaluate(user_id=3)
        result = app.create_bookmark(3)
        assert result.shown["instance"].user_id == 3
        assert cached["user_bookmark_count"].evaluate(user_id=3) == count_before + 1
        rows = cached["bookmarks_of_user"].evaluate(user_id=3)
        assert any(r["bookmark_id"] == result.shown["saved"].pk for r in rows)
