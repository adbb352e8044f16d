"""Tests for the social application: models, seeding, cached objects, pages."""

import random

import pytest

from repro.apps.social import (EXPECTED_CACHED_OBJECTS, Bookmark,
                               BookmarkInstance, Friendship,
                               FriendshipInvitation, Profile, SeedScale, User,
                               WallPost)
from repro.apps.social.pages import (PAGE_ACCEPT_FR, PAGE_CREATE_BM,
                                     PAGE_LOOKUP_BM, PAGE_LOOKUP_FBM)

from tests.helpers import database_rows


class TestSeeding:
    def test_tiny_seed_populates_every_table(self, social_stack):
        summary = social_stack["seed"]
        assert summary.users == 20
        assert summary.profiles == summary.users
        assert summary.bookmarks == 10
        assert summary.bookmark_instances > 0
        assert summary.friendships > 0
        assert summary.invitations > 0
        assert User.objects.count() == summary.users
        assert Profile.objects.count() == summary.profiles
        assert Friendship.objects.count() == summary.friendships

    def test_seed_summary_matches_table_counts(self, social_stack):
        summary = social_stack["seed"]
        assert BookmarkInstance.objects.count() == summary.bookmark_instances
        assert FriendshipInvitation.objects.count() == summary.invitations
        assert WallPost.objects.count() == summary.wall_posts

    def test_every_user_has_a_profile(self, social_stack):
        for user in User.objects.filter():
            assert Profile.objects.filter(user_id=user.pk).count() == 1

    def test_paper_ratio_scale(self):
        scale = SeedScale.paper_ratio(users=500)
        assert scale.users == 500
        assert scale.max_friends_per_user == 50


class TestCachedObjects:
    def test_fourteen_cached_objects_installed(self, social_genie):
        assert len(social_genie["cached"]) == EXPECTED_CACHED_OBJECTS
        assert social_genie["genie"].cached_object_count == EXPECTED_CACHED_OBJECTS

    def test_triggers_generated_for_all_tables(self, social_genie):
        genie = social_genie["genie"]
        # 14 cached objects across 7 tables; several tables back multiple
        # objects, so the count is well above 3 per object count of tables.
        assert genie.trigger_count >= 40
        assert genie.generated_trigger_lines > 500

    def test_effort_report_matches_paper_shape(self, social_genie):
        report = social_genie["genie"].effort_report()
        assert report["cached_objects"] == 14
        assert report["generated_triggers"] >= 40
        assert report["generated_trigger_lines"] >= 1000


class TestPagesWithoutCache:
    @pytest.mark.parametrize("page", [PAGE_LOOKUP_BM, PAGE_LOOKUP_FBM,
                                      PAGE_CREATE_BM, PAGE_ACCEPT_FR,
                                      "Login", "Logout"])
    def test_every_page_renders(self, social_stack, page):
        result = social_stack["app"].render(page, user_id=1)
        assert result.page == page
        assert result.user_id == 1

    def test_create_bookmark_persists_instance(self, social_stack):
        app = social_stack["app"]
        before = BookmarkInstance.objects.filter(user_id=3).count()
        url = f"http://example.com/page/{random.Random(7).randrange(0, 300)}"
        app.rng = random.Random(7)
        result = app.create_bookmark(3)
        assert result.shown["instance"].user_id == 3
        assert BookmarkInstance.objects.filter(user_id=3).count() == before + 1
        # Saving the same URL again reuses the unique Bookmark row.
        app.rng = random.Random(7)
        app.create_bookmark(4)
        assert Bookmark.objects.filter(url=url).count() == 1

    def test_accept_friend_request_creates_symmetric_edges(self, social_stack):
        app = social_stack["app"]
        user_id = 2
        pending = [i for i in FriendshipInvitation.objects.filter(to_user_id=user_id)
                   if i.status == FriendshipInvitation.STATUS_PENDING]
        result = app.accept_friend_request(user_id)
        assert result.shown["accepted"] == bool(pending)
        if pending:
            other = result.shown["other_user"]
            assert Friendship.objects.filter(from_user_id=user_id, to_user_id=other).exists()
            assert Friendship.objects.filter(from_user_id=other, to_user_id=user_id).exists()

    def test_unknown_page_rejected(self, social_stack):
        with pytest.raises(ValueError):
            social_stack["app"].render("NoSuchPage", 1)


class TestPagesWithCacheGenie:
    def test_repeated_reads_hit_cache(self, social_genie):
        app = social_genie["app"]
        app.lookup_bookmarks(1)
        totals_before = social_genie["genie"].stats.totals().cache_hits
        app.lookup_bookmarks(1)
        assert social_genie["genie"].stats.totals().cache_hits > totals_before

    def test_writes_keep_cached_counts_consistent(self, social_genie):
        app = social_genie["app"]
        cached_count = social_genie["cached"]["user_bookmark_count"]
        app.lookup_bookmarks(5)            # warm the count key
        before = cached_count.peek(user_id=5)
        app.create_bookmark(5)
        after = cached_count.peek(user_id=5)
        if before is not None:
            assert after == before + 1
        assert after == len(database_rows(BookmarkInstance, user_id=5))

    def test_friend_bookmarks_cached_object_used(self, social_genie):
        app = social_genie["app"]
        cached = social_genie["cached"]["friend_bookmarks"]
        app.lookup_friend_bookmarks(1)
        app.lookup_friend_bookmarks(1)
        assert cached.stats.cache_hits >= 1
