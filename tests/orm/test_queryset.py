"""Tests for QuerySet filtering, ordering, slicing, counting, and bulk writes."""

import pytest

from repro.errors import DoesNotExist, FieldError, MultipleObjectsReturned

from tests.helpers import build_blog_models


@pytest.fixture
def blog():
    stack = build_blog_models("qs")
    Author, Post = stack["Author"], stack["Post"]
    authors = [Author.objects.create(username=f"user{i}", karma=i) for i in range(5)]
    for author in authors:
        for j in range(4):
            Post.objects.create(author=author, title=f"post {author.pk}-{j}",
                                score=author.karma * 10 + j, published=float(j))
    stack["authors"] = authors
    return stack


class TestFiltering:
    def test_filter_equality(self, blog):
        posts = list(blog["Post"].objects.filter(author_id=blog["authors"][0].pk))
        assert len(posts) == 4

    def test_filter_accepts_model_instance_for_fk(self, blog):
        author = blog["authors"][1]
        assert blog["Post"].objects.filter(author=author).count() == 4

    def test_filter_lookups(self, blog):
        Post = blog["Post"]
        assert Post.objects.filter(score__gte=40).count() == 4
        assert Post.objects.filter(score__lt=3).count() == 3
        assert Post.objects.filter(score__in=[0, 1, 2]).count() == 3

    def test_chained_filters_accumulate(self, blog):
        Post = blog["Post"]
        qs = Post.objects.filter(author_id=blog["authors"][4].pk).filter(score__gte=42)
        assert qs.count() == 2

    def test_exclude(self, blog):
        Author = blog["Author"]
        names = {a.username for a in Author.objects.exclude(username="user0")}
        assert names == {"user1", "user2", "user3", "user4"}

    def test_unsupported_lookup_raises(self, blog):
        with pytest.raises(FieldError):
            blog["Post"].objects.filter(title__regex="x").count()

    def test_filter_on_unknown_field_raises(self, blog):
        with pytest.raises(FieldError):
            list(blog["Post"].objects.filter(nonexistent=1))


class TestOrderingSlicing:
    def test_order_by_descending(self, blog):
        scores = [p.score for p in blog["Post"].objects.order_by("-score")[:3]]
        assert scores == [43, 42, 41]

    def test_order_by_ascending_with_offset(self, blog):
        scores = [p.score for p in blog["Post"].objects.order_by("score")[2:5]]
        assert scores == [2, 3, 10]

    def test_indexing_returns_single_instance(self, blog):
        post = blog["Post"].objects.order_by("score")[0]
        assert post.score == 0

    def test_slicing_a_slice_composes_the_windows(self, blog):
        """A second slice is taken *inside* the first: it can only shrink it."""
        ordered = blog["Post"].objects.order_by("score")
        every = [p.score for p in ordered]

        def scores(qs):
            return [p.score for p in qs]
        assert scores(ordered[:3][:10]) == every[:3]
        assert scores(ordered[:10][5:]) == every[5:10]
        assert scores(ordered[2:6][1:3]) == every[3:5]
        assert scores(ordered[2:][1:3]) == every[3:5]
        assert scores(ordered[4:8][2:][:1]) == every[6:7]
        assert scores(ordered[:3][5:]) == []
        assert scores(ordered[:0]) == []
        assert scores(ordered[5:3]) == []

    def test_first_and_exists_respect_an_existing_slice(self, blog):
        ordered = blog["Post"].objects.order_by("score")
        assert ordered[5:].first().score == [p.score for p in ordered][5]
        assert ordered[:0].first() is None
        assert not ordered[:0].exists()
        assert ordered[19:].exists() and not ordered[20:].exists()
        assert ordered[:3][3:].first() is None

    def test_values_returns_dicts(self, blog):
        rows = list(blog["Author"].objects.filter(username="user1").values("username", "karma"))
        assert rows == [{"username": "user1", "karma": 1}]


class TestTerminalOps:
    def test_get_single(self, blog):
        author = blog["Author"].objects.get(username="user2")
        assert author.karma == 2

    def test_get_missing_raises(self, blog):
        with pytest.raises(DoesNotExist):
            blog["Author"].objects.get(username="ghost")

    def test_get_multiple_raises(self, blog):
        with pytest.raises(MultipleObjectsReturned):
            blog["Post"].objects.get(published=0.0)

    def test_model_specific_doesnotexist_subclass(self, blog):
        Author = blog["Author"]
        with pytest.raises(Author.DoesNotExist):
            Author.objects.get(username="ghost")

    def test_first_exists_count_len_bool(self, blog):
        Post = blog["Post"]
        assert Post.objects.filter(score__gte=1000).first() is None
        assert not Post.objects.filter(score__gte=1000).exists()
        assert Post.objects.count() == 20
        assert len(Post.objects.filter(author_id=1)) == 4
        assert bool(Post.objects.filter(author_id=1))

    def test_get_or_create(self, blog):
        Author = blog["Author"]
        existing, created = Author.objects.get_or_create(username="user0")
        assert not created
        fresh, created = Author.objects.get_or_create(username="new",
                                                      defaults={"karma": 9})
        assert created and fresh.karma == 9

    def test_result_cache_reused(self, blog):
        qs = blog["Post"].objects.filter(author_id=1)
        first = list(qs)
        second = list(qs)
        assert first is not second or first == second
        assert len(first) == len(second) == 4


class TestBulkWrites:
    def test_queryset_update(self, blog):
        updated = blog["Post"].objects.filter(author_id=1).update(score=0)
        assert updated == 4
        assert blog["Post"].objects.filter(author_id=1, score=0).count() == 4

    def test_queryset_delete(self, blog):
        deleted = blog["Post"].objects.filter(author_id=2).delete()
        assert deleted == 4
        assert blog["Post"].objects.count() == 16

    def test_bulk_writes_fire_triggers(self, blog):
        fired = []
        blog["database"].create_trigger(
            "t", "post", "update", lambda d: fired.append(d["new"]["score"]))
        blog["Post"].objects.filter(author_id=3).update(score=1)
        assert len(fired) == 4
