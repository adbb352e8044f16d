"""Tests for the ForeignKey descriptor."""

from tests.helpers import build_blog_models


class TestForeignKey:
    def test_forward_access_lazily_loads_instance(self):
        stack = build_blog_models("fk1")
        author = stack["Author"].objects.create(username="alice")
        post = stack["Post"].objects.create(author=author, title="t")
        reloaded = stack["Post"].objects.get(id=post.pk)
        assert reloaded.author_id == author.pk
        assert reloaded.author.username == "alice"

    def test_forward_access_caches_instance(self):
        stack = build_blog_models("fk2")
        author = stack["Author"].objects.create(username="alice")
        post = stack["Post"].objects.create(author=author, title="t")
        reloaded = stack["Post"].objects.get(id=post.pk)
        first = reloaded.author
        assert reloaded.author is first

    def test_assigning_instance_sets_id(self):
        stack = build_blog_models("fk3")
        Author, Post = stack["Author"], stack["Post"]
        a1 = Author.objects.create(username="a1")
        a2 = Author.objects.create(username="a2")
        post = Post.objects.create(author=a1, title="t")
        post.author = a2
        post.save()
        assert Post.objects.get(id=post.pk).author_id == a2.pk

    def test_assigning_raw_pk(self):
        stack = build_blog_models("fk4")
        author = stack["Author"].objects.create(username="a")
        post = stack["Post"](author=author.pk, title="t")
        post.save()
        assert post.author.username == "a"

    def test_null_fk_returns_none(self):
        stack = build_blog_models("fk5")
        author = stack["Author"].objects.create(username="a")
        post = stack["Post"].objects.create(author=author, title="t")
        post.author = None
        assert post.author is None


