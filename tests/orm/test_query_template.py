"""Tests for the QueryTemplate normalization layer and Param placeholders."""

import itertools

import pytest

from repro.errors import CacheClassError, FieldError, TemplateError
from repro.orm import (CharField, FloatTimestampField, ForeignKey, IntegerField,
                       Model, Param, QueryTemplate, Registry)
from repro.orm.queryset import QueryDescription
from repro.orm.template import ChainStep, coerce_chain_step, resolve_chain_models
from repro.storage import CountQuery, Database

_COUNTER = itertools.count()


@pytest.fixture
def models():
    reg = Registry(f"template{next(_COUNTER)}")

    class Author(Model):
        name = CharField(max_length=60)

        class Meta:
            registry = reg

    class Post(Model):
        author = ForeignKey(Author)
        title = CharField(max_length=120)
        score = IntegerField(default=0)
        posted = FloatTimestampField(db_index=True)

        class Meta:
            registry = reg

    database = Database()
    reg.bind(database)
    reg.create_all()
    yield {"registry": reg, "Author": Author, "Post": Post}
    reg.unbind()


class TestParam:
    def test_repr(self):
        assert repr(Param("user_id")) == "Param('user_id')"
        assert repr(Param()) == "Param()"

    def test_template_querysets_cannot_execute(self, models):
        Post = models["Post"]
        template_qs = Post.objects.filter(author_id=Param("author_id"))
        assert template_qs.is_template
        with pytest.raises(TemplateError):
            list(template_qs)
        with pytest.raises(TemplateError):
            template_qs.get()
        with pytest.raises(TemplateError):
            template_qs.update(title="x")
        with pytest.raises(TemplateError):
            template_qs.delete()

    def test_plain_querysets_still_execute(self, models):
        Author, Post = models["Author"], models["Post"]
        author = Author.objects.create(name="a")
        Post.objects.create(author=author, title="t", score=1, posted=1.0)
        assert not Post.objects.filter(author_id=author.pk).is_template
        assert len(list(Post.objects.filter(author_id=author.pk))) == 1


class TestShapeNormalization:
    def test_plain_filter_is_feature_shape(self, models):
        Post = models["Post"]
        template = QueryTemplate.from_queryset(
            Post.objects.filter(author_id=Param("author_id")))
        assert template.kind == "select"
        assert template.param_fields == ("author_id",)
        assert template.limit is None and not template.chain
        assert template.infer_cache_class() == "FeatureQuery"

    def test_count_terminal_is_count_shape(self, models):
        Post = models["Post"]
        template = Post.objects.filter(author_id=Param("author_id")).count()
        assert isinstance(template, QueryTemplate)
        assert template.kind == "count"
        assert template.infer_cache_class() == "CountQuery"

    def test_ordered_slice_is_topk_shape(self, models):
        Post = models["Post"]
        template = QueryTemplate.from_queryset(
            Post.objects.filter(author_id=Param("author_id"))
            .order_by("-posted")[:7])
        assert template.infer_cache_class() == "TopKQuery"
        assert template.order_by == (("posted", True),)
        assert template.limit == 7

    def test_ascending_order_inferred(self, models):
        Post = models["Post"]
        template = QueryTemplate.from_queryset(
            Post.objects.filter(author_id=Param("author_id"))
            .order_by("score")[:3])
        assert template.order_by == (("score", False),)

    def test_through_chain_is_link_shape(self, models):
        Author, Post = models["Author"], models["Post"]
        template = QueryTemplate.from_queryset(
            Post.objects.filter(author_id=Param("author_id")).through("author"))
        assert template.infer_cache_class() == "LinkQuery"
        assert template.chain == (ChainStep.forward("author"),)

    def test_reverse_chain_with_ordering(self, models):
        Author = models["Author"]
        template = QueryTemplate.from_queryset(
            Author.objects.filter(id=Param("id"))
            .through(("reverse", "Post", "author")).order_by("-posted"))
        assert template.infer_cache_class() == "LinkQuery"
        assert template.order_by == (("posted", True),)

    def test_order_by_after_through_resolves_on_chain_target(self, models):
        Author = models["Author"]
        # "posted" lives on Post, not Author: only valid because through()
        # retargets field resolution to the chain's final model.
        qs = Author.objects.filter(id=Param("id")) \
            .through(("reverse", "Post", "author")).order_by("-posted")
        assert qs._order_by == (("posted", True),)
        with pytest.raises(FieldError):
            Author.objects.filter(id=Param("id")).order_by("-posted")


class TestShapeValidation:
    def test_constant_filters_fold_into_shape(self, models):
        Post = models["Post"]
        template = QueryTemplate.from_queryset(
            Post.objects.filter(author_id=Param("a"), score=3))
        assert template.param_fields == ("author_id",)
        assert template.const_filters == (("score", 3),)
        # The constant is part of the shape identity, not a per-entry param.
        plain = QueryTemplate.from_queryset(
            Post.objects.filter(author_id=Param("a")))
        assert template.shape_fingerprint() != plain.shape_fingerprint()

    def test_const_only_filter_still_needs_a_param(self, models):
        Post = models["Post"]
        with pytest.raises(TemplateError, match="Param"):
            QueryTemplate.from_queryset(Post.objects.filter(score=3))

    def test_constant_filters_rejected_on_chains(self, models):
        Post = models["Post"]
        with pytest.raises(TemplateError, match="constant"):
            QueryTemplate.from_queryset(
                Post.objects.filter(author_id=Param("a"), score=3)
                .through("author"))

    def test_at_least_one_param_required(self, models):
        Post = models["Post"]
        with pytest.raises(TemplateError, match="Param"):
            QueryTemplate.from_queryset(Post.objects.filter())

    def test_non_equality_lookup_rejected(self, models):
        Post = models["Post"]
        with pytest.raises(TemplateError, match="equality"):
            QueryTemplate.from_queryset(
                Post.objects.filter(score__gt=Param("score")))

    def test_offset_slice_rejected(self, models):
        Post = models["Post"]
        with pytest.raises(TemplateError, match="offset"):
            QueryTemplate.from_queryset(
                Post.objects.filter(author_id=Param("a"))
                .order_by("-posted")[2:7])

    def test_ordered_template_without_slice_is_ambiguous(self, models):
        Post = models["Post"]
        with pytest.raises(TemplateError, match="ambiguous"):
            QueryTemplate.from_queryset(
                Post.objects.filter(author_id=Param("a")).order_by("-posted"))

    def test_slice_without_order_rejected(self, models):
        Post = models["Post"]
        with pytest.raises(TemplateError, match="order_by"):
            QueryTemplate.from_queryset(
                Post.objects.filter(author_id=Param("a"))[:5])

    def test_count_of_chain_rejected(self, models):
        Post = models["Post"]
        with pytest.raises(TemplateError, match="chain"):
            Post.objects.filter(author_id=Param("a")).through("author").count()

    def test_filter_after_through_rejected(self, models):
        Post = models["Post"]
        with pytest.raises(TemplateError, match="before through"):
            Post.objects.filter(author_id=Param("a")) \
                .through("author").filter(name="x")

    def test_bad_chain_step_fails_at_declaration(self, models):
        Post = models["Post"]
        with pytest.raises(FieldError):
            Post.objects.filter(author_id=Param("a")).through("no_such_fk")
        with pytest.raises(CacheClassError):
            coerce_chain_step(("sideways", "x"))

    def test_resolve_chain_models(self, models):
        Author, Post = models["Author"], models["Post"]
        chain = (ChainStep.reverse("Post", "author"),)
        assert resolve_chain_models(Author, chain) == (Author, Post)


class TestShapeFingerprint:
    def test_same_shape_same_fingerprint(self, models):
        Post = models["Post"]
        one = QueryTemplate.from_queryset(
            Post.objects.filter(author_id=Param("a")))
        two = QueryTemplate.from_queryset(
            Post.objects.filter(author_id=Param("different_name")))
        assert one.shape_fingerprint() == two.shape_fingerprint()

    def test_kind_order_limit_chain_distinguish(self, models):
        Post = models["Post"]
        base = Post.objects.filter(author_id=Param("a"))
        shapes = {
            QueryTemplate.from_queryset(base).shape_fingerprint(),
            base.count().shape_fingerprint(),
            QueryTemplate.from_queryset(
                base.order_by("-posted")[:5]).shape_fingerprint(),
            QueryTemplate.from_queryset(
                base.order_by("-posted")[:9]).shape_fingerprint(),
            QueryTemplate.from_queryset(
                base.through("author")).shape_fingerprint(),
        }
        assert len(shapes) == 5


class TestCompile:
    """``QueryTemplate.query()``, the one compile of every recompute."""

    def test_constant_filters_come_before_the_parameters(self, models):
        Post = models["Post"]
        template = QueryTemplate.from_queryset(
            Post.objects.filter(author_id=Param("a"), title="t", score=1))
        query = template.query({"author_id": 7})
        assert [(c.column, c.value) for c in query.predicate.children] == [
            ("score", 1), ("title", "t"), ("author_id", 7)]
        assert (query.joins, query.select_from, query.order_by,
                query.limit) == ([], None, [], None)

    def test_count_and_top_k(self, models):
        Post = models["Post"]
        base = Post.objects.filter(author_id=Param("a"))
        assert isinstance(base.count().query({"author_id": 1}), CountQuery)
        top = QueryTemplate.from_queryset(base.order_by("-posted")[:3])
        query = top.query({"author_id": 1})
        assert [(o.column, o.descending) for o in query.order_by] == [
            ("posted", True)]
        assert query.limit == 3
        assert top.query({"author_id": 1}, limit=8).limit == 8

    def test_chain_becomes_joins_returning_the_last_model(self, models):
        Author, Post = models["Author"], models["Post"]
        query = QueryTemplate.from_queryset(
            Author.objects.filter(id=Param("id"))
            .through(("reverse", "Post", "author"))).query({"id": 1})
        authors, posts = Author._meta.db_table, Post._meta.db_table
        assert [(j.left_table, j.left_column, j.right_table, j.right_column)
                for j in query.joins] == [(authors, "id", posts, "author_id")]
        assert query.select_from == posts


def match(template, description):
    """The interceptor's match: the memoisable shape check, then the bind."""
    if not template.match_shape(description):
        return None
    return template.bind(description)


class TestTemplateMatching:
    def _description(self, model, kind="select", filters=None, order_by=(),
                     limit=None, offset=0):
        return QueryDescription(model=model, kind=kind, filters=filters or {},
                                order_by=list(order_by), limit=limit,
                                offset=offset)

    def test_feature_shape_accepts_any_order_and_limit(self, models):
        Post = models["Post"]
        template = QueryTemplate.from_queryset(
            Post.objects.filter(author_id=Param("a")))
        bound = match(template, self._description(
            Post, filters={"author_id": 9}, order_by=[("posted", True)], limit=3))
        assert bound == {"author_id": 9}
        assert match(template, self._description(
            Post, filters={"author_id": 9}, offset=2)) is None
        assert match(template, self._description(
            Post, kind="count", filters={"author_id": 9})) is None

    def test_topk_shape_requires_matching_order_and_bounded_limit(self, models):
        Post = models["Post"]
        template = QueryTemplate.from_queryset(
            Post.objects.filter(author_id=Param("a")).order_by("-posted")[:5])
        ok = self._description(Post, filters={"author_id": 1},
                               order_by=[("posted", True)], limit=5)
        assert match(template, ok) == {"author_id": 1}
        assert match(template, self._description(
            Post, filters={"author_id": 1}, order_by=[("posted", True)],
            limit=6)) is None
        assert match(template, self._description(
            Post, filters={"author_id": 1}, order_by=[("posted", False)],
            limit=5)) is None
        assert match(template, self._description(
            Post, filters={"author_id": 1}, order_by=[("score", True)],
            limit=5)) is None
        assert match(template, self._description(
            Post, filters={"author_id": 1}, limit=5)) is None

    def test_filters_must_cover_exactly_the_params(self, models):
        Post = models["Post"]
        template = QueryTemplate.from_queryset(
            Post.objects.filter(author_id=Param("a")))
        assert match(template, self._description(
            Post, filters={"author_id": 1, "score": 2})) is None
        assert match(template, self._description(Post, filters={})) is None

    def test_chain_templates_never_match(self, models):
        Post = models["Post"]
        template = QueryTemplate.from_queryset(
            Post.objects.filter(author_id=Param("a")).through("author"))
        assert match(template, self._description(
            Post, filters={"author_id": 1})) is None
