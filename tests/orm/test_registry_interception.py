"""Tests for the registry and the query-interception hook."""

import pytest

from repro.errors import ModelError, ORMError
from repro.orm import QueryInterceptor, Registry
from repro.orm.queryset import QueryDescription
from repro.storage import Database

from tests.helpers import build_blog_models


class RecordingInterceptor(QueryInterceptor):
    """Serves any 'author' select from a canned result, recording descriptions."""

    def __init__(self, canned):
        self.canned = canned
        self.seen = []

    def try_fetch(self, description):
        self.seen.append(description)
        if description.table == "author" and description.kind == "select":
            return True, self.canned
        return False, None


class TestRegistry:
    def test_unbound_registry_raises_on_use(self):
        registry = Registry("unbound")
        with pytest.raises(ORMError):
            registry.db

    def test_get_model_unknown_raises(self):
        registry = Registry("r")
        with pytest.raises(ModelError):
            registry.get_model("missing")

    def test_unbind_clears_interceptors(self):
        stack = build_blog_models("reg1")
        registry = stack["registry"]
        registry.add_interceptor(RecordingInterceptor([]))
        registry.unbind()
        assert registry.interceptors == []

    def test_create_all_is_idempotent(self):
        stack = build_blog_models("reg2")
        stack["registry"].create_all()  # second call must not raise
        assert stack["database"].has_table("author")


class TestInterception:
    def test_intercepted_query_skips_database(self):
        stack = build_blog_models("icept1")
        Author = stack["Author"]
        Author.objects.create(username="real")
        interceptor = RecordingInterceptor([{"id": 99, "username": "cached", "karma": 7}])
        stack["registry"].add_interceptor(interceptor)
        results = list(Author.objects.filter(username="whatever"))
        assert len(results) == 1
        assert results[0].username == "cached"
        assert results[0].pk == 99

    def test_description_contains_normalized_filters(self):
        stack = build_blog_models("icept2")
        interceptor = RecordingInterceptor([])
        stack["registry"].add_interceptor(interceptor)
        list(stack["Post"].objects.filter(author_id=3).order_by("-score")[:5])
        description = interceptor.seen[-1]
        assert isinstance(description, QueryDescription)
        assert description.filters == {"author_id": 3}
        assert description.order_by == [("score", True)]
        assert description.limit == 5

    def test_non_equality_queries_not_offered(self):
        stack = build_blog_models("icept3")
        interceptor = RecordingInterceptor([])
        stack["registry"].add_interceptor(interceptor)
        list(stack["Post"].objects.filter(score__gte=3))
        assert interceptor.seen == []

    def test_count_interception(self):
        stack = build_blog_models("icept5")

        class CountInterceptor(QueryInterceptor):
            def try_fetch(self, description):
                if description.kind == "count":
                    return True, 123
                return False, None

        stack["registry"].add_interceptor(CountInterceptor())
        assert stack["Author"].objects.filter(karma=1).count() == 123

    def test_remove_interceptor(self):
        stack = build_blog_models("icept6")
        Author = stack["Author"]
        Author.objects.create(username="real")
        interceptor = RecordingInterceptor([{"id": 1, "username": "cached", "karma": 0}])
        registry = stack["registry"]
        registry.add_interceptor(interceptor)
        registry.remove_interceptor(interceptor)
        assert list(Author.objects.filter(username="real"))[0].username == "real"
