"""Unit tests for the CacheGenie interceptor, independent of a full stack."""

from repro.core.interception import CacheGenieInterceptor
from repro.orm.queryset import QueryDescription


class FakeCachedObject:
    """Minimal stand-in implementing the interceptor-facing surface."""

    def __init__(self, table, value, transparent=True):
        self.table = table
        self.value = value
        self.use_transparently = transparent
        self.evaluated_with = None

        class _Stats:
            transparent_fetches = 0
        self.stats = _Stats()

    def matches(self, description):
        if description.table == self.table:
            return dict(description.filters)
        return None

    def evaluate(self, **params):
        self.evaluated_with = params
        return self.value

    def result_for_application(self, value, description):
        return value


class FakeModel:
    class _meta:
        db_table = "profiles"


def make_description(table="profiles", **filters):
    description = QueryDescription(model=FakeModel, kind="select", filters=filters)
    FakeModel._meta.db_table = table
    return description


class TestInterceptor:
    def test_first_matching_object_wins(self):
        interceptor = CacheGenieInterceptor()
        first = FakeCachedObject("profiles", ["first"])
        second = FakeCachedObject("profiles", ["second"])
        interceptor.register(first)
        interceptor.register(second)
        handled, result = interceptor.try_fetch(make_description(user_id=1))
        assert handled and result == ["first"]
        assert first.evaluated_with == {"user_id": 1}
        assert first.stats.transparent_fetches == 1
        assert second.evaluated_with is None

    def test_non_transparent_objects_skipped(self):
        interceptor = CacheGenieInterceptor()
        hidden = FakeCachedObject("profiles", ["hidden"], transparent=False)
        interceptor.register(hidden)
        handled, _ = interceptor.try_fetch(make_description(user_id=1))
        assert not handled

    def test_no_match_returns_unhandled(self):
        interceptor = CacheGenieInterceptor()
        interceptor.register(FakeCachedObject("walls", ["x"]))
        handled, result = interceptor.try_fetch(make_description(table="profiles"))
        assert not handled and result is None

    def test_unregister_and_clear(self):
        interceptor = CacheGenieInterceptor()
        obj = FakeCachedObject("profiles", ["x"])
        interceptor.register(obj)
        interceptor.unregister(obj)
        assert interceptor.cached_objects == []
        interceptor.register(obj)
        interceptor.clear()
        handled, _ = interceptor.try_fetch(make_description())
        assert not handled


class TestShapeMemo:
    """The per-shape candidate memo follows the registered set."""

    def test_registration_changes_are_seen_after_a_lookup(self):
        interceptor = CacheGenieInterceptor()
        assert interceptor.try_fetch(make_description(user_id=1)) == (False, None)
        late = FakeCachedObject("profiles", ["late"])
        interceptor.register(late)          # same shape, memoised as "nobody"
        assert interceptor.try_fetch(make_description(user_id=1)) == (True, ["late"])
        interceptor.unregister(late)
        assert interceptor.try_fetch(make_description(user_id=1)) == (False, None)
        interceptor.register(late)
        interceptor.clear()
        assert interceptor.try_fetch(make_description(user_id=1)) == (False, None)

    def test_memo_is_capped(self, monkeypatch):
        from repro.core import interception
        monkeypatch.setattr(interception, "SHAPE_MEMO_MAX", 4)
        interceptor = CacheGenieInterceptor()
        interceptor.register(FakeCachedObject("profiles", ["x"]))
        for limit in range(1, 40):          # limit is part of a query's shape
            description = make_description(user_id=1)
            description.limit = limit
            assert interceptor.try_fetch(description) == (True, ["x"])
            assert len(interceptor._match_cache) <= 4
